#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, ends with a clean result line whose
   metrics are exactly the ``end_to_end`` (untraced) or ``per_layer`` (traced)
   metrics of ``BENCHMARK.json``, each with its unit and a finite value.
2. A deliberately corrupted output of each task is counted in the result
   line's ``failed``: every op of a pass fails, and ``correct`` is false.
"""

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


def last_line(text: str) -> dict:
    result = json.loads(text.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def check_printed_metrics() -> None:
    for workload in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(Path(run.__file__).resolve()), "--workload",
                 workload["name"], "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            result = last_line(proc.stdout)
            assert result["correct"] and result["failed"] == 0, proc.stderr
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == expected, (
                f"{workload['name']} trace {trace}: not in BENCHMARK.json "
                f"{sorted(set(printed.items()) - set(expected.items()))}, not printed "
                f"{sorted(set(expected.items()) - set(printed.items()))}")
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            print(f"ok  {workload['name']} trace {trace}: {len(printed)} metrics")


def corrupt(out: dict) -> dict:
    """A copy of a task output with each float entry shifted by a different amount
    (so entries checked against each other disagree) and every report failed."""
    bad = {}
    for shift, (key, value) in enumerate(out.items(), start=1):
        if isinstance(value, float) or getattr(value, "dtype", None) == float:
            value = value + shift
        elif isinstance(value, str):
            value = value.replace('"passed": true', '"passed": false')
        bad[key] = value
    return bad


def check_corruption_counted() -> None:
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        def build(rng, size, _build=workload.build):
            return [dataclasses.replace(op, run=lambda _run=op.run: corrupt(_run()))
                    for op in _build(rng, size)]

        workloads.WORKLOADS[name] = dataclasses.replace(workload, build=build)
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                          "--trace", "0", "--tiny"])
        finally:
            workloads.WORKLOADS[name] = workload
        result = last_line(stdout.getvalue())
        assert not result["correct"], name
        assert result["failed"] == result["attempted"] > 0, (name, result)
        print(f"ok  {name}: {result['failed']} of {result['attempted']} corrupted ops "
              f"counted as failed")


if __name__ == "__main__":
    run.load_program()
    check_printed_metrics()
    check_corruption_counted()
    print("selftest passed")
