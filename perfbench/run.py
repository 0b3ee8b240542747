#!/usr/bin/env python3
"""Benchmark of lcsdyn: end-to-end metrics per workload, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload conformal_march --seed 0 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  One process runs a workload as a
closed loop of passes, one after the other, until the next pass would end
after ``--seconds``; every pass gets fresh inputs from ``(seed, pass index)``
and every task's output is checked.  ``lcsdyn`` is imported from the ``src/``
directory beside this one and from nowhere else.

Output: a JSON record of the machine, the code and the per-pass figures, then,
as the last line, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``
(tracing off), their times in reference seconds (see ``calibrate.py``; the
measured seconds are in the record); with ``--trace 1`` each round runs a pass
untraced and the same inputs traced, checks that both give bitwise the same
outputs, and reports the per-layer metrics.  README.md describes every metric.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Pinned before numpy is first imported; the set-up probes inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import calibrate  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
# A CPU that has been idle runs this code slower for its first few seconds of
# load; tiny passes of the same workload absorb that before any timing.
WARMUP_S = 4.0


def load_program() -> None:
    """Put ``src/`` first on the path and make sure lcsdyn comes from there."""
    sys.path.insert(0, str(SRC))
    try:
        import lcsdyn
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import lcsdyn from {SRC}: {e}")
    if Path(lcsdyn.__file__).resolve().parent != (SRC / "lcsdyn").resolve():
        raise SystemExit(f"perfbench: lcsdyn was imported from {lcsdyn.__file__}, "
                         f"not from {SRC}")


@dataclass
class PassResult:
    wall_s: float    # measured seconds of building and running, probes excluded
    probes: list     # calibration probe seconds, before the pass and after each op
    outputs: dict
    failures: dict   # op name -> reason
    ops: int


def execute(workload, seed: int, k: int, size: dict) -> tuple[PassResult, list]:
    """Build and run pass ``k``, timed; returns the unchecked result and the ops."""
    import workloads

    rng = workloads.pass_rng(workload.name, seed, k)
    probes = [calibrate.probe()]
    t0 = time.perf_counter()
    ops = workload.build(rng, size)
    outputs, failures = {}, {}
    wall = 0.0
    for op in ops:
        try:
            outputs[op.name] = op.run()
        except Exception as e:  # a task that raises is a failed op; the pass goes on
            failures[op.name] = f"raised {type(e).__name__}: {e}"
        wall += time.perf_counter() - t0
        probes.append(calibrate.probe())
        t0 = time.perf_counter()
    return PassResult(wall, probes, outputs, failures, len(ops)), ops


def check(result: PassResult, ops: list) -> PassResult:
    """Check every op that returned an output; untimed."""
    for op in ops:
        if op.name in result.failures:
            continue
        try:
            reason = op.check(result.outputs[op.name])
        except Exception as e:  # a check that cannot read the output fails the op
            reason = f"check raised {type(e).__name__}: {e}"
        if reason:
            result.failures[op.name] = reason
    return result


def run_pass(workload, seed: int, k: int, size: dict) -> PassResult:
    """A checked pass that keeps no outputs, so memory does not grow with passes."""
    result = check(*execute(workload, seed, k, size))
    result.outputs.clear()
    return result


def closed_loop(seconds: float, one_round) -> list:
    """Run rounds back to back until the next one would end after ``seconds``."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(one_round(len(rounds)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def same_bits(a: dict, b: dict) -> bool:
    import numpy as np

    if a.keys() != b.keys():
        return False
    for key, x in a.items():
        y = b[key]
        if isinstance(x, np.ndarray):
            if not (isinstance(y, np.ndarray) and x.dtype == y.dtype
                    and x.shape == y.shape and x.tobytes() == y.tobytes()):
                return False
        elif type(x) is not type(y) or x != y:
            return False
    return True


def setup_seconds(workload: str, seed: int, tiny: bool) -> tuple[list, list]:
    """Seconds from a fresh process start to ready-for-the-first-step, and the
    calibration probes taken around each start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    samples, probes = [], []
    for _ in range(SETUP_PROBES):
        before = calibrate.probe()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {code})")
        samples.append(t1 - t0)
        probes += [before, calibrate.probe()]
    return samples, probes


def _proc_field(path: str, key: str, default: str) -> str:
    try:
        with open(path) as f:
            return next((line.split(":", 1)[1].strip() for line in f
                         if line.startswith(key)), default)
    except OSError:
        return default


def machine_and_code(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lcsdyn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "machine": {"nproc": os.cpu_count(),
                    "cpu_model": _proc_field("/proc/cpuinfo", "model name",
                                             platform.processor()),
                    "python": platform.python_version(), "numpy": numpy.__version__,
                    "blas": blas,
                    "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
                    "process_threads": _proc_field("/proc/self/status", "Threads",
                                                   "unknown")},
        "code": {"git_commit": commit, "src_sha256": digest.hexdigest()},
        "seed": seed,
    }


def tail(walls: list[float]) -> dict | None:
    """The highest percentile with at least ten passes beyond it, if there is one."""
    n = len(walls)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(walls)[n - 11]}


def warm_up(workload, seed: int) -> None:
    start = time.perf_counter()
    while time.perf_counter() - start < WARMUP_S:
        run_pass(workload, seed, -1, workload.sizes["tiny"])


def end_to_end(workload, seed: int, seconds: float, size: dict, tiny: bool):
    setup, setup_probes = setup_seconds(workload.name, seed, tiny)
    if not tiny:
        warm_up(workload, seed)
    passes = closed_loop(seconds, lambda k: run_pass(workload, seed, k, size))
    walls = [p.wall_s for p in passes]
    probes = [t for p in passes for t in p.probes]
    wall_cal = calibrate.to_reference(statistics.median(walls), probes)
    metrics = {
        "wall_cal_s": (wall_cal, "s"),
        "steps_per_cal_s": (workload.steps(size) / wall_cal, "1/s"),
        "setup_s": (calibrate.to_reference(statistics.median(setup), setup_probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    record = {"passes": len(walls), "steps_per_pass": workload.steps(size),
              "wall_s": statistics.median(walls), "wall_s_tail": tail(walls),
              "pass_wall_s": walls, "probe_s": probes, "setup_s_measured": setup,
              "setup_probe_s": setup_probes}
    return passes, metrics, record


def traced(workload, seed: int, seconds: float, size: dict, tiny: bool):
    from tracer import Tracer

    tracer = Tracer()
    if not tiny:
        warm_up(workload, seed)

    def one_round(k: int):
        plain = check(*execute(workload, seed, k, size))
        covered = tracer.covered_s
        tracer.install()
        try:
            with_trace, ops = execute(workload, seed, k, size)
        finally:
            tracer.uninstall()
        check(with_trace, ops)
        for name, out in with_trace.outputs.items():
            if name in plain.outputs and not same_bits(out, plain.outputs[name]):
                with_trace.failures.setdefault(name, "traced output differs from untraced")
        plain.outputs.clear()
        with_trace.outputs.clear()
        unattributed = with_trace.wall_s - (tracer.covered_s - covered)
        return plain, with_trace, unattributed

    rounds = closed_loop(seconds, one_round)
    # Per-layer times in reference seconds too, from the traced passes' probes.
    scale = calibrate.to_reference(1.0, [t for _, w, _ in rounds for t in w.probes])
    metrics = {name: (value * scale if unit in ("s", "us") else value, unit)
               for name, (value, unit) in tracer.layer_metrics(len(rounds)).items()}
    metrics["trace.overhead_frac"] = (statistics.median(
        calibrate.to_reference(t.wall_s, t.probes)
        / calibrate.to_reference(p.wall_s, p.probes) - 1.0 for p, t, _ in rounds), "ratio")
    metrics["trace.unattributed_s"] = (scale * statistics.median(u for _, _, u in rounds),
                                       "s")
    passes = [p for p, _, _ in rounds] + [t for _, t, _ in rounds]
    record = {"untraced_wall_s": [p.wall_s for p, _, _ in rounds],
              "traced_wall_s": [t.wall_s for _, t, _ in rounds],
              "spans": {name: {"calls": s[0] / len(rounds), "inclusive_s": s[1] / len(rounds),
                               "self_s": s[2] / len(rounds)}
                        for name, s in sorted(tracer.stats.items()) if s[0]}}
    return passes, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    size = workload.sizes["tiny" if args.tiny else "full"]
    if args.setup_probe:
        workload.build(workloads.pass_rng(workload.name, args.seed, 0), size)
        print("ready", flush=True)
        return 0

    measure = traced if args.trace else end_to_end
    passes, metrics, record = measure(workload, args.seed, args.seconds, size, args.tiny)
    failures = [{"pass": k, "op": op, "reason": why}
                for k, p in enumerate(passes) for op, why in sorted(p.failures.items())]
    for f in failures:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    attempted = sum(p.ops for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(json.dumps({"workload": workload.name, "trace": args.trace,
                      "tiny": args.tiny, **machine_and_code(args.seed),
                      **record, "failures": failures}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
