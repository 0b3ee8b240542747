import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lcsdyn import ConfigError
from lcsdyn.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_VERIFY,
                        ExperimentConfig, cmd_convergence, cmd_integrate,
                        cmd_verify, main)


def base_config(**overrides):
    cfg = {
        "system": "harmonic_1d",
        "sigma_params": [0.1],
        "method": "dlcel",
        "h": 0.1,
        "steps": 10,
        "initial": {"q0": [1.0], "q1": [0.99]},
        "tol": 1e-12,
    }
    cfg.update(overrides)
    return cfg


def test_config_round_trip(tmp_path):
    d = base_config(output_path=str(tmp_path / "out.csv"))
    cfg = ExperimentConfig.from_dict(d)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert cfg == again
    assert again.to_dict() == cfg.to_dict()


def test_config_validation_errors():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(base_config(system="unknown"))
    assert "system" in str(exc.value)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(method="leapfrog"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(h=-0.1))
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(base_config(initial={"q0": [1.0]}))
    assert "initial" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(base_config(initial={"q0": [1.0],
                                                        "q1": [1.0, 2.0]}))
    assert "initial.q1" in str(exc.value)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(bogus_field=1.0))


def test_integrate_rows_and_header(tmp_path):
    out = tmp_path / "traj.csv"
    cfg = ExperimentConfig.from_dict(base_config(
        method="del", sigma_params=[0.0],
        initial={"q0": [1.0], "q1": [0.9900249376558604]},
        output_path=str(out)))
    summary = cmd_integrate(cfg)
    lines = out.read_text().splitlines()
    assert lines[0] == "k,t,chart,q_0,p_0,r_0,sigma,energy"
    assert len(lines) == 12  # header + 11 lattice points
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks == list(range(11))
    assert summary["rows"] == 11
    assert (tmp_path / "traj.summary.json").exists()


def test_header_shape_for_2d(tmp_path):
    out = tmp_path / "traj2.csv"
    cfg = ExperimentConfig.from_dict({
        "system": "planar_2d", "method": "rk4-lcshe", "h": 0.1, "steps": 5,
        "initial": {"q": [1.0, 0.5], "p": [0.0, 0.1]},
        "output_path": str(out)})
    cmd_integrate(cfg)
    header = out.read_text().splitlines()[0]
    assert header == "k,t,chart,q_0,q_1,p_0,p_1,r_0,r_1,sigma,energy"


def test_dlcel_at_zero_sigma_matches_del_bytewise(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    initial = {"q0": [1.0], "q1": [0.9900249376558604]}
    cmd_integrate(ExperimentConfig.from_dict(base_config(
        method="del", sigma_params=[0.0], initial=initial,
        output_path=str(out_a))))
    cmd_integrate(ExperimentConfig.from_dict(base_config(
        method="dlcel", sigma_params=[0.0], initial=initial,
        output_path=str(out_b))))
    assert out_a.read_text() == out_b.read_text()


def test_rotor_chart_column_changes_once_per_crossing(tmp_path):
    out = tmp_path / "rotor.csv"
    cfg = ExperimentConfig.from_dict({
        "system": "free_rotor_circle", "sigma_params": [0.1],
        "method": "dlcel", "h": 0.05, "steps": 95,
        "initial": {"q0": [0.0], "q1": [0.05]}, "tol": 1e-12,
        "output_path": str(out)})
    summary = cmd_integrate(cfg)
    charts = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
    changes = sum(1 for a, b in zip(charts, charts[1:]) if a != b)
    assert changes == summary["chart_switches"] == 1


def test_numbers_have_full_precision(tmp_path):
    out = tmp_path / "prec.csv"
    cmd_integrate(ExperimentConfig.from_dict(base_config(output_path=str(out))))
    row = out.read_text().splitlines()[2].split(",")
    q1 = float(row[3])
    assert f"{q1:.17g}" == row[3]


def test_convergence_slope_conformal_and_flat():
    for c in (0.1, 0.0):
        cfg = ExperimentConfig.from_dict({
            "system": "harmonic_1d", "sigma_params": [c], "method": "dlcel",
            "h": 0.1, "steps": 10, "initial": {"q": [1.0], "p": [0.0]},
            "tol": 1e-12})
        report = cmd_convergence(cfg, [0.2, 0.1, 0.05, 0.025])
        assert 1.8 <= report["order"] <= 2.2, (c, report)


def test_convergence_rk4_reference_order():
    cfg = ExperimentConfig.from_dict({
        "system": "harmonic_1d", "sigma_params": [0.1], "method": "rk4-lcel",
        "h": 0.1, "steps": 10, "initial": {"q": [1.0], "p": [0.0]},
        "tol": 1e-12})
    report = cmd_convergence(cfg, [0.2, 0.1, 0.05], h_ref=0.00125)
    assert 3.7 <= report["order"] <= 4.3


def test_convergence_validation():
    cfg = ExperimentConfig.from_dict(base_config(
        initial={"q": [1.0], "p": [0.0]}))
    with pytest.raises(ConfigError):
        cmd_convergence(cfg, [0.2, 0.1])
    bad = ExperimentConfig.from_dict(base_config())
    with pytest.raises(ConfigError):
        cmd_convergence(bad, [0.2, 0.1, 0.05])


def test_verify_reports_all_sections():
    report = cmd_verify("harmonic_1d", seed=0)
    names = {c["name"] for c in report["checks"]}
    assert {"cocycle", "reduction_constant_sigma", "stationarity",
            "legendre_commutation", "momentum_relation",
            "lcs_two_form_condition", "divergence_identity",
            "continuous_equivalence", "globalization"} <= names
    assert report["passed"]
    div = next(c for c in report["checks"] if c["name"] == "divergence_identity")
    assert "factor convention" in div["note"]


def test_main_exit_codes(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    assert main(["integrate", "--config", str(cfg_path)]) == 0

    cfg_path.write_text(json.dumps(base_config(method="nope")))
    assert main(["integrate", "--config", str(cfg_path)]) == EXIT_CONFIG

    # a run that cannot take a step: the implicit solve leaves the chart
    cfg_path.write_text(json.dumps({
        "system": "free_rotor_circle", "sigma_params": [0.1], "method": "rd",
        "h": 0.5, "steps": 400, "initial": {"q": [1.0], "p": [9.0]},
        "tol": 1e-10}))
    assert main(["integrate", "--config", str(cfg_path)]) == EXIT_NUMERICAL

    assert main(["verify", "--system", "harmonic_1d", "--seed", "0"]) == 0
    capsys.readouterr()

    # corrupt the catalog so the cocycle check fails end to end
    import lcsdyn.systems as systems_mod
    from lcsdyn import Chart, ConformalAtlas
    from lcsdyn.systems import System, free_rotor_circle

    def corrupted(c=0.1):
        rotor = free_rotor_circle(c)
        c0, c1 = rotor.atlas.charts
        bad0 = Chart(id=0, dim=1, lower=c0.lower, upper=c0.upper,
                     sigma=lambda q: c * float(q[0]) + 0.01 * float(q[0]),
                     sigma_grad=lambda q: np.array([c + 0.01]))
        atlas = ConformalAtlas(charts=(bad0, c1),
                               transitions=rotor.atlas.transitions)
        return System(name="corrupted", n=1, atlas=atlas,
                      lagrangian=rotor.lagrangian, hamiltonian=rotor.hamiltonian,
                      start_chart=0, sigma_params=(c,))

    monkeypatch.setitem(systems_mod.CATALOG, "corrupted", corrupted)
    monkeypatch.setitem(systems_mod.DEFAULT_SIGMA_PARAMS, "corrupted", (0.1,))
    code = main(["verify", "--system", "corrupted"])
    out = capsys.readouterr().out
    assert code == EXIT_VERIFY
    report = json.loads(out)
    cocycle = next(c for c in report["checks"] if c["name"] == "cocycle")
    assert not cocycle["passed"]


def test_verify_unknown_system_is_config_error():
    assert main(["verify", "--system", "nope"]) == EXIT_CONFIG


def test_verify_sigma_params_length_is_config_error():
    assert main(["verify", "--system", "planar_2d", "--sigma-params", "0.1"]) \
        == EXIT_CONFIG


@pytest.mark.parametrize("overrides", [
    {"sigma_params": [0.1, 0.2]},
    {"initial": {"q0": ["one"], "q1": [0.99]}},
    {"steps": "10"},
    {"initial": {"q0": [float("nan")], "q1": [0.99]}},
], ids=["sigma_params_length", "non_numeric_initial", "string_steps", "nan_initial"])
def test_bad_config_is_config_error(tmp_path, overrides):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(**overrides)))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(str(cfg_path))
    assert main(["integrate", "--config", str(cfg_path)]) == EXIT_CONFIG


def test_hamiltonian_method_switches_rotor_charts(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "system": "free_rotor_circle", "sigma_params": [-0.1], "method": "rdlch",
        "h": 0.05, "steps": 2000, "initial": {"q": [0.3], "p": [1.0]},
        "tol": 1e-12}))
    assert main(["integrate", "--config", str(cfg_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["chart_switches"] >= 8


def test_integrate_failure_writes_partial(tmp_path, capsys):
    # a discrete march that fails, and the RK4 references, which stay on the
    # start chart, once the rotor leaves it
    from lcsdyn import IntegrationError
    runs = [("rd", 0.5, [1.0], [9.0]), ("rk4-lcel", 0.1, [0.1], [1.5]),
            ("rk4-lcshe", 0.1, [0.1], [1.5])]
    for method, h, q, p in runs:
        out = tmp_path / f"{method}.csv"
        data = {"system": "free_rotor_circle", "sigma_params": [0.1], "method": method,
                "h": h, "steps": 400, "initial": {"q": q, "p": p}, "tol": 1e-10,
                "output_path": str(out)}
        with pytest.raises(IntegrationError) as exc:
            cmd_integrate(ExperimentConfig.from_dict(data))
        lines = out.read_text().splitlines()
        assert lines[0].startswith("k,t,chart")
        assert len(lines) >= 2  # at least the seed point was recorded
        summary = json.loads((tmp_path / f"{method}.summary.json").read_text())
        assert summary["failed_at_index"] >= 1
        assert summary["error"] == str(exc.value)
        if method.startswith("rk4"):
            assert "outside chart 0" in summary["error"]
            assert len(lines) == summary["failed_at_index"] + 1
            assert main(["integrate", "--config", _write_config(tmp_path, data)]) == EXIT_NUMERICAL
            assert "outside chart 0" in capsys.readouterr().err


def _write_config(tmp_path, data) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


CONVERGENCE_CONFIG = base_config(method="dlcel", h=0.1, steps=10,
                                 initial={"q": [1.0], "p": [0.0]})


@pytest.mark.parametrize("argv, field", [
    (["verify", "--system", "harmonic_1d", "--seed", "-1"], "seed"),
    (["verify", "--system", "harmonic_1d", "--sigma-params", "abc"], "sigma_params"),
    (["convergence", "--config", "{cfg}", "--h", "0.1,0.05,0.025", "--h-ref", "0"],
     "h_ref"),
    (["convergence", "--config", "{cfg}", "--h", "0.1,0.05,0.025", "--h-ref", "nan"],
     "h_ref"),
    (["convergence", "--config", "{cfg}", "--h", "0.1,nan,0.025"], "h_list"),
    (["convergence", "--config", "{cfg}", "--h", "0.1,0.1,0.1", "--h-ref", "0.001"],
     "h_list"),
    (["convergence", "--config", "{cfg}", "--h", "0.1,0.05,0.025", "--h-ref", "0.025"],
     "h_ref"),
], ids=["negative_seed", "sigma_params_not_numbers", "zero_h_ref", "nan_h_ref",
        "nan_in_h_list", "duplicate_h", "h_not_above_h_ref"])
def test_bad_command_line_value_is_config_error(tmp_path, capsys, argv, field):
    cfg = _write_config(tmp_path, CONVERGENCE_CONFIG)
    assert main([a.replace("{cfg}", cfg) for a in argv]) == EXIT_CONFIG
    assert f"{field}:" in capsys.readouterr().err


def test_convergence_with_zero_error_is_numerical_failure(tmp_path, capsys):
    # at the equilibrium every method is exact, so no order can be fitted
    report = tmp_path / "report.json"
    cfg = _write_config(tmp_path, dict(CONVERGENCE_CONFIG, initial={"q": [0.0], "p": [0.0]},
                                       output_path=str(report)))
    assert main(["convergence", "--config", cfg, "--h", "0.1,0.05,0.025"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "h=0.1" in captured.err and captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize("data", [None, [base_config()], "harmonic_1d"],
                         ids=["null", "list", "string"])
def test_config_that_is_not_an_object_is_config_error(tmp_path, capsys, data):
    cfg = _write_config(tmp_path, data)
    with pytest.raises(ConfigError, match="must be a JSON object"):
        ExperimentConfig.from_json(cfg)
    assert main(["integrate", "--config", cfg]) == EXIT_CONFIG
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, field", [
    ({"method": "rk4-lcel", "h": float("inf"), "initial": {"q": [1.0], "p": [0.0]}},
     "h"),
    ({"tol": float("inf")}, "tol"),
], ids=["infinite_h", "infinite_tol"])
def test_infinite_step_or_tolerance_is_config_error(tmp_path, overrides, field):
    cfg = _write_config(tmp_path, base_config(**overrides))
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_json(cfg)
    assert exc.value.field == field
    assert main(["integrate", "--config", cfg]) == EXIT_CONFIG


def test_unwritable_verify_output_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    assert main(["verify", "--system", "harmonic_1d", "--output", str(target)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "output:" in err and str(target) in err


def test_unwritable_integrate_output_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "traj.csv"
    cfg = _write_config(tmp_path, base_config(output_path=str(target)))
    assert main(["integrate", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "output_path:" in err and str(target) in err


def _strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_verify_report_without_a_measurement_is_valid_json(tmp_path, capsys):
    # with c < 0 the rotor march slows down and never reaches an overlap
    report_path = tmp_path / "r.json"
    code = main(["verify", "--system", "free_rotor_circle", "--sigma-params=-0.5",
                 "--output", str(report_path)])
    assert code == EXIT_VERIFY
    for text in (capsys.readouterr().out, report_path.read_text()):
        report = _strict_json(text)
        glob = next(c for c in report["checks"] if c["name"] == "globalization")
        assert glob["measured"] is None and not glob["passed"]
        assert "never crossed" in glob["note"]


@pytest.mark.parametrize("overrides, key", [
    ({"initial": {"q0": [100.0], "q1": [0.99]}}, "q0"),
    ({"initial": {"q0": [1.0], "q1": [-60.0]}}, "q1"),
    ({"method": "rdlch", "initial": {"q": [100.0], "p": [0.0]}}, "q"),
    ({"method": "rk4-lcshe", "initial": {"q": [-51.0], "p": [0.0]}}, "q"),
    ({"system": "free_rotor_circle", "method": "rk4-lcel",
      "initial": {"q": [4.0], "p": [1.0]}}, "q"),
], ids=["q0", "q1", "q_hamiltonian", "q_rk4", "q_rotor"])
def test_initial_point_outside_start_chart_is_config_error(tmp_path, capsys,
                                                           overrides, key):
    cfg = _write_config(tmp_path, base_config(**overrides))
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_json(cfg)
    assert exc.value.field == f"initial.{key}"
    assert main(["integrate", "--config", cfg]) == EXIT_CONFIG
    assert f"initial.{key}:" in capsys.readouterr().err


# Edge configs for the Hamiltonian and conformal Lagrangian marches.  Each
# case gives the (q, p) start and, for dlcel, the seed pair (q0, q1).
EDGE_CASES = {
    "h_50": {"h": 50.0},
    "h_1e-300": {"h": 1e-300},
    "p_1e200": {"initial": {"q": [1.0], "p": [1e200]}, "pair": [[1.0], [50.0]]},
    "q_edge_p_1e6": {"initial": {"q": [49.99], "p": [1e6]}, "pair": [[49.99], [50.0]]},
    "planar_p_1e8": {"system": "planar_2d", "sigma_params": [0.3, 0.1],
                     "initial": {"q": [0.1, 0.1], "p": [1e8, 0.0]},
                     "pair": [[0.1, 0.1], [50.0, 0.1]]},
    "rotor_leaves_atlas": {"system": "free_rotor_circle", "sigma_params": [0.1],
                           "initial": {"q": [0.1], "p": [100.0]}, "pair": [[0.1], [3.9]]},
    "max_iter_1": {"max_iter": 1},
    "sigma_800": {"sigma_params": [800.0]},
    "sigma_-800": {"sigma_params": [-800.0]},
    "sigma_1e308": {"sigma_params": [1e308]},
}


# the inputs are chosen to overflow; main keeps numpy's warnings to itself
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(EDGE_CASES))
@pytest.mark.parametrize("method", ["rd", "ld", "rdlch", "ldlch", "dlcel"])
def test_edge_configs_end_in_success_or_numerical_failure(tmp_path, capsys, method, case):
    data = dict(base_config(method=method, steps=5, tol=1e-10,
                            initial={"q": [1.0], "p": [0.5]}), **EDGE_CASES[case])
    q0, q1 = data.pop("pair", [[1.0], [0.99]])
    if method == "dlcel":
        data["initial"] = {"q0": q0, "q1": q1}
    code = main(["integrate", "--config", _write_config(tmp_path, data)])
    assert code in (0, EXIT_NUMERICAL)
    if code == EXIT_NUMERICAL:
        assert capsys.readouterr().err.startswith("numerical failure: ")


# Edge configs whose numpy overflow or invalid-value warnings used to reach
# stderr ahead of the failure line.  Only a separate process shows what a user
# sees: pytest captures warnings raised in its own process.
STDERR_CASES = {
    "ld_h_1e-300": {"method": "ld", "h": 1e-300},
    "dlcel_sigma_800": {"method": "dlcel", "sigma_params": [800.0]},
    "dlcel_sigma_-800": {"method": "dlcel", "sigma_params": [-800.0]},
    "rdlch_sigma_-800": {"method": "rdlch", "sigma_params": [-800.0]},
}


@pytest.mark.parametrize("case", list(STDERR_CASES))
def test_numerical_failure_prints_one_line_to_stderr(tmp_path, case):
    data = dict(base_config(steps=5, tol=1e-10), **STDERR_CASES[case])
    if data["method"] != "dlcel":
        data["initial"] = {"q": [1.0], "p": [0.5]}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "lcsdyn.cli", "integrate", "--config",
                           _write_config(tmp_path, data)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == EXIT_NUMERICAL
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: "), done.stderr
