"""Experiment driver.

Subcommands::

    lcsdyn integrate   --config cfg.json
    lcsdyn convergence --config cfg.json --h 0.2,0.1,0.05,0.025 [--h-ref H]
    lcsdyn verify      --system harmonic_1d [--seed 0] [--output report.json]

Configs and reports are JSON; trajectories are CSV with the fixed header

    k,t,chart,q_0..q_{n-1},p_0..p_{n-1},r_0..r_{n-1},sigma,energy

and numbers printed with 17 significant digits.  Exit codes: 0 success,
2 config error, 3 numerical failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .continuous import (fiber_legendre, fiber_legendre_inv, make_lcel_field,
                         make_lcshe_field, rk4_integrate)
from .discretize import (conformal_midpoint_rule, conformal_trapezoidal_rule,
                         midpoint_rule, trapezoidal_rule)
from .errors import (ConfigError, ConsistencyError, DomainError,
                     IntegrationError, NewtonError, RegularityError)
from .hamiltonian_discrete import (build_left_hamiltonian,
                                   build_right_hamiltonian,
                                   integrate_hamiltonian)
from .numerics import StepperConfig
from .systems import (CATALOG, DEFAULT_SIGMA_PARAMS, System, get_system,
                      with_constant_sigma)
from .trajectory import DiscreteTrajectory, TrajectoryPoint
from .variational import integrate
from . import verification

# method -> (march, conformal): the Lagrangian three-point march, a right or
# left discrete Hamiltonian march, or RK4 on the Lagrangian or Hamiltonian field.
METHOD_TABLE = {
    "del": ("lagrangian", False), "dlcel": ("lagrangian", True),
    "rd": ("right", False), "ld": ("left", False),
    "rdlch": ("right", True), "ldlch": ("left", True),
    "rk4-lcel": ("lcel", True), "rk4-lcshe": ("lcshe", True),
}
METHODS = tuple(METHOD_TABLE)
TWO_POINT_METHODS = ("del", "dlcel")
RULES = ("midpoint", "trapezoidal")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


@dataclass
class ExperimentConfig:
    """One experiment: a catalog system, a method, a step size, initial data.

    ``initial`` holds ``{"q0": [...], "q1": [...]}`` for the two-point
    Lagrangian methods and ``{"q": [...], "p": [...]}`` for Hamiltonian and
    continuous methods (the convergence command always takes the latter form).
    """

    system: str
    method: str
    h: float
    steps: int
    initial: dict[str, list[float]]
    sigma_params: list[float] = field(default_factory=list)
    rule: str = "midpoint"
    tol: float = 1e-10
    max_iter: int = 50
    output_path: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"the config must be a JSON object, got {type(d).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        for key in d:
            if key not in known:
                raise ConfigError(f"unknown field (known: {sorted(known)})", key)
        try:
            cfg = cls(**d)
        except TypeError as e:
            raise ConfigError(str(e)) from e
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}") from e
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> None:
        _require(isinstance(self.system, str) and self.system in CATALOG,
                 f"unknown system {self.system!r}; available: {sorted(CATALOG)}",
                 "system")
        _require(self.method in METHODS, f"must be one of {METHODS}", "method")
        _require(self.rule in RULES, f"must be one of {RULES}", "rule")
        _require(_is_positive(self.h), "must be a finite positive number", "h")
        _require(_is_number(self.steps, int) and self.steps >= 1,
                 "must be an integer >= 1", "steps")
        _require(self.method not in TWO_POINT_METHODS or self.steps >= 2,
                 "two-point methods need steps >= 2", "steps")
        _require(_is_positive(self.tol) and self.tol >= 1e-14,
                 "must be a finite number >= 1e-14", "tol")
        _require(_is_number(self.max_iter, int) and self.max_iter >= 1,
                 "must be an integer >= 1", "max_iter")
        if self.sigma_params:
            _check_sigma_params(self.system, self.sigma_params)
        system = self._system()
        n = system.n
        _require(isinstance(self.initial, dict)
                 and set(self.initial) in ({"q0", "q1"}, {"q", "p"}),
                 'needs keys {"q0", "q1"} or {"q", "p"}', "initial")
        chart = system.atlas.chart(system.start_chart)
        for key, vec in self.initial.items():
            _require(_is_vector(vec, n), f"must be a list of {n} finite numbers",
                     f"initial.{key}")
            _require(key == "p" or chart.contains(vec),
                     f"{vec} lies outside start chart {chart.id} (lower "
                     f"{chart.lower.tolist()}, upper {chart.upper.tolist()})",
                     f"initial.{key}")

    def require_initial(self, *keys: str) -> None:
        """Enforce the initial-data form a command needs for this method."""
        if set(self.initial) != set(keys):
            raise ConfigError(f"method {self.method!r} here needs keys {keys}",
                              "initial")

    def _system(self) -> System:
        return get_system(self.system, self.sigma_params or None)

    def stepper_config(self) -> StepperConfig:
        return StepperConfig(tol=self.tol, max_iter=self.max_iter)


def _require(ok: bool, message: str, field: str) -> None:
    if not ok:
        raise ConfigError(message, field)


def _is_number(x, kinds=(int, float)) -> bool:
    return isinstance(x, kinds) and not isinstance(x, bool)


def _is_positive(x) -> bool:
    """A finite number > 0."""
    return _is_number(x) and math.isfinite(x) and x > 0


def _is_vector(x, n: int) -> bool:
    """A list of n finite numbers."""
    return isinstance(x, (list, tuple)) and len(x) == n \
        and all(_is_number(v) and math.isfinite(v) for v in x)


def _check_sigma_params(system_name: str, params) -> None:
    """Raise :class:`ConfigError` unless params fit the catalog system's conformal factor."""
    want = len(DEFAULT_SIGMA_PARAMS[system_name])
    _require(_is_vector(params, want),
             f"{system_name} takes {want} finite conformal coefficient(s)", "sigma_params")


def _fmt(x) -> str:
    return "" if x is None else f"{float(x):.17g}"


def write_trajectory_csv(path: str, n: int, rows: list[dict]) -> None:
    header = (["k", "t", "chart"] + [f"{c}_{i}" for c in "qpr" for i in range(n)]
              + ["sigma", "energy"])
    lines = [",".join(header)]
    for row in rows:
        cells = [str(row["k"]), _fmt(row["t"]), str(row["chart"])]
        for key in ("q", "p", "r"):
            vec = row.get(key)
            cells += [_fmt(v) for v in vec] if vec is not None else [""] * n
        cells.append(_fmt(row.get("sigma")))
        cells.append(_fmt(row.get("energy")))
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n", "output_path")


def _write_text(path, text: str, field: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a config error."""
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise ConfigError(f"cannot write {str(path)!r}: {e.strerror or e}", field) from e


def _trajectory_rows(config: ExperimentConfig, system: System) -> tuple[list[dict], dict]:
    """Run the configured method; return CSV rows and a summary dict."""
    n = system.n
    cfg = config.stepper_config()
    h, N = config.h, config.steps
    atlas, chart = system.atlas, system.start_chart
    march, conformal = METHOD_TABLE[config.method]
    keys = ("q0", "q1") if config.method in TWO_POINT_METHODS else ("q", "p")
    config.require_initial(*keys)
    # b is q1 for the two-point methods and p0 for all others
    q0, b = (np.asarray(config.initial[key], dtype=float) for key in keys)

    def make_rule(sys_: System):
        # Conformal methods discretize the chart-local Lagrangian (second-order
        # in the conformal recursion); plain methods never consult sigma.
        if conformal:
            builder = conformal_midpoint_rule if config.rule == "midpoint" \
                else conformal_trapezoidal_rule
            return builder(sys_.lagrangian, sys_.atlas, sys_.start_chart, h)
        builder = midpoint_rule if config.rule == "midpoint" else trapezoidal_rule
        return builder(sys_.lagrangian, h)

    if march == "lagrangian":
        traj = integrate(make_rule(system), atlas, chart, q0, b, N, cfg,
                         conformal=conformal)
    elif march in ("right", "left"):
        built = system if conformal else with_constant_sigma(system, 0.0)
        build = build_right_hamiltonian if march == "right" else build_left_hamiltonian
        Hd = build(make_rule(built), built.atlas, chart)
        traj = integrate_hamiltonian(Hd, built.atlas, chart, q0, b, N, cfg,
                                     conformal=conformal)
    else:
        L = system.lagrangian
        if march == "lcshe":
            field = make_lcshe_field(system.hamiltonian, atlas, chart)
            x0 = np.concatenate([q0, b])
        else:
            field = make_lcel_field(L, atlas, chart)
            x0 = np.concatenate([q0, fiber_legendre_inv(L, q0, b)])
        # a state leaving the start chart ends the run; its rows are still written
        try:
            states, failure = rk4_integrate(field, x0, h, N), None
        except IntegrationError as e:
            states, failure = e.partial, e
        qps = ([(x[:n], x[n:]) for x in states] if march == "lcshe"
               else [(x[:n], fiber_legendre(L, x[:n], x[n:])) for x in states])
        sigma = atlas.chart(chart).sigma
        traj = DiscreteTrajectory(h=h, points=[
            TrajectoryPoint(k=k, chart=chart, q=q, p=p, r=np.exp(-float(sigma(q))) * p)
            for k, (q, p) in enumerate(qps)])
        if failure is not None:
            raise IntegrationError(str(failure), partial=traj,
                                   index=failure.index) from failure

    rows = [_point_row(system, pt, h) for pt in traj.points]
    final = rows[-1]
    summary = {
        "system": system.name,
        "method": config.method,
        "rows": len(rows),
        "newton": {"total_iterations": sum(s.iterations for s in traj.steps),
                   "max_residual": max((s.residual for s in traj.steps), default=0.0)},
        "chart_switches": traj.n_switches(),
        "final": {"k": final["k"], "t": final["t"], "chart": final["chart"],
                  "q": list(final["q"]),
                  "p": list(final["p"]) if final.get("p") is not None else None},
    }
    return rows, summary


def _point_row(system: System, pt, h: float) -> dict:
    ch = system.atlas.chart(pt.chart)
    sigma = float(ch.sigma(pt.q))
    energy = float(system.hamiltonian.value(pt.q, pt.p)) if pt.p is not None else None
    return {"k": pt.k, "t": pt.k * h, "chart": pt.chart, "q": pt.q, "p": pt.p,
            "r": pt.r, "sigma": sigma, "energy": energy}


def cmd_integrate(config: ExperimentConfig) -> dict:
    """Run one trajectory; write CSV (+ .summary.json) when output_path is set.

    A step failure still writes whatever lattice points were produced (momentum
    cells empty where undefined) before re-raising, so partial runs are
    inspectable.
    """
    system = config._system()
    try:
        rows, summary = _trajectory_rows(config, system)
    except IntegrationError as e:
        if isinstance(e.partial, DiscreteTrajectory):
            rows = [_point_row(system, pt, config.h) for pt in e.partial.points]
            _write_outputs(config, system.n, rows, {
                "system": system.name, "method": config.method,
                "failed_at_index": e.index, "rows": len(rows), "error": str(e)})
        raise
    spath = _write_outputs(config, system.n, rows, summary)
    if spath is not None:
        summary["csv_path"] = str(config.output_path)
        summary["summary_path"] = str(spath)
    return summary


def _write_outputs(config: ExperimentConfig, n: int, rows: list[dict],
                   summary: dict) -> Path | None:
    """Write the CSV and its .summary.json when the config names an output path."""
    if not config.output_path:
        return None
    write_trajectory_csv(config.output_path, n, rows)
    spath = Path(config.output_path).with_suffix(".summary.json")
    _write_text(spath, json.dumps(summary, indent=2) + "\n", "output_path")
    return spath


def cmd_convergence(config: ExperimentConfig, h_list: list[float],
                    h_ref: float | None = None) -> dict:
    """Error-vs-h study against an RK4 reference of the continuous Lagrangian flow.

    The target time is ``config.h * config.steps``; the h in ``h_list`` must be
    distinct, divide it and exceed ``h_ref``.  Initial data is the (q, p) form;
    two-point methods seed their second point from the reference at t = h.  An
    error of exactly 0 leaves the order undefined: :class:`IntegrationError`.
    """
    _require(len(h_list) >= 3, "need at least 3 step sizes", "h_list")
    _require(all(_is_positive(h) for h in h_list),
             "step sizes must be finite positive numbers", "h_list")
    _require(len(set(h_list)) == len(h_list), "step sizes must be distinct", "h_list")
    _require(h_ref is None or _is_positive(h_ref), "must be a finite positive number", "h_ref")
    h_ref = h_ref if h_ref is not None else min(h_list) / 100.0
    _require(h_ref < min(h_list), f"must be below every step size, got {h_ref}", "h_ref")
    config.require_initial("q", "p")
    system = config._system()
    n = system.n
    t_final = config.h * config.steps
    q0 = np.asarray(config.initial["q"], dtype=float)
    p0 = np.asarray(config.initial["p"], dtype=float)
    v0 = fiber_legendre_inv(system.lagrangian, q0, p0)
    ref_steps = _steps_to(t_final, h_ref, "h_ref must divide the final time", "h_ref")
    reference = rk4_integrate(
        make_lcel_field(system.lagrangian, system.atlas, system.start_chart),
        np.concatenate([q0, v0]), h_ref, ref_steps)

    def ref_at(t: float) -> np.ndarray:
        return reference[_steps_to(t, h_ref, f"step size {t} is not resolved by "
                                   f"h_ref={h_ref}", "h_list")]

    errors = []
    for h in h_list:
        N = _steps_to(t_final, h, f"h={h} does not divide final time {t_final}",
                      "h_list")
        sub = replace(config, h=h, steps=N, output_path=None,
                      initial=_initial_for(config.method, q0, p0, ref_at(h)[:n]))
        rows, _ = _trajectory_rows(sub, system)
        q_end = np.asarray(rows[-1]["q"], dtype=float)
        errors.append(float(np.max(np.abs(q_end - ref_at(t_final)[:n]))))
        if errors[-1] == 0.0:
            raise IntegrationError(f"h={h}: error 0 against the reference, no order to fit")

    slope = float(np.polyfit(np.log(np.asarray(h_list)), np.log(errors), 1)[0])
    report = {
        "system": system.name, "method": config.method, "t_final": t_final,
        "h_ref": h_ref, "h_list": list(h_list), "errors": errors,
        "order": slope,
    }
    if config.output_path:
        _write_text(config.output_path, json.dumps(report, indent=2, allow_nan=False)
                    + "\n", "output_path")
    return report


def _steps_to(t: float, h: float, message: str, field: str) -> int:
    """The whole number of steps of size h that reach t, or a ConfigError."""
    steps = int(round(t / h))
    _require(abs(steps * h - t) <= 1e-9 * max(1.0, t), message, field)
    return steps


def _initial_for(method: str, q0, p0, q_at_h) -> dict:
    if method in TWO_POINT_METHODS:
        return {"q0": [float(x) for x in q0], "q1": [float(x) for x in q_at_h]}
    return {"q": [float(x) for x in q0], "p": [float(x) for x in p0]}


def cmd_verify(system_name: str, seed: int = 0, sigma_params=None) -> dict:
    _require(_is_number(seed, int) and seed >= 0, "must be an integer >= 0", "seed")
    if sigma_params is not None:
        _check_sigma_params(system_name, sigma_params)
    system = get_system(system_name, sigma_params)
    return verification.run_all(system, seed=seed)


def _parse_floats(text: str, field: str) -> list[float]:
    """A comma-separated list of numbers from the command line."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise ConfigError(f"bad comma-separated number list {text!r}: {e}", field) from e


# a numerical failure is reported by its exception, not by numpy's warnings
@np.errstate(all="ignore")
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lcsdyn",
        description="Conformal variational/symplectic integrator experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="run one trajectory, emit CSV")
    p_int.add_argument("--config", required=True)

    p_conv = sub.add_parser("convergence", help="error-vs-h study")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--h", required=True,
                        help="comma-separated step sizes, e.g. 0.2,0.1,0.05")
    p_conv.add_argument("--h-ref", type=float, default=None)

    p_ver = sub.add_parser("verify", help="run the invariant checks")
    p_ver.add_argument("--system", required=True)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--sigma-params", default=None,
                       help="comma-separated conformal coefficients")
    p_ver.add_argument("--output", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "integrate":
            summary = cmd_integrate(ExperimentConfig.from_json(args.config))
            print(json.dumps(summary, indent=2))
            return EXIT_OK
        if args.command == "convergence":
            report = cmd_convergence(ExperimentConfig.from_json(args.config),
                                     _parse_floats(args.h, "h_list"), h_ref=args.h_ref)
            print(json.dumps(report, indent=2, allow_nan=False))
            return EXIT_OK
        if args.command == "verify":
            params = (_parse_floats(args.sigma_params, "sigma_params")
                      if args.sigma_params else None)
            try:
                report = cmd_verify(args.system, seed=args.seed, sigma_params=params)
            except KeyError as e:
                raise ConfigError(str(e), "system") from e
            text = json.dumps(report, indent=2, allow_nan=False)
            if args.output:
                _write_text(args.output, text + "\n", "output")
            print(text)
            return EXIT_OK if report["passed"] else EXIT_VERIFY
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NewtonError, IntegrationError, RegularityError, DomainError,
            ConsistencyError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
