"""The benchmark's workloads: inputs from a seed, the tasks of one pass, their checks.

A pass is a fixed list of tasks ("ops").  ``build`` makes the systems, rules,
Hamiltonians and fields a pass needs; each op's ``run`` does the stepping and
returns its outputs as a dict of arrays and numbers; each op's ``check`` returns
``None`` when the output is right and a reason otherwise.  Inputs come from
``(seed, pass index)``, so the same seed gives the same inputs and no pass
repeats an earlier pass's inputs.

Every call into lcsdyn goes through a module attribute (``continuous.rk4_integrate``,
never a name bound at import), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from lcsdyn import (cli, continuous, discretize, hamiltonian_discrete, numerics,
                    systems, variational)

Output = dict[str, Any]


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Output]
    check: Callable[[Output], "str | None"]


@dataclass(frozen=True)
class Workload:
    name: str
    # Integrator steps one pass requests: RK4 steps, Newton-solved lattice
    # steps (an ``integrate`` of N lattice points solves N - 1 of them, an
    # ``integrate_hamiltonian`` of N steps solves N) and single-step calls.
    steps: Callable[[dict], int]
    build: Callable[[random.Random, dict], list[Op]]
    sizes: dict[str, dict]


def pass_rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _sup(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _relation_defect(atlas, traj_out: Output) -> float:
    """max |r - exp(-sigma(q)) p| over the points of a trajectory output."""
    worst = 0.0
    for chart, q, p, r in zip(traj_out["charts"], traj_out["q"], traj_out["p"],
                              traj_out["r"]):
        sigma = float(atlas.chart(int(chart)).sigma(q))
        worst = max(worst, float(np.max(np.abs(r - np.exp(-sigma) * p))))
    return worst


def _rk4(field, x, h: float, steps: int) -> np.ndarray:
    out = [x]
    for _ in range(steps):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    return np.array(out)


def _traj_output(traj) -> Output:
    return {"q": np.array([pt.q for pt in traj.points]),
            "p": np.array([pt.p for pt in traj.points]),
            "r": np.array([pt.r for pt in traj.points]),
            "charts": np.array([pt.chart for pt in traj.points]),
            "switches": traj.n_switches()}


# --- reference_flow: the AC5 study and the AC6 equivalence runs -------------

H_LIST = (0.2, 0.1, 0.05, 0.025)


def _reference_flow_steps(size: dict) -> int:
    lattice = sum(int(round(size["t_final"] / h)) - 1 for h in H_LIST)
    return size["ref_steps"] + lattice + 4 * size["equiv_steps"]


def _build_reference_flow(rng: random.Random, size: dict) -> list[Op]:
    c = rng.uniform(0.05, 0.15)
    q0, p0 = np.array([rng.uniform(0.8, 1.2)]), np.array([rng.uniform(-0.2, 0.2)])
    c1, c2 = rng.uniform(0.2, 0.4), rng.uniform(0.05, 0.15)
    q0_2 = np.array([rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)])
    p0_2 = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)])
    t_final, ref_steps = size["t_final"], size["ref_steps"]
    h_ref = t_final / ref_steps
    cfg = numerics.StepperConfig(tol=1e-12)

    harm = systems.harmonic_1d(c)
    ref_field = continuous.make_lcel_field(harm.lagrangian, harm.atlas, 0)
    rules = [discretize.conformal_midpoint_rule(harm.lagrangian, harm.atlas, 0, h)
             for h in H_LIST]
    legs: list[np.ndarray] = []
    starts: list[np.ndarray] = []

    # The reference is integrated in legs, each continuing from the last state
    # of the one before: the same trajectory, bit for bit, as one call, with
    # room between legs for the calibration probe (see calibrate.py).
    def reference_leg(i: int) -> Op:
        steps = ref_steps // size["ref_legs"]

        def run() -> Output:
            if i == 0:
                v0 = continuous.fiber_legendre_inv(harm.lagrangian, q0, p0)
                starts.append(np.concatenate([q0, v0]))
            else:
                starts.append(legs[-1][-1])
            leg = continuous.rk4_integrate(ref_field, starts[-1], h_ref, steps)
            legs.append(leg if i == 0 else leg[1:])
            return {"leg": legs[-1]}

        def check(out: Output):
            leg = out["leg"]
            if leg.shape != (steps + (i == 0), 2):
                return f"reference leg of shape {leg.shape}"
            # Every 10th point against an RK4 run of the benchmark's own, 10x
            # coarser, from the same start.
            coarse = _rk4(ref_field, starts[i], 10 * h_ref, steps // 10)
            gap = _sup(leg[::10], coarse) if i == 0 else _sup(leg[9::10], coarse[1:])
            return None if gap <= 1e-9 else f"leg off a coarser RK4 run by {gap:.3e}"

        return Op(f"reference_leg_{i}", run, check)

    def convergence() -> Output:
        ref = np.concatenate(legs)
        ends = []
        for h, Ld in zip(H_LIST, rules):
            q1 = ref[int(round(h / h_ref))][:1]
            traj = variational.integrate(Ld, harm.atlas, 0, q0, q1,
                                         int(round(t_final / h)), cfg)
            ends.append(traj.points[-1].q)
        errors = [float(np.max(np.abs(q - ref[-1][:1]))) for q in ends]
        slope = float(np.polyfit(np.log(H_LIST), np.log(errors), 1)[0])
        return {"q_end": np.array(ends), "slope": slope}

    def check_convergence(out: Output):
        if len(legs) != size["ref_legs"]:
            return f"{len(legs)} reference legs"
        if not 1.8 <= out["slope"] <= 2.2:
            return f"fitted slope {out['slope']:.3f} outside [1.8, 2.2]"
        return None

    def equivalence(system, q, p) -> Op:
        n = system.n
        ham_field = continuous.make_lcshe_field(system.hamiltonian, system.atlas, 0)
        lag_field = continuous.make_lcel_field(system.lagrangian, system.atlas, 0)
        h, steps = size["equiv_h"], size["equiv_steps"]

        def run() -> Output:
            v = continuous.fiber_legendre_inv(system.lagrangian, q, p)
            ham = continuous.rk4_integrate(ham_field, np.concatenate([q, p]), h, steps)
            lag = continuous.rk4_integrate(lag_field, np.concatenate([q, v]), h, steps)
            return {"ham": ham, "lag": lag}

        def check(out: Output):
            shapes = out["ham"].shape, out["lag"].shape
            if shapes != ((steps + 1, 2 * n),) * 2:
                return f"trajectory shapes {shapes}"
            # The catalog Lagrangians have p = dL/dv = v, so whole states compare.
            gap = _sup(out["ham"], out["lag"])
            return None if gap <= 1e-8 else \
                f"sup |Hamiltonian - Lagrangian| {gap:.3e} > 1e-8"

        return Op(f"equivalence_{system.name}", run, check)

    return [*(reference_leg(i) for i in range(size["ref_legs"])),
            Op("convergence", convergence, check_convergence),
            equivalence(harm, q0, p0),
            equivalence(systems.planar_2d(c1, c2), q0_2, p0_2)]


# --- conformal_march: long warm-started discrete marches ---------------------

def _conformal_march_steps(size: dict) -> int:
    return (size["rotor_steps"] - 1) + (size["planar_steps"] - 1) \
        + 2 * size["ham_steps"]


def _build_conformal_march(rng: random.Random, size: dict) -> list[Op]:
    # c < 0 dissipates: with c > 0 the rotor speed v0 / (1 - c v0 t / 2)
    # blows up in finite time and the march leaves the atlas.
    c_rot = rng.uniform(-0.11, -0.09)
    theta0, w0 = rng.uniform(0.0, 1.0), rng.uniform(0.95, 1.05)
    c1, c2 = rng.uniform(0.2, 0.4), rng.uniform(0.05, 0.15)
    q0 = np.array([rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)])
    v0 = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)])
    h_rot, h = 0.05, size["planar_h"]
    cfg = numerics.StepperConfig(tol=1e-12)

    rotor = systems.free_rotor_circle(c_rot)
    Ld_rot = discretize.conformal_midpoint_rule(rotor.lagrangian, rotor.atlas, 0, h_rot)
    planar = systems.planar_2d(c1, c2)
    Ld = discretize.conformal_midpoint_rule(planar.lagrangian, planar.atlas, 0, h)
    Hds = {"right": hamiltonian_discrete.build_right_hamiltonian(Ld, planar.atlas, 0),
           "left": hamiltonian_discrete.build_left_hamiltonian(Ld, planar.atlas, 0)}
    lagrangian: Output = {}

    def rotor_march() -> Output:
        traj = variational.integrate(Ld_rot, rotor.atlas, 0, [theta0],
                                     [theta0 + h_rot * w0], size["rotor_steps"], cfg)
        return _traj_output(traj)

    def check_rotor(out: Output):
        if out["switches"] < size["min_switches"]:
            return f"{out['switches']} chart switches < {size['min_switches']}"
        defect = _relation_defect(rotor.atlas, out)
        return None if defect <= 1e-12 else f"|r - exp(-sigma) p| {defect:.3e} > 1e-12"

    def planar_march() -> Output:
        traj = variational.integrate(Ld, planar.atlas, 0, q0, q0 + h * v0,
                                     size["planar_steps"], cfg)
        lagrangian.clear()
        lagrangian.update(_traj_output(traj))
        return lagrangian

    def check_planar(out: Output):
        defect = _relation_defect(planar.atlas, out)
        return None if defect <= 1e-12 else f"|r - exp(-sigma) p| {defect:.3e} > 1e-12"

    def hamiltonian(side: str) -> Op:
        def run() -> Output:
            traj = hamiltonian_discrete.integrate_hamiltonian(
                Hds[side], planar.atlas, 0, lagrangian["q"][0], lagrangian["p"][0],
                size["ham_steps"], cfg)
            return _traj_output(traj)

        def check(out: Output):
            m = len(out["q"])
            if m != size["ham_steps"] + 1:
                return f"{m} points, expected {size['ham_steps'] + 1}"
            if not lagrangian:
                return "no Lagrangian march to compare with"
            gap = max(_sup(out["q"], lagrangian["q"][:m]),
                      _sup(out["p"], lagrangian["p"][:m]))
            if not gap <= 5e-10:
                return f"|Lagrangian - Hamiltonian| {gap:.3e} > 5e-10"
            defect = _relation_defect(planar.atlas, out)
            return None if defect <= 1e-12 else \
                f"|r - exp(-sigma) p| {defect:.3e} > 1e-12"

        return Op(f"hamiltonian_{side}", run, check)

    return [Op("rotor_march", rotor_march, check_rotor),
            Op("planar_march", planar_march, check_planar),
            hamiltonian("right"), hamiltonian("left")]


# --- verify_catalog: `lcsdyn verify` through the CLI entry point -------------

VERIFY_SYSTEMS = ("harmonic_1d", "planar_2d", "free_rotor_circle")
VERIFY_CHECKS = ("cocycle", "reduction_constant_sigma", "stationarity",
                 "legendre_commutation", "momentum_relation",
                 "lcs_two_form_condition", "divergence_identity",
                 "continuous_equivalence", "globalization")


def _verify_catalog_steps(size: dict) -> int:
    # What the checks pose per system: 100 reduction seeds x 6 single steps,
    # four 100-point marches (99 steps each) and two 100-step Hamiltonian
    # marches, and two 1000-step RK4 runs; the rotor adds two 95-point marches.
    per_system = 600 + 4 * 99 + 2 * 100 + 2 * 1000
    return len(VERIFY_SYSTEMS) * per_system + 2 * 94


def _build_verify_catalog(rng: random.Random, size: dict) -> list[Op]:
    verify_seed = rng.randrange(2 ** 31)

    def verify(name: str) -> Op:
        def run() -> Output:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["verify", "--system", name, "--seed", str(verify_seed)])
            return {"exit_code": code, "report": buf.getvalue()}

        def check(out: Output):
            if out["exit_code"] != 0:
                return f"exit code {out['exit_code']}"
            report = json.loads(out["report"])
            names = tuple(c["name"] for c in report["checks"])
            if names != VERIFY_CHECKS:
                return f"check names changed: {names}"
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            if not report["passed"] or failed:
                return f"failed checks {failed}"
            return None

        return Op(f"verify_{name}", run, check)

    return [verify(name) for name in VERIFY_SYSTEMS]


WORKLOADS = {
    "reference_flow": Workload(
        "reference_flow", _reference_flow_steps, _build_reference_flow,
        {"full": {"t_final": 1.0, "ref_steps": 100_000, "ref_legs": 10,
                  "equiv_h": 1e-4, "equiv_steps": 10_000},
         "tiny": {"t_final": 1.0, "ref_steps": 10_000, "ref_legs": 2,
                  "equiv_h": 1e-4, "equiv_steps": 200}}),
    "conformal_march": Workload(
        "conformal_march", _conformal_march_steps, _build_conformal_march,
        {"full": {"rotor_steps": 2000, "min_switches": 8, "planar_h": 0.05,
                  "planar_steps": 1000, "ham_steps": 300},
         "tiny": {"rotor_steps": 200, "min_switches": 1, "planar_h": 0.05,
                  "planar_steps": 30, "ham_steps": 10}}),
    "verify_catalog": Workload(
        "verify_catalog", _verify_catalog_steps, _build_verify_catalog,
        {"full": {}, "tiny": {}}),
}
