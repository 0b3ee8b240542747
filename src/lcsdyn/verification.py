"""Cross-module verification checks behind the ``verify`` command.

Each check returns a plain dict with ``name``, ``passed``, ``measured`` and
``tolerance`` (plus an optional ``note``), so reports serialize directly to
JSON; ``measured`` is null when a check has nothing to measure, and the note
says why.  Checks are system-aware: single-chart systems skip the globalization
check, one-degree-of-freedom systems pass the two-form condition trivially.

The checks take the gap between two vectors (``_sup``, the largest
|a_i - b_i|) on Python floats, in one pass over both ``tolist()``s: the bits
of ``np.max(np.abs(a - b))``, NaN when any difference is NaN, and
``ValueError`` for vectors of unequal length.  Every running maximum is
``numerics._nan_max``, so a NaN gap fails its check.  The momentum relation
reads sigma through the chart's float kernel.  Only the continuous
equivalence check, which compares two (1001, n) RK4 runs, keeps a numpy
reduction.
"""

from __future__ import annotations

import numpy as np

from .atlas import cocycle_check, lee_form
from .continuous import (fiber_legendre_inv, make_lcel_field, make_lcshe_field,
                         divergence_numeric, rk4_integrate)
from .discretize import (conformal_midpoint_rule, midpoint_rule,
                         trapezoidal_rule)
from .forms import lc_pc_two_form, lcs_condition_check
from .hamiltonian_discrete import (build_left_hamiltonian,
                                   build_right_hamiltonian,
                                   integrate_hamiltonian, ld_step, ldlch_step,
                                   rd_step, rdlch_step)
from .numerics import StepperConfig, _nan_max
from .systems import System, rotor_extended_chart, with_constant_sigma
from .variational import del_step, dlcel_step, integrate, stationarity_residual

_H = 0.1
_REDUCTION_SEEDS = 100
_LCS_POINTS = 20
_DIVERGENCE_POINTS = 50
_EQUIVALENCE_H, _EQUIVALENCE_STEPS = 1e-3, 1000  # RK4 to t = 1
_GLUE_STEPS = 95


def _entry(name, passed, measured, tolerance, note=""):
    """One check's report; a missing or non-finite measurement is reported as null."""
    if measured is not None and not np.isfinite(measured):
        note = "; ".join(filter(None, (note, f"measured {float(measured)}")))
        measured = None
    out = {"name": name, "passed": bool(passed),
           "measured": None if measured is None else float(measured),
           "tolerance": float(tolerance)}
    if note:
        out["note"] = note
    return out


def _sup(a, b) -> float:
    """max_i |a_i - b_i| of two (n,) arrays, on Python floats; NaN when any
    difference is NaN, and ``ValueError`` when the lengths differ."""
    worst = 0.0
    for x, y in zip(a.tolist(), b.tolist(), strict=True):
        gap = abs(x - y)
        if not gap <= worst:
            if gap != gap:
                return gap
            worst = gap
    return worst


def _trajectory_gap(one, two) -> float:
    """Largest q or p difference between corresponding points of two trajectories."""
    return _nan_max((_nan_max(_sup(a.q, b.q), _sup(a.p, b.p))
                     for a, b in zip(one.points, two.points)), default=0.0)


def check_cocycle(system: System) -> dict:
    report = cocycle_check(system.atlas)
    return _entry("cocycle", report.passed, report.max_deviation, 1e-10)


def check_reduction(system: System, seed: int = 0) -> dict:
    """With a constant conformal factor the conformal steppers equal the plain ones."""
    const = with_constant_sigma(system, 0.7)
    Ld = midpoint_rule(const.lagrangian, _H)
    cfg = StepperConfig(tol=1e-13)
    chart = const.start_chart
    steppers = ((rdlch_step, rd_step, build_right_hamiltonian(Ld, const.atlas, chart)),
                (ldlch_step, ld_step, build_left_hamiltonian(Ld, const.atlas, chart)))
    ch = const.atlas.chart(chart)
    center = 0.5 * (ch.lower + ch.upper)
    span = 0.25 * ch.width
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(_REDUCTION_SEEDS):
        q_prev = center + span * rng.uniform(-1, 1, const.n)
        q_curr = q_prev + rng.uniform(-0.1, 0.1, const.n)
        worst = _nan_max(worst, _sup(dlcel_step(Ld, const.atlas, chart, q_prev, q_curr, cfg),
                                     del_step(Ld, q_prev, q_curr, cfg)))
        q = center + span * rng.uniform(-1, 1, const.n)
        p = rng.uniform(-1, 1, const.n)
        for conformal_step, plain_step, Hd in steppers:
            qc, pc = conformal_step(Hd, const.atlas, chart, q, p, cfg)
            qp, pp = plain_step(Hd, q, p, cfg)
            worst = _nan_max(worst, _sup(qc, qp), _sup(pc, pp))
    return _entry("reduction_constant_sigma", worst <= 1e-12, worst, 1e-12)


def _reference_march(system: System):
    """The 100-step conformal-midpoint march from q0 = 1, q1 = q0 - 0.01 that three checks share.

    Returns ``(Ld, trajectory)``.
    """
    Ld = conformal_midpoint_rule(system.lagrangian, system.atlas,
                                 system.start_chart, _H)
    q0 = np.full(system.n, 1.0)
    traj = integrate(Ld, system.atlas, system.start_chart, q0, q0 - 0.01, 100,
                     StepperConfig(tol=1e-12))
    return Ld, traj


def check_stationarity(system: System, march) -> dict:
    Ld, traj = march
    res = stationarity_residual(Ld, system.atlas, traj)
    return _entry("stationarity", res <= 1e-8, res, 1e-8)


def check_legendre_commutation(system: System, march) -> dict:
    """The Lagrangian march with momenta equals both conformal Hamiltonian marches."""
    Ld, traj = march
    chart = system.start_chart
    tol = 5e-10
    worst = 0.0
    for build in (build_right_hamiltonian, build_left_hamiltonian):
        ham = integrate_hamiltonian(build(Ld, system.atlas, chart), system.atlas, chart,
                                    traj.points[0].q, traj.points[0].p,
                                    len(traj.points) - 1, StepperConfig(tol=1e-12))
        worst = _nan_max(worst, _trajectory_gap(traj, ham))
    return _entry("legendre_commutation", worst <= tol, worst, tol)


def check_momentum_relation(system: System, march) -> dict:
    _, traj = march
    worst = 0.0
    for pt in traj.points:
        sigma = system.atlas.chart(pt.chart)._floats[0](pt.q.tolist())
        worst = _nan_max(worst, _sup(pt.r, float(np.exp(-sigma)) * pt.p))
    return _entry("momentum_relation", worst <= 1e-12, worst, 1e-12)


def check_lcs_condition(system: System, seed: int = 0) -> dict:
    if system.n < 2:
        return _entry("lcs_two_form_condition", True, 0.0, 0.0,
                      note="dim < 4: all three-forms vanish identically")
    rng = np.random.default_rng(seed)
    pts = [rng.uniform(-1, 1, 2 * system.n) for _ in range(_LCS_POINTS)]
    worst, tol = 0.0, 0.0
    for rule in (midpoint_rule, trapezoidal_rule):
        Ld = rule(system.lagrangian, _H)
        form = lc_pc_two_form(Ld, system.atlas, system.start_chart)
        chart = system.atlas.chart(system.start_chart)
        report = lcs_condition_check(form, chart.grad, pts)
        worst = _nan_max(worst, report.max_deviation)
        tol = _nan_max(tol, report.tolerance)
        if not report.passed:
            return _entry("lcs_two_form_condition", False, worst, tol)
    return _entry("lcs_two_form_condition", worst <= tol, worst, tol)


def check_divergence_identity(system: System, seed: int = 0) -> dict:
    """div(xi_H) against n <phi, qdot> with the coordinate volume.

    The factor here is n = dim Q, obtained directly from the coordinate
    expression of the field; conventions with an extra 1/2 exist, and this
    check deliberately pins the computed coordinate value.
    """
    field = make_lcshe_field(system.hamiltonian, system.atlas, system.start_chart)
    ch = system.atlas.chart(system.start_chart)
    center = 0.5 * (ch.lower + ch.upper)
    span = np.minimum(0.25 * ch.width, 2.0)
    rng = np.random.default_rng(seed)
    n = system.n
    worst = 0.0
    for _ in range(_DIVERGENCE_POINTS):
        q = center + span * rng.uniform(-1, 1, n)
        p = rng.uniform(-2, 2, n)
        x = np.concatenate([q, p])
        phi = lee_form(system.atlas, system.start_chart, q)
        qdot = system.hamiltonian.grad_p(q, p)
        expected = n * float(phi @ qdot)
        worst = _nan_max(worst, abs(divergence_numeric(field, x, 1e-5) - expected))
    return _entry(
        "divergence_identity", worst <= 1e-5, worst, 1e-5,
        note="factor convention: coordinate computation gives div = n<phi,qdot> "
             "with n = dim Q; the half-factor convention (n/2) is not adopted")


def check_continuous_equivalence(system: System) -> dict:
    """Matched RK4 runs of the Hamiltonian and Lagrangian formulations agree."""
    n, h, steps = system.n, _EQUIVALENCE_H, _EQUIVALENCE_STEPS
    q0 = np.full(n, 1.0)
    p0 = np.full(n, 0.5)
    v0 = fiber_legendre_inv(system.lagrangian, q0, p0)
    ham = rk4_integrate(make_lcshe_field(system.hamiltonian, system.atlas,
                                         system.start_chart),
                        np.concatenate([q0, p0]), h, steps)
    lag = rk4_integrate(make_lcel_field(system.lagrangian, system.atlas,
                                        system.start_chart),
                        np.concatenate([q0, v0]), h, steps)
    worst = float(np.max(np.abs(ham[:, :n] - lag[:, :n])))
    return _entry("continuous_equivalence", worst <= 1e-8, worst, 1e-8)


def check_globalization(system: System) -> dict:
    """Two-chart rotor march against the single extended chart, plus transport."""
    if system.name != "free_rotor_circle":
        return _entry("globalization", True, 0.0, 0.0,
                      note="single-chart system; nothing to glue")
    c = system.sigma_params[0]
    ext = rotor_extended_chart(c)
    cfg = StepperConfig(tol=1e-12)
    h = 0.05
    Ld = conformal_midpoint_rule(system.lagrangian, system.atlas,
                                 system.start_chart, h)
    q0, q1 = np.array([0.0]), np.array([0.05])
    two = integrate(Ld, system.atlas, system.start_chart, q0, q1, _GLUE_STEPS, cfg)
    one = integrate(Ld, ext.atlas, ext.start_chart, q0, q1, _GLUE_STEPS, cfg)
    if two.n_switches() == 0:
        return _entry("globalization", False, None, 1e-9,
                      note="trajectory never crossed a chart overlap")
    worst = _trajectory_gap(two, one)
    return _entry("globalization", worst <= 1e-9, worst, 1e-9,
                  note=f"{two.n_switches()} chart switches")


def run_all(system: System, seed: int = 0) -> dict:
    march = _reference_march(system)
    checks = [
        check_cocycle(system),
        check_reduction(system, seed=seed),
        check_stationarity(system, march),
        check_legendre_commutation(system, march),
        check_momentum_relation(system, march),
        check_lcs_condition(system, seed=seed),
        check_divergence_identity(system, seed=seed),
        check_continuous_equivalence(system),
        check_globalization(system),
    ]
    return {
        "system": system.name,
        "sigma_params": list(system.sigma_params),
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
