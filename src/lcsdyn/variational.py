"""Lagrangian-side discrete dynamics.

The plain three-point recursion is

    d2 Ld(q_prev, q_curr) + d1 Ld(q_curr, q_next) = 0,

and its conformal generalization, with per-chart factor sigma and
phi = D sigma, reads

    exp(sigma(q_curr) - sigma(q_prev)) d2 Ld(q_prev, q_curr)
        = phi(q_curr) Ld(q_curr, q_next) - d1 Ld(q_curr, q_next).

Written with the conformal discrete Legendre maps, defined once here,
p+(q0, q1) = exp(sigma(q1) - sigma(q0)) d2 Ld and p-(q0, q1) = phi(q0) Ld - d1 Ld,
it reads p+(q_prev, q_curr) = p-(q_curr, q_next).  The conformal Hamiltonian
pair step solves the same system, ``_dlcel_system``, for its carried momentum.
Both recursions are solved for q_next by damped Newton with an analytic
Jacobian, and both steps, p+-, dp-/dq1 and the Hamiltonian side's dp+/dq1
and dp-/dq0 are written once, on Python floats: one call of the pair jet
``Ld.jet`` per Newton iterate gives the residual and the Jacobian, and
``numerics._newton`` iterates on float lists; array callers convert at their
boundary.  For n = 1 and n = 2 ``_dlcel_system`` writes p- and dp-/dq1 out
on unpacked scalars, rounded as the general forms round them.
``integrate`` marches a trajectory, transporting the active
two-point window across chart transitions whenever a point leaves the core
of its chart, and fills momenta afterwards.  The march (``_march``) holds its
window on floats, its steps call ``numerics._newton`` directly, and it makes
arrays only for a recorded point and at a chart switch.  The switch rule is
the atlas's: a step's test is the active chart's ``Chart._core``, bound once
per chart, and a point outside it asks ``ConformalAtlas._switch``.
Each step ends with one jet call at its solved pair (a hit in a quadrature
rule's memo), which gives p-(q_curr, q_next), the momentum of q_curr, and
p+(q_curr, q_next), which the next step is posed with.  The march carries
p+ and sigma(q_next), which it evaluates once per point, in its window, and
records both momenta and the two sigma values.  A chart switch drops the
carried p+, and the next step reads it from the transported window.  The
fill takes the recorded values for every pair whose second point was not
switched.
The discrete action sum uses the local (conformally rescaled) Lagrangian

    S([q]) = sum_k exp(-sigma(q_k)) Ld(q_k, q_{k+1});

trajectories extremize it with fixed endpoints, which ``stationarity_residual``
verifies by finite differences.  Both ``action_sum`` and the residual sum one
float term, exp(-sigma(q_k)) Ld(q_k, q_{k+1}) with sigma from the chart's
float kernel and the value from ``Ld.jet`` (``_action``); the residual
differences, with ``numerics.fd_jacobian``, the two terms that contain q_k.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .atlas import Chart, ConformalAtlas, _forward
from .discretize import DiscreteLagrangian
from .errors import IntegrationError, NewtonError, RegularityError
from .numerics import (StepperConfig, _add, _nan_max, _newton, _newton_result, _of_length,
                       _require_steps, as_vector, fd_jacobian)
from .trajectory import DiscreteTrajectory, StepRecord, TrajectoryPoint, _MarchRecord

Vector = np.ndarray

_STATIONARITY_EPS = 1e-6


def _p_plus(d2: list, s0: float, s1: float) -> list:
    """p+(q0, q1) = exp(sigma(q1) - sigma(q0)) d2 Ld(q0, q1), a covector at q1.

    ``d2`` is the pair jet's; ``s0``, ``s1`` are sigma(q0), sigma(q1) on the
    pair's chart.
    """
    e = float(np.exp(s1 - s0))
    return [e * g for g in d2]


def _p_minus(phi0: list, value: float, d1: list) -> list:
    """p-(q0, q1) = phi(q0) Ld(q0, q1) - d1 Ld(q0, q1), a covector at q0,
    from the pair jet's value and d1."""
    value = float(value)
    return [f * value - g for f, g in zip(phi0, d1)]


def _dp_minus_dq1(phi0: list, d2: list, d1d2: list) -> list:
    """d p-(q0, q1) / d q1 = phi(q0) (x) d2 Ld(q0, q1) - d1d2 Ld(q0, q1), as a
    nested list from the pair jet's d2 and d1d2."""
    return [[f * g - m for g, m in zip(d2, row)] for f, row in zip(phi0, d1d2)]


def _dp_plus_dq1(d2d2: list, d2: list, phi1: list, s0: float, s1: float) -> list:
    """d p+(q0, q1) / d q1 = exp(s1 - s0) (d2d2 Ld + d2 Ld (x) phi(q1)), as a
    nested list from Ld's d2d2 (a nested list) and the pair jet's d2."""
    e = float(np.exp(s1 - s0))
    return [[e * (m + g * f) for m, f in zip(row, phi1)] for row, g in zip(d2d2, d2)]


def _dp_minus_dq0(hess0: list, value: float, phi0: list, d1: list, d1d1: list) -> list:
    """d p-(q0, q1) / d q0 = Hsigma(q0) Ld + phi(q0) (x) d1 Ld - d1d1 Ld, as a
    nested list from sigma's Hessian at q0, the pair jet's value and d1 and
    Ld's d1d1 (nested lists)."""
    value = float(value)
    return [[s * value + f * g - m for s, g, m in zip(srow, d1, mrow)]
            for srow, f, mrow in zip(hess0, phi0, d1d1)]


def _dlcel_system(Ld: DiscreteLagrangian, qc: list, phi: list, p_curr: list) -> Callable:
    """The conformal step's Newton system on floats, for :func:`numerics._newton`.

    At each iterate x one call of ``Ld.jet(qc, x)`` gives the residual
    p_curr - p-(qc, x) and the Jacobian -dp-/dq1, with ``phi`` the Lee form
    at qc.  For n = 1 and n = 2 they are written on unpacked scalars,
    residual p_i - (phi_i value - d1_i) and Jacobian -(phi_i d2_j - d1d2_ij),
    rounded as :func:`_p_minus` and :func:`_dp_minus_dq1` round them.
    """
    jet = Ld.jet
    if Ld.n == 1:
        (f0,), (p0,) = phi, p_curr

        def system(x: list):
            value, (g0,), (d0,), ((m00,),) = jet(qc, x)
            value = float(value)
            return [p0 - (f0 * value - g0)], lambda: [[-(f0 * d0 - m00)]]
    elif Ld.n == 2:
        (f0, f1), (p0, p1) = phi, p_curr

        def system(x: list):
            value, (g0, g1), (d0, d1), ((m00, m01), (m10, m11)) = jet(qc, x)
            value = float(value)
            return ([p0 - (f0 * value - g0), p1 - (f1 * value - g1)],
                    lambda: [[-(f0 * d0 - m00), -(f0 * d1 - m01)],
                             [-(f1 * d0 - m10), -(f1 * d1 - m11)]])
    else:
        def system(x: list):
            value, d1, d2, d1d2 = jet(qc, x)
            r = [p - m for p, m in zip(p_curr, _p_minus(phi, value, d1))]
            return r, lambda: [[-v for v in row] for row in _dp_minus_dq1(phi, d2, d1d2)]
    return system


def _three_point_system(Ld: DiscreteLagrangian, chart: Chart | None, qp: list,
                        qc: list, conformal: bool, p_curr: list | None = None
                        ) -> tuple[Callable, list]:
    """The Newton system for q_next and its seed 2 q_curr - q_prev, on floats.

    The plain step solves d2 Ld(q_prev, q_curr) + d1 Ld(q_curr, x) = 0 with
    Jacobian d1d2 Ld(q_curr, x), one pair jet call per iterate.  The conformal
    step is :func:`_dlcel_system` with p_curr = p+(q_prev, q_curr), the one a
    march read at the end of its previous step, or else read here.
    """
    seed = [2.0 * b - a for a, b in zip(qp, qc)]
    if not conformal:
        jet, lhs = Ld.jet, Ld.jet(qp, qc)[2]

        def system(x: list):
            _, d1, _, d1d2 = jet(qc, x)
            return _add(lhs, d1), lambda: d1d2

        return system, seed
    sigma, grad, _ = chart._floats
    if p_curr is None:
        p_curr = _p_plus(Ld.jet(qp, qc)[2], sigma(qp), sigma(qc))
    return _dlcel_system(Ld, qc, grad(qc), p_curr), seed


def del_step(Ld: DiscreteLagrangian, q_prev: Vector, q_curr: Vector,
             cfg: StepperConfig) -> np.ndarray:
    """Advance the plain three-point recursion; Newton seed is 2 q_curr - q_prev."""
    return _newton_result(*_three_point_system(
        Ld, None, _of_length(q_prev, Ld.n, "q_prev").tolist(),
        _of_length(q_curr, Ld.n, "q_curr").tolist(), False), cfg).x


def dlcel_step(Ld: DiscreteLagrangian, atlas: ConformalAtlas, chart: int,
               q_prev: Vector, q_curr: Vector, cfg: StepperConfig) -> np.ndarray:
    """Advance the conformal three-point recursion on a single chart."""
    q_prev, q_curr = as_vector(q_prev), as_vector(q_curr)
    atlas.require_inside(chart, q_prev, "q_prev")
    ch = atlas.require_inside(chart, q_curr, "q_curr")
    return _newton_result(*_three_point_system(Ld, ch, q_prev.tolist(), q_curr.tolist(),
                                               True), cfg).x


def integrate(Ld: DiscreteLagrangian, atlas: ConformalAtlas, start_chart: int,
              q0: Vector, q1: Vector, N: int, cfg: StepperConfig,
              conformal: bool = True) -> DiscreteTrajectory:
    """March N steps from the seed pair (q0, q1) and fill momenta.

    A chart switch is triggered when a new point leaves the current chart's
    core (``Chart._core``); the active pair is transported jointly so each
    step is posed in a single chart.  With ``conformal=False`` the plain
    recursion is used and sigma is ignored throughout (including momenta).
    An N that is not an integer >= 2 and a q0 or q1 that is not a point of
    the start chart raise naming it.
    """
    _require_steps(N, 2, "N")
    q0, q1 = as_vector(q0), as_vector(q1)
    atlas.require_inside(start_chart, q0, "q0")
    atlas.require_inside(start_chart, q1, "q1")
    q0, q1 = q0.tolist(), q1.tolist()
    traj = DiscreteTrajectory(h=Ld.h)
    traj.points.append(TrajectoryPoint(k=0, chart=start_chart, q=np.array(q0)))
    traj.points.append(TrajectoryPoint(k=1, chart=start_chart, q=np.array(q1)))
    record = _MarchRecord(Ld.n, N - 1)

    # The window is (q_prev, p_curr, s_curr), p_curr = p+(q_prev, q_curr) and
    # s_curr = sigma(q_curr) read at the end of the last step, or None after a
    # switch.  Each step records what one jet call at its solved pair gives.
    def step(ch, q_curr, window):
        q_prev, p_curr, s_curr = window
        x, iterations, residual = _newton(
            *_three_point_system(Ld, ch, q_prev, q_curr, conformal, p_curr), cfg)
        value, d1, d2, _ = Ld.jet(q_curr, x)
        if conformal:
            sigma, grad, _ = ch._floats
            if s_curr is None:
                s_curr = sigma(q_curr)
            s_next = sigma(x)
            p_next = _p_plus(d2, s_curr, s_next)
            record.add(s_curr, _p_minus(grad(q_curr), value, d1), p_next, s_next)
            return x, (q_curr, p_next, s_next), (iterations, residual)
        record.add(0.0, [-g for g in d1], d2, 0.0)
        return x, (q_curr, None, None), (iterations, residual)

    _march(atlas, start_chart, q1, (q0, None, None), traj, N, step,
           carry=lambda t, q_next, window: (_forward(t, window[0]), None, None),
           point=lambda k, chart, q, window: TrajectoryPoint(k, chart, np.array(q)))

    from .hamiltonian_discrete import momenta_along_trajectory
    traj._march_record = record
    momenta_along_trajectory(Ld, atlas, traj, tol=max(10.0 * cfg.tol, 1e-13),
                             conformal=conformal)
    return traj


def _march(atlas: ConformalAtlas, chart_id: int, q: list, aux,
           traj: DiscreteTrajectory, N: int, step: Callable, carry: Callable,
           point: Callable) -> DiscreteTrajectory:
    """Append lattice points len(traj.points) .. N to ``traj``, one step each.

    The window (q, aux) is posed on chart ``chart_id`` and held on floats: q
    is the current point as a float list and aux whatever else the step needs
    (the previous point, or the current momentum).  ``step(chart, q, aux)``
    returns (q_next, aux_next, (iterations, residual)).  When q_next leaves
    the core of its chart (``Chart._core``) the window moves across the
    transition that ``ConformalAtlas._switch`` finds; ``carry(t, q_next,
    aux_next)`` transports aux_next, given q_next in the old chart.  Arrays
    are made only for the transition maps and by ``point(k, chart_id, q,
    aux)``, which builds each recorded point.  A NewtonError or
    RegularityError from a step or a carry ends the march with an
    IntegrationError holding the points before it.
    """
    ch = atlas.chart(chart_id)
    in_core = ch._core
    points, steps = traj.points, traj.steps
    for k in range(len(points), N + 1):
        try:
            q_next, aux_next, (iterations, residual) = step(ch, q, aux)
        except (NewtonError, RegularityError) as e:
            raise IntegrationError(f"step to lattice point {k} failed: {e}",
                                   partial=traj, index=k) from e
        switched = False
        if not in_core(q_next):
            switch = atlas._switch(chart_id, q, q_next)
            if switch is not None:
                t, q_moved = switch
                try:
                    aux_next = carry(t, q_next, aux_next)
                except (NewtonError, RegularityError) as e:
                    raise IntegrationError(
                        f"chart switch at lattice point {k} failed: {e}",
                        partial=traj, index=k) from e
                q_next, chart_id, switched = q_moved, t.to_chart, True
                ch = atlas.chart(chart_id)
                in_core = ch._core
            elif not ch.contains(q_next):
                raise IntegrationError(
                    f"lattice point {k} left chart {chart_id} with no usable "
                    f"transition", partial=traj, index=k)
        points.append(point(k, chart_id, q_next, aux_next))
        steps.append(StepRecord(k, iterations, residual, switched))
        q, aux = q_next, aux_next
    return traj


def _normalize_charts(chart_assignment, length: int) -> list[int]:
    if isinstance(chart_assignment, (int, np.integer)):
        return [int(chart_assignment)] * length
    charts = [int(c) for c in chart_assignment]
    if len(charts) != length:
        raise ValueError(f"chart assignment has length {len(charts)}, "
                         f"expected {length}")
    return charts


def _into_chart(atlas: ConformalAtlas, q: Vector, from_chart: int, to_chart: int
                ) -> np.ndarray:
    if from_chart == to_chart:
        return q
    return np.array(_forward(atlas.require_transition(from_chart, to_chart, q), q.tolist()))


def _action(Ld: DiscreteLagrangian, atlas: ConformalAtlas, charts: list[int],
            qs: list[list]) -> float:
    """The action sum of :func:`action_sum` over float lists ``qs`` on
    ``charts``, summed on Python floats from 0.0.

    Term k is exp(-sigma(q_k)) Ld(q_k, q_{k+1}) on chart ``charts[k]``: sigma
    from the chart's float kernel (``Chart._floats``), the value from
    ``Ld.jet`` and q_{k+1} carried into that chart by an array transition
    only where the two charts differ.
    """
    total = 0.0
    for k in range(len(qs) - 1):
        ck, qa, qb = charts[k], qs[k], qs[k + 1]
        if charts[k + 1] != ck:
            qb = _into_chart(atlas, np.array(qb), charts[k + 1], ck).tolist()
        sigma = atlas.chart(ck)._floats[0]
        total += float(np.exp(-sigma(qa))) * float(Ld.jet(qa, qb)[0])
    return total


def action_sum(Ld: DiscreteLagrangian, atlas: ConformalAtlas, chart_assignment,
               qs: Sequence[Vector]) -> float:
    """Discrete action sum of the local Lagrangian, sum_k e^{-sigma(q_k)} Ld(q_k, q_{k+1})."""
    qs = [_of_length(q, Ld.n, "q").tolist() for q in qs]
    if len(qs) < 2:
        raise ValueError("action sum needs at least two lattice points")
    return _action(Ld, atlas, _normalize_charts(chart_assignment, len(qs)), qs)


def stationarity_residual(Ld: DiscreteLagrangian, atlas: ConformalAtlas,
                          traj: DiscreteTrajectory) -> float:
    """Max over interior points of the action-sum gradient magnitude (central FD)."""
    qs = [pt.q.tolist() for pt in traj.points]
    charts = [pt.chart for pt in traj.points]
    if len(qs) < 3:
        raise ValueError("stationarity needs at least one interior point")

    worst = 0.0
    for k in range(1, len(qs) - 1):
        # only the two terms of the action sum that contain q_k depend on it
        window, before, after = charts[k - 1:k + 2], qs[k - 1], qs[k + 1]
        grad = fd_jacobian(lambda x: _action(Ld, atlas, window, [before, x.tolist(), after]),
                           traj.points[k].q, _STATIONARITY_EPS)
        worst = _nan_max(worst, float(np.max(np.abs(grad))))
    return worst
