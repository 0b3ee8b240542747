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
pair step solves the same system, ``_dlcel_solve``, for its carried momentum.
Both recursions are solved for q_next by damped Newton with an analytic
Jacobian.  The conformal step, p+- and dp-/dq1 are written once, on Python
floats: one call of the pair jet ``Ld.jet`` per Newton iterate gives the
residual and the Jacobian, and ``numerics._newton`` iterates on float lists;
array callers convert at their boundary.  The plain recursion stays on the
array parts and ``newton_solve``.  ``integrate`` marches a trajectory,
transporting the active two-point window across chart transitions whenever a
point leaves the core of its chart, and fills momenta afterwards.
The discrete action sum uses the local (conformally rescaled) Lagrangian

    S([q]) = sum_k exp(-sigma(q_k)) Ld(q_k, q_{k+1});

trajectories extremize it with fixed endpoints, which ``stationarity_residual``
verifies by finite differences.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .atlas import Chart, ConformalAtlas
from .discretize import DiscreteLagrangian
from .errors import IntegrationError, NewtonError, RegularityError
from .numerics import (NewtonResult, StepperConfig, _newton, as_vector, fd_jacobian,
                       newton_solve)
from .trajectory import DiscreteTrajectory, StepRecord, TrajectoryPoint

Vector = np.ndarray

DEFAULT_SWITCH_MARGIN = 0.1
_STATIONARITY_EPS = 1e-6


def _del_system(Ld: DiscreteLagrangian, q_prev: Vector, q_curr: Vector
                ) -> tuple[Callable, Callable]:
    lhs = as_vector(Ld.d2(q_prev, q_curr))

    def F(x):
        return lhs + as_vector(Ld.d1(q_curr, x))

    def J(x):
        return np.atleast_2d(Ld.d1d2(q_curr, x))

    return F, J


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


def _dp_plus_dq1(Ld: DiscreteLagrangian, q0: Vector, q1: Vector, s0: float, s1: float,
                 phi1: Vector) -> np.ndarray:
    """d p+(q0, q1) / d q1 = exp(s1 - s0) (d2d2 Ld + d2 Ld (x) phi(q1))."""
    return np.exp(s1 - s0) * (np.atleast_2d(Ld.d2d2(q0, q1))
                              + np.outer(as_vector(Ld.d2(q0, q1)), phi1))


def _dp_minus_dq0(Ld: DiscreteLagrangian, q0: Vector, q1: Vector, phi0: Vector,
                  hess0: np.ndarray) -> np.ndarray:
    """d p-(q0, q1) / d q0 = Hsigma(q0) Ld + phi(q0) (x) d1 Ld - d1d1 Ld."""
    return (hess0 * float(Ld.value(q0, q1)) + np.outer(phi0, as_vector(Ld.d1(q0, q1)))
            - np.atleast_2d(Ld.d1d1(q0, q1)))


def _dlcel_solve(Ld: DiscreteLagrangian, chart: Chart, q_curr: Vector, p_curr: list,
                 seed: list, cfg: StepperConfig) -> NewtonResult:
    """The conformal step on floats: q_next solving p_curr = p-(q_curr, q_next).

    :func:`numerics._newton` solves it from ``seed``; at each iterate x one
    call of ``Ld.jet(q_curr, x)`` gives the residual p_curr - p-(q_curr, x)
    and the Jacobian -dp-/dq1.  The three-point recursion poses the step with
    p_curr = p+(q_prev, q_curr), the conformal Hamiltonian pair step with the
    momentum it carries.
    """
    jet, qc, phi = Ld.jet, q_curr.tolist(), chart.grad(q_curr).tolist()

    def system(x: list):
        value, d1, d2, d1d2 = jet(qc, x)
        r = [p - m for p, m in zip(p_curr, _p_minus(phi, value, d1))]
        return r, lambda: [[-v for v in row] for row in _dp_minus_dq1(phi, d2, d1d2)]

    x, iterations, residual = _newton(system, seed, cfg)
    return NewtonResult(x=np.array(x), iterations=iterations, residual=residual)


def _three_point_step(Ld: DiscreteLagrangian, chart: Chart | None, q_prev: Vector,
                      q_curr: Vector, cfg: StepperConfig, conformal: bool
                      ) -> NewtonResult:
    """Newton solve for q_next from the seed 2 q_curr - q_prev; returns the result.

    The conformal step reads p_curr = p+(q_prev, q_curr) from the pair jet:
    in a march that is the pair the previous step's solve ended on, which
    the memo of a quadrature rule still holds.
    """
    if not conformal:
        F, J = _del_system(Ld, q_prev, q_curr)
        return newton_solve(F, 2.0 * q_curr - q_prev, cfg, jacobian=J)
    qp, qc = q_prev.tolist(), q_curr.tolist()
    p_curr = _p_plus(Ld.jet(qp, qc)[2], float(chart.sigma(q_prev)),
                     float(chart.sigma(q_curr)))
    return _dlcel_solve(Ld, chart, q_curr, p_curr,
                        [2.0 * b - a for a, b in zip(qp, qc)], cfg)


def del_step(Ld: DiscreteLagrangian, q_prev: Vector, q_curr: Vector,
             cfg: StepperConfig) -> np.ndarray:
    """Advance the plain three-point recursion; Newton seed is 2 q_curr - q_prev."""
    return _three_point_step(Ld, None, as_vector(q_prev), as_vector(q_curr), cfg,
                             conformal=False).x


def dlcel_step(Ld: DiscreteLagrangian, atlas: ConformalAtlas, chart: int,
               q_prev: Vector, q_curr: Vector, cfg: StepperConfig) -> np.ndarray:
    """Advance the conformal three-point recursion on a single chart."""
    q_prev, q_curr = as_vector(q_prev), as_vector(q_curr)
    atlas.require_inside(chart, q_prev)
    ch = atlas.require_inside(chart, q_curr)
    return _three_point_step(Ld, ch, q_prev, q_curr, cfg, conformal=True).x


def integrate(Ld: DiscreteLagrangian, atlas: ConformalAtlas, start_chart: int,
              q0: Vector, q1: Vector, N: int, cfg: StepperConfig,
              conformal: bool = True,
              switch_margin: float = DEFAULT_SWITCH_MARGIN) -> DiscreteTrajectory:
    """March N steps from the seed pair (q0, q1) and fill momenta.

    A chart switch is triggered when a new point leaves the current chart's
    core (the domain shrunk by ``switch_margin`` of its width on each side);
    the active pair is transported jointly so each step is posed in a single
    chart.  With ``conformal=False`` the plain recursion is used and sigma is
    ignored throughout (including momenta).
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    q0, q1 = as_vector(q0), as_vector(q1)
    atlas.require_inside(start_chart, q0)
    atlas.require_inside(start_chart, q1)
    traj = DiscreteTrajectory(h=Ld.h)
    traj.points.append(TrajectoryPoint(k=0, chart=start_chart, q=q0))
    traj.points.append(TrajectoryPoint(k=1, chart=start_chart, q=q1))

    def step(ch, q_curr, q_prev):
        res = _three_point_step(Ld, ch, q_prev, q_curr, cfg, conformal)
        return res.x, q_curr, res

    _march(atlas, start_chart, q1, q0, traj, N, step,
           carry=lambda t, q_next, q_curr: as_vector(t.forward(q_curr)),
           point=lambda k, chart, q, q_prev: TrajectoryPoint(k=k, chart=chart, q=q),
           switch_margin=switch_margin)

    from .hamiltonian_discrete import momenta_along_trajectory
    momenta_along_trajectory(Ld, atlas, traj, tol=max(10.0 * cfg.tol, 1e-13),
                             conformal=conformal)
    return traj


def _march(atlas: ConformalAtlas, chart_id: int, q: Vector, aux,
           traj: DiscreteTrajectory, N: int, step: Callable, carry: Callable,
           point: Callable, switch_margin: float) -> DiscreteTrajectory:
    """Append lattice points len(traj.points) .. N to ``traj``, one step each.

    The window (q, aux) is posed on chart ``chart_id``: q is the current point
    and aux whatever else the step needs (the previous point, or the current
    momentum).  ``step(chart, q, aux)`` returns (q_next, aux_next,
    NewtonResult).  When q_next leaves the core of its chart the window moves
    across a transition holding q and q_next into a chart whose core holds
    q_next; ``carry(t, q_next, aux_next)`` transports aux_next, given q_next
    in the old chart.  ``point(k, chart_id, q, aux)`` builds each recorded point.
    A NewtonError or RegularityError from a step or a carry ends the march
    with an IntegrationError holding the points before it.
    """
    for k in range(len(traj.points), N + 1):
        ch = atlas.chart(chart_id)
        try:
            q_next, aux_next, res = step(ch, q, aux)
        except (NewtonError, RegularityError) as e:
            raise IntegrationError(f"step to lattice point {k} failed: {e}",
                                   partial=traj, index=k) from e
        switched = False
        if not ch.contains(q_next, margin=switch_margin):
            t = _find_switch(atlas, chart_id, q, q_next, switch_margin)
            if t is not None:
                try:
                    aux_next = carry(t, q_next, aux_next)
                except (NewtonError, RegularityError) as e:
                    raise IntegrationError(
                        f"chart switch at lattice point {k} failed: {e}",
                        partial=traj, index=k) from e
                q_next = as_vector(t.forward(q_next))
                chart_id = t.to_chart
                switched = True
            elif not ch.contains(q_next):
                raise IntegrationError(
                    f"lattice point {k} left chart {chart_id} with no usable "
                    f"transition", partial=traj, index=k)
        traj.points.append(point(k, chart_id, q_next, aux_next))
        traj.steps.append(StepRecord(k=k, iterations=res.iterations,
                                     residual=res.residual, switched=switched))
        q, aux = q_next, aux_next
    return traj


def _find_switch(atlas: ConformalAtlas, chart_id: int, q_curr: Vector,
                 q_next: Vector, margin: float):
    """A transition carrying both active points into a chart whose core holds q_next."""
    for t in atlas.transitions:
        if t.from_chart != chart_id or not (t.contains(q_next) and t.contains(q_curr)):
            continue
        if atlas.chart(t.to_chart).contains(as_vector(t.forward(q_next)), margin=margin):
            return t
    return None


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
    return as_vector(atlas.require_transition(from_chart, to_chart, q).forward(q))


def action_sum(Ld: DiscreteLagrangian, atlas: ConformalAtlas, chart_assignment,
               qs: Sequence[Vector]) -> float:
    """Discrete action sum of the local Lagrangian, sum_k e^{-sigma(q_k)} Ld(q_k, q_{k+1})."""
    qs = [as_vector(q) for q in qs]
    if len(qs) < 2:
        raise ValueError("action sum needs at least two lattice points")
    charts = _normalize_charts(chart_assignment, len(qs))
    total = 0.0
    for k in range(len(qs) - 1):
        ck = charts[k]
        qb = _into_chart(atlas, qs[k + 1], charts[k + 1], ck)
        sigma = float(atlas.chart(ck).sigma(qs[k]))
        total += np.exp(-sigma) * float(Ld.value(qs[k], qb))
    return total


def stationarity_residual(Ld: DiscreteLagrangian, atlas: ConformalAtlas,
                          traj: DiscreteTrajectory) -> float:
    """Max over interior points of the action-sum gradient magnitude (central FD)."""
    qs = [pt.q for pt in traj.points]
    charts = [pt.chart for pt in traj.points]
    if len(qs) < 3:
        raise ValueError("stationarity needs at least one interior point")

    worst = 0.0
    for k in range(1, len(qs) - 1):
        # only the two terms of the action sum that contain q_k depend on it
        window = charts[k - 1:k + 2]
        grad = fd_jacobian(lambda x: action_sum(Ld, atlas, window, [qs[k - 1], x, qs[k + 1]]),
                           qs[k], _STATIONARITY_EPS)
        worst = max(worst, float(np.max(np.abs(grad))))
    return worst
