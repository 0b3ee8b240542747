"""Hamiltonian-side discrete dynamics.

Momenta come in two coordinate systems: local momenta r matching each chart's
own symplectic coordinates, and global momenta p = exp(sigma(q)) r.  The
conformal discrete Legendre maps of a discrete Lagrangian Ld on a chart with
factor sigma and phi = D sigma (defined once, in ``variational``) are

    p+(q0, q1) = exp(sigma(q1) - sigma(q0)) d2 Ld(q0, q1),    a covector at q1,
    p-(q0, q1) = phi(q0) Ld(q0, q1) - d1 Ld(q0, q1),          a covector at q0.

Along a conformal trajectory the single-point momenta are

    p_k = p+(q_{k-1}, q_k) = p-(q_k, q_{k+1}),    r_k = exp(-sigma(q_k)) p_k,

and the agreement of the two p_k expressions is precisely the conformal
three-point recursion.  ``discrete_legendre`` reports a pair's data scaled at
q0: its p_plus is d2 Ld = exp(sigma(q0) - sigma(q1)) p+, and r+- = exp(-sigma(q0)) p+-.

The right discrete Hamiltonian eliminates q1 from

    H+(q0, P) = exp(sigma(q0) - sigma(q1)) P . q1 - Ld(q0, q1),   P = p+(q0, q1)

(Newton inversion), and the left one eliminates q0 from

    H-(q1, P) = exp(sigma(q1) - sigma(q0)) (-P . q0 - Ld(q0, q1)),   P = p-(q0, q1).

Both inversions are Newton solves with the closed-form Jacobians

    dp+/dq1 = exp(sigma(q1) - sigma(q0)) (d2d2 Ld + d2 Ld (x) phi(q1)),
    dp-/dq0 = Hsigma(q0) Ld + phi(q0) (x) d1 Ld - d1d1 Ld.

Their ``d1``/``d2`` are true partials of the eliminated two-argument functions
(implicit-function differentiation through the same Jacobians).  One Newton
inversion at (q, P) gives the value and both partials: the builders sit on the
quadrature rules' one-entry pair memo (``discretize._pair_memo``, keyed on the
float tuples of (q, P)), so a built Hamiltonian is stateful and not
thread-safe.  The inversions run ``newton_solve`` on arrays, converting to
and from the pair jet ``Ld.jet`` at their boundary.  Their ``d1d2`` is lazy:
where the Lee form (and the sigma Hessian at the eliminated point) vanishes it is
-d1d2 Ld inv(dp+/dq1) (right) or -E (d1d2 Ld)^T inv(dp-/dq0) (left, E the
exponential in H-).  Elsewhere ``d1`` is differenced in P along the inverted
relation's tangent, the eliminated point moving by inv(dp/dq) dP, with no
further inversion: where the Lee form at the eliminated point is nonzero the
exact mixed partial carries third partials of Ld, which no rule provides.
Plain ``rd_step``/``ld_step`` use ``d1d2`` as Newton Jacobian.
The conformal steppers step the generating Lagrangian instead: q_next solves
p_curr = p-(q_curr, q_next), the n-unknown system of the conformal three-point
recursion, on Python floats with one pair jet call per Newton iterate, and
p_next = p+(q_curr, q_next) is then explicit.  That is what
the conformal Hamilton equations assert once the eliminated argument is held
fixed under differentiation, and it makes the Lagrangian and Hamiltonian
marches commute through the Legendre transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .atlas import Chart, ConformalAtlas, transition_apply
from .discretize import DiscreteLagrangian, _on_arrays, _pair_memo
from .errors import ConsistencyError, DomainError, IntegrationError
from .numerics import StepperConfig, as_vector, fd_jacobian, newton_solve, solve_linear
from .trajectory import DiscreteTrajectory, TrajectoryPoint
from .variational import (DEFAULT_SWITCH_MARGIN, _dlcel_solve, _dp_minus_dq0,
                          _dp_minus_dq1, _dp_plus_dq1, _into_chart, _march, _p_minus,
                          _p_plus)

Vector = np.ndarray

_INVERT_CFG = StepperConfig(tol=1e-13, max_iter=60)
# the tangent difference's truncation (third partials of d1) against its rounding
_TANGENT_FD_EPS = 1e-5


class LegendreMomenta(NamedTuple):
    r_plus: np.ndarray
    r_minus: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray


def discrete_legendre(Ld: DiscreteLagrangian, atlas: ConformalAtlas, chart: int,
                      q0: Vector, q1: Vector) -> LegendreMomenta:
    """Right/left momenta of the two-point Legendre transform at (q0, q1)."""
    q0, q1 = as_vector(q0), as_vector(q1)
    ch = atlas.require_inside(chart, q0)
    atlas.require_inside(chart, q1)
    value, d1, d2, _ = Ld.jet(q0.tolist(), q1.tolist())
    p_plus = np.array(d2)
    p_minus = np.array(_p_minus(ch.grad(q0).tolist(), value, d1))
    scale = np.exp(-float(ch.sigma(q0)))
    return LegendreMomenta(r_plus=scale * p_plus, r_minus=scale * p_minus,
                           p_plus=p_plus, p_minus=p_minus)


def momenta_along_trajectory(Ld: DiscreteLagrangian, atlas: ConformalAtlas,
                             traj: DiscreteTrajectory, tol: float = 1e-8,
                             conformal: bool = True) -> DiscreteTrajectory:
    """Fill per-point momenta (r, p) of a conformal-recursion trajectory in place.

    Each lattice pair is carried once into the chart of its first point q_k
    and gives, from one call of the pair jet, p-(q_k, q_{k+1}) at q_k and
    p+(q_k, q_{k+1}) at q_{k+1}, moved into q_{k+1}'s chart on a switch (with
    ``conformal=False``, -d1 Ld and d2 Ld).  At interior points the two
    expressions for p_k must agree to ``tol`` (their difference is the step
    residual); a larger disagreement
    raises :class:`ConsistencyError` naming the lattice index.  Endpoints use
    the single available expression.
    """
    pts = traj.points
    if len(pts) < 2:
        raise ValueError("momenta need at least two lattice points")
    sigmas = [float(atlas.chart(pt.chart).sigma(pt.q)) for pt in pts] if conformal \
        else None
    p_bwd = None
    for k, pt in enumerate(pts):
        p_fwd = p_next = None
        if k + 1 < len(pts):
            nxt = pts[k + 1]
            try:
                qb = _into_chart(atlas, nxt.q, nxt.chart, pt.chart)
            except DomainError as e:
                raise ConsistencyError(str(e), index=k) from e
            value, d1, d2, _ = Ld.jet(pt.q.tolist(), qb.tolist())
            if conformal:
                ch = atlas.chart(pt.chart)
                s_b = sigmas[k + 1] if nxt.chart == pt.chart else float(ch.sigma(qb))
                p_fwd = _p_minus(ch.grad(pt.q).tolist(), value, d1)
                p_next = _p_plus(d2, sigmas[k], s_b)
            else:
                p_fwd, p_next = [-g for g in d1], d2
            if nxt.chart != pt.chart:
                p_next = transition_apply(atlas, pt.chart, nxt.chart, qb, p_next,
                                          "p")[1].tolist()
        if p_fwd is not None and p_bwd is not None:
            # the largest |difference|, NaN when any difference is NaN
            gaps = [abs(a - b) for a, b in zip(p_fwd, p_bwd)]
            gap = max(gaps) if all(g == g for g in gaps) else math.nan
            if gap > tol:
                raise ConsistencyError(
                    f"momentum expressions disagree by {gap:.3e} (tol {tol:.1e}) "
                    f"at lattice point {k}", index=k)
        pt.p = np.array(p_fwd if p_fwd is not None else p_bwd)
        pt.r = np.exp(-sigmas[k]) * pt.p if conformal else pt.p.copy()
        p_bwd = p_next
    return traj


@dataclass(frozen=True)
class LagrangianSource:
    """The generating data behind a Lagrangian-derived discrete Hamiltonian."""

    Ld: DiscreteLagrangian
    atlas: ConformalAtlas
    chart: int

    def invert_right(self, q0: Vector, P: Vector) -> np.ndarray:
        """q1 solving P = p+(q0, q1), by Newton with the closed-form dp+/dq1
        from the seed q0 + h P."""
        ch = self.atlas.chart(self.chart)
        s0, q0_floats = float(ch.sigma(q0)), as_vector(q0).tolist()

        def g(x):
            d2 = self.Ld.jet(q0_floats, x.tolist())[2]
            return np.array(_p_plus(d2, s0, float(ch.sigma(x)))) - P

        def J(x):
            return _dp_plus_dq1(self.Ld, q0, x, s0, float(ch.sigma(x)), ch.grad(x))

        return newton_solve(g, q0 + self.Ld.h * P, _INVERT_CFG, jacobian=J).x

    def invert_left(self, q1: Vector, P: Vector) -> np.ndarray:
        """q0 solving P = p-(q0, q1), by Newton with the closed-form dp-/dq0
        from the seed q1 - h P."""
        ch, q1_floats = self.atlas.chart(self.chart), as_vector(q1).tolist()

        def g(x):
            value, d1 = self.Ld.jet(x.tolist(), q1_floats)[:2]
            return np.array(_p_minus(ch.grad(x).tolist(), value, d1)) - P

        def J(x):
            return _dp_minus_dq0(self.Ld, x, q1, ch.grad(x), ch.hess(x))

        return newton_solve(g, q1 - self.Ld.h * P, _INVERT_CFG, jacobian=J).x


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """One-step generating Hamiltonian; right side takes (q_k, p_{k+1}), left (q_{k+1}, p_k).

    ``d1``/``d2`` are partials of ``value`` in its two arguments and ``d1d2[i, j]
    = d^2 H / da_i db_j`` (finite-difference consistent).  The builders make the
    four share one inversion per (q, P), solved and differentiated through the
    closed-form Jacobian of the momentum relation; ``d1d2`` is lazy, closed-form
    where the Lee form vanishes and elsewhere differenced along the inverted
    relation without further inversions.  ``source`` carries the generating
    data of a Lagrangian-built Hamiltonian; conformal steppers need it.
    """

    n: int
    h: float
    side: str
    value: Callable[[Vector, Vector], float]
    d1: Callable[[Vector, Vector], Vector]
    d2: Callable[[Vector, Vector], Vector]
    d1d2: Callable[[Vector, Vector], np.ndarray]
    source: LagrangianSource | None = None

    def __post_init__(self):
        if self.side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {self.side!r}")


def _along_inversion(partial, P: Vector, J: np.ndarray) -> np.ndarray:
    """d/dP of ``partial(t, dx)``, the Hamiltonian's first partial at P + t with
    the eliminated point moved by dx = inv(J) t: a central difference along
    the inverted momentum relation (J its Jacobian in the eliminated point)."""
    return fd_jacobian(lambda t: partial(t, solve_linear(J, t)), np.zeros(P.size),
                       _TANGENT_FD_EPS)


def _memoized_hamiltonian(source: LagrangianSource, side: str, pair_data, mixed
                          ) -> DiscreteHamiltonian:
    """A discrete Hamiltonian on :func:`discretize._pair_memo`.

    ``pair_data(a, P)`` on fresh arrays inverts once and returns ``(value,
    d1, d2, extra)``; ``d1``/``d2`` return copies and ``d1d2`` is
    ``mixed(a, P, *extra)``.
    """
    at = _on_arrays(_pair_memo(lambda a, P: pair_data(np.array(a), np.array(P))))
    return DiscreteHamiltonian(
        n=source.Ld.n, h=source.Ld.h, side=side, source=source,
        value=lambda a, P: at(a, P)[0], d1=lambda a, P: at(a, P)[1].copy(),
        d2=lambda a, P: at(a, P)[2].copy(),
        d1d2=lambda a, P: mixed(as_vector(a), as_vector(P), *at(a, P)[3]))


def build_right_hamiltonian(Ld: DiscreteLagrangian, atlas: ConformalAtlas,
                            chart: int) -> DiscreteHamiltonian:
    """Right discrete Hamiltonian H+(q_k, p_{k+1}) generated by Ld on a chart.

    One Newton inversion of the forward momentum relation for q_{k+1} gives
    the value and both partials; the partials come from implicit-function
    differentiation through the closed-form dp+/dq1, reducing to d1 = -d1 Ld
    and d2 = q_{k+1} when sigma is constant.
    """
    ch = atlas.chart(chart)
    source = LagrangianSource(Ld=Ld, atlas=atlas, chart=chart)

    def partials(q0, P, q1):
        s0, s1 = float(ch.sigma(q0)), float(ch.sigma(q1))
        em = np.exp(s0 - s1)
        phi0, phi1 = ch.grad(q0), ch.grad(q1)
        coupling = em * float(P @ q1)
        d1 = phi0 * coupling - as_vector(Ld.d1(q0, q1))
        d2 = em * q1
        if np.any(phi1):
            # dH+/dq1 at fixed (q0, P) is -phi1 coupling; it reaches the partials
            # through dq1/dP = inv(J) and dq1/dq0 = -inv(J) dp+/dq0
            y = solve_linear(_dp_plus_dq1(Ld, q0, q1, s0, s1, phi1).T, -phi1 * coupling)
            dgdq = (1.0 / em) * (np.atleast_2d(Ld.d1d2(q0, q1)).T
                                 - np.outer(as_vector(Ld.d2(q0, q1)), phi0))
            d1 = d1 - dgdq.T @ y
            d2 = d2 + y
        return coupling - float(Ld.value(q0, q1)), d1, d2, (q1, s0, s1, phi0, phi1)

    def mixed(q0, P, q1, s0, s1, phi0, phi1):
        J = _dp_plus_dq1(Ld, q0, q1, s0, s1, phi1)
        if np.any(phi0) or np.any(phi1) or np.any(ch.hess(q1)):
            return _along_inversion(lambda t, dx: partials(q0, P + t, q1 + dx)[1], P, J)
        return -np.array([solve_linear(J.T, row) for row in np.atleast_2d(Ld.d1d2(q0, q1))])

    return _memoized_hamiltonian(
        source, "right", lambda q0, P: partials(q0, P, source.invert_right(q0, P)), mixed)


def build_left_hamiltonian(Ld: DiscreteLagrangian, atlas: ConformalAtlas,
                           chart: int) -> DiscreteHamiltonian:
    """Left discrete Hamiltonian H-(q_{k+1}, p_k); mirror of the right builder."""
    ch = atlas.chart(chart)
    source = LagrangianSource(Ld=Ld, atlas=atlas, chart=chart)

    def partials(q1, P, q0):
        E = np.exp(float(ch.sigma(q1)) - float(ch.sigma(q0)))
        phi1, phi0 = ch.grad(q1), ch.grad(q0)
        H = E * (-float(P @ q0) - float(Ld.value(q0, q1)))
        d1 = phi1 * H - E * as_vector(Ld.d2(q0, q1))
        d2 = -E * q0
        if np.any(phi0):
            # dH-/dq0 at fixed (q1, P) is phi0 E P.q0; it reaches the partials
            # through dq0/dP = inv(J) and dq0/dq1 = -inv(J) dp-/dq1
            y = solve_linear(_dp_minus_dq0(Ld, q0, q1, phi0, ch.hess(q0)).T,
                             phi0 * (E * float(P @ q0)))
            _, _, d2_Ld, d1d2_Ld = Ld.jet(q0.tolist(), q1.tolist())
            d1 = d1 - np.array(_dp_minus_dq1(phi0.tolist(), d2_Ld, d1d2_Ld)).T @ y
            d2 = d2 + y
        return H, d1, d2, (q0, E, phi0, phi1)

    def mixed(q1, P, q0, E, phi0, phi1):
        hess0 = ch.hess(q0)
        J = _dp_minus_dq0(Ld, q0, q1, phi0, hess0)
        if np.any(phi0) or np.any(phi1) or np.any(hess0):
            return _along_inversion(lambda t, dx: partials(q1, P + t, q0 + dx)[1], P, J)
        dLd = np.atleast_2d(Ld.d1d2(q0, q1))
        return -E * np.array([solve_linear(J.T, col) for col in dLd.T])

    return _memoized_hamiltonian(
        source, "left", lambda q1, P: partials(q1, P, source.invert_left(q1, P)), mixed)


def _require_side(Hd: DiscreteHamiltonian, side: str, stepper: str) -> None:
    if Hd.side != side:
        raise ValueError(f"{stepper} needs a {side}-side discrete Hamiltonian")


def _plain_step(Hd: DiscreteHamiltonian, q_curr: Vector, p_curr: Vector,
                cfg: StepperConfig):
    """Newton solve of the plain step on Hd's side; returns (q_next, p_next, result)."""
    if Hd.side == "right":
        res = newton_solve(lambda P: as_vector(Hd.d1(q_curr, P)) - p_curr, p_curr, cfg,
                           jacobian=lambda P: Hd.d1d2(q_curr, P))
        return as_vector(Hd.d2(q_curr, res.x)), res.x, res
    res = newton_solve(lambda x: as_vector(Hd.d2(x, p_curr)) + q_curr,
                       q_curr + Hd.h * p_curr, cfg, jacobian=lambda x: Hd.d1d2(x, p_curr).T)
    return res.x, -as_vector(Hd.d1(res.x, p_curr)), res


def rd_step(Hd: DiscreteHamiltonian, q_curr: Vector, p_curr: Vector,
            cfg: StepperConfig) -> tuple[np.ndarray, np.ndarray]:
    """Plain right step: solve p_k = d1 H+(q_k, p_{k+1}), then q_{k+1} = d2 H+."""
    _require_side(Hd, "right", "rd_step")
    return _plain_step(Hd, as_vector(q_curr), as_vector(p_curr), cfg)[:2]


def ld_step(Hd: DiscreteHamiltonian, q_curr: Vector, p_curr: Vector,
            cfg: StepperConfig) -> tuple[np.ndarray, np.ndarray]:
    """Plain left step: solve q_k = -d2 H-(q_{k+1}, p_k), then p_{k+1} = -d1 H-."""
    _require_side(Hd, "left", "ld_step")
    return _plain_step(Hd, as_vector(q_curr), as_vector(p_curr), cfg)[:2]


def _conformal_pair_step(Ld: DiscreteLagrangian, ch: Chart, q_curr: Vector,
                         p_curr: Vector, cfg: StepperConfig):
    """One conformal step of the generating Lagrangian on chart ``ch``.

    q_next solves p_curr = p-(q_curr, q_next): the n-unknown system of the
    conformal three-point recursion (``variational._dlcel_solve``, analytic
    Jacobian, on floats), seeded here with q_curr + h p_curr.  Then
    p_next = p+(q_curr, q_next) is explicit, from the pair jet at the solution.
    Returns (q_next, p_next, result).
    """
    qc, pc = q_curr.tolist(), p_curr.tolist()
    res = _dlcel_solve(Ld, ch, q_curr, pc, [a + Ld.h * b for a, b in zip(qc, pc)], cfg)
    d2 = Ld.jet(qc, res.x.tolist())[2]
    p_next = _p_plus(d2, float(ch.sigma(q_curr)), float(ch.sigma(res.x)))
    return res.x, np.array(p_next), res


def _require_source(Hd: DiscreteHamiltonian) -> LagrangianSource:
    if Hd.source is None:
        raise ValueError(
            "conformal stepping needs a Lagrangian-generated discrete Hamiltonian "
            "(build one with build_right_hamiltonian/build_left_hamiltonian)")
    return Hd.source


def _conformal_step(Hd: DiscreteHamiltonian, atlas: ConformalAtlas, chart: int,
                    q_curr: Vector, p_curr: Vector, cfg: StepperConfig):
    """The chart-checked single conformal step behind rdlch_step and ldlch_step."""
    source = _require_source(Hd)
    if source.chart != chart:
        raise ValueError(f"discrete Hamiltonian was built on chart "
                         f"{source.chart}, stepped on chart {chart}")
    ch = atlas.require_inside(chart, q_curr)
    return _conformal_pair_step(source.Ld, ch, as_vector(q_curr), as_vector(p_curr),
                                cfg)[:2]


def rdlch_step(Hd: DiscreteHamiltonian, atlas: ConformalAtlas, chart: int,
               q_curr: Vector, p_curr: Vector, cfg: StepperConfig
               ) -> tuple[np.ndarray, np.ndarray]:
    """Conformal right step in global momenta; reduces to rd_step for constant sigma.

    The right and left conformal systems generate the same two-point map (as in
    the plain case); this entry point validates the right-side Hamiltonian.
    """
    _require_side(Hd, "right", "rdlch_step")
    return _conformal_step(Hd, atlas, chart, q_curr, p_curr, cfg)


def ldlch_step(Hd: DiscreteHamiltonian, atlas: ConformalAtlas, chart: int,
               q_curr: Vector, p_curr: Vector, cfg: StepperConfig
               ) -> tuple[np.ndarray, np.ndarray]:
    """Conformal left step in global momenta; reduces to ld_step for constant sigma."""
    _require_side(Hd, "left", "ldlch_step")
    return _conformal_step(Hd, atlas, chart, q_curr, p_curr, cfg)


def integrate_hamiltonian(Hd: DiscreteHamiltonian, atlas: ConformalAtlas,
                          chart: int, q0: Vector, p0: Vector, N: int,
                          cfg: StepperConfig, conformal: bool = True
                          ) -> DiscreteTrajectory:
    """March N steps of the (plain or conformal) Hamiltonian recursion.

    Fills p and r at every point.  Chart switches follow ``integrate``: when a
    point leaves the core of its chart the march moves to a neighbouring chart,
    carrying p as a covector and recomputing r = exp(-sigma) p there; each
    conformal step is posed on the active chart with the generating Ld.  For
    Lagrangian-generated Hamiltonians the sign of det d1d2 along consecutive
    pairs is monitored; a flip means the momentum inversion jumped to a
    different branch and the march aborts with the partial trajectory.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    q, p = as_vector(q0), as_vector(p0)
    atlas.require_inside(chart, q)
    Ld = _require_source(Hd).Ld if conformal else None
    traj = DiscreteTrajectory(h=Hd.h)
    branch_sign = None

    def point(k, chart_id, q_k, p_k):
        r_k = np.exp(-float(atlas.chart(chart_id).sigma(q_k))) * p_k if conformal \
            else p_k.copy()
        return TrajectoryPoint(k=k, chart=chart_id, q=q_k, p=p_k, r=r_k)

    def step(ch, q_curr, p_curr):
        nonlocal branch_sign
        if conformal:
            q_next, p_next, res = _conformal_pair_step(Ld, ch, q_curr, p_curr, cfg)
        else:
            q_next, p_next, res = _plain_step(Hd, q_curr, p_curr, cfg)
        if Hd.source is not None:
            d1d2 = Hd.source.Ld.jet(q_curr.tolist(), q_next.tolist())[3]
            sign = float(np.sign(np.linalg.det(np.array(d1d2))))
            if branch_sign is not None and sign != 0 and sign != branch_sign:
                k = len(traj.points)
                raise IntegrationError(f"discrete Legendre branch jump at step {k}",
                                       partial=traj, index=k)
            branch_sign = sign if sign != 0 else branch_sign
        return q_next, p_next, res

    def carry(t, q_next, p_next):
        return transition_apply(atlas, t.from_chart, t.to_chart, q_next, p_next, "p")[1]

    traj.points.append(point(0, chart, q, p))
    return _march(atlas, chart, q, p, traj, N, step, carry, point,
                  DEFAULT_SWITCH_MARGIN)
