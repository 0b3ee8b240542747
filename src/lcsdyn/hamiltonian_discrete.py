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

Their ``d1``/``d2`` are true partials of the eliminated two-argument functions
(implicit-function differentiation; exact when sigma is constant).  The plain
steppers ``rd_step``/``ld_step`` use these partials directly.  The conformal
steppers step the generating Lagrangian instead: q_next solves
p_curr = p-(q_curr, q_next), the n-unknown system of the conformal three-point
recursion, and p_next = p+(q_curr, q_next) is then explicit.  That is what
the conformal Hamilton equations assert once the eliminated argument is held
fixed under differentiation, and it makes the Lagrangian and Hamiltonian
marches commute through the Legendre transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .atlas import Chart, ConformalAtlas, transition_apply
from .discretize import DiscreteLagrangian
from .errors import ConsistencyError, DomainError, IntegrationError
from .numerics import StepperConfig, as_vector, fd_jacobian, newton_solve
from .trajectory import DiscreteTrajectory, TrajectoryPoint
from .variational import (DEFAULT_SWITCH_MARGIN, _dlcel_system, _dp_minus_dq1,
                          _into_chart, _march, _p_minus, _p_plus)

Vector = np.ndarray

_INVERT_CFG = StepperConfig(tol=1e-13, max_iter=60)


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
    p_plus = as_vector(Ld.d2(q0, q1))
    p_minus = _p_minus(Ld, q0, q1, ch.grad(q0))
    scale = np.exp(-float(ch.sigma(q0)))
    return LegendreMomenta(r_plus=scale * p_plus, r_minus=scale * p_minus,
                           p_plus=p_plus, p_minus=p_minus)


def momenta_along_trajectory(Ld: DiscreteLagrangian, atlas: ConformalAtlas,
                             traj: DiscreteTrajectory, tol: float = 1e-8,
                             conformal: bool = True) -> DiscreteTrajectory:
    """Fill per-point momenta (r, p) of a conformal-recursion trajectory in place.

    Each lattice pair is carried once into the chart of its first point q_k
    and gives p-(q_k, q_{k+1}) at q_k and p+(q_k, q_{k+1}) at q_{k+1}, moved
    into q_{k+1}'s chart on a switch (with ``conformal=False``, -d1 Ld and
    d2 Ld).  At interior points the two expressions for p_k must agree to
    ``tol`` (their difference is the step residual); a larger disagreement
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
            if conformal:
                ch = atlas.chart(pt.chart)
                s_b = sigmas[k + 1] if nxt.chart == pt.chart else float(ch.sigma(qb))
                p_fwd = _p_minus(Ld, pt.q, qb, ch.grad(pt.q))
                p_next = _p_plus(Ld, pt.q, qb, sigmas[k], s_b)
            else:
                p_fwd = -as_vector(Ld.d1(pt.q, qb))
                p_next = as_vector(Ld.d2(pt.q, qb))
            if nxt.chart != pt.chart:
                _, p_next = transition_apply(atlas, pt.chart, nxt.chart, qb, p_next, "p")
        if p_fwd is not None and p_bwd is not None:
            gap = float(np.max(np.abs(p_fwd - p_bwd)))
            if gap > tol:
                raise ConsistencyError(
                    f"momentum expressions disagree by {gap:.3e} (tol {tol:.1e}) "
                    f"at lattice point {k}", index=k)
        pt.p = p_fwd if p_fwd is not None else p_bwd
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
        """q1 solving P = p+(q0, q1), from the seed q0 + h P."""
        ch = self.atlas.chart(self.chart)
        s0 = float(ch.sigma(q0))

        def g(x):
            return _p_plus(self.Ld, q0, x, s0, float(ch.sigma(x))) - P

        return newton_solve(g, q0 + self.Ld.h * P, _INVERT_CFG).x

    def invert_left(self, q1: Vector, P: Vector) -> np.ndarray:
        """q0 solving P = p-(q0, q1), from the seed q1 - h P."""
        ch = self.atlas.chart(self.chart)

        def g(x):
            return _p_minus(self.Ld, x, q1, ch.grad(x)) - P

        return newton_solve(g, q1 - self.Ld.h * P, _INVERT_CFG).x


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """One-step generating Hamiltonian; right side takes (q_k, p_{k+1}), left (q_{k+1}, p_k).

    ``d1``/``d2`` are partials of ``value`` with respect to its two arguments
    (finite-difference consistent).  ``source`` carries the generating
    Lagrangian data of a Hamiltonian built from a discrete Lagrangian; the
    conformal steppers require it.
    """

    n: int
    h: float
    side: str
    value: Callable[[Vector, Vector], float]
    d1: Callable[[Vector, Vector], Vector]
    d2: Callable[[Vector, Vector], Vector]
    source: LagrangianSource | None = None

    def __post_init__(self):
        if self.side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {self.side!r}")


def build_right_hamiltonian(Ld: DiscreteLagrangian, atlas: ConformalAtlas,
                            chart: int) -> DiscreteHamiltonian:
    """Right discrete Hamiltonian H+(q_k, p_{k+1}) generated by Ld on a chart.

    The value Newton-inverts the forward momentum relation for q_{k+1}; the
    partials come from implicit-function differentiation, reducing to
    d1 = -d1 Ld and d2 = q_{k+1} when sigma is constant.
    """
    ch = atlas.chart(chart)
    source = LagrangianSource(Ld=Ld, atlas=atlas, chart=chart)

    def _dp_plus_dq1(q0, q1):
        # d/dq1 of the inverted relation P = p+(q0, q1), differenced.
        s0 = float(ch.sigma(q0))
        return fd_jacobian(lambda x: _p_plus(Ld, q0, x, s0, float(ch.sigma(x))), q1, 1e-6)

    def _core(q0: Vector, P: Vector):
        q0, P = as_vector(q0), as_vector(P)
        q1 = source.invert_right(q0, P)
        em = np.exp(float(ch.sigma(q0)) - float(ch.sigma(q1)))
        return q0, P, q1, em

    def value(q0, P):
        q0, P, q1, em = _core(q0, P)
        return em * float(P @ q1) - float(Ld.value(q0, q1))

    def d1(q0, P):
        q0, P, q1, em = _core(q0, P)
        phi0, phi1 = ch.grad(q0), ch.grad(q1)
        coupling = em * float(P @ q1)
        base = phi0 * coupling - as_vector(Ld.d1(q0, q1))
        corr = -phi1 * coupling
        if not np.any(corr):
            return base
        d2v = as_vector(Ld.d2(q0, q1))
        dgdq = (1.0 / em) * (np.atleast_2d(Ld.d1d2(q0, q1)).T - np.outer(d2v, phi0))
        dq1_dq0 = -np.linalg.solve(_dp_plus_dq1(q0, q1), dgdq)
        return base + np.atleast_2d(dq1_dq0).T @ corr

    def d2(q0, P):
        q0, P, q1, em = _core(q0, P)
        phi1 = ch.grad(q1)
        base = em * q1
        corr = -phi1 * em * float(P @ q1)
        if not np.any(corr):
            return base
        dq1_dP = np.linalg.inv(_dp_plus_dq1(q0, q1))
        return base + dq1_dP.T @ corr

    return DiscreteHamiltonian(n=Ld.n, h=Ld.h, side="right", value=value,
                               d1=d1, d2=d2, source=source)


def build_left_hamiltonian(Ld: DiscreteLagrangian, atlas: ConformalAtlas,
                           chart: int) -> DiscreteHamiltonian:
    """Left discrete Hamiltonian H-(q_{k+1}, p_k); mirror of the right builder."""
    ch = atlas.chart(chart)
    source = LagrangianSource(Ld=Ld, atlas=atlas, chart=chart)

    def _core(q1: Vector, P: Vector):
        q1, P = as_vector(q1), as_vector(P)
        q0 = source.invert_left(q1, P)
        E = np.exp(float(ch.sigma(q1)) - float(ch.sigma(q0)))
        return q1, P, q0, E

    def value(q1, P):
        q1, P, q0, E = _core(q1, P)
        return E * (-float(P @ q0) - float(Ld.value(q0, q1)))

    def _dp_minus_dq0(q0: Vector, q1: Vector) -> np.ndarray:
        # d/dq0 of p-(q0, q1); needs the sigma Hessian, so it is differenced.
        return fd_jacobian(lambda x: _p_minus(Ld, x, q1, ch.grad(x)), q0, 1e-6)

    def d1(q1, P):
        q1, P, q0, E = _core(q1, P)
        phi1, phi0 = ch.grad(q1), ch.grad(q0)
        H = E * (-float(P @ q0) - float(Ld.value(q0, q1)))
        base = phi1 * H - E * as_vector(Ld.d2(q0, q1))
        corr = phi0 * (E * float(P @ q0))
        if not np.any(corr):
            return base
        dq0_dq1 = -np.linalg.solve(_dp_minus_dq0(q0, q1),
                                   _dp_minus_dq1(Ld, q0, q1, phi0))
        return base + np.atleast_2d(dq0_dq1).T @ corr

    def d2(q1, P):
        q1, P, q0, E = _core(q1, P)
        phi0 = ch.grad(q0)
        base = -E * q0
        corr = phi0 * (E * float(P @ q0))
        if not np.any(corr):
            return base
        dq0_dP = np.linalg.inv(_dp_minus_dq0(q0, q1))
        return base + dq0_dP.T @ corr

    return DiscreteHamiltonian(n=Ld.n, h=Ld.h, side="left", value=value,
                               d1=d1, d2=d2, source=source)


def _require_side(Hd: DiscreteHamiltonian, side: str, stepper: str) -> None:
    if Hd.side != side:
        raise ValueError(f"{stepper} needs a {side}-side discrete Hamiltonian")


def _plain_step(Hd: DiscreteHamiltonian, q_curr: Vector, p_curr: Vector,
                cfg: StepperConfig):
    """Newton solve of the plain step on Hd's side; returns (q_next, p_next, result)."""
    if Hd.side == "right":
        def F(P):
            return as_vector(Hd.d1(q_curr, P)) - p_curr

        res = newton_solve(F, p_curr, cfg)
        return as_vector(Hd.d2(q_curr, res.x)), res.x, res

    def F(x):
        return as_vector(Hd.d2(x, p_curr)) + q_curr

    res = newton_solve(F, q_curr + Hd.h * p_curr, cfg)
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
    conformal three-point recursion (``variational._dlcel_system``, analytic
    Jacobian), seeded here with q_curr + h p_curr.  Then
    p_next = p+(q_curr, q_next) is explicit.  Returns (q_next, p_next, result).
    """
    F, J = _dlcel_system(Ld, ch, q_curr, p_curr)
    res = newton_solve(F, q_curr + Ld.h * p_curr, cfg, jacobian=J)
    p_next = _p_plus(Ld, q_curr, res.x, float(ch.sigma(q_curr)), float(ch.sigma(res.x)))
    return res.x, p_next, res


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
            sign = float(np.sign(np.linalg.det(
                np.atleast_2d(Hd.source.Ld.d1d2(q_curr, q_next)))))
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
