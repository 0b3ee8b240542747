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
three-point recursion; ``momenta_along_trajectory`` fills them, from what
the steps of an ``integrate`` march recorded wherever no chart switch came
between the two points of a pair, and by evaluating the pair jet elsewhere.

The right discrete Hamiltonian eliminates q1 from

    H+(q0, P) = exp(sigma(q0) - sigma(q1)) P . q1 - Ld(q0, q1),   P = p+(q0, q1)

(Newton inversion), and the left one eliminates q0 from

    H-(q1, P) = exp(sigma(q1) - sigma(q0)) (-P . q0 - Ld(q0, q1)),   P = p-(q0, q1).

Both inversions are Newton solves with the closed-form Jacobians

    dp+/dq1 = exp(sigma(q1) - sigma(q0)) (d2d2 Ld + d2 Ld (x) phi(q1)),
    dp-/dq0 = Hsigma(q0) Ld + phi(q0) (x) d1 Ld - d1d1 Ld.

Every discrete Hamiltonian is generated so and defined by its float jet:
``Hd.jet(q, P)`` returns the value and its true partials ``d1``/``d2``
(implicit-function differentiation through the same Jacobians), all from one
Newton inversion at (q, P): the builders sit on the quadrature rules'
one-entry pair memo (``discretize._pair_memo``, keyed on the float tuples of
(q, P)), so a Hamiltonian is stateful and not thread-safe.  The inversions
iterate ``numerics._newton`` on Python floats over the pair jet ``Ld.jet``
with the closed-form Jacobians, which read Ld's d1d1 or d2d2 on fresh arrays;
the array methods ``value``/``d1``/``d2``/``d1d2`` convert the float surface.
The mixed partial ``Hd.mixed`` is lazy:
where the Lee form (and the sigma Hessian at the eliminated point) vanishes it is
-d1d2 Ld inv(dp+/dq1) (right) or -E (d1d2 Ld)^T inv(dp-/dq0) (left, E the
exponential in H-).  Elsewhere ``d1`` is differenced in P along the inverted
relation's tangent, the eliminated point moving by inv(dp/dq) dP, with no
further inversion: where the Lee form at the eliminated point is nonzero the
exact mixed partial carries third partials of Ld, which no rule provides.
Plain ``rd_step``/``ld_step`` use the mixed partial as Newton Jacobian,
iterating ``numerics._newton`` over ``Hd.jet`` and ``Hd.mixed``.
The conformal steppers step the generating Lagrangian instead: q_next solves
p_curr = p-(q_curr, q_next), the n-unknown system of the conformal three-point
recursion, on Python floats with one pair jet call per Newton iterate, and
p_next = p+(q_curr, q_next) is then explicit.  That is what the conformal
Hamilton equations assert once the eliminated argument is held fixed under
differentiation, and it makes the Lagrangian and Hamiltonian marches commute
through the Legendre transform.  The march holds (q, p, sigma(q)) on floats, so
it evaluates sigma once per point (twice at a chart switch) and makes a point's
q, p and r arrays once, as it appends the point; the plain march converts at
the boundary of the array-coded ``_plain_step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .atlas import Chart, ConformalAtlas, _covector
from .discretize import DiscreteLagrangian, _pair_memo
from .errors import ConsistencyError, DomainError, IntegrationError
from .numerics import (StepperConfig, _add, _det_sign, _dot, _fd_floats, _newton,
                       _newton_result, _of_length, _on_lists, _rows, _solve_floats, _sub,
                       _transposed, _transposed_matvec, as_matrix, as_vector)
from .trajectory import DiscreteTrajectory, TrajectoryPoint
from .variational import (DEFAULT_SWITCH_MARGIN, _dlcel_system, _dp_minus_dq0,
                          _dp_minus_dq1, _dp_plus_dq1, _into_chart, _march, _p_minus,
                          _p_plus)

Vector = np.ndarray

_INVERT_CFG = StepperConfig(tol=1e-13, max_iter=60)
# the tangent difference's truncation (third partials of d1) against its rounding
_TANGENT_FD_EPS = 1e-5


def momenta_along_trajectory(Ld: DiscreteLagrangian, atlas: ConformalAtlas,
                             traj: DiscreteTrajectory, tol: float = 1e-8,
                             conformal: bool = True) -> DiscreteTrajectory:
    """Fill per-point momenta (r, p) of a conformal-recursion trajectory in place.

    Each lattice pair is carried once into the chart of its first point q_k
    and gives, from one call of the pair jet, p-(q_k, q_{k+1}) at q_k and
    p+(q_k, q_{k+1}) at q_{k+1}, moved into q_{k+1}'s chart on a switch (with
    ``conformal=False``, -d1 Ld and d2 Ld).  At interior points the two
    expressions for p_k must agree to ``tol`` (their difference is the step
    residual); a larger or NaN disagreement raises :class:`ConsistencyError`
    naming the lattice index.  Endpoints use the single available expression.

    For the trajectory of a completed ``integrate`` march the fill takes
    the momenta and sigma values each step recorded at its solved pair,
    bit for bit what the jet gives here, and evaluates afresh only the first
    pair and the pairs whose second point was switched, where the point
    carried back may differ from the solved one by rounding; the disagreement
    is checked at those pairs' points.  Elsewhere it is the step's Newton
    residual, which the march has already bounded by its tolerance.  Any
    other trajectory is filled from scratch.
    """
    pts = traj.points
    if len(pts) < 2:
        raise ValueError("momenta need at least two lattice points")
    record, traj._march_record = traj._march_record, None
    last = len(pts) - 1
    sigmas = None
    if conformal:
        known = [None] * len(pts) if record is None else [None, *record.sigmas()]
        if record is not None and traj.steps[-1].switched:
            known[-1] = None
        sigmas = [atlas.chart(pt.chart)._floats[0](pt.q.tolist()) if s is None else s
                  for s, pt in zip(known, pts)]
    p_bwd, bwd_recorded = None, False
    for k, pt in enumerate(pts):
        p_fwd = p_next = None
        fwd_recorded = record is not None and 0 < k < last \
            and not traj.steps[k - 1].switched
        if fwd_recorded:
            p_fwd, p_next = record.momenta(k)
        elif k < last:
            nxt = pts[k + 1]
            try:
                qb = _into_chart(atlas, nxt.q, nxt.chart, pt.chart)
            except DomainError as e:
                raise ConsistencyError(str(e), index=k) from e
            qk, qb = pt.q.tolist(), qb.tolist()
            value, d1, d2, _ = Ld.jet(qk, qb)
            if conformal:
                sigma, grad, _ = atlas.chart(pt.chart)._floats
                s_b = sigmas[k + 1] if nxt.chart == pt.chart else sigma(qb)
                p_fwd = _p_minus(grad(qk), value, d1)
                p_next = _p_plus(d2, sigmas[k], s_b)
            else:
                p_fwd, p_next = [-g for g in d1], d2
            if nxt.chart != pt.chart:
                t = atlas.require_transition(pt.chart, nxt.chart, qb)
                p_next = _covector(t, np.array(qb), p_next).tolist()
        if p_fwd is not None and p_bwd is not None and not (fwd_recorded
                                                             and bwd_recorded):
            # the largest |difference|, NaN when any difference is NaN
            gaps = [abs(a - b) for a, b in zip(p_fwd, p_bwd)]
            gap = max(gaps) if all(g == g for g in gaps) else math.nan
            if not gap <= tol:
                raise ConsistencyError(
                    f"momentum expressions disagree by {gap:.3e} (tol {tol:.1e}) "
                    f"at lattice point {k}", index=k)
        pt.p, pt.r = _momenta(p_fwd if p_fwd is not None else p_bwd,
                              sigmas[k] if conformal else None)
        p_bwd, bwd_recorded = p_next, fwd_recorded
    return traj


def _momenta(p: list, s: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Fresh arrays p and r = exp(-s) p (r = p for s None) of a float list, r
    with the bits of ``np.exp(-s) * np.array(p)``: one IEEE product each."""
    if s is None:
        return np.array(p), np.array(p)
    e = float(np.exp(-s))
    return np.array(p), np.array([e * x for x in p])


@dataclass(frozen=True)
class LagrangianSource:
    """The generating data behind a Lagrangian-derived discrete Hamiltonian."""

    Ld: DiscreteLagrangian
    atlas: ConformalAtlas
    chart: int

    @cached_property
    def _floats(self) -> tuple:
        """(sigma, grad, hess) of the chart (``Chart._floats``) and Ld's
        ``d1d1`` and ``d2d2``, all on float lists (``numerics._on_lists``)."""
        return (*self.atlas.chart(self.chart)._floats,
                _on_lists(self.Ld.d1d1, as_matrix), _on_lists(self.Ld.d2d2, as_matrix))

    def invert_right(self, q0: Vector, P: Vector) -> np.ndarray:
        """q1 solving P = p+(q0, q1), by Newton on floats with the closed-form
        dp+/dq1 from the seed q0 + h P."""
        Ld, (sigma, grad, _, _, d2d2) = self.Ld, self._floats
        q0, P = as_vector(q0).tolist(), as_vector(P).tolist()
        s0 = sigma(q0)

        def system(x: list):
            d2, s1 = Ld.jet(q0, x)[2], sigma(x)
            return (_sub(_p_plus(d2, s0, s1), P),
                    lambda: _dp_plus_dq1(d2d2(q0, x), d2, grad(x), s0, s1))

        return np.array(_newton(system, [a + Ld.h * b for a, b in zip(q0, P)],
                                _INVERT_CFG)[0])

    def invert_left(self, q1: Vector, P: Vector) -> np.ndarray:
        """q0 solving P = p-(q0, q1), by Newton on floats with the closed-form
        dp-/dq0 from the seed q1 - h P."""
        Ld, (_, grad, hess, d1d1, _) = self.Ld, self._floats
        q1, P = as_vector(q1).tolist(), as_vector(P).tolist()

        def system(x: list):
            (value, d1), phi0 = Ld.jet(x, q1)[:2], grad(x)
            return (_sub(_p_minus(phi0, value, d1), P),
                    lambda: _dp_minus_dq0(hess(x), value, phi0, d1, d1d1(x, q1)))

        return np.array(_newton(system, [a - Ld.h * b for a, b in zip(q1, P)],
                                _INVERT_CFG)[0])


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """One-step generating Hamiltonian; right side takes (q_k, p_{k+1}), left (q_{k+1}, p_k).

    Made by :func:`build_right_hamiltonian` or :func:`build_left_hamiltonian`
    from its generating ``source``, and defined by its float surface on two
    lists of floats: ``jet(a, P)`` returns the value and its partials d1 and
    d2 in the two arguments, and ``mixed(a, P)`` returns ``d1d2[i][j] = d^2 H
    / da_i dP_j`` as a nested list (finite-difference consistent), evaluated
    only on request.  Both share one inversion per (a, P); ``mixed`` is
    closed-form where the Lee form vanishes and elsewhere differenced along
    the inverted relation without further inversions.  ``value``, ``d1``,
    ``d2`` and ``d1d2`` are the same on array-likes, as an ``np.float64``
    and fresh float64 arrays.
    """

    source: LagrangianSource
    side: str
    jet: Callable[[list, list], tuple]
    mixed: Callable[[list, list], list]

    @property
    def n(self) -> int:
        return self.source.Ld.n

    @property
    def h(self) -> float:
        return self.source.Ld.h

    def _at(self, part: Callable, a: Vector, P: Vector):
        return part(as_vector(a).tolist(), as_vector(P).tolist())

    def value(self, a: Vector, P: Vector) -> np.float64:
        return np.float64(self._at(self.jet, a, P)[0])

    def d1(self, a: Vector, P: Vector) -> np.ndarray:
        return np.array(self._at(self.jet, a, P)[1])

    def d2(self, a: Vector, P: Vector) -> np.ndarray:
        return np.array(self._at(self.jet, a, P)[2])

    def d1d2(self, a: Vector, P: Vector) -> np.ndarray:
        return np.array(self._at(self.mixed, a, P))


def _along_inversion(partial, P: list, J: list) -> list:
    """d/dP of ``partial(t, dx)``, the Hamiltonian's first partial at P + t with
    the eliminated point moved by dx = inv(J) t: a central difference along
    the inverted momentum relation (J its Jacobian in the eliminated point),
    as a nested list."""
    return _fd_floats(lambda t: partial(t, _solve_floats(J, t, 1e12)), [0.0] * len(P),
                      _TANGENT_FD_EPS)


def _memoized_hamiltonian(source: LagrangianSource, side: str, pair_data, mixed
                          ) -> DiscreteHamiltonian:
    """A discrete Hamiltonian on :func:`discretize._pair_memo`.

    ``pair_data(a, P)`` on float tuples inverts once and returns ``((value,
    d1, d2), extra)`` on floats: the jet is that entry's first item, and the
    mixed partial is ``mixed(a, P, *extra)``.
    """
    lookup = _pair_memo(pair_data)
    return DiscreteHamiltonian(source=source, side=side, jet=lambda a, P: lookup(a, P)[0],
                               mixed=lambda a, P: mixed(a, P, *lookup(a, P)[1]))


def build_right_hamiltonian(Ld: DiscreteLagrangian, atlas: ConformalAtlas,
                            chart: int) -> DiscreteHamiltonian:
    """Right discrete Hamiltonian H+(q_k, p_{k+1}) generated by Ld on a chart.

    One Newton inversion of the forward momentum relation for q_{k+1} gives
    the value and both partials; the partials come from implicit-function
    differentiation through the closed-form dp+/dq1, reducing to d1 = -d1 Ld
    and d2 = q_{k+1} when sigma is constant.
    """
    source = LagrangianSource(Ld=Ld, atlas=atlas, chart=chart)
    sigma, grad, hess, d1d1, d2d2 = source._floats

    def partials(q0, P, q1):
        s0, s1 = sigma(q0), sigma(q1)
        em = float(np.exp(s0 - s1))
        phi0, phi1 = grad(q0), grad(q1)
        value, d1_Ld, d2_Ld, d1d2_Ld = Ld.jet(q0, q1)
        coupling = em * _dot(P, q1)
        d1 = [f * coupling - g for f, g in zip(phi0, d1_Ld)]
        d2 = [em * x for x in q1]
        if any(phi1):
            # dH+/dq1 at fixed (q0, P) is -phi1 coupling; it reaches the partials
            # through dq1/dP = inv(J) and dq1/dq0 = -inv(J) dp+/dq0
            J = _dp_plus_dq1(d2d2(q0, q1), d2_Ld, phi1, s0, s1)
            y = _solve_floats(_transposed(J), [-f * coupling for f in phi1], 1e12)
            inv_em = 1.0 / em if em else math.inf  # numpy's 1 / +0.0
            dgdq = [[inv_em * (m - g * f) for m, f in zip(col, phi0)]
                    for col, g in zip(zip(*d1d2_Ld), d2_Ld)]
            d1 = _sub(d1, _transposed_matvec(dgdq, y))
            d2 = _add(d2, y)
        return (coupling - float(value), d1, d2), (q1, s0, s1, phi0, phi1)

    def mixed(q0, P, q1, s0, s1, phi0, phi1):
        _, _, d2_Ld, d1d2_Ld = Ld.jet(q0, q1)
        J = _dp_plus_dq1(d2d2(q0, q1), d2_Ld, phi1, s0, s1)
        if any(phi0) or any(phi1) or any(map(any, hess(q1))):
            return _along_inversion(
                lambda t, dx: partials(q0, _add(P, t), _add(q1, dx))[0][1], P, J)
        JT = _transposed(J)
        return [[-v for v in _solve_floats(JT, row, 1e12)] for row in d1d2_Ld]

    return _memoized_hamiltonian(
        source, "right",
        lambda q0, P: partials(q0, P, source.invert_right(q0, P).tolist()), mixed)


def build_left_hamiltonian(Ld: DiscreteLagrangian, atlas: ConformalAtlas,
                           chart: int) -> DiscreteHamiltonian:
    """Left discrete Hamiltonian H-(q_{k+1}, p_k); mirror of the right builder."""
    source = LagrangianSource(Ld=Ld, atlas=atlas, chart=chart)
    sigma, grad, hess, d1d1, d2d2 = source._floats

    def partials(q1, P, q0):
        E = float(np.exp(sigma(q1) - sigma(q0)))
        phi1, phi0 = grad(q1), grad(q0)
        value, d1_Ld, d2_Ld, d1d2_Ld = Ld.jet(q0, q1)
        H = E * (-_dot(P, q0) - float(value))
        d1 = [f * H - E * g for f, g in zip(phi1, d2_Ld)]
        d2 = [-E * x for x in q0]
        if any(phi0):
            # dH-/dq0 at fixed (q1, P) is phi0 E P.q0; it reaches the partials
            # through dq0/dP = inv(J) and dq0/dq1 = -inv(J) dp-/dq1
            J = _dp_minus_dq0(hess(q0), value, phi0, d1_Ld, d1d1(q0, q1))
            y = _solve_floats(_transposed(J), [f * (E * _dot(P, q0)) for f in phi0], 1e12)
            d1 = _sub(d1, _transposed_matvec(_dp_minus_dq1(phi0, d2_Ld, d1d2_Ld), y))
            d2 = _add(d2, y)
        return (H, d1, d2), (q0, E, phi0, phi1)

    def mixed(q1, P, q0, E, phi0, phi1):
        hess0 = hess(q0)
        value, d1_Ld, _, d1d2_Ld = Ld.jet(q0, q1)
        J = _dp_minus_dq0(hess0, value, phi0, d1_Ld, d1d1(q0, q1))
        if any(phi0) or any(phi1) or any(map(any, hess0)):
            return _along_inversion(
                lambda t, dx: partials(q1, _add(P, t), _add(q0, dx))[0][1], P, J)
        JT = _transposed(J)
        return [[-E * v for v in _solve_floats(JT, list(col), 1e12)]
                for col in zip(*d1d2_Ld)]

    return _memoized_hamiltonian(
        source, "left",
        lambda q1, P: partials(q1, P, source.invert_left(q1, P).tolist()), mixed)


def _require_side(Hd: DiscreteHamiltonian, side: str, stepper: str) -> None:
    if Hd.side != side:
        raise ValueError(f"{stepper} needs a {side}-side discrete Hamiltonian")


def _plain_step(Hd: DiscreteHamiltonian, q_curr: Vector, p_curr: Vector,
                cfg: StepperConfig):
    """Newton solve of the plain step on Hd's side, on its float jet and mixed
    partial; returns (q_next, p_next, result)."""
    jet, mixed = Hd.jet, Hd.mixed
    q, p = q_curr.tolist(), p_curr.tolist()
    if Hd.side == "right":
        res = _newton_result(lambda P: (_sub(jet(q, P)[1], p), lambda: mixed(q, P)), p, cfg)
        return np.array(jet(q, res.x.tolist())[2]), res.x, res
    res = _newton_result(
        lambda x: (_add(jet(x, p)[2], q), lambda: _transposed(mixed(x, p))),
        [a + Hd.h * b for a, b in zip(q, p)], cfg)
    return res.x, np.array([-g for g in jet(res.x.tolist(), p)[1]]), res


def rd_step(Hd: DiscreteHamiltonian, q_curr: Vector, p_curr: Vector,
            cfg: StepperConfig) -> tuple[np.ndarray, np.ndarray]:
    """Plain right step: solve p_k = d1 H+(q_k, p_{k+1}), then q_{k+1} = d2 H+."""
    _require_side(Hd, "right", "rd_step")
    return _plain_step(Hd, _of_length(q_curr, Hd.n, "q"), _of_length(p_curr, Hd.n, "p"),
                       cfg)[:2]


def ld_step(Hd: DiscreteHamiltonian, q_curr: Vector, p_curr: Vector,
            cfg: StepperConfig) -> tuple[np.ndarray, np.ndarray]:
    """Plain left step: solve q_k = -d2 H-(q_{k+1}, p_k), then p_{k+1} = -d1 H-."""
    _require_side(Hd, "left", "ld_step")
    return _plain_step(Hd, _of_length(q_curr, Hd.n, "q"), _of_length(p_curr, Hd.n, "p"),
                       cfg)[:2]


def _conformal_pair_step(Ld: DiscreteLagrangian, ch: Chart, qc: list, pc: list,
                         cfg: StepperConfig, s_curr: float | None = None):
    """One conformal step of the generating Lagrangian on chart ``ch``, on floats.

    q_next solves p_curr = p-(q_curr, q_next): the n-unknown system of the
    conformal three-point recursion (``variational._dlcel_system``, analytic
    Jacobian), seeded here with q_curr + h p_curr.  Then
    p_next = p+(q_curr, q_next) is explicit, from the pair jet at the solution.
    ``s_curr`` is sigma(q_curr) when the caller has it.  Returns (q_next,
    p_next, sigma(q_next), iterations, residual).
    """
    sigma, grad, _ = ch._floats
    x, iterations, residual = _newton(_dlcel_system(Ld, qc, grad(qc), pc),
                                      [a + Ld.h * b for a, b in zip(qc, pc)], cfg)
    d2 = Ld.jet(qc, x)[2]
    if s_curr is None:
        s_curr = sigma(qc)
    s_next = sigma(x)
    return x, _p_plus(d2, s_curr, s_next), s_next, iterations, residual


def _conformal_step(Hd: DiscreteHamiltonian, atlas: ConformalAtlas, chart: int,
                    q_curr: Vector, p_curr: Vector, cfg: StepperConfig):
    """The chart-checked single conformal step behind rdlch_step and ldlch_step."""
    if Hd.source.chart != chart:
        raise ValueError(f"discrete Hamiltonian was built on chart "
                         f"{Hd.source.chart}, stepped on chart {chart}")
    ch = atlas.require_inside(chart, q_curr)
    q_next, p_next = _conformal_pair_step(Hd.source.Ld, ch, as_vector(q_curr).tolist(),
                                          _of_length(p_curr, Hd.n, "p").tolist(), cfg)[:2]
    return np.array(q_next), np.array(p_next)


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
    conformal step is posed on the active chart with the generating Ld.  The
    sign of det d1d2 Ld along consecutive pairs is monitored; a flip means
    the momentum inversion jumped to a different branch and the march aborts
    with the partial trajectory.  A
    march of more points than could be held raises ``MemoryError`` before
    its first step, as ``integrate`` does.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    _rows(N + 1, 3 * Hd.n)  # room for every point's q, p and r, or MemoryError
    q, p = as_vector(q0), _of_length(p0, Hd.n, "p")
    atlas.require_inside(chart, q)
    q, p = q.tolist(), p.tolist()
    Ld = Hd.source.Ld
    traj = DiscreteTrajectory(h=Hd.h)
    branch_sign = None

    # The window is (p, sigma(q)) at the current point, on floats; sigma is
    # None after a switch and with conformal=False, where r = p.
    def point(k, chart_id, q_k, window):
        p_k, s_k = window
        if conformal and s_k is None:
            s_k = atlas.chart(chart_id)._floats[0](q_k)
        return TrajectoryPoint(k, chart_id, np.array(q_k), *_momenta(p_k, s_k))

    def step(ch, q_curr, window):
        nonlocal branch_sign
        p_curr, s_curr = window
        if conformal:
            q_next, p_next, s_next, iterations, residual = _conformal_pair_step(
                Ld, ch, q_curr, p_curr, cfg, s_curr)
        else:
            q_next, p_next, res = _plain_step(Hd, np.array(q_curr), np.array(p_curr), cfg)
            q_next, p_next, s_next = q_next.tolist(), p_next.tolist(), None
            iterations, residual = res.iterations, res.residual
        sign = _det_sign(Ld.jet(q_curr, q_next)[3])
        if branch_sign is not None and sign != 0 and sign != branch_sign:
            k = len(traj.points)
            raise IntegrationError(f"discrete Legendre branch jump at step {k}",
                                   partial=traj, index=k)
        branch_sign = sign if sign != 0 else branch_sign
        return q_next, (p_next, s_next), (iterations, residual)

    def carry(t, q_next, window):
        return _covector(t, np.array(q_next), window[0]).tolist(), None

    traj.points.append(point(0, chart, q, (p, None)))
    return _march(atlas, chart, q, (p, None), traj, N, step, carry, point,
                  DEFAULT_SWITCH_MARGIN)
