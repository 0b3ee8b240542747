"""Constructors for two-point (discrete) Lagrangians.

A discrete Lagrangian is a function Ld(q0, q1) approximating the action of one
time step h, together with its first partials d1, d2 and its three second
partials d1d1 = d^2 Ld / dq0 dq0, d1d2 = d^2 Ld / dq0 dq1 and
d2d2 = d^2 Ld / dq1 dq1.  The stored object is always the *global* two-point
function; consumers multiply by exp(-sigma(q0)) where the per-chart local
version is needed.

``midpoint_rule`` and ``trapezoidal_rule`` carry analytic chain-rule partials
(the second partials read L's position Hessian: under
``L.constant_hessians`` the resolved one once, when the rule is built, and
otherwise ``L.hess_qq`` at every pair) and never consult the conformal
factor.  Under ``L.constant_hessians`` the parts of the second partials that
only the Hessians enter (the plain rules' d1d2, the d1d1 and d2d2 bases and
the node terms of the conformal d1d2) are constants of the rule, computed
once when it is built from the Hessians L resolved at q = v = 0, and the
jet's velocity Hessians are not read.  Their conformal companions
``conformal_midpoint_rule`` / ``conformal_trapezoidal_rule`` instead apply the
quadrature rule to the chart-local Lagrangian exp(-sigma) L and re-express the
result globally, e.g.

    Ld(q0, q1) = exp(sigma(q0) - sigma((q0+q1)/2)) h L((q0+q1)/2, (q1-q0)/h).

The distinction matters for accuracy, not algebra: the conformal three-point
recursion weights the action sum with exp(-sigma(q0)), and only a rule whose
local form is a second-order quadrature of the local action keeps the
resulting integrator second order.  When sigma is constant on a chart the
conformal constructors return bitwise the plain rule's values.

A discrete Lagrangian is defined by two functions on lists of floats: its
pair jet, ``Ld.jet(q0, q1)``, returning value, d1, d2 and d1d2 at once, and
``Ld.same(q0, q1, k)``, returning d1d1 (k = 0) or d2d2 (k = 1).  The
conformal steps, their Newton iteration, the momentum fill and the
Hamiltonian side's inversions run on these.  The four quadrature rules
compute the jet on Python floats, with one call of L's flat jet per node, on
the node's 2n floats, and one evaluation of the chart data, and keep the
last pair's entry in a one-entry memo keyed on the pair's float tuples
(``_pair_memo``, which the discrete Hamiltonians use too).  For n = 1 and
n = 2 the midpoint rules' jet, and the conformal one's Lee combination on a
chart with a constant Lee form, run on unpacked scalars (``_midpoint_pair``,
``_constant_lee_midpoint``), with the general form's expressions in its
order and so its bits.  The rules' array parts are views of that entry:
value, d1, d2 and d1d2 convert it, and same adds only L's position Hessian
and, for the conformal rules, ``Chart.hess``, on numpy arrays that it hands
out as nested lists.  The rule objects are therefore stateful and not
thread-safe, and ``L``'s jet and ``hess_qq`` and the charts' sigma callables
must be pure functions of their arguments.

``exact_discrete_lagrangian`` is the same kind of rule for the exact
chart-local action: per pair, one shooting on the initial velocity finds the
conformal Euler-Lagrange extremal, Gauss-Legendre quadrature of exp(-sigma) L
along it gives the value, and the generating-function identities, with the
flow map's Jacobian, give every partial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .atlas import ConformalAtlas
from .continuous import ContinuousLagrangian, _jet_parts, make_lcel_field, rk4_integrate
from .errors import (DomainError, IntegrationError, NewtonError,
                     RegularityError, ShootingError)
from .numerics import (StepperConfig, _checked_inverse, _of_length, _on_lists, as_matrix,
                       fd_jacobian, newton_solve)

Vector = np.ndarray
_EXACT_QUAD_ORDER = 5
# the exact rule's shooting: endpoint mismatch below 1e-10, 64 RK4 steps per h
_SHOOTING_CFG = StepperConfig(tol=1e-10, max_iter=30)
_SUBSTEPS = 64


@dataclass(frozen=True)
class DiscreteLagrangian:
    """A two-point generating function, defined by its float pair jet and
    its same-point second partials.

    ``jet(q0, q1)``, on two lists of n floats, returns ``(value, d1, d2,
    d1d2)`` at the pair as a float, two lists of n floats and an (n, n)
    nested list, with ``d1d2[i][j] = d^2 Ld / dq0_i dq1_j``; the dynamics are
    regular where this matrix is invertible.  ``same(q0, q1, k)`` returns
    ``d^2 Ld / dq0_i dq0_j`` (k = 0) or ``d^2 Ld / dq1_i dq1_j`` (k = 1) as a
    nested list; these differentiate the discrete Legendre maps in their own
    point.  Both may return shared lists, so callers must not change what
    they return.  ``value``, ``d1``, ``d2`` and ``d1d2`` are the jet's parts
    on two array-likes, as a float and fresh float64 arrays, and fields so
    that ``dataclasses.replace`` can wrap them; ``d1d1`` and ``d2d2`` read
    ``same`` the same way.
    """

    n: int
    h: float
    jet: Callable[[list, list], tuple]
    same: Callable[[list, list, int], list]
    value: Callable[[Vector, Vector], float]
    d1: Callable[[Vector, Vector], Vector]
    d2: Callable[[Vector, Vector], Vector]
    d1d2: Callable[[Vector, Vector], np.ndarray]

    def d1d1(self, q0: Vector, q1: Vector) -> np.ndarray:
        return np.array(_on_arrays(self.same, self.n)(q0, q1, 0))

    def d2d2(self, q0: Vector, q1: Vector) -> np.ndarray:
        return np.array(_on_arrays(self.same, self.n)(q0, q1, 1))


def _on_arrays(f, n: int):
    """``f(q0, q1, *rest)`` of two float lists as a function of two
    array-likes, or ``ValueError`` naming q0 or q1 unless it is a vector of
    n components."""
    return lambda q0, q1, *rest: f(_of_length(q0, n, "q0").tolist(),
                                   _of_length(q1, n, "q1").tolist(), *rest)


def _pair_memo(pair_data):
    """``lookup(a, b)``: ``pair_data`` at a pair of float lists, kept for the last pair.

    The one entry is keyed on the pair's float tuples, and ``pair_data``
    receives those tuples, so an entry never sees a later change to the
    caller's lists.  As 0.0 == -0.0, a pair with a zero coordinate is always
    evaluated afresh.  A pair whose ``pair_data`` raises is not kept.  The
    memo makes ``lookup`` stateful and not thread-safe, and it requires
    ``pair_data`` to be a pure function of its arguments.  The discrete
    Lagrangians and the discrete Hamiltonians of ``hamiltonian_discrete``
    are built on it.
    """
    key, data = None, None

    def lookup(a, b):
        nonlocal key, data
        k = (tuple(a), tuple(b))
        if k != key or 0.0 in k[0] or 0.0 in k[1]:
            data = pair_data(*k)
            key = k
        return data

    return lookup


def _memoized_pair_rule(n: int, h: float, pair_data, same_from) -> DiscreteLagrangian:
    """A discrete Lagrangian on :func:`_pair_memo`.

    ``pair_data(q0, q1)`` on float tuples returns ``(jet, extra)`` with
    ``jet`` the pair's ``(value, d1, d2, d1d2)``: the ``jet`` field returns
    it and value, d1, d2 and d1d2 are array views of it.  ``same_from(extra,
    k)`` is d1d1 (k = 0) or d2d2 (k = 1) as an array, which ``same`` hands
    out as a nested list, so all parts at one pair come from one
    ``pair_data`` call.
    """
    lookup = _pair_memo(pair_data)
    at = _on_arrays(lookup, n)
    return DiscreteLagrangian(
        n=n, h=h, jet=lambda q0, q1: lookup(q0, q1)[0],
        same=lambda q0, q1, k: same_from(lookup(q0, q1)[1], k).tolist(),
        value=lambda q0, q1: at(q0, q1)[0][0],
        d1=lambda q0, q1: np.array(at(q0, q1)[0][1]),
        d2=lambda q0, q1: np.array(at(q0, q1)[0][2]),
        d1d2=lambda q0, q1: np.array(at(q0, q1)[0][3]))


def _hessians_of(L: ContinuousLagrangian):
    """``(qq, const)``: ``qq(q, v)``, L's position Hessian at float sequences
    as a nested list, and node data ``(None, None, hess_vv, hess_vq)`` or None.

    Under ``L.constant_hessians`` qq returns the resolved position Hessian as
    one shared list, which callers must not change, and const holds the
    resolved velocity Hessians: every second-partial base below is then the
    same at every node, a constant of the rule.  Otherwise qq calls
    ``L.hess_qq`` on fresh arrays and const is None.
    """
    if L.hessians is None:
        return _on_lists(L.hess_qq, as_matrix), None
    qq = L.hessians[0].tolist()
    return (lambda q, v: qq), (None, None, *L.hessians[1:])


def _midpoint_pair(L: ContinuousLagrangian, h: float):
    """``pair(q0, q1)``: (value, d1, d2, node) of the midpoint rule at a pair
    of float sequences, from one jet call at the midpoint m and the divided
    difference w; node is (m, w, hess_vv, hess_vq), from which
    :func:`_midpoint_d1d2` and :func:`_midpoint_same` build the second
    partials.  For n = 1 and n = 2 pair runs on unpacked scalars, with the
    expressions and rounding of the general form; a pair without n
    components, or a jet of another count, raises ``ValueError``."""
    jet, c = L.jet, 0.5 * h
    if L.n == 1:
        def pair(q0, q1):
            (a,), (b,) = q0, q1
            m, w = 0.5 * (a + b), (b - a) / h
            val, g, v, vv, vq = jet(m, w)
            return h * val, [c * g - v], [c * g + v], ([m], [w], vv, vq)

        return pair
    if L.n == 2:
        def pair(q0, q1):
            (a0, a1), (b0, b1) = q0, q1
            m0, m1, w0, w1 = 0.5 * (a0 + b0), 0.5 * (a1 + b1), (b0 - a0) / h, (b1 - a1) / h
            val, g0, g1, v0, v1, vv, vq = jet(m0, m1, w0, w1)
            return (h * val, [c * g0 - v0, c * g1 - v1], [c * g0 + v0, c * g1 + v1],
                    ([m0, m1], [w0, w1], vv, vq))

        return pair

    def pair(q0, q1):
        m = [0.5 * (a + b) for a, b in zip(q0, q1)]
        w = [(b - a) / h for a, b in zip(q0, q1)]
        val, gq, gv, vv, vq = _jet_parts(L, m, w)
        return (h * val, [c * g - v for g, v in zip(gq, gv)],
                [c * g + v for g, v in zip(gq, gv)], (m, w, vv, vq))

    return pair


def _midpoint_d1d2(qq, h: float, m: list, w: list, vv: np.ndarray, vq: np.ndarray
                   ) -> list:
    """d1d2 of the midpoint rule from its node data and the position Hessian
    ``qq`` (see :func:`_hessians_of`), as a nested list:
    0.5 (vq^T - vq) - vv / h + 0.25 h hess_qq."""
    vv, vq, qq, c = vv.tolist(), vq.tolist(), qq(m, w), 0.25 * h
    idx = range(len(vv))
    return [[0.5 * (vq[j][i] - vq[i][j]) - vv[i][j] / h + c * qq[i][j] for j in idx]
            for i in idx]


def _midpoint_same(qq, h: float, k: int, m: list, w: list, vv: np.ndarray,
                   vq: np.ndarray) -> np.ndarray:
    """d1d1 (k = 0) or d2d2 (k = 1) of the midpoint rule from the node data:
    0.25 h hess_qq -+ 0.5 (vq + vq^T) + vv / h."""
    sym = 0.5 * (vq + vq.T)
    return 0.25 * h * np.array(qq(m, w)) + (sym if k else -sym) + vv / h


def _midpoint_bases(L: ContinuousLagrangian, h: float):
    """``(d1d2, same)``: :func:`_midpoint_d1d2` and :func:`_midpoint_same`
    (``same(node, k)``) as functions of the node data.  Under
    ``L.constant_hessians`` both are constants of the rule, computed here
    once and shared: d1d2 is a list and same an array, which callers must
    not change."""
    qq, const = _hessians_of(L)
    if const is None:
        return (lambda node: _midpoint_d1d2(qq, h, *node),
                lambda node, k: _midpoint_same(qq, h, k, *node))
    d1d2 = _midpoint_d1d2(qq, h, *const)
    same = (_midpoint_same(qq, h, 0, *const), _midpoint_same(qq, h, 1, *const))
    return (lambda node: d1d2), (lambda node, k: same[k])


def _trapezoidal_pair(L: ContinuousLagrangian, h: float, q0, q1):
    """(value, d1, d2, nodes) of the trapezoidal rule at a pair of float
    sequences, from one jet call at each endpoint; nodes is ((q0, w,
    hess_vv, hess_vq) at (q0, w), then the same at (q1, w)), with w the
    divided difference."""
    w = [(b - a) / h for a, b in zip(q0, q1)]
    L0, gq0, gv0, vv0, vq0 = _jet_parts(L, q0, w)
    L1, gq1, gv1, vv1, vq1 = _jet_parts(L, q1, w)
    c = 0.5 * h
    gv = [0.5 * (a + b) for a, b in zip(gv0, gv1)]
    return (c * (L0 + L1), [c * g - v for g, v in zip(gq0, gv)],
            [c * g + v for g, v in zip(gq1, gv)],
            ((q0, w, vv0, vq0), (q1, w, vv1, vq1)))


def _trapezoidal_d1d2(h: float, nodes: tuple) -> list:
    """d1d2 of the trapezoidal rule, as a nested list:
    0.5 (vq0^T - vq1) - (vv0 + vv1) / (2h)."""
    (_, _, vv0, vq0), (_, _, vv1, vq1) = nodes
    vv0, vq0, vv1, vq1 = vv0.tolist(), vq0.tolist(), vv1.tolist(), vq1.tolist()
    t, idx = 2.0 * h, range(len(vv0))
    return [[0.5 * (vq0[j][i] - vq1[i][j]) - (vv0[i][j] + vv1[i][j]) / t for j in idx]
            for i in idx]


def _trapezoidal_halves(h: float, nodes: tuple) -> tuple[list, list]:
    """The node terms' parts of the conformal trapezoidal d1d2, as nested
    lists: 0.5 vq0^T - vv0 / (2h) and -0.5 vq1 - vv1 / (2h)."""
    (_, _, vv0, vq0), (_, _, vv1, vq1) = nodes
    vv0, vq0, vv1, vq1 = vv0.tolist(), vq0.tolist(), vv1.tolist(), vq1.tolist()
    t, idx = 2.0 * h, range(len(vv0))
    return ([[0.5 * vq0[j][i] - vv0[i][j] / t for j in idx] for i in idx],
            [[-0.5 * vq1[i][j] - vv1[i][j] / t for j in idx] for i in idx])


def _trapezoidal_node(qq, h: float, k: int, nodes: tuple) -> np.ndarray:
    """Second partial of the node term (h/2) L(q_k, w) in its own point q_k:
    (h/2) hess_qq -+ 0.5 (vq + vq^T) + vv / (2h), minus for k = 0."""
    q, w, vv, vq = nodes[k]
    sym = 0.5 * (vq + vq.T)
    return 0.5 * h * np.array(qq(q, w)) + (sym if k else -sym) + vv / (2.0 * h)


def _trapezoidal_bases(L: ContinuousLagrangian, h: float):
    """``(d1d2, halves, node, half_vv)`` as functions of the node pair:
    :func:`_trapezoidal_d1d2`, :func:`_trapezoidal_halves`,
    :func:`_trapezoidal_node` (``node(nodes, k)``) and node k's hess_vv / (2h)
    (``half_vv(nodes, k)``).  d1d1 (k = 0) or d2d2 (k = 1) of the plain rule
    is ``node(nodes, k) + half_vv(nodes, 1 - k)``: the other node's term
    depends on q_k through w only.  Under ``L.constant_hessians`` all
    four are constants of the rule, computed here once and shared, so
    callers must not change what they return."""
    qq, const = _hessians_of(L)
    if const is None:
        return (lambda nodes: _trapezoidal_d1d2(h, nodes),
                lambda nodes: _trapezoidal_halves(h, nodes),
                lambda nodes, k: _trapezoidal_node(qq, h, k, nodes),
                lambda nodes, k: nodes[k][2] / (2.0 * h))
    nodes = (const, const)
    d1d2, halves = _trapezoidal_d1d2(h, nodes), _trapezoidal_halves(h, nodes)
    node = (_trapezoidal_node(qq, h, 0, nodes), _trapezoidal_node(qq, h, 1, nodes))
    half_vv = const[2] / (2.0 * h)
    return (lambda nodes: d1d2), (lambda nodes: halves), \
        (lambda nodes, k: node[k]), (lambda nodes, k: half_vv)


def _check_step(h: float) -> None:
    """``ValueError`` naming h unless 0 < h < inf."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")


def midpoint_rule(L: ContinuousLagrangian, h: float) -> DiscreteLagrangian:
    """Ld(q0, q1) = h L((q0+q1)/2, (q1-q0)/h)."""
    _check_step(h)
    (d1d2, same), pair = _midpoint_bases(L, h), _midpoint_pair(L, h)

    def pair_data(q0, q1):
        val, d1, d2, node = pair(q0, q1)
        return (val, d1, d2, d1d2(node)), node

    return _memoized_pair_rule(L.n, h, pair_data, same)


def trapezoidal_rule(L: ContinuousLagrangian, h: float) -> DiscreteLagrangian:
    """Ld(q0, q1) = (h/2) [L(q0, w) + L(q1, w)] with w = (q1-q0)/h."""
    _check_step(h)
    d1d2, _, node, half_vv = _trapezoidal_bases(L, h)

    def pair_data(q0, q1):
        val, d1, d2, nodes = _trapezoidal_pair(L, h, q0, q1)
        return (val, d1, d2, d1d2(nodes)), nodes

    return _memoized_pair_rule(
        L.n, h, pair_data, lambda nodes, k: node(nodes, k) + half_vv(nodes, 1 - k))


def _first_point_memo(sigma, grad, hess):
    """``at_q0(q0)``: (sigma, grad, hess) at a pair's first point, kept for the
    last q0, which a Newton solve for q1 holds fixed."""
    lookup = _pair_memo(lambda q0, _: (sigma(q0), grad(q0), hess(q0)))
    return lambda q0: lookup(q0, ())


def _constant_lee_midpoint(pair, sigma, base_d1d2, a: list, b: list, flat: bool):
    """``pair_data`` of :func:`conformal_midpoint_rule` on a chart with a
    constant Lee form, for n = 1 and n = 2, on unpacked scalars.

    With c = b val + d2 and qv = val / 4 it returns E val, E (a val + d1),
    E c and the d1d2 entries e (a_i c_j - qv 0.0 + d1_i b_j + base_ij): the
    general form's expressions in its order, so the same bits.  The qv 0.0
    term is sigma's zero Hessian at m, kept for the general form's signed
    zeros and NaNs; ``same_from``'s extra tuple is the general form's.
    """
    if len(a) == 1:
        (a0,), (b0,) = a, b

        def pair_data(q0, q1):
            val, bd1, bd2, node = pair(q0, q1)
            sm, s0, base = sigma(node[0]), sigma(q0), base_d1d2(node)
            if flat and s0 == sm:
                return (val, bd1, bd2, base), (node, None)
            (x0,), (y0,), ((B00,),) = bd1, bd2, base
            E = np.exp(s0 - sm)
            e, z = float(E), 0.25 * val * 0.0
            c0 = b0 * val + y0
            return ((E * val, [e * (a0 * val + x0)], [e * c0],
                     [[e * (a0 * c0 - z + x0 * b0 + B00)]]),
                    (node, (q0, E, a, b, val, bd1, bd2)))

        return pair_data
    (a0, a1), (b0, b1) = a, b

    def pair_data(q0, q1):
        val, bd1, bd2, node = pair(q0, q1)
        sm, s0, base = sigma(node[0]), sigma(q0), base_d1d2(node)
        if flat and s0 == sm:
            return (val, bd1, bd2, base), (node, None)
        (x0, x1), (y0, y1), ((B00, B01), (B10, B11)) = bd1, bd2, base
        E = np.exp(s0 - sm)
        e, z = float(E), 0.25 * val * 0.0
        c0, c1 = b0 * val + y0, b1 * val + y1
        d1d2 = [[e * (a0 * c0 - z + x0 * b0 + B00), e * (a0 * c1 - z + x0 * b1 + B01)],
                [e * (a1 * c0 - z + x1 * b0 + B10), e * (a1 * c1 - z + x1 * b1 + B11)]]
        return ((E * val, [e * (a0 * val + x0), e * (a1 * val + x1)], [e * c0, e * c1],
                 d1d2), (node, (q0, E, a, b, val, bd1, bd2)))

    return pair_data


def conformal_midpoint_rule(L: ContinuousLagrangian, atlas: ConformalAtlas,
                            chart: int, h: float) -> DiscreteLagrangian:
    """Midpoint rule of the chart-local Lagrangian, expressed globally.

    Ld(q0, q1) = exp(sigma(q0) - sigma(m)) h L(m, w) with m the pair midpoint
    and w the divided difference.  All parts at a pair come from one
    evaluation of L, sigma and the Lee form, so ``L``'s jet and the chart's
    sigma callables must be pure functions of their arguments.  For n <= 2 a
    declared constant Lee form phi is read once, here: the Lee terms a =
    phi(q0) - phi(m)/2 and b = -phi(m)/2 are then constants of the rule,
    sigma's Hessian is zero, and a pair evaluates sigma at q0 and m alone,
    through the chart's float kernel, on unpacked scalars
    (:func:`_constant_lee_midpoint`).  Any other rule reads sigma, the Lee
    form and its Hessian at q0 through :func:`_first_point_memo` and at m
    through ``Chart._floats``, which hands out a constant Lee form and its
    zero Hessian as they were declared.
    """
    _check_step(h)
    ch, (base_d1d2, base_same) = atlas.chart(chart), _midpoint_bases(L, h)
    pair, (sigma, grad, hess) = _midpoint_pair(L, h), ch._floats

    def same_from(extra, k):
        # d/dq_k of E (c val + bd), with c = a, bd = d1 (k = 0) or c = b, bd = d2;
        # dc/dq_k is sigma's Hessian at q0 (k = 0 only) less a quarter of it at m
        node, conformal = extra
        if conformal is None:
            return base_same(node, k)
        q0, E, a, b, val, bd1, bd2 = conformal
        c, bd = (np.array(b), np.array(bd2)) if k else (np.array(a), np.array(bd1))
        dc = -0.25 * ch.hess(node[0])
        if not k:
            dc = dc + ch.hess(q0)
        return E * (np.outer(c, c * val + bd) + np.outer(bd, c) + val * dc
                    + base_same(node, k))

    lee = ch._lee
    if lee is not None and L.n <= 2:
        a = [g - 0.5 * gm for g, gm in zip(lee, lee)]
        b = [-0.5 * gm for gm in lee]
        flat = not (any(a) or any(b))
        return _memoized_pair_rule(
            L.n, h, _constant_lee_midpoint(pair, sigma, base_d1d2, a, b, flat), same_from)
    at_q0 = _first_point_memo(sigma, grad, hess)

    def lee_terms(q0, mid, sm):
        # (s0, a, b, sigma's Hessian at m), or None where Ld is the plain rule
        (s0, grad0, hess0), grad_mid, hess_mid = at_q0(q0), grad(mid), hess(mid)
        a = [g - 0.5 * gm for g, gm in zip(grad0, grad_mid)]
        b = [-0.5 * gm for gm in grad_mid]
        if s0 == sm and not (any(a) or any(b) or any(map(any, hess0))
                             or any(map(any, hess_mid))):
            return None
        return s0, a, b, hess_mid

    def pair_data(q0, q1):
        val, bd1, bd2, node = pair(q0, q1)
        sm = sigma(node[0])
        terms, base = lee_terms(q0, node[0], sm), base_d1d2(node)
        if terms is None:
            return (val, bd1, bd2, base), (node, None)
        s0, a, b, hess_mid = terms
        E = np.exp(s0 - sm)
        e, qv, idx = float(E), 0.25 * val, range(len(a))
        c2 = [x * val + y for x, y in zip(b, bd2)]
        # E (a (x) (b val + d2) - 0.25 val Hsigma(m)^T + d1 (x) b + base d1d2)
        d1d2 = [[e * (a[i] * c2[j] - qv * hess_mid[j][i] + bd1[i] * b[j] + base[i][j])
                 for j in idx] for i in idx]
        return ((E * val, [e * (x * val + y) for x, y in zip(a, bd1)],
                 [e * c for c in c2], d1d2),
                (node, (q0, E, a, b, val, bd1, bd2)))

    return _memoized_pair_rule(L.n, h, pair_data, same_from)


def conformal_trapezoidal_rule(L: ContinuousLagrangian, atlas: ConformalAtlas,
                               chart: int, h: float) -> DiscreteLagrangian:
    """Trapezoidal rule of the chart-local Lagrangian, expressed globally.

    Ld(q0, q1) = (h/2) [L(q0, w) + exp(sigma(q0) - sigma(q1)) L(q1, w)].
    All parts at a pair come from one evaluation of L, sigma and the Lee
    form, so ``L``'s jet and the chart's sigma callables must be pure
    functions of their arguments.  The Lee form and sigma's Hessian come
    from ``Chart._floats``, which hands out a declared constant Lee form and
    its zero Hessian without evaluating anything.
    """
    _check_step(h)
    ch, (base_d1d2, halves, node, half_vv) = atlas.chart(chart), _trapezoidal_bases(L, h)
    sigma, grad, hess = ch._floats
    at_q0 = _first_point_memo(sigma, grad, hess)

    def lee_terms(q0, q1, s1):
        # (s0, phi0, phi1), or None where Ld is the plain rule
        (s0, phi0, hess0), phi1 = at_q0(q0), grad(q1)
        if s0 == s1 and not (any(phi0) or any(phi1) or any(map(any, hess0))
                             or any(map(any, hess(q1)))):
            return None
        return s0, phi0, phi1

    # Ld = T + G U with T = (h/2) L(q0, w), U = (h/2) L(q1, w) and
    # G = exp(sigma(q0) - sigma(q1)); T1, U2 etc. are their partials
    def pair_data(q0, q1):
        s1 = sigma(q1)
        terms = lee_terms(q0, q1, s1)
        if terms is None:
            val, d1, d2, nodes = _trapezoidal_pair(L, h, q0, q1)
            return (val, d1, d2, base_d1d2(nodes)), (nodes, None)
        s0, phi0, phi1 = terms
        w = [(b - a) / h for a, b in zip(q0, q1)]
        L0, gq0, gv0, vv0, vq0 = _jet_parts(L, q0, w)
        L1, gq1, gv1, vv1, vq1 = _jet_parts(L, q1, w)
        nodes = ((q0, w, vv0, vq0), (q1, w, vv1, vq1))
        G = np.exp(s0 - s1)
        g, c, idx = float(G), 0.5 * h, range(len(phi0))
        U = c * L1
        T1 = [c * x - 0.5 * y for x, y in zip(gq0, gv0)]
        U1 = [-0.5 * y for y in gv1]
        U2 = [c * x + 0.5 * y for x, y in zip(gq1, gv1)]
        S = [-f * U + u for f, u in zip(phi1, U2)]
        d1 = [x + g * (f * U + u) for x, f, u in zip(T1, phi0, U1)]
        d2 = [0.5 * y + g * s for y, s in zip(gv0, S)]
        # d1d2 = dT2 + G (phi0 (x) S + dS), with dT2 = 0.5 vq0^T - vv0 / (2h),
        # dS = -U1 (x) phi1 + dU2 and dU2 = -0.5 vq1 - vv1 / (2h)
        dT2, dU2 = halves(nodes)
        d1d2 = [[dT2[i][j] + g * (phi0[i] * S[j] + (-(U1[i] * phi1[j]) + dU2[i][j]))
                 for j in idx] for i in idx]
        return ((c * (L0 + G * L1), d1, d2, d1d2),
                (nodes, (G, phi0, phi1, U, U1, U2)))

    def same_from(extra, k):
        nodes, conformal = extra
        if conformal is None:
            return node(nodes, k) + half_vv(nodes, 1 - k)
        G, phi0, phi1, U, U1, U2 = conformal
        phi0, phi1, U1, U2 = np.array(phi0), np.array(phi1), np.array(U1), np.array(U2)
        if not k:  # d/dq0 of T1 + G (phi0 U + U1)
            return node(nodes, 0) + G * (
                half_vv(nodes, 1) + np.outer(phi0 * U + U1, phi0)
                + U * ch.hess(nodes[0][0]) + np.outer(phi0, U1))
        # d/dq1 of T2 + G (-phi1 U + U2)
        return half_vv(nodes, 0) + G * (
            node(nodes, 1) - np.outer(-phi1 * U + U2, phi1)
            - U * ch.hess(nodes[1][0]) - np.outer(phi1, U2))

    return _memoized_pair_rule(L.n, h, pair_data, same_from)


def exact_discrete_lagrangian(L: ContinuousLagrangian, atlas: ConformalAtlas,
                              chart: int, h: float) -> DiscreteLagrangian:
    """The chart-local action along the boundary-value extremal, expressed globally.

    Ld(q0, q1) = exp(sigma(q0)) int_0^h exp(-sigma(q)) L(q, q') dt along the
    conformal Euler-Lagrange extremal from q0 to q1: one shooting (Newton on
    v0, 64 RK4 steps, endpoint mismatch below 1e-10) finds it, and five-point
    Gauss-Legendre quadrature integrates along it.  Every partial follows from
    the generating-function identities, with p = dL/dv at either end,
    E = exp(sigma(q0) - sigma(q1)) and [[A, B], [C, D]] the central-difference
    Jacobian of the flow map (q0, v0) -> (q1, v1): d1 = phi(q0) Ld - p0,
    d2 = E p1, d1d2 = phi(q0) (x) d2 - Hvv0 B^-1, d1d1 = Hsigma(q0) Ld +
    phi(q0) (x) d1 - Hvq0 + Hvv0 B^-1 A and d2d2 = E (Hvq1 + Hvv1 D B^-1) -
    d2 (x) phi(q1).  Near a conjugate point B = dq1/dv0 nearly vanishes in
    some direction: a B whose smallest singular value is below 1e-6 h (B is
    about h I for a short step), or one that is singular or of condition
    above 1e12, raises ``RegularityError``.
    """
    _check_step(h)
    n, field = L.n, make_lcel_field(L, atlas, chart)
    sigma, grad, hess = atlas.chart(chart)._floats
    nodes, weights = np.polynomial.legendre.leggauss(_EXACT_QUAD_ORDER)

    def flow(x: Vector, t: float, steps: int = _SUBSTEPS) -> Vector:
        return rk4_integrate(field, x, t / steps, steps)[-1]

    def advance(x: Vector, gap: float) -> Vector:
        # at least four RK4 steps, none longer than h / 64
        return flow(x, gap, max(4, int(np.ceil(_SUBSTEPS * gap / h)))) if gap > 1e-15 else x

    def shoot(q0, q1) -> Vector:
        q0, q1 = np.array(q0), np.array(q1)

        def endpoint(v0):
            return flow(np.concatenate([q0, v0]), h)[:n] - q1

        try:
            return newton_solve(endpoint, (q1 - q0) / h, _SHOOTING_CFG,
                                lambda v: fd_jacobian(endpoint, v, 1e-7)).x
        except NewtonError as e:
            raise ShootingError(
                f"boundary-value shooting failed for endpoints {q0} -> {q1}: {e}",
                residual=e.residual, iterations=e.iterations) from e
        except (IntegrationError, DomainError, RegularityError) as e:
            raise ShootingError(
                f"trajectory evaluation failed while shooting {q0} -> {q1}: {e}",
                residual=float("nan"), iterations=0) from e

    def pair_data(q0, q1):
        s0, phi0 = sigma(q0), np.array(grad(q0))
        x0 = x = np.concatenate([q0, shoot(q0, q1)])
        t, total = 0.0, 0.0
        for t_node, w_node in zip(0.5 * h * (nodes + 1.0), weights):
            x, t = advance(x, t_node - t), t_node
            q = x[:n].tolist()
            total += w_node * math.exp(s0 - sigma(q)) * _jet_parts(L, q, x[n:].tolist())[0]
        val, v1 = float(0.5 * h * total), advance(x, h - t)[n:].tolist()
        J = fd_jacobian(lambda y: flow(y, h), x0, 1e-5)
        A, B, D = J[:n, :n], J[:n, n:], J[n:, n:]
        B_inv = _checked_inverse(B, 1e12, "singular dq1/dv0 of the flow (conjugate point)")
        smallest = float(np.linalg.svd(B, compute_uv=False)[-1])
        if smallest < 1e-6 * h:
            raise RegularityError(f"dq1/dv0 of the flow nearly singular (conjugate point): "
                                  f"smallest singular value {smallest:.3e} below 1e-6 h")
        _, _, p0, vv0, vq0 = _jet_parts(L, q0, x0[n:].tolist())
        _, _, p1, vv1, vq1 = _jet_parts(L, q1, v1)
        E = math.exp(s0 - sigma(q1))
        d1, d2, K = phi0 * val - p0, E * np.array(p1), vv0 @ B_inv
        d1d2 = np.outer(phi0, d2) - K
        d1d1 = np.array(hess(q0)) * val + np.outer(phi0, d1) - (vq0 - K @ A)
        d2d2 = E * (vq1 + vv1 @ D @ B_inv) - np.outer(d2, grad(q1))
        return (val, d1.tolist(), d2.tolist(), d1d2.tolist()), (d1d1, d2d2)

    return _memoized_pair_rule(n, h, pair_data, lambda extra, k: extra[k])

