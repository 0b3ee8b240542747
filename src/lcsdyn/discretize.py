"""Constructors for two-point (discrete) Lagrangians.

A discrete Lagrangian is a function Ld(q0, q1) approximating the action of one
time step h, together with its first partials d1, d2 and its three second
partials d1d1 = d^2 Ld / dq0 dq0, d1d2 = d^2 Ld / dq0 dq1 and
d2d2 = d^2 Ld / dq1 dq1.  The stored object is always the *global* two-point
function; consumers multiply by exp(-sigma(q0)) where the per-chart local
version is needed.

``midpoint_rule`` and ``trapezoidal_rule`` carry analytic chain-rule partials
(the second partials read ``L.hess_qq``) and never consult the conformal
factor.  Their conformal companions
``conformal_midpoint_rule`` / ``conformal_trapezoidal_rule`` instead apply the
quadrature rule to the chart-local Lagrangian exp(-sigma) L and re-express the
result globally, e.g.

    Ld(q0, q1) = exp(sigma(q0) - sigma((q0+q1)/2)) h L((q0+q1)/2, (q1-q0)/h).

The distinction matters for accuracy, not algebra: the conformal three-point
recursion weights the action sum with exp(-sigma(q0)), and only a rule whose
local form is a second-order quadrature of the local action keeps the
resulting integrator second order.  When sigma is constant on a chart the
conformal constructors return bitwise the plain rule's values.

Every discrete Lagrangian has a float pair jet, ``Ld.jet(q0, q1)`` on lists of
floats, returning value, d1, d2 and d1d2 at once; the conformal steps, their
Newton iteration and the momentum fill run on it.  The four quadrature rules
compute the jet on Python floats, with one call of L's jet per quadrature node
and one evaluation of the chart data, and keep the last pair's entry in a
one-entry memo keyed on the pair's float tuples (``_pair_memo``, which the
discrete Hamiltonians use too).  Their array parts are views of that entry:
value, d1, d2 and d1d2 convert it, and d1d1 and d2d2 add only ``L.hess_qq``
and, for the conformal rules, ``Chart.hess``.  Each formula is written once.
The rule objects are therefore stateful and not thread-safe, and ``L``'s jet
and ``hess_qq`` and the charts' sigma callables must be pure functions of
their arguments.

``exact_discrete_lagrangian`` evaluates the action integral along the solution
of the continuous conformal Euler-Lagrange equations with prescribed endpoints
(single shooting on the initial velocity, then Gauss-Legendre quadrature);
its partials are finite differences, and its jet is built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .atlas import ConformalAtlas, _chart_floats
from .continuous import ContinuousLagrangian, make_lcel_field, rk4_integrate
from .errors import (DomainError, IntegrationError, NewtonError,
                     RegularityError, ShootingError)
from .numerics import (StepperConfig, as_vector, fd_jacobian, fd_mixed_second,
                       newton_solve)

Vector = np.ndarray
_EXACT_QUAD_ORDER = 5


@dataclass(frozen=True)
class DiscreteLagrangian:
    """A two-point generating function with its first and second partials.

    ``d1d2[i, j] = d^2 Ld / dq0_i dq1_j``; the dynamics are regular where this
    matrix is invertible.  ``d1d1[i, j] = d^2 Ld / dq0_i dq0_j`` and
    ``d2d2[i, j] = d^2 Ld / dq1_i dq1_j`` differentiate the discrete Legendre
    maps in their own point.

    ``jet(q0, q1)``, on two lists of n floats, returns ``(value, d1, d2,
    d1d2)`` at the pair as a float, two lists of n floats and an (n, n)
    nested list, bit for bit the array parts.  The quadrature rules supply
    their own; when it is omitted it is built from ``value``, ``d1``, ``d2``
    and ``d1d2``, each called once per pair on fresh arrays with the last
    pair kept.  A jet may return shared lists, so callers must not change
    what it returns.  ``dataclasses.replace`` keeps the jet; a copy with other
    array parts and ``jet=None`` builds its own.
    """

    n: int
    h: float
    value: Callable[[Vector, Vector], float]
    d1: Callable[[Vector, Vector], Vector]
    d2: Callable[[Vector, Vector], Vector]
    d1d1: Callable[[Vector, Vector], np.ndarray]
    d1d2: Callable[[Vector, Vector], np.ndarray]
    d2d2: Callable[[Vector, Vector], np.ndarray]
    jet: Callable[[list, list], tuple] | None = None

    def __post_init__(self):
        if self.jet is None:
            object.__setattr__(self, "jet", _parts_jet(self))


def _pair_memo(pair_data):
    """``lookup(a, b)``: ``pair_data`` at a pair of float lists, kept for the last pair.

    The one entry is keyed on the pair's float tuples, and ``pair_data``
    receives those tuples, so an entry never sees a later change to the
    caller's lists.  As 0.0 == -0.0, a pair with a zero coordinate is always
    evaluated afresh.  A pair whose ``pair_data`` raises is not kept.  The
    memo makes ``lookup`` stateful and not thread-safe, and it requires
    ``pair_data`` to be a pure function of its arguments.  The quadrature
    rules, the jet of a Lagrangian given by its array parts and the discrete
    Hamiltonians of ``hamiltonian_discrete`` are built on it.
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


def _on_arrays(lookup):
    """``lookup(a, b)`` of float lists as a function of two array-likes."""
    return lambda a, b: lookup(as_vector(a).tolist(), as_vector(b).tolist())


def _parts_jet(Ld: DiscreteLagrangian):
    """The pair jet of a Lagrangian given by its array parts: value, d1, d2
    and d1d2 called once per pair on fresh arrays, the last pair kept."""
    def pair_data(q0, q1):
        a, b = np.array(q0), np.array(q1)
        return (float(Ld.value(a, b)), as_vector(Ld.d1(a, b)).tolist(),
                as_vector(Ld.d2(a, b)).tolist(), np.atleast_2d(Ld.d1d2(a, b)).tolist())

    return _pair_memo(pair_data)


def _memoized_pair_rule(n: int, h: float, pair_data, same_from) -> DiscreteLagrangian:
    """A quadrature rule on :func:`_pair_memo`.

    ``pair_data(q0, q1)`` on float tuples returns ``(jet, extra)`` with
    ``jet`` the pair's ``(value, d1, d2, d1d2)``: the ``jet`` field returns
    it and value, d1, d2 and d1d2 are array views of it.  ``same_from(extra,
    k)`` is d1d1 (k = 0) or d2d2 (k = 1), so all parts at one pair evaluate
    the Lagrangian and the chart data once.
    """
    lookup = _pair_memo(pair_data)
    at = _on_arrays(lookup)
    return DiscreteLagrangian(
        n=n, h=h, jet=lambda q0, q1: lookup(q0, q1)[0],
        value=lambda q0, q1: at(q0, q1)[0][0],
        d1=lambda q0, q1: np.array(at(q0, q1)[0][1]),
        d2=lambda q0, q1: np.array(at(q0, q1)[0][2]),
        d1d2=lambda q0, q1: np.array(at(q0, q1)[0][3]),
        d1d1=lambda q0, q1: same_from(at(q0, q1)[1], 0),
        d2d2=lambda q0, q1: same_from(at(q0, q1)[1], 1))


def _hess_qq(L: ContinuousLagrangian, q, v) -> np.ndarray:
    """``L.hess_qq`` at float sequences, called on fresh arrays, as an (n, n) array."""
    return np.atleast_2d(L.hess_qq(np.array(q), np.array(v)))


def _midpoint_pair(L: ContinuousLagrangian, h: float, q0, q1):
    """(value, d1, d2, node) of the midpoint rule at a pair of float
    sequences, from one jet call at the midpoint m and the divided difference
    w; node is (m, w, hess_vv, hess_vq), from which :func:`_midpoint_d1d2`
    and :func:`_midpoint_same` build the second partials."""
    m = [0.5 * (a + b) for a, b in zip(q0, q1)]
    w = [(b - a) / h for a, b in zip(q0, q1)]
    val, gq, gv, vv, vq = L.jet(m, w)
    c = 0.5 * h
    return (h * val, [c * g - v for g, v in zip(gq, gv)],
            [c * g + v for g, v in zip(gq, gv)], (m, w, vv, vq))


def _midpoint_d1d2(L: ContinuousLagrangian, h: float, m: list, w: list,
                   vv: np.ndarray, vq: np.ndarray) -> list:
    """d1d2 of the midpoint rule from its node data, as a nested list:
    0.5 (vq^T - vq) - vv / h + 0.25 h hess_qq."""
    vv, vq, qq, c = vv.tolist(), vq.tolist(), _hess_qq(L, m, w).tolist(), 0.25 * h
    idx = range(len(m))
    return [[0.5 * (vq[j][i] - vq[i][j]) - vv[i][j] / h + c * qq[i][j] for j in idx]
            for i in idx]


def _midpoint_same(L: ContinuousLagrangian, h: float, k: int, m: list, w: list,
                   vv: np.ndarray, vq: np.ndarray) -> np.ndarray:
    """d1d1 (k = 0) or d2d2 (k = 1) of the midpoint rule from the node data:
    0.25 h hess_qq -+ 0.5 (vq + vq^T) + vv / h."""
    sym = 0.5 * (vq + vq.T)
    return 0.25 * h * _hess_qq(L, m, w) + (sym if k else -sym) + vv / h


def _trapezoidal_pair(L: ContinuousLagrangian, h: float, q0, q1):
    """(value, d1, d2, nodes) of the trapezoidal rule at a pair of float
    sequences, from one jet call at each endpoint; nodes is ((q0, w,
    hess_vv, hess_vq) at (q0, w), then the same at (q1, w)), with w the
    divided difference."""
    w = [(b - a) / h for a, b in zip(q0, q1)]
    L0, gq0, gv0, vv0, vq0 = L.jet(list(q0), w)
    L1, gq1, gv1, vv1, vq1 = L.jet(list(q1), w)
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


def _trapezoidal_node(L: ContinuousLagrangian, h: float, k: int, nodes: tuple) -> np.ndarray:
    """Second partial of the node term (h/2) L(q_k, w) in its own point q_k:
    (h/2) hess_qq -+ 0.5 (vq + vq^T) + vv / (2h), minus for k = 0."""
    q, w, vv, vq = nodes[k]
    sym = 0.5 * (vq + vq.T)
    return 0.5 * h * _hess_qq(L, q, w) + (sym if k else -sym) + vv / (2.0 * h)


def _trapezoidal_same(L: ContinuousLagrangian, h: float, k: int, nodes: tuple) -> np.ndarray:
    """d1d1 (k = 0) or d2d2 (k = 1) of the trapezoidal rule: the node term of
    q_k plus the other node's hess_vv / (2h), which w carries."""
    return _trapezoidal_node(L, h, k, nodes) + nodes[1 - k][2] / (2.0 * h)


def midpoint_rule(L: ContinuousLagrangian, h: float) -> DiscreteLagrangian:
    """Ld(q0, q1) = h L((q0+q1)/2, (q1-q0)/h)."""
    if h <= 0:
        raise ValueError("h must be positive")

    def pair_data(q0, q1):
        val, d1, d2, node = _midpoint_pair(L, h, q0, q1)
        return (val, d1, d2, _midpoint_d1d2(L, h, *node)), node

    return _memoized_pair_rule(L.n, h, pair_data,
                               lambda node, k: _midpoint_same(L, h, k, *node))


def trapezoidal_rule(L: ContinuousLagrangian, h: float) -> DiscreteLagrangian:
    """Ld(q0, q1) = (h/2) [L(q0, w) + L(q1, w)] with w = (q1-q0)/h."""
    if h <= 0:
        raise ValueError("h must be positive")

    def pair_data(q0, q1):
        val, d1, d2, nodes = _trapezoidal_pair(L, h, q0, q1)
        return (val, d1, d2, _trapezoidal_d1d2(h, nodes)), nodes

    return _memoized_pair_rule(L.n, h, pair_data,
                               lambda nodes, k: _trapezoidal_same(L, h, k, nodes))


def _first_point_memo(sigma, grad, hess):
    """``at_q0(q0)``: (sigma, grad, hess) at a pair's first point, kept for the
    last q0, which a Newton solve for q1 holds fixed."""
    lookup = _pair_memo(lambda q0, _: (sigma(q0), grad(q0), hess(q0)))
    return lambda q0: lookup(q0, ())


def conformal_midpoint_rule(L: ContinuousLagrangian, atlas: ConformalAtlas,
                            chart: int, h: float) -> DiscreteLagrangian:
    """Midpoint rule of the chart-local Lagrangian, expressed globally.

    Ld(q0, q1) = exp(sigma(q0) - sigma(m)) h L(m, w) with m the pair midpoint
    and w the divided difference.  All parts at a pair come from one
    evaluation of L, sigma and the Lee form, so ``L``'s jet and the chart's
    sigma callables must be pure functions of their arguments.
    """
    ch = atlas.chart(chart)
    sigma, grad, hess = _chart_floats(ch)
    at_q0 = _first_point_memo(sigma, grad, hess)

    def pair_data(q0, q1):
        val, bd1, bd2, node = _midpoint_pair(L, h, q0, q1)
        mid = node[0]
        (s0, grad0, hess0), sm = at_q0(q0), sigma(mid)
        grad_mid, hess_mid = grad(mid), hess(mid)
        a = [g - 0.5 * gm for g, gm in zip(grad0, grad_mid)]
        b = [-0.5 * gm for gm in grad_mid]
        base = _midpoint_d1d2(L, h, *node)
        if s0 == sm and not (any(a) or any(b) or any(map(any, hess0))
                             or any(map(any, hess_mid))):
            return (val, bd1, bd2, base), (node, None)
        E = np.exp(s0 - sm)
        e, qv, idx = float(E), 0.25 * val, range(len(a))
        c2 = [x * val + y for x, y in zip(b, bd2)]
        # E (a (x) (b val + d2) - 0.25 val Hsigma(m)^T + d1 (x) b + base d1d2)
        d1d2 = [[e * (a[i] * c2[j] - qv * hess_mid[j][i] + bd1[i] * b[j] + base[i][j])
                 for j in idx] for i in idx]
        return ((E * val, [e * (x * val + y) for x, y in zip(a, bd1)],
                 [e * c for c in c2], d1d2),
                (node, (q0, E, a, b, val, bd1, bd2)))

    def same_from(extra, k):
        # d/dq_k of E (c val + bd), with c = a, bd = d1 (k = 0) or c = b, bd = d2;
        # dc/dq_k is sigma's Hessian at q0 (k = 0 only) less a quarter of it at m
        node, conformal = extra
        if conformal is None:
            return _midpoint_same(L, h, k, *node)
        q0, E, a, b, val, bd1, bd2 = conformal
        c, bd = (np.array(b), np.array(bd2)) if k else (np.array(a), np.array(bd1))
        dc = -0.25 * ch.hess(node[0])
        if not k:
            dc = dc + ch.hess(q0)
        return E * (np.outer(c, c * val + bd) + np.outer(bd, c) + val * dc
                    + _midpoint_same(L, h, k, *node))

    return _memoized_pair_rule(L.n, h, pair_data, same_from)


def conformal_trapezoidal_rule(L: ContinuousLagrangian, atlas: ConformalAtlas,
                               chart: int, h: float) -> DiscreteLagrangian:
    """Trapezoidal rule of the chart-local Lagrangian, expressed globally.

    Ld(q0, q1) = (h/2) [L(q0, w) + exp(sigma(q0) - sigma(q1)) L(q1, w)].
    All parts at a pair come from one evaluation of L, sigma and the Lee
    form, so ``L``'s jet and the chart's sigma callables must be pure
    functions of their arguments.
    """
    ch = atlas.chart(chart)
    sigma, grad, hess = _chart_floats(ch)
    at_q0 = _first_point_memo(sigma, grad, hess)

    # Ld = T + G U with T = (h/2) L(q0, w), U = (h/2) L(q1, w) and
    # G = exp(sigma(q0) - sigma(q1)); T1, U2 etc. are their partials
    def pair_data(q0, q1):
        (s0, phi0, hess0), s1, phi1 = at_q0(q0), sigma(q1), grad(q1)
        if s0 == s1 and not (any(phi0) or any(phi1) or any(map(any, hess0))
                             or any(map(any, hess(q1)))):
            val, d1, d2, nodes = _trapezoidal_pair(L, h, q0, q1)
            return (val, d1, d2, _trapezoidal_d1d2(h, nodes)), (nodes, None)
        w = [(b - a) / h for a, b in zip(q0, q1)]
        L0, gq0, gv0, vv0, vq0 = L.jet(list(q0), w)
        L1, gq1, gv1, vv1, vq1 = L.jet(list(q1), w)
        G = np.exp(s0 - s1)
        g, c, t, idx = float(G), 0.5 * h, 2.0 * h, range(len(phi0))
        U = c * L1
        T1 = [c * x - 0.5 * y for x, y in zip(gq0, gv0)]
        U1 = [-0.5 * y for y in gv1]
        U2 = [c * x + 0.5 * y for x, y in zip(gq1, gv1)]
        S = [-f * U + u for f, u in zip(phi1, U2)]
        d1 = [x + g * (f * U + u) for x, f, u in zip(T1, phi0, U1)]
        d2 = [0.5 * y + g * s for y, s in zip(gv0, S)]
        # d1d2 = dT2 + G (phi0 (x) S + dS), with dT2 = 0.5 vq0^T - vv0 / (2h),
        # dS = -U1 (x) phi1 + dU2 and dU2 = -0.5 vq1 - vv1 / (2h)
        vv0l, vq0l, vv1l, vq1l = vv0.tolist(), vq0.tolist(), vv1.tolist(), vq1.tolist()
        d1d2 = [[0.5 * vq0l[j][i] - vv0l[i][j] / t
                 + g * (phi0[i] * S[j] + (-(U1[i] * phi1[j])
                                          + (-0.5 * vq1l[i][j] - vv1l[i][j] / t)))
                 for j in idx] for i in idx]
        return ((c * (L0 + G * L1), d1, d2, d1d2),
                (((q0, w, vv0, vq0), (q1, w, vv1, vq1)), (G, phi0, phi1, U, U1, U2)))

    def same_from(extra, k):
        nodes, conformal = extra
        if conformal is None:
            return _trapezoidal_same(L, h, k, nodes)
        G, phi0, phi1, U, U1, U2 = conformal
        phi0, phi1, U1, U2 = np.array(phi0), np.array(phi1), np.array(U1), np.array(U2)
        if not k:  # d/dq0 of T1 + G (phi0 U + U1)
            return _trapezoidal_node(L, h, 0, nodes) + G * (
                nodes[1][2] / (2.0 * h) + np.outer(phi0 * U + U1, phi0)
                + U * ch.hess(nodes[0][0]) + np.outer(phi0, U1))
        # d/dq1 of T2 + G (-phi1 U + U2)
        return nodes[0][2] / (2.0 * h) + G * (
            _trapezoidal_node(L, h, 1, nodes) - np.outer(-phi1 * U + U2, phi1)
            - U * ch.hess(nodes[1][0]) - np.outer(phi1, U2))

    return _memoized_pair_rule(L.n, h, pair_data, same_from)


def exact_discrete_lagrangian(L: ContinuousLagrangian, atlas: ConformalAtlas,
                              chart: int, h: float, bvp_tol: float = 1e-10, substeps: int = 64
                              ) -> DiscreteLagrangian:
    """The action integral along the boundary-value extremal, as a two-point function.

    For each (q0, q1) a single-shooting Newton iteration finds the initial
    velocity whose conformal Euler-Lagrange trajectory reaches q1 at time h
    (endpoint mismatch below ``bvp_tol``), and the Lagrangian is integrated
    along it with five-point Gauss-Legendre quadrature.  Partials are
    central finite differences of the value; they are evaluated with a
    tightened shooting tolerance because differencing amplifies solver noise.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    n = L.n
    field = make_lcel_field(L, atlas, chart)
    nodes, weights = np.polynomial.legendre.leggauss(_EXACT_QUAD_ORDER)

    def _shoot(q0: Vector, q1: Vector, tol: float) -> np.ndarray:
        def endpoint(v0):
            states = rk4_integrate(field, np.concatenate([q0, v0]), h / substeps,
                                   substeps)
            return states[-1][:n] - q1

        try:
            res = newton_solve(endpoint, (q1 - q0) / h,
                               StepperConfig(tol=max(tol, 1e-14), max_iter=30,
                                             fd_epsilon=1e-7))
        except NewtonError as e:
            raise ShootingError(
                f"boundary-value shooting failed for endpoints {q0} -> {q1}: {e}",
                residual=e.residual, iterations=e.iterations) from e
        except (IntegrationError, DomainError, RegularityError) as e:
            raise ShootingError(
                f"trajectory evaluation failed while shooting {q0} -> {q1}: {e}",
                residual=float("nan"), iterations=0) from e
        return res.x

    def _value_at(q0: Vector, q1: Vector, tol: float) -> float:
        v0 = _shoot(q0, q1, tol)
        x = np.concatenate([q0, v0])
        t_prev = 0.0
        total = 0.0
        for t_node, w_node in zip(0.5 * h * (nodes + 1.0), weights):
            gap = t_node - t_prev
            if gap > 1e-15:
                m = max(4, int(np.ceil(substeps * gap / h)))
                x = rk4_integrate(field, x, gap / m, m)[-1]
            total += w_node * float(L.value(x[:n], x[n:]))
            t_prev = t_node
        return 0.5 * h * total

    def value(q0, q1):
        return _value_at(as_vector(q0), as_vector(q1), bvp_tol)

    # Finite-difference steps below are tuned to the value's solver noise floor:
    # first partials at 1e-4, second partials at 1e-3 with a tightened
    # shooting tolerance.
    eps1, eps2, tight = 1e-4, 1e-3, 1e-12

    def d1(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        return fd_jacobian(lambda x: _value_at(x, q1, tight), q0, eps1)

    def d2(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        return fd_jacobian(lambda x: _value_at(q0, x, tight), q1, eps1)

    def d1d2(q0, q1):
        return fd_mixed_second(lambda x, y: _value_at(x, y, tight), as_vector(q0),
                               as_vector(q1), eps2)

    # The four-point difference of f(x + y - q) at (q, q) in steps eps2 / 2 is
    # the three-point second difference of f at q in steps eps2.
    def d1d1(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        return fd_mixed_second(lambda x, y: _value_at(x + y - q0, q1, tight), q0, q0,
                               0.5 * eps2)

    def d2d2(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        return fd_mixed_second(lambda x, y: _value_at(q0, x + y - q1, tight), q1, q1,
                               0.5 * eps2)

    return DiscreteLagrangian(n=n, h=h, value=value, d1=d1, d2=d2, d1d1=d1d1,
                              d1d2=d1d2, d2d2=d2d2)
