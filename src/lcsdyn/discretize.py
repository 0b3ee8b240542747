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

All four quadrature rules share one memoized evaluation per lattice pair
(``_pair_memo``, which the discrete Hamiltonians use too): value, d1, d2 and
the second partials at a pair call L's jet once per quadrature node (and
evaluate the chart data once); each second partial adds only ``L.hess_qq``
and, for the conformal rules, ``Chart.hess`` where it needs them.  The rule
objects are therefore stateful and not thread-safe, and ``L``'s jet and
``hess_qq`` and the charts' sigma callables must be pure functions of their
arguments.

``exact_discrete_lagrangian`` evaluates the action integral along the solution
of the continuous conformal Euler-Lagrange equations with prescribed endpoints
(single shooting on the initial velocity, then Gauss-Legendre quadrature);
its partials are finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .atlas import ConformalAtlas
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
    """

    n: int
    h: float
    value: Callable[[Vector, Vector], float]
    d1: Callable[[Vector, Vector], Vector]
    d2: Callable[[Vector, Vector], Vector]
    d1d1: Callable[[Vector, Vector], np.ndarray]
    d1d2: Callable[[Vector, Vector], np.ndarray]
    d2d2: Callable[[Vector, Vector], np.ndarray]


def _jet_at(L: ContinuousLagrangian, q: Vector, v: Vector):
    """(L, dL/dq, dL/dv, hess_vv, hess_vq) at (q, v), from one call of ``L.jet``."""
    val, gq, gv, vv, vq = L.jet(q.tolist(), v.tolist())
    return val, np.array(gq), np.array(gv), vv, vq


def _midpoint_partials(L: ContinuousLagrangian, h: float, q0: Vector, q1: Vector):
    """(value, d1, d2, node) of the midpoint rule at a pair, from one jet call
    at the midpoint m and divided difference w; node is (m, w, hess_vv, hess_vq)."""
    m, w = 0.5 * (q0 + q1), (q1 - q0) / h
    val, gq, gv, vv, vq = _jet_at(L, m, w)
    gq = 0.5 * h * gq
    return h * val, gq - gv, gq + gv, (m, w, vv, vq)


def _midpoint_d1d2(L: ContinuousLagrangian, h: float, m: Vector, w: Vector,
                   vv: np.ndarray, vq: np.ndarray) -> np.ndarray:
    """d1d2 of the midpoint rule from the node data of :func:`_midpoint_partials`."""
    return 0.5 * (vq.T - vq) - vv / h + 0.25 * h * np.atleast_2d(L.hess_qq(m, w))


def _midpoint_same(L: ContinuousLagrangian, h: float, k: int, m: Vector, w: Vector,
                   vv: np.ndarray, vq: np.ndarray) -> np.ndarray:
    """d1d1 (k = 0) or d2d2 (k = 1) of the midpoint rule from the node data:
    0.25 h hess_qq -+ 0.5 (vq + vq^T) + vv / h."""
    sym = 0.5 * (vq + vq.T)
    return 0.25 * h * np.atleast_2d(L.hess_qq(m, w)) + (sym if k else -sym) + vv / h


def _trapezoidal_pair(L: ContinuousLagrangian, h: float, q0: Vector, q1: Vector):
    """(value, d1, d2, nodes) of the trapezoidal rule at a pair, from one jet
    call at each endpoint; nodes is ((q0, w, hess_vv, hess_vq) at (q0, w),
    then the same at (q1, w)), with w the divided difference."""
    w = (q1 - q0) / h
    L0, gq0, gv0, vv0, vq0 = _jet_at(L, q0, w)
    L1, gq1, gv1, vv1, vq1 = _jet_at(L, q1, w)
    gv = 0.5 * (gv0 + gv1)
    return (0.5 * h * (L0 + L1), 0.5 * h * gq0 - gv, 0.5 * h * gq1 + gv,
            ((q0, w, vv0, vq0), (q1, w, vv1, vq1)))


def _trapezoidal_d1d2(h: float, nodes: tuple) -> np.ndarray:
    (_, _, vv0, vq0), (_, _, vv1, vq1) = nodes
    return 0.5 * (vq0.T - vq1) - (vv0 + vv1) / (2.0 * h)


def _trapezoidal_node(L: ContinuousLagrangian, h: float, k: int, nodes: tuple) -> np.ndarray:
    """Second partial of the node term (h/2) L(q_k, w) in its own point q_k:
    (h/2) hess_qq -+ 0.5 (vq + vq^T) + vv / (2h), minus for k = 0."""
    q, w, vv, vq = nodes[k]
    sym = 0.5 * (vq + vq.T)
    return 0.5 * h * np.atleast_2d(L.hess_qq(q, w)) + (sym if k else -sym) + vv / (2.0 * h)


def _trapezoidal_same(L: ContinuousLagrangian, h: float, k: int, nodes: tuple) -> np.ndarray:
    """d1d1 (k = 0) or d2d2 (k = 1) of the trapezoidal rule: the node term of
    q_k plus the other node's hess_vv / (2h), which w carries."""
    return _trapezoidal_node(L, h, k, nodes) + nodes[1 - k][2] / (2.0 * h)


def _pair_memo(pair_data):
    """``(value, d1, d2, extra)`` callables that share one evaluation per pair.

    ``pair_data(a, b)`` returns ``(value, d1, d2, extra)``.  The last pair's
    data is kept in a one-entry memo keyed by the pair's bytes, so the four
    callables at one pair run ``pair_data`` once.  ``pair_data`` receives
    copies of the inputs, so ``extra`` may keep them; ``d1`` and ``d2``
    return fresh copies, an input mutated in place between calls misses the
    memo, and a pair whose ``pair_data`` raises is not memoized.  The memo
    makes the callables stateful and not thread-safe, and it requires
    ``pair_data`` to be a pure function of its arguments.  Both the
    quadrature rules and the discrete Hamiltonians of
    ``hamiltonian_discrete`` are built on it.
    """
    key, data = None, None

    def lookup(a, b):
        nonlocal key, data
        a, b = as_vector(a), as_vector(b)
        k = (a.shape, b.shape, a.tobytes(), b.tobytes())
        if k != key:
            data = pair_data(a.copy(), b.copy())
            key = k
        return data

    return (lambda a, b: lookup(a, b)[0], lambda a, b: lookup(a, b)[1].copy(),
            lambda a, b: lookup(a, b)[2].copy(), lambda a, b: lookup(a, b)[3])


def _memoized_pair_rule(n: int, h: float, pair_data, d1d2_from, same_from
                        ) -> DiscreteLagrangian:
    """A quadrature rule on :func:`_pair_memo`.  ``d1d2_from(extra)`` is the
    mixed partial and ``same_from(extra, k)`` d1d1 (k = 0) or d2d2 (k = 1),
    so all parts at one pair evaluate the Lagrangian and the chart data once."""
    value, d1, d2, extra = _pair_memo(pair_data)
    return DiscreteLagrangian(n=n, h=h, value=value, d1=d1, d2=d2,
                              d1d1=lambda q0, q1: same_from(extra(q0, q1), 0),
                              d1d2=lambda q0, q1: d1d2_from(extra(q0, q1)),
                              d2d2=lambda q0, q1: same_from(extra(q0, q1), 1))


def midpoint_rule(L: ContinuousLagrangian, h: float) -> DiscreteLagrangian:
    """Ld(q0, q1) = h L((q0+q1)/2, (q1-q0)/h)."""
    if h <= 0:
        raise ValueError("h must be positive")
    return _memoized_pair_rule(L.n, h, lambda q0, q1: _midpoint_partials(L, h, q0, q1),
                               lambda node: _midpoint_d1d2(L, h, *node),
                               lambda node, k: _midpoint_same(L, h, k, *node))


def trapezoidal_rule(L: ContinuousLagrangian, h: float) -> DiscreteLagrangian:
    """Ld(q0, q1) = (h/2) [L(q0, w) + L(q1, w)] with w = (q1-q0)/h."""
    if h <= 0:
        raise ValueError("h must be positive")
    return _memoized_pair_rule(L.n, h, lambda q0, q1: _trapezoidal_pair(L, h, q0, q1),
                               lambda nodes: _trapezoidal_d1d2(h, nodes),
                               lambda nodes, k: _trapezoidal_same(L, h, k, nodes))


def conformal_midpoint_rule(L: ContinuousLagrangian, atlas: ConformalAtlas,
                            chart: int, h: float) -> DiscreteLagrangian:
    """Midpoint rule of the chart-local Lagrangian, expressed globally.

    Ld(q0, q1) = exp(sigma(q0) - sigma(m)) h L(m, w) with m the pair midpoint
    and w the divided difference.  Value, d1 and d2 at a pair come from one
    evaluation of L, sigma and the Lee form, so ``L``'s jet and the chart's
    sigma callables must be pure functions of their arguments.
    """
    ch = atlas.chart(chart)

    def pair_data(q0, q1):
        val, bd1, bd2, node = _midpoint_partials(L, h, q0, q1)
        mid = node[0]
        s0, sm = float(ch.sigma(q0)), float(ch.sigma(mid))
        grad_mid = ch.grad(mid)
        a = ch.grad(q0) - 0.5 * grad_mid
        b = -0.5 * grad_mid
        if s0 == sm and not (np.any(a) or np.any(b) or np.any(ch.hess(q0))
                             or np.any(ch.hess(mid))):
            return val, bd1, bd2, (node, None)
        E = np.exp(s0 - sm)
        return (E * val, E * (a * val + bd1), E * (b * val + bd2),
                (node, (q0, E, a, b, val, bd1, bd2)))

    def d1d2_from(extra):
        node, conformal = extra
        if conformal is None:
            return _midpoint_d1d2(L, h, *node)
        _, E, a, b, val, bd1, bd2 = conformal
        return E * (np.outer(a, b * val + bd2)
                    - 0.25 * val * ch.hess(node[0]).T
                    + np.outer(bd1, b)
                    + _midpoint_d1d2(L, h, *node))

    def same_from(extra, k):
        # d/dq_k of E (c val + bd), with c = a, bd = d1 (k = 0) or c = b, bd = d2;
        # dc/dq_k is sigma's Hessian at q0 (k = 0 only) less a quarter of it at m
        node, conformal = extra
        if conformal is None:
            return _midpoint_same(L, h, k, *node)
        q0, E, a, b, val, bd1, bd2 = conformal
        c, bd = (b, bd2) if k else (a, bd1)
        dc = -0.25 * ch.hess(node[0])
        if not k:
            dc = dc + ch.hess(q0)
        return E * (np.outer(c, c * val + bd) + np.outer(bd, c) + val * dc
                    + _midpoint_same(L, h, k, *node))

    return _memoized_pair_rule(L.n, h, pair_data, d1d2_from, same_from)


def conformal_trapezoidal_rule(L: ContinuousLagrangian, atlas: ConformalAtlas,
                               chart: int, h: float) -> DiscreteLagrangian:
    """Trapezoidal rule of the chart-local Lagrangian, expressed globally.

    Ld(q0, q1) = (h/2) [L(q0, w) + exp(sigma(q0) - sigma(q1)) L(q1, w)].
    Value, d1 and d2 at a pair come from one evaluation of L, sigma and the
    Lee form, so ``L``'s jet and the chart's sigma callables must be pure
    functions of their arguments.
    """
    ch = atlas.chart(chart)

    def pair_data(q0, q1):
        s0, s1 = float(ch.sigma(q0)), float(ch.sigma(q1))
        phi0, phi1 = ch.grad(q0), ch.grad(q1)
        if s0 == s1 and not (np.any(phi0) or np.any(phi1) or np.any(ch.hess(q0))
                             or np.any(ch.hess(q1))):
            val, d1, d2, nodes = _trapezoidal_pair(L, h, q0, q1)
            return val, d1, d2, (nodes, None)
        w = (q1 - q0) / h
        L0, gq0, gv0, vv0, vq0 = _jet_at(L, q0, w)
        L1, gq1, gv1, vv1, vq1 = _jet_at(L, q1, w)
        G = np.exp(s0 - s1)
        U = 0.5 * h * L1
        T1 = 0.5 * h * gq0 - 0.5 * gv0
        U1 = -0.5 * gv1
        T2 = 0.5 * gv0
        U2 = 0.5 * h * gq1 + 0.5 * gv1
        S = -phi1 * U + U2
        return (0.5 * h * (L0 + G * L1),
                T1 + G * (phi0 * U + U1), T2 + G * S,
                (((q0, w, vv0, vq0), (q1, w, vv1, vq1)), (G, phi0, phi1, U, U1, U2)))

    # Ld = T + G U with T = (h/2) L(q0, w), U = (h/2) L(q1, w) and
    # G = exp(sigma(q0) - sigma(q1)); T1, U2 etc. are their partials
    def d1d2_from(extra):
        nodes, conformal = extra
        if conformal is None:
            return _trapezoidal_d1d2(h, nodes)
        (_, _, vv0, vq0), (_, _, vv1, vq1) = nodes
        G, phi0, phi1, U, U1, U2 = conformal
        S = -phi1 * U + U2
        dT2 = 0.5 * vq0.T - vv0 / (2.0 * h)
        dU2 = -0.5 * vq1 - vv1 / (2.0 * h)
        dS = -np.outer(U1, phi1) + dU2
        return dT2 + G * (np.outer(phi0, S) + dS)

    def same_from(extra, k):
        nodes, conformal = extra
        if conformal is None:
            return _trapezoidal_same(L, h, k, nodes)
        G, phi0, phi1, U, U1, U2 = conformal
        if not k:  # d/dq0 of T1 + G (phi0 U + U1)
            return _trapezoidal_node(L, h, 0, nodes) + G * (
                nodes[1][2] / (2.0 * h) + np.outer(phi0 * U + U1, phi0)
                + U * ch.hess(nodes[0][0]) + np.outer(phi0, U1))
        # d/dq1 of T2 + G (-phi1 U + U2)
        return nodes[0][2] / (2.0 * h) + G * (
            _trapezoidal_node(L, h, 1, nodes) - np.outer(-phi1 * U + U2, phi1)
            - U * ch.hess(nodes[1][0]) - np.outer(phi1, U2))

    return _memoized_pair_rule(L.n, h, pair_data, d1d2_from, same_from)


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
