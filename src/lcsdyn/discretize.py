"""Constructors for two-point (discrete) Lagrangians.

A discrete Lagrangian is a function Ld(q0, q1) approximating the action of one
time step h, together with its first partials d1, d2 and the mixed second
partial d1d2 = d^2 Ld / dq0 dq1.  The stored object is always the *global*
two-point function; consumers multiply by exp(-sigma(q0)) where the per-chart
local version is needed.

``midpoint_rule`` and ``trapezoidal_rule`` carry analytic chain-rule partials
and never consult the conformal factor.  Their conformal companions
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
(``_memoized_pair_rule``): value, d1, d2 and d1d2 at a pair call L's jet
once per quadrature node (and evaluate the chart data once).  The rule
objects are therefore stateful and not thread-safe, and ``L``'s jet and the
charts' sigma callables must be pure functions of their arguments.

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
    """A two-point generating function with first and mixed second partials.

    ``d1d2[i, j] = d^2 Ld / dq0_i dq1_j``; the dynamics are regular where this
    matrix is invertible.
    """

    n: int
    h: float
    value: Callable[[Vector, Vector], float]
    d1: Callable[[Vector, Vector], Vector]
    d2: Callable[[Vector, Vector], Vector]
    d1d2: Callable[[Vector, Vector], np.ndarray]


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
    out = 0.5 * (vq.T - vq) - vv / h
    if L.hess_qq is not None:
        return out + 0.25 * h * np.atleast_2d(L.hess_qq(m, w))
    return out + 0.25 * h * fd_jacobian(lambda x: L.grad_q(x, w), m, 1e-6)


def _trapezoidal_pair(L: ContinuousLagrangian, h: float, q0: Vector, q1: Vector):
    """(value, d1, d2, hess) of the trapezoidal rule at a pair, from one jet call
    at each endpoint; hess is (hess_vv, hess_vq) at (q0, w) then at (q1, w),
    with w the divided difference."""
    w = (q1 - q0) / h
    L0, gq0, gv0, vv0, vq0 = _jet_at(L, q0, w)
    L1, gq1, gv1, vv1, vq1 = _jet_at(L, q1, w)
    gv = 0.5 * (gv0 + gv1)
    return (0.5 * h * (L0 + L1), 0.5 * h * gq0 - gv, 0.5 * h * gq1 + gv,
            (vv0, vq0, vv1, vq1))


def _trapezoidal_d1d2(h: float, hess: tuple) -> np.ndarray:
    vv0, vq0, vv1, vq1 = hess
    return 0.5 * (vq0.T - vq1) - (vv0 + vv1) / (2.0 * h)


def _memoized_pair_rule(n: int, h: float, pair_data, d1d2_from) -> DiscreteLagrangian:
    """A two-point function whose callables share one evaluation per lattice pair.

    All four quadrature rules are built on it.  ``pair_data(q0, q1)`` returns
    ``(value, d1, d2, extra)`` and ``d1d2_from(extra)`` the mixed partial.
    The last pair's data is kept in a one-entry memo keyed by the pair's
    bytes, so value, d1, d2 and d1d2 at one pair evaluate the Lagrangian and
    the chart data once.  Returned arrays are fresh copies, and an input
    mutated in place between calls misses the memo.  The memo belongs to the
    rule object, which is therefore stateful and not thread-safe, and it
    requires the Lagrangian's jet and the chart's callables to be pure
    functions of their arguments.
    """
    key, data = None, None

    def lookup(q0, q1):
        nonlocal key, data
        q0, q1 = as_vector(q0), as_vector(q1)
        k = (q0.shape, q1.shape, q0.tobytes(), q1.tobytes())
        if k != key:
            data = pair_data(q0, q1)
            key = k
        return data

    def value(q0, q1):
        return lookup(q0, q1)[0]

    def d1(q0, q1):
        return lookup(q0, q1)[1].copy()

    def d2(q0, q1):
        return lookup(q0, q1)[2].copy()

    def d1d2(q0, q1):
        return d1d2_from(lookup(q0, q1)[3])

    return DiscreteLagrangian(n=n, h=h, value=value, d1=d1, d2=d2, d1d2=d1d2)


def midpoint_rule(L: ContinuousLagrangian, h: float) -> DiscreteLagrangian:
    """Ld(q0, q1) = h L((q0+q1)/2, (q1-q0)/h)."""
    if h <= 0:
        raise ValueError("h must be positive")
    return _memoized_pair_rule(L.n, h, lambda q0, q1: _midpoint_partials(L, h, q0, q1),
                               lambda node: _midpoint_d1d2(L, h, *node))


def trapezoidal_rule(L: ContinuousLagrangian, h: float) -> DiscreteLagrangian:
    """Ld(q0, q1) = (h/2) [L(q0, w) + L(q1, w)] with w = (q1-q0)/h."""
    if h <= 0:
        raise ValueError("h must be positive")
    return _memoized_pair_rule(L.n, h, lambda q0, q1: _trapezoidal_pair(L, h, q0, q1),
                               lambda hess: _trapezoidal_d1d2(h, hess))


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
        if s0 == sm and not np.any(a) and not np.any(b):
            return val, bd1, bd2, (node, None)
        E = np.exp(s0 - sm)
        return (E * val, E * (a * val + bd1), E * (b * val + bd2),
                (node, (E, a, b, val, bd1, bd2)))

    def d1d2_from(extra):
        node, conformal = extra
        if conformal is None:
            return _midpoint_d1d2(L, h, *node)
        E, a, b, val, bd1, bd2 = conformal
        return E * (np.outer(a, b * val + bd2)
                    - 0.25 * val * ch.hess(node[0]).T
                    + np.outer(bd1, b)
                    + _midpoint_d1d2(L, h, *node))

    return _memoized_pair_rule(L.n, h, pair_data, d1d2_from)


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
        if s0 == s1 and not np.any(phi0) and not np.any(phi1):
            val, d1, d2, hess = _trapezoidal_pair(L, h, q0, q1)
            return val, d1, d2, (hess, None)
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
                ((vv0, vq0, vv1, vq1), (G, phi0, phi1, U1, S)))

    def d1d2_from(extra):
        hess, conformal = extra
        if conformal is None:
            return _trapezoidal_d1d2(h, hess)
        vv0, vq0, vv1, vq1 = hess
        G, phi0, phi1, U1, S = conformal
        dT2 = 0.5 * vq0.T - vv0 / (2.0 * h)
        dU2 = -0.5 * vq1 - vv1 / (2.0 * h)
        dS = -np.outer(U1, phi1) + dU2
        return dT2 + G * (np.outer(phi0, S) + dS)

    return _memoized_pair_rule(L.n, h, pair_data, d1d2_from)


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
    # first partials at 1e-4, the mixed second partial at 1e-3 with a tightened
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

    return DiscreteLagrangian(n=n, h=h, value=value, d1=d1, d2=d2, d1d2=d1d2)
