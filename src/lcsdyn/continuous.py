"""Continuous reference dynamics on a conformal atlas.

Two equivalent formulations are provided.  On the Hamiltonian side, with
phi = d sigma and A_ij = phi_i p_j - phi_j p_i,

    dq^i/dt = dH/dp_i,
    dp_i/dt = -dH/dq^i - A_ij dH/dp_j + H phi_i.

On the Lagrangian side the conformal Euler-Lagrange equations read

    d/dt (dL/dv^i) - dL/dq^i = (phi . v) dL/dv^i - phi_i L,

solved here for the acceleration.  Both collapse to the canonical equations when
sigma is constant.  A fixed-step classical RK4 integrator serves as reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .atlas import ConformalAtlas
from .errors import IntegrationError, RegularityError
from .numerics import (StepperConfig, as_vector, fd_jacobian, newton_solve,
                       solve_linear)

Vector = np.ndarray


@dataclass(frozen=True)
class ContinuousLagrangian:
    """A Lagrangian L(q, v) with analytic first and second derivatives.

    ``hess_vq[i, j] = d^2 L / dv_i dq_j`` and ``hess_vv`` must be invertible
    wherever the dynamics are evaluated.  ``hess_qq`` is optional; it is only
    needed to assemble analytic mixed partials of quadrature-rule discrete
    Lagrangians.
    """

    n: int
    value: Callable[[Vector, Vector], float]
    grad_q: Callable[[Vector, Vector], Vector]
    grad_v: Callable[[Vector, Vector], Vector]
    hess_vv: Callable[[Vector, Vector], np.ndarray]
    hess_vq: Callable[[Vector, Vector], np.ndarray]
    hess_qq: Callable[[Vector, Vector], np.ndarray] | None = None


@dataclass(frozen=True)
class ContinuousHamiltonian:
    """A Hamiltonian H(q, p) with analytic gradients."""

    n: int
    value: Callable[[Vector, Vector], float]
    grad_q: Callable[[Vector, Vector], Vector]
    grad_p: Callable[[Vector, Vector], Vector]


@dataclass(frozen=True)
class PhaseState:
    """A point of phase space anchored to a chart."""

    chart: int
    q: np.ndarray
    p: np.ndarray
    t: float = 0.0


def lcs_hamiltonian_field(H: ContinuousHamiltonian, atlas: ConformalAtlas,
                          chart: int, q: Vector, p: Vector
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (dq/dt, dp/dt) of the conformal Hamilton equations."""
    q = as_vector(q)
    x = make_lcshe_field(H, atlas, chart)(np.concatenate([q, as_vector(p)]))
    return x[:q.size], x[q.size:]


def lcel_acceleration(L: ContinuousLagrangian, atlas: ConformalAtlas,
                      chart: int, q: Vector, v: Vector) -> np.ndarray:
    """Acceleration solving the conformal Euler-Lagrange equations.

    Solves  hess_vv a = grad_q - hess_vq v + (phi.v) grad_v - L phi  through
    :func:`make_lcel_field`: by one division when n = 1, raising
    :class:`RegularityError` only for a zero Hessian, and by
    :func:`solve_linear` (its screened inverse, which raises when the condition
    number exceeds 1e12) when n >= 2.
    """
    q = as_vector(q)
    x = make_lcel_field(L, atlas, chart)(np.concatenate([q, as_vector(v)]))
    return x[q.size:]


def energy(L: ContinuousLagrangian, q: Vector, v: Vector) -> float:
    """Energy v . dL/dv - L.

    The conformal factor plays no role here: rescaling L rescales both terms
    identically, so this is already the globally consistent energy.
    """
    q, v = as_vector(q), as_vector(v)
    return float(v @ np.atleast_1d(L.grad_v(q, v))) - float(L.value(q, v))


def fiber_legendre(L: ContinuousLagrangian, q: Vector, v: Vector) -> np.ndarray:
    """Momentum p = dL/dv of the fiber Legendre map."""
    return as_vector(L.grad_v(as_vector(q), as_vector(v)))


def fiber_legendre_inv(L: ContinuousLagrangian, q: Vector, p: Vector,
                       cfg: StepperConfig | None = None) -> np.ndarray:
    """Velocity v solving dL/dv (q, v) = p, by Newton on the fiber."""
    q, p = as_vector(q), as_vector(p)
    cfg = cfg or StepperConfig(tol=1e-12)
    res = newton_solve(lambda v: fiber_legendre(L, q, v) - p, p, cfg,
                       jacobian=lambda v: L.hess_vv(q, v))
    return res.x


def rk4_integrate(field: Callable[[Vector], Vector], x0: Vector, h: float,
                  steps: int) -> np.ndarray:
    """Classical fixed-step 4th-order Runge-Kutta; returns (steps+1, d) states.

    ``field`` is called exactly four times per step, each time on a fresh
    float64 array of shape ``(d,)``, and must return an array-like of ``d``
    real components.  The stages are combined in Python floats, component by
    component, in the order ``x + (h/2) k`` and
    ``x + (h/6) (((k1 + 2 k2) + 2 k3) + k4)``.

    Raises ``ValueError`` when ``h`` is not a positive finite number, when
    ``steps < 1`` and when a field output does not have ``d`` components, and
    :class:`IntegrationError` at the first step whose state is not finite,
    with the states before it as ``partial``.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x0 = as_vector(x0)
    d = x0.size
    shape = (d,)
    out = np.empty((steps + 1, d))
    out[0] = x0
    x = out[0].tolist()
    half, sixth = 0.5 * h, h / 6.0

    def stage(y: list) -> list:
        k = np.asarray(field(np.array(y)), dtype=float)
        if k.shape != shape:
            if k.size != d:
                raise ValueError(f"field returned {k.size} components for a state "
                                 f"of length {d}")
            k = k.reshape(shape)
        return k.tolist()

    for k in range(steps):
        k1 = stage(x)
        k2 = stage([a + half * b for a, b in zip(x, k1)])
        k3 = stage([a + half * b for a, b in zip(x, k2)])
        k4 = stage([a + h * b for a, b in zip(x, k3)])
        x = [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        if not all(map(math.isfinite, x)):
            raise IntegrationError(f"non-finite state at step {k + 1}",
                                   partial=out[:k + 1], index=k + 1)
        out[k + 1] = x
    return out


def divergence_numeric(field: Callable[[Vector], Vector], x: Vector,
                       eps: float) -> float:
    """Central-difference divergence (trace of the differenced Jacobian) of a vector field."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return float(np.trace(fd_jacobian(field, as_vector(x), eps)))


def make_lcshe_field(H: ContinuousHamiltonian, atlas: ConformalAtlas, chart: int
                     ) -> Callable[[Vector], np.ndarray]:
    """Flatten the conformal Hamilton equations to a field on x = (q, p).

    The chart is resolved once, and the bounds check and the assembly of
    ``pdot`` run on Python floats: reference integrations call this closure
    hundreds of thousands of times.  ``H``'s callables get array views of x;
    a ``grad_q`` or Lee form without n components raises ``ValueError``.
    """
    n = H.n
    ch = atlas.chart(chart)
    lo = [float(b) for b in ch.lower]
    hi = [float(b) for b in ch.upper]
    grad = ch.grad

    def field(x: Vector) -> np.ndarray:
        q, p = x[:n], x[n:]
        xs = x.tolist()
        for i in range(n):
            if not lo[i] <= xs[i] <= hi[i]:
                atlas.require_inside(chart, q)
        phi_a = grad(q)
        phi = phi_a.tolist()
        qdot_a = np.asarray(H.grad_p(q, p), dtype=float)
        qdot = qdot_a.tolist()
        gq = np.asarray(H.grad_q(q, p), dtype=float).tolist()
        hval = float(H.value(q, p))
        ps = xs[n:]
        if n == 1:
            # numpy rounds a one-element dot like 0.0 + a*b; longer dots may
            # fuse a multiply-add, so they stay numpy calls.
            s_p = 0.0 + ps[0] * qdot[0]
            s_phi = 0.0 + phi[0] * qdot[0]
        else:
            s_p, s_phi = float(p @ qdot_a), float(phi_a @ qdot_a)
        pdot = [-g - (f * s_p - pi * s_phi) + hval * f
                for g, f, pi in zip(gq, phi, ps, strict=True)]
        return np.array(qdot + pdot)

    return field


def make_lcel_field(L: ContinuousLagrangian, atlas: ConformalAtlas, chart: int
                    ) -> Callable[[Vector], np.ndarray]:
    """Flatten the conformal Euler-Lagrange equations to a field on x = (q, v).

    Like :func:`make_lcshe_field`, the right-hand side is assembled on Python
    floats and a ``grad_q``, ``grad_v`` or Lee form without n components
    raises ``ValueError``.  The acceleration solves ``hess_vv a = rhs`` by one
    division when n = 1 and by :func:`solve_linear` otherwise.
    """
    n = L.n
    ch = atlas.chart(chart)
    lo = [float(b) for b in ch.lower]
    hi = [float(b) for b in ch.upper]
    grad = ch.grad

    def field(x: Vector) -> np.ndarray:
        q, v = x[:n], x[n:]
        xs = x.tolist()
        for i in range(n):
            if not lo[i] <= xs[i] <= hi[i]:
                atlas.require_inside(chart, q)
        vs = xs[n:]
        phi_a = grad(q)
        phi = phi_a.tolist()
        gv = np.asarray(L.grad_v(q, v), dtype=float).tolist()
        gq = np.asarray(L.grad_q(q, v), dtype=float).tolist()
        hvq = L.hess_vq(q, v)
        if n == 1:
            # one-element dot and matmul round like 0.0 + a*b (see make_lcshe_field)
            s = 0.0 + phi[0] * vs[0]
            hv = [0.0 + float(hvq[0, 0]) * vs[0]]
        else:
            s, hv = float(phi_a @ v), (hvq @ v).tolist()
        lval = float(L.value(q, v))
        rhs = [a - b + s * c - lval * f
               for a, b, c, f in zip(gq, hv, gv, phi, strict=True)]
        M = L.hess_vv(q, v)
        if n == 1:
            m = float(M[0, 0])
            if m == 0.0:
                raise RegularityError("singular 1x1 velocity Hessian",
                                      condition=float("inf"))
            acc = [rhs[0] / m]
        else:
            acc = solve_linear(M, rhs).tolist()
        return np.array(vs + acc)

    return field
