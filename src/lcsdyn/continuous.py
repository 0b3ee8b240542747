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
from .errors import DomainError, IntegrationError, RegularityError
from .numerics import (StepperConfig, _checked_inverse, _newton, _solve_2x2,
                       as_vector, fd_jacobian)

Vector = np.ndarray
_FIBER_CFG = StepperConfig(tol=1e-12)


@dataclass(frozen=True)
class ContinuousLagrangian:
    """A Lagrangian L(q, v), defined by one fused evaluation on Python floats.

    ``jet(q, v)``, with q and v lists of n floats, returns
    ``(value, grad_q, grad_v, hess_vv, hess_vq)``: a float, two lists of n
    floats and two (n, n) float arrays, with ``hess_vq[i, j] = d^2 L / dv_i
    dq_j``.  ``hess_vv`` must be invertible wherever the dynamics are
    evaluated.  The continuous fields and the quadrature rules call the jet
    once where they need several parts; each method below calls it once and
    returns one part.  ``hess_qq(q, v)`` returns the (n, n) array
    d^2 L / dq dq; the quadrature rules' second partials read it.
    """

    n: int
    jet: Callable[[list, list], tuple]
    hess_qq: Callable[[Vector, Vector], np.ndarray]

    def _at(self, q: Vector, v: Vector) -> tuple:
        return self.jet(as_vector(q).tolist(), as_vector(v).tolist())

    def value(self, q: Vector, v: Vector) -> float:
        return float(self._at(q, v)[0])

    def grad_q(self, q: Vector, v: Vector) -> np.ndarray:
        return np.array(self._at(q, v)[1])

    def grad_v(self, q: Vector, v: Vector) -> np.ndarray:
        return np.array(self._at(q, v)[2])

    def hess_vv(self, q: Vector, v: Vector) -> np.ndarray:
        return self._at(q, v)[3]

    def hess_vq(self, q: Vector, v: Vector) -> np.ndarray:
        return self._at(q, v)[4]


@dataclass(frozen=True)
class ContinuousHamiltonian:
    """A Hamiltonian H(q, p), defined by one fused evaluation on Python floats.

    ``jet(q, p)`` on lists of n floats returns ``(value, grad_q, grad_p)`` as
    a float and two lists of n floats.  The Hamiltonian field calls it once
    per evaluation; each method below calls it once and returns one part.
    """

    n: int
    jet: Callable[[list, list], tuple]

    def _at(self, q: Vector, p: Vector) -> tuple:
        return self.jet(as_vector(q).tolist(), as_vector(p).tolist())

    def value(self, q: Vector, p: Vector) -> float:
        return float(self._at(q, p)[0])

    def grad_q(self, q: Vector, p: Vector) -> np.ndarray:
        return np.array(self._at(q, p)[1])

    def grad_p(self, q: Vector, p: Vector) -> np.ndarray:
        return np.array(self._at(q, p)[2])


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
    :class:`RegularityError` only for a zero Hessian, and as
    :func:`solve_linear` does (raising when the condition number exceeds
    1e12) when n >= 2.
    """
    q = as_vector(q)
    x = make_lcel_field(L, atlas, chart)(np.concatenate([q, as_vector(v)]))
    return x[q.size:]


def energy(L: ContinuousLagrangian, q: Vector, v: Vector) -> float:
    """Energy v . dL/dv - L.

    The conformal factor plays no role here: rescaling L rescales both terms
    identically, so this is already the globally consistent energy.
    """
    v = as_vector(v)
    val, _, gv = L._at(q, v)[:3]
    return float(v @ np.array(gv)) - float(val)


def fiber_legendre(L: ContinuousLagrangian, q: Vector, v: Vector) -> np.ndarray:
    """Momentum p = dL/dv of the fiber Legendre map."""
    return L.grad_v(q, v)


def fiber_legendre_inv(L: ContinuousLagrangian, q: Vector, p: Vector) -> np.ndarray:
    """Velocity v solving dL/dv (q, v) = p by Newton, one jet call per iterate."""
    q, p = as_vector(q).tolist(), as_vector(p).tolist()

    def system(v: list):
        _, _, gv, hess_vv, _ = L.jet(q, v)
        return [g - b for g, b in zip(gv, p)], hess_vv.tolist

    return np.array(_newton(system, p, _FIBER_CFG)[0])


def rk4_integrate(field: Callable[[Vector], Vector], x0: Vector, h: float,
                  steps: int) -> np.ndarray:
    """Classical fixed-step 4th-order Runge-Kutta; returns (steps+1, d) states.

    ``field`` is called exactly four times per step, each time on a fresh
    float64 array of shape ``(d,)``, and must return an array-like of ``d``
    real components.  A field made by :func:`make_lcel_field` or
    :func:`make_lcshe_field` is called through its float entry
    ``field._floats`` instead, which takes and returns a list of d floats (or
    raises) and gives the same bits without the arrays.  The stages are
    combined in Python floats, component by component, in the order
    ``x + (h/2) k`` and ``x + (h/6) (((k1 + 2 k2) + 2 k3) + k4)``.

    Raises ``ValueError`` when ``h`` is not a positive finite number, when
    ``steps < 1`` and when a field output does not have ``d`` components, and
    :class:`IntegrationError` at the first step whose state is not finite or
    that leaves the chart (a DomainError), with the states before it as ``partial``.
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

    stage = getattr(field, "_floats", stage)
    try:
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
    except DomainError as e:
        raise IntegrationError(str(e), partial=out[:k + 1], index=k + 1) from e
    return out


def divergence_numeric(field: Callable[[Vector], Vector], x: Vector,
                       eps: float) -> float:
    """Central-difference divergence (trace of the differenced Jacobian) of a vector field."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return float(np.trace(fd_jacobian(field, as_vector(x), eps)))


def _float_field(floats: Callable[[list], list]) -> Callable[[Vector], np.ndarray]:
    """The public field ``x -> ndarray`` around a float kernel, which it carries
    as ``_floats`` for :func:`rk4_integrate`."""
    def field(x: Vector) -> np.ndarray:
        return np.array(floats(as_vector(x).tolist()))

    field._floats = floats
    return field


def _chart_data(atlas: ConformalAtlas, chart: int, n: int):
    """(inside, lee) for a field on one chart, resolved once.

    ``inside(xs)`` raises :class:`DomainError` when the first n floats of xs
    leave the chart's box.  ``lee(q)`` returns the Lee form at q as a list and
    an array; a declared constant Lee form is read here, once.
    """
    ch = atlas.chart(chart)
    lo, hi = ch.lower.tolist(), ch.upper.tolist()

    if n == 1:  # a zip loop would cost several times the comparison
        (lo0,), (hi0,) = lo, hi

        def inside(xs: list) -> None:
            if not lo0 <= xs[0] <= hi0:
                atlas.require_inside(chart, np.array(xs[:1]))
    else:
        def inside(xs: list) -> None:
            for i in range(n):
                if not lo[i] <= xs[i] <= hi[i]:
                    atlas.require_inside(chart, np.array(xs[:n]))

    if ch.constant_lee is not None:
        const = (ch.constant_lee.tolist(), ch.constant_lee.copy())
        return inside, lambda q: const

    def lee(q: list):
        phi = ch.grad(np.array(q))
        return phi.tolist(), phi

    return inside, lee


def make_lcshe_field(H: ContinuousHamiltonian, atlas: ConformalAtlas, chart: int
                     ) -> Callable[[Vector], np.ndarray]:
    """Flatten the conformal Hamilton equations to a field on x = (q, p).

    The chart, its Lee form when it is constant, and ``H``'s jet are resolved
    once, and ``pdot`` is assembled on Python floats:
    reference integrations call this field hundreds of thousands of times.
    For n >= 2 the dot products stay numpy calls, which may round through a
    fused multiply-add.  A ``grad_q`` or Lee form without n components raises
    ``ValueError``.
    """
    n = H.n
    inside, lee = _chart_data(atlas, chart, n)
    jet = H.jet

    def floats(xs: list) -> list:
        inside(xs)
        q, ps = xs[:n], xs[n:]
        hval, gq, qdot = jet(q, ps)
        phi, phi_a = lee(q)
        if n == 1:
            (g,), (f,), (p,), (qd,) = gq, phi, ps, qdot
            # numpy rounds a one-element dot like 0.0 + a*b
            s_p, s_phi = 0.0 + p * qd, 0.0 + f * qd
            return [qd, -g - (f * s_p - p * s_phi) + hval * f]
        qdot_a = np.array(qdot)
        s_p, s_phi = float(np.array(ps) @ qdot_a), float(phi_a @ qdot_a)
        # qdot joins the zip only to have its length checked
        return qdot + [-g - (f * s_p - p * s_phi) + hval * f
                       for g, f, p, _ in zip(gq, phi, ps, qdot, strict=True)]

    return _float_field(floats)


def make_lcel_field(L: ContinuousLagrangian, atlas: ConformalAtlas, chart: int
                    ) -> Callable[[Vector], np.ndarray]:
    """Flatten the conformal Euler-Lagrange equations to a field on x = (q, v).

    Like :func:`make_lcshe_field`, the right-hand side is assembled on Python
    floats from one jet evaluation, and a ``grad_q``, ``grad_v`` or Lee form
    without n components raises ``ValueError``.  The acceleration solves
    ``hess_vv a = rhs`` by one division when n = 1 and otherwise as
    :func:`solve_linear` does (in closed form behind its screen when n = 2),
    raising :class:`RegularityError` as it does.
    """
    n = L.n
    inside, lee = _chart_data(atlas, chart, n)
    jet = L.jet

    def floats(xs: list) -> list:
        inside(xs)
        q, vs = xs[:n], xs[n:]
        lval, gq, gv, M, hvq = jet(q, vs)
        phi, phi_a = lee(q)
        if n == 1:
            (g,), (c,), (f,), (v,) = gq, gv, phi, vs
            m = float(M[0, 0])
            if m == 0.0:
                raise RegularityError("singular 1x1 velocity Hessian",
                                      condition=float("inf"))
            # one-element dot and matmul round like 0.0 + a*b (see make_lcshe_field)
            hv, s = 0.0 + float(hvq[0, 0]) * v, 0.0 + f * v
            return [v, (g - hv + s * c - lval * f) / m]
        v = np.array(vs)
        s, hv = float(phi_a @ v), (hvq @ v).tolist()
        rhs = [a - b + s * c - lval * f
               for a, b, c, f in zip(gq, hv, gv, phi, strict=True)]
        acc = _solve_2x2(M.tolist(), rhs, 1e12) if n == 2 else None
        if acc is None:  # n >= 3, or a 2x2 the closed form declines
            acc = (_checked_inverse(M, 1e12, "ill-conditioned linear system")
                   @ np.array(rhs)).tolist()
        return vs + acc

    return _float_field(floats)
