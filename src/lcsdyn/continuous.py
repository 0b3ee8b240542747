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
from .numerics import (StepperConfig, _dot, _newton, _of_length, _require_steps, _rows,
                       _solver, as_vector, fd_jacobian)

Vector = np.ndarray
_FIBER_CFG = StepperConfig(tol=1e-12)


@dataclass(frozen=True)
class ContinuousLagrangian:
    """A Lagrangian L(q, v), defined by one fused evaluation on Python floats.

    ``jet(q_0, ..., q_{n-1}, v_0, ..., v_{n-1})``, on 2n separate floats,
    returns one flat tuple ``(value, dL/dq_0, ..., dL/dv_{n-1}, hess_vv,
    hess_vq)``: 2n + 1 floats and two (n, n) float arrays, with
    ``hess_vq[i, j] = d^2 L / dv_i dq_j``, so an RK4 stage builds no list.
    ``hess_vv`` must be invertible wherever the dynamics are evaluated.  The
    continuous fields and the quadrature rules call the jet once where they
    need several parts; each method below calls it once, on two vectors of n
    components (another shape raises ``ValueError`` naming q or v), and
    returns one part, the Hessians as fresh arrays.  ``hess_qq(q, v)``
    returns the (n, n) array d^2 L / dq dq; the quadrature rules' second
    partials read it.

    ``constant_hessians=True`` declares all three Hessians constant, so L is
    quadratic in (q, v) and its jet is defined at q = v = 0.  They are read
    there once, at construction, into ``hessians``: read-only (n, n) float
    arrays ``(hess_qq, hess_vv, hess_vq)`` (another shape raises
    ``ValueError``), which the fields, ``fiber_legendre_inv`` and the
    quadrature rules read in place of the jet's Hessians and ``hess_qq``.
    Without the flag ``hessians`` is None.
    """

    n: int
    jet: Callable[..., tuple]
    hess_qq: Callable[[Vector, Vector], np.ndarray]
    constant_hessians: bool = False

    def __post_init__(self):
        n, hessians = self.n, None
        if self.constant_hessians:
            zero = [0.0] * n
            hessians = tuple(np.array(a, dtype=float) for a in (
                self.hess_qq(np.zeros(n), np.zeros(n)), *_jet_parts(self, zero, zero)[3:]))
            for name, a in zip(("hess_qq", "hess_vv", "hess_vq"), hessians):
                if a.shape != (n, n):
                    raise ValueError(f"{name} must have shape ({n}, {n}), got {a.shape}")
                a.setflags(write=False)
        object.__setattr__(self, "hessians", hessians)

    def _at(self, q: Vector, v: Vector) -> tuple:
        n = self.n
        return _jet_parts(self, _of_length(q, n, "q").tolist(), _of_length(v, n, "v").tolist())

    def value(self, q: Vector, v: Vector) -> float:
        return float(self._at(q, v)[0])

    def grad_q(self, q: Vector, v: Vector) -> np.ndarray:
        return np.array(self._at(q, v)[1])

    def grad_v(self, q: Vector, v: Vector) -> np.ndarray:
        return np.array(self._at(q, v)[2])

    def hess_vv(self, q: Vector, v: Vector) -> np.ndarray:
        return np.array(self._at(q, v)[3])

    def hess_vq(self, q: Vector, v: Vector) -> np.ndarray:
        return np.array(self._at(q, v)[4])


@dataclass(frozen=True)
class ContinuousHamiltonian:
    """A Hamiltonian H(q, p), defined by one fused evaluation on Python floats.

    ``jet(q_0, ..., q_{n-1}, p_0, ..., p_{n-1})`` returns the flat tuple
    ``(value, dH/dq_0, ..., dH/dp_{n-1})`` of 2n + 1 floats.  The field calls
    it once per evaluation; each method below calls it once, on two vectors
    of n components (another shape raises ``ValueError`` naming q or p), and
    returns one part.
    """

    n: int
    jet: Callable[..., tuple]

    def _at(self, q: Vector, p: Vector) -> tuple:
        n = self.n
        return _jet_parts(self, _of_length(q, n, "q").tolist(), _of_length(p, n, "p").tolist())

    def value(self, q: Vector, p: Vector) -> float:
        return float(self._at(q, p)[0])

    def grad_q(self, q: Vector, p: Vector) -> np.ndarray:
        return np.array(self._at(q, p)[1])

    def grad_p(self, q: Vector, p: Vector) -> np.ndarray:
        return np.array(self._at(q, p)[2])


def _jet_parts(F, q, v) -> tuple:
    """``F.jet(*q, *v)`` as ``(value, grad_q, grad_v[, hess_vv, hess_vq])``, the
    gradients as lists; a jet of another count than 2n + 3 (a Lagrangian) or
    2n + 1 (a Hamiltonian) raises ``ValueError`` naming it."""
    n, out = F.n, F.jet(*q, *v)
    count = 2 * n + (3 if isinstance(F, ContinuousLagrangian) else 1)
    if len(out) != count:
        raise ValueError(f"{type(F).__name__} jet returned {len(out)} values, "
                         f"expected {count} (2n + {count - 2 * n} for n = {n})")
    return (out[0], list(out[1:n + 1]), list(out[n + 1:2 * n + 1]), *out[2 * n + 1:])


def fiber_legendre(L: ContinuousLagrangian, q: Vector, v: Vector) -> np.ndarray:
    """Momentum p = dL/dv of the fiber Legendre map."""
    return L.grad_v(q, v)


def fiber_legendre_inv(L: ContinuousLagrangian, q: Vector, p: Vector) -> np.ndarray:
    """Velocity v solving dL/dv (q, v) = p by Newton, one jet call per iterate;
    under ``constant_hessians`` the resolved ``hess_vv`` is the Jacobian of
    every iterate."""
    q, p = _of_length(q, L.n, "q").tolist(), _of_length(p, L.n, "p").tolist()
    jac = None
    if L.hessians is not None:
        vv = L.hessians[1].tolist()
        jac = lambda: vv

    def system(v: list):
        _, _, gv, hess_vv, _ = _jet_parts(L, q, v)
        return [g - b for g, b in zip(gv, p)], jac or hess_vv.tolist

    return np.array(_newton(system, p, _FIBER_CFG)[0])


def rk4_integrate(field: Callable[[Vector], Vector], x0: Vector, h: float,
                  steps: int) -> np.ndarray:
    """Classical fixed-step 4th-order Runge-Kutta; returns (steps+1, d) states.

    ``field`` is called exactly four times per step, each time on a fresh
    float64 array of shape ``(d,)``, and must return an array-like of ``d``
    real components.  A field made by :func:`make_lcel_field` or
    :func:`make_lcshe_field` is called through its private entry
    ``field._kernel`` instead, which takes the d state components as
    separate floats and gives the same bits without the arrays: the rates as
    d floats, or, for a Lagrangian field of one or two degrees of freedom,
    only the acceleration (one float or two), whose q-rate is the stage's own
    v.  The stages are combined in Python floats, component by component, in
    the order ``x + (h/2) k`` and ``x + (h/6) (((k1 + 2 k2) + 2 k3) + k4)``.
    A two- or four-component state (one or two degrees of freedom) is held
    as two or four floats and stored straight into the preallocated result:
    the same arithmetic without the per-component lists.  For an
    acceleration kernel the loop holds (q, v) and steps q by the stage
    velocities themselves, ``q + (h/6) (((v + 2 v2) + 2 v3) + v4)``, bit for
    bit what the rate form computes from ``[v, a]``.

    Raises ``ValueError`` when ``x0`` is not one-dimensional, when ``h`` is
    not a positive finite number, when ``steps`` is not an integer >= 1 and
    when a field output does not have ``d`` components, ``MemoryError`` when
    the (steps+1, d) result cannot be allocated, and :class:`IntegrationError`
    at the first step whose state is not finite or that leaves the chart (a
    DomainError), with the states before it as ``partial``.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    _require_steps(steps, 1, "steps")
    x0 = as_vector(x0)
    if x0.ndim != 1:
        raise ValueError(f"x0 must be one-dimensional, got shape {x0.shape}")
    d = x0.size
    shape = (d,)
    out = _rows(steps + 1, d)
    out[0] = x0
    x = out[0].tolist()
    half, sixth = 0.5 * h, h / 6.0

    def stage(*y: float) -> list:
        k = np.asarray(field(np.array(y)), dtype=float)
        if k.shape != shape:
            if k.size != d:
                raise ValueError(f"field returned {k.size} components for a state "
                                 f"of length {d}")
            k = k.reshape(shape)
        return k.tolist()

    def nonfinite(k: int) -> IntegrationError:
        return IntegrationError(f"non-finite state at step {k + 1}",
                                partial=out[:k + 1], index=k + 1)

    accel = False
    entry = getattr(field, "_kernel", None)
    # a state of another length goes to the public field, which raises
    if entry is not None and entry[0] == d:
        _, stage, accel = entry
    # for d = 2 or 4, row k + 1 of out is flat[d k + d] .. flat[d k + 2d - 1]:
    # element stores instead of a numpy row assignment
    flat = memoryview(out).cast("B").cast("d") if d in (2, 4) else None
    try:
        if d == 2 and accel:
            q, v = x
            for k in range(steps):
                a1 = stage(q, v)
                v2 = v + half * a1
                a2 = stage(q + half * v, v2)
                v3 = v + half * a2
                a3 = stage(q + half * v2, v3)
                v4 = v + h * a3
                a4 = stage(q + h * v3, v4)
                q = q + sixth * (((v + 2.0 * v2) + 2.0 * v3) + v4)
                v = v + sixth * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
                if not (math.isfinite(q) and math.isfinite(v)):
                    raise nonfinite(k)
                flat[2 * k + 2] = q
                flat[2 * k + 3] = v
        elif d == 2:
            a, b = x
            for k in range(steps):
                a1, b1 = stage(a, b)
                a2, b2 = stage(a + half * a1, b + half * b1)
                a3, b3 = stage(a + half * a2, b + half * b2)
                a4, b4 = stage(a + h * a3, b + h * b3)
                a = a + sixth * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
                b = b + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                if not (math.isfinite(a) and math.isfinite(b)):
                    raise nonfinite(k)
                flat[2 * k + 2] = a
                flat[2 * k + 3] = b
        elif d == 4 and accel:
            q0, q1, v0, v1 = x
            for k in range(steps):
                a1, b1 = stage(q0, q1, v0, v1)
                u2, w2 = v0 + half * a1, v1 + half * b1
                a2, b2 = stage(q0 + half * v0, q1 + half * v1, u2, w2)
                u3, w3 = v0 + half * a2, v1 + half * b2
                a3, b3 = stage(q0 + half * u2, q1 + half * w2, u3, w3)
                u4, w4 = v0 + h * a3, v1 + h * b3
                a4, b4 = stage(q0 + h * u3, q1 + h * w3, u4, w4)
                q0 = q0 + sixth * (((v0 + 2.0 * u2) + 2.0 * u3) + u4)
                q1 = q1 + sixth * (((v1 + 2.0 * w2) + 2.0 * w3) + w4)
                v0 = v0 + sixth * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
                v1 = v1 + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                if not (math.isfinite(q0) and math.isfinite(q1)
                        and math.isfinite(v0) and math.isfinite(v1)):
                    raise nonfinite(k)
                i = 4 * k + 4
                flat[i] = q0
                flat[i + 1] = q1
                flat[i + 2] = v0
                flat[i + 3] = v1
        elif d == 4:
            a, b, c, e = x
            for k in range(steps):
                a1, b1, c1, e1 = stage(a, b, c, e)
                a2, b2, c2, e2 = stage(a + half * a1, b + half * b1,
                                       c + half * c1, e + half * e1)
                a3, b3, c3, e3 = stage(a + half * a2, b + half * b2,
                                       c + half * c2, e + half * e2)
                a4, b4, c4, e4 = stage(a + h * a3, b + h * b3, c + h * c3, e + h * e3)
                a = a + sixth * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
                b = b + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                c = c + sixth * (((c1 + 2.0 * c2) + 2.0 * c3) + c4)
                e = e + sixth * (((e1 + 2.0 * e2) + 2.0 * e3) + e4)
                if not (math.isfinite(a) and math.isfinite(b)
                        and math.isfinite(c) and math.isfinite(e)):
                    raise nonfinite(k)
                i = 4 * k + 4
                flat[i] = a
                flat[i + 1] = b
                flat[i + 2] = c
                flat[i + 3] = e
        else:
            for k in range(steps):
                k1 = stage(*x)
                k2 = stage(*[a + half * b for a, b in zip(x, k1)])
                k3 = stage(*[a + half * b for a, b in zip(x, k2)])
                k4 = stage(*[a + h * b for a, b in zip(x, k3)])
                x = [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                     for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
                if not all(map(math.isfinite, x)):
                    raise nonfinite(k)
                out[k + 1] = x
    except DomainError as e:
        raise IntegrationError(str(e), partial=out[:k + 1], index=k + 1) from e
    return out


def divergence_numeric(field: Callable[[Vector], Vector], x: Vector,
                       eps: float) -> float:
    """Central-difference divergence (trace of the differenced Jacobian) of a vector field."""
    return float(np.trace(fd_jacobian(field, as_vector(x), eps)))


def _kernel_field(kernel: Callable, n: int, accel: bool = False
                  ) -> Callable[[Vector], np.ndarray]:
    """The public field ``x -> ndarray`` around a float kernel, which it carries
    as ``_kernel = (2n, kernel, accel)`` for :func:`rk4_integrate`.

    ``kernel`` takes the 2n state components as separate floats and returns
    the 2n rates, or with ``accel`` (n <= 2) the acceleration only: a float
    for n = 1, a list of two for n = 2, the q-rate being the state's own v.  An
    ``x`` that is not a vector of 2n components raises ``ValueError``.
    """
    d, shape = 2 * n, (2 * n,)

    def field(x: Vector) -> np.ndarray:
        x = as_vector(x)
        if x.shape != shape:
            _of_length(x, d, "x")  # raises, naming the shape or the length
        xs = x.tolist()
        if not accel:
            return np.array(kernel(*xs))
        a = kernel(*xs)
        return np.array(xs[1:] + [a] if n == 1 else xs[2:] + a)

    field._kernel = (d, kernel, accel)
    return field


def make_lcshe_field(H: ContinuousHamiltonian, atlas: ConformalAtlas, chart: int
                     ) -> Callable[[Vector], np.ndarray]:
    """Flatten the conformal Hamilton equations to a field on x = (q, p).

    The chart, its Lee form when it is constant, and ``H``'s jet are resolved
    once, and ``pdot`` is assembled on Python floats, by a kernel that takes
    the state as separate floats and returns the rates (see
    :func:`_kernel_field`): reference integrations call this field hundreds
    of thousands of times.  For n = 1 and n = 2 the kernel is chosen here and
    works on unpacked scalars, its dot products written out as
    ``numerics._dot`` forms them (``0.0 + a0 b0 + a1 b1``, Python's double
    arithmetic in that order, no fused operation).  For n >= 3 the dot
    products stay numpy calls.  A jet that returns another number of values
    (see :func:`_jet_parts`), or a Lee form without n components, raises
    ``ValueError``.
    """
    n = H.n
    jet = H.jet
    # the kernels test the box inline, calling require_inside only for its
    # message, and read phi, a declared constant Lee form, or else lee(q)
    ch = atlas.chart(chart)
    (lo, hi), phi, lee = ch._bounds, ch._lee, ch._floats[1]
    if n == 1:
        (lo,), (hi,) = lo, hi

        def scalar_rates(q: float, p: float) -> tuple:
            if not lo <= q <= hi:
                atlas.require_inside(chart, np.array([q]))
            hval, g, qd = jet(q, p)
            (f,) = phi or lee([q])
            # numpy rounds a one-element dot like 0.0 + a*b
            s_p, s_phi = 0.0 + p * qd, 0.0 + f * qd
            return qd, -g - (f * s_p - p * s_phi) + hval * f

        return _kernel_field(scalar_rates, 1)

    if n == 2:
        (lo0, lo1), (hi0, hi1) = lo, hi

        def planar_rates(q0: float, q1: float, p0: float, p1: float) -> tuple:
            if not (lo0 <= q0 <= hi0 and lo1 <= q1 <= hi1):
                atlas.require_inside(chart, np.array([q0, q1]))
            hval, g0, g1, d0, d1 = jet(q0, q1, p0, p1)
            f0, f1 = phi or lee([q0, q1])
            s_p, s_phi = 0.0 + p0 * d0 + p1 * d1, 0.0 + f0 * d0 + f1 * d1
            return (d0, d1, -g0 - (f0 * s_p - p0 * s_phi) + hval * f0,
                    -g1 - (f1 * s_p - p1 * s_phi) + hval * f1)

        return _kernel_field(planar_rates, 2)

    def rates(*xs: float) -> list:
        q, ps = list(xs[:n]), list(xs[n:])
        if not all(a <= x <= b for a, x, b in zip(lo, q, hi)):
            atlas.require_inside(chart, np.array(q))
        hval, gq, qdot = _jet_parts(H, q, ps)
        f_q = phi or lee(q)
        s_p, s_phi = _dot(ps, qdot), _dot(f_q, qdot)
        return qdot + [-g - (f * s_p - p * s_phi) + hval * f
                       for g, f, p in zip(gq, f_q, ps, strict=True)]

    return _kernel_field(rates, n)


def make_lcel_field(L: ContinuousLagrangian, atlas: ConformalAtlas, chart: int
                    ) -> Callable[[Vector], np.ndarray]:
    """Flatten the conformal Euler-Lagrange equations to a field on x = (q, v).

    Like :func:`make_lcshe_field`, the right-hand side is assembled on Python
    floats from one jet evaluation, by a kernel on unpacked scalars when
    n <= 2 (the n = 2 dot product and rows of ``hess_vq @ v`` written out as
    ``numerics._dot`` forms them), and a jet that returns another number of
    values, or a Lee form without n components, raises ``ValueError``.  The
    n <= 2 kernels return the acceleration alone, which :func:`rk4_integrate`
    steps in its second-order loops.  When n = 1 with a constant Lee form and
    declared Hessians of nonzero mass, the kernel holds the Lee form and both
    Hessians as closure floats.  The acceleration solves
    ``hess_vv a = rhs`` by one division when n = 1 and otherwise as
    ``numerics._solve_floats`` solves (in closed form behind its screen when
    n = 2), raising :class:`RegularityError` as it does.  Under ``constant_hessians``
    the resolved ``hess_vv`` and ``hess_vq`` are read here, once, as floats
    (n = 1), nested lists or, for ``hess_vq`` when n >= 3, the array, and for
    n >= 2 ``hess_vv`` becomes a ``numerics._solver``, which screens a 2x2
    one here, once; otherwise both are read, and the solve screened, at
    every call.
    """
    n = L.n
    jet = L.jet
    hessians = L.hessians
    ch = atlas.chart(chart)
    (lo, hi), phi, lee = ch._bounds, ch._lee, ch._floats[1]
    if n == 1:
        (lo,), (hi,) = lo, hi
        mb = None if hessians is None else (hessians[1].item(0), hessians[2].item(0))
        if phi is not None and mb is not None and mb[0] != 0.0:
            # the reference case (AC5's 100k steps): every constant a closure float
            (f,), (m, b) = phi, mb

            def scalar_accel(q: float, v: float) -> float:
                if not lo <= q <= hi:
                    atlas.require_inside(chart, np.array([q]))
                lval, g, c, _, _ = jet(q, v)
                return (g - (0.0 + b * v) + (0.0 + f * v) * c - lval * f) / m
        else:
            def scalar_accel(q: float, v: float) -> float:
                if not lo <= q <= hi:
                    atlas.require_inside(chart, np.array([q]))
                lval, g, c, M, hvq = jet(q, v)
                (f,) = phi or lee([q])
                m, b = mb or (M.item(0), hvq.item(0))
                if m == 0.0:
                    raise RegularityError("singular 1x1 velocity Hessian",
                                          condition=float("inf"))
                # one-element dot and matmul round like 0.0 + a*b (see make_lcshe_field)
                hv, s = 0.0 + b * v, 0.0 + f * v
                return (g - hv + s * c - lval * f) / m

        return _kernel_field(scalar_accel, 1, accel=True)

    if n == 2:
        (lo0, lo1), (hi0, hi1) = lo, hi
        SB = None if hessians is None else (_solver(hessians[1].tolist(), 1e12),
                                            hessians[2].tolist())

        def planar_accel(q0: float, q1: float, v0: float, v1: float) -> list:
            if not (lo0 <= q0 <= hi0 and lo1 <= q1 <= hi1):
                atlas.require_inside(chart, np.array([q0, q1]))
            lval, g0, g1, c0, c1, M, hvq = jet(q0, q1, v0, v1)
            f0, f1 = phi or lee([q0, q1])
            solve, ((m00, m01), (m10, m11)) = SB or (_solver(M.tolist(), 1e12), hvq.tolist())
            s = 0.0 + f0 * v0 + f1 * v1
            return solve([g0 - (0.0 + m00 * v0 + m01 * v1) + s * c0 - lval * f0,
                          g1 - (0.0 + m10 * v0 + m11 * v1) + s * c1 - lval * f1])

        return _kernel_field(planar_accel, 2, accel=True)

    SB = None if hessians is None else (_solver(hessians[1].tolist(), 1e12), hessians[2])

    def rates(*xs: float) -> list:
        q, vs = list(xs[:n]), list(xs[n:])
        if not all(a <= x <= b for a, x, b in zip(lo, q, hi)):
            atlas.require_inside(chart, np.array(q))
        lval, gq, gv, M, hvq = _jet_parts(L, q, vs)
        f_q = phi or lee(q)
        solve, B = SB or (_solver(M.tolist(), 1e12), hvq)
        s, hv = _dot(f_q, vs), (B @ np.array(vs)).tolist()
        rhs = [a - b + s * c - lval * f
               for a, b, c, f in zip(gq, hv, gv, f_q, strict=True)]
        return vs + solve(rhs)

    return _kernel_field(rates, n)
