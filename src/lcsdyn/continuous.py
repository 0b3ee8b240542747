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
from functools import partial
from typing import Callable

import numpy as np

from . import unpacked
from .atlas import ConformalAtlas
from .errors import DomainError, IntegrationError
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
    real components.  The stages are combined in Python floats, component by
    component, in the order ``x + (h/2) k`` and
    ``x + (h/6) (((k1 + 2 k2) + 2 k3) + k4)``.  A field made by
    :func:`make_lcel_field` or :func:`make_lcshe_field` is not called: its
    private ``field._stepper = (d, run)`` runs the steps (see
    :func:`_kernel_field`), with the same bits and errors.

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

    def stage(*y: float) -> list:
        k = np.asarray(field(np.array(y)), dtype=float)
        if k.shape != shape:
            if k.size != d:
                raise ValueError(f"field returned {k.size} components for a state "
                                 f"of length {d}")
            k = k.reshape(shape)
        return k.tolist()

    entry = getattr(field, "_stepper", None)
    # a state of another length goes to the public field, which raises
    run = entry[1] if entry is not None and entry[0] == d else partial(_rk4_steps, stage)
    k, error = run(out[0].tolist(), h, steps, memoryview(out.reshape(-1)))
    if error is not None:
        raise IntegrationError(str(error), partial=out[:k + 1], index=k + 1) from error
    if k < steps:
        raise IntegrationError(f"non-finite state at step {k + 1}",
                               partial=out[:k + 1], index=k + 1)
    return out


def _rk4_steps(stage: Callable[..., list], x: list, h: float, steps: int,
               flat) -> tuple:
    """RK4 steps from the float list x on ``stage`` (the d state components as
    separate floats -> the d rates), row k stored at ``flat[d k]`` on.
    Returns ``(steps, None)``, or ``(k, None)`` when the state of step k + 1
    is not finite, or ``(k, error)`` when step k + 1 raised a DomainError.
    """
    half, sixth, d = 0.5 * h, h / 6.0, len(x)
    try:
        for k in range(steps):
            k1 = stage(*x)
            k2 = stage(*[a + half * b for a, b in zip(x, k1)])
            k3 = stage(*[a + half * b for a, b in zip(x, k2)])
            k4 = stage(*[a + h * b for a, b in zip(x, k3)])
            x = [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
            if not all(map(math.isfinite, x)):
                return k, None
            for i, a in enumerate(x, d * k + d):
                flat[i] = a
    except DomainError as error:
        return k, error
    return steps, None


def divergence_numeric(field: Callable[[Vector], Vector], x: Vector,
                       eps: float) -> float:
    """Central-difference divergence (trace of the differenced Jacobian) of a vector field."""
    return float(np.trace(fd_jacobian(field, as_vector(x), eps)))


def _kernel_field(kernel: Callable, n: int, run: Callable | None = None
                  ) -> Callable[[Vector], np.ndarray]:
    """The public field ``x -> ndarray`` around a float kernel (the 2n state
    components as separate floats -> the 2n rates), carrying its RK4 stepper
    as ``_stepper = (2n, run)``: ``run`` as :func:`_rk4_steps` runs, by
    default that loop on the kernel.  An ``x`` that is not a vector of 2n
    components raises ``ValueError``.
    """
    d, shape = 2 * n, (2 * n,)

    def field(x: Vector) -> np.ndarray:
        x = as_vector(x)
        if x.shape != shape:
            _of_length(x, d, "x")  # raises, naming the shape or the length
        return np.array(kernel(*x.tolist()))

    field._stepper = (d, run or partial(_rk4_steps, kernel))
    return field


def make_lcshe_field(H: ContinuousHamiltonian, atlas: ConformalAtlas, chart: int
                     ) -> Callable[[Vector], np.ndarray]:
    """Flatten the conformal Hamilton equations to a field on x = (q, p).

    The chart, its Lee form when it is constant, and ``H``'s jet are resolved
    once, and ``pdot`` is assembled on Python floats by a kernel that takes
    the state as separate floats and returns the rates (see
    :func:`_kernel_field`): reference integrations step this field hundreds
    of thousands of times.  For n = 1 and n = 2 the kernel and its RK4
    stepper come from :func:`unpacked.hamilton`, on unpacked scalars; for
    n >= 3 the dot products stay numpy calls.  ``H`` of another n than the
    chart's dimension raises ``ValueError``, and so do a jet that returns
    another number of values (see :func:`_jet_parts`) and a Lee form without
    n components, when the field meets them.
    """
    n = H.n
    ch = atlas._chart_of_dim(chart, n)
    if n <= 2:
        kernel, run = unpacked.hamilton(H, atlas, chart)
        return _kernel_field(kernel, n, run)
    # the kernel tests the box inline, calling require_inside only for its
    # message, and reads phi, a declared constant Lee form, or else lee(q)
    (lo, hi), phi, lee = ch._bounds, ch._lee, ch._floats[1]

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
    floats from one jet evaluation, by the kernel and stepper of
    :func:`unpacked.euler_lagrange` when n <= 2.  For n >= 3 the acceleration
    solves ``hess_vv a = rhs`` as ``numerics._solve_floats`` solves, raising
    :class:`RegularityError` as it does.  Under ``constant_hessians`` the
    resolved ``hess_vv`` and ``hess_vq`` are read once, when the field is
    built; otherwise both are read, and the solve screened, at every call.
    The errors are those of :func:`make_lcshe_field`.
    """
    n = L.n
    ch = atlas._chart_of_dim(chart, n)
    if n <= 2:
        kernel, run = unpacked.euler_lagrange(L, atlas, chart)
        return _kernel_field(kernel, n, run)
    (lo, hi), phi, lee = ch._bounds, ch._lee, ch._floats[1]
    hessians = L.hessians
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
