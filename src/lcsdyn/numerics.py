"""Shared numerical kernels: damped Newton, finite differences, linear solves.

All residual norms are infinity norms and all finite differences are central.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NewtonError, RegularityError

Vector = np.ndarray

_COND_LIMIT_NEWTON = 1e14
_DAMPING_HALVINGS = 6
_FLOAT64 = np.dtype(float)


@dataclass(frozen=True)
class StepperConfig:
    """Newton tolerances and iteration caps shared by all implicit steppers."""

    tol: float = 1e-10
    max_iter: int = 50
    fd_epsilon: float = 1e-6

    def __post_init__(self):
        if not (self.tol >= 1e-14):
            raise ValueError(f"tol must be >= 1e-14, got {self.tol}")
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")
        if self.fd_epsilon <= 0:
            raise ValueError("fd_epsilon must be positive")


@dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray
    iterations: int
    residual: float


def as_vector(x) -> np.ndarray:
    """``x`` as a float array of at least one dimension.

    A float64 ndarray of one or more dimensions is returned as it is (the
    conversion below would return that same object); anything else, ndarray
    subclasses included, is converted.
    """
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim:
        return x
    return np.atleast_1d(np.asarray(x, dtype=float))


def fd_jacobian(F: Callable[[Vector], np.ndarray], x: Vector, eps: float) -> np.ndarray:
    """Central-difference derivative of a scalar-, vector- or matrix-valued function.

    The result has shape ``F(x).shape + (x.size,)``: the last axis indexes the
    differenced input, so a vector function gives the usual Jacobian (rows:
    outputs, cols: inputs) and a scalar function its gradient.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        cols.append((np.asarray(F(xp), dtype=float) - np.asarray(F(xm), dtype=float)) / (2.0 * eps))
    return np.stack(cols, axis=-1)


def fd_mixed_second(f: Callable[[Vector, Vector], float], x: Vector, y: Vector,
                    eps: float) -> np.ndarray:
    """Four-point central difference of d^2 f / dx_i dy_j, shape (x.size, y.size)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    out = np.empty((x.size, y.size))
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        for j in range(y.size):
            yp, ym = y.copy(), y.copy()
            yp[j] += eps
            ym[j] -= eps
            out[i, j] = (f(xp, yp) - f(xp, ym) - f(xm, yp) + f(xm, ym)) / (4.0 * eps * eps)
    return out


def newton_solve(
    F: Callable[[Vector], Vector],
    x0: Vector,
    cfg: StepperConfig,
    jacobian: Callable[[Vector], np.ndarray] | None = None,
) -> NewtonResult:
    """Damped Newton iteration for F(x) = 0.

    The step is halved up to six times whenever the residual norm does not
    decrease; after exhausting the halvings the best candidate is
    accepted and iteration continues.  Each step is one :func:`solve_linear`
    with condition limit 1e14.  Raises :class:`NewtonError` when
    ``cfg.max_iter`` is exceeded and :class:`RegularityError` when that solve
    does.  ``F`` and ``jacobian`` (a central difference of ``F`` when None)
    see fresh float64 arrays; the iteration itself is :func:`_newton`'s.
    """
    def system(xs: list):
        x = np.array(xs)

        def J() -> list:
            M = jacobian(x) if jacobian is not None else fd_jacobian(F, x, cfg.fd_epsilon)
            return np.atleast_2d(np.asarray(M, dtype=float)).tolist()

        return as_vector(F(x)).tolist(), J

    x, iterations, residual = _newton(system, as_vector(x0).tolist(), cfg)
    return NewtonResult(x=np.array(x), iterations=iterations, residual=residual)


def _newton(system: Callable[[list], tuple], x0: list, cfg: StepperConfig
            ) -> tuple[list, int, float]:
    """The damped Newton iteration of :func:`newton_solve`, on Python floats.

    ``system(x)``, with x a list of n floats, returns the residual at x as a
    list of n floats and a callable of no arguments that returns the Jacobian
    at x as an (n, n) nested list; the Jacobian is asked for only at accepted
    iterates, so one evaluation per iterate can serve both.  Returns
    ``(x, iterations, residual)``.  The updates ``x + step dx``, the residual
    norm and the 1x1 and 2x2 solves round as numpy's would.
    """
    x = x0
    r, jac = system(x)
    if not all(map(math.isfinite, r)):
        raise NewtonError("residual not finite at the initial guess",
                          residual=float("nan"), iterations=0)
    rnorm = max(map(abs, r))
    stalls = 0
    for it in range(cfg.max_iter):
        if rnorm <= cfg.tol:
            return x, it, rnorm
        dx = _solve_floats(jac(), [-v for v in r], _COND_LIMIT_NEWTON)
        step = 1.0
        best, best_rnorm = None, math.inf
        for _ in range(_DAMPING_HALVINGS + 1):
            x_try = [a + step * d for a, d in zip(x, dx)]
            r_try, jac_try = system(x_try)
            rnorm_try = max(map(abs, r_try)) if all(map(math.isfinite, r_try)) \
                else math.inf
            if rnorm_try < best_rnorm:
                best, best_rnorm = (x_try, r_try, jac_try), rnorm_try
            if rnorm_try < rnorm:
                break
            step *= 0.5
        if best is None:
            raise NewtonError(
                f"no damped Newton trial has a finite residual (last finite "
                f"residual {rnorm:.3e})", residual=rnorm, iterations=it + 1)
        # Residuals pinned at the rounding floor stall rather than shrink; two
        # stalled iterations in a row end the iteration.
        stalls = stalls + 1 if best_rnorm >= rnorm else 0
        (x, r, jac), rnorm = best, best_rnorm
        if stalls >= 2:
            break
    if rnorm <= cfg.tol:
        return x, cfg.max_iter, rnorm
    raise NewtonError(
        f"Newton stalled at residual {rnorm:.3e} (tol {cfg.tol:.1e})" if stalls >= 2
        else f"Newton did not converge in {cfg.max_iter} iterations "
             f"(residual {rnorm:.3e})",
        residual=rnorm, iterations=cfg.max_iter)


def _solve_floats(A: list, b: list, cond_limit: float) -> list:
    """:func:`solve_linear` on a nested list and a list, with the same bits:
    a division for 1x1, :func:`_solve_2x2` for 2x2, and solve_linear itself
    for anything larger or screened out."""
    if len(b) == 1:
        return [b[0] / _divisor(A[0][0])]
    x = _solve_2x2(A, b, cond_limit) if len(b) == 2 else None
    if x is None:
        x = solve_linear(np.array(A), np.array(b), cond_limit).tolist()
    return x


def solve_linear(A: np.ndarray, b: Vector, cond_limit: float = 1e12) -> np.ndarray:
    """Solve A x = b; raise :class:`RegularityError` when the 2-norm condition
    number cond(A) exceeds ``cond_limit``.

    A 1x1 system raises only when its entry is zero or not finite.  A 2x2
    system is solved in closed form by :func:`_solve_2x2`; any other system,
    and a 2x2 one that fails its screen, as ``inv(A) @ b`` with the check of
    :func:`_checked_inverse`.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape == (1, 1):
        return np.atleast_1d(b / _divisor(A[0, 0]))
    b = np.asarray(b, dtype=float)
    if A.shape == (2, 2) and b.shape == (2,):
        x = _solve_2x2(A.tolist(), b.tolist(), cond_limit)
        if x is not None:
            return np.array(x)
    A_inv = _checked_inverse(A, cond_limit, "ill-conditioned linear system")
    return A_inv @ b


def _divisor(a: float) -> float:
    """The entry of a 1x1 system; :class:`RegularityError` when it is zero or
    not finite."""
    if a == 0.0:
        raise RegularityError("singular 1x1 system", condition=float("inf"))
    if not math.isfinite(a):
        raise RegularityError("non-finite 1x1 system", condition=float("nan"))
    return a


def _solve_2x2(A: list, b: list, cond_limit: float) -> list | None:
    """Cramer's rule for a 2x2 system in floats, or None when it is doubtful.

    ``A`` is a nested list ``[[a, b], [c, d]]``.  The screen is that of
    :func:`_checked_inverse`: for a 2x2 matrix ``||A||_F ||inv(A)||_F`` equals
    ``||A||_F^2 / |det A|``, and the solution is returned only when that bound
    is at most ``cond_limit / 4`` and det A is finite and nonzero.  On None
    the caller takes the checked-inverse path, which runs the SVD and raises.
    """
    (a, b01), (c, d) = A
    r0, r1 = b
    det = a * d - b01 * c
    if not (0.0 < abs(det) < math.inf
            and a * a + b01 * b01 + c * c + d * d <= 0.25 * cond_limit * abs(det)):
        return None
    return [(d * r0 - b01 * r1) / det, (a * r1 - c * r0) / det]


def _checked_inverse(A: np.ndarray, cond_limit: float, what: str) -> np.ndarray:
    """inv(A), or :class:`RegularityError` when cond(A) exceeds ``cond_limit``.

    cond(A) is computed by SVD only when the upper bound
    ``||A||_F ||inv(A)||_F`` exceeds ``cond_limit / 4`` (the 4 covers rounding
    in the bound) or when inversion finds A singular.  The error carries that
    SVD value as ``condition`` (NaN when the SVD does not converge); it is
    raised when the value is above the limit or not finite, and always for a
    singular A.
    """
    try:
        A_inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        A_inv = None
    if A_inv is None or not (math.sqrt(float(np.vdot(A, A)) * float(np.vdot(A_inv, A_inv)))
                             <= 0.25 * cond_limit):
        try:
            cond = np.linalg.cond(A)
        except np.linalg.LinAlgError:
            cond = float("nan")
        if A_inv is None or not math.isfinite(cond) or cond > cond_limit:
            raise RegularityError(f"{what} (cond ~ {cond:.3e})", condition=cond)
    return A_inv
