"""Shared numerical kernels: damped Newton, finite differences, linear solves.

All residual norms are infinity norms and all finite differences are central.
"""

from __future__ import annotations

import functools
import math
import numbers
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

    def __post_init__(self):
        if not 1e-14 <= self.tol < math.inf:
            raise ValueError(f"tol must be finite and >= 1e-14, got {self.tol}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral) \
                or self.max_iter <= 0:
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter!r}")


def _require_steps(count, least: int, name: str) -> None:
    """``ValueError`` naming ``name`` unless ``count`` is an integer >= least (no bool)."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {count!r}")
    if count < least:
        raise ValueError(f"{name} must be >= {least}")


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


def as_matrix(x) -> np.ndarray:
    """``x`` as a float array of at least two dimensions, returned as it is
    when it already is a float64 ndarray of two or more (as in :func:`as_vector`)."""
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim > 1:
        return x
    return np.atleast_2d(np.asarray(x, dtype=float))


def _on_lists(f: Callable, out: Callable = as_vector) -> Callable:
    """``f``, a function of arrays, as a function of float sequences.

    Each argument reaches ``f`` as a fresh float64 array, and the result
    comes back as ``out(result).tolist()``: a list of floats by default, a
    nested list with :func:`as_matrix`, a float with ``np.float64``.
    """
    return lambda *xs: out(f(*map(np.array, xs))).tolist()


def _rows(count: int, width: int) -> np.ndarray:
    """``np.empty((count, width))``; a count numpy cannot index raises
    ``MemoryError``, as one the machine cannot hold does."""
    try:
        return np.empty((count, width))
    except ValueError as e:
        raise MemoryError(str(e)) from e


def _of_length(x, n: int, name: str) -> np.ndarray:
    """``as_vector(x)``, or ``ValueError`` naming ``name`` unless it is a vector
    of n components."""
    x = as_vector(x)
    if x.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {x.shape}")
    if x.size != n:
        raise ValueError(f"{name} has {x.size} components, expected {n}")
    return x


def fd_jacobian(F: Callable[[Vector], np.ndarray], x: Vector, eps: float) -> np.ndarray:
    """Central-difference derivative of a scalar-, vector- or matrix-valued function.

    The result has shape ``F(x).shape + (x.size,)``: the last axis indexes the
    differenced input, so a vector function gives the usual Jacobian (rows:
    outputs, cols: inputs) and a scalar function its gradient.  A step
    ``eps`` that is not positive and finite raises ``ValueError``.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    x = as_vector(x)
    cols = []
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        cols.append((np.asarray(F(xp), dtype=float) - np.asarray(F(xm), dtype=float)) / (2.0 * eps))
    return np.stack(cols, axis=-1)


def newton_solve(
    F: Callable[[Vector], Vector],
    x0: Vector,
    cfg: StepperConfig,
    jacobian: Callable[[Vector], np.ndarray],
) -> NewtonResult:
    """Damped Newton iteration for F(x) = 0.

    The step is halved up to six times whenever the residual norm does not
    decrease; after exhausting the halvings the best candidate is
    accepted and iteration continues.  Each step is one :func:`_solve_floats`
    with condition limit 1e14.  Raises :class:`NewtonError` when
    ``cfg.max_iter`` is exceeded and :class:`RegularityError` when that solve
    does.  ``F`` and ``jacobian`` see fresh float64 arrays; the iteration
    itself is :func:`_newton`'s.
    """
    F, J = _on_lists(F), _on_lists(jacobian, as_matrix)
    return _newton_result(lambda x: (F(x), lambda: J(x)), as_vector(x0).tolist(), cfg)


def _newton_result(system: Callable[[list], tuple], x0: list, cfg: StepperConfig
                   ) -> NewtonResult:
    """:func:`_newton` with its solution returned as a :class:`NewtonResult`."""
    x, iterations, residual = _newton(system, x0, cfg)
    return NewtonResult(x=np.array(x), iterations=iterations, residual=residual)


def _newton(system: Callable[[list], tuple], x0: list, cfg: StepperConfig
            ) -> tuple[list, int, float]:
    """The damped Newton iteration of :func:`newton_solve`, on Python floats.

    ``system(x)``, with x a list of n floats, returns the residual at x as a
    list of n floats and a callable of no arguments that returns the Jacobian
    at x as an (n, n) nested list; the Jacobian is asked for only at accepted
    iterates, so one evaluation per iterate can serve both.  Returns
    ``(x, iterations, residual)``.  It is Python's own double arithmetic in
    the order written, without fused operations: the updates ``x + step dx``
    and the residual norm round as numpy's elementwise forms would, and each
    step solves with :func:`_solve_floats`.

    Each iteration first tries the full step x + dx, written for n = 1 and
    n = 2 on unpacked floats and for larger n in the general form, and
    accepts it at once when its residual is finite and lower.  As ``1.0 *
    d`` is d, that is bit for bit the first trial of the damped loop, which
    is entered, from the half step on, only when the full step is rejected.
    """
    x = x0
    r, jac = system(x)
    if not all(map(math.isfinite, r)):
        raise NewtonError("residual not finite at the initial guess",
                          residual=float("nan"), iterations=0)
    rnorm, n, tol, stalls = max(map(abs, r)), len(r), cfg.tol, 0
    for it in range(cfg.max_iter):
        if rnorm <= tol:
            return x, it, rnorm
        if n == 1:
            dx = [-r[0] / _divisor(jac()[0][0])]
            x_try = [x[0] + dx[0]]
            r_try, jac_try = system(x_try)
            rnorm_try = abs(r_try[0])  # NaN or inf fails both tests below
        elif n == 2:
            dx = _solve_floats(jac(), [-r[0], -r[1]], _COND_LIMIT_NEWTON)
            x_try = [x[0] + dx[0], x[1] + dx[1]]
            r_try, jac_try = system(x_try)
            a0, a1 = abs(r_try[0]), abs(r_try[1])
            rnorm_try = max(a0, a1) if a0 < math.inf and a1 < math.inf else math.inf
        else:
            dx = _solve_floats(jac(), [-v for v in r], _COND_LIMIT_NEWTON)
            x_try = [a + d for a, d in zip(x, dx)]
            r_try, jac_try = system(x_try)
            rnorm_try = max(map(abs, r_try)) if all(map(math.isfinite, r_try)) \
                else math.inf
        if rnorm_try < rnorm:
            x, r, jac, rnorm, stalls = x_try, r_try, jac_try, rnorm_try, 0
            continue
        # The full step is kept as the best trial if finite, and the step is
        # halved up to six times until the residual norm decreases; after
        # exhausting the halvings the best trial is accepted.
        best, best_rnorm = ((x_try, r_try, jac_try), rnorm_try) if rnorm_try < math.inf \
            else (None, math.inf)
        step = 0.5
        for _ in range(_DAMPING_HALVINGS):
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
    if rnorm <= tol:
        return x, cfg.max_iter, rnorm
    raise NewtonError(
        f"Newton stalled at residual {rnorm:.3e} (tol {cfg.tol:.1e})" if stalls >= 2
        else f"Newton did not converge in {cfg.max_iter} iterations "
             f"(residual {rnorm:.3e})",
        residual=rnorm, iterations=cfg.max_iter)


def _nan_max(*args, **default):
    """``max(*args, **default)``, or the first NaN among the values, which
    ``max`` keeps only when it comes first (no comparison with NaN is true)."""
    values = list(args[0] if len(args) == 1 else args)
    nans = [x for x in values if x != x]
    return nans[0] if nans else max(values, **default)


def _dot(x, y) -> float:
    """``x @ y`` of two float sequences.

    One component is ``0.0 + x0 y0`` and two are ``0.0 + x0 y0 + x1 y1``:
    Python's own IEEE double arithmetic in the order written, each product
    rounded and the sum taken left to right from a 0.0 accumulator (kept, as
    numpy keeps it, so that -0.0 products sum to +0.0), with no fused
    multiply-add, so the bits depend on no BLAS.  Longer vectors go to numpy.
    """
    if len(x) == 1:
        return 0.0 + x[0] * y[0]
    if len(x) == 2:
        return 0.0 + x[0] * y[0] + x[1] * y[1]
    return float(np.array(x) @ np.array(y))


def _add(x, y) -> list:
    return [a + b for a, b in zip(x, y)]


def _sub(x, y) -> list:
    return [a - b for a, b in zip(x, y)]


def _transposed(M) -> list:
    return [list(col) for col in zip(*M)]


def _transposed_matvec(M: list, y: list) -> list:
    """``M.T @ y`` of a nested list M: for n <= 2 component j is
    :func:`_dot` of column j of M with y, in its order and rounding; larger
    systems go to numpy itself."""
    if len(y) <= 2:
        return [_dot(col, y) for col in zip(*M)]
    return (np.array(M).T @ np.array(y)).tolist()


def _det_sign(M: list) -> float:
    """np.sign(det M) of a nested list.  For n = 1 it is the sign of the
    entry, without LAPACK: 1.0 or -1.0, 0.0 for either zero and NaN for NaN.
    For n = 2 it is the sign of ad - bc where that exceeds 1e-8 (|ad| + |bc|)
    and each entry is 0 or of magnitude in (1e-75, 1e75), so that rounding,
    here or in LAPACK's pivoted LU, cannot flip it; otherwise LAPACK's."""
    if len(M) == 1:
        x = M[0][0]
        return 1.0 if x > 0 else -1.0 if x < 0 else 0.0 if x == 0 else x
    if len(M) == 2:
        (a, b), (c, d) = M
        ad, bc = a * d, b * c
        if abs(ad - bc) > 1e-8 * (abs(ad) + abs(bc)) \
                and all(x == 0.0 or 1e-75 < abs(x) < 1e75 for x in (a, b, c, d)):
            return 1.0 if ad > bc else -1.0
    return float(np.sign(np.linalg.det(np.array(M))))


def _solve_floats(A: list, b: list, cond_limit: float) -> list:
    """Solve A x = b on a nested list and a list; raise
    :class:`RegularityError` when cond(A) exceeds ``cond_limit``.  A 1x1
    system is one division, raising only on a zero or non-finite entry; a 2x2
    one that passes :func:`_screened_det` is :func:`_cramer`; any other is
    ``inv(A) @ b`` with the check of :func:`_checked_inverse`."""
    if len(b) == 1:
        return [b[0] / _divisor(A[0][0])]
    det = _screened_det(A, cond_limit) if len(b) == 2 else None
    if det is not None:
        return _cramer(A, det, b)
    A_inv = _checked_inverse(np.array(A), cond_limit, "ill-conditioned linear system")
    return (A_inv @ np.array(b)).tolist()


def _solver(A: list, cond_limit: float) -> Callable[[list], list]:
    """``b -> _solve_floats(A, b, cond_limit)`` for a fixed nested list A,
    with the same bits and errors.  A 2x2 A is screened here, once: when it
    passes, each call is :func:`_cramer` with the stored det; otherwise, and
    for any other size, each call is :func:`_solve_floats`, which raises as
    it does."""
    det = _screened_det(A, cond_limit) if len(A) == 2 else None
    if det is None:
        return lambda b: _solve_floats(A, b, cond_limit)
    return functools.partial(_cramer, A, det)


def solve_linear(A: np.ndarray, b: Vector, cond_limit: float = 1e12) -> np.ndarray:
    """Solve A x = b for a vector b as :func:`_solve_floats` does, on arrays;
    ``ValueError`` unless b has as many components as A has rows."""
    A = as_matrix(A)
    b = _of_length(b, A.shape[0], "b")
    return np.array(_solve_floats(A.tolist(), b.tolist(), cond_limit))


def _divisor(a: float) -> float:
    """The entry of a 1x1 system; :class:`RegularityError` when it is zero or
    not finite."""
    if a == 0.0:
        raise RegularityError("singular 1x1 system", condition=float("inf"))
    if not math.isfinite(a):
        raise RegularityError("non-finite 1x1 system", condition=float("nan"))
    return a


def _screened_det(A: list, cond_limit: float) -> float | None:
    """det A of a 2x2 nested list ``[[a, b], [c, d]]``, or None when A fails
    :func:`_checked_inverse`'s screen: for a 2x2 matrix ``||A||_F ||inv(A)||_F``
    is ``||A||_F^2 / |det A|``, which must be at most ``cond_limit / 4``, with
    det A finite and nonzero."""
    (a, b01), (c, d) = A
    det = a * d - b01 * c
    bounded = a * a + b01 * b01 + c * c + d * d <= 0.25 * cond_limit * abs(det)
    return det if bounded and 0.0 < abs(det) < math.inf else None


def _cramer(A: list, det: float, b: list) -> list:
    """Cramer's rule for a 2x2 nested list A whose determinant is ``det``."""
    (a, b01), (c, d) = A
    return [(d * b[0] - b01 * b[1]) / det, (a * b[1] - c * b[0]) / det]


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
