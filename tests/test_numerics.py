import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcsdyn import NewtonError, RegularityError, StepperConfig, numerics
from lcsdyn.numerics import (_COND_LIMIT_NEWTON, _DAMPING_HALVINGS, _dot, _solve_floats,
                             _solver, _transposed_matvec, as_vector, fd_jacobian,
                             newton_solve, solve_linear)
from conftest import reference_solve, rounded_add, rounded_div, rounded_dot, rounded_mul


def test_config_validation():
    # a non-finite tol (inf would make every Newton solve return its seed), a
    # bool or a non-integer max_iter is refused
    for name, value in (("tol", 1e-15), ("tol", math.inf), ("tol", math.nan),
                        ("max_iter", 0), ("max_iter", 2.5), ("max_iter", True)):
        with pytest.raises(ValueError, match=name):
            StepperConfig(**{name: value})
    assert StepperConfig(max_iter=np.int64(3)).max_iter == 3
    cfg = StepperConfig()
    assert cfg.tol == 1e-10 and cfg.max_iter == 50


def fd_newton(F, x0, cfg):
    """Newton on F with a Jacobian central-differenced in steps of 1e-6."""
    return newton_solve(F, x0, cfg, lambda x: fd_jacobian(F, x, 1e-6))


def test_newton_sqrt2():
    cfg = StepperConfig(tol=1e-12)
    res = fd_newton(lambda x: x * x - 2.0, np.array([1.0]), cfg)
    assert abs(res.x[0] - np.sqrt(2)) <= 1e-12


def test_newton_linear_one_iteration():
    cfg = StepperConfig(tol=1e-12)
    res = newton_solve(lambda x: x - 3.25, np.array([0.0]), cfg,
                       jacobian=lambda x: np.eye(1))
    assert res.iterations <= 1
    assert abs(res.x[0] - 3.25) <= 1e-12


def test_newton_cubic_damped():
    # root at 0 with a vanishing derivative; damping keeps the iteration stable
    cfg = StepperConfig(tol=1e-10, max_iter=200)
    res = fd_newton(lambda x: x ** 3, np.array([1.0]), cfg)
    assert abs(res.x[0]) <= 1e-3
    assert res.residual <= 1e-10


def test_newton_nonconvergence_carries_residual():
    cfg = StepperConfig(tol=1e-12, max_iter=3)
    with pytest.raises(NewtonError) as exc:
        fd_newton(lambda x: np.exp(x) + 1.0, np.array([5.0]), cfg)
    assert exc.value.residual > 0
    assert exc.value.iterations == 3


def test_newton_no_finite_trial_raises_newton_error():
    # finite only at the initial guess: every damped trial is NaN
    cfg = StepperConfig(tol=1e-12, max_iter=5)

    def F(x):
        return np.array([1.0]) if x[0] == 0.0 else np.array([np.nan])

    with pytest.raises(NewtonError) as exc:
        newton_solve(F, np.array([0.0]), cfg, jacobian=lambda x: np.eye(1))
    assert exc.value.residual == 1.0
    assert exc.value.iterations == 1


def test_newton_quadratic_convergence():
    # residual ratios e_{k+1}/e_k^2 stay bounded for F(x) = x^2 - 2
    residuals = []
    x = np.array([1.0])
    for _ in range(5):
        residuals.append(abs(x[0] ** 2 - 2.0))
        x = x - (x ** 2 - 2.0) / (2 * x)
    for a, b in zip(residuals[1:], residuals[:-1]):
        if b > 1e-8:
            assert a <= 0.5 * b * b / 0.5  # e' <= e^2 up to the constant 1/(2 sqrt 2)


def _linear_newton(J, x_star):
    """Newton on F(x) = J (x - x_star) with the exact Jacobian, from the origin."""
    J = np.asarray(J, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    return newton_solve(lambda x: J @ (x - x_star), np.zeros(x_star.size),
                        StepperConfig(tol=1e-12), jacobian=lambda x: J)


@pytest.mark.parametrize("entry", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
def test_newton_degenerate_1x1_jacobian_is_regularity_error(entry):
    with pytest.raises(RegularityError):
        newton_solve(lambda x: x - 1.0, np.array([0.0]), StepperConfig(),
                     jacobian=lambda x: np.array([[entry]]))


def test_newton_frobenius_screen_falls_back_to_svd():
    # cond 5e13 is under Newton's limit 1e14; the Frobenius bound is over 1e14 / 4
    J = np.diag([1.0, 2e-14])
    assert np.linalg.norm(J) * np.linalg.norm(np.linalg.inv(J)) > 2.5e13
    assert np.linalg.cond(J) == pytest.approx(5e13)
    res = _linear_newton(J, [1.0, -3.0])
    assert np.allclose(res.x, [1.0, -3.0], rtol=1e-12, atol=0.0)


def test_newton_reports_svd_condition():
    J = np.array([[1.0, 0.5], [0.0, 5e-15]])
    assert np.linalg.cond(J) > 1e14
    with pytest.raises(RegularityError) as exc:
        _linear_newton(J, [1.0, 1.0])
    assert exc.value.condition == np.linalg.cond(J)


@pytest.mark.parametrize("J", [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]],
                               [[1.0, 0.0], [0.0, np.nan]]],
                         ids=["rank_one", "zero", "nan"])
def test_newton_singular_jacobian_is_regularity_error(J):
    with pytest.raises(RegularityError):
        newton_solve(lambda x: x - 1.0, np.zeros(2), StepperConfig(),
                     jacobian=lambda x: np.asarray(J))


def test_fd_gradient_examples():
    g = fd_jacobian(lambda x: 0.5 * float(x @ x), np.array([1.0, -2.0, 0.5]), 1e-6)
    assert np.allclose(g, [1.0, -2.0, 0.5], atol=1e-9)
    g = fd_jacobian(lambda x: 7.0, np.array([1.0, 2.0]), 1e-6)
    assert np.allclose(g, 0.0)
    g = fd_jacobian(lambda x: float(np.sin(x[0])), np.array([0.0]), 1e-4)
    assert abs(g[0] - 1.0) <= 1e-8


def test_fd_jacobian_linear():
    M = np.array([[2.0, 1.0], [0.0, -3.0]])
    J = fd_jacobian(lambda x: M @ x, np.array([0.3, -0.7]), 1e-6)
    assert np.allclose(J, M, atol=1e-9)


@pytest.mark.parametrize("eps", [0.0, -1e-6, np.nan, np.inf])
def test_fd_jacobian_refuses_a_step_that_is_not_positive_and_finite(eps):
    # eps = 0 used to return [[nan]] with a RuntimeWarning
    with pytest.raises(ValueError, match="^eps must be positive and finite, got "):
        fd_jacobian(lambda x: x ** 2, [1.0], eps)


def _reference_central_differences(F, x, eps):
    """The column-by-column central-difference loop the kernel replaced."""
    cols = []
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        cols.append((np.asarray(F(xp), dtype=float) - np.asarray(F(xm), dtype=float))
                    / (2 * eps))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("F", [
    lambda x: float(np.sin(x[0]) * np.exp(x[1]) + x[2] ** 3),
    lambda x: np.array([np.sin(x[0] * x[1]), np.cos(x[2]) / (1.0 + x[0] ** 2)]),
    lambda x: np.outer(np.sin(x), np.exp(x)) - np.diag(x ** 3),
], ids=["scalar", "vector", "matrix"])
def test_fd_jacobian_bitwise_equals_reference_loop(F):
    x = np.array([0.3, -0.7, 1.1])
    for eps in (1e-6, 1e-4):
        got = fd_jacobian(F, x, eps)
        want = _reference_central_differences(F, x, eps)
        assert got.shape == np.shape(F(x)) + (x.size,)
        assert np.array_equal(got, want)


def test_solve_linear_condition_limit():
    with pytest.raises(RegularityError) as exc:
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), np.array([1.0, 2.0]))
    assert exc.value.condition is None or exc.value.condition > 1e12
    x = solve_linear(np.array([[2.0]]), np.array([3.0]))
    assert np.allclose(x, [1.5])


def test_solve_linear_frobenius_screen_falls_back_to_svd():
    # cond 8.3e11 is under the limit; the Frobenius bound 1.18e12 is over it
    A = np.diag([1.0, 1.2e-12, 1.2e-12])
    assert np.linalg.cond(A) < 1e12 < np.linalg.norm(A) * np.linalg.norm(np.linalg.inv(A))
    x = solve_linear(A, np.array([1.0, 1.2e-12, 2.4e-12]))
    assert np.allclose(x, [1.0, 1.0, 2.0], rtol=1e-12, atol=0.0)


def test_solve_linear_reports_svd_condition():
    A = np.diag([1.0, 1e-13])
    with pytest.raises(RegularityError) as exc:
        solve_linear(A, np.array([1.0, 1.0]))
    assert exc.value.condition == np.linalg.cond(A)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_solve_linear_non_finite_1x1_is_regularity_error(entry):
    # as a non-finite 2x2 system does; Newton's steps take this path for n = 1
    with pytest.raises(RegularityError):
        solve_linear(np.array([[entry]]), np.array([1.0]))


def test_solve_linear_exactly_singular_is_regularity_error():
    with pytest.raises(RegularityError):
        solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("A", [
    [[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, np.nan], [0.0, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1e-13]],
    [[1.0, 1.0], [1.0, 1.0 + 1e-13]], [[1e-200, 0.0], [0.0, 1e-200]]],
    ids=["singular", "zero", "nan", "inf", "cond_1e13", "near_singular", "tiny"])
def test_closed_form_2x2_screens_like_the_checked_inverse(monkeypatch, A):
    # Doubtful matrices leave the closed form for the checked inverse and
    # raise on its SVD path, with the SVD's condition number; the tiny
    # diagonal has cond 1 and solves there.  A solver for a fixed A, screened
    # once, takes the checked inverse at every call.
    A = np.array(A)
    b = np.array([1.0, -2.0])
    inversions = []
    checked_inverse = numerics._checked_inverse
    monkeypatch.setattr(numerics, "_checked_inverse",
                        lambda *a: inversions.append(1) or checked_inverse(*a))
    solve = _solver(A.tolist(), 1e12)
    assert not inversions
    if np.all(np.isfinite(A)) and np.linalg.cond(A) <= 1e12:
        x = solve_linear(A, b)
        assert np.allclose(x @ A.T, b, rtol=1e-12, atol=0)
        assert solve(b.tolist()) == x.tolist()
        assert len(inversions) == 2
        return
    try:
        want = np.linalg.cond(A)
    except np.linalg.LinAlgError:
        want = np.nan
    for attempt in (lambda: solve_linear(A, b), lambda: solve(b.tolist())):
        with pytest.raises(RegularityError) as exc:
            attempt()
        assert np.array_equal(exc.value.condition, want, equal_nan=True)
    assert len(inversions) == 2


def test_closed_form_2x2_agrees_with_lu():
    rng = np.random.default_rng(9)
    for _ in range(500):
        B = rng.uniform(-1, 1, (2, 2))
        A = B @ B.T + np.eye(2)  # a mass matrix: symmetric, cond <= 5
        b = rng.uniform(-3, 3, 2)
        x = solve_linear(A, b)
        assert x.tolist() == _solver(A.tolist(), 1e12)(b.tolist()) \
            == reference_solve(A, b).tolist()
        assert np.max(np.abs(x - np.linalg.solve(A, b))) <= 1e-13
    # identity: the closed form returns b itself
    b = rng.uniform(-3, 3, 2)
    assert solve_linear(np.eye(2), b).tobytes() == b.tobytes()


def test_solver_of_a_larger_matrix_is_solve_floats():
    # n >= 3: each call is _solve_floats' inv(A) @ b, bit for bit
    rng = np.random.default_rng(12)
    for n in (3, 4):
        B = rng.uniform(-1, 1, (n, n))
        A = (B @ B.T + np.eye(n)).tolist()
        solve = _solver(A, 1e12)
        for _ in range(20):
            b = rng.uniform(-3, 3, n).tolist()
            assert solve(b) == (np.linalg.inv(np.array(A)) @ np.array(b)).tolist()
        assert solve(b) == numerics._solve_floats(A, b, 1e12)


@pytest.mark.parametrize("A", [np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 1.0, 1e-13]),
                               np.full((3, 3), np.nan)], ids=["singular", "ill", "nan"])
def test_solver_defers_a_bad_larger_matrix_to_each_call(A):
    # building the solver does not raise; every call raises the
    # RegularityError _solve_floats raises, message and condition
    solve = _solver(A.tolist(), 1e12)
    with pytest.raises(RegularityError) as want:
        numerics._solve_floats(A.tolist(), [1.0, 2.0, 3.0], 1e12)
    for b in ([1.0, 2.0, 3.0], [0.0, -1.0, 0.5]):
        with pytest.raises(RegularityError) as got:
            solve(b)
        assert str(got.value) == str(want.value)
        assert np.array_equal(got.value.condition, want.value.condition, equal_nan=True)


def test_as_vector_contract():
    for x in (np.array([1.0, 2.0]), np.zeros((2, 3)), np.arange(4.0)[1:3]):
        assert as_vector(x) is x

    class Sub(np.ndarray):
        pass

    inputs = ([1.0, 2.0], 3, np.array(2.5), np.array([1.0, 2.0], dtype=np.float32),
              np.array([1.0, 2.0]).view(Sub), np.array([1, 2]))
    for x in inputs:
        y = as_vector(x)
        assert y is not x and type(y) is np.ndarray
        assert y.dtype == np.float64 and y.ndim >= 1
        assert np.array_equal(y, np.atleast_1d(x))


def _assert_dot_rounds_per_operation(a, b, c):
    # a b + c as a 2-element dot, in both orders of its terms: each product
    # and each sum rounded once, bit for bit, the sign of zero included (or
    # both NaN)
    for x, y in (([a, c], [b, 1.0]), ([c, a], [1.0, b])):
        assert _same_floats([_dot(x, y)], [rounded_dot(x, y)]), (x, y)


_WIDE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
_MODERATE = st.builds(lambda m, e: math.ldexp(m, e),
                      st.floats(-2.0, 2.0, allow_nan=False),
                      st.integers(-1100, 1022))


@settings(max_examples=500, deadline=None)
@given(a=st.one_of(_WIDE, _MODERATE), b=st.one_of(_WIDE, _MODERATE),
       c=st.one_of(_WIDE, _MODERATE))
def test_dot_rounds_per_operation_over_a_wide_exponent_range(a, b, c):
    _assert_dot_rounds_per_operation(a, b, c)


@settings(max_examples=300, deadline=None)
@given(a=_MODERATE, b=_MODERATE, k=st.integers(-2, 2))
def test_dot_rounds_per_operation_near_cancellation(a, b, k):
    # c within a few ulps of -a*b, where a fused product would keep the
    # product's rounding error and the rounded one cancels it
    p = a * b
    if math.isfinite(p):
        c = -p
        for _ in range(abs(k)):
            c = math.nextafter(c, math.copysign(math.inf, k))
        _assert_dot_rounds_per_operation(a, b, c)


_TINY, _HUGE = 5e-324, sys.float_info.max
DOT_EDGE_TERMS = [
    # every sign combination of zeros
    *[(sa * 0.0, sb * x, sc * 0.0) for sa in (1, -1) for sb in (1, -1)
      for sc in (1, -1) for x in (0.0, 1.5)],
    (1.5, -0.0, 0.0), (-1.5, 0.0, -0.0), (0.0, _HUGE, -0.0),
    # exact cancellation
    (3.0, 7.0, -21.0), (-3.0, 7.0, 21.0), (0.1, 0.1, -(0.1 * 0.1)),
    (1.0 + 2.0 ** -52, 1.0 - 2.0 ** -52, -1.0),
    # subnormal and near-underflow factors and products
    (_TINY, 0.5, 0.0), (_TINY, -0.5, -0.0), (_TINY, 1.0, -_TINY), (_TINY, 2.0 ** 60, 1.0),
    (2.0 ** -1022, 2.0 ** -10, 0.0), (1e-160, 1e-160, -1e-320), (1e-300, 1e300, -1.0),
    (2.0 ** -600, 2.0 ** -400, 2.0 ** -1060), (2.0 ** -484, 2.0 ** -484, 0.0),
    (0.1 * 2.0 ** -480, 0.3 * 2.0 ** -480, 0.0), (_TINY, 2.0 ** 1000, -2.0 ** -74),
    # near-overflow factors, products and sums
    (_HUGE, 1.0, _HUGE), (_HUGE, 1.0, -_HUGE), (_HUGE, 2.0, -_HUGE),
    (_HUGE, -2.0, _HUGE), (2.0 ** 512, 2.0 ** 512, -_HUGE), (2.0 ** 1000, 2.0 ** 30, 0.0),
    (1.5 * 2.0 ** 1010, 1.25 * 2.0 ** 10, -_HUGE), (2.0 ** 996, 3.0, 1.0),
    (_HUGE, 0.5, _HUGE), (_HUGE, 0.5, 0.5 * _HUGE), (-_HUGE, _HUGE, 1.0),
    # one factor 0, the other inf or nan
    (0.0, math.inf, 1.0), (-math.inf, 0.0, 1.0), (0.0, math.nan, 0.0),
    # inf and nan inputs
    (math.inf, 1.0, 1.0), (math.inf, -1.0, math.inf), (math.inf, 1.0, -math.inf),
    (1.0, 2.0, math.inf), (1.0, 2.0, -math.inf), (_HUGE, _HUGE, -math.inf),
    (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan),
    (math.inf, math.inf, math.nan), (-math.inf, math.inf, math.inf),
]


@pytest.mark.parametrize("a, b, c", DOT_EDGE_TERMS)
def test_dot_edge_table(a, b, c):
    _assert_dot_rounds_per_operation(a, b, c)
    _assert_dot_rounds_per_operation(b, a, c)


DOT_EDGES = [0.0, -0.0, 1.0, -1.5, 3.7, 5e-324, -1e-310, 1e-160, -2.5e-160, 1e200, -1e308,
             math.inf, -math.inf, math.nan]


def _same_floats(got: list, want: list) -> bool:
    """Equal bit for bit, the sign of zero included, or both NaN."""
    return len(got) == len(want) and all(
        a.hex() == b.hex() or math.isnan(a) and math.isnan(b) for a, b in zip(got, want))


def test_float_dot_and_transposed_matvec_round_per_operation():
    # the plain Hamiltonian steps compute the dots P @ q and transposed
    # matvecs M.T @ y on floats; the zero accumulator turns a -0.0 sum into
    # +0.0, which a bare product would keep
    rng = np.random.default_rng(12)
    samples = [rng.normal(size=4).tolist() for _ in range(2000)]
    samples += [[a, b, c, d] for a in DOT_EDGES for b in DOT_EDGES
                for c, d in ((1.5, -0.0), (-0.0, -1e-310), (math.nan, 2.0))]
    for a, b, c, d in samples:
        for n in (1, 2):
            x, y = [a, b][:n], [c, d][:n]
            assert _same_floats([_dot(x, y)], [rounded_dot(x, y)])
        M, y = [[a, b], [c, d]], [b, -c]
        assert _same_floats(_transposed_matvec(M, y), [rounded_dot([a, c], y),
                                                       rounded_dot([b, d], y)])
        assert _same_floats(_transposed_matvec([[a]], [c]), [rounded_dot([a], [c])])
    M, y = rng.normal(size=(3, 3)), rng.normal(size=3)
    assert _transposed_matvec(M.tolist(), y.tolist()) == (M.T @ y).tolist()
    assert _dot(y.tolist(), M[0].tolist()) == float(y @ M[0])


@settings(max_examples=1000, deadline=None)
@given(a=st.one_of(st.floats(), _MODERATE), b=st.one_of(st.floats(), _MODERATE))
def test_rounded_reference_is_ieee_arithmetic(a, b):
    # conftest's rational reference rounds as the float unit does, so the
    # bitwise tests built on it test the order of operations, not it
    for got, want in ((rounded_mul(a, b), a * b), (rounded_add(a, b), a + b),
                      (rounded_add(a, -b), a - b)):
        assert _same_floats([got], [want]), (a, b)
    if b:
        assert _same_floats([rounded_div(a, b)], [a / b]), (a, b)


# --- the accepted full step against the loop it shortcuts ---------------------
#
# ``reference_newton`` is the damped Newton iteration as written before its
# accepted full step had a path of its own: every trial, the full step
# included, goes through the halving loop, as ``x + step dx`` with step 1.0
# first.  The library's iteration must evaluate its system at the same trials
# and end with the same (x, iterations, residual), bit for bit, or raise the
# same error with the same message and attributes.

def reference_newton(system, x0, cfg):
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


_COUPLINGS = {1: [[1.0]], 2: [[1.0, 0.3], [-0.2, 0.9]],
              3: [[1.0, 0.3, 0.1], [-0.2, 0.9, 0.2], [0.1, -0.1, 1.1]]}
_SINGULAR = {1: [[0.0]], 2: [[1.0, 2.0], [2.0, 4.0]],
             3: [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]}
# cond 1e15, over Newton's limit 1e14 (a 1x1 system has no such limit)
_ILL = {2: [[1.0, 0.0], [0.0, 1e-15]], 3: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                          [0.0, 0.0, 1e-15]]}


def _cubic(y):
    return y + 0.1 * y ** 3, 1.0 + 0.3 * y * y


def _log(y):
    return (math.log(y), 1.0 / y) if y > 0.0 else (math.nan, math.nan)


def _linear(y):
    return y, 1.0


# case -> (g, coupling M by n, x0 entry, target, cfg, how it ends: "ok" or the
# start of "ErrorType: message"); the system is g(M x) = target componentwise,
# with Jacobian g'(M x) M
_NEWTON_CASES = {
    "full_steps": (_cubic, _COUPLINGS, 0.5, 0.2, StepperConfig(tol=1e-12), "ok"),
    "converged_at_max_iter": (_linear, _COUPLINGS, 1.0, 0.3,
                              StepperConfig(tol=1e-12, max_iter=1), "ok"),
    "halvings": (lambda y: (math.atan(y), 1.0 / (1.0 + y * y)), _COUPLINGS, 3.0, 0.0,
                 StepperConfig(tol=1e-12), "ok"),
    "non_finite_full_step": (_log, _COUPLINGS, 3.0, 0.0, StepperConfig(tol=1e-12), "ok"),
    "no_finite_trial": (lambda y: (1.0, 1.0) if y == 0.5 else (math.nan, 1.0),
                        {1: [[1.0]]}, 0.5, 0.0, StepperConfig(),
                        "NewtonError: no damped Newton trial"),
    "stall": (lambda y: (1e-3, 1.0), _COUPLINGS, 0.5, 0.0, StepperConfig(tol=1e-12),
              "NewtonError: Newton stalled"),
    "max_iter": (_cubic, _COUPLINGS, 0.5, 0.2, StepperConfig(tol=1e-14, max_iter=2),
                 "NewtonError: Newton did not converge in 2"),
    "initial_non_finite": (_log, _COUPLINGS, -1.0, 0.0, StepperConfig(),
                           "NewtonError: residual not finite"),
    "singular": (_linear, _SINGULAR, 0.5, 1.0, StepperConfig(), "RegularityError"),
    "non_finite_jacobian": (lambda y: (y, math.inf), _COUPLINGS, 0.5, 1.0, StepperConfig(),
                            "RegularityError"),
    "ill_conditioned": (_linear, _ILL, 0.5, 1.0, StepperConfig(),
                        "RegularityError: ill-conditioned"),
}


def _coupled_system(g, M, target, trials):
    """The system g(M x) = target on float lists, recording each trial x."""
    def system(x):
        trials.append(np.array(x).tobytes())
        y = [math.fsum(m * v for m, v in zip(row, x)) for row in M]
        values = [g(v) for v in y]
        return ([v - target for v, _ in values],
                lambda: [[dv * m for m in row] for (_, dv), row in zip(values, M)])

    return system


def _newton_outcome(newton, case, n):
    """(outcome, trials): the bits of newton's result, or its error's type,
    message and attributes, and the bits of every trial it evaluated."""
    g, M, x0, target, cfg, _ = _NEWTON_CASES[case]
    trials = []
    try:
        x, iterations, residual = newton(_coupled_system(g, M[n], target, trials),
                                         [x0] * n, cfg)
        outcome = ("ok", np.array(x).tobytes(), iterations, np.float64(residual).tobytes())
    except (NewtonError, RegularityError) as e:
        attributes = {k: np.float64(v).tobytes() for k, v in vars(e).items()}
        outcome = (type(e).__name__, str(e), attributes)
    return outcome, trials


@pytest.mark.parametrize("case, n", [(case, n) for case, spec in _NEWTON_CASES.items()
                                     for n in spec[1]])
def test_newton_full_step_is_bitwise_the_damped_loop(case, n):
    got, got_trials = _newton_outcome(numerics._newton, case, n)
    want, want_trials = _newton_outcome(reference_newton, case, n)
    assert got == want
    assert got_trials == want_trials
    ends = _NEWTON_CASES[case][-1]
    assert got[0] == "ok" if ends == "ok" else f"{got[0]}: {got[1]}".startswith(ends), got
    if case in ("halvings", "non_finite_full_step"):
        # some iteration tried more than its full step
        assert len(got_trials) > 1 + got[2]
