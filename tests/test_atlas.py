import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lcsdyn import (Chart, ConformalAtlas, DomainError, RegularityError, a_matrix,
                    cocycle_check, free_rotor_circle, harmonic_1d, lcs_two_form_matrix,
                    lee_form, planar_2d, transition_apply)
from lcsdyn.numerics import fd_jacobian
from conftest import rotor_with_transition_jacobian


def chart_2d(sigma, grad=None):
    return ConformalAtlas(charts=(Chart(
        id=0, dim=2, lower=[-5, -5], upper=[5, 5], sigma=sigma,
        sigma_grad=grad),))


def test_lee_form_linear():
    atlas = harmonic_1d(0.1).atlas
    assert np.allclose(lee_form(atlas, 0, [3.0]), [0.1])


def test_lee_form_zero():
    atlas = harmonic_1d(0.0).atlas
    assert np.allclose(lee_form(atlas, 0, [2.7]), [0.0])


def test_lee_form_product():
    atlas = chart_2d(lambda q: float(q[0] * q[1]),
                     lambda q: np.array([q[1], q[0]]))
    assert np.allclose(lee_form(atlas, 0, [2.0, 3.0]), [3.0, 2.0])


def test_lee_form_errors():
    atlas = harmonic_1d(0.1).atlas
    with pytest.raises(KeyError):
        lee_form(atlas, 7, [0.0])
    with pytest.raises(DomainError) as exc:
        lee_form(atlas, 0, [100.0])
    assert "chart 0" in str(exc.value) and "q[0]" in str(exc.value)


def test_lee_form_matches_finite_differences():
    atlas = chart_2d(lambda q: float(np.sin(q[0]) * q[1] + 0.2 * q[0]),
                     lambda q: np.array([np.cos(q[0]) * q[1] + 0.2,
                                         np.sin(q[0])]))
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = rng.uniform(-4, 4, 2)
        phi = lee_form(atlas, 0, q)
        fd = fd_jacobian(atlas.chart(0).sigma, q, 1e-5)
        scale = max(1.0, float(np.max(np.abs(phi))))
        assert np.max(np.abs(phi - fd)) <= 1e-6 * scale


def test_lee_form_closedness():
    # antisymmetrized finite-difference jacobian of the lee form vanishes
    atlas = chart_2d(lambda q: float(np.sin(q[0]) * q[1] + 0.2 * q[0]),
                     lambda q: np.array([np.cos(q[0]) * q[1] + 0.2,
                                         np.sin(q[0])]))
    rng = np.random.default_rng(1)
    eps = 1e-5
    for _ in range(30):
        q = rng.uniform(-4, 4, 2)
        J = np.column_stack([
            (lee_form(atlas, 0, q + eps * e) - lee_form(atlas, 0, q - eps * e))
            / (2 * eps)
            for e in np.eye(2)])
        assert np.max(np.abs(J - J.T)) <= 1e-5


def test_a_matrix_examples():
    assert np.array_equal(a_matrix([1.7], [2.3]), [[0.0]])
    assert np.array_equal(a_matrix([1.0, 0.0], [0.0, 1.0]),
                          [[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(a_matrix([0.0, 0.0], [3.0, -4.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        a_matrix([1.0], [1.0, 2.0])


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 5), data=st.data())
def test_a_matrix_antisymmetric_exactly(n, data):
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    phi = data.draw(hnp.arrays(float, n, elements=finite))
    p = data.draw(hnp.arrays(float, n, elements=finite))
    A = a_matrix(phi, p)
    assert np.array_equal(A + A.T, np.zeros((n, n)))


def test_two_form_matrix_examples():
    flat = harmonic_1d(0.0).atlas
    assert np.array_equal(lcs_two_form_matrix(flat, 0, [0.3], [0.7]),
                          [[0.0, 1.0], [-1.0, 0.0]])
    conf = harmonic_1d(0.1).atlas
    assert np.array_equal(lcs_two_form_matrix(conf, 0, [0.3], [0.7]),
                          [[0.0, 1.0], [-1.0, 0.0]])
    atlas = chart_2d(lambda q: float(q[0]), lambda q: np.array([1.0, 0.0]))
    got = lcs_two_form_matrix(atlas, 0, [0.0, 0.0], [0.0, 1.0])
    want = np.array([[0, 1, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
                    dtype=float)
    assert np.array_equal(got, want)


def test_two_form_determinant_one():
    atlas = planar_2d(0.7, -0.4).atlas
    rng = np.random.default_rng(2)
    for _ in range(100):
        q, p = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)
        M = lcs_two_form_matrix(atlas, 0, q, p)
        assert abs(np.linalg.det(M) - 1.0) <= 1e-12
        assert np.array_equal(M + M.T, np.zeros_like(M))


def test_transition_identity():
    rotor = free_rotor_circle(0.1)
    q, r = transition_apply(rotor.atlas, 0, 1, [3.0], [1.3], "r")
    assert np.allclose(q, [3.0]) and np.allclose(r, [1.3])


def test_transition_circle_r_scaling():
    rotor = free_rotor_circle(0.1)
    q, r = transition_apply(rotor.atlas, 0, 1, [0.0], [1.0], "r")
    assert np.allclose(q, [2 * np.pi])
    assert abs(r[0] - np.exp(-0.2 * np.pi)) <= 1e-14


def test_transition_p_kind_unchanged():
    rotor = free_rotor_circle(0.1)
    q, p = transition_apply(rotor.atlas, 0, 1, [0.0], [0.8], "p")
    assert np.allclose(q, [2 * np.pi]) and np.allclose(p, [0.8])
    with pytest.raises(DomainError):
        transition_apply(rotor.atlas, 0, 1, [2.0], [1.0], "p")
    with pytest.raises(ValueError):
        transition_apply(rotor.atlas, 0, 1, [0.0], [1.0], "x")


@pytest.mark.parametrize("entry", [0.0, np.nan], ids=["zero", "nan"])
def test_transition_with_a_bad_jacobian_is_regularity_error(entry):
    # a singular or non-finite Jacobian raises the typed error, not numpy's
    # LinAlgError or a silent NaN momentum
    rotor = rotor_with_transition_jacobian(entry)
    for kind in ("p", "r"):
        with pytest.raises(RegularityError):
            transition_apply(rotor.atlas, 0, 1, [3.0], [1.3], kind)


def test_cocycle_single_chart_empty_pass():
    report = cocycle_check(harmonic_1d(0.3).atlas)
    assert report.passed and report.entries == () and report.max_deviation == 0.0


def test_cocycle_circle_passes():
    report = cocycle_check(free_rotor_circle(0.1).atlas)
    assert report.passed
    assert report.max_deviation <= 1e-12
    assert all(e.n_samples >= 8 for e in report.entries)


def test_cocycle_corrupted_sigma_fails():
    rotor = free_rotor_circle(0.1)
    c0, c1 = rotor.atlas.charts
    bad0 = Chart(id=0, dim=1, lower=c0.lower, upper=c0.upper,
                 sigma=lambda q: 0.1 * float(q[0]) + 0.01 * float(q[0]),
                 sigma_grad=lambda q: np.array([0.11]))
    bad_atlas = ConformalAtlas(charts=(bad0, c1),
                               transitions=rotor.atlas.transitions)
    report = cocycle_check(bad_atlas)
    assert not report.passed
    assert report.max_deviation > 1e-10


def test_chart_requires_nonempty_domain():
    with pytest.raises(ValueError):
        Chart(id=0, dim=1, lower=[1.0], upper=[1.0], sigma=lambda q: 0.0)
    with pytest.raises(ValueError):
        Chart(id=0, dim=2, lower=[0.0], upper=[1.0], sigma=lambda q: 0.0)


def test_constant_lee_form_is_checked_and_copied():
    coeffs = np.array([0.3, 0.1])
    chart = Chart(id=0, dim=2, lower=[-1, -1], upper=[1, 1],
                  sigma=lambda q: float(coeffs @ q), constant_lee=coeffs)
    coeffs[0] = 9.0  # the chart holds its own copy
    phi = chart.grad([0.2, 0.4])
    phi[1] = 9.0     # and hands out copies
    assert chart.grad([0.0, 0.0]).tolist() == [0.3, 0.1]
    with pytest.raises(ValueError, match="constant_lee"):
        Chart(id=0, dim=2, lower=[-1, -1], upper=[1, 1], sigma=lambda q: 0.0,
              constant_lee=[0.3])
