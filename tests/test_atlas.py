import dataclasses

import numpy as np
import pytest

from lcsdyn import (Chart, ConformalAtlas, DomainError, RegularityError, StepperConfig,
                    TransitionMap, build_right_hamiltonian, cocycle_check,
                    conformal_midpoint_rule, free_rotor_circle, harmonic_1d, integrate,
                    integrate_hamiltonian, lee_form, transition_apply)
from lcsdyn.atlas import SWITCH_MARGIN
from lcsdyn.numerics import fd_jacobian
from conftest import rotor_with_transition_jacobian


def chart_2d(sigma, grad, hess):
    return ConformalAtlas(charts=(Chart(
        id=0, dim=2, lower=[-5, -5], upper=[5, 5], sigma=sigma,
        sigma_grad=grad, sigma_hess=hess),))


def sin_chart():
    """sigma = sin(q0) q1 + 0.2 q0 with its closed-form derivatives."""
    return chart_2d(lambda q: float(np.sin(q[0]) * q[1] + 0.2 * q[0]),
                    lambda q: np.array([np.cos(q[0]) * q[1] + 0.2, np.sin(q[0])]),
                    lambda q: np.array([[-np.sin(q[0]) * q[1], np.cos(q[0])],
                                        [np.cos(q[0]), 0.0]]))


def test_lee_form_linear():
    atlas = harmonic_1d(0.1).atlas
    assert np.allclose(lee_form(atlas, 0, [3.0]), [0.1])


def test_lee_form_zero():
    atlas = harmonic_1d(0.0).atlas
    assert np.allclose(lee_form(atlas, 0, [2.7]), [0.0])


def test_lee_form_product():
    atlas = chart_2d(lambda q: float(q[0] * q[1]),
                     lambda q: np.array([q[1], q[0]]),
                     lambda q: np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(lee_form(atlas, 0, [2.0, 3.0]), [3.0, 2.0])


def test_lee_form_errors():
    atlas = harmonic_1d(0.1).atlas
    with pytest.raises(KeyError):
        lee_form(atlas, 7, [0.0])
    with pytest.raises(DomainError) as exc:
        lee_form(atlas, 0, [100.0])
    assert "chart 0" in str(exc.value) and "q[0]" in str(exc.value)


def test_lee_form_matches_finite_differences():
    atlas = sin_chart()
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = rng.uniform(-4, 4, 2)
        phi = lee_form(atlas, 0, q)
        fd = fd_jacobian(atlas.chart(0).sigma, q, 1e-5)
        scale = max(1.0, float(np.max(np.abs(phi))))
        assert np.max(np.abs(phi - fd)) <= 1e-6 * scale


def test_lee_form_closedness():
    # antisymmetrized finite-difference jacobian of the lee form vanishes
    atlas = sin_chart()
    rng = np.random.default_rng(1)
    eps = 1e-5
    for _ in range(30):
        q = rng.uniform(-4, 4, 2)
        J = np.column_stack([
            (lee_form(atlas, 0, q + eps * e) - lee_form(atlas, 0, q - eps * e))
            / (2 * eps)
            for e in np.eye(2)])
        assert np.max(np.abs(J - J.T)) <= 1e-5


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
                 sigma_grad=lambda q: np.array([0.11]),
                 sigma_hess=lambda q: np.zeros((1, 1)))
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


@pytest.mark.parametrize("declared", [{}, {"sigma_grad": lambda q: np.zeros(1)},
                                      {"sigma_hess": lambda q: np.zeros((1, 1))}],
                         ids=["neither", "grad_only", "hess_only"])
def test_chart_must_declare_its_lee_form(declared):
    with pytest.raises(ValueError, match="chart 3: declare constant_lee"):
        Chart(id=3, dim=1, lower=[0.0], upper=[1.0], sigma=lambda q: 0.0, **declared)


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


def test_chart_contains_reads_a_float_list_as_an_array():
    # a march asks with its float-list window, a caller with any array-like;
    # the bounds are read once per chart, and a wrong length still raises
    chart = Chart(id=0, dim=2, lower=[-1.0, 0.0], upper=[1.0, 2.0], sigma=lambda q: 0.0,
                  constant_lee=[0.0, 0.0])
    points = [[0.0, 1.0], [-1.0, 0.0], [1.0, 2.0], [-0.8, 0.2], [1.0000001, 1.0],
              [-1.0000001, 1.0], [0.0, 2.0000001], [np.nan, 1.0], [0.0, np.nan],
              [np.inf, 1.0], [-np.inf, 1.0]]
    for q in points:
        want = all(lo <= x <= hi for lo, hi, x in zip([-1.0, 0.0], [1.0, 2.0], q))
        assert chart.contains(q) is want
        assert chart.contains(np.array(q)) is want
        assert chart.contains(tuple(q)) is want
    assert chart.contains([-1.0, 0.0]) and chart.contains([1.0, 2.0])
    assert not chart.contains([np.nan, 1.0])
    for q in ([0.0], [0.0, 1.0, 1.0], np.zeros(3)):
        with pytest.raises(ValueError):
            chart.contains(q)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chart_core_is_the_domain_shrunk_by_the_switch_margin(n):
    # the core is read once per chart, on unpacked floats for n = 1 and 2
    lower, upper = [-1.0, 0.0, 0.3][:n], [1.0, 2.0, 0.7][:n]
    chart = Chart(id=0, dim=n, lower=lower, upper=upper, sigma=lambda q: 0.0,
                  constant_lee=[0.0] * n)
    m = SWITCH_MARGIN

    def want(q):
        return all(lo + m * (hi - lo) <= x <= hi - m * (hi - lo)
                   for lo, hi, x in zip(lower, upper, q))

    inner = [lo + m * (hi - lo) for lo, hi in zip(lower, upper)]
    outer = [hi - m * (hi - lo) for lo, hi in zip(lower, upper)]
    mid = [0.5 * (lo + hi) for lo, hi in zip(lower, upper)]
    rows = [mid, inner, outer, lower, upper]
    for i in range(n):
        for x in (np.nextafter(inner[i], -np.inf), np.nextafter(outer[i], np.inf),
                  np.nan, np.inf, -np.inf):
            rows.append(mid[:i] + [float(x)] + mid[i + 1:])
    for q in rows:
        assert chart._core(q) is want(q)
    assert chart._core(mid) and chart._core(inner) and chart._core(outer)
    assert not chart._core(lower) and not chart._core(upper)


@pytest.mark.parametrize("bound", [np.inf, -np.inf, np.nan])
def test_chart_refuses_a_non_finite_bound(bound):
    # an infinite bound made the core and Chart.contains compare against NaN
    # (lo + 0.0 * inf), so a march on such a chart left it at its first step
    for lower, upper in (([bound], [1.0]), ([-1.0], [bound]),
                         ([-np.inf], [np.inf])):
        with pytest.raises(ValueError, match="^chart 4: bounds must be finite$"):
            Chart(id=4, dim=1, lower=lower, upper=upper, sigma=lambda q: 0.0,
                  constant_lee=[0.2])


@pytest.mark.parametrize("lower, upper, message", [
    ([0.0, 0.0], [1.0], "overlap bounds must be vectors of one length"),
    ([0.0], [1.0, 1.0], "overlap bounds must be vectors of one length"),
    ([[0.0], [0.0]], [[1.0], [1.0]], "overlap bounds must be vectors of one length"),
    ([1.0], [1.0], "empty overlap box")],
    ids=["long_lower", "long_upper", "two_dimensional", "empty"])
def test_transition_refuses_a_malformed_overlap_box(lower, upper, message):
    # a mismatched box used to broadcast in TransitionMap.contains
    with pytest.raises(ValueError, match=f"^transition 0->1: {message}$"):
        TransitionMap(0, 1, lower, upper, forward=lambda q: q,
                      jacobian=lambda q: np.eye(1))


def test_atlas_refuses_an_overlap_box_of_another_dimension():
    rotor = free_rotor_circle(0.1)
    box = TransitionMap(1, 0, [0.0, 0.0], [1.0, 1.0], forward=lambda q: q,
                        jacobian=lambda q: np.eye(2))
    with pytest.raises(ValueError, match="^transition 1->0: overlap box of another "
                                         "dimension than chart 1$"):
        ConformalAtlas(charts=rotor.atlas.charts, transitions=(box,))


def test_switch_needs_both_points_in_the_overlap_and_q_next_in_the_target_core():
    rotor = free_rotor_circle(0.1).atlas
    quarter = np.pi / 4
    # chart 0 is (-pi/4, 5pi/4), core (-0.4, 4.4) quarters; chart 1 is
    # (3pi/4, 9pi/4), core (3.6, 8.4) quarters; the direct overlap is (3, 5)
    # quarters, the wrap-around one (-1, 1) quarters of chart 0
    t, q_moved = rotor._switch(0, [4.3 * quarter], [4.5 * quarter])
    assert (t.from_chart, t.to_chart) == (0, 1) and q_moved == [4.5 * quarter]
    # one of the two active points outside the overlap: no switch
    assert rotor._switch(0, [2.9 * quarter], [4.5 * quarter]) is None
    assert rotor._switch(0, [4.9 * quarter], [5.1 * quarter]) is None
    # both points in the overlap, but q_next misses chart 1's core
    assert not rotor.chart(1)._core([3.4 * quarter])
    assert rotor._switch(0, [3.2 * quarter], [3.4 * quarter]) is None
    # the wrap-around overlap carries q_next by 2 pi into chart 1's core
    t, q_moved = rotor._switch(0, [-0.3 * quarter], [-0.5 * quarter])
    assert t.to_chart == 1 and q_moved == [-0.5 * quarter + 2 * np.pi]


def test_transition_contains_checks_the_length_of_q():
    # a wrong-length q used to broadcast against the one-component overlap box
    rotor = free_rotor_circle(0.1)
    t = rotor.atlas.find_transition(0, 1, [2.5])
    assert t is not None and t.contains([2.5]) and t.contains(np.array([2.5]))
    assert not t.contains([2.0])
    for q in ([2.5, 2.6], [[2.5]], np.zeros(0)):
        with pytest.raises(ValueError, match="^q "):
            t.contains(q)
    with pytest.raises(ValueError, match="q has 2 components"):
        rotor.atlas.find_transition(0, 1, [2.5, 2.6])


def test_transition_apply_names_a_wrong_length_momentum():
    rotor = free_rotor_circle(0.1)
    for kind in ("p", "r"):
        with pytest.raises(ValueError, match="momentum has 2 components, expected 1"):
            transition_apply(rotor.atlas, 0, 1, [2.5], [1.0, 2.0], kind)
        with pytest.raises(ValueError, match="momentum must be one-dimensional"):
            transition_apply(rotor.atlas, 0, 1, [2.5], [[1.0]], kind)


def test_a_forward_of_the_wrong_length_is_named():
    # Every forward of the rotor atlas padded by one component used to end a
    # march at its first chart switch in a bare unpacking error from a jet,
    # naming neither the transition nor the point.
    rotor = free_rotor_circle(-0.1)
    padded = ConformalAtlas(charts=rotor.atlas.charts, transitions=tuple(
        dataclasses.replace(t, forward=lambda q, f=t.forward: np.append(f(q), 0.0))
        for t in rotor.atlas.transitions))
    cfg = StepperConfig(tol=1e-12)
    Ld = conformal_midpoint_rule(rotor.lagrangian, padded, 0, 0.05)
    for run in (lambda: integrate(Ld, padded, 0, [0.5], [0.55], 200, cfg),
                lambda: integrate_hamiltonian(build_right_hamiltonian(Ld, padded, 0), padded,
                                              0, [0.5], [1.0], 200, cfg),
                lambda: transition_apply(padded, 0, 1, [3.0], [1.0], "p")):
        with pytest.raises(ValueError, match=r"^transition 0->1: forward gave shape \(2,\), "
                                             r"expected \(1,\)$"):
            run()
