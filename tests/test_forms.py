import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcsdyn import (lc_pc_two_form, lcs_condition_check, midpoint_rule,
                    pc_two_form, planar_2d, trapezoidal_rule)
from lcsdyn.discretize import DiscreteLagrangian
from conftest import free_line_system


def test_pc_two_form_free_particle_regular(free_line_flat):
    Ld = midpoint_rule(free_line_flat.lagrangian, 0.1)
    form = pc_two_form(Ld)
    M = form.components([0.2], [0.3])
    assert np.array_equal(M, [[0.0, 10.0], [-10.0, 0.0]])
    assert np.linalg.det(Ld.d1d2([0.2], [0.3])) == pytest.approx(-10.0)


def test_pc_two_form_separable_degenerate():
    Ld = DiscreteLagrangian(
        n=1, h=0.1,
        value=lambda q0, q1: float(q0[0] ** 2 + np.sin(q1[0])),
        d1=lambda q0, q1: np.array([2 * q0[0]]),
        d2=lambda q0, q1: np.array([np.cos(q1[0])]),
        d1d1=lambda q0, q1: np.array([[2.0]]),
        d1d2=lambda q0, q1: np.zeros((1, 1)),
        d2d2=lambda q0, q1: np.array([[-np.sin(q1[0])]]))
    assert np.linalg.det(Ld.d1d2([0.2], [0.3])) == 0.0


def test_pc_two_form_harmonic_value(harmonic_flat):
    Ld = midpoint_rule(harmonic_flat.lagrangian, 0.1)
    assert np.linalg.det(Ld.d1d2([1.0], [1.0])) == pytest.approx(-10.025, abs=1e-13)


def test_lc_pc_flat_equals_plain(harmonic_flat):
    Ld = midpoint_rule(harmonic_flat.lagrangian, 0.1)
    plain = pc_two_form(Ld)
    conf = lc_pc_two_form(Ld, harmonic_flat.atlas, 0)
    rng = np.random.default_rng(41)
    for _ in range(20):
        q0, q1 = rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)
        assert np.array_equal(plain.components(q0, q1), conf.components(q0, q1))


def test_lc_pc_single_component_1d(free_line):
    Ld = midpoint_rule(free_line.lagrangian, 0.1)
    form = lc_pc_two_form(Ld, free_line.atlas, 0)
    q0, q1 = np.array([0.2]), np.array([0.35])
    M = form.components(q0, q1)
    want = -Ld.d1d2(q0, q1)[0, 0] + 0.1 * Ld.d2(q0, q1)[0]
    assert M[0, 1] == pytest.approx(want, abs=1e-14)
    assert np.array_equal(M, -M.T)


def test_lc_pc_cross_check_against_rescaled_local_form():
    # omega = exp(sigma(q0)) * (-d[exp(-sigma(q0)) d2 Ld dq1]), differenced
    system = planar_2d(0.3, 0.1)
    Ld = midpoint_rule(system.lagrangian, 0.1)
    form = lc_pc_two_form(Ld, system.atlas, 0)
    ch = system.atlas.chart(0)
    rng = np.random.default_rng(42)
    eps = 1e-6
    for _ in range(5):
        q0, q1 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        local_theta = lambda a, b: np.exp(-ch.sigma(a)) * Ld.d2(a, b)
        M = np.empty((2, 2))
        for i in range(2):
            qp, qm = q0.copy(), q0.copy()
            qp[i] += eps
            qm[i] -= eps
            M[i] = -(local_theta(qp, q1) - local_theta(qm, q1)) / (2 * eps)
        M *= np.exp(ch.sigma(q0))
        got = form.components(q0, q1)
        assert np.max(np.abs(got[:2, 2:] - M)) <= 1e-8
        assert np.array_equal(got, -got.T)


def test_lcs_condition_trivial_1d(free_line):
    Ld = midpoint_rule(free_line.lagrangian, 0.1)
    form = lc_pc_two_form(Ld, free_line.atlas, 0)
    report = lcs_condition_check(form, free_line.atlas.chart(0).grad, [])
    assert report.passed
    assert "trivial" in report.note


@pytest.mark.parametrize("rule", [midpoint_rule, trapezoidal_rule])
def test_lcs_condition_planar(rule):
    system = planar_2d(0.3, 0.1)
    Ld = rule(system.lagrangian, 0.1)
    form = lc_pc_two_form(Ld, system.atlas, 0)
    rng = np.random.default_rng(43)
    pts = [rng.uniform(-1, 1, 4) for _ in range(20)]
    report = lcs_condition_check(form, system.atlas.chart(0).grad, pts)
    assert report.passed
    assert report.max_deviation <= report.tolerance


def test_lcs_condition_flat_closedness():
    system = planar_2d(0.0, 0.0)
    Ld = midpoint_rule(system.lagrangian, 0.1)
    form = lc_pc_two_form(Ld, system.atlas, 0)
    rng = np.random.default_rng(44)
    pts = [rng.uniform(-1, 1, 4) for _ in range(10)]
    report = lcs_condition_check(form, system.atlas.chart(0).grad, pts)
    assert report.passed
    assert report.max_deviation <= 1e-10  # d omega = 0 for the exact form


@settings(max_examples=40, deadline=None)
@given(q0=st.floats(-2, 2, allow_nan=False), q1=st.floats(-2, 2, allow_nan=False),
       c=st.floats(-1, 1, allow_nan=False))
def test_returned_matrices_antisymmetric(q0, q1, c):
    system = free_line_system(c)
    Ld = midpoint_rule(system.lagrangian, 0.1)
    for form in (pc_two_form(Ld), lc_pc_two_form(Ld, system.atlas, 0)):
        M = form.components([q0], [q1])
        assert np.array_equal(M + M.T, np.zeros_like(M))
