import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lcsdyn import (Chart, ConformalAtlas, RegularityError, ShootingError,
                    conformal_midpoint_rule, conformal_trapezoidal_rule, del_step, dlcel_step,
                    exact_discrete_lagrangian, free_rotor_circle, harmonic_1d, integrate,
                    midpoint_rule, planar_2d, trapezoidal_rule, with_constant_sigma)
from lcsdyn.continuous import (ContinuousLagrangian, fiber_legendre, fiber_legendre_inv,
                               make_lcel_field, rk4_integrate)
from lcsdyn.numerics import StepperConfig, as_vector, fd_jacobian, newton_solve
from conftest import (curved_harmonic, curved_planar, free_line_system, hollow, parts_lagrangian,
                      quadratic_planar, rotor_with_shifted_chart, varying_mass)


def harmonic_exact_value(q0, q1, h):
    return ((q0 * q0 + q1 * q1) * np.cos(h) - 2 * q0 * q1) / (2 * np.sin(h))


def test_midpoint_values(free_line_flat, harmonic):
    Ld = midpoint_rule(free_line_flat.lagrangian, 0.1)
    assert Ld.value([0.0], [0.1]) == pytest.approx(0.05, abs=1e-15)
    Ldh = midpoint_rule(harmonic.lagrangian, 0.1)
    assert Ldh.value([1.0], [1.0]) == pytest.approx(-0.05, abs=1e-15)
    # d2 = (q1 - q0)/h - (h/4)(q0 + q1) = -0.05
    assert Ldh.d2([1.0], [1.0])[0] == pytest.approx(-0.05, abs=1e-14)
    assert np.allclose(Ld.d2([0.0], [0.1]), [1.0])
    assert np.allclose(Ld.d1([0.0], [0.1]), [-1.0])


def test_trapezoidal_values(free_line_flat):
    Ld = trapezoidal_rule(free_line_flat.lagrangian, 0.1)
    assert Ld.value([0.0], [0.1]) == pytest.approx(0.05, abs=1e-15)
    pot = harmonic_1d(0.0).lagrangian
    # L = v^2/2 - q^2/2 at (0, 2), h = 1: (1/2) [(2 - 0) + (2 - 2)] = 1
    Ldp = trapezoidal_rule(pot, 1.0)
    assert Ldp.value([0.0], [2.0]) == pytest.approx(1.0, abs=1e-14)


def test_plain_rules_never_consult_sigma():
    # constructor signature carries no atlas or chart
    for rule in (midpoint_rule, trapezoidal_rule):
        params = set(inspect.signature(rule).parameters)
        assert params == {"L", "h"}


def test_free_particle_d1d2_exact(free_line_flat):
    for rule in (midpoint_rule, trapezoidal_rule):
        Ld = rule(free_line_flat.lagrangian, 0.1)
        assert np.max(np.abs(Ld.d1d2([0.3], [0.7]) + 10.0 * np.eye(1))) <= 1e-12


def test_harmonic_midpoint_d1d2(harmonic):
    Ld = midpoint_rule(harmonic.lagrangian, 0.1)
    assert Ld.d1d2([1.0], [1.0])[0, 0] == pytest.approx(-10.025, abs=1e-13)


@pytest.mark.parametrize("rule", [midpoint_rule, trapezoidal_rule])
@pytest.mark.parametrize("system_fn", [lambda: harmonic_1d(0.1), planar_2d])
def test_partials_match_finite_differences(rule, system_fn):
    system = system_fn()
    Ld = rule(system.lagrangian, 0.1)
    n = system.n
    rng = np.random.default_rng(11)
    eps = 1e-5
    for _ in range(100):
        q0 = rng.uniform(-1.5, 1.5, n)
        q1 = q0 + rng.uniform(-0.3, 0.3, n)
        fd1 = fd_jacobian(lambda x: Ld.value(x, q1), q0, eps)
        fd2 = fd_jacobian(lambda x: Ld.value(q0, x), q1, eps)
        scale = max(1.0, float(np.max(np.abs(fd1))), float(np.max(np.abs(fd2))))
        assert np.max(np.abs(Ld.d1(q0, q1) - fd1)) <= 1e-6 * scale
        assert np.max(np.abs(Ld.d2(q0, q1) - fd2)) <= 1e-6 * scale
        fdm = np.column_stack([
            (Ld.d1(q0, q1 + eps * e) - Ld.d1(q0, q1 - eps * e)) / (2 * eps)
            for e in np.eye(n)])
        assert np.max(np.abs(Ld.d1d2(q0, q1) - fdm)) <= 1e-6 * scale


@pytest.mark.parametrize("rule", [conformal_midpoint_rule,
                                  conformal_trapezoidal_rule])
def test_conformal_rules_match_finite_differences(rule):
    system = planar_2d(0.3, 0.1)
    Ld = rule(system.lagrangian, system.atlas, 0, 0.1)
    rng = np.random.default_rng(12)
    eps = 1e-5
    for _ in range(50):
        q0 = rng.uniform(-1.5, 1.5, 2)
        q1 = q0 + rng.uniform(-0.3, 0.3, 2)
        fd1 = fd_jacobian(lambda x: Ld.value(x, q1), q0, eps)
        fd2 = fd_jacobian(lambda x: Ld.value(q0, x), q1, eps)
        scale = max(1.0, float(np.max(np.abs(fd1))), float(np.max(np.abs(fd2))))
        assert np.max(np.abs(Ld.d1(q0, q1) - fd1)) <= 1e-6 * scale
        assert np.max(np.abs(Ld.d2(q0, q1) - fd2)) <= 1e-6 * scale
        fdm = np.column_stack([
            (Ld.d1(q0, q1 + eps * e) - Ld.d1(q0, q1 - eps * e)) / (2 * eps)
            for e in np.eye(2)])
        assert np.max(np.abs(Ld.d1d2(q0, q1) - fdm)) <= 1e-5 * scale


def test_conformal_rules_reduce_bitwise_when_sigma_constant():
    system = harmonic_1d(0.0)
    q0, q1 = np.array([0.3]), np.array([0.45])
    plain_m = midpoint_rule(system.lagrangian, 0.1)
    conf_m = conformal_midpoint_rule(system.lagrangian, system.atlas, 0, 0.1)
    assert conf_m.value(q0, q1) == plain_m.value(q0, q1)
    assert np.array_equal(conf_m.d1(q0, q1), plain_m.d1(q0, q1))
    assert np.array_equal(conf_m.d1d2(q0, q1), plain_m.d1d2(q0, q1))
    plain_t = trapezoidal_rule(system.lagrangian, 0.1)
    conf_t = conformal_trapezoidal_rule(system.lagrangian, system.atlas, 0, 0.1)
    assert conf_t.value(q0, q1) == plain_t.value(q0, q1)
    assert np.array_equal(conf_t.d2(q0, q1), plain_t.d2(q0, q1))


def test_exact_free_particle(free_line_flat):
    Ld = exact_discrete_lagrangian(free_line_flat.lagrangian,
                                   free_line_flat.atlas, 0, 0.1)
    assert Ld.value([0.2], [0.5]) == pytest.approx(0.09 / 0.2, abs=1e-12)


def test_exact_harmonic_closed_form(harmonic_flat):
    Ld = exact_discrete_lagrangian(harmonic_flat.lagrangian,
                                   harmonic_flat.atlas, 0, 0.1)
    for q0, q1 in [(1.0, 1.0), (0.5, -0.2), (0.0, 0.8)]:
        assert Ld.value([q0], [q1]) == pytest.approx(
            harmonic_exact_value(q0, q1, 0.1), abs=1e-9)


@pytest.mark.parametrize("system, q0, q1", [(harmonic_1d(0.0), [0.3], [-0.3]),
                                            (planar_2d(0.0, 0.0), [0.3, 0.2], [-0.3, -0.2])],
                         ids=["harmonic_1d", "planar_2d"])
def test_exact_rule_raises_at_a_conjugate_point(system, q0, q1):
    # at h = pi, the unit oscillator's conjugate time, dq1/dv0 is about 1.5e-7
    # (sigma_min / h = 4.8e-8), which a condition-number screen never sees
    Ld = exact_discrete_lagrangian(system.lagrangian, system.atlas, 0, np.pi)
    with pytest.raises(RegularityError, match="conjugate point"):
        Ld.jet(q0, q1)
    # at h = 3.1 (sigma_min / h = 0.013) the jet keeps the closed-form values
    # to about 1e-6 of their scales: |q|^2 / sin h ~ 2 for the value, |q| / sin h
    # ~ 7 for d1 and d2 and 1 / sin h ~ 24 for d1d2
    h = 3.1
    Ld = exact_discrete_lagrangian(system.lagrangian, system.atlas, 0, h)
    value, d1, d2, d1d2 = Ld.jet(q0, q1)
    a, b = np.array(q0), np.array(q1)
    s, c = np.sin(h), np.cos(h)
    assert value == pytest.approx(float(np.sum(harmonic_exact_value(a, b, h))), abs=1e-5)
    assert np.allclose(d1, (a * c - b) / s, rtol=0.0, atol=1e-6)
    assert np.allclose(d2, (b * c - a) / s, rtol=0.0, atol=1e-6)
    assert np.allclose(d1d2, -np.eye(system.n) / s, rtol=1e-5, atol=0.0)


def test_midpoint_third_order_against_exact(harmonic_flat):
    # |midpoint - exact| at scaled pairs (q0, q0 + v h) shrinks at least 6x per halving
    rng = np.random.default_rng(13)
    for _ in range(5):
        q0 = rng.uniform(-1, 1)
        v = rng.uniform(0.5, 1.5)
        gaps = []
        for h in (0.1, 0.05):
            mid = midpoint_rule(harmonic_flat.lagrangian, h)
            exact = exact_discrete_lagrangian(harmonic_flat.lagrangian,
                                              harmonic_flat.atlas, 0, h)
            gaps.append(abs(mid.value([q0], [q0 + v * h])
                            - exact.value([q0], [q0 + v * h])))
        assert gaps[0] / gaps[1] >= 6.0


def test_exact_partials_match_finite_differences(harmonic_flat):
    Ld = exact_discrete_lagrangian(harmonic_flat.lagrangian, harmonic_flat.atlas, 0, 0.1)
    rng = np.random.default_rng(14)
    for _ in range(5):
        q0 = rng.uniform(-1, 1, 1)
        q1 = q0 + rng.uniform(-0.15, 0.15, 1)
        # closed-form partials of the quadratic harmonic action
        d1_true = (2 * q0 * np.cos(0.1) - 2 * q1) / (2 * np.sin(0.1))
        d2_true = (2 * q1 * np.cos(0.1) - 2 * q0) / (2 * np.sin(0.1))
        assert np.max(np.abs(Ld.d1(q0, q1) - d1_true)) <= 1e-6
        assert np.max(np.abs(Ld.d2(q0, q1) - d2_true)) <= 1e-6
        d1d2_true = -1.0 / np.sin(0.1)
        assert abs(Ld.d1d2(q0, q1)[0, 0] - d1d2_true) <= 1e-4 * abs(d1d2_true)
        same_true = np.cos(0.1) / np.sin(0.1)
        assert abs(Ld.d1d1(q0, q1)[0, 0] - same_true) <= 1e-4 * same_true
        assert abs(Ld.d2d2(q0, q1)[0, 0] - same_true) <= 1e-4 * same_true


def test_exact_shooting_failure_reports_residual():
    # conformal free particle blows up in finite time; the straight-line
    # velocity seed for this endpoint pair lies past the blow-up threshold
    conf = free_line_system(0.1)
    Ld = exact_discrete_lagrangian(conf.lagrangian, conf.atlas, 0, 0.1)
    with pytest.raises(ShootingError):
        Ld.value([0.0], [40.0])


EXACT_SYSTEMS = {"harmonic_1d": lambda: harmonic_1d(0.5),
                 "planar_2d": lambda: planar_2d(0.3, -0.4),
                 "curved_harmonic": curved_harmonic, "curved_planar": curved_planar,
                 "varying_mass": varying_mass}


@pytest.mark.parametrize("make", EXACT_SYSTEMS.values(), ids=EXACT_SYSTEMS.keys())
def test_exact_partials_match_differences_of_the_value(make):
    # the generating-function partials agree with central differences of the
    # weighted action (first partials) and of those partials (second)
    system = make()
    Ld = exact_discrete_lagrangian(system.lagrangian, system.atlas, 0, 0.1)
    rng = np.random.default_rng(29)
    for _ in range(3):
        q0 = rng.uniform(-1, 1, system.n)
        q1 = q0 + rng.uniform(-0.1, 0.1, system.n)
        for part, fd in ((Ld.d1, fd_jacobian(lambda x: Ld.value(x, q1), q0, 1e-5)),
                         (Ld.d2, fd_jacobian(lambda x: Ld.value(q0, x), q1, 1e-5))):
            assert np.max(np.abs(part(q0, q1) - fd)) <= 1e-7
        for part, fd in ((Ld.d1d2, fd_jacobian(lambda x: Ld.d1(q0, x), q1, 1e-5)),
                         (Ld.d1d1, fd_jacobian(lambda x: Ld.d1(x, q1), q0, 1e-5)),
                         (Ld.d2d2, fd_jacobian(lambda x: Ld.d2(q0, x), q1, 1e-5))):
            assert np.max(np.abs(part(q0, q1) - fd)) <= 1e-6


@pytest.mark.parametrize("system, q, v", [
    (harmonic_1d(0.5), [0.3], [0.8]),
    (planar_2d(0.3, -0.4), [0.3, -0.2], [0.8, 0.5]),
], ids=["harmonic_1d", "planar_2d"])
def test_exact_legendre_maps_match_the_extremal(system, q, v):
    # along a fine RK4 extremal the exact rule's conformal Legendre maps
    # p- = phi(q0) Ld - d1 and p+ = exp(sigma(q1) - sigma(q0)) d2 are the
    # continuous momenta dL/dv at both ends
    h, n, chart = 0.1, system.n, system.atlas.chart(0)
    x1 = rk4_integrate(make_lcel_field(system.lagrangian, system.atlas, 0),
                       np.array(q + v), h / 1000, 1000)[-1]
    q0, q1 = np.array(q), x1[:n]
    Ld = exact_discrete_lagrangian(system.lagrangian, system.atlas, 0, h)
    p_minus = chart.grad(q0) * Ld.value(q0, q1) - Ld.d1(q0, q1)
    p_plus = np.exp(chart.sigma(q1) - chart.sigma(q0)) * Ld.d2(q0, q1)
    assert np.max(np.abs(p_minus - fiber_legendre(system.lagrangian, q0, v))) <= 1e-9
    assert np.max(np.abs(p_plus - fiber_legendre(system.lagrangian, q1, x1[n:]))) <= 1e-9


@pytest.mark.parametrize("rule", [conformal_midpoint_rule, conformal_trapezoidal_rule])
def test_conformal_rules_third_order_against_exact_at_a_nonzero_lee_form(rule):
    # AC10's halving test at c = 0.5: the local error of either conformal
    # rule against the exact weighted action shrinks at least 6x per halving
    system = harmonic_1d(0.5)
    rng = np.random.default_rng(10)
    for _ in range(10):
        q0 = float(rng.uniform(-1, 1))
        v = float(rng.uniform(0.5, 1.5))
        gaps = []
        for h in (0.05, 0.025):
            rule_ld = rule(system.lagrangian, system.atlas, 0, h)
            exact = exact_discrete_lagrangian(system.lagrangian, system.atlas, 0, h)
            gaps.append(abs(rule_ld.value([q0], [q0 + v * h])
                            - exact.value([q0], [q0 + v * h])))
        assert gaps[0] / gaps[1] >= 6.0


def test_conformal_exact_inherits_sigma():
    # with sigma = c q the exact two-point action differs from the flat one
    conf = free_line_system(0.1)
    flat = free_line_system(0.0)
    Lc = exact_discrete_lagrangian(conf.lagrangian, conf.atlas, 0, 0.1)
    Lf = exact_discrete_lagrangian(flat.lagrangian, flat.atlas, 0, 0.1)
    assert Lc.value([0.0], [0.3]) != pytest.approx(Lf.value([0.0], [0.3]),
                                                   abs=1e-10)


# --- one evaluation per lattice pair ---------------------------------------
#
# All four rules keep the last pair's data in a one-entry memo.  The
# constructors below are the formulas as they stood before the memo, with every
# partial evaluated from scratch on every call through L's one-part methods;
# the memoized rules must return the same bits in any call order.

def reference_midpoint(L, h):
    def value(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        return h * float(L.value(0.5 * (q0 + q1), (q1 - q0) / h))

    def d1(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        m, w = 0.5 * (q0 + q1), (q1 - q0) / h
        return 0.5 * h * as_vector(L.grad_q(m, w)) - as_vector(L.grad_v(m, w))

    def d2(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        m, w = 0.5 * (q0 + q1), (q1 - q0) / h
        return 0.5 * h * as_vector(L.grad_q(m, w)) + as_vector(L.grad_v(m, w))

    def d1d2(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        m, w = 0.5 * (q0 + q1), (q1 - q0) / h
        vq = np.atleast_2d(L.hess_vq(m, w))
        out = 0.5 * (vq.T - vq) - np.atleast_2d(L.hess_vv(m, w)) / h
        return out + 0.25 * h * np.atleast_2d(L.hess_qq(m, w))

    def same(q0, q1, k):
        q0, q1 = as_vector(q0), as_vector(q1)
        m, w = 0.5 * (q0 + q1), (q1 - q0) / h
        vq = np.atleast_2d(L.hess_vq(m, w))
        sym = 0.5 * (vq + vq.T)
        return (0.25 * h * np.atleast_2d(L.hess_qq(m, w)) + (sym if k else -sym)
                + np.atleast_2d(L.hess_vv(m, w)) / h)

    return parts_lagrangian(L.n, h, value, d1, d2, d1d2, lambda q0, q1: same(q0, q1, 0),
                            lambda q0, q1: same(q0, q1, 1))


def reference_trapezoidal(L, h):
    def value(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        w = (q1 - q0) / h
        return 0.5 * h * (float(L.value(q0, w)) + float(L.value(q1, w)))

    def d1(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        w = (q1 - q0) / h
        return 0.5 * h * as_vector(L.grad_q(q0, w)) \
            - 0.5 * (as_vector(L.grad_v(q0, w)) + as_vector(L.grad_v(q1, w)))

    def d2(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        w = (q1 - q0) / h
        return 0.5 * h * as_vector(L.grad_q(q1, w)) \
            + 0.5 * (as_vector(L.grad_v(q0, w)) + as_vector(L.grad_v(q1, w)))

    def d1d2(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        w = (q1 - q0) / h
        vq0 = np.atleast_2d(L.hess_vq(q0, w))
        vq1 = np.atleast_2d(L.hess_vq(q1, w))
        vv = np.atleast_2d(L.hess_vv(q0, w)) + np.atleast_2d(L.hess_vv(q1, w))
        return 0.5 * (vq0.T - vq1) - vv / (2.0 * h)

    def same(q0, q1, k):
        q0, q1 = as_vector(q0), as_vector(q1)
        w = (q1 - q0) / h
        q, other = (q1, q0) if k else (q0, q1)
        vq = np.atleast_2d(L.hess_vq(q, w))
        sym = 0.5 * (vq + vq.T)
        node = (0.5 * h * np.atleast_2d(L.hess_qq(q, w)) + (sym if k else -sym)
                + np.atleast_2d(L.hess_vv(q, w)) / (2.0 * h))
        return node + np.atleast_2d(L.hess_vv(other, w)) / (2.0 * h)

    return parts_lagrangian(L.n, h, value, d1, d2, d1d2, lambda q0, q1: same(q0, q1, 0),
                            lambda q0, q1: same(q0, q1, 1))


def reference_conformal_midpoint(L, atlas, chart, h):
    base = reference_midpoint(L, h)
    ch = atlas.chart(chart)

    def _weights(q0, q1):
        mid = 0.5 * (q0 + q1)
        s0, sm = float(ch.sigma(q0)), float(ch.sigma(mid))
        a = ch.grad(q0) - 0.5 * ch.grad(mid)
        b = -0.5 * ch.grad(mid)
        trivial = (s0 == sm and not np.any(a) and not np.any(b)
                   and not np.any(ch.hess(q0)) and not np.any(ch.hess(mid)))
        return mid, np.exp(s0 - sm), a, b, trivial

    def value(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        _, E, _, _, trivial = _weights(q0, q1)
        base_val = base.value(q0, q1)
        return base_val if trivial else E * base_val

    def d1(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        _, E, a, _, trivial = _weights(q0, q1)
        if trivial:
            return base.d1(q0, q1)
        return E * (a * base.value(q0, q1) + base.d1(q0, q1))

    def d2(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        _, E, _, b, trivial = _weights(q0, q1)
        if trivial:
            return base.d2(q0, q1)
        return E * (b * base.value(q0, q1) + base.d2(q0, q1))

    def d1d2(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        mid, E, a, b, trivial = _weights(q0, q1)
        if trivial:
            return base.d1d2(q0, q1)
        val = base.value(q0, q1)
        bd1, bd2 = base.d1(q0, q1), base.d2(q0, q1)
        return E * (np.outer(a, b * val + bd2)
                    - 0.25 * val * ch.hess(mid).T
                    + np.outer(bd1, b)
                    + base.d1d2(q0, q1))

    def d1d1(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        mid, E, a, _, trivial = _weights(q0, q1)
        if trivial:
            return base.d1d1(q0, q1)
        val, bd1 = base.value(q0, q1), base.d1(q0, q1)
        da = -0.25 * ch.hess(mid) + ch.hess(q0)
        return E * (np.outer(a, a * val + bd1) + np.outer(bd1, a) + val * da
                    + base.d1d1(q0, q1))

    def d2d2(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        mid, E, _, b, trivial = _weights(q0, q1)
        if trivial:
            return base.d2d2(q0, q1)
        val, bd2 = base.value(q0, q1), base.d2(q0, q1)
        return E * (np.outer(b, b * val + bd2) + np.outer(bd2, b)
                    + val * (-0.25 * ch.hess(mid)) + base.d2d2(q0, q1))

    return parts_lagrangian(L.n, h, value, d1, d2, d1d2, d1d1, d2d2)


def reference_conformal_trapezoidal(L, atlas, chart, h):
    ch = atlas.chart(chart)
    plain = reference_trapezoidal(L, h)

    def _parts(q0, q1):
        w = (q1 - q0) / h
        s0, s1 = float(ch.sigma(q0)), float(ch.sigma(q1))
        phi0, phi1 = ch.grad(q0), ch.grad(q1)
        trivial = (s0 == s1 and not np.any(phi0) and not np.any(phi1)
                   and not np.any(ch.hess(q0)) and not np.any(ch.hess(q1)))
        return w, np.exp(s0 - s1), phi0, phi1, trivial

    def value(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        w, G, _, _, trivial = _parts(q0, q1)
        if trivial:
            return plain.value(q0, q1)
        return 0.5 * h * (float(L.value(q0, w)) + G * float(L.value(q1, w)))

    def d1(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        w, G, phi0, _, trivial = _parts(q0, q1)
        if trivial:
            return plain.d1(q0, q1)
        U = 0.5 * h * float(L.value(q1, w))
        T1 = 0.5 * h * as_vector(L.grad_q(q0, w)) - 0.5 * as_vector(L.grad_v(q0, w))
        U1 = -0.5 * as_vector(L.grad_v(q1, w))
        return T1 + G * (phi0 * U + U1)

    def d2(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        w, G, _, phi1, trivial = _parts(q0, q1)
        if trivial:
            return plain.d2(q0, q1)
        U = 0.5 * h * float(L.value(q1, w))
        T2 = 0.5 * as_vector(L.grad_v(q0, w))
        U2 = 0.5 * h * as_vector(L.grad_q(q1, w)) + 0.5 * as_vector(L.grad_v(q1, w))
        return T2 + G * (-phi1 * U + U2)

    def d1d2(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        w, G, phi0, phi1, trivial = _parts(q0, q1)
        if trivial:
            return plain.d1d2(q0, q1)
        U = 0.5 * h * float(L.value(q1, w))
        U1 = -0.5 * as_vector(L.grad_v(q1, w))
        U2 = 0.5 * h * as_vector(L.grad_q(q1, w)) + 0.5 * as_vector(L.grad_v(q1, w))
        S = -phi1 * U + U2
        vq0 = np.atleast_2d(L.hess_vq(q0, w))
        vq1 = np.atleast_2d(L.hess_vq(q1, w))
        vv0 = np.atleast_2d(L.hess_vv(q0, w))
        vv1 = np.atleast_2d(L.hess_vv(q1, w))
        dT2 = 0.5 * vq0.T - vv0 / (2.0 * h)
        dU2 = -0.5 * vq1 - vv1 / (2.0 * h)
        dS = -np.outer(U1, phi1) + dU2
        return dT2 + G * (np.outer(phi0, S) + dS)

    def node_term(q, w, k):
        # d^2/dq^2 of (h/2) L(q, w) with w = (q1 - q0)/h, q = q0 (k = 0) or q1
        vq = np.atleast_2d(L.hess_vq(q, w))
        sym = 0.5 * (vq + vq.T)
        return (0.5 * h * np.atleast_2d(L.hess_qq(q, w)) + (sym if k else -sym)
                + np.atleast_2d(L.hess_vv(q, w)) / (2.0 * h))

    def d1d1(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        w, G, phi0, _, trivial = _parts(q0, q1)
        if trivial:
            return plain.d1d1(q0, q1)
        U = 0.5 * h * float(L.value(q1, w))
        U1 = -0.5 * as_vector(L.grad_v(q1, w))
        return node_term(q0, w, 0) + G * (
            np.atleast_2d(L.hess_vv(q1, w)) / (2.0 * h) + np.outer(phi0 * U + U1, phi0)
            + U * ch.hess(q0) + np.outer(phi0, U1))

    def d2d2(q0, q1):
        q0, q1 = as_vector(q0), as_vector(q1)
        w, G, _, phi1, trivial = _parts(q0, q1)
        if trivial:
            return plain.d2d2(q0, q1)
        U = 0.5 * h * float(L.value(q1, w))
        U2 = 0.5 * h * as_vector(L.grad_q(q1, w)) + 0.5 * as_vector(L.grad_v(q1, w))
        return np.atleast_2d(L.hess_vv(q0, w)) / (2.0 * h) + G * (
            node_term(q1, w, 1) - np.outer(-phi1 * U + U2, phi1)
            - U * ch.hess(q1) - np.outer(phi1, U2))

    return parts_lagrangian(L.n, h, value, d1, d2, d1d2, d1d1, d2d2)


def _plain(rule):
    """``rule(L, h)`` with the conformal constructors' signature."""
    return lambda L, atlas, chart, h: rule(L, h)


@pytest.mark.parametrize("h", [-0.1, 0.0, float("nan"), float("inf")])
@pytest.mark.parametrize("rule", [
    _plain(midpoint_rule), _plain(trapezoidal_rule), conformal_midpoint_rule,
    conformal_trapezoidal_rule, exact_discrete_lagrangian,
], ids=["midpoint", "trapezoidal", "conformal_midpoint", "conformal_trapezoidal", "exact"])
def test_rules_refuse_a_step_that_is_not_positive_and_finite(rule, h):
    system = harmonic_1d(0.1)
    with pytest.raises(ValueError, match="h must be positive and finite"):
        rule(system.lagrangian, system.atlas, 0, h)


MEMO_RULES = [(conformal_midpoint_rule, reference_conformal_midpoint),
              (conformal_trapezoidal_rule, reference_conformal_trapezoidal),
              (_plain(midpoint_rule), _plain(reference_midpoint)),
              (_plain(trapezoidal_rule), _plain(reference_trapezoidal))]
MEMO_IDS = ["midpoint", "trapezoidal", "plain_midpoint", "plain_trapezoidal"]
MEMO_SYSTEMS = {
    "harmonic_1d": lambda: harmonic_1d(0.1),
    "planar_2d": lambda: planar_2d(0.3, -0.2),
    "free_rotor_circle": lambda: free_rotor_circle(-0.1),
    "curved_planar": curved_planar,
    "constant_sigma": lambda: with_constant_sigma(planar_2d(), 0.7),
    "varying_mass": varying_mass,
}
PARTS = ("value", "d1", "d2", "d1d1", "d1d2", "d2d2")


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _call_orders(n):
    rng = np.random.default_rng(21)
    p = [(rng.uniform(-0.8, 0.8, n) + 0.2, rng.uniform(-0.8, 0.8, n) + 0.3)
         for _ in range(3)]
    repeated = [(part, p[0]) for part in PARTS + PARTS[::-1] + PARTS]
    alternating = [(part, p[i % 2]) for i, part in enumerate(PARTS * 3)]
    d1d2_first = [("d1d2", p[2]), ("d2", p[2]), ("value", p[2]), ("d1d2", p[1]),
                  ("d1", p[1]), ("d1d2", p[1]), ("value", p[0])]
    return {"repeated": repeated, "alternating": alternating, "d1d2_first": d1d2_first}


@pytest.mark.parametrize("rule, reference", MEMO_RULES, ids=MEMO_IDS)
@pytest.mark.parametrize("system_name", list(MEMO_SYSTEMS))
def test_memoized_rules_bitwise_equal_reference_formulas(rule, reference, system_name):
    system = MEMO_SYSTEMS[system_name]()
    Ld = rule(system.lagrangian, system.atlas, system.start_chart, 0.1)
    ref = reference(system.lagrangian, system.atlas, system.start_chart, 0.1)
    for order_name, calls in _call_orders(system.n).items():
        for part, (q0, q1) in calls:
            got = getattr(Ld, part)(q0, q1)
            want = getattr(ref, part)(q0, q1)
            assert type(got) is type(want), (order_name, part)
            assert _bits(got) == _bits(want), (order_name, part)


# For n = 1 and n = 2 the midpoint rules compute the pair jet on unpacked
# scalars.  At the edges of the float range they must still give the
# reference formulas' bits: a repeated point with signed zeros (w = +-0.0),
# subnormals, and coordinates large enough that np.exp or the value overflow
# to inf or NaN.  Every chart of each system is tried: the shifted rotor's
# second chart holds the angle less 0.7, so its sigma is offset.

EDGE_SYSTEMS = {
    "harmonic_1d": lambda: harmonic_1d(0.1),
    "planar_2d": lambda: planar_2d(0.3, -0.2),
    "free_rotor_circle": lambda: free_rotor_circle(-0.1),
    "constant_sigma": lambda: with_constant_sigma(planar_2d()),
    "shifted_rotor": rotor_with_shifted_chart,
}
_MAX = 1.7976931348623157e308
_EDGE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e154,
                     -1e200, 1e4, -1e4, 1e308, -_MAX]),
    st.floats(allow_nan=False, allow_infinity=False))
_EDGE_PAIR = st.lists(_EDGE, min_size=2, max_size=2)


@pytest.mark.parametrize("rule, reference", [MEMO_RULES[0], MEMO_RULES[2]],
                         ids=["midpoint", "plain_midpoint"])
@pytest.mark.parametrize("system_name", list(EDGE_SYSTEMS))
@settings(max_examples=60, deadline=None)
@given(q0=_EDGE_PAIR, q1=st.none() | _EDGE_PAIR, flips=st.tuples(st.booleans(), st.booleans()))
@example(q0=[-0.0, -0.0], q1=None, flips=(True, False))
@example(q0=[0.0, 0.0], q1=None, flips=(False, True))
@example(q0=[5e-324, -5e-324], q1=[2.2250738585072014e-308, 0.0], flips=(False, False))
@example(q0=[1e4, -1e4], q1=[-1e4, 1e4], flips=(False, False))
@example(q0=[1e308, 1e308], q1=None, flips=(False, False))
@example(q0=[-_MAX, 3.0], q1=[_MAX, 1.0], flips=(False, False))
def test_midpoint_rules_keep_the_reference_bits_at_float_edges(rule, reference,
                                                               system_name, q0, q1, flips):
    # q1 = None repeats q0, with the zero coordinates whose flip is set negated
    system = EDGE_SYSTEMS[system_name]()
    q0 = q0[:system.n]
    q1 = [-x if f and not x else x for x, f in zip(q0, flips)] if q1 is None \
        else q1[:system.n]
    for ch in system.atlas.charts:
        Ld = rule(system.lagrangian, system.atlas, ch.id, 0.1)
        ref = reference(system.lagrangian, system.atlas, ch.id, 0.1)
        with np.errstate(all="ignore"):
            want = {part: getattr(ref, part)(np.array(q0), np.array(q1)) for part in PARTS}
            jet = Ld.jet(list(q0), list(q1))
            got = {part: getattr(Ld, part)(np.array(q0), np.array(q1)) for part in PARTS}
        assert type(jet[0]) is type(want["value"])
        assert all(type(x) is float for x in jet[1] + jet[2] + sum(jet[3], []))
        for part, value in zip(("value", "d1", "d2", "d1d2"), jet):
            assert _bits(value) == _bits(want[part]), (ch.id, part)
        for part in PARTS:
            assert type(got[part]) is type(want[part]), (ch.id, part)
            assert _bits(got[part]) == _bits(want[part]), (ch.id, part)


@pytest.mark.parametrize("rule, reference", MEMO_RULES, ids=MEMO_IDS)
def test_memoized_rules_return_fresh_arrays(rule, reference):
    system = curved_planar()
    Ld = rule(system.lagrangian, system.atlas, 0, 0.1)
    ref = reference(system.lagrangian, system.atlas, 0, 0.1)
    q0, q1 = np.array([0.3, -0.2]), np.array([0.35, -0.1])
    for part in PARTS[1:]:
        first = getattr(Ld, part)(q0, q1)
        first[...] = 99.0
        assert _bits(getattr(Ld, part)(q0, q1)) == _bits(getattr(ref, part)(q0, q1))


@pytest.mark.parametrize("rule, reference", MEMO_RULES, ids=MEMO_IDS)
@pytest.mark.parametrize("mutated", [0, 1], ids=["q0", "q1"])
def test_memoized_rules_see_inputs_mutated_in_place(rule, reference, mutated):
    system = curved_planar()
    Ld = rule(system.lagrangian, system.atlas, 0, 0.1)
    ref = reference(system.lagrangian, system.atlas, 0, 0.1)
    pair = [np.array([0.3, -0.2]), np.array([0.35, -0.1])]
    before = Ld.value(*pair), Ld.d1(*pair)
    pair[mutated][1] += 0.05
    for part in PARTS:
        assert _bits(getattr(Ld, part)(*pair)) == _bits(getattr(ref, part)(*pair))
    assert _bits(Ld.value(*pair)) != _bits(before[0])
    assert _bits(Ld.d1(*pair)) != _bits(before[1])


@pytest.mark.parametrize("rule, jet_calls", [
    (_plain(midpoint_rule), 1), (_plain(trapezoidal_rule), 2),
    (conformal_midpoint_rule, 1), (conformal_trapezoidal_rule, 2)],
    ids=["midpoint", "trapezoidal", "conformal_midpoint", "conformal_trapezoidal"])
def test_plain_rules_evaluate_the_jet_once_per_pair_point(rule, jet_calls):
    # value, d1, d2 and d1d2 at one pair, plain and conformal rules alike: one
    # jet call per quadrature node, so d1d2 reads the velocity Hessians from
    # the memo and calls neither L.hess_vv nor L.hess_vq (each calls the jet)
    system = curved_planar()
    L = system.lagrangian
    calls = []

    def jet(q, v):
        calls.append(1)
        return L.jet(q, v)

    Ld = rule(ContinuousLagrangian(2, jet, L.hess_qq), system.atlas, 0, 0.1)
    q0, q1 = np.array([0.3, -0.2]), np.array([0.35, -0.1])
    for part in PARTS:
        getattr(Ld, part)(q0, q1)
    assert len(calls) == jet_calls


def test_fiber_legendre_inv_calls_the_jet_once_per_velocity():
    # Newton's residual and Jacobian at one iterate share one jet call
    L = varying_mass().lagrangian
    velocities = []

    def jet(q, v):
        velocities.append(tuple(v))
        return L.jet(q, v)

    q, p = np.array([0.3, -0.2]), np.array([0.7, 0.4])
    v = fiber_legendre_inv(ContinuousLagrangian(2, jet, L.hess_qq), q, p)
    assert len(velocities) == len(set(velocities)) >= 2
    # bitwise the former solve, which called the jet through grad_v and hess_vv
    ref = newton_solve(lambda x: L.grad_v(q, x) - p, p, StepperConfig(tol=1e-12),
                       jacobian=lambda x: L.hess_vv(q, x)).x
    assert v.tobytes() == ref.tobytes()


# --- the same-point second partials -----------------------------------------
#
# d1d1 and d2d2 are closed forms over the memo's node data, L.hess_qq and, for
# the conformal rules, Chart.hess; each must be the derivative of d1 in q0 and
# of d2 in q1.

SECOND_SYSTEMS = {
    "planar_2d": lambda: planar_2d(0.3, -0.2),  # constant Lee form
    "varying_mass": varying_mass,  # hess_vv, hess_vq vary with the point
    "curved_planar": curved_planar,  # nonzero sigma Hessian
}
_COORD = st.floats(-1.0, 1.0, allow_nan=False)
_STEP = st.floats(-0.3, 0.3, allow_nan=False)


@pytest.mark.parametrize("rule", [rule for rule, _ in MEMO_RULES], ids=MEMO_IDS)
@pytest.mark.parametrize("system_name", list(SECOND_SYSTEMS))
@settings(max_examples=30, deadline=None)
@given(q0=st.tuples(_COORD, _COORD), step=st.tuples(_STEP, _STEP))
def test_same_point_second_partials_match_differenced_first_partials(rule, system_name,
                                                                      q0, step):
    system = SECOND_SYSTEMS[system_name]()
    Ld = rule(system.lagrangian, system.atlas, 0, 0.1)
    q0 = np.array(q0)
    q1 = q0 + np.array(step)
    fd11 = fd_jacobian(lambda x: Ld.d1(x, q1), q0, 1e-6)
    fd22 = fd_jacobian(lambda x: Ld.d2(q0, x), q1, 1e-6)
    scale = max(1.0, float(np.max(np.abs(fd11))), float(np.max(np.abs(fd22))))
    assert np.max(np.abs(Ld.d1d1(q0, q1) - fd11)) <= 1e-7 * scale
    assert np.max(np.abs(Ld.d2d2(q0, q1) - fd22)) <= 1e-7 * scale


@pytest.mark.parametrize("rule", [conformal_midpoint_rule, conformal_trapezoidal_rule])
def test_second_partials_keep_sigma_hessian_where_the_lee_form_vanishes(rule):
    # sigma = 0.2 q0^2 + 0.1 q1^2 has a zero Lee form but a nonzero Hessian at
    # the origin; with L(0, 0) = 1 the terms Ld Hsigma are nonzero there
    system = planar_2d()
    c, L = system.atlas.charts[0], system.lagrangian
    chart = Chart(id=0, dim=2, lower=c.lower, upper=c.upper,
                  sigma=lambda q: 0.2 * q[0] ** 2 + 0.1 * q[1] ** 2,
                  sigma_grad=lambda q: np.array([0.4 * q[0], 0.2 * q[1]]),
                  sigma_hess=lambda q: np.diag([0.4, 0.2]))
    shifted = ContinuousLagrangian(2, lambda q, v: (L.jet(q, v)[0] + 1.0,) + L.jet(q, v)[1:],
                                   L.hess_qq)
    Ld = rule(shifted, ConformalAtlas(charts=(chart,)), 0, 0.1)
    q0 = q1 = np.zeros(2)
    for got, fd in ((Ld.d1d1, fd_jacobian(lambda x: Ld.d1(x, q1), q0, 1e-6)),
                    (Ld.d1d2, fd_jacobian(lambda x: Ld.d1(q0, x), q1, 1e-6)),
                    (Ld.d2d2, fd_jacobian(lambda x: Ld.d2(q0, x), q1, 1e-6))):
        assert np.max(np.abs(got(q0, q1) - fd)) <= 1e-8


# --- constant Hessians ---------------------------------------------------------

@pytest.mark.parametrize("rule", [rule for rule, _ in MEMO_RULES], ids=MEMO_IDS)
def test_constant_hess_qq_gives_the_callable_bits(rule):
    # under constant_hessians the rules read the position Hessian resolved at
    # q = v = 0 once; the same Lagrangian without the flag calls hess_qq at
    # every pair and gives bitwise the same jet, d1d1 and d2d2
    system = planar_2d(0.3, -0.2)
    qq = np.array([[-1.0, 0.3], [0.3, -2.0]])
    declared = ContinuousLagrangian(2, system.lagrangian.jet, lambda q, v: qq,
                                    constant_hessians=True)
    callable_only = dataclasses.replace(declared, constant_hessians=False)
    Ld_declared = rule(declared, system.atlas, 0, 0.1)
    Ld_callable = rule(callable_only, system.atlas, 0, 0.1)
    for q0, q1 in (([0.3, -0.2], [0.35, -0.1]), ([1.0, 0.5], [0.9, 0.7])):
        assert Ld_declared.jet(q0, q1) == Ld_callable.jet(q0, q1)
        for part in ("d1d1", "d2d2"):
            assert _bits(getattr(Ld_declared, part)(q0, q1)) == \
                _bits(getattr(Ld_callable, part)(q0, q1))


@pytest.mark.parametrize("rule", [rule for rule, _ in MEMO_RULES], ids=MEMO_IDS)
@pytest.mark.parametrize("flat", [False, True], ids=["conformal", "constant_sigma"])
def test_constant_velocity_hessians_give_the_jet_bits(rule, flat):
    # under constant_hessians the rules read the three Hessians resolved at
    # q = v = 0 once, when built: the declaring Lagrangian's jet returns None
    # in place of hess_vv and hess_vq elsewhere.  The jet and every part keep
    # the bits of the same Lagrangian without the flag, read from its jet and
    # hess_qq, on a chart with a nonzero and with a zero Lee form (the
    # conformal rules' two branches).
    system = quadratic_planar()
    atlas = with_constant_sigma(system).atlas if flat else system.atlas
    L = system.lagrangian
    declared = dataclasses.replace(L, jet=hollow(L.jet), constant_hessians=True)
    from_jet = dataclasses.replace(L, constant_hessians=False)
    Ld_declared = rule(declared, atlas, 0, 0.1)
    Ld_jet = rule(from_jet, atlas, 0, 0.1)
    for q0, q1 in (([0.3, -0.2], [0.35, -0.1]), ([1.0, 0.5], [0.9, 0.7]),
                   ([0.3, -0.2], [0.25, -0.3])):
        assert repr(Ld_declared.jet(q0, q1)) == repr(Ld_jet.jet(q0, q1))
        for part in PARTS:
            got = getattr(Ld_declared, part)(q0, q1)
            assert _bits(got) == _bits(getattr(Ld_jet, part)(q0, q1)), part
            if part != "value":
                got[...] = 99.0  # the rule's constants are not handed out
                assert _bits(getattr(Ld_declared, part)(q0, q1)) == \
                    _bits(getattr(Ld_jet, part)(q0, q1)), part


def test_constant_hessians_are_checked_and_read_only():
    # the flag reads each Hessian once, at q = v = 0, into a read-only copy;
    # a part without shape (2, 2) raises ValueError naming it
    jet = planar_2d().lagrangian.jet
    qq = -np.eye(2)
    L = ContinuousLagrangian(2, jet, lambda q, v: qq, constant_hessians=True)
    qq[0, 0] = 9.0  # the Lagrangian holds its own copy
    assert [part.tolist() for part in L.hessians] == \
        [[[-1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]]
    for part in L.hessians:
        with pytest.raises(ValueError, match="read-only"):
            part[1, 1] = 9.0
    assert ContinuousLagrangian(2, jet, lambda q, v: qq).hessians is None
    for wrong in ([[1.0]], [1.0, 0.0], np.eye(3)):
        for name, jet_, hess_qq in (
                ("hess_qq", jet, lambda q, v: wrong),
                ("hess_vv", lambda q, v: (*jet(q, v)[:3], wrong, jet(q, v)[4]), L.hess_qq),
                ("hess_vq", lambda q, v: (*jet(q, v)[:4], wrong), L.hess_qq)):
            with pytest.raises(ValueError, match=f"{name} must have shape"):
                ContinuousLagrangian(2, jet_, hess_qq, constant_hessians=True)


def _jet_bits(jet) -> bytes:
    value, d1, d2, d1d2 = jet
    return np.array([value, *d1, *d2, *np.ravel(d1d2)]).tobytes()


@pytest.mark.parametrize("system_fn", [harmonic_1d, planar_2d])
def test_array_parts_jet_gives_the_rule_bits(system_fn):
    # The tests' reference coding, a Lagrangian given by its array parts
    # (conftest's parts_lagrangian), builds its pair jet and same from them;
    # on the parts of a rule it must give the rule's own jet, same, steps and
    # march bit for bit.
    system = system_fn()
    n, atlas, cfg = system.n, system.atlas, StepperConfig(tol=1e-12)
    rule = conformal_midpoint_rule(system.lagrangian, atlas, 0, 0.05)
    parts = parts_lagrangian(n, rule.h, rule.value, rule.d1, rule.d2, rule.d1d2,
                             rule.d1d1, rule.d2d2)
    assert parts.jet is not rule.jet
    rng = np.random.default_rng(6)
    for q0, q1 in rng.uniform(0.2, 0.9, (20, 2, n)).tolist():
        got, want = parts.jet(q0, q1), rule.jet(q0, q1)
        assert type(got[0]) is float
        assert _jet_bits(got) == _jet_bits(want)
        for k in (0, 1):
            assert _bits(parts.same(q0, q1, k)) == _bits(rule.same(q0, q1, k))
    q0, q1 = np.full(n, 0.5), np.full(n, 0.52)
    assert del_step(parts, q0, q1, cfg).tobytes() == del_step(rule, q0, q1, cfg).tobytes()
    assert dlcel_step(parts, atlas, 0, q0, q1, cfg).tobytes() == \
        dlcel_step(rule, atlas, 0, q0, q1, cfg).tobytes()
    got, want = (integrate(Ld, atlas, 0, q0, q1, 20, cfg) for Ld in (parts, rule))
    assert [pt.q.tobytes() for pt in got.points] == [pt.q.tobytes() for pt in want.points]


@pytest.mark.parametrize("rule", [rule for rule, _ in MEMO_RULES], ids=MEMO_IDS)
@pytest.mark.parametrize("system_fn", [harmonic_1d, planar_2d])
def test_array_parts_name_an_argument_of_the_wrong_shape(rule, system_fn):
    # each array part, d1d1 and d2d2 included, raises ValueError naming a q0
    # or q1 that is not a vector of n components
    system = system_fn()
    n = system.n
    Ld = rule(system.lagrangian, system.atlas, 0, 0.1)
    q = [0.3] * n
    for part in PARTS:
        for q0, q1, message in ((q, q + [0.1], f"q1 has {n + 1} components, expected {n}"),
                                (q + [0.1], q, f"q0 has {n + 1} components, expected {n}"),
                                ([q], q, "q0 must be one-dimensional")):
            with pytest.raises(ValueError, match=message):
                getattr(Ld, part)(q0, q1)


def test_exact_same_point_partials_name_an_argument_of_the_wrong_shape():
    # the d1d1 and d2d2 methods check their arguments before any shooting
    system = harmonic_1d(0.0)
    Ld = exact_discrete_lagrangian(system.lagrangian, system.atlas, 0, 0.1)
    for part in ("d1d1", "d2d2"):
        with pytest.raises(ValueError, match="q1 has 2 components, expected 1"):
            getattr(Ld, part)([0.3], [0.2, 0.1])
