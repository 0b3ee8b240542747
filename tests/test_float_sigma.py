"""The catalog's affine sigma on floats, the conformal rules' constant Lee
form, and conformal marches on a Lee form declared point by point.

A catalog chart's sigma is one float kernel, ``sigma._floats``, and the
public ``Chart.sigma`` is that kernel on ``as_vector(q).tolist()``; the
kernel rounds as ``numerics._dot`` states, which ``conftest.reference_dot``
computes without the float unit for n <= 2.  A conformal rule on a chart
with a declared constant Lee form reads it once; it must give the bits of
the same rule on a copy of the chart that declares the same affine form
through ``sigma_grad``/``sigma_hess``, which the rule evaluates at every pair.
"""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lcsdyn import (ConformalAtlas, DiscreteTrajectory, StepperConfig, TrajectoryPoint,
                    build_left_hamiltonian, build_right_hamiltonian,
                    conformal_midpoint_rule, conformal_trapezoidal_rule,
                    free_rotor_circle, harmonic_1d, integrate, integrate_hamiltonian,
                    momenta_along_trajectory, planar_2d, with_constant_sigma)
from lcsdyn.systems import _linear_chart, rotor_extended_chart
from conftest import curved_planar, free_line_system, harmonic_3d, reference_dot

# any finite double: signed zeros, subnormals and values near the largest
_ANY = st.floats(allow_nan=False, allow_infinity=False)
_MAX = 1.7976931348623157e308


def bits(x) -> bytes:
    return struct.pack("<d", x)


def _sigma_cases():
    cases = []
    for system in (harmonic_1d(), planar_2d(), free_rotor_circle(), rotor_extended_chart(),
                   harmonic_3d()):
        for ch in system.atlas.charts:
            cases.append(pytest.param(ch, ch.constant_lee.tolist(),
                                      id=f"{system.name}-{ch.id}"))
        for ch in with_constant_sigma(system, 0.7).atlas.charts:
            cases.append(pytest.param(ch, None, id=f"{system.name}-{ch.id}-constant"))
    return cases


@pytest.mark.parametrize("chart, lee", _sigma_cases())
@settings(max_examples=150, deadline=None)
@given(q=st.lists(_ANY, min_size=3, max_size=3))
@example(q=[-0.0, -0.0, -0.0])
@example(q=[0.0, -0.0, 0.0])
@example(q=[5e-324, -5e-324, 2.2250738585072014e-308])
@example(q=[_MAX, _MAX, -_MAX])
@example(q=[_MAX, -_MAX, 1.0])
def test_chart_sigma_is_its_float_kernel(chart, lee, q):
    # Chart.sigma on an array equals sigma._floats on its list, bit for bit;
    # a catalog sigma rounds as _dot states (0.0 + c0 q0 + c1 q1, each
    # operation rounded), n = 1 as numpy's one-element dot, and the constant
    # of with_constant_sigma is returned as it is.
    q = np.array(q[:chart.dim])
    with np.errstate(over="ignore", invalid="ignore"):  # numpy's dot, n >= 3
        check_float_kernel(chart, lee, q)


def check_float_kernel(chart, lee, q):
    got = chart.sigma(q)
    assert bits(got) == bits(chart.sigma._floats(q.tolist()))
    if lee is None:
        assert bits(got) == bits(0.7)
        return
    assert bits(got) == bits(reference_dot(lee, q))
    if chart.dim == 1:
        assert bits(got) == bits(float(np.array(lee) @ q))


@pytest.mark.parametrize("chart, lee", _sigma_cases())
def test_chart_sigma_of_a_wrong_length_raises(chart, lee):
    for size in (0, chart.dim - 1, chart.dim + 1):
        if size != chart.dim:
            with pytest.raises(ValueError):
                chart.sigma(np.ones(size))


@settings(max_examples=300, deadline=None)
@given(c=st.lists(_ANY, min_size=2, max_size=2), q=st.lists(_ANY, min_size=2, max_size=2))
@example(c=[0.3, 0.1], q=[-0.0, -0.0])
@example(c=[-0.3, 0.1], q=[0.0, -0.0])
@example(c=[_MAX, _MAX], q=[2.0, -2.0])
def test_affine_sigma_rounds_per_operation(c, q):
    # any coefficients, n = 1 and n = 2: the reference rounds each product
    # and each sum of 0.0 + c0 q0 + c1 q1 once, in that order
    for n in (1, 2):
        chart = _linear_chart(0, [-1.0] * n, [1.0] * n, c[:n])
        got = chart.sigma(np.array(q[:n]))
        assert bits(got) == bits(reference_dot(c[:n], q[:n]))
        if n == 1:
            with np.errstate(over="ignore"):
                assert bits(got) == bits(float(np.array(c[:1]) @ np.array(q[:1])))


def lee_declared_per_point(atlas: ConformalAtlas) -> ConformalAtlas:
    """``atlas`` whose charts declare their constant Lee form through
    ``sigma_grad`` and ``sigma_hess`` instead of ``constant_lee``; sigma is kept."""
    def per_point(ch):
        lee, n = ch.constant_lee, ch.dim
        return dataclasses.replace(ch, constant_lee=None, sigma_grad=lambda q: lee.copy(),
                                   sigma_hess=lambda q: np.zeros((n, n)))

    return ConformalAtlas(charts=tuple(map(per_point, atlas.charts)),
                          transitions=atlas.transitions)


def _pairs(chart, h: float, count: int, seed: int):
    """Pairs (q0, q1) in the chart: random q0 and velocities, plus q1 = q0 and
    a q0 with a zero coordinate."""
    rng = np.random.default_rng(seed)
    lo, hi = chart.lower, chart.upper
    pairs = []
    for _ in range(count):
        q0 = lo + 0.1 * (hi - lo) + 0.8 * (hi - lo) * rng.random(chart.dim)
        pairs.append((q0, q0 + h * rng.uniform(-2.0, 2.0, chart.dim)))
    pairs.append((pairs[0][0], pairs[0][0].copy()))
    zero = pairs[1][0].copy()
    zero[0] = 0.0 if lo[0] < 0.0 < hi[0] else zero[0]
    pairs.append((zero, zero + 0.01))
    return pairs


@pytest.mark.parametrize("rule", [conformal_midpoint_rule, conformal_trapezoidal_rule],
                         ids=["midpoint", "trapezoidal"])
@pytest.mark.parametrize("system, chart", [
    (planar_2d(), 0), (planar_2d(0.3, -0.2), 0), (free_rotor_circle(-0.1), 0),
    (free_rotor_circle(-0.1), 1), (with_constant_sigma(planar_2d(), 0.7), 0),
    (harmonic_3d(), 0)],
    ids=["planar", "planar-mixed-signs", "rotor-0", "rotor-1", "planar-constant",
         "harmonic-3d"])
def test_constant_lee_rule_equals_the_rule_on_a_per_point_lee_form(rule, system, chart):
    h = 0.05
    got = rule(system.lagrangian, system.atlas, chart, h)
    want = rule(system.lagrangian, lee_declared_per_point(system.atlas), chart, h)
    for q0, q1 in _pairs(system.atlas.chart(chart), h, 12, 22):
        for part in ("value", "d1", "d2", "d1d2", "d1d1", "d2d2"):
            a, b = getattr(got, part)(q0, q1), getattr(want, part)(q0, q1)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (part, q0, q1)
        jet_a, jet_b = got.jet(q0.tolist(), q1.tolist()), want.jet(q0.tolist(), q1.tolist())
        assert np.float64(jet_a[0]).tobytes() == np.float64(jet_b[0]).tobytes()
        for a, b in zip(jet_a[1:], jet_b[1:]):
            assert np.array(a).tobytes() == np.array(b).tobytes()


def _fresh_fill(Ld, atlas, traj, tol: float) -> DiscreteTrajectory:
    fresh = DiscreteTrajectory(h=traj.h, points=[
        TrajectoryPoint(k=pt.k, chart=pt.chart, q=pt.q.copy()) for pt in traj.points])
    return momenta_along_trajectory(Ld, atlas, fresh, tol=tol)


@pytest.mark.parametrize("rule", [conformal_midpoint_rule, conformal_trapezoidal_rule],
                         ids=["midpoint", "trapezoidal"])
@pytest.mark.parametrize("system_fn, q0, v0", [
    (curved_planar, [1.0, 0.9], [0.2, -0.3]), (free_line_system, [0.3], [0.8])],
    ids=["curved_planar", "free_line"])
def test_conformal_marches_on_a_lee_form_declared_per_point(rule, system_fn, q0, v0):
    # curved_planar's Lee form varies with the point; free_line's is constant
    # but declared through sigma_grad, so both take the per-point Lee path
    system, h, N, cfg = system_fn(), 0.05, 120, StepperConfig(tol=1e-12)
    atlas = system.atlas
    Ld = rule(system.lagrangian, atlas, 0, h)
    q0 = np.array(q0)
    lag = integrate(Ld, atlas, 0, q0, q0 + h * np.array(v0), N, cfg)
    fresh = _fresh_fill(Ld, atlas, lag, 1e-10)
    for a, b in zip(lag.points, fresh.points, strict=True):
        assert a.p.tobytes() == b.p.tobytes() and a.r.tobytes() == b.r.tobytes(), a.k
    marches = [integrate_hamiltonian(build(Ld, atlas, 0), atlas, 0, lag.points[0].q,
                                     lag.points[0].p, N, cfg)
               for build in (build_right_hamiltonian, build_left_hamiltonian)]
    for ham in marches:
        assert len(ham.points) == len(lag.points)
        fill = _fresh_fill(Ld, atlas, ham, 1e-10)
        for a, b, c in zip(ham.points, fill.points, lag.points, strict=True):
            assert np.max(np.abs(a.p - b.p)) <= 1e-10 and np.max(np.abs(a.r - b.r)) <= 1e-10
            assert np.max(np.abs(a.q - c.q)) <= 5e-10 and np.max(np.abs(a.p - c.p)) <= 5e-10
    for traj in [lag, *marches]:
        for pt in traj.points:
            r = np.exp(-atlas.chart(pt.chart).sigma(pt.q)) * pt.p
            assert np.max(np.abs(pt.r - r)) <= 1e-12, pt.k
