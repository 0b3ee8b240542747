"""The float arithmetic of ``verification`` and of ``variational``'s checking
helpers against the array codings it replaced, bit for bit."""

import copy
import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lcsdyn import (StepperConfig, free_rotor_circle, harmonic_1d, integrate,
                    midpoint_rule, planar_2d, stationarity_residual, trapezoidal_rule)
from lcsdyn import verification
from lcsdyn.atlas import CocycleReport, OverlapCocycle
from lcsdyn.numerics import _nan_max, as_vector, fd_jacobian
from lcsdyn.variational import _into_chart, _normalize_charts, action_sum
from lcsdyn.verification import (_entry, _reference_march, _sup, _trajectory_gap,
                                 check_momentum_relation, check_reduction,
                                 check_stationarity)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                            2.2e-308, -1e-310, 1e300, -1e300, 1e-300, -1e-300, 1.0])
_COMPONENT = _SPECIAL | st.floats(allow_nan=True, allow_infinity=True)
_PAIR = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(_COMPONENT, min_size=n, max_size=n), st.lists(_COMPONENT, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(pair=_PAIR)
@example(pair=([-0.0], [0.0]))
@example(pair=([math.inf, 1.0], [math.inf, 2.0]))
@example(pair=([1.0, math.nan], [2.0, 0.0]))
@example(pair=([1e300, -1e300], [-1e300, 1e300]))
@example(pair=([5e-324, 0.0, -5e-324], [-5e-324, -0.0, 5e-324]))
def test_sup_is_the_numpy_reduction(pair):
    a, b = map(np.array, pair)
    with np.errstate(invalid="ignore", over="ignore"):
        want = float(np.max(np.abs(a - b)))
    got = _sup(a, b)
    assert type(got) is float
    # a NaN gap is reported as null, so only NaN-ness can show
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("a, b", [([1.0], [1.0, 2.0]), ([1.0, 2.0, 3.0], [1.0, 2.0])])
def test_sup_rejects_unequal_lengths(a, b):
    with pytest.raises(ValueError):
        _sup(np.array(a), np.array(b))


def reference_action_sum(Ld, atlas, chart_assignment, qs):
    """The array coding of ``action_sum``, with its np.float64 accumulation."""
    qs = [as_vector(q) for q in qs]
    charts = _normalize_charts(chart_assignment, len(qs))
    total = 0.0
    for k in range(len(qs) - 1):
        ck = charts[k]
        qb = _into_chart(atlas, qs[k + 1], charts[k + 1], ck)
        sigma = float(atlas.chart(ck).sigma(qs[k]))
        total += np.exp(-sigma) * float(Ld.value(qs[k], qb))
    return total


def reference_stationarity(Ld, atlas, traj):
    """The former residual: ``fd_jacobian`` over the array ``action_sum``."""
    qs = [pt.q for pt in traj.points]
    charts = [pt.chart for pt in traj.points]
    worst = 0.0
    for k in range(1, len(qs) - 1):
        window = charts[k - 1:k + 2]
        grad = fd_jacobian(lambda x: reference_action_sum(Ld, atlas, window,
                                                          [qs[k - 1], x, qs[k + 1]]),
                           qs[k], 1e-6)
        worst = max(worst, float(np.max(np.abs(grad))))
    return worst


def _marches():
    """Catalog marches with both plain rules; the rotor's crosses chart overlaps."""
    cfg = StepperConfig(tol=1e-12)
    for rule in (midpoint_rule, trapezoidal_rule):
        for system, q0, q1, N, h in ((harmonic_1d(), [1.0], [0.99], 60, 0.1),
                                     (planar_2d(), [1.0, 0.9], [1.004, 0.995], 60, 0.1),
                                     (free_rotor_circle(), [0.0], [0.05], 95, 0.05)):
            Ld = rule(system.lagrangian, h)
            yield (f"{system.name}-{rule.__name__}", system, Ld,
                   integrate(Ld, system.atlas, 0, q0, q1, N, cfg))


_MARCHES = list(_marches())


@pytest.mark.parametrize("name, system, Ld, traj", _MARCHES, ids=[m[0] for m in _MARCHES])
def test_action_sum_and_stationarity_keep_their_bits(name, system, Ld, traj):
    if system.name == "free_rotor_circle":
        assert traj.n_switches() > 0
    qs, charts = [pt.q for pt in traj.points], [pt.chart for pt in traj.points]
    for window in ((0, len(qs)), (10, 13), (40, 50)):
        got = action_sum(Ld, system.atlas, charts[slice(*window)], qs[slice(*window)])
        want = reference_action_sum(Ld, system.atlas, charts[slice(*window)],
                                    qs[slice(*window)])
        assert _bits(got) == _bits(float(want))
    got = stationarity_residual(Ld, system.atlas, traj)
    assert _bits(got) == _bits(reference_stationarity(Ld, system.atlas, traj))


@pytest.mark.parametrize("system", [harmonic_1d(), planar_2d(), free_rotor_circle(),
                                    harmonic_1d(-0.4), planar_2d(0.2, -0.15)],
                         ids=lambda s: f"{s.name}{list(s.sigma_params)}")
def test_momentum_relation_is_the_array_formula(system):
    _, traj = march = _reference_march(system)
    worst = 0.0
    for pt in traj.points:
        sigma = float(system.atlas.chart(pt.chart).sigma(pt.q))
        worst = max(worst, float(np.max(np.abs(pt.r - np.exp(-sigma) * pt.p))))
    assert check_momentum_relation(system, march) == _entry(
        "momentum_relation", worst <= 1e-12, worst, 1e-12)


# --- NaN in a running maximum ---------------------------------------------------

_VALUES = st.lists(_SPECIAL.filter(lambda x: not math.isnan(x)) | st.floats(allow_nan=False),
                   min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(values=_VALUES, at=st.integers(0, 5))
def test_nan_max_is_max_unless_a_value_is_nan(values, at):
    # without a NaN the very float max returns (the first of equal values, so
    # the sign of a zero), one iterable or several values alike; a NaN
    # anywhere is returned, where max drops it unless it comes first
    assert _nan_max(values) is max(values)
    assert _nan_max(*values, 0.0) is max(*values, 0.0)
    poisoned = values[:at] + [math.nan] + values[at:]
    assert math.isnan(_nan_max(poisoned)) and math.isnan(_nan_max(*poisoned))
    assert _nan_max([], default=0.5) == 0.5
    with pytest.raises(ValueError):
        _nan_max([])


@pytest.mark.parametrize("system_fn", [harmonic_1d, planar_2d, free_rotor_circle])
def test_a_nan_point_fails_the_trajectory_checks(system_fn):
    # q = NaN at point 5 of the reference march: the running maxima used to
    # keep the gap of the points before it, and so passed the checks
    system = system_fn()
    Ld, traj = march = _reference_march(system)
    assert _trajectory_gap(traj, traj) == 0.0
    for check in (check_momentum_relation, check_stationarity):
        assert check(system, march)["passed"]
    bad = copy.deepcopy(traj)
    bad.points[5] = dataclasses.replace(bad.points[5], q=np.full(system.n, math.nan))
    assert math.isnan(_trajectory_gap(traj, bad))
    for check in (check_momentum_relation, check_stationarity):
        entry = check(system, (Ld, bad))
        assert not entry["passed"] and entry["measured"] is None
        assert entry["note"] == "measured nan"


def test_a_nan_step_fails_the_reduction_check(monkeypatch):
    # one plain step of the hundred returns q = NaN
    calls, rd_step = [], verification.rd_step

    def poisoned(Hd, q, p, cfg):
        calls.append(1)
        q_next, p_next = rd_step(Hd, q, p, cfg)
        return (np.full_like(q_next, math.nan) if len(calls) == 37 else q_next), p_next

    system = harmonic_1d()
    assert check_reduction(system)["passed"]
    monkeypatch.setattr(verification, "rd_step", poisoned)
    entry = check_reduction(system)
    assert len(calls) == 100
    assert not entry["passed"] and entry["measured"] is None


def test_a_nan_overlap_deviation_is_the_cocycle_maximum():
    entries = [OverlapCocycle(0, 1, 16, 0.0, dev) for dev in (1e-12, math.nan, 3e-12)]
    assert math.isnan(CocycleReport(entries=tuple(entries)).max_deviation)
    assert CocycleReport(entries=(entries[0], entries[2])).max_deviation == 3e-12
    assert CocycleReport().max_deviation == 0.0
