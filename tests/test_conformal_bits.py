"""The conformal steps on floats give bitwise the array-coded steps they replace.

The references below are the array coding of the conformal step system, its
Newton solve through ``newton_solve``, the chart carry and the momentum fill:
``Ld.value``/``d1``/``d2``/``d1d2`` on arrays, numpy products and
``np.linalg.solve`` for the transition.  The marches run through the library's
own ``_march`` loop, converting to and from its float-list window at their
boundary, so each test compares the step, carry and fill codings.
"""

import numpy as np
import pytest

from lcsdyn import (NewtonError, StepperConfig, build_left_hamiltonian,
                    build_right_hamiltonian, conformal_midpoint_rule,
                    conformal_trapezoidal_rule, free_rotor_circle, harmonic_1d, integrate,
                    integrate_hamiltonian, midpoint_rule, momenta_along_trajectory,
                    planar_2d, trapezoidal_rule)
from lcsdyn.numerics import _newton_result, as_vector, newton_solve
from lcsdyn.trajectory import DiscreteTrajectory, TrajectoryPoint
from lcsdyn.variational import _dlcel_system, _march
from conftest import rotor_with_shifted_chart


def reference_dlcel_system(Ld, ch, q_curr, p_curr):
    """Residual p_curr - p-(q_curr, x) and Jacobian -dp-/dq1 on arrays."""
    phi = ch.grad(q_curr)

    def F(x):
        return p_curr - (phi * float(Ld.value(q_curr, x)) - as_vector(Ld.d1(q_curr, x)))

    def J(x):
        return -(np.outer(phi, as_vector(Ld.d2(q_curr, x)))
                 - np.atleast_2d(Ld.d1d2(q_curr, x)))

    return F, J


@pytest.mark.parametrize("rule", [conformal_midpoint_rule, conformal_trapezoidal_rule],
                         ids=["midpoint", "trapezoidal"])
@pytest.mark.parametrize("system", [harmonic_1d(0.1), free_rotor_circle(-0.1),
                                    planar_2d(0.3, 0.1)], ids=lambda s: s.name)
def test_dlcel_system_newton_result_is_bitwise_the_array_newton_solve(rule, system):
    # one conformal step, n = 1 and n = 2: the float system solved by
    # _newton_result, its solution, iteration count and residual, and its
    # NewtonError after one iteration, against the array system solved by
    # newton_solve
    Ld = rule(system.lagrangian, system.atlas, 0, 0.05)
    ch = system.atlas.chart(0)
    rng = np.random.default_rng(24)
    cfg, once = StepperConfig(tol=1e-13), StepperConfig(tol=1e-13, max_iter=1)
    for _ in range(6):
        q = rng.uniform(0.2, 1.0, system.n)
        p = rng.uniform(-1.5, 1.5, system.n)
        seed = q + Ld.h * p + rng.uniform(-0.2, 0.2, system.n)
        F, J = reference_dlcel_system(Ld, ch, q, p)
        qc = q.tolist()
        dlcel = _dlcel_system(Ld, qc, ch._floats[1](qc), p.tolist())
        res = _newton_result(dlcel, seed.tolist(), cfg)
        ref = newton_solve(F, seed, cfg, jacobian=J)
        assert res.x.tobytes() == ref.x.tobytes()
        assert res.iterations == ref.iterations
        assert np.float64(res.residual).tobytes() == np.float64(ref.residual).tobytes()
        with pytest.raises(NewtonError) as got:
            _newton_result(dlcel, seed.tolist(), once)
        with pytest.raises(NewtonError) as want:
            newton_solve(F, seed, once, jacobian=J)
        assert str(got.value) == str(want.value)
        assert got.value.iterations == want.value.iterations
        assert np.float64(got.value.residual).tobytes() == \
            np.float64(want.value.residual).tobytes()


def p_plus(Ld, ch, q0, q1):
    return np.exp(float(ch.sigma(q1)) - float(ch.sigma(q0))) * as_vector(Ld.d2(q0, q1))


def carry_momentum(t, q, p):
    J = np.atleast_2d(np.asarray(t.jacobian(q), dtype=float))
    return np.linalg.solve(J.T, p)


def reference_momenta(Ld, atlas, traj):
    """p-(q_k, q_{k+1}) at q_k, p+ of the last pair at the last point."""
    pts = traj.points
    p_bwd = None
    for k, pt in enumerate(pts):
        ch = atlas.chart(pt.chart)
        p = p_bwd
        if k + 1 < len(pts):
            nxt = pts[k + 1]
            t = None if nxt.chart == pt.chart else \
                atlas.require_transition(nxt.chart, pt.chart, nxt.q)
            qb = nxt.q if t is None else as_vector(t.forward(nxt.q))
            p = ch.grad(pt.q) * float(Ld.value(pt.q, qb)) - as_vector(Ld.d1(pt.q, qb))
            p_bwd = p_plus(Ld, ch, pt.q, qb)
            if t is not None:
                back = atlas.require_transition(pt.chart, nxt.chart, qb)
                p_bwd = carry_momentum(back, qb, p_bwd)
        pt.p = p
        pt.r = np.exp(-float(ch.sigma(pt.q))) * p
    return traj


def reference_integrate(Ld, atlas, q0, q1, N, cfg):
    traj = DiscreteTrajectory(h=Ld.h, points=[TrajectoryPoint(k=0, chart=0, q=q0),
                                              TrajectoryPoint(k=1, chart=0, q=q1)])

    # _march holds its window on float lists: arrays at the step's entry and
    # lists at its exit
    def step(ch, q_curr, q_prev):
        q_curr, q_prev = np.array(q_curr), np.array(q_prev)
        F, J = reference_dlcel_system(Ld, ch, q_curr, p_plus(Ld, ch, q_prev, q_curr))
        res = newton_solve(F, 2.0 * q_curr - q_prev, cfg, jacobian=J)
        return res.x.tolist(), q_curr.tolist(), (res.iterations, res.residual)

    _march(atlas, 0, q1.tolist(), q0.tolist(), traj, N, step,
           carry=lambda t, q_next, q_curr: as_vector(t.forward(np.array(q_curr))).tolist(),
           point=lambda k, chart, q, q_prev: TrajectoryPoint(k=k, chart=chart,
                                                             q=np.array(q)))
    return reference_momenta(Ld, atlas, traj)


def reference_integrate_hamiltonian(Ld, atlas, q0, p0, N, cfg):
    # the same float-list boundary as in reference_integrate
    def step(ch, q_curr, p_curr):
        q_curr, p_curr = np.array(q_curr), np.array(p_curr)
        F, J = reference_dlcel_system(Ld, ch, q_curr, p_curr)
        res = newton_solve(F, q_curr + Ld.h * p_curr, cfg, jacobian=J)
        return (res.x.tolist(), p_plus(Ld, ch, q_curr, res.x).tolist(),
                (res.iterations, res.residual))

    def point(k, chart, q, p):
        q, p = np.array(q), np.array(p)
        r = np.exp(-float(atlas.chart(chart).sigma(q))) * p
        return TrajectoryPoint(k=k, chart=chart, q=q, p=p, r=r)

    def carry(t, q, p):
        return carry_momentum(t, np.array(q), np.array(p)).tolist()

    traj = DiscreteTrajectory(h=Ld.h, points=[point(0, 0, q0, p0)])
    return _march(atlas, 0, q0.tolist(), p0.tolist(), traj, N, step,
                  carry=carry, point=point)


def assert_same_bits(traj, ref):
    assert traj.charts() == ref.charts()
    assert len(traj.points) == len(ref.points)
    for a, b in zip(traj.points, ref.points):
        assert a.q.tobytes() == b.q.tobytes()
        assert a.p.tobytes() == b.p.tobytes()
        assert a.r.tobytes() == b.r.tobytes()
    assert [(s.iterations, s.residual, s.switched) for s in traj.steps] == \
        [(s.iterations, s.residual, s.switched) for s in ref.steps]


@pytest.mark.parametrize("rule", [conformal_midpoint_rule, conformal_trapezoidal_rule])
def test_rotor_march_is_bitwise_the_array_step(rule, tight_cfg):
    rotor = free_rotor_circle(-0.1)
    Ld = rule(rotor.lagrangian, rotor.atlas, 0, 0.05)
    q0, q1 = np.array([0.3]), np.array([0.35])
    traj = integrate(Ld, rotor.atlas, 0, q0, q1, 2000, tight_cfg)
    assert traj.n_switches() >= 8
    assert_same_bits(traj, reference_integrate(Ld, rotor.atlas, q0, q1, 2000, tight_cfg))


@pytest.mark.parametrize("rule", [conformal_midpoint_rule, conformal_trapezoidal_rule])
def test_planar_marches_are_bitwise_the_array_step(rule, tight_cfg):
    planar = planar_2d(0.3, 0.1)
    Ld = rule(planar.lagrangian, planar.atlas, 0, 0.05)
    q0, q1 = np.array([1.0, 0.9]), np.array([1.004, 0.995])
    traj = integrate(Ld, planar.atlas, 0, q0, q1, 300, tight_cfg)
    assert_same_bits(traj, reference_integrate(Ld, planar.atlas, q0, q1, 300, tight_cfg))
    q, p = traj.points[0].q, traj.points[0].p
    ref = reference_integrate_hamiltonian(Ld, planar.atlas, q, p, 300, tight_cfg)
    for build in (build_right_hamiltonian, build_left_hamiltonian):
        ham = integrate_hamiltonian(build(Ld, planar.atlas, 0), planar.atlas, 0, q, p,
                                    300, tight_cfg)
        assert_same_bits(ham, ref)


def fresh_fill(Ld, atlas, traj, cfg, conformal):
    """The public fill of a trajectory built from traj's points alone."""
    bare = DiscreteTrajectory(h=traj.h, points=[
        TrajectoryPoint(k=pt.k, chart=pt.chart, q=pt.q.copy()) for pt in traj.points])
    return momenta_along_trajectory(Ld, atlas, bare, tol=max(10.0 * cfg.tol, 1e-13),
                                    conformal=conformal)


RECORDED_RULES = [(conformal_midpoint_rule, True), (conformal_trapezoidal_rule, True),
                  (lambda L, atlas, chart, h: midpoint_rule(L, h), False),
                  (lambda L, atlas, chart, h: trapezoidal_rule(L, h), False)]


@pytest.mark.parametrize("rule, conformal", RECORDED_RULES,
                         ids=["midpoint", "trapezoidal", "plain_midpoint",
                              "plain_trapezoidal"])
@pytest.mark.parametrize("system, q0, q1, N, switches", [
    (free_rotor_circle(-0.1), [0.3], [0.35], 2000, 8),
    (rotor_with_shifted_chart(), [0.3], [0.35], 2000, 8),
    (planar_2d(0.3, 0.1), [1.0, 0.9], [1.004, 0.995], 300, 0)],
    ids=["rotor", "shifted_rotor", "planar"])
def test_integrate_momenta_are_bitwise_a_fresh_fill(rule, conformal, system, q0, q1, N,
                                                     switches, tight_cfg):
    # integrate takes the momenta and sigma values its steps recorded and
    # re-evaluates only the switch windows, where the point carried back may
    # round away from the solved one; the public fill of the same points
    # evaluates every pair
    Ld = rule(system.lagrangian, system.atlas, 0, 0.05)
    traj = integrate(Ld, system.atlas, 0, q0, q1, N, tight_cfg, conformal=conformal)
    assert traj.n_switches() >= switches
    # and marches whose last step switches: the first two switches on a rotor
    ends = [s.k for s in traj.steps if s.switched][:2]
    marches = [traj] + [integrate(Ld, system.atlas, 0, q0, q1, end, tight_cfg,
                                  conformal=conformal) for end in ends]
    for march in marches:
        fresh = fresh_fill(Ld, system.atlas, march, tight_cfg, conformal)
        for a, b in zip(march.points, fresh.points):
            assert a.p.tobytes() == b.p.tobytes()
            assert a.r.tobytes() == b.r.tobytes()
