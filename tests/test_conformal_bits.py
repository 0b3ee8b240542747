"""The conformal steps on floats give bitwise the array-coded steps they replace.

The references below are the array coding of the conformal step system, its
Newton solve through ``newton_solve``, the chart carry and the momentum fill:
``Ld.value``/``d1``/``d2``/``d1d2`` on arrays, numpy products and
``np.linalg.solve`` for the transition.  The marches run through the library's
own ``_march`` loop, so each test compares the step, carry and fill codings.
"""

import numpy as np
import pytest

from lcsdyn import (build_left_hamiltonian, build_right_hamiltonian,
                    conformal_midpoint_rule, conformal_trapezoidal_rule,
                    free_rotor_circle, integrate, integrate_hamiltonian, planar_2d)
from lcsdyn.numerics import as_vector, newton_solve
from lcsdyn.trajectory import DiscreteTrajectory, TrajectoryPoint
from lcsdyn.variational import DEFAULT_SWITCH_MARGIN, _march


def reference_dlcel_system(Ld, ch, q_curr, p_curr):
    """Residual p_curr - p-(q_curr, x) and Jacobian -dp-/dq1 on arrays."""
    phi = ch.grad(q_curr)

    def F(x):
        return p_curr - (phi * float(Ld.value(q_curr, x)) - as_vector(Ld.d1(q_curr, x)))

    def J(x):
        return -(np.outer(phi, as_vector(Ld.d2(q_curr, x)))
                 - np.atleast_2d(Ld.d1d2(q_curr, x)))

    return F, J


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

    def step(ch, q_curr, q_prev):
        F, J = reference_dlcel_system(Ld, ch, q_curr, p_plus(Ld, ch, q_prev, q_curr))
        res = newton_solve(F, 2.0 * q_curr - q_prev, cfg, jacobian=J)
        return res.x, q_curr, res

    _march(atlas, 0, q1, q0, traj, N, step,
           carry=lambda t, q_next, q_curr: as_vector(t.forward(q_curr)),
           point=lambda k, chart, q, q_prev: TrajectoryPoint(k=k, chart=chart, q=q),
           switch_margin=DEFAULT_SWITCH_MARGIN)
    return reference_momenta(Ld, atlas, traj)


def reference_integrate_hamiltonian(Ld, atlas, q0, p0, N, cfg):
    def step(ch, q_curr, p_curr):
        F, J = reference_dlcel_system(Ld, ch, q_curr, p_curr)
        res = newton_solve(F, q_curr + Ld.h * p_curr, cfg, jacobian=J)
        return res.x, p_plus(Ld, ch, q_curr, res.x), res

    def point(k, chart, q, p):
        r = np.exp(-float(atlas.chart(chart).sigma(q))) * p
        return TrajectoryPoint(k=k, chart=chart, q=q, p=p, r=r)

    traj = DiscreteTrajectory(h=Ld.h, points=[point(0, 0, q0, p0)])
    return _march(atlas, 0, q0, p0, traj, N, step,
                  carry=carry_momentum, point=point, switch_margin=DEFAULT_SWITCH_MARGIN)


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
