import dataclasses

import numpy as np
import pytest

from lcsdyn import (ConformalAtlas, DiscreteTrajectory, IntegrationError, StepperConfig,
                    build_left_hamiltonian, build_right_hamiltonian,
                    conformal_midpoint_rule, del_step, dlcel_step,
                    free_rotor_circle, harmonic_1d, integrate, integrate_hamiltonian,
                    make_lcel_field, midpoint_rule, planar_2d, rk4_integrate,
                    rotor_extended_chart, stationarity_residual, with_constant_sigma)
from lcsdyn.numerics import _newton
from lcsdyn.variational import _three_point_system, action_sum


def dlcel_free_q2():
    # scalar residual of the conformal step: 0.005 u^2 + u = exp(0.01)
    u = (-1.0 + np.sqrt(1.0 + 0.02 * np.exp(0.01))) / 0.01
    return 0.1 + 0.1 * u


def test_del_step_free_particle(free_line_flat, tight_cfg):
    Ld = midpoint_rule(free_line_flat.lagrangian, 0.1)
    q2 = del_step(Ld, [0.0], [0.1], tight_cfg)
    assert abs(q2[0] - 0.2) <= 1e-12


def test_del_step_harmonic(harmonic_flat, tight_cfg):
    Ld = midpoint_rule(harmonic_flat.lagrangian, 0.1)
    q2 = del_step(Ld, [1.0], [1.0], tight_cfg)
    assert abs(q2[0] - 9.925 / 10.025) <= 1e-12


def test_del_step_fixed_point_converges_immediately(free_line_flat, tight_cfg):
    # stationary pair: the extrapolated seed already solves the recursion
    Ld = midpoint_rule(free_line_flat.lagrangian, 0.1)
    _, iterations, residual = _newton(*_three_point_system(Ld, None, [0.4], [0.4], False),
                                      tight_cfg)
    assert iterations == 0
    assert residual == 0.0


def test_dlcel_constant_sigma_equals_del(harmonic, tight_cfg):
    const = with_constant_sigma(harmonic, 1.3)
    Ld = midpoint_rule(const.lagrangian, 0.1)
    rng = np.random.default_rng(21)
    for _ in range(100):
        q0 = rng.uniform(-1, 1, 1)
        q1 = q0 + rng.uniform(-0.1, 0.1, 1)
        a = dlcel_step(Ld, const.atlas, 0, q0, q1, tight_cfg)
        b = del_step(Ld, q0, q1, tight_cfg)
        assert np.max(np.abs(a - b)) <= 1e-12


def test_dlcel_free_particle_value(free_line, tight_cfg):
    Ld = midpoint_rule(free_line.lagrangian, 0.1)
    q2 = dlcel_step(Ld, free_line.atlas, 0, [0.0], [0.1], tight_cfg)
    assert abs(q2[0] - dlcel_free_q2()) <= 1e-10


def test_dlcel_growing_sigma_stretches_steps(free_line, tight_cfg):
    Ld = midpoint_rule(free_line.lagrangian, 0.1)
    q2 = dlcel_step(Ld, free_line.atlas, 0, [0.0], [0.1], tight_cfg)
    assert q2[0] - 0.1 > 0.1


def test_integrate_flag_semantics(harmonic, tight_cfg):
    # conformal=False must reproduce the sigma == 0 run, momenta included
    flat = harmonic_1d(0.0)
    Ld = midpoint_rule(harmonic.lagrangian, 0.1)
    t_plain = integrate(Ld, harmonic.atlas, 0, [1.0], [0.99], 20, tight_cfg,
                        conformal=False)
    t_flat = integrate(Ld, flat.atlas, 0, [1.0], [0.99], 20, tight_cfg,
                       conformal=True)
    for a, b in zip(t_plain.points, t_flat.points):
        assert np.max(np.abs(a.q - b.q)) <= 1e-13
        assert np.max(np.abs(a.p - b.p)) <= 1e-13
        assert np.max(np.abs(a.r - b.r)) <= 1e-13


def test_integrate_energy_oscillates_without_drift(harmonic_flat, tight_cfg):
    h = 0.05
    Ld = midpoint_rule(harmonic_flat.lagrangian, h)
    traj = integrate(Ld, harmonic_flat.atlas, 0, [1.0],
                     [float(np.cos(h))], 400, tight_cfg)
    H = harmonic_flat.hamiltonian
    energies = np.array([H.value(pt.q, pt.p) for pt in traj.points])
    spread = np.max(np.abs(energies - energies[0]))
    assert spread <= 10.0 * h * h
    # no secular drift: late-window mean matches early-window mean
    early = energies[: len(energies) // 4].mean()
    late = energies[-len(energies) // 4:].mean()
    assert abs(late - early) <= h * h


def test_integrate_circle_momentum_continuous_across_switch(tight_cfg):
    rotor = free_rotor_circle(0.1)
    Ld = conformal_midpoint_rule(rotor.lagrangian, rotor.atlas, 0, 0.05)
    traj = integrate(Ld, rotor.atlas, 0, [0.0], [0.05], 95, tight_cfg)
    assert traj.n_switches() == 1
    ext = rotor_extended_chart(0.1)
    ref = integrate(Ld, ext.atlas, 0, [0.0], [0.05], 95, tight_cfg)
    for a, b in zip(traj.points, ref.points):
        assert np.max(np.abs(a.p - b.p)) <= 1e-10


def test_integrate_aborts_with_partial(free_line, tight_cfg):
    # forcing the conformal free particle uphill eventually exits the box
    Ld = midpoint_rule(free_line.lagrangian, 0.5)
    with pytest.raises(IntegrationError) as exc:
        integrate(Ld, free_line.atlas, 0, [0.0], [10.0], 400, tight_cfg)
    assert exc.value.partial is not None
    assert exc.value.index == len(exc.value.partial.points)


def test_action_sum_values(free_line, free_line_flat):
    Ld = midpoint_rule(free_line_flat.lagrangian, 0.1)
    qs = [[0.0], [0.1], [0.2]]
    assert action_sum(Ld, free_line_flat.atlas, 0, qs) == pytest.approx(0.1,
                                                                        abs=1e-15)
    one = action_sum(Ld, free_line_flat.atlas, 0, [[0.0], [0.1]])
    assert one == pytest.approx(0.05, abs=1e-15)
    conf = action_sum(Ld, free_line.atlas, 0, qs)
    assert conf == pytest.approx(0.05 * (1.0 + np.exp(-0.01)), abs=1e-14)


def test_stationarity_on_solution(free_line, tight_cfg):
    Ld = conformal_midpoint_rule(free_line.lagrangian, free_line.atlas, 0, 0.1)
    traj = integrate(Ld, free_line.atlas, 0, [0.0], [0.1], 50, tight_cfg)
    assert stationarity_residual(Ld, free_line.atlas, traj) <= 1e-8


def test_stationarity_detects_perturbation(free_line, tight_cfg):
    Ld = conformal_midpoint_rule(free_line.lagrangian, free_line.atlas, 0, 0.1)
    traj = integrate(Ld, free_line.atlas, 0, [0.0], [0.1], 50, tight_cfg)
    traj.points[25].q = traj.points[25].q + 1e-3
    assert stationarity_residual(Ld, free_line.atlas, traj) >= 1e-4


def test_stationarity_needs_interior_point(free_line):
    Ld = midpoint_rule(free_line.lagrangian, 0.1)
    with pytest.raises(ValueError):
        stationarity_residual(Ld, free_line.atlas,
                              DiscreteTrajectory.from_points(0.1, 0, [[0.0], [0.1]]))


def test_variational_consistency_scaled_tolerance(harmonic):
    cfg = StepperConfig(tol=1e-10)
    Ld = conformal_midpoint_rule(harmonic.lagrangian, harmonic.atlas, 0, 0.1)
    traj = integrate(Ld, harmonic.atlas, 0, [1.0], [0.99], 100, cfg)
    assert stationarity_residual(Ld, harmonic.atlas, traj) <= 10.0 * cfg.tol


def test_chart_independence_of_switch_threshold(tight_cfg):
    rotor = free_rotor_circle(0.1)
    Ld = conformal_midpoint_rule(rotor.lagrangian, rotor.atlas, 0, 0.05)
    runs = {}
    for margin in (0.05, 0.1, 0.15):
        runs[margin] = integrate(Ld, rotor.atlas, 0, [0.0], [0.05], 160,
                                 tight_cfg, switch_margin=margin)
    # map every point to an absolute angle by unwinding the 2 pi transitions
    def unwound(traj):
        out, offset, prev = [], 0.0, None
        for pt in traj.points:
            if prev is not None and pt.chart != prev.chart:
                gap = pt.q[0] - prev.q[0]
                offset += 2 * np.pi * round(gap / (-2 * np.pi))
            out.append(pt.q[0] + offset)
            prev = pt
        return np.array(out)

    base = unwound(runs[0.1])
    for margin in (0.05, 0.15):
        assert np.max(np.abs(unwound(runs[margin]) - base)) <= 1e-9


def test_convergence_second_order_two_point(harmonic):
    # error roughly quarters when h halves (full slope study in acceptance)
    cfg = StepperConfig(tol=1e-12)
    field = make_lcel_field(harmonic.lagrangian, harmonic.atlas, 0)
    h_ref = 1e-4
    ref = rk4_integrate(field, [1.0, 0.0], h_ref, int(round(1.0 / h_ref)))
    errs = {}
    for h in (0.1, 0.05):
        Ld = conformal_midpoint_rule(harmonic.lagrangian, harmonic.atlas, 0, h)
        q1 = ref[int(round(h / h_ref))][:1]
        traj = integrate(Ld, harmonic.atlas, 0, [1.0], q1,
                         int(round(1.0 / h)), cfg)
        errs[h] = abs(traj.points[-1].q[0] - ref[-1][0])
    assert 3.0 <= errs[0.1] / errs[0.05] <= 5.0


@pytest.mark.parametrize("conformal", [True, False], ids=["conformal", "plain"])
def test_marches_own_every_array_they_return(conformal, tight_cfg):
    # every point's q, p and r is a fresh float64 array of shape (n,): changing
    # the inputs after the call, or one point's arrays, changes no other
    planar = planar_2d(0.3, 0.1)
    Ld = conformal_midpoint_rule(planar.lagrangian, planar.atlas, 0, 0.05) if conformal \
        else midpoint_rule(planar.lagrangian, 0.05)
    q0, q1 = np.array([1.0, 0.9]), np.array([1.004, 0.995])
    traj = integrate(Ld, planar.atlas, 0, q0, q1, 20, tight_cfg, conformal=conformal)
    p0 = traj.points[0].p.copy()
    hams = [integrate_hamiltonian(build(Ld, planar.atlas, 0), planar.atlas, 0, q0, p0, 20,
                                  tight_cfg, conformal=conformal)
            for build in (build_right_hamiltonian, build_left_hamiltonian)]
    for march, inputs in [(traj, (q0, q1))] + [(ham, (q0, p0)) for ham in hams]:
        before = [[a.tobytes() for a in (pt.q, pt.p, pt.r)] for pt in march.points]
        arrays = [a for pt in march.points for a in (pt.q, pt.p, pt.r)]
        for a in arrays:
            assert type(a) is np.ndarray and a.dtype == np.float64 and a.shape == (2,)
            assert not any(np.shares_memory(a, x) for x in inputs)
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        for x in inputs:
            saved = x.copy()
            x[0] = 7.0
            assert [[a.tobytes() for a in (pt.q, pt.p, pt.r)] for pt in march.points] \
                == before
            x[:] = saved


def _counting_rotor(c):
    """free_rotor_circle(c) whose transitions count their forward and jacobian calls."""
    rotor = free_rotor_circle(c)
    calls = {"forward": 0, "jacobian": 0}

    def counted(name, f):
        def wrapped(q):
            calls[name] += 1
            return f(q)
        return wrapped

    transitions = tuple(dataclasses.replace(t, forward=counted("forward", t.forward),
                                            jacobian=counted("jacobian", t.jacobian))
                        for t in rotor.atlas.transitions)
    return rotor, ConformalAtlas(charts=rotor.atlas.charts, transitions=transitions), calls


@pytest.mark.parametrize("march, forwards_per_switch", [("integrate", 3),
                                                        ("integrate_hamiltonian", 1)])
def test_chart_switch_maps_each_point_once(march, forwards_per_switch, tight_cfg):
    # A switch of integrate carries q_next once (the switch test, whose point
    # the march keeps), q_curr once (the carry) and the switched point back
    # once (the momentum fill, which transports its covector without carrying
    # the point forward again); integrate_hamiltonian carries q_next once and
    # transports p.  Each switch reads one transition Jacobian.  The counting
    # atlas gives the bits of the catalog one.
    rotor, atlas, calls = _counting_rotor(-0.1)

    def run(atlas):
        Ld = conformal_midpoint_rule(rotor.lagrangian, atlas, 0, 0.05)
        if march == "integrate":
            return integrate(Ld, atlas, 0, [0.1], [0.15], 1999, tight_cfg)
        return integrate_hamiltonian(build_right_hamiltonian(Ld, atlas, 0), atlas, 0,
                                     [0.1], [1.0], 2000, tight_cfg)

    traj = run(atlas)
    switches = traj.n_switches()
    assert switches >= 10
    assert calls == {"forward": forwards_per_switch * switches, "jacobian": switches}
    assert [(pt.chart, pt.q.tobytes(), pt.p.tobytes(), pt.r.tobytes())
            for pt in traj.points] == \
        [(pt.chart, pt.q.tobytes(), pt.p.tobytes(), pt.r.tobytes())
         for pt in run(rotor.atlas).points]


@pytest.mark.parametrize("entry", ["integrate_q0", "integrate_q1", "dlcel_step",
                                   "integrate_hamiltonian"])
def test_a_point_that_is_not_a_vector_is_named(entry, tight_cfg):
    # a (1, 2) q for planar_2d used to reach the bounds compare and raise
    # numpy's "truth value ... is ambiguous"
    planar = planar_2d()
    Ld = conformal_midpoint_rule(planar.lagrangian, planar.atlas, 0, 0.05)
    good, bad = np.array([1.0, 0.91]), np.array([[1.0, 0.9]])
    run = {"integrate_q0": lambda: integrate(Ld, planar.atlas, 0, bad, good, 5, tight_cfg),
           "integrate_q1": lambda: integrate(Ld, planar.atlas, 0, good, bad, 5, tight_cfg),
           "dlcel_step": lambda: dlcel_step(Ld, planar.atlas, 0, bad, good, tight_cfg),
           "integrate_hamiltonian": lambda: integrate_hamiltonian(
               build_right_hamiltonian(Ld, planar.atlas, 0), planar.atlas, 0, bad,
               good, 5, tight_cfg)}[entry]
    with pytest.raises(ValueError, match=r"q must be one-dimensional, got shape \(1, 2\)"):
        run()
