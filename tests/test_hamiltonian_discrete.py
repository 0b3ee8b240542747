import sys

import numpy as np
import pytest

from lcsdyn import (ConsistencyError, DiscreteHamiltonian, DiscreteTrajectory,
                    IntegrationError, LagrangianSource, NewtonError, RegularityError,
                    StepperConfig, TrajectoryPoint, build_left_hamiltonian,
                    build_right_hamiltonian, conformal_midpoint_rule,
                    conformal_trapezoidal_rule, discrete_legendre, dlcel_step,
                    get_system, integrate, integrate_hamiltonian, free_rotor_circle,
                    ld_step, ldlch_step, midpoint_rule, momenta_along_trajectory,
                    rd_step, rdlch_step, transition_apply, with_constant_sigma)
from lcsdyn import hamiltonian_discrete, numerics
from lcsdyn.numerics import as_vector, fd_jacobian, newton_solve, solve_linear
from lcsdyn.variational import _dp_minus_dq0, _dp_plus_dq1
from conftest import (curved_planar, harmonic_3d, rotor_with_transition_jacobian,
                      varying_mass)


def analytic_free_right(h):
    # H+(q, p) = p q + h p^2 / 2 for the free particle
    return DiscreteHamiltonian(
        n=1, h=h, side="right",
        value=lambda q, p: float(p @ q) + 0.5 * h * float(p @ p),
        d1=lambda q, p: np.asarray(p, float).copy(),
        d2=lambda q, p: np.asarray(q, float) + h * np.asarray(p, float),
        d1d2=lambda q, p: np.array([[1.0]]))


def analytic_free_left(h):
    # H-(q1, p) = -p q1 + h p^2 / 2
    return DiscreteHamiltonian(
        n=1, h=h, side="left",
        value=lambda q, p: -float(p @ q) + 0.5 * h * float(p @ p),
        d1=lambda q, p: -np.asarray(p, float).copy(),
        d2=lambda q, p: -np.asarray(q, float) + h * np.asarray(p, float),
        d1d2=lambda q, p: np.array([[-1.0]]))


def test_discrete_legendre_flat(free_line_flat):
    Ld = midpoint_rule(free_line_flat.lagrangian, 0.1)
    lm = discrete_legendre(Ld, free_line_flat.atlas, 0, [0.0], [0.1])
    assert np.allclose(lm.p_plus, [1.0]) and np.allclose(lm.r_plus, [1.0])
    assert np.allclose(lm.p_minus, [1.0]) and np.allclose(lm.r_minus, [1.0])


def test_discrete_legendre_conformal(free_line):
    Ld = midpoint_rule(free_line.lagrangian, 0.1)
    lm = discrete_legendre(Ld, free_line.atlas, 0, [0.0], [0.1])
    assert abs(lm.p_minus[0] - 1.005) <= 1e-14
    assert abs(lm.r_minus[0] - 1.005) <= 1e-14  # sigma(0) = 0
    assert abs(lm.p_plus[0] - 1.0) <= 1e-14


def test_discrete_legendre_sign_relations(harmonic):
    Ld = midpoint_rule(harmonic.lagrangian, 0.1)
    q0, q1 = np.array([0.4]), np.array([0.37])
    lm = discrete_legendre(Ld, harmonic.atlas, 0, q0, q1)
    sigma0 = 0.1 * 0.4
    assert np.allclose(lm.p_plus, Ld.d2(q0, q1))
    assert np.allclose(lm.r_plus, np.exp(-sigma0) * lm.p_plus)
    assert np.allclose(lm.r_minus, np.exp(-sigma0) * lm.p_minus)


def test_momenta_flat_harmonic_both_expressions(harmonic_flat, tight_cfg):
    Ld = midpoint_rule(harmonic_flat.lagrangian, 0.1)
    traj = integrate(Ld, harmonic_flat.atlas, 0, [1.0], [0.99], 50, tight_cfg)
    for k in range(1, 50):
        pt, prv, nxt = traj.points[k], traj.points[k - 1], traj.points[k + 1]
        fwd = -Ld.d1(pt.q, nxt.q)
        bwd = Ld.d2(prv.q, pt.q)
        assert np.max(np.abs(fwd - bwd)) <= 1e-10
        assert np.max(np.abs(pt.p - fwd)) <= 1e-14


def test_momenta_non_solution_raises_at_index(free_line_flat):
    Ld = midpoint_rule(free_line_flat.lagrangian, 0.1)
    traj = DiscreteTrajectory.from_points(0.1, 0, [[0.0], [0.1], [0.3]])
    with pytest.raises(ConsistencyError) as exc:
        momenta_along_trajectory(Ld, free_line_flat.atlas, traj)
    assert exc.value.index == 1


def test_momenta_rp_relation_exact(free_line, tight_cfg):
    Ld = conformal_midpoint_rule(free_line.lagrangian, free_line.atlas, 0, 0.1)
    traj = integrate(Ld, free_line.atlas, 0, [0.0], [0.1], 40, tight_cfg)
    for pt in traj.points:
        sigma = free_line.atlas.chart(0).sigma(pt.q)
        assert np.array_equal(pt.r, np.exp(-sigma) * pt.p)


def test_right_hamiltonian_free_particle_closed_form(free_line_flat):
    Ld = midpoint_rule(free_line_flat.lagrangian, 0.1)
    Hd = build_right_hamiltonian(Ld, free_line_flat.atlas, 0)
    # eliminating q1 gives H+ = p q + h p^2 / 2
    for q, p in [(0.5, 2.0), (-0.3, 1.0), (0.0, 0.7)]:
        want = p * q + 0.05 * p * p
        assert Hd.value([q], [p]) == pytest.approx(want, abs=1e-12)
    assert Hd.source is not None


def test_left_hamiltonian_free_particle_closed_form(free_line_flat):
    Ld = midpoint_rule(free_line_flat.lagrangian, 0.1)
    Hd = build_left_hamiltonian(Ld, free_line_flat.atlas, 0)
    for q1, p in [(0.5, 2.0), (-0.3, 1.0), (0.0, 0.7)]:
        want = -p * q1 + 0.05 * p * p
        assert Hd.value([q1], [p]) == pytest.approx(want, abs=1e-12)


def test_right_hamiltonian_flat_is_coupling_minus_lagrangian(harmonic_flat):
    # with sigma == 0, H+ = p . q1 - Ld(q0, q1) at the eliminated q1
    Ld = midpoint_rule(harmonic_flat.lagrangian, 0.1)
    Hd = build_right_hamiltonian(Ld, harmonic_flat.atlas, 0)
    q, p = np.array([0.4]), np.array([0.9])
    q1 = Hd.source.invert_right(q, p)
    assert Hd.value(q, p) == pytest.approx(float(p @ q1) - Ld.value(q, q1),
                                           abs=1e-12)
    assert np.allclose(Ld.d2(q, q1), p, atol=1e-12)  # inversion round-trip


def test_hamiltonian_partials_match_finite_differences(harmonic):
    # implicit-function partials against differenced values, conformal case
    Ld = conformal_midpoint_rule(harmonic.lagrangian, harmonic.atlas, 0, 0.1)
    for build in (build_right_hamiltonian, build_left_hamiltonian):
        Hd = build(Ld, harmonic.atlas, 0)
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.uniform(-0.8, 0.8, 1)
            b = rng.uniform(0.3, 1.2, 1)
            fd1 = fd_jacobian(lambda x: Hd.value(x, b), a, 1e-5)
            fd2 = fd_jacobian(lambda x: Hd.value(a, x), b, 1e-5)
            assert np.max(np.abs(Hd.d1(a, b) - fd1)) <= 1e-6
            assert np.max(np.abs(Hd.d2(a, b) - fd2)) <= 1e-6


def test_rd_step_free_particle(tight_cfg):
    q, p = rd_step(analytic_free_right(0.1), [0.0], [1.0], tight_cfg)
    assert np.allclose(q, [0.1]) and np.allclose(p, [1.0])


def test_ld_step_free_particle(tight_cfg):
    q, p = ld_step(analytic_free_left(0.1), [0.0], [1.0], tight_cfg)
    assert np.allclose(q, [0.1]) and np.allclose(p, [1.0])


def test_rd_step_fixed_point(tight_cfg):
    Hd = analytic_free_right(0.1)
    q, p = rd_step(Hd, [0.2], [0.0], tight_cfg)
    assert np.array_equal(p, [0.0]) and np.allclose(q, [0.2])


def test_side_validation(tight_cfg, free_line_flat):
    with pytest.raises(ValueError):
        rd_step(analytic_free_left(0.1), [0.0], [1.0], tight_cfg)
    with pytest.raises(ValueError):
        ld_step(analytic_free_right(0.1), [0.0], [1.0], tight_cfg)
    with pytest.raises(ValueError):
        rdlch_step(analytic_free_right(0.1), free_line_flat.atlas, 0,
                   [0.0], [1.0], tight_cfg)  # analytic: no generating data


def test_rd_matches_del_through_legendre(harmonic_flat, tight_cfg):
    # commutation with the plain variational march, sigma == 0
    Ld = midpoint_rule(harmonic_flat.lagrangian, 0.1)
    traj = integrate(Ld, harmonic_flat.atlas, 0, [1.0], [0.99], 60, tight_cfg)
    Hd = build_right_hamiltonian(Ld, harmonic_flat.atlas, 0)
    q, p = traj.points[0].q, traj.points[0].p
    for pt in traj.points[1:]:
        q, p = rd_step(Hd, q, p, tight_cfg)
        assert np.max(np.abs(q - pt.q)) <= 5e-11
        assert np.max(np.abs(p - pt.p)) <= 5e-11


def test_right_left_agreement(harmonic_flat, tight_cfg):
    Ld = midpoint_rule(harmonic_flat.lagrangian, 0.1)
    Hr = build_right_hamiltonian(Ld, harmonic_flat.atlas, 0)
    Hl = build_left_hamiltonian(Ld, harmonic_flat.atlas, 0)
    qr, pr = np.array([1.0]), np.array([-0.1])
    ql, pl = qr.copy(), pr.copy()
    for _ in range(100):
        qr, pr = rd_step(Hr, qr, pr, tight_cfg)
        ql, pl = ld_step(Hl, ql, pl, tight_cfg)
        assert np.max(np.abs(qr - ql)) <= 10 * tight_cfg.tol
        assert np.max(np.abs(pr - pl)) <= 10 * tight_cfg.tol


def test_conformal_steppers_reduce_to_plain(harmonic):
    cfg = StepperConfig(tol=1e-13)
    const = with_constant_sigma(harmonic, 0.7)
    Ld = midpoint_rule(const.lagrangian, 0.1)
    Hr = build_right_hamiltonian(Ld, const.atlas, 0)
    Hl = build_left_hamiltonian(Ld, const.atlas, 0)
    rng = np.random.default_rng(33)
    for _ in range(100):
        q = rng.uniform(-1, 1, 1)
        p = rng.uniform(-1, 1, 1)
        qa, pa = rdlch_step(Hr, const.atlas, 0, q, p, cfg)
        qb, pb = rd_step(Hr, q, p, cfg)
        assert np.max(np.abs(qa - qb)) <= 1e-12
        assert np.max(np.abs(pa - pb)) <= 1e-12
        qa, pa = ldlch_step(Hl, const.atlas, 0, q, p, cfg)
        qb, pb = ld_step(Hl, q, p, cfg)
        assert np.max(np.abs(qa - qb)) <= 1e-12
        assert np.max(np.abs(pa - pb)) <= 1e-12


def test_rdlch_free_particle_matched_start(free_line, tight_cfg):
    Ld = midpoint_rule(free_line.lagrangian, 0.1)
    traj = integrate(Ld, free_line.atlas, 0, [0.0], [0.1], 3, tight_cfg)
    Hd = build_right_hamiltonian(Ld, free_line.atlas, 0)
    q, p = rdlch_step(Hd, free_line.atlas, 0, traj.points[1].q,
                      traj.points[1].p, tight_cfg)
    u = (-1.0 + np.sqrt(1.0 + 0.02 * np.exp(0.01))) / 0.01
    assert abs(q[0] - (0.1 + 0.1 * u)) <= 1e-10
    sigma = free_line.atlas.chart(0).sigma(q)
    r = np.exp(-sigma) * p
    assert np.array_equal(r, np.exp(-sigma) * p)


@pytest.mark.parametrize("side", ["right", "left"])
def test_legendre_commutation_conformal(side, harmonic, tight_cfg):
    Ld = conformal_midpoint_rule(harmonic.lagrangian, harmonic.atlas, 0, 0.1)
    traj = integrate(Ld, harmonic.atlas, 0, [1.0], [0.99], 100, tight_cfg)
    build = build_right_hamiltonian if side == "right" else build_left_hamiltonian
    Hd = build(Ld, harmonic.atlas, 0)
    ham = integrate_hamiltonian(Hd, harmonic.atlas, 0, traj.points[0].q,
                                traj.points[0].p, 100, tight_cfg)
    for a, b in zip(traj.points, ham.points):
        assert np.max(np.abs(a.q - b.q)) <= 50 * tight_cfg.tol
        assert np.max(np.abs(a.p - b.p)) <= 50 * tight_cfg.tol
        assert np.array_equal(a.r, np.exp(-0.1 * a.q) * a.p)


def test_hamiltonian_marches_cross_charts_like_integrate(tight_cfg):
    # c < 0 keeps the rotor turning at a decaying speed through many overlaps
    rotor = free_rotor_circle(-0.1)
    Ld = conformal_midpoint_rule(rotor.lagrangian, rotor.atlas, 0, 0.05)
    traj = integrate(Ld, rotor.atlas, 0, [0.3], [0.35], 2000, tight_cfg)
    for build in (build_right_hamiltonian, build_left_hamiltonian):
        Hd = build(Ld, rotor.atlas, 0)
        ham = integrate_hamiltonian(Hd, rotor.atlas, 0, traj.points[0].q,
                                    traj.points[0].p, 2000, tight_cfg)
        assert ham.n_switches() >= 8
        assert ham.charts() == traj.charts()
        for a, b in zip(traj.points, ham.points):
            assert np.max(np.abs(a.q - b.q)) <= 5e-10
            assert np.max(np.abs(a.p - b.p)) <= 5e-10
            sigma = rotor.atlas.chart(b.chart).sigma(b.q)
            assert np.max(np.abs(b.r - np.exp(-sigma) * b.p)) <= 1e-12


@pytest.mark.parametrize("entry", [0.0, np.nan], ids=["zero", "nan"])
def test_bad_transition_jacobian_ends_the_march_at_the_switch(entry, tight_cfg):
    good = free_rotor_circle(-0.1)
    Ld = conformal_midpoint_rule(good.lagrangian, good.atlas, 0, 0.05)
    q, p = np.array([0.3]), np.array([1.0])
    ref = integrate_hamiltonian(build_right_hamiltonian(Ld, good.atlas, 0), good.atlas, 0,
                                q, p, 2000, tight_cfg)
    switch = next(s.k for s in ref.steps if s.switched)
    bad = rotor_with_transition_jacobian(entry)
    Hd = build_right_hamiltonian(
        conformal_midpoint_rule(bad.lagrangian, bad.atlas, 0, 0.05), bad.atlas, 0)
    with pytest.raises(IntegrationError) as exc:
        integrate_hamiltonian(Hd, bad.atlas, 0, q, p, 2000, tight_cfg)
    assert isinstance(exc.value.__cause__, RegularityError)
    assert exc.value.index == switch
    assert [pt.q.tobytes() for pt in exc.value.partial.points] == \
        [pt.q.tobytes() for pt in ref.points[:switch]]


def coupled_pair_step_reference(Ld, ch, q_curr, p_curr, cfg):
    """The former conformal pair step: one coupled Newton solve for (q_next,
    p_next) in 2n unknowns with a finite-differenced Jacobian."""
    n = Ld.n
    s_curr = float(ch.sigma(q_curr))
    phi_curr = ch.grad(q_curr)

    def F(z):
        qn, pn = z[:n], z[n:]
        r1 = p_curr - (phi_curr * float(Ld.value(q_curr, qn)) - as_vector(Ld.d1(q_curr, qn)))
        r2 = pn - np.exp(float(ch.sigma(qn)) - s_curr) * as_vector(Ld.d2(q_curr, qn))
        return np.concatenate([r1, r2])

    z = newton_solve(F, np.concatenate([q_curr + Ld.h * p_curr, p_curr]), cfg).x
    return z[:n], z[n:]


@pytest.mark.parametrize("name", ["harmonic_1d", "planar_2d", "free_rotor_circle"])
@pytest.mark.parametrize("rule", [conformal_midpoint_rule, conformal_trapezoidal_rule])
def test_conformal_steps_match_the_coupled_solve(name, rule, tight_cfg):
    system = get_system(name)
    chart = system.start_chart
    ch = system.atlas.chart(chart)
    Ld = rule(system.lagrangian, system.atlas, chart, 0.1)
    steppers = ((rdlch_step, build_right_hamiltonian(Ld, system.atlas, chart)),
                (ldlch_step, build_left_hamiltonian(Ld, system.atlas, chart)))
    center, span = 0.5 * (ch.lower + ch.upper), 0.25 * np.minimum(ch.width, 4.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = center + span * rng.uniform(-1, 1, system.n)
        p = rng.uniform(-1, 1, system.n)
        q_ref, p_ref = coupled_pair_step_reference(Ld, ch, q, p, tight_cfg)
        for step, Hd in steppers:
            q_next, p_next = step(Hd, system.atlas, chart, q, p, tight_cfg)
            assert np.max(np.abs(q_next - q_ref)) <= 1e-11
            assert np.max(np.abs(p_next - p_ref)) <= 1e-11
            # p_next is p+(q, q_next), and q_next solves p = p-(q, q_next)
            p_plus = np.exp(float(ch.sigma(q_next)) - float(ch.sigma(q))) \
                * as_vector(Ld.d2(q, q_next))
            assert p_next.tobytes() == p_plus.tobytes()
            p_minus = ch.grad(q) * float(Ld.value(q, q_next)) - as_vector(Ld.d1(q, q_next))
            assert np.max(np.abs(p - p_minus)) <= tight_cfg.tol


@pytest.mark.parametrize("rule", [conformal_midpoint_rule, conformal_trapezoidal_rule])
def test_three_dof_conformal_steps_match_the_coupled_solve(rule, tight_cfg):
    system = harmonic_3d()
    ch = system.atlas.chart(0)
    Ld = rule(system.lagrangian, system.atlas, 0, 0.1)
    steppers = ((rdlch_step, build_right_hamiltonian(Ld, system.atlas, 0)),
                (ldlch_step, build_left_hamiltonian(Ld, system.atlas, 0)))
    rng = np.random.default_rng(7)
    for _ in range(5):
        q_prev, q = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        p = rng.uniform(-1, 1, 3)
        q_ref, p_ref = coupled_pair_step_reference(Ld, ch, q, p, tight_cfg)
        for step, Hd in steppers:
            q_next, p_next = step(Hd, system.atlas, 0, q, p, tight_cfg)
            assert np.max(np.abs(q_next - q_ref)) <= 1e-11
            assert np.max(np.abs(p_next - p_ref)) <= 1e-11
        # the three-point step carries p+(q_prev, q) into the same system
        p_curr = np.exp(float(ch.sigma(q)) - float(ch.sigma(q_prev))) \
            * as_vector(Ld.d2(q_prev, q))
        q_ref = coupled_pair_step_reference(Ld, ch, q, p_curr, tight_cfg)[0]
        q_next = dlcel_step(Ld, system.atlas, 0, q_prev, q, tight_cfg)
        assert np.max(np.abs(q_next - q_ref)) <= 1e-11


def pointwise_momenta_reference(Ld, atlas, traj, tol, conformal):
    """The former momentum fill: each point evaluates its forward pair and,
    carried into the previous point's chart, its backward pair."""
    pts = traj.points
    for k, pt in enumerate(pts):
        ch = atlas.chart(pt.chart)
        p_fwd = p_bwd = None
        if k < len(pts) - 1:
            nxt = pts[k + 1]
            qb = nxt.q if nxt.chart == pt.chart else as_vector(
                atlas.require_transition(nxt.chart, pt.chart, nxt.q).forward(nxt.q))
            p_fwd = ch.grad(pt.q) * float(Ld.value(pt.q, qb)) - as_vector(Ld.d1(pt.q, qb)) \
                if conformal else -as_vector(Ld.d1(pt.q, qb))
        if k > 0:
            prv = pts[k - 1]
            cha = atlas.chart(prv.chart)
            qk = pt.q if pt.chart == prv.chart else as_vector(
                atlas.require_transition(pt.chart, prv.chart, pt.q).forward(pt.q))
            p_bwd = as_vector(Ld.d2(prv.q, qk))
            if conformal:
                p_bwd = np.exp(float(cha.sigma(qk)) - float(cha.sigma(prv.q))) * p_bwd
            if pt.chart != prv.chart:
                _, p_bwd = transition_apply(atlas, prv.chart, pt.chart, qk, p_bwd, "p")
        if p_fwd is not None and p_bwd is not None:
            assert np.max(np.abs(p_fwd - p_bwd)) <= tol
        p = p_fwd if p_fwd is not None else p_bwd
        pt.p = p
        pt.r = np.exp(-float(ch.sigma(pt.q))) * p if conformal else p.copy()
    return traj


@pytest.mark.parametrize("conformal", [True, False])
def test_pairwise_momentum_fill_matches_pointwise_fill(conformal, tight_cfg):
    rotor = free_rotor_circle(-0.1)
    Ld = conformal_midpoint_rule(rotor.lagrangian, rotor.atlas, 0, 0.05) if conformal \
        else midpoint_rule(rotor.lagrangian, 0.05)
    traj = integrate(Ld, rotor.atlas, 0, [0.3], [0.35], 2000, tight_cfg,
                     conformal=conformal)
    assert traj.n_switches() >= 8
    bare = DiscreteTrajectory(h=traj.h, points=[
        TrajectoryPoint(k=pt.k, chart=pt.chart, q=pt.q) for pt in traj.points])
    ref = pointwise_momenta_reference(Ld, rotor.atlas, bare, 1e-11, conformal)
    for a, b in zip(traj.points, ref.points):
        assert a.p.tobytes() == b.p.tobytes()
        assert a.r.tobytes() == b.r.tobytes()


def differenced_d1d2(d1):
    """d1d2 as a central difference of ``d1`` in the second argument."""
    return lambda a, b: fd_jacobian(lambda x: as_vector(d1(a, x)), as_vector(b), 1e-4)


# --- one inversion per (q, P) -------------------------------------------------
#
# Both builders keep the last (q, P)'s value and partials in a one-entry memo.
# The constructors below are the builders as they stood before the memo: three
# closures that each invert the momentum relation at (q, P), and partials that
# each form the inverted relation's Jacobian again.  They use the builders'
# closed-form Jacobians and linear solves, so the memoized builders must
# return the same bits in any call order.

def reference_right(Ld, atlas, chart):
    ch = atlas.chart(chart)
    source = LagrangianSource(Ld=Ld, atlas=atlas, chart=chart)

    def core(q0, P):
        q0, P = as_vector(q0), as_vector(P)
        q1 = source.invert_right(q0, P)
        s0, s1 = float(ch.sigma(q0)), float(ch.sigma(q1))
        return q0, P, q1, s0, s1, np.exp(s0 - s1)

    def correction(q0, P, q1, s0, s1, em):
        # J^-T dH+/dq1, dH+/dq1 = -phi1 em P.q1 at fixed (q0, P)
        phi1 = ch.grad(q1)
        J = _dp_plus_dq1(Ld, q0, q1, s0, s1, phi1)
        return solve_linear(J.T, -phi1 * (em * float(P @ q1)))

    def value(q0, P):
        q0, P, q1, _, _, em = core(q0, P)
        return em * float(P @ q1) - float(Ld.value(q0, q1))

    def d1(q0, P):
        q0, P, q1, s0, s1, em = core(q0, P)
        phi0 = ch.grad(q0)
        base = phi0 * (em * float(P @ q1)) - as_vector(Ld.d1(q0, q1))
        if not np.any(ch.grad(q1)):
            return base
        y = correction(q0, P, q1, s0, s1, em)
        d2v = as_vector(Ld.d2(q0, q1))
        dgdq = (1.0 / em) * (np.atleast_2d(Ld.d1d2(q0, q1)).T - np.outer(d2v, phi0))
        return base - dgdq.T @ y

    def d2(q0, P):
        q0, P, q1, s0, s1, em = core(q0, P)
        base = em * q1
        if not np.any(ch.grad(q1)):
            return base
        return base + correction(q0, P, q1, s0, s1, em)

    return DiscreteHamiltonian(n=Ld.n, h=Ld.h, side="right", value=value, d1=d1,
                               d2=d2, d1d2=differenced_d1d2(d1), source=source)


def reference_left(Ld, atlas, chart):
    ch = atlas.chart(chart)
    source = LagrangianSource(Ld=Ld, atlas=atlas, chart=chart)

    def core(q1, P):
        q1, P = as_vector(q1), as_vector(P)
        q0 = source.invert_left(q1, P)
        return q1, P, q0, np.exp(float(ch.sigma(q1)) - float(ch.sigma(q0)))

    def correction(q1, P, q0, E):
        # J^-T dH-/dq0, dH-/dq0 = phi0 E P.q0 at fixed (q1, P)
        phi0 = ch.grad(q0)
        J = _dp_minus_dq0(Ld, q0, q1, phi0, ch.hess(q0))
        return solve_linear(J.T, phi0 * (E * float(P @ q0)))

    def value(q1, P):
        q1, P, q0, E = core(q1, P)
        return E * (-float(P @ q0) - float(Ld.value(q0, q1)))

    def d1(q1, P):
        q1, P, q0, E = core(q1, P)
        phi1, phi0 = ch.grad(q1), ch.grad(q0)
        H = E * (-float(P @ q0) - float(Ld.value(q0, q1)))
        base = phi1 * H - E * as_vector(Ld.d2(q0, q1))
        if not np.any(phi0):
            return base
        y = correction(q1, P, q0, E)
        dp_minus_dq1 = (np.outer(phi0, as_vector(Ld.d2(q0, q1)))
                        - np.atleast_2d(Ld.d1d2(q0, q1)))
        return base - dp_minus_dq1.T @ y

    def d2(q1, P):
        q1, P, q0, E = core(q1, P)
        base = -E * q0
        if not np.any(ch.grad(q0)):
            return base
        return base + correction(q1, P, q0, E)

    return DiscreteHamiltonian(n=Ld.n, h=Ld.h, side="left", value=value, d1=d1,
                               d2=d2, d1d2=differenced_d1d2(d1), source=source)


BUILDERS = {"right": (build_right_hamiltonian, reference_right),
            "left": (build_left_hamiltonian, reference_left)}
H_PARTS = ("value", "d1", "d2")


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _memo_points(system, count):
    ch = system.atlas.chart(system.start_chart)
    center, span = 0.5 * (ch.lower + ch.upper), 0.25 * np.minimum(ch.width, 4.0)
    rng = np.random.default_rng(17)
    return [(center + span * rng.uniform(-1, 1, system.n), rng.uniform(-1, 1, system.n))
            for _ in range(count)]


def _h_call_orders(points):
    a, b, c = points
    return {"repeated": [(part, a) for part in H_PARTS + H_PARTS[::-1]],
            "alternating": [(part, (a, b)[i % 2]) for i, part in enumerate(H_PARTS * 2)],
            "d2_first": [("d2", c), ("d1", c), ("value", c), ("d2", b), ("value", a)]}


def _memo_case(name, sigma, rule, side):
    system = get_system(name)
    if sigma == "constant":
        system = with_constant_sigma(system, 0.7)
    chart = system.start_chart
    Ld = rule(system.lagrangian, system.atlas, chart, 0.1)
    build, reference = BUILDERS[side]
    return system, build(Ld, system.atlas, chart), reference(Ld, system.atlas, chart)


@pytest.mark.parametrize("side", list(BUILDERS))
@pytest.mark.parametrize("rule", [conformal_midpoint_rule, conformal_trapezoidal_rule],
                         ids=["midpoint", "trapezoidal"])
@pytest.mark.parametrize("sigma", ["conformal", "constant"])
@pytest.mark.parametrize("name", ["harmonic_1d", "planar_2d", "free_rotor_circle"])
def test_memoized_hamiltonians_bitwise_equal_reference(name, sigma, rule, side):
    system, Hd, ref = _memo_case(name, sigma, rule, side)
    for order_name, calls in _h_call_orders(_memo_points(system, 3)).items():
        for part, (q, P) in calls:
            got, want = getattr(Hd, part)(q, P), getattr(ref, part)(q, P)
            assert type(got) is type(want), (order_name, part)
            assert _bits(got) == _bits(want), (order_name, part)


@pytest.mark.parametrize("side", list(BUILDERS))
def test_memoized_hamiltonians_return_fresh_arrays(side):
    system, Hd, ref = _memo_case("planar_2d", "conformal", conformal_midpoint_rule, side)
    (q, P), = _memo_points(system, 1)
    for part in ("d1", "d2"):
        getattr(Hd, part)(q, P)[...] = 99.0
        assert _bits(getattr(Hd, part)(q, P)) == _bits(getattr(ref, part)(q, P))


@pytest.mark.parametrize("side", list(BUILDERS))
@pytest.mark.parametrize("mutated", [0, 1], ids=["q", "P"])
def test_memoized_hamiltonians_see_inputs_mutated_in_place(side, mutated):
    system, Hd, ref = _memo_case("planar_2d", "conformal", conformal_midpoint_rule, side)
    pair = list(_memo_points(system, 1)[0])
    before = Hd.value(*pair), Hd.d1(*pair)
    pair[mutated][1] += 0.05
    for part in H_PARTS:
        assert _bits(getattr(Hd, part)(*pair)) == _bits(getattr(ref, part)(*pair))
    assert _bits(Hd.value(*pair)) != _bits(before[0])
    assert _bits(Hd.d1(*pair)) != _bits(before[1])


def _count_inversions(monkeypatch):
    calls = []
    for name in ("invert_right", "invert_left"):
        original = getattr(LagrangianSource, name)

        def counted(self, a, P, original=original):
            calls.append(1)
            return original(self, a, P)

        monkeypatch.setattr(LagrangianSource, name, counted)
    return calls


@pytest.mark.parametrize("side", list(BUILDERS))
def test_memoized_hamiltonians_do_not_keep_a_failed_inversion(side, monkeypatch):
    system, Hd, ref = _memo_case("harmonic_1d", "conformal", conformal_midpoint_rule, side)
    (q, P), = _memo_points(system, 1)
    calls = _count_inversions(monkeypatch)
    bad = np.array([1e200])  # the Newton seed q -+ h P has no finite residual
    for attempt in (1, 2):
        with np.errstate(all="ignore"), pytest.raises(NewtonError):
            Hd.d1(q, bad)
        assert len(calls) == attempt
    for part in H_PARTS:
        assert _bits(getattr(Hd, part)(q, P)) == _bits(getattr(ref, part)(q, P))


@pytest.mark.parametrize("side", list(BUILDERS))
@pytest.mark.parametrize("sigma", ["conformal", "constant"])
def test_hamiltonian_parts_at_one_point_invert_once(side, sigma, monkeypatch):
    system, Hd, _ = _memo_case("planar_2d", sigma, conformal_midpoint_rule, side)
    (q, P), = _memo_points(system, 1)
    calls = _count_inversions(monkeypatch)
    for part in H_PARTS:
        getattr(Hd, part)(q, P)
    assert len(calls) == 1


# --- the mixed partial d1d2 ----------------------------------------------------
#
# d1d2 is closed-form where the Lee form vanishes (constant sigma) and a
# difference of the memo's d1 or d2 otherwise; the reference builders'
# d1d2 differences their own d1 at another step.

@pytest.mark.parametrize("side", list(BUILDERS))
@pytest.mark.parametrize("sigma", ["conformal", "constant"])
@pytest.mark.parametrize("name", ["harmonic_1d", "planar_2d"])
def test_hamiltonian_d1d2_matches_differenced_d1(name, sigma, side):
    system, Hd, ref = _memo_case(name, sigma, conformal_midpoint_rule, side)
    for q, P in _memo_points(system, 10):
        got = Hd.d1d2(q, P)
        assert got.shape == (system.n, system.n)
        assert np.max(np.abs(got - ref.d1d2(q, P))) <= 1e-6
        # the memo still serves the pair's own value and partials
        for part in H_PARTS:
            assert _bits(getattr(Hd, part)(q, P)) == _bits(getattr(ref, part)(q, P))


def reference_plain_step(Hd, q_curr, p_curr, cfg):
    """The former plain step: Newton on Hd's partials with a finite-difference
    Jacobian, so every differenced residual is another inversion."""
    q_curr, p_curr = as_vector(q_curr), as_vector(p_curr)
    if Hd.side == "right":
        P = newton_solve(lambda x: as_vector(Hd.d1(q_curr, x)) - p_curr, p_curr, cfg).x
        return as_vector(Hd.d2(q_curr, P)), P
    x = newton_solve(lambda x: as_vector(Hd.d2(x, p_curr)) + q_curr,
                     q_curr + Hd.h * p_curr, cfg).x
    return x, -as_vector(Hd.d1(x, p_curr))


PLAIN_STEPS = {"right": rd_step, "left": ld_step}


@pytest.mark.parametrize("side", list(BUILDERS))
@pytest.mark.parametrize("sigma", ["conformal", "constant"])
@pytest.mark.parametrize("name", ["harmonic_1d", "planar_2d"])
def test_plain_steps_match_the_differenced_newton(name, sigma, side, tight_cfg):
    system, Hd, _ = _memo_case(name, sigma, conformal_midpoint_rule, side)
    for q, p in _memo_points(system, 10):
        q_ref, p_ref = reference_plain_step(Hd, q, p, tight_cfg)
        q_next, p_next = PLAIN_STEPS[side](Hd, q, p, tight_cfg)
        assert np.max(np.abs(q_next - q_ref)) <= 10 * tight_cfg.tol
        assert np.max(np.abs(p_next - p_ref)) <= 10 * tight_cfg.tol


def _count_outer_residuals(monkeypatch):
    """Count the calls of the plain step's residual made outside a finite
    difference; the inversions' own Newton solves are not counted."""
    calls, differencing = [], []
    fd, newton = numerics.fd_jacobian, hamiltonian_discrete.newton_solve

    def counted_fd(F, x, eps):
        differencing.append(1)
        try:
            return fd(F, x, eps)
        finally:
            differencing.pop()

    def outer_newton(F, x0, cfg, jacobian=None):
        monkeypatch.setattr(hamiltonian_discrete, "newton_solve", newton)

        def counted(x):
            if not differencing:
                calls.append(1)
            return F(x)

        return newton(counted, x0, cfg, jacobian=jacobian)

    monkeypatch.setattr(numerics, "fd_jacobian", counted_fd)
    monkeypatch.setattr(hamiltonian_discrete, "newton_solve", outer_newton)
    return calls


@pytest.mark.parametrize("side", list(BUILDERS))
@pytest.mark.parametrize("name", ["harmonic_1d", "planar_2d"])
def test_constant_sigma_plain_step_inverts_once_per_residual(name, side, monkeypatch,
                                                             tight_cfg):
    system, Hd, _ = _memo_case(name, "constant", conformal_midpoint_rule, side)
    for q, p in _memo_points(system, 5):
        inversions = _count_inversions(monkeypatch)
        residuals = _count_outer_residuals(monkeypatch)
        PLAIN_STEPS[side](Hd, q, p, tight_cfg)
        assert 2 <= len(residuals) and len(inversions) <= len(residuals)
        monkeypatch.undo()


# --- closed-form Jacobians ------------------------------------------------------
#
# The inversions and the implicit-function corrections use dp+/dq1 and dp-/dq0
# in closed form, so they take no finite difference; where the Lee form
# vanishes neither does d1d2, and the plain steps that use it as Newton
# Jacobian.  Only the conformal d1d2 differences, along the inversion.

@pytest.mark.parametrize("side", list(BUILDERS))
@pytest.mark.parametrize("rule", [conformal_midpoint_rule, conformal_trapezoidal_rule],
                         ids=["midpoint", "trapezoidal"])
@pytest.mark.parametrize("system_fn", [curved_planar, varying_mass],
                         ids=["curved_planar", "varying_mass"])
def test_hamiltonian_partials_match_differences_off_the_catalog(system_fn, rule, side):
    # a non-constant Lee form (its Hessian enters dp-/dq0 and the corrections)
    # and point-dependent velocity Hessians, which no catalog system has
    system = system_fn()
    Hd = BUILDERS[side][0](rule(system.lagrangian, system.atlas, 0, 0.1), system.atlas, 0)
    for q, P in _memo_points(system, 5):
        fd1 = fd_jacobian(lambda x: Hd.value(x, P), q, 1e-5)
        fd2 = fd_jacobian(lambda x: Hd.value(q, x), P, 1e-5)
        fdm = fd_jacobian(lambda x: Hd.d1(q, x), P, 1e-5)
        assert np.max(np.abs(Hd.d1(q, P) - fd1)) <= 1e-8
        assert np.max(np.abs(Hd.d2(q, P) - fd2)) <= 1e-8
        assert np.max(np.abs(Hd.d1d2(q, P) - fdm)) <= 1e-8


def _forbid_differences(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("finite difference taken")

    for name, module in list(sys.modules.items()):
        if name.startswith("lcsdyn.") and hasattr(module, "fd_jacobian"):
            monkeypatch.setattr(module, "fd_jacobian", refuse)


@pytest.mark.parametrize("side", list(BUILDERS))
@pytest.mark.parametrize("sigma", ["conformal", "constant"])
@pytest.mark.parametrize("name", ["harmonic_1d", "planar_2d"])
def test_inversions_and_partials_take_no_difference(name, sigma, side, monkeypatch):
    system, Hd, _ = _memo_case(name, sigma, conformal_midpoint_rule, side)
    points = _memo_points(system, 3)
    _forbid_differences(monkeypatch)
    for q, P in points:
        for part in H_PARTS:
            getattr(Hd, part)(q, P)


@pytest.mark.parametrize("side", list(BUILDERS))
@pytest.mark.parametrize("name", ["harmonic_1d", "planar_2d"])
def test_constant_sigma_plain_steps_take_no_difference(name, side, monkeypatch, tight_cfg):
    system, Hd, _ = _memo_case(name, "constant", conformal_midpoint_rule, side)
    points = _memo_points(system, 3)
    _forbid_differences(monkeypatch)
    for q, p in points:
        assert Hd.d1d2(q, p).shape == (system.n, system.n)
        PLAIN_STEPS[side](Hd, q, p, tight_cfg)


@pytest.mark.parametrize("side", list(BUILDERS))
@pytest.mark.parametrize("name", ["harmonic_1d", "planar_2d"])
def test_conformal_d1d2_runs_no_inversion(name, side, monkeypatch):
    system, Hd, _ = _memo_case(name, "conformal", conformal_midpoint_rule, side)
    for q, P in _memo_points(system, 3):
        Hd.value(q, P)
        calls = _count_inversions(monkeypatch)
        Hd.d1d2(q, P)
        assert not calls
        monkeypatch.undo()


def test_constant_sigma_takes_no_correction_from_an_infinite_coupling():
    # P.q1 overflows and phi1 is zero: their product is NaN, which must not
    # read as an implicit-function correction (it used to reach an unchecked
    # linear solve); d2 stays the eliminated point itself
    system, Hd, _ = _memo_case("harmonic_1d", "constant", conformal_midpoint_rule, "right")
    q, P = np.array([1.0]), np.array([1e200])
    with np.errstate(all="ignore"):
        q1 = Hd.source.invert_right(q, P)
        assert Hd.d2(q, P).tobytes() == q1.tobytes()
