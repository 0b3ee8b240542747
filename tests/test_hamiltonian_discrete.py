import numpy as np
import pytest

from lcsdyn import (ConsistencyError, DiscreteHamiltonian, DiscreteTrajectory,
                    StepperConfig, TrajectoryPoint, build_left_hamiltonian,
                    build_right_hamiltonian, conformal_midpoint_rule,
                    conformal_trapezoidal_rule, discrete_legendre, get_system,
                    integrate, integrate_hamiltonian, free_rotor_circle, ld_step,
                    ldlch_step, midpoint_rule, momenta_along_trajectory, rd_step,
                    rdlch_step, transition_apply, with_constant_sigma)
from lcsdyn.numerics import as_vector, fd_jacobian, newton_solve


def analytic_free_right(h):
    # H+(q, p) = p q + h p^2 / 2 for the free particle
    return DiscreteHamiltonian(
        n=1, h=h, side="right",
        value=lambda q, p: float(p @ q) + 0.5 * h * float(p @ p),
        d1=lambda q, p: np.asarray(p, float).copy(),
        d2=lambda q, p: np.asarray(q, float) + h * np.asarray(p, float))


def analytic_free_left(h):
    # H-(q1, p) = -p q1 + h p^2 / 2
    return DiscreteHamiltonian(
        n=1, h=h, side="left",
        value=lambda q, p: -float(p @ q) + 0.5 * h * float(p @ p),
        d1=lambda q, p: -np.asarray(p, float).copy(),
        d2=lambda q, p: -np.asarray(q, float) + h * np.asarray(p, float))


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
