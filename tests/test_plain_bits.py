"""The plain steps on floats give bitwise the array-coded steps they replace.

The references below are the array coding of the plain Hamiltonian step, of
the builders' partials and mixed partial, of both momentum inversions and of
the plain three-point system: ``Ld.value``/``d1``/``d2``/``d1d1``/``d2d2``/
``d1d2`` on arrays, numpy's elementwise products, conftest's dot products and
matvecs (rounded per operation for n <= 2, without numpy's BLAS), and
``newton_solve``, ``solve_linear`` and ``fd_jacobian`` on arrays.  The marches run through the library's own
``_march`` loop, converting to and from its float-list window at their
boundary, so each march test compares the step and fill codings.
"""

import numpy as np
import pytest

from lcsdyn import (DiscreteTrajectory, StepperConfig,
                    TrajectoryPoint, build_left_hamiltonian, build_right_hamiltonian,
                    conformal_midpoint_rule, conformal_trapezoidal_rule, del_step,
                    get_system, integrate, integrate_hamiltonian, ld_step, rd_step,
                    transition_apply, with_constant_sigma)
from lcsdyn.numerics import as_vector, fd_jacobian, newton_solve, solve_linear
from lcsdyn.variational import _march
from conftest import (PartsHamiltonian, array_dp_minus_dq0, array_dp_plus_dq1,
                      reference_dot, reference_matvec)

_INVERT_CFG = StepperConfig(tol=1e-13, max_iter=60)
_TANGENT_FD_EPS = 1e-5


def reference_invert_right(Ld, ch, q0, P):
    s0 = float(ch.sigma(q0))

    def g(x):
        return float(np.exp(float(ch.sigma(x)) - s0)) * as_vector(Ld.d2(q0, x)) - P

    def J(x):
        return array_dp_plus_dq1(Ld, q0, x, s0, float(ch.sigma(x)), ch.grad(x))

    return newton_solve(g, q0 + Ld.h * P, _INVERT_CFG, jacobian=J).x


def reference_invert_left(Ld, ch, q1, P):
    def g(x):
        return ch.grad(x) * float(Ld.value(x, q1)) - as_vector(Ld.d1(x, q1)) - P

    def J(x):
        return array_dp_minus_dq0(Ld, x, q1, ch.grad(x), ch.hess(x))

    return newton_solve(g, q1 - Ld.h * P, _INVERT_CFG, jacobian=J).x


def along_inversion(partial, P, J):
    return fd_jacobian(lambda t: partial(t, solve_linear(J, t)), np.zeros(P.size),
                       _TANGENT_FD_EPS)


def reference_hamiltonian(partials, mixed, invert, n, h, side):
    """A Hamiltonian given by its array parts alone, each inverting afresh."""
    def at(a, P):
        a, P = as_vector(a), as_vector(P)
        return a, P, partials(a, P, invert(a, P))

    def d1d2(a, P):
        a, P, (_, _, _, extra) = at(a, P)
        return mixed(a, P, *extra)

    return PartsHamiltonian(n=n, h=h, side=side, value=lambda a, P: at(a, P)[2][0],
                            d1=lambda a, P: at(a, P)[2][1],
                            d2=lambda a, P: at(a, P)[2][2], d1d2=d1d2)


def reference_right(Ld, atlas, chart):
    ch = atlas.chart(chart)

    def partials(q0, P, q1):
        s0, s1 = float(ch.sigma(q0)), float(ch.sigma(q1))
        em = np.exp(s0 - s1)
        phi0, phi1 = ch.grad(q0), ch.grad(q1)
        coupling = em * reference_dot(P, q1)
        d1 = phi0 * coupling - as_vector(Ld.d1(q0, q1))
        d2 = em * q1
        if np.any(phi1):
            y = solve_linear(array_dp_plus_dq1(Ld, q0, q1, s0, s1, phi1).T,
                             -phi1 * coupling)
            dgdq = (1.0 / em) * (np.atleast_2d(Ld.d1d2(q0, q1)).T
                                 - np.outer(as_vector(Ld.d2(q0, q1)), phi0))
            d1 = d1 - reference_matvec(dgdq.T, y)
            d2 = d2 + y
        return coupling - float(Ld.value(q0, q1)), d1, d2, (q1, s0, s1, phi0, phi1)

    def mixed(q0, P, q1, s0, s1, phi0, phi1):
        J = array_dp_plus_dq1(Ld, q0, q1, s0, s1, phi1)
        if np.any(phi0) or np.any(phi1) or np.any(ch.hess(q1)):
            return along_inversion(lambda t, dx: partials(q0, P + t, q1 + dx)[1], P, J)
        return -np.array([solve_linear(J.T, row) for row in np.atleast_2d(Ld.d1d2(q0, q1))])

    return reference_hamiltonian(
        partials, mixed, lambda q0, P: reference_invert_right(Ld, ch, q0, P),
        Ld.n, Ld.h, "right")


def reference_left(Ld, atlas, chart):
    ch = atlas.chart(chart)

    def partials(q1, P, q0):
        E = np.exp(float(ch.sigma(q1)) - float(ch.sigma(q0)))
        phi1, phi0 = ch.grad(q1), ch.grad(q0)
        H = E * (-reference_dot(P, q0) - float(Ld.value(q0, q1)))
        d1 = phi1 * H - E * as_vector(Ld.d2(q0, q1))
        d2 = -E * q0
        if np.any(phi0):
            y = solve_linear(array_dp_minus_dq0(Ld, q0, q1, phi0, ch.hess(q0)).T,
                             phi0 * (E * reference_dot(P, q0)))
            dp_minus_dq1 = (np.outer(phi0, as_vector(Ld.d2(q0, q1)))
                            - np.atleast_2d(Ld.d1d2(q0, q1)))
            d1 = d1 - reference_matvec(dp_minus_dq1.T, y)
            d2 = d2 + y
        return H, d1, d2, (q0, E, phi0, phi1)

    def mixed(q1, P, q0, E, phi0, phi1):
        hess0 = ch.hess(q0)
        J = array_dp_minus_dq0(Ld, q0, q1, phi0, hess0)
        if np.any(phi0) or np.any(phi1) or np.any(hess0):
            return along_inversion(lambda t, dx: partials(q1, P + t, q0 + dx)[1], P, J)
        dLd = np.atleast_2d(Ld.d1d2(q0, q1))
        return -E * np.array([solve_linear(J.T, col) for col in dLd.T])

    return reference_hamiltonian(
        partials, mixed, lambda q1, P: reference_invert_left(Ld, ch, q1, P),
        Ld.n, Ld.h, "left")


def reference_plain_step(Hd, q_curr, p_curr, cfg):
    """(q_next, p_next, result) of the plain step, Newton on Hd's array parts."""
    if Hd.side == "right":
        res = newton_solve(lambda P: as_vector(Hd.d1(q_curr, P)) - p_curr, p_curr, cfg,
                           jacobian=lambda P: Hd.d1d2(q_curr, P))
        return as_vector(Hd.d2(q_curr, res.x)), res.x, res
    res = newton_solve(lambda x: as_vector(Hd.d2(x, p_curr)) + q_curr,
                       q_curr + Hd.h * p_curr, cfg, jacobian=lambda x: Hd.d1d2(x, p_curr).T)
    return res.x, -as_vector(Hd.d1(res.x, p_curr)), res


def reference_del_step(Ld, q_prev, q_curr, cfg):
    lhs = as_vector(Ld.d2(q_prev, q_curr))
    return newton_solve(lambda x: lhs + as_vector(Ld.d1(q_curr, x)), 2.0 * q_curr - q_prev,
                        cfg, jacobian=lambda x: np.atleast_2d(Ld.d1d2(q_curr, x)))


def reference_integrate(Ld, atlas, q0, q1, N, cfg):
    """The plain three-point march, momenta -d1 Ld at each pair's first point
    and d2 Ld, carried across a switch, at the last point."""
    traj = DiscreteTrajectory(h=Ld.h, points=[TrajectoryPoint(k=0, chart=0, q=q0),
                                              TrajectoryPoint(k=1, chart=0, q=q1)])

    # _march holds its window on float lists: arrays at the step's entry and
    # lists at its exit
    def step(ch, q_curr, q_prev):
        res = reference_del_step(Ld, np.array(q_prev), np.array(q_curr), cfg)
        return res.x.tolist(), q_curr, (res.iterations, res.residual)

    _march(atlas, 0, q1.tolist(), q0.tolist(), traj, N, step,
           carry=lambda t, q_next, q_curr: as_vector(t.forward(np.array(q_curr))).tolist(),
           point=lambda k, chart, q, q_prev: TrajectoryPoint(k=k, chart=chart,
                                                             q=np.array(q)))
    pts = traj.points
    for k, pt in enumerate(pts[:-1]):
        nxt = pts[k + 1]
        qb = nxt.q if nxt.chart == pt.chart else as_vector(
            atlas.require_transition(nxt.chart, pt.chart, nxt.q).forward(nxt.q))
        pt.p = -as_vector(Ld.d1(pt.q, qb))
        if k == len(pts) - 2:
            p_last = as_vector(Ld.d2(pt.q, qb))
            if nxt.chart != pt.chart:
                p_last = transition_apply(atlas, pt.chart, nxt.chart, qb, p_last, "p")[1]
            nxt.p = p_last
    for pt in pts:
        pt.r = pt.p.copy()
    return traj


def reference_integrate_hamiltonian(Hd, atlas, q0, p0, N, cfg):
    # the same float-list boundary as in reference_integrate
    def step(ch, q_curr, p_curr):
        q_next, p_next, res = reference_plain_step(Hd, np.array(q_curr), np.array(p_curr),
                                                   cfg)
        return q_next.tolist(), p_next.tolist(), (res.iterations, res.residual)

    def point(k, chart, q, p):
        return TrajectoryPoint(k=k, chart=chart, q=np.array(q), p=np.array(p),
                               r=np.array(p))

    def carry(t, q_next, p):
        return transition_apply(atlas, t.from_chart, t.to_chart, np.array(q_next),
                                np.array(p), "p")[1].tolist()

    traj = DiscreteTrajectory(h=Hd.h, points=[point(0, 0, q0, p0)])
    return _march(atlas, 0, as_vector(q0).tolist(), as_vector(p0).tolist(), traj, N, step,
                  carry=carry, point=point)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_same_bits(traj, ref):
    assert traj.charts() == ref.charts()
    assert len(traj.points) == len(ref.points)
    for a, b in zip(traj.points, ref.points):
        assert _bits(a.q) == _bits(b.q)
        assert _bits(a.p) == _bits(b.p)
        assert _bits(a.r) == _bits(b.r)
    assert [(s.iterations, s.residual, s.switched) for s in traj.steps] == \
        [(s.iterations, s.residual, s.switched) for s in ref.steps]


def _outcome(step, *args):
    """The step's arrays, or the type and message of the error it raised."""
    try:
        return [_bits(x) for x in step(*args)]
    except Exception as e:  # the references must fail alike
        return type(e), str(e)


SYSTEMS = ["harmonic_1d", "planar_2d", "free_rotor_circle"]
RULES = {"midpoint": conformal_midpoint_rule, "trapezoidal": conformal_trapezoidal_rule}


def _case(name, sigma, rule):
    system = get_system(name)
    if sigma == "constant":
        system = with_constant_sigma(system, 0.7)
    return system, RULES[rule](system.lagrangian, system.atlas, system.start_chart, 0.1)


def _points(system, count, seed):
    ch = system.atlas.chart(system.start_chart)
    center, span = 0.5 * (ch.lower + ch.upper), 0.25 * np.minimum(ch.width, 4.0)
    rng = np.random.default_rng(seed)
    return [(center + span * rng.uniform(-1, 1, system.n), rng.uniform(-1, 1, system.n))
            for _ in range(count)]


@pytest.mark.parametrize("rule", list(RULES))
@pytest.mark.parametrize("sigma", ["constant", "conformal"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_plain_hamiltonian_steps_are_bitwise_the_array_step(name, sigma, rule, tight_cfg):
    system, Ld = _case(name, sigma, rule)
    atlas, chart = system.atlas, system.start_chart
    steppers = ((rd_step, build_right_hamiltonian, reference_right),
                (ld_step, build_left_hamiltonian, reference_left))
    for step, build, reference in steppers:
        Hd, ref = build(Ld, atlas, chart), reference(Ld, atlas, chart)
        for q, p in _points(system, 6, 41):
            want = _outcome(lambda *a: reference_plain_step(*a)[:2], ref, q, p, tight_cfg)
            assert _outcome(step, Hd, q, p, tight_cfg) == want
            # a Hamiltonian given only by array parts steps through them
            assert _outcome(step, ref, q, p, tight_cfg) == want


@pytest.mark.parametrize("rule", list(RULES))
@pytest.mark.parametrize("sigma", ["constant", "conformal"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_inversions_and_mixed_partials_are_bitwise_the_array_coding(name, sigma, rule):
    system, Ld = _case(name, sigma, rule)
    atlas, chart = system.atlas, system.start_chart
    ch = atlas.chart(chart)
    right, left = build_right_hamiltonian(Ld, atlas, chart), build_left_hamiltonian(
        Ld, atlas, chart)
    refs = reference_right(Ld, atlas, chart), reference_left(Ld, atlas, chart)
    for q, P in _points(system, 4, 43):
        assert _bits(right.source.invert_right(q, P)) == \
            _bits(reference_invert_right(Ld, ch, q, P))
        assert _bits(left.source.invert_left(q, P)) == \
            _bits(reference_invert_left(Ld, ch, q, P))
        for Hd, ref in zip((right, left), refs):
            for part in ("value", "d1", "d2", "d1d2"):
                got, want = getattr(Hd, part)(q, P), getattr(ref, part)(q, P)
                assert type(got) is type(want), part
                assert _bits(got) == _bits(want), part


@pytest.mark.parametrize("rule", list(RULES))
@pytest.mark.parametrize("sigma", ["constant", "conformal"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_del_step_is_bitwise_the_array_step(name, sigma, rule, tight_cfg):
    system, Ld = _case(name, sigma, rule)
    for q, v in _points(system, 10, 47):
        q_prev = q - 0.1 * v
        assert _outcome(lambda *a: [del_step(*a)], Ld, q_prev, q, tight_cfg) == \
            _outcome(lambda *a: [reference_del_step(*a).x], Ld, q_prev, q, tight_cfg)


@pytest.mark.parametrize("rule", list(RULES))
@pytest.mark.parametrize("sigma", ["constant", "conformal"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_plain_marches_are_bitwise_the_array_marches(name, sigma, rule, tight_cfg):
    system, Ld = _case(name, sigma, rule)
    atlas, n = system.atlas, system.n
    q0, v = np.full(n, 0.5), np.full(n, 0.3)
    N = 400 if name == "free_rotor_circle" else 100
    q1 = q0 + 0.1 * v
    traj = integrate(Ld, atlas, 0, q0, q1, N, tight_cfg, conformal=False)
    if name == "free_rotor_circle":
        assert traj.n_switches() >= 1
    assert_same_bits(traj, reference_integrate(Ld, atlas, q0, q1, N, tight_cfg))
    for build, reference in ((build_right_hamiltonian, reference_right),
                             (build_left_hamiltonian, reference_left)):
        ham = integrate_hamiltonian(build(Ld, atlas, 0), atlas, 0, q0, v, N // 4,
                                    tight_cfg, conformal=False)
        ref = reference_integrate_hamiltonian(reference(Ld, atlas, 0), atlas, q0, v,
                                              N // 4, tight_cfg)
        assert_same_bits(ham, ref)
