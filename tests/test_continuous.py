import numpy as np
import pytest

from lcsdyn import (Chart, ConformalAtlas, ContinuousHamiltonian,
                    ContinuousLagrangian, IntegrationError, RegularityError,
                    divergence_numeric, energy, fiber_legendre,
                    fiber_legendre_inv, free_rotor_circle, harmonic_1d,
                    lcel_acceleration, lcs_hamiltonian_field, lee_form,
                    make_lcel_field, make_lcshe_field, planar_2d, rk4_integrate,
                    solve_linear)


def test_field_flat_reduces_to_canonical(harmonic_flat):
    qd, pd = lcs_hamiltonian_field(harmonic_flat.hamiltonian,
                                   harmonic_flat.atlas, 0, [1.0], [0.0])
    assert np.array_equal(qd, [0.0])
    assert np.array_equal(pd, [-1.0])


def test_field_conformal_1d(harmonic):
    qd, pd = lcs_hamiltonian_field(harmonic.hamiltonian, harmonic.atlas, 0,
                                   [1.0], [0.0])
    assert np.allclose(qd, [0.0])
    assert abs(pd[0] - (-0.95)) <= 1e-14


def test_field_conformal_2d():
    # sigma = q1, H = |p|^2/2: A = [[0, 1], [-1, 0]], H = 1 at p = (1, 1)
    atlas = ConformalAtlas(charts=(Chart(
        id=0, dim=2, lower=[-5, -5], upper=[5, 5],
        sigma=lambda q: float(q[0]), sigma_grad=lambda q: np.array([1.0, 0.0])),))
    H = ContinuousHamiltonian(
        n=2, jet=lambda q, p: (0.5 * (p[0] * p[0] + p[1] * p[1]), [0.0, 0.0], list(p)))
    qd, pd = lcs_hamiltonian_field(H, atlas, 0, [0.0, 0.0], [1.0, 1.0])
    assert np.allclose(qd, [1.0, 1.0])
    assert np.allclose(pd, [0.0, 1.0])


def test_acceleration_flat(harmonic_flat):
    a = lcel_acceleration(harmonic_flat.lagrangian, harmonic_flat.atlas, 0,
                          [1.0], [0.0])
    assert np.array_equal(a, [-1.0])


def test_acceleration_conformal(harmonic):
    a = lcel_acceleration(harmonic.lagrangian, harmonic.atlas, 0, [1.0], [0.0])
    assert abs(a[0] - (-0.95)) <= 1e-14


def test_acceleration_free_particle(free_line):
    # free particle with sigma = c q accelerates at c v^2 / 2
    a = lcel_acceleration(free_line.lagrangian, free_line.atlas, 0, [0.3], [2.0])
    assert abs(a[0] - 0.5 * 0.1 * 4.0) <= 1e-14


def test_acceleration_singular_hessian(harmonic):
    degenerate = ContinuousLagrangian(
        n=1, jet=lambda q, v: (v[0], [0.0], [1.0], np.zeros((1, 1)), np.zeros((1, 1))),
        hess_qq=lambda q, v: np.zeros((1, 1)))
    with pytest.raises(RegularityError):
        lcel_acceleration(degenerate, harmonic.atlas, 0, [0.0], [1.0])


def test_energy_values(harmonic):
    L = harmonic.lagrangian
    assert energy(L, [1.0], [1.0]) == pytest.approx(1.0)
    # homogeneous degree one in velocity -> zero energy
    L1 = ContinuousLagrangian(
        n=1, jet=lambda q, v: (3.0 * v[0], [0.0], [3.0], np.zeros((1, 1)),
                               np.zeros((1, 1))),
        hess_qq=lambda q, v: np.zeros((1, 1)))
    assert energy(L1, [0.5], [2.0]) == pytest.approx(0.0)
    free = ContinuousLagrangian(
        n=1, jet=lambda q, v: (0.5 * v[0] * v[0], [0.0], list(v), np.eye(1),
                               np.zeros((1, 1))),
        hess_qq=lambda q, v: np.zeros((1, 1)))
    assert energy(free, [0.0], [2.0]) == pytest.approx(2.0)


def test_fiber_legendre(harmonic):
    L = harmonic.lagrangian
    assert np.allclose(fiber_legendre(L, [0.0], [3.0]), [3.0])
    assert np.allclose(fiber_legendre_inv(L, [0.0], [3.0]), [3.0])
    mass2 = ContinuousLagrangian(
        n=1, jet=lambda q, v: (v[0] * v[0], [0.0], [2.0 * v[0]], 2.0 * np.eye(1),
                               np.zeros((1, 1))),
        hess_qq=lambda q, v: np.zeros((1, 1)))
    assert np.allclose(fiber_legendre(mass2, [0.0], [1.0]), [2.0])
    assert np.allclose(fiber_legendre_inv(mass2, [0.0], [2.0]), [1.0])


def test_rk4_constant_field():
    xs = rk4_integrate(lambda x: np.zeros(1), [1.0], 0.5, 20)
    assert np.array_equal(xs[-1], [1.0])


def test_rk4_exponential():
    xs = rk4_integrate(lambda x: x, [1.0], 0.1, 10)
    assert abs(xs[-1][0] - np.e) <= 3e-6


def test_rk4_harmonic_period():
    steps = 6283
    h = 2 * np.pi / steps
    xs = rk4_integrate(lambda x: np.array([x[1], -x[0]]), [1.0, 0.0], h, steps)
    assert np.max(np.abs(xs[-1] - xs[0])) <= 1e-9


def test_rk4_rejects_nonfinite():
    with pytest.raises(IntegrationError) as exc:
        rk4_integrate(lambda x: x * x, [1.0], 1.0, 100)
    assert exc.value.index is not None


def test_rk4_rejects_wrong_length_field_output():
    # one component for a two-component state used to broadcast silently
    with pytest.raises(ValueError, match=r"1 components.*length 2"):
        rk4_integrate(lambda x: np.array([1.0]), [0.0, 0.0], 0.1, 2)


def test_fields_reject_wrong_length_gradients(harmonic):
    # a two-component grad_q for n = 1 used to broadcast into a 3-vector field
    L, H = harmonic.lagrangian, harmonic.hamiltonian

    def two_gradients(jet):
        def wrong(q, x):
            parts = list(jet(q, x))
            parts[1] = [0.0, 0.0]
            return tuple(parts)
        return wrong

    L2 = ContinuousLagrangian(n=1, jet=two_gradients(L.jet), hess_qq=L.hess_qq)
    H2 = ContinuousHamiltonian(n=1, jet=two_gradients(H.jet))
    x = np.array([0.5, 0.2])
    with pytest.raises(ValueError):
        make_lcel_field(L2, harmonic.atlas, 0)(x)
    with pytest.raises(ValueError):
        make_lcshe_field(H2, harmonic.atlas, 0)(x)


def test_rk4_rejects_nan_step():
    with pytest.raises(ValueError, match="h must be positive"):
        rk4_integrate(lambda x: x, [1.0], float("nan"), 3)


# The numpy RK4 loop and field formulas the float-level kernel replaced, kept
# as the reference that it must reproduce bit for bit.

def _reference_rk4(field, x0, h, steps):
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    out = np.empty((steps + 1, x.size))
    out[0] = x
    for k in range(steps):
        k1 = np.asarray(field(x))
        k2 = np.asarray(field(x + 0.5 * h * k1))
        k3 = np.asarray(field(x + 0.5 * h * k2))
        k4 = np.asarray(field(x + h * k3))
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = x
    return out


def _reference_lcshe_field(H, atlas, chart):
    n, grad = H.n, atlas.chart(chart).grad

    def field(x):
        q, p = x[:n], x[n:]
        phi = grad(q)
        qdot = np.asarray(H.grad_p(q, p), dtype=float)
        pdot = -np.asarray(H.grad_q(q, p), dtype=float) \
            - (phi * float(p @ qdot) - p * float(phi @ qdot)) \
            + H.value(q, p) * phi
        return np.concatenate([qdot, pdot])

    return field


def _reference_lcel_field(L, atlas, chart):
    n, grad = L.n, atlas.chart(chart).grad

    def field(x):
        q, v = x[:n], x[n:]
        phi = grad(q)
        gv = np.asarray(L.grad_v(q, v), dtype=float)
        rhs = np.asarray(L.grad_q(q, v), dtype=float) - L.hess_vq(q, v) @ v \
            + float(phi @ v) * gv - L.value(q, v) * phi
        M = L.hess_vv(q, v)
        acc = rhs / M[0, 0] if n == 1 else np.linalg.solve(M, rhs)
        return np.concatenate([v, acc])

    return field


@pytest.mark.parametrize("system_fn", [harmonic_1d, planar_2d])
def test_rk4_fields_bitwise_equal_numpy_reference(system_fn):
    system = system_fn()
    n = system.n
    starts = [np.zeros(2 * n), np.concatenate([np.full(n, 1.0), -np.zeros(n)]),
              np.random.default_rng(3).uniform(-1, 1, 2 * n)]
    pairs = [(make_lcshe_field(system.hamiltonian, system.atlas, 0),
              _reference_lcshe_field(system.hamiltonian, system.atlas, 0)),
             (make_lcel_field(system.lagrangian, system.atlas, 0),
              _reference_lcel_field(system.lagrangian, system.atlas, 0))]
    for x0 in starts:
        for field, reference in pairs:
            got = rk4_integrate(field, x0, 1e-3, 500)
            want = _reference_rk4(reference, x0, 1e-3, 500)
            assert got.tobytes() == want.tobytes()


def test_lcel_field_matches_reference_with_coupled_hessians():
    # L = v.Mv/2 + v.Bq - q.Kq/2: non-identity hess_vv = M, hess_vq = B != 0.
    # solve_linear goes through inv(M), which rounds differently from LU.
    M = np.array([[2.0, 0.3], [0.3, 0.7]])
    B = np.array([[0.0, 0.4], [-0.25, 0.1]])
    K = np.array([[1.0, 0.2], [0.2, 1.5]])

    def jet(q, v):
        q, v = np.array(q), np.array(v)
        return (0.5 * float(v @ M @ v) + float(v @ B @ q) - 0.5 * float(q @ K @ q),
                (B.T @ v - K @ q).tolist(), (M @ v + B @ q).tolist(), M, B)

    L = ContinuousLagrangian(n=2, jet=jet, hess_qq=lambda q, v: -K)
    system = planar_2d()
    x0 = np.array([0.6, -0.4, 0.2, 0.9])
    got = rk4_integrate(make_lcel_field(L, system.atlas, 0), x0, 1e-3, 500)
    want = _reference_rk4(_reference_lcel_field(L, system.atlas, 0), x0, 1e-3, 500)
    assert np.max(np.abs(got - want)) <= 1e-13


def _starts(n):
    return [np.concatenate([np.full(n, 0.5), -np.zeros(n)]),
            np.random.default_rng(4).uniform(0.2, 1.0, 2 * n)]


@pytest.mark.parametrize("system_fn", [harmonic_1d, planar_2d, free_rotor_circle])
def test_rk4_float_entry_equals_public_field(system_fn):
    # A wrapper without ``_floats`` (as a tracing wrapper is) takes the public
    # array path; both must give the same bits.  Each field call is one jet call.
    system = system_fn()
    n, L, H = system.n, system.lagrangian, system.hamiltonian
    calls = []

    def counted(jet):
        def wrapper(q, x):
            calls.append(1)
            return jet(q, x)
        return wrapper

    for make, F in ((make_lcel_field, ContinuousLagrangian(n, counted(L.jet), L.hess_qq)),
                    (make_lcshe_field, ContinuousHamiltonian(n, counted(H.jet)))):
        field = make(F, system.atlas, 0)
        assert callable(field._floats)
        for x0 in _starts(n):
            calls.clear()
            got = rk4_integrate(field, x0, 1e-3, 400)
            assert len(calls) == 1600
            want = rk4_integrate(lambda x: field(x), x0, 1e-3, 400)
            assert got.tobytes() == want.tobytes()


def test_field_reads_a_non_constant_lee_form_per_call():
    # sigma = q0^2/2 + q1: the Lee form (q0, 1) changes along the flow
    grads = []
    chart = Chart(id=0, dim=2, lower=[-5, -5], upper=[5, 5],
                  sigma=lambda q: 0.5 * float(q[0]) ** 2 + float(q[1]),
                  sigma_grad=lambda q: grads.append(1) or np.array([q[0], 1.0]))
    system = planar_2d()
    atlas = ConformalAtlas(charts=(chart,))
    x0 = np.array([0.6, -0.4, 0.2, 0.9])
    got = rk4_integrate(make_lcel_field(system.lagrangian, atlas, 0), x0, 1e-3, 50)
    assert len(grads) == 200
    want = _reference_rk4(_reference_lcel_field(system.lagrangian, atlas, 0), x0,
                          1e-3, 50)
    assert got.tobytes() == want.tobytes()


def test_divergence_linear_field_trace():
    M = np.array([[1.0, 2.0], [3.0, -4.0]])
    div = divergence_numeric(lambda x: M @ x, np.array([0.3, 0.8]), 1e-5)
    assert abs(div - np.trace(M)) <= 1e-8


def test_divergence_flat_hamiltonian_zero(harmonic_flat):
    f = make_lcshe_field(harmonic_flat.hamiltonian, harmonic_flat.atlas, 0)
    assert abs(divergence_numeric(f, np.array([0.4, -0.2]), 1e-5)) <= 1e-6


def test_divergence_conformal_value(harmonic):
    f = make_lcshe_field(harmonic.hamiltonian, harmonic.atlas, 0)
    assert abs(divergence_numeric(f, np.array([0.0, 1.0]), 1e-5) - 0.1) <= 1e-8


@pytest.mark.parametrize("system_fn", [harmonic_1d, planar_2d])
def test_divergence_identity_random_points(system_fn):
    system = system_fn()
    n = system.n
    f = make_lcshe_field(system.hamiltonian, system.atlas, 0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2 * n)
        phi = lee_form(system.atlas, 0, x[:n])
        qdot = np.atleast_1d(system.hamiltonian.grad_p(x[:n], x[n:]))
        assert abs(divergence_numeric(f, x, 1e-5) - n * float(phi @ qdot)) <= 1e-5


@pytest.mark.parametrize("system_fn", [harmonic_1d, planar_2d])
def test_hamiltonian_lagrangian_equivalence(system_fn):
    system = system_fn()
    n = system.n
    q0, p0 = np.full(n, 1.0), np.full(n, 0.0)
    h, steps = 1e-3, 1000
    ham = rk4_integrate(make_lcshe_field(system.hamiltonian, system.atlas, 0),
                        np.concatenate([q0, p0]), h, steps)
    lag = rk4_integrate(make_lcel_field(system.lagrangian, system.atlas, 0),
                        np.concatenate([q0, p0]), h, steps)
    assert np.max(np.abs(ham - lag)) <= 1e-8


def test_flat_collapse_is_exact(harmonic_flat):
    # sigma == 0: conformal field equals the canonical one with no rounding slack
    H = harmonic_flat.hamiltonian
    rng = np.random.default_rng(7)
    for _ in range(20):
        q, p = rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)
        qd, pd = lcs_hamiltonian_field(H, harmonic_flat.atlas, 0, q, p)
        assert np.array_equal(qd, np.atleast_1d(H.grad_p(q, p)))
        assert np.array_equal(pd, -np.atleast_1d(H.grad_q(q, p)))
        a = lcel_acceleration(harmonic_flat.lagrangian, harmonic_flat.atlas, 0, q, p)
        assert np.array_equal(a, -q)


@pytest.mark.parametrize("M", [
    [[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-13]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-13]]],
    ids=["singular_2x2", "cond_1e13_2x2", "cond_1e13_3x3"])
def test_lcel_field_raises_on_a_doubtful_velocity_hessian(M):
    # As solve_linear does: the closed form declines, and the SVD's condition
    # number is raised with the error.
    M = np.array(M)
    n = len(M)

    def jet(q, v):
        v = np.array(v)
        return 0.5 * float(v @ M @ v), [0.0] * n, (M @ v).tolist(), M, np.zeros((n, n))

    L = ContinuousLagrangian(n=n, jet=jet, hess_qq=lambda q, v: np.zeros((n, n)))
    chart = Chart(id=0, dim=n, lower=[-5] * n, upper=[5] * n,
                  sigma=lambda q: 0.1 * float(q[0]), constant_lee=[0.1] + [0.0] * (n - 1))
    field = make_lcel_field(L, ConformalAtlas(charts=(chart,)), 0)
    with pytest.raises(RegularityError) as exc:
        field(np.full(2 * n, 0.5))
    with pytest.raises(RegularityError) as want:
        solve_linear(M, np.ones(n))
    assert exc.value.condition == want.value.condition == np.linalg.cond(M)
