import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from lcsdyn import (Chart, ConformalAtlas, ContinuousHamiltonian,
                    ContinuousLagrangian, IntegrationError, RegularityError,
                    divergence_numeric, fiber_legendre,
                    fiber_legendre_inv, free_rotor_circle, harmonic_1d, lee_form,
                    make_lcel_field, make_lcshe_field, numerics, planar_2d,
                    rk4_integrate, solve_linear)
from lcsdyn.discretize import (conformal_midpoint_rule, conformal_trapezoidal_rule,
                               exact_discrete_lagrangian, midpoint_rule, trapezoidal_rule)
from lcsdyn.hamiltonian_discrete import build_left_hamiltonian, build_right_hamiltonian
from lcsdyn.errors import DomainError
from lcsdyn.systems import CATALOG
from conftest import (curved_harmonic, curved_planar, harmonic_3d, hollow,
                      quadratic_planar, reference_dot, reference_matvec,
                      reference_solve, varying_mass)


def hamilton_rates(H, atlas, q, p):
    """(dq/dt, dp/dt) of the conformal Hamilton field on chart 0 at (q, p)."""
    n = len(q)
    x = make_lcshe_field(H, atlas, 0)(np.concatenate([q, p]))
    return x[:n], x[n:]


def acceleration(L, atlas, q, v):
    """The acceleration of the conformal Euler-Lagrange field on chart 0 at (q, v)."""
    return make_lcel_field(L, atlas, 0)(np.concatenate([q, v]))[len(q):]


def test_field_flat_reduces_to_canonical(harmonic_flat):
    qd, pd = hamilton_rates(harmonic_flat.hamiltonian, harmonic_flat.atlas, [1.0], [0.0])
    assert np.array_equal(qd, [0.0])
    assert np.array_equal(pd, [-1.0])


def test_field_conformal_1d(harmonic):
    qd, pd = hamilton_rates(harmonic.hamiltonian, harmonic.atlas, [1.0], [0.0])
    assert np.allclose(qd, [0.0])
    assert abs(pd[0] - (-0.95)) <= 1e-14


def test_field_conformal_2d():
    # sigma = q1, H = |p|^2/2: A = [[0, 1], [-1, 0]], H = 1 at p = (1, 1)
    atlas = ConformalAtlas(charts=(Chart(
        id=0, dim=2, lower=[-5, -5], upper=[5, 5],
        sigma=lambda q: float(q[0]), sigma_grad=lambda q: np.array([1.0, 0.0]),
        sigma_hess=lambda q: np.zeros((2, 2))),))
    H = ContinuousHamiltonian(
        n=2, jet=lambda q0, q1, p0, p1: (0.5 * (p0 * p0 + p1 * p1), 0.0, 0.0, p0, p1))
    qd, pd = hamilton_rates(H, atlas, [0.0, 0.0], [1.0, 1.0])
    assert np.allclose(qd, [1.0, 1.0])
    assert np.allclose(pd, [0.0, 1.0])


def test_acceleration_flat(harmonic_flat):
    a = acceleration(harmonic_flat.lagrangian, harmonic_flat.atlas, [1.0], [0.0])
    assert np.array_equal(a, [-1.0])


def test_acceleration_conformal(harmonic):
    a = acceleration(harmonic.lagrangian, harmonic.atlas, [1.0], [0.0])
    assert abs(a[0] - (-0.95)) <= 1e-14


def test_acceleration_free_particle(free_line):
    # free particle with sigma = c q accelerates at c v^2 / 2
    a = acceleration(free_line.lagrangian, free_line.atlas, [0.3], [2.0])
    assert abs(a[0] - 0.5 * 0.1 * 4.0) <= 1e-14


def test_acceleration_singular_hessian(harmonic):
    degenerate = ContinuousLagrangian(
        n=1, jet=lambda q, v: (v, 0.0, 1.0, np.zeros((1, 1)), np.zeros((1, 1))),
        hess_qq=lambda q, v: np.zeros((1, 1)))
    with pytest.raises(RegularityError):
        acceleration(degenerate, harmonic.atlas, [0.0], [1.0])
    # a constant zero mass is read when the field is built, and raises only
    # when the field is called
    declared = dataclasses.replace(degenerate, constant_hessians=True)
    field = make_lcel_field(declared, harmonic.atlas, 0)
    with pytest.raises(RegularityError, match="singular 1x1"):
        field(np.array([0.0, 1.0]))


def test_fiber_legendre(harmonic):
    L = harmonic.lagrangian
    assert np.allclose(fiber_legendre(L, [0.0], [3.0]), [3.0])
    assert np.allclose(fiber_legendre_inv(L, [0.0], [3.0]), [3.0])
    mass2 = ContinuousLagrangian(
        n=1, jet=lambda q, v: (v * v, 0.0, 2.0 * v, 2.0 * np.eye(1), np.zeros((1, 1))),
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
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(IntegrationError) as exc:
        rk4_integrate(lambda x: x * x, [1.0], 1.0, 100)
    assert exc.value.index is not None


def _blowup_fields():
    """A one-DOF Hamiltonian field on a flat chart with q' = 0 and p' = p^2, so
    that a run from p = 1 at h = 0.5 overflows within a few steps with q inside."""
    H = ContinuousHamiltonian(1, lambda q, p: (0.0, -p * p, 0.0))
    return [make_lcshe_field(H, harmonic_1d(0.0).atlas, 0)]


def _leaving_fields():
    """harmonic_1d's two fields; from (0, 60) the state leaves the box |q| <= 50."""
    system = harmonic_1d()
    return [make_lcel_field(system.lagrangian, system.atlas, 0),
            make_lcshe_field(system.hamiltonian, system.atlas, 0)]


def _planar_blowup_fields():
    """The two-DOF twin of :func:`_blowup_fields`: q' = 0, p' = (p0^2, p1^2)."""
    H = ContinuousHamiltonian(2, lambda q0, q1, p0, p1: (0.0, -p0 * p0, -p1 * p1, 0.0, 0.0))
    return [make_lcshe_field(H, planar_2d(0.0, 0.0).atlas, 0)]


def _planar_leaving_fields():
    """planar_2d's two fields; from (0, 40, 0, 60) the state leaves the box
    through q1 = 50."""
    system = planar_2d()
    return [make_lcel_field(system.lagrangian, system.atlas, 0),
            make_lcshe_field(system.hamiltonian, system.atlas, 0)]


@pytest.mark.parametrize("fields, x0, h, match", [
    (_blowup_fields, [0.0, 1.0], 0.5, "non-finite state"),
    (_leaving_fields, [0.0, 60.0], 0.01, "outside chart 0 domain"),
    (_planar_blowup_fields, [0.0, 0.0, 0.5, 1.0], 0.5, "non-finite state"),
    (_planar_leaving_fields, [0.0, 40.0, 0.0, 60.0], 0.01, "outside chart 0 domain")],
    ids=["non_finite", "leaves_chart", "planar_non_finite", "planar_leaves_chart"])
@pytest.mark.parametrize("entry", ["floats", "array"])
def test_rk4_two_component_failure_contract(fields, x0, h, match, entry):
    # Through the field's stepper and through a plain callable returning an
    # ndarray, a failing one- or two-DOF run reports the failing step, and its
    # partial rows are bitwise those of the same run stopped just before it.
    for field in fields():
        stage = field if entry == "floats" else (lambda x, f=field: f(x))
        with pytest.raises(IntegrationError, match=match) as exc:
            rk4_integrate(stage, x0, h, 200)
        index = exc.value.index
        assert 1 < index < 200
        partial = exc.value.partial
        assert partial.shape == (index, len(x0))
        assert np.isfinite(partial).all()
        assert partial.tobytes() == rk4_integrate(stage, x0, h, index - 1).tobytes()
        with pytest.raises(IntegrationError):
            rk4_integrate(stage, x0, h, index)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rk4_checks_every_component(d):
    # a field that blows up one component only stops the run at the step
    # where that component overflows, whichever component it is
    for i in range(d):
        def field(x, i=i):
            return [float(x[j]) * float(x[j]) if j == i else 0.0 for j in range(d)]

        x0 = [1.0 if j == i else 0.0 for j in range(d)]
        with pytest.raises(IntegrationError, match="non-finite state") as exc:
            rk4_integrate(field, x0, 0.5, 200)
        assert 1 < exc.value.index < 200
        assert np.isfinite(exc.value.partial).all()


def test_rk4_rejects_wrong_length_field_output():
    # one component for a two-component state (the one-DOF loop, through the
    # array stage) used to broadcast silently
    with pytest.raises(ValueError, match=r"1 components.*length 2"):
        rk4_integrate(lambda x: np.array([1.0]), [0.0, 0.0], 0.1, 2)


@pytest.mark.parametrize("entry", ["fiber_legendre_inv_q", "fiber_legendre_inv_p",
                                   "rk4_integrate", "field"])
def test_a_state_that_is_not_a_vector_is_named(entry):
    # a (1, 2) q or p for planar_2d used to fail on unpacking, and a (2, 2)
    # x0 on broadcasting into the (4,) result row
    planar = planar_2d()
    field = make_lcel_field(planar.lagrangian, planar.atlas, 0)
    good, bad = np.array([1.0, 0.9]), np.array([[1.0, 0.9]])
    name, shape, run = {
        "fiber_legendre_inv_q": ("q", "(1, 2)",
                                 lambda: fiber_legendre_inv(planar.lagrangian, bad, good)),
        "fiber_legendre_inv_p": ("p", "(1, 2)",
                                 lambda: fiber_legendre_inv(planar.lagrangian, good, bad)),
        "rk4_integrate": ("x0", "(2, 2)",
                          lambda: rk4_integrate(field, np.ones((2, 2)), 0.1, 3)),
        "field": ("x", "(2, 2)", lambda: field(np.ones((2, 2))))}[entry]
    with pytest.raises(ValueError, match=rf"{name} must be one-dimensional, "
                                         rf"got shape {re.escape(shape)}"):
        run()


def test_fields_reject_wrong_length_gradients():
    # A Lagrangian jet returns 2n + 3 values and a Hamiltonian jet 2n + 1; a
    # jet that returns one value fewer or one more raises ValueError in both
    # fields, rk4_integrate, fiber_legendre_inv, the array methods and the
    # plain and conformal rules' pair jets, for n = 1, 2 and 3, instead of
    # being read with its parts shifted.  So does declaring its Hessians
    # constant, which reads the jet at q = v = 0.  For n = 2 a Lee form with
    # three components raises too.
    def short(jet):
        return lambda *x: jet(*x)[:-1]

    def long(jet):
        return lambda *x: (*jet(*x), 0.0)

    for system in (harmonic_1d(), planar_2d(), harmonic_3d()):
        n, atlas, L, H = system.n, system.atlas, system.lagrangian, system.hamiltonian
        x = np.linspace(0.1, 0.4, 2 * n)
        q, v = x[:n], x[n:]
        for wrong in (short, long):
            bad_L = ContinuousLagrangian(n, wrong(L.jet), L.hess_qq)
            bad_H = ContinuousHamiltonian(n, wrong(H.jet))
            runs = [lambda: dataclasses.replace(bad_L, constant_hessians=True),
                    lambda: fiber_legendre_inv(bad_L, q, v),
                    lambda: bad_L.value(q, v), lambda: bad_H.grad_p(q, v),
                    lambda: midpoint_rule(bad_L, 0.1).jet(q.tolist(), v.tolist()),
                    lambda: trapezoidal_rule(bad_L, 0.1).jet(q.tolist(), v.tolist())]
            for rule in (conformal_midpoint_rule, conformal_trapezoidal_rule):
                runs.append(lambda rule=rule: rule(bad_L, atlas, 0, 0.1).jet(q.tolist(),
                                                                            v.tolist()))
            for field in (make_lcel_field(bad_L, atlas, 0), make_lcshe_field(bad_H, atlas, 0)):
                runs += [lambda field=field: field(x),
                         lambda field=field: rk4_integrate(field, x, 1e-3, 2)]
            for run in runs:
                with pytest.raises(ValueError, match="values"):
                    run()

    planar = planar_2d()
    chart = Chart(id=0, dim=2, lower=[-5, -5], upper=[5, 5], sigma=lambda q: 0.0,
                  sigma_grad=lambda q: np.zeros(3), sigma_hess=lambda q: np.zeros((2, 2)))
    three_lee = ConformalAtlas(charts=(chart,))
    for make, F in ((make_lcel_field, planar.lagrangian),
                    (make_lcshe_field, planar.hamiltonian)):
        field = make(F, three_lee, 0)
        with pytest.raises(ValueError):
            field(np.array([0.5, -0.3, 0.2, 0.1]))
        with pytest.raises(ValueError):
            rk4_integrate(field, np.array([0.5, -0.3, 0.2, 0.1]), 1e-3, 2)


def test_a_system_on_a_chart_of_another_dimension_is_refused():
    # A field or a chart-taking rule of n degrees of freedom built on a chart
    # of another dimension used to be accepted, and to fail at its first call
    # with an unpacking, IndexError or zip() error; it now fails when built.
    one, two, three = harmonic_1d(), planar_2d(), harmonic_3d()
    for system, atlas, dim in ((one, two.atlas, 2), (two, one.atlas, 1), (three, two.atlas, 2)):
        L, n = system.lagrangian, system.n
        Ld = conformal_midpoint_rule(L, system.atlas, 0, 0.1)
        builds = [lambda: make_lcel_field(L, atlas, 0),
                  lambda: make_lcshe_field(system.hamiltonian, atlas, 0),
                  lambda: conformal_midpoint_rule(L, atlas, 0, 0.1),
                  lambda: conformal_trapezoidal_rule(L, atlas, 0, 0.1),
                  lambda: exact_discrete_lagrangian(L, atlas, 0, 0.1),
                  lambda: build_right_hamiltonian(Ld, atlas, 0),
                  lambda: build_left_hamiltonian(Ld, atlas, 0)]
        for build in builds:
            with pytest.raises(ValueError, match=rf"^n = {n} does not match chart 0, "
                                                 rf"of dimension {dim}$"):
                build()


def test_a_jet_of_the_wrong_count_is_named():
    # the n >= 3 kernels, fiber_legendre_inv and the array methods read a jet
    # through one slicer, whose message names the jet and its expected count
    system = harmonic_3d()
    L, H = system.lagrangian, system.hamiltonian
    bad_L = ContinuousLagrangian(3, lambda *x: L.jet(*x)[:-1], L.hess_qq)
    bad_H = ContinuousHamiltonian(3, lambda *x: (*H.jet(*x), 0.0))
    x = np.full(6, 0.2)
    for run, message in (
            (lambda: make_lcel_field(bad_L, system.atlas, 0)(x),
             "ContinuousLagrangian jet returned 8 values, expected 9 (2n + 3 for n = 3)"),
            (lambda: bad_L.grad_v(x[:3], x[3:]), "ContinuousLagrangian jet returned 8"),
            (lambda: make_lcshe_field(bad_H, system.atlas, 0)(x),
             "ContinuousHamiltonian jet returned 8 values, expected 7 (2n + 1 for n = 3)"),
            (lambda: bad_H.value(x[:3], x[3:]), "ContinuousHamiltonian jet returned 8")):
        with pytest.raises(ValueError, match=re.escape(message)):
            run()


@pytest.mark.parametrize("system_fn", [harmonic_1d, planar_2d, harmonic_3d])
def test_array_methods_check_their_argument_lengths(system_fn):
    # q, v and p are read as vectors of n components: a q one component short
    # with a v one component long used to pass to the jet as a valid state
    system = system_fn()
    n, L, H = system.n, system.lagrangian, system.hamiltonian
    good, short, long = np.full(n, 0.3), np.full(n - 1, 0.3), np.full(n + 1, 0.3)
    methods = [(L, name, "v") for name in ("value", "grad_q", "grad_v", "hess_vv", "hess_vq")]
    methods += [(H, name, "p") for name in ("value", "grad_q", "grad_p")]
    for F, name, second in methods:
        method = getattr(F, name)
        for q, x, named, size in ((short, long, "q", n - 1), (good, long, second, n + 1),
                                  (good, short, second, n - 1), (long, good, "q", n + 1)):
            with pytest.raises(ValueError,
                               match=rf"^{named} has {size} components, expected {n}$"):
                method(q, x)
        with pytest.raises(ValueError, match=rf"^{second} must be one-dimensional"):
            method(good, good[None, :])
        assert np.asarray(method(good, good)).size in (1, n, n * n)
    with pytest.raises(ValueError, match=rf"^q has {n + 1} components, expected {n}$"):
        fiber_legendre(L, long, good)


# sha256 digests of rk4_integrate(field, x0, 1e-3, 2000).tobytes() for each
# catalog field from two starts, taken before the jets passed their
# coordinates as separate floats.  The catalog kernels use only IEEE + - * /
# on Python floats, in a fixed order, so the digests hold on any platform.
_GOLDEN_STARTS = {1: ([0.3, 0.8], [2.0, -0.6]),
                  2: ([0.3, -0.4, 0.8, 0.2], [-1.0, 0.5, 0.1, -0.7])}
_GOLDEN = {
    ("harmonic_1d", "lcel", 0): "5084c2a295236a505726b8deef376bfc879b607cf60ad6a2e26d815e95a8ac22",
    ("harmonic_1d", "lcel", 1): "5badc4023e9374d036af1e2a63dbf60cf1b3578c287f2e9fa3ededda8576a3e0",
    ("harmonic_1d", "lcshe", 0): "cdb6876dd2e16e1f6d3a670c8958ba73b498a066bb4bf8538df0759d8fa307bc",
    ("harmonic_1d", "lcshe", 1): "5badc4023e9374d036af1e2a63dbf60cf1b3578c287f2e9fa3ededda8576a3e0",
    ("planar_2d", "lcel", 0): "d7ecea079f92ef8ce3d8bde027404d53761aded799bfc58a3e19134baf075605",
    ("planar_2d", "lcel", 1): "30944557cbc46d85a71dd9d241129aba200e8a02122a581f9966c99fd8a60da7",
    ("planar_2d", "lcshe", 0): "0cefeeb578b14e118026a0f6284a424fad8210da0e27d01244bd10849bb28633",
    ("planar_2d", "lcshe", 1): "81221519ef1359053e748607315bce92787fb2d68d5fedd200a9fec29a57b3cd",
    ("free_rotor_circle", "lcel", 0): "a633eac85bcd1040b9eda9a102472d94600bf0e12023a5121383fdfbad506021",
    ("free_rotor_circle", "lcel", 1): "4178046798c298735d4c0b04ae84629ecc1c46e1aff35eee0b91b0075935433c",
    ("free_rotor_circle", "lcshe", 0): "a633eac85bcd1040b9eda9a102472d94600bf0e12023a5121383fdfbad506021",
    ("free_rotor_circle", "lcshe", 1): "4178046798c298735d4c0b04ae84629ecc1c46e1aff35eee0b91b0075935433c",
}


@pytest.mark.parametrize("name, kind, start", list(_GOLDEN))
def test_catalog_rk4_runs_keep_their_golden_bits(name, kind, start):
    system = CATALOG[name]()
    make, F = {"lcel": (make_lcel_field, system.lagrangian),
               "lcshe": (make_lcshe_field, system.hamiltonian)}[kind]
    field = make(F, system.atlas, system.start_chart)
    out = rk4_integrate(field, np.array(_GOLDEN_STARTS[system.n][start]), 1e-3, 2000)
    assert hashlib.sha256(out.tobytes()).hexdigest() == _GOLDEN[name, kind, start]


def test_rk4_rejects_nan_step():
    with pytest.raises(ValueError, match="h must be positive"):
        rk4_integrate(lambda x: x, [1.0], float("nan"), 3)


@pytest.mark.parametrize("steps", [2.5, 3.0, True, "3", None])
def test_rk4_refuses_a_step_count_that_is_not_an_integer(steps):
    # 2.5 used to raise numpy's TypeError, True to run one step
    with pytest.raises(ValueError, match="^steps must be an integer, got "):
        rk4_integrate(lambda x: x, [1.0], 0.1, steps)


def test_rk4_takes_a_numpy_integer_step_count():
    for steps in (np.int64(3), np.int32(3)):
        assert rk4_integrate(lambda x: x, [1.0], 0.1, steps).shape == (4, 1)
    for steps in (0, -1, np.int64(0)):
        with pytest.raises(ValueError, match="^steps must be >= 1$"):
            rk4_integrate(lambda x: x, [1.0], 0.1, steps)


# The numpy RK4 loop and field formulas the float-level kernel replaced, kept
# as the reference that it must reproduce bit for bit.  Their dot products,
# matvecs and 2x2 solves are conftest's, which round per operation for n <= 2
# without numpy's BLAS.

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
            - (phi * reference_dot(p, qdot) - p * reference_dot(phi, qdot)) \
            + H.value(q, p) * phi
        return np.concatenate([qdot, pdot])

    return field


def _reference_lcel_field(L, atlas, chart):
    n, grad = L.n, atlas.chart(chart).grad

    def field(x):
        q, v = x[:n], x[n:]
        phi = grad(q)
        gv = np.asarray(L.grad_v(q, v), dtype=float)
        rhs = np.asarray(L.grad_q(q, v), dtype=float) - reference_matvec(L.hess_vq(q, v), v) \
            + reference_dot(phi, v) * gv - L.value(q, v) * phi
        return np.concatenate([v, reference_solve(L.hess_vv(q, v), rhs)])

    return field


def coupled_1d():
    """harmonic_1d with L = v^2 + 0.4 v q - q^2/2: hess_vv = [[2]], hess_vq = [[0.4]],
    so the n = 1 kernel's division by the mass and its hess_vq term both count."""
    def jet(x, w):
        return (w * w + 0.4 * w * x - 0.5 * x * x, 0.4 * w - x, 2.0 * w + 0.4 * x,
                np.array([[2.0]]), np.array([[0.4]]))

    L = ContinuousLagrangian(1, jet, hess_qq=lambda q, v: np.array([[-1.0]]))
    return dataclasses.replace(harmonic_1d(), lagrangian=L)


def mass_3d():
    """harmonic_3d with L = v.Mv/2 + v.Bq - q.q/2 for a full, non-identity M: the
    n >= 3 acceleration is inv(M) @ rhs, which an LU solve would round differently."""
    M = np.array([[2.0, 0.3, -0.1], [0.3, 1.5, 0.2], [-0.1, 0.2, 0.8]])
    B = np.array([[0.0, 0.4, 0.0], [-0.25, 0.1, 0.3], [0.2, 0.0, -0.1]])

    def jet(*x):
        q, v = np.array(x[:3]), np.array(x[3:])
        return (0.5 * float(v @ M @ v) + float(v @ B @ q) - 0.5 * float(q @ q),
                *(B.T @ v - q).tolist(), *(M @ v + B @ q).tolist(), M, B)

    L = ContinuousLagrangian(3, jet, hess_qq=lambda q, v: -np.eye(3))
    return dataclasses.replace(harmonic_3d(), lagrangian=L)


def coupled_planar():
    """planar_2d with L = |v|^2/2 + v.Bq - |q|^2/2 and sigma = -1.7 q0 + 0.45 q1:
    hess_vv = I and a full hess_vq = B, so both rows of the n = 2 kernel's
    matvec count."""
    B = np.array([[0.1, 0.4], [-0.25, 0.3]])

    def jet(*x):
        q, v = np.array(x[:2]), np.array(x[2:])
        return (0.5 * float(v @ v) + float(v @ B @ q) - 0.5 * float(q @ q),
                *(B.T @ v - q).tolist(), *(v + B @ q).tolist(), np.eye(2), B)

    L = ContinuousLagrangian(2, jet, hess_qq=lambda q, v: -np.eye(2))
    return dataclasses.replace(planar_2d(-1.7, 0.45), lagrangian=L)


@pytest.mark.parametrize("system_fn", [harmonic_1d, coupled_1d, planar_2d, coupled_planar])
def test_fields_bitwise_equal_numpy_reference_pointwise(system_fn):
    # An RK4 step scales a field's last bit by h before adding it to the
    # state, so a trajectory seldom shows a field that rounds differently;
    # compare the fields themselves.
    system = system_fn()
    n = system.n
    rng = np.random.default_rng(12)
    points = [*rng.uniform(-3, 3, (3000, 2 * n)), np.zeros(2 * n), -np.zeros(2 * n),
              np.concatenate([np.full(n, 1.0), -np.zeros(n)])]
    pairs = [(make_lcshe_field(system.hamiltonian, system.atlas, 0),
              _reference_lcshe_field(system.hamiltonian, system.atlas, 0)),
             (make_lcel_field(system.lagrangian, system.atlas, 0),
              _reference_lcel_field(system.lagrangian, system.atlas, 0))]
    for field, reference in pairs:
        for x in points:
            assert field(x).tobytes() == reference(x).tobytes(), x


@pytest.mark.parametrize("system_fn", [harmonic_1d, coupled_1d, planar_2d, harmonic_3d,
                                       mass_3d])
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
    # L = v.Mv/2 + v.Bq - q.Kq/2: non-identity hess_vv = M, hess_vq = B != 0,
    # read from the jet at every call.
    M = np.array([[2.0, 0.3], [0.3, 0.7]])
    B = np.array([[0.0, 0.4], [-0.25, 0.1]])
    K = np.array([[1.0, 0.2], [0.2, 1.5]])

    def jet(*x):
        q, v = np.array(x[:2]), np.array(x[2:])
        return (0.5 * float(v @ M @ v) + float(v @ B @ q) - 0.5 * float(q @ K @ q),
                *(B.T @ v - K @ q).tolist(), *(M @ v + B @ q).tolist(), M, B)

    L = ContinuousLagrangian(n=2, jet=jet, hess_qq=lambda q, v: -K)
    system = planar_2d()
    x0 = np.array([0.6, -0.4, 0.2, 0.9])
    got = rk4_integrate(make_lcel_field(L, system.atlas, 0), x0, 1e-3, 500)
    want = _reference_rk4(_reference_lcel_field(L, system.atlas, 0), x0, 1e-3, 500)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sigma, x", [
    ([1e308, 0.1], [0.1, 0.1, 0.5, 0.5]),
    ([-1e308, 1e308], [0.1, 0.1, 1.5, 2.0]),
    ([1e300, 1e300], [0.1, 0.1, 1e-300, 3e-310]),
    ([0.3, 0.1], [0.1, 0.1, 1e200, 1e200]),
    ([0.3, 0.1], [0.1, 0.1, 1e160, -1e160]),
])
def test_planar_fields_round_per_operation_at_extreme_magnitudes(sigma, x):
    # products and sums that overflow, underflow into subnormals or cancel
    system = planar_2d(*sigma)
    for make, reference, F in (
            (make_lcel_field, _reference_lcel_field, system.lagrangian),
            (make_lcshe_field, _reference_lcshe_field, system.hamiltonian)):
        got = make(F, system.atlas, 0)(np.array(x))
        with np.errstate(all="ignore"):
            want = reference(F, system.atlas, 0)(np.array(x))
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def inverted_planar():
    """planar_2d(-0.3, 0.3) with H = |q|^2/2 - |p|^2/2: qdot = -p, so p . qdot
    sums -0.0 products where the catalog's |p|^2 never does."""
    def jet(q0, q1, p0, p1):
        return 0.5 * (q0 * q0 + q1 * q1) - 0.5 * (p0 * p0 + p1 * p1), q0, q1, -p0, -p1

    return dataclasses.replace(planar_2d(-0.3, 0.3), hamiltonian=ContinuousHamiltonian(2, jet))


@pytest.mark.parametrize("system_fn, make", [
    (lambda: planar_2d(-0.3, 0.1), make_lcshe_field),
    (lambda: planar_2d(-0.3, 0.1), make_lcel_field),
    (lambda: planar_2d(0.3, 0.1), make_lcshe_field),
    (lambda: planar_2d(0.3, 0.1), make_lcel_field),
    (lambda: planar_2d(0.0, -0.3), make_lcel_field),
    (coupled_planar, make_lcshe_field),
    (coupled_planar, make_lcel_field),
    (inverted_planar, make_lcshe_field),
], ids=["planar_2d(-0.3,0.1)-lcshe", "planar_2d(-0.3,0.1)-lcel", "planar_2d(0.3,0.1)-lcshe",
        "planar_2d(0.3,0.1)-lcel", "planar_2d(0,-0.3)-lcel", "coupled_planar-lcshe", "coupled_planar-lcel",
        "inverted_planar-lcshe"])
def test_planar_fields_round_signed_zeros_per_operation(system_fn, make):
    # The 2-element dot and 2x2 matvec add their products to a 0.0
    # accumulator, so a -0.0 sum comes out +0.0: every state with components
    # in {+-0, +-1, +-5e-324}.  Each dot and matvec row of the n = 2 kernels
    # shows a -0.0 in one of these cases, and the 2x2 solve's Cramer's rule
    # keeps the sign its own products and differences give.
    system = system_fn()
    F = system.hamiltonian if make is make_lcshe_field else system.lagrangian
    reference = (_reference_lcshe_field if make is make_lcshe_field
                 else _reference_lcel_field)(F, system.atlas, 0)
    field = make(F, system.atlas, 0)
    for x in itertools.product([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324], repeat=4):
        x = np.array(x)
        assert field(x).tobytes() == reference(x).tobytes(), x


def _starts(n):
    return [np.concatenate([np.full(n, 0.5), -np.zeros(n)]),
            np.random.default_rng(4).uniform(0.2, 1.0, 2 * n)]


# The catalog systems, whose n <= 2 fields run on their declared constants,
# then systems whose Hessians are read from the jet (coupled_1d,
# varying_mass, quadratic_planar) or whose Lee form varies (curved_*).
SCALAR_PATH_SYSTEMS = [harmonic_1d, planar_2d, free_rotor_circle, coupled_1d, varying_mass,
                       quadratic_planar, curved_harmonic, curved_planar]


def _fields(system, jets=lambda jet: jet):
    """The system's lcel and lcshe fields on chart 0, each jet passed through ``jets``."""
    L, H = system.lagrangian, system.hamiltonian
    return [make_lcel_field(dataclasses.replace(L, jet=jets(L.jet)), system.atlas, 0),
            make_lcshe_field(dataclasses.replace(H, jet=jets(H.jet)), system.atlas, 0)]


@pytest.mark.parametrize("system_fn", SCALAR_PATH_SYSTEMS)
def test_rk4_float_entry_equals_public_field(system_fn):
    # A wrapper without ``_stepper`` (as a tracing wrapper is) takes the public
    # array path; both must give the same bits.  Each stage of the stepper,
    # on constant or varying data, is one jet call.
    system = system_fn()
    n = system.n
    calls = []

    def counted(jet):
        def wrapper(*x):
            calls.append(1)
            return jet(*x)
        return wrapper

    for field in _fields(system, counted):
        d, run = field._stepper
        assert d == 2 * n and callable(run)
        for x0 in _starts(n):
            calls.clear()
            got = rk4_integrate(field, x0, 1e-3, 400)
            assert len(calls) == 1600
            want = rk4_integrate(lambda x: field(x), x0, 1e-3, 400)
            assert got.tobytes() == want.tobytes()


def _poisoned_jet(at, value):
    """A jet wrapper whose call number ``at`` after ``count.clear()`` returns
    ``value`` for every component of grad_q."""
    count = []

    def wrap(jet):
        def wrapped(*x):
            count.append(1)
            parts, n = jet(*x), len(x) // 2
            return parts if len(count) != at else (parts[0], *[value] * n, *parts[n + 1:])
        return wrapped

    return wrap, count


@pytest.mark.parametrize("system_fn", SCALAR_PATH_SYSTEMS)
def test_rk4_scalar_path_fails_as_the_array_path(system_fn):
    # Stage s (1 to 4) of step 30 gets an infinite or a huge grad_q.  Infinite,
    # it makes that stage non-finite, which for s = 4 makes the state of step
    # 30 non-finite.  Huge, it throws a later stage out of the chart: stage
    # s + 2 for s = 1 and 2, and stage s - 2 of step 31 for s = 3 and 4 (the
    # stage whose check fails makes no jet call), so that every inline chart
    # check of each stepper is met.  The stepper and a plain wrapper raise the
    # same IntegrationError: the same message, index, partial bytes and
    # cause, after the same jet calls.
    system = system_fn()
    n = system.n
    x0 = _starts(n)[1]
    exits = [set(), set()]
    for value, s in itertools.product((math.inf, 1e12), range(1, 5)):
        wrap, count = _poisoned_jet(4 * 29 + s, value)
        for field, stages in zip(_fields(system, wrap), exits):
            errors = []
            for stage in (field, lambda x: field(x)):
                count.clear()
                with pytest.raises(IntegrationError) as exc:
                    rk4_integrate(stage, x0, 1e-3, 200)
                errors.append((exc.value, len(count)))
            (scalar, calls), (array, array_calls) = errors
            assert calls == array_calls
            assert type(scalar.__cause__) is type(array.__cause__)
            assert str(scalar) == str(array)
            assert scalar.index == array.index
            assert scalar.partial.tobytes() == array.partial.tobytes()
            assert scalar.partial.shape == (scalar.index, 2 * n)
            if value == math.inf and s == 4:
                assert str(scalar) == "non-finite state at step 30"
            if value == 1e12:
                assert type(scalar.__cause__) is DomainError
                stages.add(calls % 4 + 1)
    assert exits == [{1, 2, 3, 4}] * 2


@pytest.mark.parametrize("lee", [0.1, None], ids=["constant_lee", "varying_lee"])
def test_declared_zero_mass_raises_on_both_paths(lee):
    # A declared 1x1 mass of zero keeps the per-call check: the field and both
    # RK4 paths raise the RegularityError of the undeclared kernel.
    def jet(q, v):
        return 0.5 * q * q, q, 0.0, np.zeros((1, 1)), np.zeros((1, 1))

    system = harmonic_1d(lee) if lee is not None else curved_harmonic()
    L = ContinuousLagrangian(1, jet, lambda q, v: np.ones((1, 1)), constant_hessians=True)
    field = make_lcel_field(L, system.atlas, 0)
    for run in (lambda: field(np.array([0.3, 0.2])),
                lambda: rk4_integrate(field, [0.3, 0.2], 0.01, 5),
                lambda: rk4_integrate(lambda x: field(x), [0.3, 0.2], 0.01, 5)):
        with pytest.raises(RegularityError, match="singular 1x1 velocity Hessian") as exc:
            run()
        assert exc.value.condition == math.inf


@pytest.mark.parametrize("system_fn", [coupled_1d, coupled_planar, quadratic_planar,
                                       mass_3d, harmonic_3d])
def test_declared_velocity_hessians_give_the_jet_bits(system_fn):
    # The n = 1, n = 2 and n >= 3 kernels and fiber_legendre_inv read the
    # Hessians that constant_hessians resolved at q = v = 0 once, when built:
    # the declaring Lagrangian's jet returns None in their place elsewhere.
    # Fields, RK4 runs and the inverse Legendre map keep the bits of the same
    # Lagrangian without the flag, read from its jet.
    system = system_fn()
    n, L = system.n, system.lagrangian
    from_jet = dataclasses.replace(L, constant_hessians=False)
    declared = dataclasses.replace(L, jet=hollow(L.jet), constant_hessians=True)
    want, got = (make_lcel_field(F, system.atlas, 0) for F in (from_jet, declared))
    rng = np.random.default_rng(8)
    for x in [*rng.uniform(-2, 2, (300, 2 * n)), np.zeros(2 * n), -np.zeros(2 * n)]:
        assert got(x).tobytes() == want(x).tobytes(), x
    for x0 in _starts(n):
        assert rk4_integrate(got, x0, 1e-3, 200).tobytes() == \
            rk4_integrate(want, x0, 1e-3, 200).tobytes()
        q, p = x0[:n], x0[n:] + 0.3
        assert fiber_legendre_inv(declared, q, p).tobytes() == \
            fiber_legendre_inv(from_jet, q, p).tobytes()


@pytest.mark.parametrize("M, inversions_per_call", [
    ([[2.0, 0.5], [0.5, 1.0]], 0), ([[1.0, 0.0], [0.0, 3e-12]], 1),
    ([[1.0, 0.0], [0.0, 1e-13]], None)],
    ids=["passes_screen", "checked_inverse", "ill_conditioned"])
def test_declared_velocity_hessian_is_screened_once(monkeypatch, M, inversions_per_call):
    # The n = 2 lcel kernel screens a declared hess_vv once, when it is built.
    # M passing, each call is Cramer's rule on the stored det; diag(1, 3e-12)
    # fails the screen (||M||_F^2 / det > 1e12 / 4) with cond 3.3e11 <= 1e12,
    # so each call takes the checked inverse; diag(1, 1e-13) raises as
    # _solve_floats does.  The bits are those of the same Lagrangian read
    # from its jet, whose field calls _solve_floats at every call.
    M, B = np.array(M), np.array([[0.1, 0.4], [-0.25, 0.3]])

    def jet(*x):
        q, v = np.array(x[:2]), np.array(x[2:])
        return (0.5 * float(v @ M @ v) + float(v @ B @ q) - 0.5 * float(q @ q),
                *(B.T @ v - q).tolist(), *(M @ v + B @ q).tolist(), M, B)

    atlas = planar_2d(0.3, -0.2).atlas
    from_jet = ContinuousLagrangian(2, jet, hess_qq=lambda q, v: -np.eye(2))
    declared = dataclasses.replace(from_jet, jet=hollow(jet), constant_hessians=True)
    got, want = make_lcel_field(declared, atlas, 0), make_lcel_field(from_jet, atlas, 0)
    inversions = []
    checked_inverse = numerics._checked_inverse
    monkeypatch.setattr(numerics, "_checked_inverse",
                        lambda *a: inversions.append(1) or checked_inverse(*a))
    points = np.random.default_rng(6).uniform(-2, 2, (50, 4))
    if inversions_per_call is None:
        with pytest.raises(RegularityError) as solve:
            numerics._solve_floats(M.tolist(), [1.0, 1.0], 1e12)
        for field in (got, want):
            with pytest.raises(RegularityError) as exc:
                field(points[0])
            assert exc.value.condition == solve.value.condition
        return
    for x in points:
        inversions.clear()
        assert got(x).tobytes() == want(x).tobytes(), x
        assert len(inversions) == 2 * inversions_per_call


def test_declared_larger_velocity_hessian_gives_the_jet_fields_bits():
    # harmonic_3d declares its identity hess_vv: the lcel field has the bits
    # of the field that reads it from the jet at every call
    system = harmonic_3d()
    declared = system.lagrangian
    got = make_lcel_field(declared, system.atlas, 0)
    want = make_lcel_field(dataclasses.replace(declared, constant_hessians=False),
                           system.atlas, 0)
    for x in np.random.default_rng(3).uniform(-2, 2, (30, 6)):
        assert got(x).tobytes() == want(x).tobytes(), x


def test_declared_singular_larger_velocity_hessian_raises_at_every_call():
    M, B = np.diag([1.0, 2.0, 0.0]), np.zeros((3, 3))

    def jet(*x):
        q, v = np.array(x[:3]), np.array(x[3:])
        return 0.5 * float(v @ M @ v) - 0.5 * float(q @ q), *(-q).tolist(), \
            *(M @ v).tolist(), M, B

    L = ContinuousLagrangian(3, jet, lambda q, v: -np.eye(3), constant_hessians=True)
    field = make_lcel_field(L, harmonic_3d().atlas, 0)
    with pytest.raises(RegularityError) as want:
        numerics._solve_floats(M.tolist(), [1.0, 1.0, 1.0], 1e12)
    for x in np.random.default_rng(4).uniform(-2, 2, (3, 6)):
        with pytest.raises(RegularityError) as got:
            field(x)
        assert str(got.value) == str(want.value)
        assert got.value.condition == want.value.condition


def test_field_reads_a_non_constant_lee_form_per_call():
    # sigma = q0^2/2 (+ q1 + q2): the Lee form (q0[, 1, 1]) changes along the
    # flow; the n = 1, n = 2 and n >= 3 kernels read it in different code
    for system in (harmonic_1d(), planar_2d(), harmonic_3d()):
        n = system.n
        grads, ones = [], [1.0] * (n - 1)
        chart = Chart(id=0, dim=n, lower=[-5] * n, upper=[5] * n,
                      sigma=lambda q: 0.5 * float(q[0]) ** 2 + float(np.sum(q[1:])),
                      sigma_grad=lambda q: grads.append(1) or np.array([q[0], *ones]),
                      sigma_hess=lambda q: np.diag([1.0] + [0.0] * (n - 1)))
        atlas = ConformalAtlas(charts=(chart,))
        x0 = np.array([0.6, -0.4, 0.3, 0.2, 0.9, -0.5])[
            {1: [0, 3], 2: [0, 1, 3, 4], 3: slice(None)}[n]]
        for make, reference, F in (
                (make_lcel_field, _reference_lcel_field, system.lagrangian),
                (make_lcshe_field, _reference_lcshe_field, system.hamiltonian)):
            grads.clear()
            got = rk4_integrate(make(F, atlas, 0), x0, 1e-3, 50)
            assert len(grads) == 200
            want = _reference_rk4(reference(F, atlas, 0), x0, 1e-3, 50)
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


@pytest.mark.parametrize("eps", [0.0, -1e-5, math.nan, math.inf])
def test_divergence_refuses_a_step_that_is_not_positive_and_finite(eps):
    # NaN passed the old eps <= 0 check and returned NaN
    with pytest.raises(ValueError, match="^eps must be positive and finite, got "):
        divergence_numeric(lambda x: x, np.array([0.3, 0.8]), eps)


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
        qd, pd = hamilton_rates(H, harmonic_flat.atlas, q, p)
        assert np.array_equal(qd, np.atleast_1d(H.grad_p(q, p)))
        assert np.array_equal(pd, -np.atleast_1d(H.grad_q(q, p)))
        a = acceleration(harmonic_flat.lagrangian, harmonic_flat.atlas, q, p)
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

    def jet(*x):
        v = np.array(x[n:])
        return 0.5 * float(v @ M @ v), *[0.0] * n, *(M @ v).tolist(), M, np.zeros((n, n))

    L = ContinuousLagrangian(n=n, jet=jet, hess_qq=lambda q, v: np.zeros((n, n)))
    chart = Chart(id=0, dim=n, lower=[-5] * n, upper=[5] * n,
                  sigma=lambda q: 0.1 * float(q[0]), constant_lee=[0.1] + [0.0] * (n - 1))
    field = make_lcel_field(L, ConformalAtlas(charts=(chart,)), 0)
    with pytest.raises(RegularityError) as exc:
        field(np.full(2 * n, 0.5))
    with pytest.raises(RegularityError) as want:
        solve_linear(M, np.ones(n))
    assert exc.value.condition == want.value.condition == np.linalg.cond(M)
