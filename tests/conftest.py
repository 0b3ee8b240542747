import dataclasses
import math
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest

from lcsdyn import (Chart, ConformalAtlas, DiscreteTrajectory, StepperConfig, System,
                    TrajectoryPoint, TransitionMap, free_rotor_circle, harmonic_1d,
                    planar_2d)
from lcsdyn.continuous import ContinuousLagrangian
from lcsdyn.discretize import DiscreteLagrangian, _pair_memo
from lcsdyn.numerics import _on_lists, as_matrix, as_vector
from lcsdyn.systems import _free_particle, _harmonic, _linear_chart


def free_line_system(c: float = 0.1, box: float = 50.0) -> System:
    """Free particle on an interval with sigma = c q (1 DOF)."""
    chart = Chart(id=0, dim=1, lower=[-box], upper=[box],
                  sigma=lambda q: c * float(np.atleast_1d(q)[0]),
                  sigma_grad=lambda q: np.array([c]),
                  sigma_hess=lambda q: np.zeros((1, 1)))
    L, H = _free_particle()
    return System(name="free_line", n=1, atlas=ConformalAtlas(charts=(chart,)),
                  lagrangian=L, hamiltonian=H, start_chart=0, sigma_params=(c,))


def curved_planar():
    """planar_2d with a non-linear conformal factor (nonzero, varying Hessian)."""
    system = planar_2d()
    c = system.atlas.charts[0]
    chart = Chart(id=0, dim=2, lower=c.lower, upper=c.upper,
                  sigma=lambda q: 0.2 * q[0] ** 2 + 0.1 * np.sin(q[1]),
                  sigma_grad=lambda q: np.array([0.4 * q[0], 0.1 * np.cos(q[1])]),
                  sigma_hess=lambda q: np.array([[0.4, 0.0],
                                                 [0.0, -0.1 * np.sin(q[1])]]))
    return dataclasses.replace(system, atlas=ConformalAtlas(charts=(chart,)))


def curved_harmonic():
    """harmonic_1d with the non-linear conformal factor sigma = 0.2 q^2, whose
    Lee form 0.4 q varies along the flow."""
    system = harmonic_1d()
    c = system.atlas.charts[0]
    chart = Chart(id=0, dim=1, lower=c.lower, upper=c.upper,
                  sigma=lambda q: 0.2 * float(q[0]) ** 2,
                  sigma_grad=lambda q: np.array([0.4 * q[0]]),
                  sigma_hess=lambda q: np.array([[0.4]]))
    return dataclasses.replace(system, atlas=ConformalAtlas(charts=(chart,)))


def varying_mass():
    """planar_2d with L = mu(q)|v|^2/2 + A(q).v - |q|^2/2, mu = 1 + |q|^2/10 and
    A = (0.3 q1^2, 0.5 q0): hess_vv = mu(q) I and the non-symmetric
    hess_vq = v (x) grad mu + dA vary with the point; hess_qq is analytic."""

    def jet(q0, q1, v0, v1):
        mu, vv = 1.0 + 0.1 * (q0 * q0 + q1 * q1), v0 * v0 + v1 * v1
        value = 0.5 * mu * vv + 0.3 * q1 * q1 * v0 + 0.5 * q0 * v1 \
            - 0.5 * (q0 * q0 + q1 * q1)
        hess_vq = np.array([[0.2 * v0 * q0, 0.2 * v0 * q1 + 0.6 * q1],
                            [0.2 * v1 * q0 + 0.5, 0.2 * v1 * q1]])
        return (value, 0.1 * vv * q0 + 0.5 * v1 - q0, 0.1 * vv * q1 + 0.6 * q1 * v0 - q1,
                mu * v0 + 0.3 * q1 * q1, mu * v1 + 0.5 * q0, mu * np.eye(2), hess_vq)

    def hess_qq(q, v):
        v = as_vector(v)
        return (0.1 * float(v @ v) - 1.0) * np.eye(2) + np.array([[0.0, 0.0],
                                                                  [0.0, 0.6 * v[0]]])

    system = planar_2d(0.3, -0.2)
    return dataclasses.replace(system, lagrangian=ContinuousLagrangian(2, jet, hess_qq))


def quadratic_planar():
    """planar_2d(0.3, -0.2) with L = v.Mv/2 + v.Bq - q.Kq/2 for a full,
    non-identity M and a non-symmetric B: constant Hessians hess_vv = M,
    hess_vq = B and hess_qq = -K, none of them the catalog's."""
    M = np.array([[2.0, 0.3], [0.3, 0.7]])
    B = np.array([[0.1, 0.4], [-0.25, 0.3]])
    K = np.array([[1.0, 0.2], [0.2, 1.5]])

    def jet(*x):
        q, v = np.array(x[:2]), np.array(x[2:])
        return (0.5 * float(v @ M @ v) + float(v @ B @ q) - 0.5 * float(q @ K @ q),
                *(B.T @ v - K @ q).tolist(), *(M @ v + B @ q).tolist(), M, B)

    L = ContinuousLagrangian(2, jet, hess_qq=lambda q, v: -K)
    return dataclasses.replace(planar_2d(0.3, -0.2), lagrangian=L)


def hollow(jet):
    """``jet`` returning None in place of its Hessians except at q = v = 0,
    where ``constant_hessians`` reads them once: a consumer that reads the
    jet's Hessians anywhere else fails."""
    def wrapped(*x):
        parts = jet(*x)
        return parts if not any(x) else parts[:-2] + (None, None)
    return wrapped


def harmonic_3d(c=(0.3, -0.2, 0.1)) -> System:
    """The 3-DOF harmonic oscillator with sigma = c . q (linear, so a constant
    Lee form); n = 3 takes the Newton solves past the closed-form 1x1 and 2x2
    paths."""
    chart = _linear_chart(0, [-50.0] * 3, [50.0] * 3, c)
    L, H = _harmonic(3)
    return System(name="harmonic_3d", n=3, atlas=ConformalAtlas(charts=(chart,)),
                  lagrangian=L, hamiltonian=H, start_chart=0, sigma_params=tuple(c))


def rotor_with_transition_jacobian(entry: float, c: float = -0.1) -> System:
    """free_rotor_circle whose transitions all declare the 1x1 Jacobian [[entry]]."""
    system = free_rotor_circle(c)
    transitions = tuple(dataclasses.replace(t, jacobian=lambda q: np.array([[entry]]))
                        for t in system.atlas.transitions)
    return dataclasses.replace(system, atlas=ConformalAtlas(
        charts=system.atlas.charts, transitions=transitions))


# The array coding of the Hamiltonian side's closed-form Jacobians, which the
# library computes on floats; the test references are built on these.

def array_dp_plus_dq1(Ld, q0, q1, s0: float, s1: float, phi1) -> np.ndarray:
    """d p+(q0, q1) / d q1 = exp(s1 - s0) (d2d2 Ld + d2 Ld (x) phi(q1))."""
    return np.exp(s1 - s0) * (np.atleast_2d(Ld.d2d2(q0, q1))
                              + np.outer(as_vector(Ld.d2(q0, q1)), phi1))


def array_dp_minus_dq0(Ld, q0, q1, phi0, hess0) -> np.ndarray:
    """d p-(q0, q1) / d q0 = Hsigma(q0) Ld + phi(q0) (x) d1 Ld - d1d1 Ld."""
    return (hess0 * float(Ld.value(q0, q1)) + np.outer(phi0, as_vector(Ld.d1(q0, q1)))
            - np.atleast_2d(Ld.d1d1(q0, q1)))


def parts_lagrangian(n: int, h: float, value: Callable, d1: Callable, d2: Callable,
                     d1d2: Callable, d1d1: Callable, d2d2: Callable) -> DiscreteLagrangian:
    """A discrete Lagrangian given by its array parts, the coding the
    quadrature rules are checked against.  Its pair jet calls value, d1, d2
    and d1d2 once per pair on fresh arrays, keeping the last pair, and its
    ``same`` calls d1d1 or d2d2 on fresh arrays."""
    parts = (_on_lists(value, np.float64), _on_lists(d1), _on_lists(d2),
             _on_lists(d1d2, as_matrix))
    seconds = (_on_lists(d1d1, as_matrix), _on_lists(d2d2, as_matrix))
    return DiscreteLagrangian(
        n=n, h=h, jet=_pair_memo(lambda q0, q1: tuple(part(q0, q1) for part in parts)),
        same=lambda q0, q1, k: seconds[k](q0, q1), value=value, d1=d1, d2=d2, d1d2=d1d2)


def bare_trajectory(h: float, chart: int, qs) -> DiscreteTrajectory:
    """The points qs on one chart, without momenta or step records."""
    return DiscreteTrajectory(h=h, points=[TrajectoryPoint(k=k, chart=chart, q=as_vector(q))
                                           for k, q in enumerate(qs)])


@dataclasses.dataclass(frozen=True)
class PartsHamiltonian:
    """A discrete Hamiltonian given by its array parts, the coding the built
    ones are checked against.  Its float ``jet`` and ``mixed``, which the
    plain steppers iterate over, call the parts on fresh arrays."""

    n: int
    h: float
    side: str
    value: Callable
    d1: Callable
    d2: Callable
    d1d2: Callable
    source: object = None

    def jet(self, a: list, P: list) -> tuple:
        return (float(self.value(np.array(a), np.array(P))),
                _on_lists(self.d1)(a, P), _on_lists(self.d2)(a, P))

    def mixed(self, a: list, P: list) -> list:
        return _on_lists(self.d1d2, as_matrix)(a, P)


# The float path's bit contract, computed without the float unit or a BLAS:
# IEEE double arithmetic in the order the code states, each operation rounded
# once, to nearest with ties to even.  Finite nonzero results are formed in
# exact rationals and rounded by CPython's int division, which rounds
# correctly; a zero, infinite or NaN input or an exact zero result needs no
# rounding and takes IEEE's value and sign from the float operation.

def _nearest(exact: Fraction) -> float:
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def rounded_mul(a: float, b: float) -> float:
    a, b = float(a), float(b)
    if a and b and math.isfinite(a) and math.isfinite(b):
        return _nearest(Fraction(a) * Fraction(b))
    return a * b


def rounded_add(a: float, b: float) -> float:
    a, b = float(a), float(b)
    if math.isfinite(a) and math.isfinite(b) and a != -b:
        return _nearest(Fraction(a) + Fraction(b))
    return a + b


def rounded_div(a: float, b: float) -> float:
    a, b = float(a), float(b)
    if a and b and math.isfinite(a) and math.isfinite(b):
        return _nearest(Fraction(a) / Fraction(b))
    return a / b


def rounded_dot(x, y) -> float:
    """x @ y summed left to right onto 0.0, each product and sum rounded once."""
    acc = 0.0
    for a, b in zip(x, y, strict=True):
        acc = rounded_add(acc, rounded_mul(a, b))
    return acc


def reference_dot(x, y) -> float:
    """x @ y as the library defines it: :func:`rounded_dot` for at most two
    components, numpy's dot for more."""
    x, y = as_vector(x), as_vector(y)
    return rounded_dot(x.tolist(), y.tolist()) if x.size <= 2 else float(x @ y)


def reference_matvec(M, y) -> np.ndarray:
    """M @ y as the library defines it: a :func:`rounded_dot` per row for at
    most two columns, numpy's matvec for more."""
    M, y = np.atleast_2d(M), as_vector(y)
    if y.size > 2:
        return M @ y
    return np.array([rounded_dot(row, y.tolist()) for row in M.tolist()])


def reference_solve(M, b) -> np.ndarray:
    """M x = b as the library solves a well-conditioned system: one division
    for n = 1, Cramer's rule rounded per operation for n = 2, inv(M) @ b for
    larger n."""
    M, b = np.atleast_2d(M), as_vector(b)
    if b.size == 1:
        return b / M[0, 0]
    if b.size > 2:
        return np.linalg.inv(M) @ b
    (m00, m01), (m10, m11) = M.tolist()
    r0, r1 = b.tolist()

    def cross(w, x, y, z):  # w x - y z
        return rounded_add(rounded_mul(w, x), -rounded_mul(y, z))

    det = cross(m00, m11, m01, m10)
    return np.array([rounded_div(cross(m11, r0, m01, r1), det),
                     rounded_div(cross(m00, r1, m10, r0), det)])


def rotor_with_shifted_chart(c: float = -0.1, shift: float = 0.7) -> System:
    """free_rotor_circle whose second chart's angle is moved down by ``shift``:
    carrying a point into it and back, (theta - shift) + shift, may round, as
    the rotor's own transitions (exact shifts by 0 and 2 pi) never do."""
    quarter = np.pi / 4
    charts = (_linear_chart(0, [-quarter], [5 * quarter], [c]),
              _linear_chart(1, [3 * quarter - shift], [9 * quarter - shift], [c]))

    def move(from_chart, to_chart, lower, upper, by):
        return TransitionMap(from_chart=from_chart, to_chart=to_chart,
                             overlap_lower=[lower], overlap_upper=[upper],
                             forward=lambda q: np.atleast_1d(q) + by,
                             jacobian=lambda q: np.eye(1))

    transitions = (move(0, 1, 3 * quarter, 5 * quarter, -shift),
                   move(1, 0, 3 * quarter - shift, 5 * quarter - shift, shift),
                   move(1, 0, 7 * quarter - shift, 9 * quarter - shift,
                        shift - 2 * np.pi),
                   move(0, 1, -quarter, quarter, 2 * np.pi - shift))
    L, H = _free_particle()
    return System(name="rotor_shifted_chart", n=1,
                  atlas=ConformalAtlas(charts=charts, transitions=transitions),
                  lagrangian=L, hamiltonian=H, start_chart=0, sigma_params=(c,))


@pytest.fixture
def free_line():
    return free_line_system()


@pytest.fixture
def free_line_flat():
    return free_line_system(0.0)


@pytest.fixture
def harmonic():
    return harmonic_1d(0.1)


@pytest.fixture
def harmonic_flat():
    return harmonic_1d(0.0)


@pytest.fixture
def tight_cfg():
    return StepperConfig(tol=1e-12)
