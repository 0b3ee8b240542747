import dataclasses

import numpy as np
import pytest

from lcsdyn import (Chart, ConformalAtlas, StepperConfig, System,
                    free_rotor_circle, harmonic_1d, planar_2d)
from lcsdyn.continuous import ContinuousLagrangian
from lcsdyn.numerics import as_vector
from lcsdyn.systems import _free_particle, _harmonic, _linear_chart


def free_line_system(c: float = 0.1, box: float = 50.0) -> System:
    """Free particle on an interval with sigma = c q (1 DOF)."""
    chart = Chart(id=0, dim=1, lower=[-box], upper=[box],
                  sigma=lambda q: c * float(np.atleast_1d(q)[0]),
                  sigma_grad=lambda q: np.array([c]),
                  sigma_hess=lambda q: np.zeros((1, 1)))
    L, H = _free_particle(1)
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


def varying_mass():
    """planar_2d with L = mu(q)|v|^2/2 + A(q).v - |q|^2/2, mu = 1 + |q|^2/10 and
    A = (0.3 q1^2, 0.5 q0): hess_vv = mu(q) I and the non-symmetric
    hess_vq = v (x) grad mu + dA vary with the point; hess_qq is analytic."""

    def jet(q, v):
        (q0, q1), (v0, v1) = q, v
        mu, vv = 1.0 + 0.1 * (q0 * q0 + q1 * q1), v0 * v0 + v1 * v1
        value = 0.5 * mu * vv + 0.3 * q1 * q1 * v0 + 0.5 * q0 * v1 \
            - 0.5 * (q0 * q0 + q1 * q1)
        grad_q = [0.1 * vv * q0 + 0.5 * v1 - q0, 0.1 * vv * q1 + 0.6 * q1 * v0 - q1]
        grad_v = [mu * v0 + 0.3 * q1 * q1, mu * v1 + 0.5 * q0]
        hess_vq = np.array([[0.2 * v0 * q0, 0.2 * v0 * q1 + 0.6 * q1],
                            [0.2 * v1 * q0 + 0.5, 0.2 * v1 * q1]])
        return value, grad_q, grad_v, mu * np.eye(2), hess_vq

    def hess_qq(q, v):
        v = as_vector(v)
        return (0.1 * float(v @ v) - 1.0) * np.eye(2) + np.array([[0.0, 0.0],
                                                                  [0.0, 0.6 * v[0]]])

    system = planar_2d(0.3, -0.2)
    return dataclasses.replace(system, lagrangian=ContinuousLagrangian(2, jet, hess_qq))


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
