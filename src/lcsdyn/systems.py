"""Built-in system catalog: desk-scale mechanical systems with conformal factors.

``harmonic_1d``   Q = R,   L = v^2/2 - q^2/2,  H = p^2/2 + q^2/2,  sigma = c q.
``planar_2d``     Q = R^2, L = |v|^2/2 - |q|^2/2,                  sigma = c1 q1 + c2 q2.
``free_rotor_circle``  Q = S^1, L = v^2/2, two overlapping angle charts with
    sigma = c * theta in each chart's own angle branch; the one-form c d(theta)
    is closed but not exact on the circle, so the two factors differ by the
    constant 2 pi c on the wrap-around overlap (the cocycle condition).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atlas import Chart, ConformalAtlas, TransitionMap
from .continuous import ContinuousHamiltonian, ContinuousLagrangian

_BOX = 50.0


@dataclass(frozen=True)
class System:
    """A catalog entry: atlas plus global Lagrangian/Hamiltonian definitions."""

    name: str
    n: int
    atlas: ConformalAtlas
    lagrangian: ContinuousLagrangian
    hamiltonian: ContinuousHamiltonian
    start_chart: int
    sigma_params: tuple[float, ...]


def _mechanical(n: int, grad_V, V, hess_V):
    """Kinetic-minus-potential Lagrangian and its Hamiltonian twin."""
    eye = np.eye(n)
    zeros = np.zeros((n, n))
    L = ContinuousLagrangian(
        n=n,
        value=lambda q, v: 0.5 * float(v @ v) - V(q),
        grad_q=lambda q, v: -grad_V(q),
        grad_v=lambda q, v: np.array(v, dtype=float),
        hess_vv=lambda q, v: eye,
        hess_vq=lambda q, v: zeros,
        hess_qq=lambda q, v: -hess_V(q),
    )
    H = ContinuousHamiltonian(
        n=n,
        value=lambda q, p: 0.5 * float(p @ p) + V(q),
        grad_q=lambda q, p: grad_V(q),
        grad_p=lambda q, p: np.array(p, dtype=float),
    )
    return L, H


def _linear_sigma(coeffs: np.ndarray):
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.size
    return (lambda q: float(coeffs @ np.atleast_1d(q)),
            lambda q: coeffs.copy(),
            lambda q: np.zeros((n, n)))


def harmonic_1d(c: float = 0.1) -> System:
    sigma, sigma_grad, sigma_hess = _linear_sigma([c])
    chart = Chart(id=0, dim=1, lower=[-_BOX], upper=[_BOX],
                  sigma=sigma, sigma_grad=sigma_grad, sigma_hess=sigma_hess)
    L, H = _mechanical(
        1,
        V=lambda q: 0.5 * float(q @ q),
        grad_V=lambda q: np.array(q, dtype=float, ndmin=1),
        hess_V=lambda q: np.eye(1),
    )
    return System(name="harmonic_1d", n=1, atlas=ConformalAtlas(charts=(chart,)),
                  lagrangian=L, hamiltonian=H, start_chart=0, sigma_params=(c,))


def planar_2d(c1: float = 0.3, c2: float = 0.1) -> System:
    sigma, sigma_grad, sigma_hess = _linear_sigma([c1, c2])
    chart = Chart(id=0, dim=2, lower=[-_BOX, -_BOX], upper=[_BOX, _BOX],
                  sigma=sigma, sigma_grad=sigma_grad, sigma_hess=sigma_hess)
    L, H = _mechanical(
        2,
        V=lambda q: 0.5 * float(q @ q),
        grad_V=lambda q: np.array(q, dtype=float),
        hess_V=lambda q: np.eye(2),
    )
    return System(name="planar_2d", n=2, atlas=ConformalAtlas(charts=(chart,)),
                  lagrangian=L, hamiltonian=H, start_chart=0,
                  sigma_params=(c1, c2))


def _free_particle(n: int):
    return _mechanical(n,
                       V=lambda q: 0.0,
                       grad_V=lambda q: np.zeros(n),
                       hess_V=lambda q: np.zeros((n, n)))


def _rotor_charts(c: float) -> tuple[Chart, Chart]:
    sigma, sigma_grad, sigma_hess = _linear_sigma([c])
    chart1 = Chart(id=0, dim=1, lower=[-np.pi / 4], upper=[5 * np.pi / 4],
                   sigma=sigma, sigma_grad=sigma_grad, sigma_hess=sigma_hess,
                   periodic=(True,))
    chart2 = Chart(id=1, dim=1, lower=[3 * np.pi / 4], upper=[9 * np.pi / 4],
                   sigma=sigma, sigma_grad=sigma_grad, sigma_hess=sigma_hess,
                   periodic=(True,))
    return chart1, chart2


def free_rotor_circle(c: float = 0.1) -> System:
    """Free rotation on the circle, covered by two angle charts.

    The direct overlap (3pi/4, 5pi/4) uses the identity transition; the
    wrap-around overlap identifies theta in chart 1 with theta + 2pi in
    chart 2.
    """
    chart1, chart2 = _rotor_charts(c)
    ident = lambda q: np.array(q, dtype=float, ndmin=1)
    one = lambda q: np.eye(1)
    transitions = (
        TransitionMap(from_chart=0, to_chart=1,
                      overlap_lower=[3 * np.pi / 4], overlap_upper=[5 * np.pi / 4],
                      forward=ident, jacobian=one),
        TransitionMap(from_chart=1, to_chart=0,
                      overlap_lower=[3 * np.pi / 4], overlap_upper=[5 * np.pi / 4],
                      forward=ident, jacobian=one),
        TransitionMap(from_chart=1, to_chart=0,
                      overlap_lower=[7 * np.pi / 4], overlap_upper=[9 * np.pi / 4],
                      forward=lambda q: np.atleast_1d(q) - 2 * np.pi, jacobian=one),
        TransitionMap(from_chart=0, to_chart=1,
                      overlap_lower=[-np.pi / 4], overlap_upper=[np.pi / 4],
                      forward=lambda q: np.atleast_1d(q) + 2 * np.pi, jacobian=one),
    )
    L, H = _free_particle(1)
    atlas = ConformalAtlas(charts=(chart1, chart2), transitions=transitions)
    return System(name="free_rotor_circle", n=1, atlas=atlas, lagrangian=L,
                  hamiltonian=H, start_chart=0, sigma_params=(c,))


def rotor_extended_chart(c: float = 0.1) -> System:
    """The rotor unrolled onto a single chart (-pi/4, 9pi/4), for cross-checks."""
    sigma, sigma_grad, sigma_hess = _linear_sigma([c])
    chart = Chart(id=0, dim=1, lower=[-np.pi / 4], upper=[9 * np.pi / 4],
                  sigma=sigma, sigma_grad=sigma_grad, sigma_hess=sigma_hess,
                  periodic=(True,))
    L, H = _free_particle(1)
    return System(name="rotor_extended_chart", n=1,
                  atlas=ConformalAtlas(charts=(chart,)), lagrangian=L,
                  hamiltonian=H, start_chart=0, sigma_params=(c,))


CATALOG = {
    "harmonic_1d": harmonic_1d,
    "planar_2d": planar_2d,
    "free_rotor_circle": free_rotor_circle,
}

DEFAULT_SIGMA_PARAMS = {
    "harmonic_1d": (0.1,),
    "planar_2d": (0.3, 0.1),
    "free_rotor_circle": (0.1,),
}


def get_system(name: str, sigma_params=None) -> System:
    if name not in CATALOG:
        raise KeyError(f"unknown system {name!r}; available: {sorted(CATALOG)}")
    params = tuple(sigma_params) if sigma_params is not None \
        else DEFAULT_SIGMA_PARAMS[name]
    return CATALOG[name](*params)


def with_constant_sigma(system: System, value: float = 0.0) -> System:
    """The same system with every chart's conformal factor frozen to a constant."""
    charts = tuple(
        Chart(id=c.id, dim=c.dim, lower=c.lower, upper=c.upper,
              sigma=lambda q, _v=value: _v,
              sigma_grad=lambda q, _n=c.dim: np.zeros(_n),
              sigma_hess=lambda q, _n=c.dim: np.zeros((_n, _n)),
              periodic=c.periodic)
        for c in system.atlas.charts)
    atlas = ConformalAtlas(charts=charts, transitions=system.atlas.transitions)
    return System(name=system.name, n=system.n, atlas=atlas,
                  lagrangian=system.lagrangian, hamiltonian=system.hamiltonian,
                  start_chart=system.start_chart, sigma_params=())
