"""Built-in system catalog: desk-scale mechanical systems with conformal factors.

``harmonic_1d``   Q = R,   L = v^2/2 - q^2/2,  H = p^2/2 + q^2/2,  sigma = c q.
``planar_2d``     Q = R^2, L = |v|^2/2 - |q|^2/2,                  sigma = c1 q1 + c2 q2.
``free_rotor_circle``  Q = S^1, L = v^2/2, two overlapping angle charts with
    sigma = c * theta in each chart's own angle branch; the one-form c d(theta)
    is closed but not exact on the circle, so the two factors differ by the
    constant 2 pi c on the wrap-around overlap (the cocycle condition).

Each system is written once, as flat float jets on the 2n coordinates (see
``ContinuousLagrangian``): a Lagrangian jet and, coded separately so that the
Lagrangian and Hamiltonian flows stay independent checks of each other, a
Hamiltonian jet.  The constant velocity Hessians are read-only identity and
zero arrays that the jets return as they are.  Every Lagrangian is
quadratic, so each declares ``constant_hessians`` and has its three Hessians
read once, from its jet and ``hess_qq`` at q = v = 0.
Every sigma is linear in the chart coordinates, so every chart declares its
constant Lee form; the sigma itself is written once, on float lists, as
``numerics._dot(lee, q)`` (for n = 1 the ``0.0 + c q`` of numpy's one-element
dot), and ``Chart.sigma`` is that kernel on ``as_vector(q).tolist()``
(``atlas._float_sigma``), as is ``with_constant_sigma``'s constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .atlas import Chart, ConformalAtlas, TransitionMap, _float_sigma
from .continuous import ContinuousHamiltonian, ContinuousLagrangian
from .numerics import _dot

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


def _sq(x: list) -> float:
    """x . x, summed left to right from 0.0 (for n = 1, numpy's rounding)."""
    total = 0.0
    for a in x:
        total += a * a
    return total


def _mechanical(n: int, V, grad_V, hess_V: np.ndarray):
    """L = |v|^2/2 - V(q) and its Hamiltonian twin H = |p|^2/2 + V(q).

    ``V`` and ``grad_V`` take a sequence of n floats and return a float and
    a sequence; ``hess_V`` is the constant Hessian of V.
    """
    eye, zeros = _unit_hessians(n)

    def L_jet(*x):
        q, v = x[:n], x[n:]
        return (0.5 * _sq(v) - V(q), *(-g for g in grad_V(q)), *v, eye, zeros)

    def H_jet(*x):
        q, p = x[:n], x[n:]
        return (0.5 * _sq(p) + V(q), *grad_V(q), *p)

    return _pair(n, L_jet, H_jet, -hess_V)


def _unit_hessians(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, n) identity and zero arrays: the velocity Hessians
    hess_vv and hess_vq that every catalog Lagrangian jet returns."""
    eye, zeros = np.eye(n), np.zeros((n, n))
    eye.setflags(write=False)
    zeros.setflags(write=False)
    return eye, zeros


def _pair(n: int, L_jet, H_jet, hess_qq: np.ndarray):
    """The Lagrangian and Hamiltonian of one system, from their two jets; the
    Lagrangian's constant position Hessian is ``hess_qq``, handed out as copies."""
    return (ContinuousLagrangian(n, L_jet, lambda q, v: hess_qq.copy(),
                                 constant_hessians=True),
            ContinuousHamiltonian(n, H_jet))


# The n = 1 and n = 2 jets below are those cases of _mechanical written on
# unpacked scalars, rounded as _sq rounds (0.0 + a*a, then + b*b): an RK4
# reference step calls one four times.

def _harmonic(n: int):
    if n > 2:
        return _mechanical(n, V=lambda q: 0.5 * _sq(q), grad_V=list, hess_V=np.eye(n))
    eye, zeros = _unit_hessians(n)
    if n == 2:
        def L_jet(x, y, u, w):
            return (0.5 * ((0.0 + u * u) + w * w) - 0.5 * ((0.0 + x * x) + y * y),
                    -x, -y, u, w, eye, zeros)

        def H_jet(x, y, u, w):
            return (0.5 * ((0.0 + u * u) + w * w) + 0.5 * ((0.0 + x * x) + y * y),
                    x, y, u, w)

        return _pair(2, L_jet, H_jet, -eye)

    def L_jet(x, w):
        return 0.5 * (0.0 + w * w) - 0.5 * (0.0 + x * x), -x, w, eye, zeros

    def H_jet(x, w):
        return 0.5 * (0.0 + w * w) + 0.5 * (0.0 + x * x), x, w

    return _pair(1, L_jet, H_jet, -eye)


def _free_particle():
    """The one-dimensional free particle, V = 0: L's grad_q and hess_qq are -0.0,
    as -grad_V and -hess_V are in _mechanical."""
    eye, zeros = _unit_hessians(1)

    def L_jet(q, w):
        return 0.5 * (0.0 + w * w), -0.0, w, eye, zeros

    def H_jet(q, w):
        return 0.5 * (0.0 + w * w), 0.0, w

    return _pair(1, L_jet, H_jet, -np.zeros((1, 1)))


def _linear_chart(id: int, lower, upper, coeffs) -> Chart:
    """A box chart with sigma = coeffs . q, on floats, and so the constant Lee
    form coeffs."""
    coeffs = np.asarray(coeffs, dtype=float)
    sigma_floats = partial(_dot, coeffs.tolist())
    return Chart(id=id, dim=coeffs.size, lower=lower, upper=upper,
                 sigma=_float_sigma(sigma_floats, coeffs.size), constant_lee=coeffs)


def harmonic_1d(c: float = 0.1) -> System:
    chart = _linear_chart(0, [-_BOX], [_BOX], [c])
    L, H = _harmonic(1)
    return System(name="harmonic_1d", n=1, atlas=ConformalAtlas(charts=(chart,)),
                  lagrangian=L, hamiltonian=H, start_chart=0, sigma_params=(c,))


def planar_2d(c1: float = 0.3, c2: float = 0.1) -> System:
    chart = _linear_chart(0, [-_BOX, -_BOX], [_BOX, _BOX], [c1, c2])
    L, H = _harmonic(2)
    return System(name="planar_2d", n=2, atlas=ConformalAtlas(charts=(chart,)),
                  lagrangian=L, hamiltonian=H, start_chart=0,
                  sigma_params=(c1, c2))


def free_rotor_circle(c: float = 0.1) -> System:
    """Free rotation on the circle, covered by two angle charts.

    The direct overlap (3pi/4, 5pi/4) uses the identity transition; the
    wrap-around overlap identifies theta in chart 1 with theta + 2pi in
    chart 2.
    """
    chart1 = _linear_chart(0, [-np.pi / 4], [5 * np.pi / 4], [c])
    chart2 = _linear_chart(1, [3 * np.pi / 4], [9 * np.pi / 4], [c])
    def shift(from_chart, to_chart, lower, upper, by):
        return TransitionMap(from_chart=from_chart, to_chart=to_chart,
                             overlap_lower=[lower], overlap_upper=[upper],
                             forward=lambda q: np.atleast_1d(q) + by,
                             jacobian=lambda q: np.eye(1))

    transitions = (shift(0, 1, 3 * np.pi / 4, 5 * np.pi / 4, 0.0),
                   shift(1, 0, 3 * np.pi / 4, 5 * np.pi / 4, 0.0),
                   shift(1, 0, 7 * np.pi / 4, 9 * np.pi / 4, -2 * np.pi),
                   shift(0, 1, -np.pi / 4, np.pi / 4, 2 * np.pi))
    L, H = _free_particle()
    atlas = ConformalAtlas(charts=(chart1, chart2), transitions=transitions)
    return System(name="free_rotor_circle", n=1, atlas=atlas, lagrangian=L,
                  hamiltonian=H, start_chart=0, sigma_params=(c,))


def rotor_extended_chart(c: float = 0.1) -> System:
    """The rotor unrolled onto a single chart (-pi/4, 9pi/4), for cross-checks."""
    chart = _linear_chart(0, [-np.pi / 4], [9 * np.pi / 4], [c])
    L, H = _free_particle()
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
    """The same system with every chart's conformal factor frozen to a constant,
    ``float(value)``, with a float kernel like the catalog's."""
    value = float(value)
    charts = tuple(replace(c, sigma=_float_sigma(lambda q: value, c.dim), sigma_grad=None,
                           sigma_hess=None, constant_lee=np.zeros(c.dim))
                   for c in system.atlas.charts)
    atlas = ConformalAtlas(charts=charts, transitions=system.atlas.transitions)
    return System(name=system.name, n=system.n, atlas=atlas,
                  lagrangian=system.lagrangian, hamiltonian=system.hamiltonian,
                  start_chart=system.start_chart, sigma_params=())
