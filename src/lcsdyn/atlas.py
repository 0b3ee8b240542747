r"""Charts, conformal factors, transitions, and the pointwise conformal-symplectic data.

A configuration space is covered by box charts, each carrying a scalar conformal
factor sigma(q).  On chart overlaps the conformal factors may only differ by a
constant (the cocycle condition); this is what lets per-chart data glue into
global objects.  The Lee one-form is the gradient of sigma, and the conformal
two-form in Darboux coordinates (q, p) is

    dq^i /\ dp_i + (1/2) A_ij dq^i /\ dq^j,   A_ij = phi_i p_j - phi_j p_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .numerics import as_vector, fd_jacobian, solve_linear

Vector = np.ndarray

COCYCLE_TOL = 1e-10
_FD_SIGMA_EPS = 1e-6
_COCYCLE_SAMPLES = 16


@dataclass(frozen=True)
class Chart:
    """A box (or angular-interval) chart with a conformal factor.

    ``sigma_grad`` and ``sigma_hess`` may be omitted; central finite-difference
    fallbacks are used.  A chart whose sigma is affine may instead declare its
    Lee form as ``constant_lee`` (n components): ``grad`` then returns a copy
    of it and ``hess`` zeros without calling anything, and the continuous
    fields read it once.
    """

    id: int
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    sigma: Callable[[Vector], float]
    sigma_grad: Callable[[Vector], Vector] | None = None
    sigma_hess: Callable[[Vector], np.ndarray] | None = None
    constant_lee: Vector | None = None

    def __post_init__(self):
        object.__setattr__(self, "lower", as_vector(self.lower))
        object.__setattr__(self, "upper", as_vector(self.upper))
        if self.lower.size != self.dim or self.upper.size != self.dim:
            raise ValueError(f"chart {self.id}: bounds must have length {self.dim}")
        if self.constant_lee is not None:
            object.__setattr__(self, "constant_lee", as_vector(self.constant_lee).copy())
            if self.constant_lee.shape != (self.dim,):
                raise ValueError(f"chart {self.id}: constant_lee must have length "
                                 f"{self.dim}")
        if not np.all(self.lower < self.upper):
            raise ValueError(f"chart {self.id}: empty domain (need lower < upper)")

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, q: Vector, margin: float = 0.0) -> bool:
        """True if q lies in the domain shrunk on each side by margin*width.

        Compared in floats, a coordinate at a time: every step of a march asks.
        """
        return all(lo + margin * (hi - lo) <= x <= hi - margin * (hi - lo)
                   for lo, hi, x in zip(self.lower.tolist(), self.upper.tolist(),
                                        as_vector(q).tolist(), strict=True))

    def grad(self, q: Vector) -> np.ndarray:
        if self.constant_lee is not None:
            return self.constant_lee.copy()
        if self.sigma_grad is not None:
            return as_vector(self.sigma_grad(as_vector(q)))
        return fd_jacobian(self.sigma, as_vector(q), _FD_SIGMA_EPS)

    def hess(self, q: Vector) -> np.ndarray:
        if self.constant_lee is not None:
            return np.zeros((self.dim, self.dim))
        if self.sigma_hess is not None:
            return np.atleast_2d(np.asarray(self.sigma_hess(as_vector(q)), dtype=float))
        return fd_jacobian(self.grad, as_vector(q), _FD_SIGMA_EPS)


def _chart_floats(ch: Chart):
    """``(sigma, grad, hess)`` of a chart on lists of floats.

    ``sigma(q)`` is a float, ``grad(q)`` a list and ``hess(q)`` a nested list.
    Each calls the chart's own method on a fresh array, so sigma keeps its
    array contract; a declared constant Lee form and its zero Hessian are
    read once and returned as shared lists, which callers must not change.
    """
    def sigma(q) -> float:
        return float(ch.sigma(np.array(q)))

    if ch.constant_lee is not None:
        lee, zero = ch.constant_lee.tolist(), np.zeros((ch.dim, ch.dim)).tolist()
        return sigma, lambda q: lee, lambda q: zero
    return (sigma, lambda q: ch.grad(np.array(q)).tolist(),
            lambda q: ch.hess(np.array(q)).tolist())


@dataclass(frozen=True)
class TransitionMap:
    """Coordinate change between two overlapping charts.

    ``overlap_lower/upper`` delimit the overlap box in from-chart coordinates,
    ``forward`` maps from-chart coordinates to to-chart coordinates and
    ``jacobian`` is its derivative matrix.
    """

    from_chart: int
    to_chart: int
    overlap_lower: np.ndarray
    overlap_upper: np.ndarray
    forward: Callable[[Vector], Vector]
    jacobian: Callable[[Vector], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "overlap_lower", as_vector(self.overlap_lower))
        object.__setattr__(self, "overlap_upper", as_vector(self.overlap_upper))
        if not np.all(self.overlap_lower < self.overlap_upper):
            raise ValueError("transition: empty overlap box")

    def contains(self, q: Vector) -> bool:
        q = as_vector(q)
        return bool(np.all(q >= self.overlap_lower) and np.all(q <= self.overlap_upper))


@dataclass(frozen=True)
class ConformalAtlas:
    """An immutable collection of charts plus declared transitions."""

    charts: tuple[Chart, ...]
    transitions: tuple[TransitionMap, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "charts", tuple(self.charts))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        ids = [c.id for c in self.charts]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate chart ids")
        for t in self.transitions:
            if t.from_chart not in ids or t.to_chart not in ids:
                raise ValueError(f"transition references unknown chart "
                                 f"{t.from_chart}->{t.to_chart}")

    @property
    def dim(self) -> int:
        return self.charts[0].dim

    def chart(self, chart_id: int) -> Chart:
        for c in self.charts:
            if c.id == chart_id:
                return c
        raise KeyError(f"unknown chart id {chart_id}")

    def require_inside(self, chart_id: int, q: Vector) -> Chart:
        c = self.chart(chart_id)
        q = as_vector(q)
        for i in range(c.dim):
            if not (c.lower[i] <= q[i] <= c.upper[i]):
                raise DomainError(
                    f"coordinate q[{i}]={q[i]} outside chart {chart_id} domain "
                    f"[{c.lower[i]}, {c.upper[i]}]")
        return c

    def find_transition(self, from_chart: int, to_chart: int, q: Vector
                        ) -> TransitionMap | None:
        for t in self.transitions:
            if t.from_chart == from_chart and t.to_chart == to_chart and t.contains(q):
                return t
        return None

    def require_transition(self, from_chart: int, to_chart: int, q: Vector
                           ) -> TransitionMap:
        """The declared transition from one chart to another whose overlap holds q."""
        t = self.find_transition(from_chart, to_chart, q)
        if t is None:
            raise DomainError(f"no transition carries {q} from chart {from_chart} "
                              f"to chart {to_chart}")
        return t


def lee_form(atlas: ConformalAtlas, chart: int, q: Vector) -> np.ndarray:
    """Components phi_i = d sigma / d q^i of the Lee one-form on the given chart."""
    c = atlas.require_inside(chart, q)
    return c.grad(q)


def a_matrix(phi: Vector, p: Vector) -> np.ndarray:
    """Antisymmetric pairing A_ij = phi_i p_j - phi_j p_i of a one-form and a momentum."""
    phi = as_vector(phi)
    p = as_vector(p)
    if phi.size != p.size:
        raise ValueError(f"length mismatch: phi has {phi.size}, p has {p.size}")
    return np.outer(phi, p) - np.outer(p, phi)


def lcs_two_form_matrix(atlas: ConformalAtlas, chart: int, q: Vector, p: Vector
                        ) -> np.ndarray:
    """Matrix of the conformal two-form in the ordered basis (dq^1..dq^n, dp_1..dp_n).

    Block form [[A, I], [-I, 0]]; its determinant is 1 for every A.
    """
    phi = lee_form(atlas, chart, q)
    n = phi.size
    A = a_matrix(phi, p)
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = A
    out[:n, n:] = np.eye(n)
    out[n:, :n] = -np.eye(n)
    return out


def transition_apply(atlas: ConformalAtlas, from_chart: int, to_chart: int,
                     q: Vector, momentum: Vector, momentum_kind: str
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Carry a point and a covector across a declared chart transition.

    Covectors transport through the inverse-transpose Jacobian, solved by
    :func:`solve_linear`: a singular, non-finite or ill-conditioned Jacobian
    raises :class:`RegularityError`.  Local momenta
    (kind ``"r"``) are additionally rescaled by exp(sigma_from(q) - sigma_to(q'))
    so that the corresponding global momentum p = exp(sigma) r is continuous.
    """
    if momentum_kind not in ("r", "p"):
        raise ValueError(f"momentum_kind must be 'r' or 'p', got {momentum_kind!r}")
    q = as_vector(q)
    t = atlas.require_transition(from_chart, to_chart, q)
    q_new = as_vector(t.forward(q))
    J = np.atleast_2d(np.asarray(t.jacobian(q), dtype=float))
    p_new = solve_linear(J.T, as_vector(momentum))
    if momentum_kind == "r":
        s_from = atlas.chart(from_chart).sigma(q)
        s_to = atlas.chart(to_chart).sigma(q_new)
        p_new = p_new * np.exp(s_from - s_to)
    return q_new, p_new


@dataclass(frozen=True)
class OverlapCocycle:
    from_chart: int
    to_chart: int
    n_samples: int
    mean_offset: float
    deviation: float

    @property
    def passed(self) -> bool:
        return self.deviation <= COCYCLE_TOL


@dataclass(frozen=True)
class CocycleReport:
    entries: tuple[OverlapCocycle, ...] = field(default_factory=tuple)

    @property
    def max_deviation(self) -> float:
        return max((e.deviation for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def cocycle_check(atlas: ConformalAtlas) -> CocycleReport:
    """Check that sigma_from - sigma_to(forward(q)) is constant on each overlap.

    Samples 16 points per overlap (15 seeded random ones and the overlap's
    center) and reports the maximum deviation from the per-overlap mean; an
    overlap passes when the deviation is <= 1e-10.
    """
    rng = np.random.default_rng(0)
    entries = []
    for t in atlas.transitions:
        lo, hi = t.overlap_lower, t.overlap_upper
        pts = lo + (hi - lo) * rng.random((_COCYCLE_SAMPLES - 1, lo.size))
        pts = np.vstack([pts, 0.5 * (lo + hi)])
        s_from = atlas.chart(t.from_chart).sigma
        s_to = atlas.chart(t.to_chart).sigma
        offsets = np.array([s_from(q) - s_to(as_vector(t.forward(q))) for q in pts])
        mean = float(np.mean(offsets))
        entries.append(OverlapCocycle(
            from_chart=t.from_chart, to_chart=t.to_chart, n_samples=_COCYCLE_SAMPLES,
            mean_offset=mean, deviation=float(np.max(np.abs(offsets - mean)))))
    return CocycleReport(entries=tuple(entries))
