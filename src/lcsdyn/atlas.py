"""Charts, conformal factors and transitions.

A configuration space is covered by box charts, each carrying a scalar conformal
factor sigma(q).  On chart overlaps the conformal factors may only differ by a
constant (the cocycle condition); this is what lets per-chart data glue into
global objects.  The Lee one-form is the gradient of sigma.

The atlas owns the marches' chart-switch rule: a point that leaves its chart's
core (``Chart._core``, the domain shrunk by ``SWITCH_MARGIN`` of its width on
each side) moves across a transition into a chart whose core holds it
(``ConformalAtlas._switch``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError
from .numerics import _nan_max, _of_length, _on_lists, as_matrix, as_vector, solve_linear

Vector = np.ndarray

COCYCLE_TOL = 1e-10
SWITCH_MARGIN = 0.1
_COCYCLE_SAMPLES = 16


@dataclass(frozen=True)
class Chart:
    """A box (or angular-interval) chart with a conformal factor.

    A chart declares its Lee form: a chart whose sigma is affine as
    ``constant_lee`` (n components), which ``grad`` returns a copy of and
    ``hess`` pairs with zeros without calling anything, and which the
    continuous fields and the conformal rules read once; any other chart as
    both ``sigma_grad`` and ``sigma_hess``.  A chart that declares neither
    raises ``ValueError``.  The float steps read sigma and the Lee form
    through ``_floats``, which calls a float kernel that ``sigma`` carries
    (:func:`_float_sigma`) in its place.
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
        if not np.isfinite([self.lower, self.upper]).all():
            raise ValueError(f"chart {self.id}: bounds must be finite")
        if self.constant_lee is not None:
            object.__setattr__(self, "constant_lee", as_vector(self.constant_lee).copy())
            if self.constant_lee.shape != (self.dim,):
                raise ValueError(f"chart {self.id}: constant_lee must have length "
                                 f"{self.dim}")
        if not np.all(self.lower < self.upper):
            raise ValueError(f"chart {self.id}: empty domain (need lower < upper)")
        if self.constant_lee is None and (self.sigma_grad is None
                                          or self.sigma_hess is None):
            raise ValueError(f"chart {self.id}: declare constant_lee, or both "
                             f"sigma_grad and sigma_hess")

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, q: Vector) -> bool:
        """True if q lies in the domain.

        Compared in floats, a coordinate at a time: a march asks with a float
        list, read as it is (any other q goes through :func:`as_vector`); a q
        of the wrong length raises ``ValueError``.
        """
        lower, upper = self._bounds
        return all(lo <= x <= hi for lo, hi, x in zip(
            lower, upper, q if type(q) is list else as_vector(q).tolist(), strict=True))

    @cached_property
    def _bounds(self) -> tuple[list, list]:
        """``lower`` and ``upper`` as float lists, read once per chart."""
        return self.lower.tolist(), self.upper.tolist()

    @cached_property
    def _core(self) -> Callable[[list], bool]:
        """Whether a float list q lies in the domain shrunk by ``SWITCH_MARGIN``
        of its width on each side, with the core bounds formed once per chart."""
        m = SWITCH_MARGIN
        core = [(lo + m * (hi - lo), hi - m * (hi - lo)) for lo, hi in zip(*self._bounds)]
        if len(core) == 1:
            ((a0, b0),) = core
            return lambda q: a0 <= q[0] <= b0
        if len(core) == 2:
            (a0, b0), (a1, b1) = core
            return lambda q: a0 <= q[0] <= b0 and a1 <= q[1] <= b1
        return lambda q: all(a <= x <= b for (a, b), x in zip(core, q))

    @cached_property
    def _lee(self) -> list | None:
        """The declared constant Lee form as one shared float list, or None."""
        return None if self.constant_lee is None else self.constant_lee.tolist()

    def grad(self, q: Vector) -> np.ndarray:
        if self.constant_lee is not None:
            return self.constant_lee.copy()
        return as_vector(self.sigma_grad(as_vector(q)))

    def hess(self, q: Vector) -> np.ndarray:
        if self.constant_lee is not None:
            return np.zeros((self.dim, self.dim))
        return as_matrix(self.sigma_hess(as_vector(q)))

    @cached_property
    def _floats(self) -> tuple:
        """``(sigma, grad, hess)`` of the chart on lists of floats, resolved
        once per chart: a float, a list and a nested list.

        ``sigma`` is ``self.sigma._floats`` when the chart's sigma carries a
        float kernel (:func:`_float_sigma`), and otherwise calls it on a fresh
        array.  A declared constant Lee form and its zero Hessian are read
        here and returned as shared lists, which callers must not change;
        otherwise grad and hess call the chart's own methods on fresh arrays.
        """
        sigma = getattr(self.sigma, "_floats", None)
        if sigma is None:
            def sigma(q) -> float:
                return float(self.sigma(np.array(q)))

        if self._lee is not None:
            lee, zero = self._lee, np.zeros((self.dim, self.dim)).tolist()
            return sigma, lambda q: lee, lambda q: zero
        return sigma, _on_lists(self.grad), _on_lists(self.hess, as_matrix)


def _float_sigma(floats: Callable[[list], float], dim: int) -> Callable[[Vector], float]:
    """The public sigma ``q -> float`` around a float kernel, which it carries
    as ``_floats`` for :attr:`Chart._floats`.

    ``floats`` takes a list of ``dim`` floats; the public function calls it on
    ``as_vector(q).tolist()``, so both give the same bits, and raises
    ``ValueError`` for a q without ``dim`` components.
    """
    def sigma(q: Vector) -> float:
        return floats(_of_length(q, dim, "q").tolist())

    sigma._floats = floats
    return sigma


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
        lo, hi = self.overlap_lower, self.overlap_upper
        name = f"transition {self.from_chart}->{self.to_chart}"
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError(f"{name}: overlap bounds must be vectors of one length")
        if not np.all(lo < hi):
            raise ValueError(f"{name}: empty overlap box")

    def contains(self, q: Vector) -> bool:
        """True if q lies in the overlap box; ``ValueError`` unless q is a
        vector of as many components as the box."""
        q = _of_length(q, self.overlap_lower.size, "q")
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
            if t.overlap_lower.size != self.chart(t.from_chart).dim:
                raise ValueError(f"transition {t.from_chart}->{t.to_chart}: overlap box "
                                 f"of another dimension than chart {t.from_chart}")

    def chart(self, chart_id: int) -> Chart:
        for c in self.charts:
            if c.id == chart_id:
                return c
        raise KeyError(f"unknown chart id {chart_id}")

    def require_inside(self, chart_id: int, q: Vector, name: str = "q") -> Chart:
        """The chart, or, naming q as ``name``, ``ValueError`` unless q is a
        vector of its dimension and ``DomainError`` unless it lies in its domain."""
        c = self.chart(chart_id)
        q = _of_length(q, c.dim, name)
        for i in range(c.dim):
            if not (c.lower[i] <= q[i] <= c.upper[i]):
                raise DomainError(
                    f"coordinate {name}[{i}]={q[i]} outside chart {chart_id} domain "
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

    def _switch(self, chart_id: int, q_curr: list, q_next: list
                ) -> tuple[TransitionMap, list] | None:
        """The first transition from chart ``chart_id`` whose overlap holds both
        float lists q_curr and q_next and which carries q_next into its target's
        core, with q_next carried through it; None if no transition does."""
        for t in self.transitions:
            if t.from_chart != chart_id or not (t.contains(q_next) and t.contains(q_curr)):
                continue
            q_moved = _forward(t, q_next)
            if self.chart(t.to_chart)._core(q_moved):
                return t, q_moved
        return None


def _forward(t: TransitionMap, q: list) -> list:
    """A float list carried through the transition map ``t``, which takes an array."""
    return as_vector(t.forward(np.array(q))).tolist()


def lee_form(atlas: ConformalAtlas, chart: int, q: Vector) -> np.ndarray:
    """Components phi_i = d sigma / d q^i of the Lee one-form on the given chart."""
    c = atlas.require_inside(chart, q)
    return c.grad(q)


def transition_apply(atlas: ConformalAtlas, from_chart: int, to_chart: int,
                     q: Vector, momentum: Vector, momentum_kind: str
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Carry a point and a covector across a declared chart transition.

    Covectors transport through the inverse-transpose Jacobian, solved by
    :func:`solve_linear`: a singular, non-finite or ill-conditioned Jacobian
    raises :class:`RegularityError`.  Local momenta
    (kind ``"r"``) are additionally rescaled by exp(sigma_from(q) - sigma_to(q'))
    so that the corresponding global momentum p = exp(sigma) r is continuous.
    A q or momentum that is not a vector of the from chart's dimension
    raises ``ValueError`` naming it.
    """
    if momentum_kind not in ("r", "p"):
        raise ValueError(f"momentum_kind must be 'r' or 'p', got {momentum_kind!r}")
    q = _of_length(q, atlas.chart(from_chart).dim, "q")
    momentum = _of_length(momentum, q.size, "momentum")
    t = atlas.require_transition(from_chart, to_chart, q)
    q_new = as_vector(t.forward(q))
    p_new = _covector(t, q, momentum)
    if momentum_kind == "r":
        s_from = atlas.chart(from_chart).sigma(q)
        s_to = atlas.chart(to_chart).sigma(q_new)
        p_new = p_new * np.exp(s_from - s_to)
    return q_new, p_new


def _covector(t: TransitionMap, q: Vector, momentum) -> np.ndarray:
    """The covector ``momentum`` at the array q carried through ``t`` (kind
    ``"p"`` of :func:`transition_apply`), without carrying q."""
    return solve_linear(as_matrix(t.jacobian(q)).T, as_vector(momentum))


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
        return _nan_max((e.deviation for e in self.entries), default=0.0)

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
