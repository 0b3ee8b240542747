"""Lattice trajectory container shared by the Lagrangian and Hamiltonian marchers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import as_vector


@dataclass
class TrajectoryPoint:
    k: int
    chart: int
    q: np.ndarray
    p: np.ndarray | None = None
    r: np.ndarray | None = None


@dataclass
class StepRecord:
    """Newton diagnostics for the step that produced point ``k``."""

    k: int
    iterations: int
    residual: float
    switched: bool = False


@dataclass
class DiscreteTrajectory:
    h: float
    points: list[TrajectoryPoint] = field(default_factory=list)
    steps: list[StepRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    def charts(self) -> list[int]:
        return [pt.chart for pt in self.points]

    def n_switches(self) -> int:
        return sum(1 for s in self.steps if s.switched)

    @classmethod
    def from_points(cls, h: float, chart: int, qs) -> "DiscreteTrajectory":
        """Build a bare trajectory (no momenta, no diagnostics) on a single chart."""
        pts = [TrajectoryPoint(k=k, chart=chart, q=as_vector(q))
               for k, q in enumerate(qs)]
        return cls(h=h, points=pts)
