"""Lattice trajectory container shared by the Lagrangian and Hamiltonian marchers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import _rows


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


class _MarchRecord:
    """What the steps of an ``integrate`` march read at their solved pairs,
    kept for the momentum fill: one preallocated row of floats per step.

    For the pair (k, k + 1), k >= 1, the step to point k + 1 stores sigma(q_k),
    p-(q_k, q_{k+1}), p+(q_k, q_{k+1}) and sigma(q_{k+1}) (0.0, -d1 Ld, d2 Ld
    and 0.0 for the plain recursion) in row k - 1, all on the chart it was
    posed on, so only sigma(q_k) is sure to hold on q_k's own chart.
    """

    def __init__(self, n: int, steps: int):
        self.n, self.rows = n, _rows(steps, 2 * n + 2)
        # element stores into the rows, without an array per step
        self._flat, self._end = memoryview(self.rows).cast("B").cast("d"), 0

    def add(self, s0: float, p_minus, p_plus, s1: float) -> None:
        i, flat = self._end, self._flat
        for x in (s0, *p_minus, *p_plus, s1):
            flat[i] = x
            i += 1
        self._end = i

    def momenta(self, k: int) -> tuple[list, list]:
        """p-(q_k, q_{k+1}) and p+(q_k, q_{k+1})."""
        n, row = self.n, self.rows[k - 1].tolist()
        return row[1:n + 1], row[n + 1:2 * n + 1]

    def sigmas(self) -> list[float]:
        """sigma(q_k) for k = 1, ..., N, the last from the last pair."""
        return self.rows[:, 0].tolist() + [float(self.rows[-1, -1])]


@dataclass
class DiscreteTrajectory:
    h: float
    points: list[TrajectoryPoint] = field(default_factory=list)
    steps: list[StepRecord] = field(default_factory=list)
    # set by a completed ``integrate`` march for the momentum fill it runs
    # next, which consumes it
    _march_record: _MarchRecord | None = field(default=None, init=False, repr=False,
                                               compare=False)

    def __len__(self) -> int:
        return len(self.points)

    def charts(self) -> list[int]:
        return [pt.chart for pt in self.points]

    def n_switches(self) -> int:
        return sum(1 for s in self.steps if s.switched)
