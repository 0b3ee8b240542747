"""Machine-speed probe that turns measured seconds into reference seconds.

The CPU this benchmark runs on is shared: over minutes the same code runs up to
twice as slow and back, so raw wall times of identical passes spread far more
than any bound a regression test could use.  The probe is a fixed kernel with
the same kind of work as lcsdyn's hot paths (Python calls on 4-vectors, numpy
small-array arithmetic, concatenation and a 2x2 solve).  A run interleaves
probes with its timed work (one before each pass and one after each task) and
reports

    reference seconds = measured seconds * REFERENCE_PROBE_S / geometric mean of probe seconds,

the time at the speed at which the probe takes ``REFERENCE_PROBE_S``, close to
the fastest the probe ran on the machine of the first baseline (2 vCPUs, Intel
Xeon, Python 3.11.7, numpy 2.4.6).  The probe never touches lcsdyn, so a
faster program gives smaller reference seconds.  Measured seconds are printed
alongside.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_PROBE_S = 0.040
_STEPS = 1000


def _field(x: np.ndarray) -> np.ndarray:
    q, v = x[:2], x[2:]
    acc = -q + 0.1 * float(v @ v) * np.array([0.3, 0.1]) - 0.05 * float(q @ q) * v
    return np.concatenate([v, acc])


def _kernel() -> float:
    h = 1e-3
    x = np.array([1.0, 0.5, 0.0, 0.2])
    M = np.array([[2.0, 0.1], [0.1, 1.0]])
    for _ in range(_STEPS):
        k1 = _field(x)
        k2 = _field(x + 0.5 * h * k1)
        k3 = _field(x + 0.5 * h * k2)
        k4 = _field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        dx = np.linalg.solve(M, -x[:2])
        if not float(np.max(np.abs(dx))) < 1e6:
            raise RuntimeError("probe diverged")
    return float(x[0])


def probe() -> float:
    """Seconds one run of the fixed kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def to_reference(seconds: float, probes: list[float]) -> float:
    """``seconds`` measured while the probe took ``probes``.

    The probes' geometric mean averages the machine's speed over the run; a
    median would snap to whichever of the slow and fast spells was longer.
    """
    return seconds * REFERENCE_PROBE_S / statistics.geometric_mean(probes)
