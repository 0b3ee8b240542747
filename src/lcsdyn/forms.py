r"""Two-point Poincare-Cartan forms and the conformal two-form condition.

On the doubled space with coordinates (q0, q1) the one-forms are
theta+ = d2 Ld dq1 and theta- = -d1 Ld dq0; both have the same negative
exterior derivative, the two-form with (q0, q1) block -d1d2 Ld.  Its conformal
companion adds the rank-one coupling phi(q0) (x) d2 Ld.  The conformal
condition  d omega = phi /\ omega  is verified numerically: all independent
three-form components of d omega are finite-differenced and compared against
the combinatorially assembled wedge product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .atlas import ConformalAtlas
from .discretize import DiscreteLagrangian
from .numerics import as_vector, fd_jacobian
from .variational import _dp_minus_dq1

Vector = np.ndarray

_LCS_FD_EPS = 1e-4
_LCS_TOL_FACTOR = 1e-4

@dataclass(frozen=True)
class TwoFormField:
    """A two-form on the doubled space, coordinates ordered (q0, q1).

    ``components(q0, q1)`` returns the antisymmetric coefficient matrix in that
    basis.
    """

    dim: int
    components: Callable[[Vector, Vector], np.ndarray]

    def matrix(self, x: Vector) -> np.ndarray:
        x = as_vector(x)
        n = self.dim // 2
        return self.components(x[:n], x[n:])


def _block(M: np.ndarray) -> np.ndarray:
    n = M.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = M
    out[n:, :n] = -M.T
    return out


def lc_pc_two_form(Ld: DiscreteLagrangian, atlas: ConformalAtlas, chart: int
                   ) -> TwoFormField:
    """Conformal two-form: (q0, q1) block -d1d2 Ld + phi(q0) (x) d2 Ld = dp-/dq1.

    On a chart with a zero Lee form this is the plain form, block -d1d2 Ld.

    The (q1, q1) block vanishes by symmetry of second partials, so the matrix
    keeps the same off-diagonal block structure as the plain form.
    """
    ch = atlas.chart(chart)

    def components(q0, q1):
        q0 = as_vector(q0)
        _, _, d2, d1d2 = Ld.jet(q0.tolist(), as_vector(q1).tolist())
        return _block(np.array(_dp_minus_dq1(ch.grad(q0).tolist(), d2, d1d2)))

    return TwoFormField(dim=2 * Ld.n, components=components)


@dataclass(frozen=True)
class LcsConditionReport:
    passed: bool
    max_deviation: float
    tolerance: float
    deviations: tuple[float, ...] = ()
    note: str = ""


def lcs_condition_check(form: TwoFormField, lee: Callable[[Vector], Vector],
                        sample_points: Sequence[Vector]) -> LcsConditionReport:
    """Check d omega = phi /\\ omega at the sample points by finite differences.

    ``lee`` maps q0 to the one-form components on the q0 block (zero on the q1
    block).  Three-forms are handled on strictly increasing coordinate triples.
    For dim < 4 every three-form vanishes identically and the check passes
    trivially.
    """
    dim = form.dim
    if dim < 4:
        return LcsConditionReport(
            passed=True, max_deviation=0.0, tolerance=0.0,
            note="dim < 4: all three-forms vanish identically; trivial pass")
    n = dim // 2
    triples = list(combinations(range(dim), 3))
    deviations = []
    tol = 0.0
    for x in sample_points:
        x = as_vector(x)
        omega = form.matrix(x)
        D = fd_jacobian(form.matrix, x, _LCS_FD_EPS)  # D[b, c, a] = d omega_bc / dx_a
        psi = np.concatenate([as_vector(lee(x[:n])), np.zeros(n)])
        worst = 0.0
        for a, b, c in triples:
            d_omega = D[b, c, a] + D[c, a, b] + D[a, b, c]
            wedge = psi[a] * omega[b, c] - psi[b] * omega[a, c] + psi[c] * omega[a, b]
            worst = max(worst, abs(d_omega - wedge))
        deviations.append(worst)
        tol = max(tol, _LCS_TOL_FACTOR * max(1.0, float(np.max(np.abs(omega)))))
    max_dev = max(deviations)
    return LcsConditionReport(passed=max_dev <= tol, max_deviation=max_dev,
                              tolerance=tol, deviations=tuple(deviations))
