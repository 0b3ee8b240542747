"""Geometric integrators for dissipative mechanics with per-chart conformal factors.

The package provides the continuous reference dynamics (conformal Hamilton and
Euler-Lagrange equations), quadrature-rule and exact discrete Lagrangians, the
plain and conformal three-point variational recursions, discrete Legendre
transforms with right/left discrete Hamiltonians and their steppers, the
associated two-point Poincare-Cartan forms with a numerical conformal-condition
verifier, and a CLI experiment driver over a small built-in system catalog.
"""

from .atlas import (Chart, ConformalAtlas, TransitionMap, cocycle_check,
                    lee_form, transition_apply)
from .continuous import (ContinuousHamiltonian, ContinuousLagrangian,
                         divergence_numeric, fiber_legendre, fiber_legendre_inv,
                         make_lcel_field, make_lcshe_field, rk4_integrate)
from .discretize import (DiscreteLagrangian, conformal_midpoint_rule,
                         conformal_trapezoidal_rule,
                         exact_discrete_lagrangian, midpoint_rule,
                         trapezoidal_rule)
from .errors import (ConfigError, ConsistencyError, DomainError,
                     IntegrationError, NewtonError, RegularityError,
                     ShootingError)
from .forms import lc_pc_two_form, lcs_condition_check
from .hamiltonian_discrete import (LagrangianSource,
                                   build_left_hamiltonian,
                                   build_right_hamiltonian,
                                   integrate_hamiltonian, ld_step, ldlch_step,
                                   momenta_along_trajectory, rd_step,
                                   rdlch_step)
from .numerics import (NewtonResult, StepperConfig, fd_jacobian, newton_solve,
                       solve_linear)
from .systems import (CATALOG, System, free_rotor_circle, get_system,
                      harmonic_1d, planar_2d, rotor_extended_chart,
                      with_constant_sigma)
from .trajectory import DiscreteTrajectory, StepRecord, TrajectoryPoint
from .variational import (del_step, dlcel_step, integrate,
                          stationarity_residual)

__version__ = "0.1.0"
