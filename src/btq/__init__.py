"""Berezin-Toeplitz and geometric quantization on the Riemann sphere.

Numerical laboratory for the semiclassical limit: Toeplitz matrices of
polynomial observables by three independent routes, geometric-quantization
operators, Tuynman's relation, and convergence experiments for the
sup-norm, commutator and star-product asymptotics.
"""

from .calibration import calibrate
from .errors import (CalibrationError, CapacityError, InsufficientDataError,
                     LevelMismatchError, SymbolParseError, SymbolSyntaxError,
                     UnderResolvedRuleError)
from .geometry import (LAPLACE_SIGN, POISSON_CONSTANT, TOTAL_AREA,
                       QuadratureRule, SpherePoint, curvature_check, diastasis,
                       make_rule)
from .hilbert import (GridTable, SectionVector, basis_eval_grid,
                      coefficient_inner, coherent_state, dimension,
                      kernel_density, monomial_norm, quadrature_inner)
from .lab import (ConvergenceReport, ConvergenceRow, RateFit, coherent_run,
                  cross_check, crosscheck_run, default_window, fit_rate,
                  thm1_run, thm2_run, thm3_run, tuynman_run)
from .operators import (QuantumOperator, commutator, identity, kernel_matrix,
                        operator_norm, prequantum, toeplitz, toeplitz_exact,
                        tuynman_rhs)
from .symbols import (ONE, REJECTED_C1_ORDERING, SELECTED_C1_ORDERING, X1, X2,
                      X3, Symbol, c1_candidate, constant, coordinate,
                      eval_ambient, evaluate, grid_extrema, laplace_beltrami,
                      multiply, parse, poisson_bracket, sup_norm,
                      sup_norm_argmax, symbol_from_json, symbol_to_json)

__version__ = "0.1.0"
