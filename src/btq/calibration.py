"""Calibration check of the two sign conventions.

Two signs are not pinned by the formulas alone: the analyst-vs-geometer
sign of the Laplacian (selected by requiring Tuynman's relation
Q_f = i T_{f - Lap f/(2m)} to hold against the directly assembled
geometric-quantization operator) and the global sign of the Poisson
structure constant (selected by requiring the commutator defect
||m i [T_f, T_g] - T_{f,g}|| to decay instead of saturating at O(1)).
Both signs are constants of the calculus, geometry.POISSON_CONSTANT and
LAPLACE_SIGN, fixed by the Kähler form and the prequantum condition
c(L) = omega/2pi.  `calibrate` measures the built-in signs through the code
the experiments run, `tuynman_rhs` and `poisson_bracket`, and the opposite
ones by negating the Laplacian or the bracket; `btq calibrate` fails when
the measurement selects anything else.
"""

from __future__ import annotations

import numpy as np

from .errors import CalibrationError
from .geometry import LAPLACE_SIGN, POISSON_CONSTANT
from .operators import commutator, operator_norm, prequantum, toeplitz, tuynman_rhs
from .symbols import X1, X2, X3, laplace_beltrami, poisson_bracket

_TUYNMAN_LEVEL = 4
_TUYNMAN_TOL = 1e-8
_POISSON_LEVELS = (8, 32)
_DECAY_RATIO = 0.8


def _commutator_defect(bracket, m):
    """||m i [T_x1, T_x2] - T_bracket|| for bracket = {x1, x2} of either sign."""
    tfg = toeplitz(bracket, m)
    return operator_norm(commutator(toeplitz(X1, m), toeplitz(X2, m)) * (1j * m) - tfg)


def calibrate():
    """Measure both signs of each convention and select the consistent ones:
    the Laplacian sign by Tuynman's relation at _TUYNMAN_LEVEL, the Poisson
    sign by the commutator defect's decay over _POISSON_LEVELS.

    Returns ((poisson_constant, laplace_sign), diagnostics), the defects
    keyed by sign.  Raises CalibrationError when no sign choice meets
    tolerance, which signals an implementation bug rather than a
    recoverable condition.
    """
    m = _TUYNMAN_LEVEL
    lhs = prequantum(X3, m)
    rhs = {LAPLACE_SIGN: tuynman_rhs(X3, m),  # the opposite sign: i T_{f + Lap f/(2m)}
           -LAPLACE_SIGN: toeplitz(X3 + laplace_beltrami(X3) * (1.0 / (2.0 * m)), m) * 1j}
    lap = {s: float(np.max(np.abs((lhs - rhs[s]).diags))) for s in (1, -1)}
    lap_ok = [s for s, d in lap.items() if d <= _TUYNMAN_TOL]
    if len(lap_ok) != 1:
        raise CalibrationError(
            f"Laplacian sign ambiguous: Tuynman defects {lap}")

    sign = 1 if POISSON_CONSTANT > 0 else -1
    bracket = {sign: poisson_bracket(X1, X2), -sign: -poisson_bracket(X1, X2)}
    pois = {s: tuple(_commutator_defect(bracket[s], lvl) for lvl in _POISSON_LEVELS)
            for s in (1, -1)}
    pois_ok = [s for s, (dlo, dhi) in pois.items() if dhi < _DECAY_RATIO * dlo]
    if len(pois_ok) != 1:
        raise CalibrationError(
            f"Poisson sign ambiguous: commutator defects {pois}")

    diagnostics = {
        "tuynman_level": _TUYNMAN_LEVEL,
        "tuynman_defects": {str(s): lap[s] for s in (1, -1)},
        "poisson_levels": list(_POISSON_LEVELS),
        "commutator_defects": {str(s): list(pois[s]) for s in (1, -1)},
    }
    return (abs(POISSON_CONSTANT) * pois_ok[0], lap_ok[0]), diagnostics
