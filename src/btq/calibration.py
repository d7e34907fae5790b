"""Calibration check of the two open sign conventions.

Two signs are not pinned by the formulas alone: the analyst-vs-geometer
sign of the Laplacian (selected by requiring Tuynman's relation
Q_f = i T_{f - Lap f/(2m)} to hold against the directly assembled
geometric-quantization operator) and the global sign of the Poisson
structure constant (selected by requiring the commutator defect
||m i [T_f, T_g] - T_{f,g}|| to decay instead of saturating at O(1)).
Both signs are constants of the calculus, fixed by the Kähler form and
the prequantum condition c(L) = omega/2pi, so every experiment uses
geometry.DEFAULT_CONVENTIONS; `btq calibrate` re-measures them and fails
when the measurement selects anything else.
"""

from __future__ import annotations

import numpy as np

from .errors import CalibrationError
from .geometry import KahlerConventions
from .operators import commutator, operator_norm, prequantum, toeplitz, tuynman_rhs
from .symbols import X1, X2, X3, poisson_bracket

_TUYNMAN_LEVEL = 4
_TUYNMAN_TOL = 1e-8
_POISSON_LEVELS = (8, 32)
_DECAY_RATIO = 0.8


def _laplace_defect(sign, m):
    conv = KahlerConventions(laplace_sign=sign)
    lhs = prequantum(X3, m)
    rhs = tuynman_rhs(X3, m, conv)
    return float(np.max(np.abs((lhs - rhs).diags)))


def _commutator_defect(c_sign, m):
    conv = KahlerConventions(poisson_constant=2.0 * c_sign)
    tfg = toeplitz(poisson_bracket(X1, X2, conv), m)
    return operator_norm(commutator(toeplitz(X1, m), toeplitz(X2, m)) * (1j * m) - tfg)


def calibrate():
    """Measure both signs of each convention and select the consistent ones:
    the Laplacian sign by Tuynman's relation at _TUYNMAN_LEVEL, the Poisson
    sign by the commutator defect's decay over _POISSON_LEVELS.

    Returns (KahlerConventions, diagnostics).  Raises CalibrationError when
    no sign choice meets tolerance, which signals an implementation bug
    rather than a recoverable condition.
    """
    lap = {sign: _laplace_defect(sign, _TUYNMAN_LEVEL) for sign in (1, -1)}
    lap_ok = [s for s, d in lap.items() if d <= _TUYNMAN_TOL]
    if len(lap_ok) != 1:
        raise CalibrationError(
            f"Laplacian sign ambiguous: Tuynman defects {lap}")
    laplace_sign = lap_ok[0]

    m_lo, m_hi = _POISSON_LEVELS
    pois = {sign: (_commutator_defect(sign, m_lo), _commutator_defect(sign, m_hi))
            for sign in (1, -1)}
    pois_ok = [s for s, (dlo, dhi) in pois.items() if dhi < _DECAY_RATIO * dlo]
    if len(pois_ok) != 1:
        raise CalibrationError(
            f"Poisson sign ambiguous: commutator defects {pois}")
    poisson_sign = pois_ok[0]

    conv = KahlerConventions(poisson_constant=2.0 * poisson_sign,
                             laplace_sign=laplace_sign)
    diagnostics = {
        "tuynman_level": _TUYNMAN_LEVEL,
        "tuynman_defects": {str(s): lap[s] for s in (1, -1)},
        "poisson_levels": list(_POISSON_LEVELS),
        "commutator_defects": {str(s): list(pois[s]) for s in (1, -1)},
    }
    return conv, diagnostics
