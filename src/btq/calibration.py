"""Check of the two sign conventions by two identities exact at every level.

Both signs are constants of the calculus, geometry.POISSON_CONSTANT and
LAPLACE_SIGN, fixed by the Kaehler form and the prequantum condition
c(L) = omega/2pi.  `calibrate` measures each identity at one level with the
built-in sign, through the code the experiments run, and with the opposite
one: Tuynman's relation Q_f = i T_{f - Lap f/(2m)} for f = x3, by the
largest entry of the difference as `lab.tuynman_run` measures it (the
opposite sign misses by 4/(m+2)), and the spin identity
(m+2) i [T_x1, T_x2] = T_{x1,x2} of SU(2) equivariance, by the operator norm
of the difference as thm2 measures it (the opposite bracket misses by
4m/(m+2)).
"""

from __future__ import annotations

import numpy as np

from .errors import CalibrationError
from .operators import commutator, operator_norm, prequantum, toeplitz, tuynman_rhs
from .symbols import X1, X2, X3, laplace_beltrami, poisson_bracket

LEVEL = 4
TOL = 1e-8


def calibrate():
    """{convention: (built-in defect, opposite defect)} at m = LEVEL.

    Raises CalibrationError naming the convention unless every built-in
    defect is within TOL and every opposite one is not, which signals an
    implementation bug rather than a recoverable condition.
    """
    m = LEVEL
    q = prequantum(X3, m)
    flipped = toeplitz(X3 + laplace_beltrami(X3) * (1.0 / (2.0 * m)), m) * 1j
    spin = commutator(toeplitz(X1, m), toeplitz(X2, m)) * (1j * (m + 2))
    bracket = toeplitz(poisson_bracket(X1, X2), m)
    defects = {
        "laplace_sign": tuple(float(np.max(np.abs((q - rhs).diags)))
                              for rhs in (tuynman_rhs(X3, m), flipped)),
        "poisson_constant": (operator_norm(spin - bracket), operator_norm(spin + bracket)),
    }
    for name, (built_in, opposite) in defects.items():
        if not built_in <= TOL < opposite:
            raise CalibrationError(f"{name}: defect {built_in!r} with the built-in "
                                   f"sign, {opposite!r} with the opposite one")
    return defects
