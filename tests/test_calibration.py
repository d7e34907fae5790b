from btq import calibration as cal
from btq import operators as op
from btq import symbols as sy
from btq.geometry import KahlerConventions


def test_calibration_selects_expected_signs():
    conv, diag = cal.calibrate()
    assert conv.poisson_constant == 2.0
    assert conv.laplace_sign == 1
    assert conv.as_dict()["laplace_scale"] == 2.0
    assert (diag["tuynman_level"], diag["poisson_levels"]) == (4, [8, 32])
    # the winning Tuynman sign is quadrature-exact, the loser is O(1)
    assert diag["tuynman_defects"]["1"] < 1e-10
    assert diag["tuynman_defects"]["-1"] > 1e-2
    lo, hi = diag["commutator_defects"]["1"]
    assert hi < 0.8 * lo
    blo, bhi = diag["commutator_defects"]["-1"]
    assert bhi > 0.95 * blo


def test_commutator_defect_matches_operator_arithmetic():
    # raw arrays wrapped once give the bytes and the flag of the
    # QuantumOperator expression, which checks hermiticity four times
    for sign in (1, -1):
        conv = KahlerConventions(poisson_constant=2.0 * sign)
        for m in (8, 32):
            tf, tg = op.toeplitz(sy.X1, m), op.toeplitz(sy.X2, m)
            tfg = op.toeplitz(sy.poisson_bracket(sy.X1, sy.X2, conv), m)
            ref = (1j * m) * op.commutator(tf, tg) - tfg
            assert cal._commutator_defect(sign, m) == op.operator_norm(ref)


def test_default_conventions_match_calibration():
    conv, _ = cal.calibrate()
    assert conv == KahlerConventions()
