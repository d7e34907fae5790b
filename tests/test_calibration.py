from btq import calibration as cal
from btq import operators as op
from btq import symbols as sy
from btq.geometry import LAPLACE_SIGN, POISSON_CONSTANT


def test_calibration_selects_expected_signs():
    signs, diag = cal.calibrate()
    assert signs == (2.0, 1)
    assert (diag["tuynman_level"], diag["poisson_levels"]) == (4, [8, 32])
    # the winning Tuynman sign is quadrature-exact, the loser is O(1)
    assert diag["tuynman_defects"]["1"] < 1e-10
    assert diag["tuynman_defects"]["-1"] > 1e-2
    lo, hi = diag["commutator_defects"]["1"]
    assert hi < 0.8 * lo
    blo, bhi = diag["commutator_defects"]["-1"]
    assert bhi > 0.95 * blo


def test_calibration_defects_match_closed_forms():
    _, diag = cal.calibrate()
    # the opposite Laplacian sign misses by i T_{Lap x3/m} = -4i T_{x3}/m,
    # whose largest entry is 4/m * m/(m+2)
    m = diag["tuynman_level"]
    assert abs(diag["tuynman_defects"]["-1"] - 4 / (m + 2)) <= 1e-12
    assert abs(diag["tuynman_defects"]["-1"] - 2 / 3) <= 1e-12
    # the built-in commutator defect of (x1, x2) is 4m/(m+2)^2
    for m, d in zip(diag["poisson_levels"], diag["commutator_defects"]["1"]):
        assert abs(d - 4 * m / (m + 2) ** 2) <= 1e-12


def test_commutator_defect_matches_operator_arithmetic():
    # raw arrays wrapped once give the bytes and the flag of the
    # QuantumOperator expression, which checks hermiticity four times
    for bracket in (sy.poisson_bracket(sy.X1, sy.X2), -sy.poisson_bracket(sy.X1, sy.X2)):
        for m in (8, 32):
            tf, tg = op.toeplitz(sy.X1, m), op.toeplitz(sy.X2, m)
            tfg = op.toeplitz(bracket, m)
            ref = (1j * m) * op.commutator(tf, tg) - tfg
            assert cal._commutator_defect(bracket, m) == op.operator_norm(ref)


def test_default_conventions_match_calibration():
    signs, _ = cal.calibrate()
    assert signs == (POISSON_CONSTANT, LAPLACE_SIGN)
