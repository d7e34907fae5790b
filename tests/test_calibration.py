import pytest

from btq import calibration as cal
from btq import lab
from btq import symbols as sy
from btq.errors import CalibrationError
from btq.geometry import LAPLACE_SIGN, POISSON_CONSTANT


def test_calibration_defects_match_closed_forms():
    defects = cal.calibrate()
    m = cal.LEVEL
    assert m == 4 and cal.TOL == 1e-8
    assert max(defects["laplace_sign"][0], defects["poisson_constant"][0]) <= 1e-12
    # the opposite Laplacian sign misses by i T_{Lap x3/m} = -4i T_{x3}/m,
    # whose largest entry is 4/m * m/(m+2)
    assert abs(defects["laplace_sign"][1] - 4 / (m + 2)) <= 1e-12
    # the opposite bracket misses by 2 T_{2 x3}, of norm 4m/(m+2)
    assert abs(defects["poisson_constant"][1] - 4 * m / (m + 2)) <= 1e-12


def test_calibration_refuses_either_flipped_convention(monkeypatch):
    # the bracket and the Laplacian read their constants from btq.symbols
    for name, value, convention in (("POISSON_CONSTANT", -2.0, "poisson_constant"),
                                    ("POISSON_CONSTANT", 1.0, "poisson_constant"),
                                    ("LAPLACE_SIGN", -1, "laplace_sign")):
        with monkeypatch.context() as patch:
            patch.setattr(sy, name, value)
            with pytest.raises(CalibrationError, match=f"^{convention}: "):
                cal.calibrate()
    cal.calibrate()  # restored


def test_default_conventions_match_calibration():
    # the check passes on the constants every report records, and names
    # them as the report's conventions block does
    defects = cal.calibrate()
    conventions = lab.ConvergenceReport("thm1", sy.X3).to_json_dict()["conventions"]
    assert set(defects) == {"laplace_sign", "poisson_constant"} <= set(conventions)
    assert (conventions["poisson_constant"], conventions["laplace_sign"]) == \
        (POISSON_CONSTANT, LAPLACE_SIGN)
