import json

import pytest

from btq import calibration as cal
from btq import operators as op
from btq import symbols as sy
from btq.errors import LedgerError
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


def test_ledger_roundtrip_and_idempotence(tmp_path):
    conv, diag = cal.calibrate()
    path = tmp_path / "ledger.json"
    cal.write_ledger(path, conv, diag)
    first = path.read_bytes()
    loaded = cal.load_ledger(path)
    assert loaded == conv
    cal.write_ledger(path, conv, diag)
    assert path.read_bytes() == first


def test_ledger_corruption_detected(tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text("{not json")
    with pytest.raises(LedgerError):
        cal.load_ledger(path)
    path.write_text(json.dumps({"format": cal.LEDGER_FORMAT}))
    with pytest.raises(LedgerError):
        cal.load_ledger(path)
    conv, diag = cal.calibrate()
    payload = cal.ledger_payload(conv, diag)
    payload["poisson_constant"] = 3.5
    path.write_text(json.dumps(payload))
    with pytest.raises(LedgerError):
        cal.load_ledger(path)
    # fields the calculus does not read must hold the values it uses
    for key, value in (("laplace_scale", 3.0), ("total_area", 5.0)):
        payload = cal.ledger_payload(conv, diag)
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(LedgerError):
            cal.load_ledger(path)
    path.write_text(json.dumps(cal.ledger_payload(conv, diag)))
    assert cal.load_ledger(path) == conv
    with pytest.raises(FileNotFoundError):
        cal.load_ledger(tmp_path / "absent.json")


def test_ledger_path_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv(cal.LEDGER_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    assert cal.ledger_path() == str(tmp_path / cal.LEDGER_NAME)
    monkeypatch.setenv(cal.LEDGER_ENV, "/elsewhere/conv.json")
    assert cal.ledger_path() == "/elsewhere/conv.json"


def test_default_conventions_match_calibration():
    conv, _ = cal.calibrate()
    assert conv == KahlerConventions()
