"""Runtime calibration of the open sign conventions, and the ledger file
that freezes them.

Two signs are not pinned by the formulas alone: the analyst-vs-geometer
sign of the Laplacian (selected by requiring Tuynman's relation
Q_f = i T_{f - Lap f/(2m)} to hold against the directly assembled
geometric-quantization operator) and the global sign of the Poisson
structure constant (selected by requiring the commutator defect
||m i [T_f, T_g] - T_{f,g}|| to decay instead of saturating at O(1)).
Both selections are recorded with their measured defects in a small JSON
ledger so later runs can load rather than re-measure them.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import CalibrationError, LedgerError
from .geometry import LAPLACE_SCALE, TOTAL_AREA, KahlerConventions
from .operators import commutator, operator_norm, prequantum, toeplitz, tuynman_rhs
from .symbols import X1, X2, X3, poisson_bracket

LEDGER_ENV = "BTQ_LEDGER"
LEDGER_NAME = "btq_conventions.json"
LEDGER_FORMAT = "btq-conventions-v1"

_TUYNMAN_LEVEL = 4
_TUYNMAN_TOL = 1e-8
_POISSON_LEVELS = (8, 32)
_DECAY_RATIO = 0.8


def ledger_path():
    """Resolve the ledger location: BTQ_LEDGER env, or cwd."""
    return os.environ.get(LEDGER_ENV) or os.path.join(os.getcwd(), LEDGER_NAME)


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


def ledger_payload(conv, diagnostics):
    return {"format": LEDGER_FORMAT, **conv.as_dict(), "diagnostics": diagnostics}


def ledger_bytes(conv, diagnostics):
    return (json.dumps(ledger_payload(conv, diagnostics),
                       indent=2, sort_keys=True) + "\n").encode()


def atomic_write(path, payload):
    """Write bytes to path through a temp file in the same directory and a
    rename, so readers see the old file or the new one, never a part."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".btq_")
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:  # name the destination, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_ledger(path, conv, diagnostics):
    """Atomic write; byte-deterministic for identical input."""
    atomic_write(path, ledger_bytes(conv, diagnostics))
    return path


def load_ledger(path):
    """Read a conventions ledger; LedgerError when missing keys or invalid."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise
    except (OSError, json.JSONDecodeError) as exc:
        raise LedgerError(f"unreadable conventions ledger {path}: {exc}") from exc
    try:
        if obj["format"] != LEDGER_FORMAT:
            raise LedgerError(f"unknown ledger format {obj['format']!r}")
        conv = KahlerConventions(
            poisson_constant=float(obj["poisson_constant"]),
            laplace_sign=int(obj["laplace_sign"]),
        )
        fixed = (float(obj["total_area"]), float(obj["laplace_scale"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise LedgerError(f"conventions ledger {path} is corrupted: {exc}") from exc
    if conv.laplace_sign not in (1, -1) or abs(conv.poisson_constant) != 2.0:
        raise LedgerError(f"conventions ledger {path} holds out-of-range values")
    # the calculus integrates over TOTAL_AREA and scales the Laplacian by
    # LAPLACE_SCALE; a ledger naming other values would be reported, not used
    if fixed != (TOTAL_AREA, LAPLACE_SCALE):
        raise LedgerError(f"conventions ledger {path} holds a total_area or "
                          "laplace_scale that btq does not use")
    return conv
