"""Experiment harness: the semiclassical limit theorems as measured
convergence data with fitted decay rates.

Each run produces a ConvergenceReport of per-level rows (m, hbar = 1/m,
measured, reference, gap), the declared per-level checks, a log-log rate
fit over the upper half of the levels (`default_window`; small-m rows
contaminate the asymptotics), listed in fit.window, and where relevant a
max-over-window estimate of the bound constant.  Slopes are decay exponents:
gap ~ C m^(-slope).  `fit_rate(report.rows, window)` refits any other window.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InsufficientDataError
# make_rule and basis_eval_grid go unused: benchmark/selftest.py expects the bindings
from .geometry import LAPLACE_SCALE, LAPLACE_SIGN, POISSON_CONSTANT, TOTAL_AREA, make_rule
from .hilbert import SectionVector, basis_eval_grid, radial_factors
from .operators import (commutator, kernel_matrix, operator_norm, prequantum,
                        toeplitz, toeplitz_exact, tuynman_rhs)
from .symbols import (SELECTED_C1_ORDERING, Symbol, c1_candidate, evaluate,
                      multiply, poisson_bracket, sup_norm, sup_norm_argmax, symbol_to_json)

GAP_FLOOR = 1e-13


@dataclass
class ConvergenceRow:
    m: int
    hbar: float
    measured: float
    reference: float
    gap: float

    @classmethod
    def make(cls, m, measured, reference):
        measured, reference = float(measured), float(reference)
        return cls(m=int(m), hbar=1.0 / m if m else math.inf, measured=measured,
                   reference=reference, gap=abs(measured - reference))


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    window: list

    def as_dict(self):
        return {"slope": self.slope, "intercept": self.intercept,
                "r2": self.r_squared, "window": list(self.window)}


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ConvergenceReport:
    experiment: str
    f: Symbol
    g: Symbol = None
    rows: list = field(default_factory=list)
    fit: RateFit = None
    k_estimate: float = None
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def check(self, name, passed, detail=""):
        self.checks.append(Check(name, bool(passed), detail))

    def to_json_dict(self):
        return {
            "experiment": self.experiment,
            "f": symbol_to_json(self.f),
            "g": symbol_to_json(self.g) if self.g is not None else None,
            "conventions": {"total_area": TOTAL_AREA, "poisson_constant": POISSON_CONSTANT,
                            "laplace_sign": LAPLACE_SIGN, "laplace_scale": LAPLACE_SCALE},
            "rows": [asdict(r) for r in self.rows],
            "fit": self.fit.as_dict() if self.fit is not None else None,
            "K_estimate": self.k_estimate,
            "checks": [asdict(c) for c in self.checks],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_csv(self):
        lines = ["m,hbar,measured,reference,gap"]
        for r in self.rows:
            lines.append(f"{r.m},{r.hbar!r},{r.measured!r},{r.reference!r},{r.gap!r}")
        return "\n".join(lines) + "\n"


def default_window(levels):
    """Upper half of the level list (asymptotics are cleanest there),
    widened to three levels when the list is short, since a fit needs
    three points."""
    levels = sorted(levels)
    start = min(len(levels) // 2, max(0, len(levels) - 3))
    return levels[start:]


def fit_rate(rows, window=None):
    """Least squares on (log m, log gap) over the window.

    Rows with gap <= 1e-13 (machine floor) or m < 1 (no log m) are excluded;
    needs >= 3 usable rows.  slope is the decay exponent (positive for
    decaying gaps).
    """
    if window is None:
        window = default_window([r.m for r in rows])
    window = sorted(window)
    usable = [r for r in rows if r.m in set(window) and r.m >= 1 and r.gap > GAP_FLOOR]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"need >= 3 rows with positive gaps in window, have {len(usable)}")
    x = np.log([r.m for r in usable])
    y = np.log([r.gap for r in usable])
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    b = sxy / sxx
    a = float(ym - b * xm)
    resid = y - (a + b * x)
    sst = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / sst if sst > 1e-28 else 0.0
    return RateFit(slope=float(-b), intercept=a,
                   r_squared=float(min(max(r2, 0.0), 1.0)),
                   window=[r.m for r in usable])


def _try_fit(report, rows=None):
    """Fit the report's rows (or the given ones); no fit if too few are usable."""
    try:
        report.fit = fit_rate(report.rows if rows is None else rows)
    except InsufficientDataError:
        report.fit = None


# -- experiments ---------------------------------------------------------------


def thm1_run(f, levels):
    """Sup-norm limit: ||T_f|| increases to ||f||_inf with an O(1/m) gap.

    measured = operator norm, reference = sup norm; asserts the upper bound
    measured <= reference + 1e-9 max(1, largest |coefficient|) at every level
    (the slack scales with f, as both norms do).
    """
    report = ConvergenceReport("thm1", f)
    ref = sup_norm(f)
    tol = 1e-9 * max(1.0, f.coeff_max())
    for m in levels:
        t = toeplitz(f, m)
        measured = operator_norm(t)
        report.rows.append(ConvergenceRow.make(m, measured, ref))
        report.check(f"upper_bound_m{m}", measured <= ref + tol,
                     f"|T_f|={measured!r} sup={ref!r}")
    _try_fit(report)
    return report


def thm2_run(f, g, levels):
    """Commutator limit: ||m i [T_f, T_g] - T_{f,g}|| = O(1/m)."""
    report = ConvergenceReport("thm2", f, g)
    fg = poisson_bracket(f, g)
    for m in levels:
        tf, tg, tfg = (toeplitz(h, m) for h in (f, g, fg))
        measured = operator_norm(commutator(tf, tg) * (1j * m) - tfg)
        report.rows.append(ConvergenceRow.make(m, measured, 0.0))
    _try_fit(report)
    return report


def thm3_run(f, g, levels, c1_ordering=SELECTED_C1_ORDERING):
    """Star-product asymptotics at orders N=1,2.

    Returns {1: report, 2: report}: order N measures
    ||T_f T_g - sum_{j<N} m^-j T_{C_j}|| with C_0 = f g and C_1 from the
    given ordering.  K_estimate is max over the fit window of m^N * residual
    (the bound constant, not a fitted intercept).  Every level must be >= 1,
    as the N=2 residual divides by m.
    """
    if any(m < 1 for m in levels):
        raise ValueError("the star-product residuals need m >= 1")
    c0 = multiply(f, g)
    c1 = c1_candidate(f, g, c1_ordering)
    reports = {n: ConvergenceReport(f"thm3[N={n}]", f, g) for n in (1, 2)}
    for m in levels:
        tf, tg, tc0, tc1 = (toeplitz(h, m) for h in (f, g, c0, c1))
        r1 = tf @ tg - tc0
        for n, r in ((1, r1), (2, r1 - tc1 / m)):
            reports[n].rows.append(ConvergenceRow.make(m, operator_norm(r), 0.0))
    for n, rep in reports.items():
        _try_fit(rep)
        win = set(rep.fit.window if rep.fit else default_window(levels))
        rep.k_estimate = max((r.m**n * r.gap for r in rep.rows if r.m in win),
                             default=None)
    return reports


def tuynman_run(f, levels):
    """Exact identity Q_f = i T_{f - Lap f/(2m)}: defects at quadrature scale.

    Q_f and i T_g come from their own rules (degrees deg f + 2 and deg f),
    so the defect is the roundoff of two exact quadratures.  Checks that the
    largest entry of Q_f - i T_g is <= 1e-8 (1 + ||Q_f||) per level; no rate
    fit (the relation is exact, not asymptotic).  ||Q_f|| is the norm of
    -i Q_f, as a Hermitian operator when that passes the hermiticity check
    (real f), else as a general one.
    """
    report = ConvergenceReport("tuynman", f)
    for m in levels:
        q = prequantum(f, m)
        rhs = tuynman_rhs(f, m)
        defect = float(np.max(np.abs((q - rhs).diags)))
        qnorm = operator_norm(-1j * q)
        report.rows.append(ConvergenceRow.make(m, defect, 0.0))
        report.check(f"identity_m{m}", defect <= 1e-8 * (1.0 + qnorm),
                     f"defect={defect!r} |Q|={qnorm!r}")
    return report


def coherent_run(f, x0, levels):
    """Coherent-state expectations l_m = |<phi, T_f phi>|/<phi,phi> -> |f(x0)|;
    x0 = None is the maximizer of |f|, read with ||f||_inf from one search.

    Checks the sandwich l_m <= ||T_f|| <= ||f||_inf, each with a slack of
    1e-9 max(1, largest |coefficient|), at every level; fits the decay of
    ||f||_inf - l_m when x0 maximizes |f| (to 1e-6 relative).  The state
    has coefficients R_k(s0) e^{-i k phi0} (`radial_factors`; s0 = (1 - x3)/2
    and phi0 the azimuth of x0), i.e. conj(e_k(z0)) (1+|z0|^2)^(-m/2): one
    formula for every base point, the south pole included, with every entry
    in float range at every admitted level.
    """
    report = ConvergenceReport("coherent", f)
    sup, argmax = sup_norm_argmax(f)
    x0 = argmax if x0 is None else x0
    ref = abs(evaluate(f, x0))
    x1, x2, x3 = x0.ambient()
    # (1 - x3)/2 keeps none of the digits of a point within 1e-8 of the
    # north pole; x1^2 + x2^2 = 4 s0 (1 - s0) gives s0 there, and 1 - s0
    # south of the equator, where R_k(s0) = R_{m-k}(1 - s0)
    t0 = (x1 * x1 + x2 * x2) / (2.0 * (1.0 + abs(x3)))
    phi0 = math.atan2(x2, x1)
    tol = 1e-9 * max(1.0, f.coeff_max())
    for m in levels:
        t = toeplitz(f, m)
        r = radial_factors(m, [t0])[0]
        c = (r if x3 >= 0 else r[::-1]) * np.exp(-1j * np.arange(m + 1) * phi0)
        num = abs(complex(np.vdot(c, (t @ SectionVector(m, c)).coeffs)))
        den = float(np.real(np.vdot(c, c)))
        lm = num / den
        tnorm = operator_norm(t)
        report.rows.append(ConvergenceRow.make(m, lm, ref))
        report.check(
            f"sandwich_m{m}",
            lm <= tnorm + tol and tnorm <= sup + tol,
            f"l={lm!r} |T|={tnorm!r} sup={sup!r}")
    if abs(ref - sup) <= 1e-6 * max(1.0, sup):
        _try_fit(report, [ConvergenceRow.make(r.m, r.measured, sup)
                          for r in report.rows])
    return report


def cross_check(f, m):
    """Max pairwise entry defect of the three Toeplitz constructions."""
    a = toeplitz(f, m)
    b = toeplitz_exact(f, m)
    c = kernel_matrix(f, m)
    return float(max(np.max(np.abs((x - y).diags)) for x, y in ((a, b), (a, c), (b, c))))


def crosscheck_run(f, levels):
    """Oracle-equivalence harness over a level list.  The defect must be
    <= 1e-10 max(1, largest |coefficient|): T_{cf} = c T_f, so the roundoff
    of the three paths scales with the symbol."""
    report = ConvergenceReport("crosscheck", f)
    tol = 1e-10 * max(1.0, f.coeff_max())
    for m in levels:
        d = cross_check(f, m)
        report.rows.append(ConvergenceRow.make(m, d, 0.0))
        report.check(f"agreement_m{m}", d <= tol, f"defect={d!r}")
    return report
