"""Experiment harness: the semiclassical limit theorems as measured
convergence data with fitted decay rates.

Each run produces a ConvergenceReport of per-level rows (m, hbar = 1/m,
measured, reference, gap), the declared per-level checks, a log-log rate
fit over a window (default: the upper half of the requested levels, since
small-m rows contaminate the asymptotics), and where relevant a max-over-
window estimate of the bound constant.  Slopes are reported as decay
exponents: gap ~ C m^(-slope).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError
from .geometry import DEFAULT_CONVENTIONS, make_rule
from .hilbert import SectionVector, basis_eval_grid, coherent_state
from .operators import (commutator, kernel_matrix, operator_norm, prequantum,
                        toeplitz, toeplitz_exact, tuynman_rhs)
from .symbols import (SELECTED_C1_ORDERING, Symbol, c1_candidate, evaluate,
                      multiply, poisson_bracket, sup_norm, sup_norm_argmax,
                      symbol_to_json)

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

    def as_dict(self):
        return {"m": self.m, "hbar": self.hbar, "measured": self.measured,
                "reference": self.reference, "gap": self.gap}


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

    def as_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class ConvergenceReport:
    experiment: str
    f: Symbol
    g: Symbol = None
    conventions: dict = field(default_factory=lambda: DEFAULT_CONVENTIONS.as_dict())
    rows: list = field(default_factory=list)
    fit: RateFit = None
    k_estimate: float = None
    seed: int = 0
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def check(self, name, passed, detail=""):
        self.checks.append(Check(name, bool(passed), detail))

    def gaps(self):
        return {r.m: r.gap for r in self.rows}

    def to_json_dict(self):
        return {
            "experiment": self.experiment,
            "f": symbol_to_json(self.f),
            "g": symbol_to_json(self.g) if self.g is not None else None,
            "conventions": self.conventions,
            "rows": [r.as_dict() for r in self.rows],
            "fit": self.fit.as_dict() if self.fit is not None else None,
            "K_estimate": self.k_estimate,
            "seed": self.seed,
            "checks": [c.as_dict() for c in self.checks],
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

    Rows with gap <= 1e-13 (machine floor) are excluded; needs >= 3 usable
    rows.  slope is the decay exponent (positive for decaying gaps).
    """
    if window is None:
        window = default_window([r.m for r in rows])
    window = sorted(window)
    usable = [r for r in rows if r.m in set(window) and r.gap > GAP_FLOOR]
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


def _try_fit(report, window, rows=None):
    """Fit the report's rows (or the given ones); no fit if too few are usable."""
    try:
        report.fit = fit_rate(report.rows if rows is None else rows, window)
    except InsufficientDataError:
        report.fit = None


# -- experiments ---------------------------------------------------------------


def thm1_run(f, levels, window=None, conventions=DEFAULT_CONVENTIONS,
             margin=0, seed=0):
    """Sup-norm limit: ||T_f|| increases to ||f||_inf with an O(1/m) gap.

    measured = operator norm, reference = sup norm; asserts the upper bound
    measured <= reference + 1e-9 max(1, largest |coefficient|) at every level
    (the slack scales with f, as both norms do).
    """
    report = ConvergenceReport("thm1", f, conventions=conventions.as_dict(), seed=seed)
    ref = sup_norm(f)
    tol = 1e-9 * max(1.0, f.coeff_max())
    for m in levels:
        t = toeplitz(f, m, margin=margin)
        measured = operator_norm(t)
        report.rows.append(ConvergenceRow.make(m, measured, ref))
        report.check(f"upper_bound_m{m}", measured <= ref + tol,
                     f"|T_f|={measured!r} sup={ref!r}")
    _try_fit(report, window)
    return report


def thm2_run(f, g, levels, window=None, conventions=DEFAULT_CONVENTIONS,
             margin=0, seed=0):
    """Commutator limit: ||m i [T_f, T_g] - T_{f,g}|| = O(1/m)."""
    report = ConvergenceReport("thm2", f, g, conventions=conventions.as_dict(),
                               seed=seed)
    fg = poisson_bracket(f, g, conventions)
    deg = max(f.degree, g.degree, fg.degree)
    for m in levels:
        table = basis_eval_grid(m, make_rule(m, deg, margin=margin))
        tf, tg, tfg = (toeplitz(h, m, table=table) for h in (f, g, fg))
        measured = operator_norm(commutator(tf, tg) * (1j * m) - tfg)
        report.rows.append(ConvergenceRow.make(m, measured, 0.0))
    _try_fit(report, window)
    return report


def thm3_run(f, g, levels, window=None, c1_ordering=SELECTED_C1_ORDERING,
             conventions=DEFAULT_CONVENTIONS, margin=0, seed=0):
    """Star-product asymptotics at orders N=1,2.

    Returns {1: report, 2: report}: order N measures
    ||T_f T_g - sum_{j<N} m^-j T_{C_j}|| with C_0 = f g and C_1 from the
    given ordering.  K_estimate is max over the fit window of m^N * residual
    (the bound constant, not a fitted intercept).
    """
    c0 = multiply(f, g)
    c1 = c1_candidate(f, g, c1_ordering)
    deg = max(f.degree, g.degree, c0.degree, c1.degree)
    rep1 = ConvergenceReport("thm3[N=1]", f, g, conventions=conventions.as_dict(),
                             seed=seed)
    rep2 = ConvergenceReport("thm3[N=2]", f, g, conventions=conventions.as_dict(),
                             seed=seed)
    for m in levels:
        table = basis_eval_grid(m, make_rule(m, deg, margin=margin))
        tf, tg, tc0, tc1 = (toeplitz(h, m, table=table) for h in (f, g, c0, c1))
        r1 = tf @ tg - tc0
        r2 = r1 - tc1 / m
        for rep, r in ((rep1, r1), (rep2, r2)):
            r.hermitian = False  # normed as a general residual, by the SVD
            rep.rows.append(ConvergenceRow.make(m, operator_norm(r), 0.0))
    _try_fit(rep1, window)
    _try_fit(rep2, window)
    win = set(rep1.fit.window if rep1.fit else default_window(levels))
    rep1.k_estimate = max((r.m * r.gap for r in rep1.rows if r.m in win),
                          default=None)
    win2 = set(rep2.fit.window if rep2.fit else default_window(levels))
    rep2.k_estimate = max((r.m**2 * r.gap for r in rep2.rows if r.m in win2),
                          default=None)
    return {1: rep1, 2: rep2}


def tuynman_run(f, levels, conventions=DEFAULT_CONVENTIONS, margin=0, seed=0):
    """Exact identity Q_f = i T_{f - Lap f/(2m)}: defects at quadrature scale.

    Checks defect <= 1e-8 (1 + ||Q_f||) per level; no rate fit (the relation
    is exact, not asymptotic).  ||Q_f|| is the norm of -i Q_f, by eigvalsh
    when that passes the hermiticity check (real f), else by the SVD.
    """
    report = ConvergenceReport("tuynman", f, conventions=conventions.as_dict(),
                               seed=seed)
    for m in levels:
        table = basis_eval_grid(m, make_rule(m, f.degree + 2, margin=margin))
        q = prequantum(f, m, table=table)
        rhs = tuynman_rhs(f, m, conventions, table=table)
        defect = float(np.max(np.abs((q - rhs).diags)))
        qnorm = operator_norm(-1j * q)
        report.rows.append(ConvergenceRow.make(m, defect, 0.0))
        report.check(f"identity_m{m}", defect <= 1e-8 * (1.0 + qnorm),
                     f"defect={defect!r} |Q|={qnorm!r}")
    return report


def _flip(f):
    """Exact pullback under the rotation (x1,x2,x3) -> (x1,-x2,-x3)."""
    return Symbol({(a, b, c): v * (-1.0) ** (b + c)
                   for (a, b, c), v in f.terms.items()})


def _flip_point(p):
    x1, x2, x3 = p.ambient()
    from .geometry import SpherePoint
    return SpherePoint.from_ambient(x1, -x2, -x3)


def coherent_run(f, x0, levels, window=None, conventions=DEFAULT_CONVENTIONS,
                 margin=0, seed=0):
    """Coherent-state expectations l_m = |<phi, T_f phi>|/<phi,phi> -> |f(x0)|.

    Checks the sandwich l_m <= ||T_f|| <= ||f||_inf, each with a slack of
    1e-9 max(1, largest |coefficient|), at every level; fits the decay of
    ||f||_inf - l_m when x0 maximizes |f| (to 1e-6 relative).  Base points
    with |z0| > 1 or at the infinity chart are pulled to the unit disk by an
    exact 180-degree rotation, which is unitary on sections and leaves every
    reported quantity unchanged.
    """
    if x0.chart == "infinity" or abs(x0.z) > 1.0:
        f = _flip(f)
        x0 = _flip_point(x0)
    sup = sup_norm(f)
    ref = abs(evaluate(f, x0))
    report = ConvergenceReport("coherent", f, conventions=conventions.as_dict(),
                               seed=seed)
    z0 = x0.z
    tol = 1e-9 * max(1.0, f.coeff_max())
    for m in levels:
        t = toeplitz(f, m, margin=margin)
        c = coherent_state(m, z0).coeffs
        # <phi, phi> grows like 2^m at |z0| = 1; the exact rescaling
        # c -> 2^-e c leaves l_m as it is and both inner products in range
        c = c * 2.0 ** -math.frexp(float(np.max(np.abs(c))))[1]
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
        _try_fit(report, window, [ConvergenceRow.make(r.m, r.measured, sup)
                                  for r in report.rows])
    return report


def cross_check(f, m, margin=0):
    """Max pairwise entry defect of the three Toeplitz constructions."""
    table = basis_eval_grid(m, make_rule(m, f.degree, margin=margin))
    a = toeplitz(f, m, table=table)
    b = toeplitz_exact(f, m)
    c = kernel_matrix(f, m, table=table)
    return float(max(np.max(np.abs((x - y).diags)) for x, y in ((a, b), (a, c), (b, c))))


def crosscheck_run(f, levels, margin=0, seed=0,
                   conventions=DEFAULT_CONVENTIONS):
    """Oracle-equivalence harness over a level list.  The defect must be
    <= 1e-10 max(1, largest |coefficient|): T_{cf} = c T_f, so the roundoff
    of the three paths scales with the symbol."""
    report = ConvergenceReport("crosscheck", f, conventions=conventions.as_dict(),
                               seed=seed)
    tol = 1e-10 * max(1.0, f.coeff_max())
    for m in levels:
        d = cross_check(f, m, margin=margin)
        report.rows.append(ConvergenceRow.make(m, d, 0.0))
        report.check(f"agreement_m{m}", d <= tol, f"defect={d!r}")
    return report
