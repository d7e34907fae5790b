"""The benchmark's workloads, their seeded inputs and their output checks.

A CLI operation is one `python -m btq.cli ...` process.  Its verifier gets
the parsed report and returns a list of problems (empty when every number
matches its closed form or reference).  Every report's own `checks` must
pass too; the CLI exits 1 when they do not.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass

CRITERION10 = "x1*x2*x3^2 + 0.25*x1^2*x2^2 - x3 + 0.125"
HIGH_LEVELS = (128, 256, 512, 1000)
SMALL_MANY_SYMBOLS = 48  # per pass: two cycles of 6 degrees x 4 sizes
SMALL_LEVELS = (4, 8, 16, 32)


@dataclass(frozen=True)
class Op:
    """One CLI operation: argv after `btq`, its top level and its checker."""

    op_id: str
    level: int
    argv: tuple
    verify: object  # callable(report, levels) -> list of problems
    out: str = None  # report file written through --out, else stdout

    @property
    def levels(self):
        i = self.argv.index("--levels")
        return [int(x) for x in self.argv[i + 1].split(",")]

    @property
    def is_csv(self):
        return "csv" in self.argv


# -- report checks --------------------------------------------------------


def _rows(report):
    return report if isinstance(report, list) else report["rows"]


def _failed_checks(report):
    return [f"check {c['name']} failed: {c['detail']}"
            for c in report["checks"] if not c["passed"]]


def _level_checks(report, prefix, levels):
    """The report's declared checks: one `<prefix>_m<m>` per level, all passed."""
    names = {c["name"] for c in report["checks"]}
    return [f"missing check {prefix}_m{m}" for m in levels
            if f"{prefix}_m{m}" not in names] + _failed_checks(report)


def _closed_form(report, formula, tol):
    problems = []
    for row in _rows(report):
        m = int(row["m"])
        got, want = float(row["measured"]), formula(m)
        if not abs(got - want) <= tol:
            problems.append(f"m={m}: measured {got!r}, closed form {want!r}")
    return problems


def verify_thm1_x3(report, levels):
    # ||T_{x3}|| = m/(m+2) exactly; reference is sup|x3| = 1
    return _closed_form(report, lambda m: m / (m + 2), 1e-10)


def verify_thm2_x1_x2(report, levels):
    # ||m i [T_x1, T_x2] - T_{x1,x2}|| = 4m/(m+2)^2 exactly
    return _closed_form(report, lambda m: 4 * m / (m + 2) ** 2, 1e-9) \
        + _failed_checks(report)


def verify_crosscheck(report, levels):
    return _closed_form(report, lambda m: 0.0, 1e-10) \
        + _level_checks(report, "agreement", levels)


def verify_tuynman(report, levels):
    return _level_checks(report, "identity", levels)


def verify_coherent(report, levels):
    return _level_checks(report, "sandwich", levels)


def thm3_reference(f_text, g_text, levels, order):
    """Star-product residual norms from the exact Beta path and LAPACK.

    ||T_f T_g - T_{fg} (- T_{C1}/m)|| with every T from `toeplitz_exact` and
    the 2-norm from singular values, independent of the CLI's quadrature
    assembly and of its norm method.
    """
    import numpy as np
    from btq import (SELECTED_C1_ORDERING, c1_candidate, multiply, parse,
                     toeplitz_exact)

    f, g = parse(f_text), parse(g_text)
    c0 = multiply(f, g)
    c1 = c1_candidate(f, g, SELECTED_C1_ORDERING)
    out = {}
    for m in levels:
        r = toeplitz_exact(f, m).mat @ toeplitz_exact(g, m).mat \
            - toeplitz_exact(c0, m).mat
        if order == 2:
            r = r - toeplitz_exact(c1, m).mat / m
        out[m] = float(np.linalg.norm(r, 2))
    return out


def thm3_verifier(f_text, g_text, order):
    def verify(report, levels):
        ref = thm3_reference(f_text, g_text, levels, order)
        problems = []
        for row in report["rows"]:
            got, want = row["measured"], ref[row["m"]]
            if not abs(got - want) <= 1e-6 * want:
                problems.append(f"m={row['m']}: residual {got!r}, reference {want!r}")
        return problems + _failed_checks(report)
    return verify


# -- workloads ------------------------------------------------------------


README = (
    Op("thm1", 128, ("thm1", "--f", "x3", "--levels", "8,16,32,64,128",
                     "--format", "csv"), verify_thm1_x3),
    Op("thm2", 256, ("thm2", "--f", "x1", "--g", "x2", "--levels",
                     "16,32,64,128,256", "--out", "thm2.json"),
       verify_thm2_x1_x2, out="thm2.json"),
    Op("thm3", 128, ("thm3", "--f", "x1", "--g", "x2", "--levels",
                     "16,32,64,128", "--order", "2"),
       thm3_verifier("x1", "x2", 2)),
    Op("tuynman", 32, ("tuynman", "--f", "x3^2", "--levels", "4,8,16,32"),
       verify_tuynman),
    Op("coherent", 128, ("coherent", "--f", "0.3 + x1 + 0.5*x2*x3", "--levels",
                         "8,16,32,64,128"), verify_coherent),
    Op("crosscheck", 32, ("crosscheck", "--f", "x1*x2", "--levels", "8,32"),
       verify_crosscheck),
)

STAR_PRODUCT = (
    Op("thm3-x1-x2x3", 128, ("thm3", "--f", "x1", "--g", "x2*x3", "--levels",
                             "16,32,64,128"),
       thm3_verifier("x1", "x2*x3", 2)),
)

HIGH_LEVEL = tuple(
    op for m in HIGH_LEVELS for op in (
        Op(f"crosscheck-m{m}", m, ("crosscheck", "--f", CRITERION10, "--levels",
                                   str(m), "--max-level", "1020"), verify_crosscheck),
        Op(f"tuynman-m{m}", m, ("tuynman", "--f", CRITERION10, "--levels", str(m),
                                "--max-level", "1020"), verify_tuynman),
    ))

CLI_WORKLOADS = {"readme": README, "star-product": STAR_PRODUCT,
                 "high-level": HIGH_LEVEL}
WORKLOADS = ("readme", "star-product", "high-level", "small-many")


def parse_report(op, data):
    """Report bytes -> rows (CSV) or the JSON report dict."""
    text = data.decode()
    if op.is_csv:
        return list(csv.DictReader(io.StringIO(text)))
    return json.loads(text)


def check_report(op, data):
    """Problems with an operation's report bytes (empty list: verified)."""
    try:
        report = parse_report(op, data)
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    try:  # a report that parses can still lack a field or hold a wrong type
        got = [int(row["m"]) for row in _rows(report)]
        if got != op.levels:
            return [f"report levels {got}, requested {op.levels}"]
        return op.verify(report, op.levels)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


# -- small-many inputs ----------------------------------------------------


def _normal_monomials(degree):
    """Exponents (a, b, c) with a <= 1 and a + b + c <= degree: the monomials
    btq's normal form keeps, so a symbol's term count is what was drawn."""
    return [(a, b, c) for a in (0, 1) for b in range(degree + 1)
            for c in range(degree + 1) if a + b + c <= degree]


def random_symbols(seed, count=SMALL_MANY_SYMBOLS):
    """Real symbols of degree 1-6 as expression strings, fixed by the seed.

    Symbol i has degree 1 + i % 6 and 1 + (i // 6) % 4 distinct normal-form
    monomials, the first of full degree, so every pass holds the same mix of
    degrees and sizes and the pass time does not swing with the seed.  The
    seed draws the monomials, the three-decimal coefficients and the signs.
    btq receives only the strings.
    """
    rng = random.Random(seed)
    exprs = []
    for i in range(count):
        degree = 1 + i % 6
        pool = _normal_monomials(degree)
        top = [e for e in pool if sum(e) == degree]
        first = rng.choice(top)
        pool.remove(first)
        monos = [first] + rng.sample(pool, (i // 6) % 4)
        parts = []
        for a, b, c in monos:
            powers = [f"x{k}^{e}" if e > 1 else f"x{k}"
                      for k, e in ((1, a), (2, b), (3, c)) if e]
            body = "*".join([f"{rng.randint(1, 999) / 1000:.3f}"] + powers)
            parts.append(("-" if rng.random() < 0.5 else "+", body))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        exprs.append(text + "".join(f" {s} {body}" for s, body in parts[1:]))
    return exprs


def symbols_hash(exprs):
    return hashlib.sha256(json.dumps(exprs).encode()).hexdigest()
