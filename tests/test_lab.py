import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from btq import lab, norms
from btq import operators as op
from btq import symbols as sy
from btq.errors import InsufficientDataError
from btq.geometry import SpherePoint
from btq.hilbert import coherent_state
from conftest import dense_hermitian, random_symbol
from test_symbols import _extrema_symbols

X1, X2, X3, ONE = sy.X1, sy.X2, sy.X3, sy.ONE


# -- rate fitting -------------------------------------------------------------


def rows_from_gaps(gaps):
    return [lab.ConvergenceRow.make(m, g, 0.0) for m, g in gaps.items()]


def test_fit_rate_model_family():
    rows = rows_from_gaps({m: 2.0 / (m + 2) for m in (8, 16, 32, 64, 128)})
    fit = lab.fit_rate(rows)  # default window: upper half {32, 64, 128}
    assert 0.93 <= fit.slope <= 1.0
    assert fit.window == [32, 64, 128]
    assert fit.r_squared > 0.999


def test_fit_rate_r_squared_is_the_squared_correlation(rng):
    # noisy, non-collinear rows: r2 must be the least-squares coefficient of
    # determination, which for a line is the squared correlation of the logs
    levels = (8, 16, 32, 64, 128, 256)
    for _ in range(5):
        rows = rows_from_gaps({m: m ** -1.0 * math.exp(0.4 * rng.randn())
                               for m in levels})
        fit = lab.fit_rate(rows, window=levels)
        x = np.log([r.m for r in rows])
        y = np.log([r.gap for r in rows])
        r2 = np.corrcoef(x, y)[0, 1] ** 2
        assert 0.0 < r2 < 0.999
        assert abs(fit.r_squared - r2) <= 1e-12


def test_fit_rate_constant_gaps():
    rows = rows_from_gaps({m: 0.37 for m in (4, 8, 16, 32)})
    fit = lab.fit_rate(rows, window=[4, 8, 16, 32])
    assert abs(fit.slope) < 1e-12


def test_fit_rate_second_order():
    rows = rows_from_gaps({m: 5.1 / m**2 for m in (8, 16, 32, 64)})
    fit = lab.fit_rate(rows, window=[8, 16, 32, 64])
    assert 1.9 <= fit.slope <= 2.1
    assert abs(fit.intercept - math.log(5.1)) < 1e-9


def test_fit_rate_insufficient_data():
    rows = rows_from_gaps({8: 0.1, 16: 0.05})
    with pytest.raises(InsufficientDataError):
        lab.fit_rate(rows, window=[8, 16])
    floor = rows_from_gaps({m: 1e-16 for m in (8, 16, 32, 64)})
    with pytest.raises(InsufficientDataError):
        lab.fit_rate(floor, window=[8, 16, 32, 64])


def test_fit_rate_leaves_out_level_zero():
    # log 0 has no place in the fit: a level-0 row is left out, like a gap
    # at the floor, so no run warns or fits nan over m = 0
    rows = rows_from_gaps({0: 1.0, 4: 0.5, 8: 0.25, 16: 0.125})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = lab.fit_rate(rows, window=[0, 4, 8, 16])
        assert fit.window == [4, 8, 16] and abs(fit.slope - 1.0) < 1e-12
        for rep in (lab.thm1_run(X3, [0, 4, 8]),
                    lab.coherent_run(X3, SpherePoint.from_z(0), [0, 4, 8])):
            assert [r.m for r in rep.rows] == [0, 4, 8] and rep.fit is None


def test_default_window_is_upper_half():
    assert lab.default_window([8, 16, 32, 64, 128]) == [32, 64, 128]
    assert lab.default_window([2, 4, 8, 16, 32, 64]) == [16, 32, 64]
    # short lists keep three fit points when they exist
    assert lab.default_window([4, 8, 16, 32]) == [8, 16, 32]
    assert lab.default_window([4, 8]) == [4, 8]


# -- thm1 ----------------------------------------------------------------------


def test_thm1_x3_gap_family():
    rep = lab.thm1_run(X3, [8, 16, 32])
    gaps = {r.m: r.gap for r in rep.rows}
    assert abs(gaps[8] - 0.2) < 1e-10
    assert abs(gaps[32] - 2.0 / 34.0) < 1e-10
    assert rep.passed


def test_thm1_constant():
    rep = lab.thm1_run(sy.constant(2.5), [2, 4, 8])
    assert all(r.gap <= 1e-12 for r in rep.rows)
    assert rep.fit is None  # gaps at the machine floor are excluded
    assert rep.passed
    # ||T_c|| = |c| (1 + Gram defect): the slack scales with c
    assert lab.thm1_run(sy.constant(1e8), [8, 64]).passed


def test_thm1_passes_beside_a_pole_at_m1000():
    # symbol 23's maximum lies within about 0.1 of a pole: ||T_f|| at
    # m = 1000 (0.97940) once exceeded a searched sup of 0.976; sampling
    # reaches 0.98337
    f = _extrema_symbols()[23]
    rep = lab.thm1_run(f, [1000])
    assert rep.passed, rep.checks
    row = rep.rows[0]
    assert 0.9794 < row.measured < row.reference and row.reference > 0.98337


def test_thm1_monotone_norms():
    rep = lab.thm1_run(X3, [4, 8, 16, 32])
    meas = [r.measured for r in rep.rows]
    assert all(b > a for a, b in zip(meas, meas[1:]))


# -- thm2 ----------------------------------------------------------------------


def test_thm2_spin_oracle_confirmed_small_m():
    # confirm 4m/(m+2)^2 against the exact-moment path before freezing
    for m in (1, 2, 3):
        tf, tg = op.toeplitz_exact(X1, m), op.toeplitz_exact(X2, m)
        tfg = op.toeplitz_exact(sy.poisson_bracket(X1, X2), m)
        defect = (1j * m) * op.commutator(tf, tg) - tfg
        d = op.operator_norm(defect)
        assert abs(d - 4 * m / (m + 2) ** 2) < 1e-13


def test_thm2_defect_values():
    rep = lab.thm2_run(X1, X2, [2, 8, 32])
    gaps = {r.m: r.gap for r in rep.rows}
    assert abs(gaps[2] - 0.5) < 1e-12
    assert abs(gaps[8] - 0.32) < 1e-12
    assert abs(gaps[32] - 4 * 32 / 34**2) < 1e-12


def test_thm2_same_symbol_vanishes():
    rep = lab.thm2_run(X3, X3, [2, 4, 8])
    assert all(r.gap == 0.0 for r in rep.rows)


def test_thm2_antisymmetry_transport():
    r1 = lab.thm2_run(X1, X3, [4, 8, 16])
    r2 = lab.thm2_run(X3, X1, [4, 8, 16])
    for a, b in zip(r1.rows, r2.rows):
        assert abs(a.gap - b.gap) < 1e-12


def test_hbar_is_reciprocal_level():
    rep = lab.thm2_run(X1, X2, [4, 8])
    for r in rep.rows:
        assert r.hbar == 1.0 / r.m


# -- thm3 ----------------------------------------------------------------------


def test_thm3_first_order_residual_m2():
    reps = lab.thm3_run(X3, X3, [2])
    # beta-moment oracle: max_k |t_k^2 - d_k| with t=(1/2,0,-1/2), d=(2/5,1/5,2/5)
    t = np.array([0.5, 0.0, -0.5])
    d = np.array([0.4, 0.2, 0.4])
    expect = np.max(np.abs(t**2 - d))
    assert abs(expect - 0.2) < 1e-15
    assert abs(reps[1].rows[0].measured - expect) < 1e-12


def test_thm3_identity_pair_vanishes():
    reps = lab.thm3_run(X1 * X3, ONE, [2, 4, 8])
    for order in (1, 2):
        assert all(r.gap < 1e-13 for r in reps[order].rows)


def test_thm3_selected_ordering_second_order_closed_form():
    reps = lab.thm3_run(X3, X3, [8, 16, 32])
    for r in reps[2].rows:
        expect = 2.0 / (r.m * (r.m + 3))
        assert abs(r.measured - expect) < 1e-8 * expect


def test_thm3_candidate_discrimination():
    levels = [16, 32, 64]
    sel = lab.thm3_run(X1, X2, levels)
    rej = lab.thm3_run(X1, X2, levels, c1_ordering=sy.REJECTED_C1_ORDERING)
    fit_sel = lab.fit_rate(sel[2].rows, window=levels)
    fit_rej = lab.fit_rate(rej[2].rows, window=levels)
    fit_n1 = lab.fit_rate(sel[1].rows, window=levels)
    assert fit_sel.slope > 1.7
    assert fit_rej.slope < 1.3
    # the rejected candidate decays no faster than the N=1 residual
    assert fit_rej.slope < fit_n1.slope + 0.25


def test_thm3_refuses_level_zero(monkeypatch):
    # the N=2 residual divides T_{C1} by m: refused before any symbol or operator
    def built(*args):
        raise AssertionError("work began")

    monkeypatch.setattr(lab, "multiply", built)
    monkeypatch.setattr(lab, "toeplitz", built)
    with pytest.raises(ValueError, match="m >= 1"):
        lab.thm3_run(X1, X2, [0, 1, 2])


def test_thm3_k_estimate():
    reps = lab.thm3_run(X3, X3, [8, 16, 32])
    # m^2 * residual = 2m/(m+3) on the window, increasing toward 2
    expect = max(2.0 * m / (m + 3) for m in (16, 32))
    assert abs(reps[2].k_estimate - expect) < 1e-6


# -- tuynman --------------------------------------------------------------------


def test_tuynman_run_examples():
    rep = lab.tuynman_run(X3, [2, 4])
    assert all(r.measured <= 1e-10 for r in rep.rows)
    assert rep.passed and rep.fit is None

    rep_const = lab.tuynman_run(sy.constant(3.0), [2, 4])
    assert all(r.measured < 1e-13 for r in rep_const.rows)

    rep_sq = lab.tuynman_run(X3 * X3, [8])
    assert rep_sq.passed
    assert rep_sq.rows[0].measured <= 1e-8


def test_tuynman_run_mixed_symbol(rng):
    f = random_symbol(rng, degree=2)
    rep = lab.tuynman_run(f, [4, 8, 16])
    assert rep.passed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 17: the normal form of x1^d cancels digits")
@pytest.mark.parametrize("d", [50, 56, 64])
def test_high_powers_of_x1_keep_their_exact_identities(d):
    # x2^d and x3^d pass both; x1^d is rewritten through x1^2 = 1 - x2^2 - x3^2
    # into coefficients of l1 norm 1.9e15 at d = 64, and its sup norm (1) comes
    # back as 0.99999982 there.  Leave crosscheck out: its 1e-10 coeff_max
    # tolerance (item 18) admits the disagreement
    f = X1 ** d
    assert lab.tuynman_run(f, [8, 16, 33]).passed
    assert abs(sy.sup_norm(f) - 1.0) <= 1e-13


def test_tuynman_run_norm_matches_svd(rng):
    # real f: -i Q_f passes the hermiticity check and is normed by eigvalsh;
    # complex f: it does not, and is normed by eigvalsh of its A^H A; the
    # SVD's largest singular value agrees either way
    for f, hermitian in ((random_symbol(rng, degree=3), True),
                         (random_symbol(rng, degree=3, real=False), False)):
        for m in (1, 9, 40):
            q = op.prequantum(f, m).mat
            assert op.QuantumOperator(m, -1j * q).hermitian is hermitian
            rep = lab.tuynman_run(f, [m])
            detail = rep.checks[0].detail
            qnorm = float(detail.split("|Q|=")[1])
            svd = float(np.linalg.norm(q, 2))
            assert abs(qnorm - svd) <= 1e-12 * svd


def test_tuynman_and_crosscheck_rows_match_dense_reference():
    # dense arithmetic, inline: defects of full matrices, the norm of the
    # Hermitian -i Q_f by eigvalsh on the dense array; past WINDOW_ROWS rows
    # (m = 300) the report's norm is the band norm, within 1e-12
    f = sy.parse("x1*x2*x3^2 + 0.25*x1^2*x2^2 - x3 + 0.125")
    for m in (64, 300):
        q = op.prequantum(f, m).mat
        defect = float(np.max(np.abs(q - op.tuynman_rhs(f, m).mat)))
        h = -1j * q
        assert dense_hermitian(h)
        qnorm = float(np.max(np.abs(np.linalg.eigvalsh(h))))
        rep = lab.tuynman_run(f, [m])
        assert rep.rows[0].measured == defect
        detail, got = rep.checks[0].detail.split(" |Q|=")
        assert detail == f"defect={defect!r}"
        if m + 1 <= norms.WINDOW_ROWS:
            assert float(got) == qnorm
        else:
            assert abs(float(got) - qnorm) <= 1e-12 * qnorm
        a = op.toeplitz(f, m).mat
        b = op.toeplitz_exact(f, m).mat
        c = op.kernel_matrix(f, m).mat
        d = float(max(np.max(np.abs(a - b)), np.max(np.abs(a - c)),
                      np.max(np.abs(b - c))))
        assert lab.crosscheck_run(f, [m]).rows[0].measured == d


def test_cross_check_builds_one_table_per_level(monkeypatch):
    # only the quadrature path reads a basis table; the kernel path uses
    # the rule's nodes and weights
    built, grid = [], op.basis_eval_grid

    def spy(m, rule):
        built.append(m)
        return grid(m, rule)

    monkeypatch.setattr(op, "basis_eval_grid", spy)
    for m in (4, 16, 64):
        assert lab.cross_check(X1 * X2 + X3, m) < 1e-10
    assert built == [4, 16, 64]


def test_thm_residuals_keep_the_band(monkeypatch):
    seen, norms = [], []
    norm = lab.operator_norm

    def spy(t):
        seen.append((t.band, t.hermitian))
        norms.append((norm(t), float(np.linalg.norm(t.mat, 2))))
        return norms[-1][0]

    monkeypatch.setattr(lab, "operator_norm", spy)
    lab.thm2_run(X1 * X2, X3 * X3 + X1, [8, 16])  # deg f + deg g = 4
    assert seen == [(4, True)] * 2
    seen.clear()
    lab.thm3_run(X1, X2 * X3, [8, 16])  # 1 + 2, both orders
    assert seen == [(3, False)] * 4
    seen.clear()
    norms.clear()
    lab.thm3_run(X3, X3, [8, 16])  # commuting pair: Hermitian residuals, by eigvalsh
    assert seen == [(2, True)] * 4
    for got, svd in norms:
        assert abs(got - svd) <= 1e-12 * svd


# -- coherent -------------------------------------------------------------------


def test_coherent_x3_north():
    north = SpherePoint.from_z(0)
    rep = lab.coherent_run(X3, north, [4, 8, 16])
    for r in rep.rows:
        assert abs(r.measured - r.m / (r.m + 2)) < 1e-10
    assert rep.passed
    assert rep.fit is not None  # north maximizes x3
    # the state is an eigenvector, l_m = ||T_f||: the slack scales with f
    for c in (1e8, 1e12):
        assert lab.coherent_run(c * X3, north, [4, 8, 16]).passed


def test_coherent_constant():
    rep = lab.coherent_run(sy.constant(-1.5), SpherePoint.from_z(0.3), [2, 4, 8])
    for r in rep.rows:
        assert abs(r.measured - 1.5) < 1e-12
    assert rep.fit is None  # zero gaps, nothing to fit


def test_coherent_equator_limit():
    # <phi, T_x3 phi> vanishes identically at an equatorial base point, so
    # the limit l_m -> |f(x0)| = 0 is trivially exact
    equator = SpherePoint.from_ambient(1.0, 0.0, 0.0)
    rep = lab.coherent_run(X3, equator, [4, 16, 64])
    assert rep.fit is None  # not the maximizer: limit check only
    assert all(r.measured <= 1e-12 for r in rep.rows)
    assert all(r.reference == 0.0 for r in rep.rows)
    # a tilted observable gives a genuinely decaying gap at the same point
    f = X3 + 0.25 * X1
    rep2 = lab.coherent_run(f, equator, [4, 16, 64])
    gaps = {r.m: abs(r.measured - r.reference) for r in rep2.rows}
    assert gaps[64] < gaps[16] < gaps[4]


def test_coherent_flip_equivariance():
    # the rotation (x1, x2, x3) -> (x1, -x2, -x3) is unitary on sections:
    # rotating f and a base point outside the unit disk together leaves l_m
    f = X3 + 0.5 * X1
    p = SpherePoint.from_z(3.0 + 0.1j)
    rep1 = lab.coherent_run(f, p, [4, 8])
    assert rep1.f == f
    flipped_f = sy.Symbol({(a, b, c): v * (-1.0) ** (b + c)
                           for (a, b, c), v in f.terms.items()})
    x1, x2, x3 = p.ambient()
    flipped_p = SpherePoint.from_ambient(x1, -x2, -x3)
    assert abs(flipped_p.z) <= 1.0
    rep2 = lab.coherent_run(flipped_f, flipped_p, [4, 8])
    for a, b in zip(rep1.rows, rep2.rows):
        assert abs(a.measured - b.measured) < 1e-12


def test_coherent_reports_thm1_sup_at_every_maximizer():
    # maximizers beyond the unit disk or at the south pole: coherent's
    # ||f||_inf is thm1's reference, so the fit path engages at each one.
    # The base point is the searched maximizer, or its first image under a
    # sign flip of x3 (and of x1, x2) that is a maximizer too and lies south
    # of the equator; constants have none.  Where |f| peaks at several
    # points, the search returns the one first in its tie order, the
    # largest x3: 13 searched maximizers lie south, and 22 more symbols
    # have a south image
    levels = [8, 16, 32, 64]
    cases = searched = 0
    for f in _extrema_symbols():
        if not f.degree:
            continue
        sup, x0 = sy.sup_norm_argmax(f)
        x1, x2, x3 = x0.ambient()
        tol = 1e-9 * max(1.0, f.coeff_max())
        south = [p for p in ((x1, x2, x3), (x1, x2, -x3), (-x1, x2, -x3),
                             (x1, -x2, -x3), (-x1, -x2, -x3))
                 if p[2] < -1e-6 and abs(abs(sy.eval_ambient(f, *p).real) - sup) <= tol]
        if not south:
            continue
        cases += 1
        searched += south[0] == (x1, x2, x3)
        rep = lab.coherent_run(f, SpherePoint.from_ambient(*south[0]), levels)
        ref = lab.thm1_run(f, levels[:1]).rows[0].reference
        for check in rep.checks:
            assert float(check.detail.rsplit("sup=", 1)[1]) == ref, f
        assert rep.fit is not None, f
    assert (cases, searched) == (35, 13)


def test_coherent_base_point_near_a_pole():
    # within 1e-8 of a pole, x3 alone locates the point only to about 1e-8;
    # the state must agree with the chart representative (1 + conj(z0) z)^m
    f = sy.parse("x3 + 0.5*x1 + 0.3*x2")
    for z0 in (3e-8 + 1e-8j, 1e-5j, -1e5j, 3e8):
        rep = lab.coherent_run(f, SpherePoint.from_z(z0), [4, 16])
        for r in rep.rows:
            c = coherent_state(r.m, z0)
            t = op.toeplitz(f, r.m)
            ref = abs(np.vdot(c.coeffs, (t @ c).coeffs)) / np.vdot(c.coeffs, c.coeffs).real
            assert abs(r.measured - ref) <= 1e-14 * ref, (z0, r.m)


def test_coherent_south_pole_base_point():
    rep = lab.coherent_run(X3, SpherePoint.infinity(), [4, 8])
    # |x3(south)| = 1 = sup, so the fit path engages and l_m = m/(m+2)
    for r in rep.rows:
        assert abs(r.measured - r.m / (r.m + 2)) < 1e-10


def test_coherent_run_stays_in_float_range():
    # at |z0| = 1 the chart representative has <phi, phi> ~ 2^m, and
    # <phi, T phi> overflows at m = 1020; the run's state is that one scaled
    # by 2^(-m/2)
    f = 1e4 * X1
    rep = lab.coherent_run(f, SpherePoint.from_z(1.0), [1020])
    assert rep.passed and math.isfinite(rep.rows[0].measured)
    assert abs(rep.rows[0].measured - 1e4 * 1020 / 1022) < 1e-8


# -- cross-check and reports ------------------------------------------------------


def test_cross_check_examples(rng):
    assert lab.cross_check(X3, 16) < 1e-12
    assert lab.cross_check(ONE, 9) < 1e-14
    assert lab.cross_check(X1 * X2, 32) < 1e-10


def test_cross_check_holds_at_the_top_levels():
    # 1/C(m+d, A) reaches 2^-(m + deg f) here, below the normal floats: a path
    # that carries it as a float goes subnormal and misses by up to 0.09
    for expr in ("x3^40", "x3^64", "x1*x3^63"):
        f = sy.parse(expr)
        for m in (1000, 1020):
            assert lab.cross_check(f, m) <= 1e-10, (expr, m)


def test_crosscheck_run_passes():
    rep = lab.crosscheck_run(X1 * X2, [4, 8])
    assert rep.passed
    # T_{cf} = c T_f: the bound scales with the coefficients, so a large
    # symbol's roundoff (6e-10 at m = 256) is not a disagreement
    rep = lab.crosscheck_run(sy.parse("1e6*x1*x2*x3^2 + x3"), [8, 64, 256])
    assert rep.passed


def test_report_json_schema():
    rep = lab.thm1_run(X3, [4, 8, 16])
    obj = json.loads(rep.to_json())
    for key in ("experiment", "f", "g", "conventions", "rows", "fit",
                "K_estimate", "checks"):
        assert key in obj
    assert obj["g"] is None
    assert obj["experiment"] == "thm1"
    assert list(obj["rows"][0]) == ["m", "hbar", "measured", "reference", "gap"]
    assert set(obj["fit"]) == {"slope", "intercept", "r2", "window"}
    assert obj["conventions"]["poisson_constant"] == 2.0


def test_report_csv_matches_json_numbers():
    rep = lab.thm2_run(X1, X2, [4, 8, 16])
    obj = json.loads(rep.to_json())
    reader = csv.DictReader(io.StringIO(rep.to_csv()))
    csv_rows = list(reader)
    assert reader.fieldnames == ["m", "hbar", "measured", "reference", "gap"]
    for jrow, crow in zip(obj["rows"], csv_rows):
        for key in ("hbar", "measured", "reference", "gap"):
            assert float(crow[key]) == jrow[key]
        assert int(crow["m"]) == jrow["m"]
