import json
import math
import pathlib

import numpy as np
import pytest

from btq import symbols as sy
from btq.errors import SymbolSyntaxError, UnknownIdentifierError
from btq.geometry import KahlerConventions, SpherePoint, make_rule, phi_grid
from conftest import random_symbol

X1, X2, X3, ONE = sy.X1, sy.X2, sy.X3, sy.ONE


# -- parser -------------------------------------------------------------------


def test_parse_coordinate():
    assert sy.parse("x3").terms == {(0, 0, 1): 1.0 + 0j}


def test_parse_sphere_relation_normal_form():
    assert sy.parse("x1^2").terms == {(0, 0, 0): 1.0 + 0j,
                                      (0, 2, 0): -1.0 + 0j,
                                      (0, 0, 2): -1.0 + 0j}


def test_parse_unknown_identifier_offset():
    with pytest.raises(UnknownIdentifierError) as err:
        sy.parse("x4 + 1")
    assert err.value.position == 0
    assert "x4" in str(err.value)


def test_parse_rejects_non_finite_coefficients():
    for text in ("1e400*x3", "1e300*1e300*x3", "(1e200*x3)^2",
                 "1e308*x3 + 1e308*x3", "1e308*x3^2", "1e308*x3 - 1e308*x1",
                 "1e300*x3", "2e250*x3", "1e250*x3 - 1e250*x1"):
        with pytest.raises(SymbolSyntaxError):
            sy.parse(text)
    assert sy.COEFF_L1_BOUND == 1e250
    assert sy.parse("1e250*x3").terms == {(0, 0, 1): 1e250}


def test_parse_syntax_errors_carry_positions():
    with pytest.raises(SymbolSyntaxError) as err:
        sy.parse("x1 + * x2")
    assert err.value.position == 5
    with pytest.raises(SymbolSyntaxError):
        sy.parse("(x1 + x2")
    with pytest.raises(SymbolSyntaxError):
        sy.parse("x1 ^ 2.5")
    with pytest.raises(SymbolSyntaxError) as err:
        sy.parse("2 $ 3")
    assert err.value.position == 2
    with pytest.raises(SymbolSyntaxError):
        sy.parse("")


def test_parse_whitespace_and_numbers():
    assert sy.parse("  x1 * x2  ") == sy.parse("x1*x2")
    assert sy.parse("0.3 + .5*x3 + 1e-2") == \
        sy.constant(0.3) + 0.5 * X3 + sy.constant(0.01)


def test_parse_precedence_and_unary_minus():
    assert sy.parse("x1 + x2*x3^2") == X1 + X2 * X3 * X3
    assert sy.parse("-x3^2") == -(X3 ** 2)
    assert sy.parse("(x1+x2)^2") == (X1 + X2) ** 2
    assert sy.parse("2 - -x3") == sy.constant(2) + X3


def test_expr_tree_matches_compiled_symbol(rng):
    texts = ["x1 + x2*x3^2 - 0.25", "(x1 - x2)^3", "-x1*x2*x3 + x3^4",
             "0.5*(x1^2 - x2^2) + x3"]
    for text in texts:
        tree = sy.parse_expr(text)
        f = sy.compile_expr(tree)
        for _ in range(100):
            v = rng.randn(3)
            v /= np.linalg.norm(v)
            direct = sy.eval_expr(tree, *v)
            compiled = sy.eval_ambient(f, *v)
            assert abs(direct - compiled) < 1e-12


# -- ring operations ----------------------------------------------------------


def test_multiply_examples():
    assert X3 * X3 == sy.Symbol({(0, 0, 2): 1.0})
    assert X1 * X1 == ONE - X2 ** 2 - X3 ** 2
    f = sy.parse("x1*x2 - 3*x3")
    assert sy.multiply(f, ONE) == f


def test_ring_axioms_exact(rng):
    for _ in range(20):
        f, g, h = (random_symbol(rng) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f * g).degree <= f.degree + g.degree


def test_normal_form_high_powers():
    f = sy.Symbol({(5, 0, 0): 1.0})
    # x1^5 = x1 (1 - x2^2 - x3^2)^2
    expect = X1 * (ONE - X2**2 - X3**2) ** 2
    assert f == expect
    assert all(a <= 1 for (a, _, _) in f.terms)


# -- Poisson bracket ----------------------------------------------------------


def test_bracket_structure_constants():
    pb = sy.poisson_bracket
    assert pb(X1, X2) == 2 * X3
    assert pb(X2, X3) == 2 * X1
    assert pb(X3, X1) == 2 * X2


def test_bracket_trivial_cases():
    f = sy.parse("x3^2 + x1")
    assert sy.poisson_bracket(f, f).is_zero
    assert sy.poisson_bracket(X3, X3 * X3).is_zero
    assert sy.poisson_bracket(f, sy.constant(4.2)).is_zero


def test_bracket_sign_flips_with_convention():
    conv = KahlerConventions(poisson_constant=-2.0)
    assert sy.poisson_bracket(X1, X2, conv) == -2 * X3


def test_leibniz_and_jacobi_coefficient_exact(rng):
    pb = sy.poisson_bracket
    for _ in range(50):
        f, g, h = (random_symbol(rng, degree=3) for _ in range(3))
        leibniz = pb(f * g, h) - f * pb(g, h) - pb(f, h) * g
        assert leibniz.is_zero
        jacobi = pb(f, pb(g, h)) + pb(g, pb(h, f)) + pb(h, pb(f, g))
        assert jacobi.is_zero
        anti = pb(f, g) + pb(g, f)
        assert anti.is_zero


def test_bracket_real_closure(rng):
    for _ in range(10):
        f, g = random_symbol(rng), random_symbol(rng)
        assert sy.poisson_bracket(f, g).is_real


def test_bracket_matches_stereographic_formula():
    # Example-2 oracle: {f,g} = i (1+z zbar)^2 (dzbar f dz g - dz f dzbar g),
    # checked symbolically for the coordinate functions.
    sp = pytest.importorskip("sympy")
    z, zb = sp.symbols("z zbar")
    u = 1 + z * zb
    chart = [(z + zb) / u, -sp.I * (z - zb) / u, (1 - z * zb) / u]

    def to_chart(f):
        return sum(c * chart[0]**a * chart[1]**b * chart[2]**e
                   for (a, b, e), c in f.terms.items())

    pairs = [(X1, X2), (X2, X3), (X3, X1), (X1 * X3, X2), (X2 * X2, X3)]
    for f, g in pairs:
        fc, gc = to_chart(f), to_chart(g)
        oracle = sp.I * u**2 * (sp.diff(fc, zb) * sp.diff(gc, z)
                                - sp.diff(fc, z) * sp.diff(gc, zb))
        ours = to_chart(sy.poisson_bracket(f, g))
        assert sp.simplify(oracle - ours) == 0


# -- Laplacian ----------------------------------------------------------------


def test_laplacian_examples():
    assert sy.laplace_beltrami(ONE).is_zero
    assert sy.laplace_beltrami(X3) == -4 * X3
    assert sy.laplace_beltrami(X3 * X3) == sy.constant(4) - 12 * X3 ** 2


def test_laplacian_spherical_harmonic_eigenvalues():
    # degree-l harmonics have eigenvalue -2 l(l+1) in this normalization
    assert sy.laplace_beltrami(X1 * X2) == -12 * (X1 * X2)
    y20 = X3 * X3 - sy.constant(1.0 / 3.0)
    assert (sy.laplace_beltrami(y20) + 12 * y20).coeff_max() < 1e-15


def test_laplacian_matches_chart_oracle():
    # oracle: 2 (1+z zbar)^2 dz dzbar applied to the chart representative
    sp = pytest.importorskip("sympy")
    z, zb = sp.symbols("z zbar")
    u = 1 + z * zb
    chart = [(z + zb) / u, -sp.I * (z - zb) / u, (1 - z * zb) / u]

    def to_chart(f):
        return sum(c * chart[0]**a * chart[1]**b * chart[2]**e
                   for (a, b, e), c in f.terms.items())

    for f in (X3, X3 * X3, X1 * X2, X1 + 2 * X2 * X3):
        oracle = sp.simplify(2 * u**2 * sp.diff(to_chart(f), z, zb))
        ours = to_chart(sy.laplace_beltrami(f))
        assert sp.simplify(oracle - ours) == 0


def test_laplacian_linear_real_and_sign_convention(rng):
    f, g = random_symbol(rng), random_symbol(rng)
    lap = sy.laplace_beltrami
    assert lap(f + g) == lap(f) + lap(g)
    assert lap(f).is_real
    conv = KahlerConventions(laplace_sign=-1)
    assert lap(X3, conv) == 4 * X3


def test_laplacian_symmetric_against_quadrature(rng):
    for _ in range(5):
        f, g = random_symbol(rng, degree=3), random_symbol(rng, degree=3)
        lf, lg = sy.laplace_beltrami(f), sy.laplace_beltrami(g)
        deg = max(lf.degree + g.degree, f.degree + lg.degree)
        rule, phi = make_rule(0, deg), phi_grid(deg)[None, :]
        s = rule.s_nodes[:, None]
        w = rule.s_weights[:, None] * (2.0 * math.pi / phi.size)
        rho = 2.0 * np.sqrt(s * (1 - s))
        xyz = (rho * np.cos(phi), rho * np.sin(phi), 1 - 2 * s)
        lhs = np.sum(w * sy.eval_ambient(lf * g, *xyz))
        rhs = np.sum(w * sy.eval_ambient(f * lg, *xyz))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


# -- C1 candidates ------------------------------------------------------------


def test_c1_examples():
    assert sy.c1_candidate(X3, X3) == ONE - X3 ** 2
    assert sy.c1_candidate(X1, sy.constant(5.0)).is_zero
    assert sy.c1_candidate(sy.constant(5.0), X1).is_zero
    expect = 0.5 * (ONE + X3**2 - X1**2 + X2**2)
    assert sy.c1_candidate(X1, X1) == expect


def test_c1_orderings_relation(rng):
    # the two candidates are negated transposes of each other
    for _ in range(10):
        f, g = random_symbol(rng), random_symbol(rng)
        a = sy.c1_candidate(f, g, "dzbar-dz")
        b = sy.c1_candidate(g, f, "dz-dzbar")
        assert (a + b).is_zero
    with pytest.raises(ValueError):
        sy.c1_candidate(X1, X2, "sideways")


def test_c1_antisymmetrization_identity_exact(rng):
    for ordering in sy.C1_ORDERINGS:
        for _ in range(50):
            f, g = random_symbol(rng, degree=3), random_symbol(rng, degree=3)
            defect = sy.c1_candidate(f, g, ordering) \
                - sy.c1_candidate(g, f, ordering) \
                + 1j * sy.poisson_bracket(f, g)
            assert defect.is_zero


def test_c1_associativity_cocycle_exact(rng):
    for ordering in sy.C1_ORDERINGS:
        for _ in range(50):
            f, g, h = (random_symbol(rng, degree=3) for _ in range(3))
            c1 = lambda a, b: sy.c1_candidate(a, b, ordering)
            defect = c1(f, g) * h + c1(f * g, h) - f * c1(g, h) - c1(f, g * h)
            assert defect.is_zero


def test_c1_bilinear(rng):
    f, g, h = (random_symbol(rng) for _ in range(3))
    c1 = sy.c1_candidate
    assert c1(f + g, h) == c1(f, h) + c1(g, h)
    assert c1(f, g + h) == c1(f, g) + c1(f, h)


def test_c1_fixture_matches_symbolic_oracle(rng):
    sp = pytest.importorskip("sympy")
    z, zb = sp.symbols("z zbar")
    u = 1 + z * zb
    chart = [(z + zb) / u, -sp.I * (z - zb) / u, (1 - z * zb) / u]
    table = sy.c1_contraction_table()
    samples = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(12)]
    for i in range(3):
        for j in range(3):
            oracle = sp.lambdify((z, zb), u**2 * sp.diff(chart[i], zb)
                                 * sp.diff(chart[j], z), "numpy")
            for zz in samples:
                p = SpherePoint.from_z(zz)
                ours = sy.evaluate(table[i][j], p)
                theirs = complex(oracle(zz, np.conj(zz)))
                assert abs(ours - theirs) < 1e-12


def test_c1_fixture_regenerates_identically(tmp_path):
    pytest.importorskip("sympy")
    import importlib.util
    root = pathlib.Path(__file__).resolve().parents[1]
    script = root / "scripts" / "derive_c1_table.py"
    spec = importlib.util.spec_from_file_location("derive_c1_table", script)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    table = []
    import sympy as sp
    for i in range(3):
        row = []
        for j in range(3):
            gij = sp.simplify(mod.u ** 2 * sp.diff(mod.X[i], mod.zb)
                              * sp.diff(mod.X[j], mod.z))
            coeffs = mod.to_ambient(gij)
            row.append({"terms": [
                {"e": list(e), "re": c.real, "im": c.imag}
                for e, c in sorted(coeffs.items()) if c != 0]})
        table.append(row)
    committed = json.loads((root / "src/btq/data/c1_table.json").read_text())
    assert committed == {"G": table}


# -- evaluation, sup norm, serialization ---------------------------------------


def test_eval_examples(rng):
    north = SpherePoint.from_z(0)
    assert sy.evaluate(X3, north) == 1.0
    assert abs(sy.evaluate(X3, SpherePoint.from_z(1.0))) == 0.0
    sphere = X1**2 + X2**2 + X3**2
    for _ in range(20):
        p = SpherePoint.from_z(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        assert abs(sy.evaluate(sphere, p) - 1.0) < 1e-14


def test_real_symbols_evaluate_real(rng):
    for _ in range(10):
        f = random_symbol(rng)
        assert f.is_real
        p = SpherePoint.from_z(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        assert abs(sy.evaluate(f, p).imag) < 1e-13 * max(1.0, f.coeff_max())
    assert not (1j * X1).is_real


def test_sup_norm_examples():
    assert abs(sy.sup_norm(X3) - 1.0) < 1e-12
    assert sy.sup_norm(sy.constant(2.5)) == 2.5
    assert abs(sy.sup_norm(X1**2 + X2**2) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        sy.sup_norm(1j * X3)


def test_sup_norm_argmax_at_pole():
    val, point = sy.sup_norm_argmax(X3)
    assert abs(val - 1.0) < 1e-12
    assert abs(abs(point.ambient()[2]) - 1.0) < 1e-9


def test_sup_norm_nondecreasing_in_resolution():
    f = sy.parse("x3 + 0.4*x1*x2 - 0.2*x2^2")
    vals = [sy.sup_norm(f, resolution=r) for r in (24, 48, 96, 192)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12
    # refinement pins the value independently of the coarse grid
    assert max(vals) - min(vals) < 1e-9


def test_sup_norm_interior_maximum():
    # f = x3 + x3^2 has max 2 at the pole, but |f| also sees -1/4 at x3=-1/2
    f = X3 + X3 * X3
    assert abs(sy.sup_norm(f) - 2.0) < 1e-12
    fmin, fmax, _, _ = sy.grid_extrema(f)
    assert abs(fmin + 0.25) < 1e-10


def _scalar_refine(f, u0, phi0, sign, rounds=48, local=7):
    # reference search: one start at a time, evaluating through the complex
    # eval_ambient
    def real_values(u, phi):
        rho = np.sqrt(np.maximum(0.0, 1.0 - u * u))
        return np.real(sy.eval_ambient(f, rho * np.cos(phi), rho * np.sin(phi), u))

    du, dphi = 2.0 / local, 2.0 * math.pi / local
    best_u, best_phi = u0, phi0
    best = sign * real_values(np.array([u0]), np.array([phi0]))[0]
    for _ in range(rounds):
        us = np.clip(np.linspace(best_u - du, best_u + du, local), -1.0, 1.0)
        ps = np.linspace(best_phi - dphi, best_phi + dphi, local)
        uu, pp = np.meshgrid(us, ps, indexing="ij")
        vals = sign * real_values(uu.ravel(), pp.ravel())
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = vals[k]
            best_u, best_phi = uu.ravel()[k], pp.ravel()[k]
        du *= 0.5
        dphi *= 0.5
    return best, best_u, best_phi


def _scalar_grid_extrema(f, resolution=96):
    u = np.linspace(-1.0, 1.0, resolution)
    phi = np.linspace(0.0, 2.0 * math.pi, 2 * resolution, endpoint=False)
    uu, pp = np.meshgrid(u, phi, indexing="ij")
    uu, pp = uu.ravel(), pp.ravel()
    rho = np.sqrt(np.maximum(0.0, 1.0 - uu * uu))
    vals = np.real(sy.eval_ambient(f, rho * np.cos(pp), rho * np.sin(pp), uu))
    out = []
    for sign in (1.0, -1.0):
        order = np.argsort(sign * vals)[::-1][:4]
        cand = [_scalar_refine(f, uu[k], pp[k], sign) for k in order]
        v, cu, cp = max(cand, key=lambda t: t[0])
        r = math.sqrt(max(0.0, 1.0 - cu * cu))
        pt = SpherePoint.from_ambient(r * math.cos(cp), r * math.sin(cp), cu)
        out.append((float(sign * v), pt.ambient()))
    (fmax, amax), (fmin, amin) = out
    return fmin, fmax, amin, amax


def _extrema_symbols():
    """48 seeded real symbols of degree 1-6 (non-integer coefficients), then
    edge cases: zero, a constant, a pole maximum, an interior minimum, and
    the README coherent-state symbol."""
    rng = np.random.RandomState(2024)
    out = []
    for i in range(48):
        degree = 1 + i % 6
        terms = {}
        for _ in range(1 + i % 5):
            e = (degree + 1, 0, 0)
            while sum(e) > degree:
                e = tuple(int(x) for x in rng.randint(0, degree + 1, 3))
            terms[e] = round(float(rng.uniform(-2.0, 2.0)), 3)
        terms.setdefault((0, 0, degree), 1.0)
        out.append(sy.Symbol(terms))
    return out + [sy.Symbol({}), sy.constant(-1.75), X3, X3 + X3 * X3,
                  sy.parse("0.3 + x1 + 0.5*x2*x3")]


def test_grid_extrema_matches_scalar_refinement():
    for f in _extrema_symbols():
        fmin, fmax, arg_min, arg_max = sy.grid_extrema(f)
        ref = _scalar_grid_extrema(f)
        assert (fmin, fmax, arg_min.ambient(), arg_max.ambient()) == ref, f


# Extrema the search misses (indices into _extrema_symbols()).  Each lies
# within about 0.1 of a pole, where all 2*resolution coarse cells of the
# u = +-1 row are one point: the 4 starts of a sign collapse onto the pole,
# and the shrinking phi window there never turns toward the extremum.
# ROADMAP item 4 plans a certified bracket.
_POLE_MISSES = (23, 43)


def _sphere_samples(n=500):
    v = np.random.RandomState(7).normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def test_grid_extrema_points_attain_values():
    v = _sphere_samples()
    for i, f in enumerate(_extrema_symbols()):
        fmin, fmax, arg_min, arg_max = sy.grid_extrema(f)
        tol = 1e-12 * max(1.0, f.coeff_max())
        assert abs(sy.evaluate(f, arg_max).real - fmax) <= tol, f
        assert abs(sy.evaluate(f, arg_min).real - fmin) <= tol, f
        if i not in _POLE_MISSES:
            vals = np.real(sy.eval_ambient(f, v[:, 0], v[:, 1], v[:, 2]))
            assert fmin - 1e-12 <= vals.min() and vals.max() <= fmax + 1e-12, f


@pytest.mark.xfail(strict=True, reason="grid_extrema is a search; it misses "
                   "extrema beside a pole (see _POLE_MISSES)")
def test_grid_extrema_misses_extrema_beside_a_pole():
    v = _sphere_samples()
    symbols = _extrema_symbols()
    for f in (symbols[i] for i in _POLE_MISSES):
        fmin, fmax, _, _ = sy.grid_extrema(f)
        vals = np.real(sy.eval_ambient(f, v[:, 0], v[:, 1], v[:, 2]))
        assert fmin - 1e-12 <= vals.min() and vals.max() <= fmax + 1e-12, f


def test_symbol_json_roundtrip_sorted(rng):
    f = random_symbol(rng, real=False)
    obj = sy.symbol_to_json(f)
    exps = [tuple(t["e"]) for t in obj["terms"]]
    assert exps == sorted(exps)
    assert sy.symbol_from_json(obj) == f
    assert sy.symbol_from_json(json.loads(json.dumps(obj))) == f
