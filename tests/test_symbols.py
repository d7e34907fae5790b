import json
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from btq import extrema as ex
from btq import symbols as sy
from btq.errors import (CapacityError, SymbolParseError, SymbolSyntaxError,
                        UnknownIdentifierError)
from btq.geometry import SpherePoint, make_rule, phi_grid
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


def test_symbol_from_json_refuses_what_parse_refuses():
    # nan once came back as Symbol(nan*x3), and sup_norm of it as nan
    nan = json.loads('{"terms":[{"e":[0,0,1],"re":NaN,"im":0}]}')
    # json.loads leaves the ERANGE of "1e400" behind, and CPython 3.11's abs()
    # of a complex nan once raised it as an OverflowError
    after_overflow = json.loads(
        '{"terms":[{"e":[1,0,0],"re":1e400,"im":0},{"e":[0,0,0],"re":NaN,"im":0}]}')
    objs = [after_overflow, nan] + [
        {"terms": [{"e": [0, 0, 1], "re": re_, "im": im}]}
        for re_, im in ((math.inf, 0.0), (0.0, -math.inf), (0.0, math.nan),
                        (1e300, 0.0), (2e250, 0.0))]
    for obj in objs:
        with pytest.raises(SymbolSyntaxError, match="coefficient l1 norm"):
            sy.symbol_from_json(obj)
    assert sy.symbol_from_json(sy.symbol_to_json(sy.parse("1e250*x3"))) == sy.parse("1e250*x3")


def _json_of(*exponents):
    return {"terms": [{"e": e, "re": k + 1, "im": 0} for k, e in enumerate(exponents)]}


def test_symbol_from_json_refuses_negative_exponents():
    # [0, 0, -1] once came back as Symbol(1*x3), checked only by its sum
    with pytest.raises(SymbolSyntaxError, match="nonnegative integers"):
        sy.symbol_from_json(_json_of([0, 0, -1]))


def test_symbol_from_json_refuses_non_integer_exponents():
    # [0.5, 0, 0] once came back as Symbol(1*x1)
    for e in ([0.5, 0, 0], [0, 0, 1.0], [True, 0, 0], [0, False, 1], "x13"):
        with pytest.raises(SymbolSyntaxError, match="nonnegative integers"):
            sy.symbol_from_json(_json_of(e))


def test_symbol_from_json_refuses_exponents_of_the_wrong_length():
    # a two-entry "e" once raised a bare ValueError
    for e in ([0, 1], [0, 0, 1, 0], []):
        with pytest.raises(SymbolSyntaxError, match="nonnegative integers"):
            sy.symbol_from_json(_json_of(e))


def test_symbol_from_json_refuses_repeated_exponents():
    # a repeated "e" once kept its last entry: Symbol(2*x3)
    with pytest.raises(SymbolSyntaxError, match="repeat") as err:
        sy.symbol_from_json(_json_of([0, 0, 1], [0, 0, 1]))
    assert err.value.position == 1
    assert sy.symbol_from_json(_json_of([0, 0, 1], [0, 1, 0])) == X3 + 2 * X2


def test_parse_refuses_degree_above_cap_before_folding():
    assert sy.MAX_SYMBOL_DEGREE == 64
    for text in ("x1^400", "x1^65", "x1^40*x2^40", "(x1*x2)^33", "2^100000",
                 "x3^" + "9" * 5000, "x1*" * 64 + "x1"):
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            sy.parse(text)
        assert time.perf_counter() - start < 0.1, text
    assert sy.parse("x3^064").degree == 64
    assert sy.parse("x1^32*x2^32").degree == 64
    assert sy.parse("2^0001").terms == {(0, 0, 0): 2.0}


def test_parse_refuses_deep_nesting_at_the_offending_token():
    assert sy.MAX_NESTING_DEPTH == 100
    for text, at in (("(" * 400 + "x3" + ")" * 400, 100), ("-" * 1200 + "x3", 100),
                     ("x1 + " + "-(" * 51 + "x3" + ")" * 51, 105)):
        with pytest.raises(SymbolSyntaxError) as err:
            sy.parse(text)
        assert err.value.position == at
    assert sy.parse("(" * 100 + "x3" + ")" * 100) == X3
    assert sy.parse("-" * 100 + "x3") == X3
    assert sy.parse("+".join(["(((x3)))"] * 200)) == 200.0 * X3  # depth is not a count


_TOKENS = st.sampled_from(["x1", "x2", "x3", "x4", "y", "0", "2", "1.5", "1e3",
                           "1e400", ".5", "64", "+", "-", "*", "^", "(", ")",
                           " ", "$"])


@st.composite
def _expression_texts(draw):
    text = "".join(draw(st.lists(_TOKENS, max_size=40)))
    # up to 4000 stack frames of nesting without the depth cap: beyond the
    # recursion limit hypothesis sets while it runs a test
    depth = draw(st.integers(0, 2000))
    return draw(st.sampled_from(["(" * depth + text + ")" * depth,
                                 "-" * depth + text, text]))


@given(_expression_texts())
def test_parse_returns_a_symbol_or_a_parse_or_capacity_error(text):
    try:
        f = sy.parse(text)
    except (SymbolParseError, CapacityError):
        return
    assert isinstance(f, sy.Symbol)


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


def test_parse_matches_python_evaluation(rng):
    # Python's own arithmetic on the text (^ -> **, which has the grammar's
    # precedence, unary minus included) shares no code with the parser
    texts = ["x1 + x2*x3^2 - 0.25", "(x1 - x2)^3", "-x1*x2*x3 + x3^4",
             "0.5*(x1^2 - x2^2) + x3"]
    for text in texts:
        f = sy.parse(text)
        code = compile(text.replace("^", "**"), "<expr>", "eval")
        for _ in range(100):
            v = rng.randn(3)
            v /= np.linalg.norm(v)
            direct = eval(code, {"__builtins__": {}},
                          {"x1": v[0], "x2": v[1], "x3": v[2]})
            assert abs(direct - sy.eval_ambient(f, *v)) < 1e-12


# -- ring operations ----------------------------------------------------------


def test_repr_shows_real_and_complex_coefficients():
    assert repr(sy.parse("1 + 2*x3 - 0.5*x1*x2^2")) == \
        "Symbol(1 + 2*x3 + -0.5*x1*x2^2)"
    assert repr(3 + (1 + 2j) * X1) == "Symbol(3 + (1+2j)*x1)"
    assert repr(sy.parse("0")) == "Symbol(0)"


def test_multiply_examples():
    assert X3 * X3 == sy.Symbol({(0, 0, 2): 1.0})
    assert X1 * X1 == ONE - X2 ** 2 - X3 ** 2
    f = sy.parse("x1*x2 - 3*x3")
    assert sy.multiply(f, ONE) == f


def test_products_coerce_like_sums():
    # a numpy scalar multiplies as its Python value does; anything that is
    # not a number is refused with TypeError, as in a sum
    for k in (np.int64(2), np.float64(2.0), np.complex128(2)):
        assert X1 * k == k * X1 == X1 * 2 == X1 + X1
        assert X1 + k == X1 + 2
    for bad in ("a", None, [1]):
        for expr in (lambda: X1 * bad, lambda: X1 + bad):
            with pytest.raises(TypeError):
                expr()


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


def test_normal_form_of_a_high_x1_power_is_one_trinomial_step():
    # rewriting x1^2 one step at a time made 3^32 leaves here
    t0 = time.perf_counter()
    f = sy.Symbol({(64, 0, 0): 1})
    assert time.perf_counter() - t0 < 0.1
    assert f == (1 - X2**2 - X3**2) ** 32
    assert sy.symbol_from_json({"terms": [{"e": [63, 0, 0], "re": 1, "im": 0}]}) == (
        X1 * (1 - X2**2 - X3**2) ** 31)
    # against products of normal forms, which expand x1^2 only
    for a in range(4, 14):
        g = sy.Symbol({(a, 1, 2): 0.3 - 1.7j})
        ref = (0.3 - 1.7j) * X2 * X3**2 * X1 ** (a % 2) * (1 - X2**2 - X3**2) ** (a // 2)
        assert g.terms.keys() == ref.terms.keys()
        assert all(abs(g.terms[e] - v) <= 1e-14 * abs(v) for e, v in ref.terms.items())


def test_normal_form_refuses_raw_powers_above_the_degree_cap():
    # parse's cap, MAX_SYMBOL_DEGREE, at the two raw entry points: refused
    # before the expansion (x1^1304 once took 5.5 s for 213 531 terms)
    for a in (65, 1304, 1400):
        for build in (lambda: sy.Symbol({(a, 0, 0): 1}),
                      lambda: sy.symbol_from_json(
                          {"terms": [{"e": [a, 0, 0], "re": 1, "im": 0}]})):
            t0 = time.perf_counter()
            with pytest.raises(CapacityError):
                build()
            assert time.perf_counter() - t0 < 0.01
    with pytest.raises(CapacityError):  # JSON refuses any term above the cap
        sy.symbol_from_json({"terms": [{"e": [0, 30, 35], "re": 1, "im": 0}]})
    assert len(sy.Symbol({(64, 0, 0): 1}).terms) == 561


def test_symbol_arithmetic_refuses_degree_above_cap_before_forming():
    # `Symbol` owns the cap: construction, products and powers above it are
    # refused before anything is formed (a product of two dense degree-33
    # symbols took about 0.4 s to form)
    dense = sy.Symbol({(a, b, c): 1.0 for a in (0, 1) for b in range(34)
                       for c in range(34 - a - b)})
    assert dense.degree == 33
    for build in (lambda: sy.Symbol({(0, 30, 35): 1}),
                  lambda: sy.Symbol({(0, 65, 0): 1}),
                  lambda: X2**33 * X3**32,
                  lambda: ONE ** 65,
                  lambda: dense * dense,
                  lambda: sy.Symbol({}) ** 65,
                  lambda: (X3**2) ** 33):
        t0 = time.perf_counter()
        with pytest.raises(CapacityError, match="degree cap"):
            build()
        assert time.perf_counter() - t0 < 0.01
    assert (X2**32 * X3**32).degree == 64
    assert ONE ** 64 == ONE and (X3**2) ** 32 == X3**64
    assert sy.Symbol({(0, 30, 34): 1}).degree == 64


def _stack_reduced(terms):
    """The normal form as a rewrite stack, kept here as the reference for
    the order in which `Symbol` lists its terms."""
    out = {}
    stack = list(terms.items())
    while stack:
        (a, b, c), coeff = stack.pop()
        if coeff == 0:
            continue
        if a <= 1:
            v = out.get((a, b, c), 0j) + coeff
            if v == 0:
                out.pop((a, b, c), None)
            else:
                out[(a, b, c)] = v
        elif a <= 3:
            stack.append(((a - 2, b, c), coeff))
            stack.append(((a - 2, b + 2, c), -coeff))
            stack.append(((a - 2, b, c + 2), -coeff))
        else:
            j = a // 2
            for q in range(j + 1):
                for r in range(j - q + 1):
                    n = math.comb(j, q) * math.comb(j - q, r)
                    stack.append(((a % 2, b + 2 * q, c + 2 * r),
                                  coeff * (-n if (q + r) % 2 else n)))
    return out


def test_normal_form_of_products_matches_the_rewrite_stack(rng):
    # the raw product of two normal forms (x1-exponent <= 2), as `__mul__`
    # forms it: the same values, bit for bit, in the same order, since the
    # order of `terms` sets the summation order of later products
    def bits(terms):
        return [(e, v.real.hex(), v.imag.hex()) for e, v in terms.items()]

    for k in range(600):
        degree = 1 + k % 12
        if k % 3:
            f, g = (random_symbol(rng, degree, 2 + k % 9, real=False) for _ in "fg")
        else:
            f, g = (sy.Symbol({e: complex(*rng.standard_normal(2))
                               for e in random_symbol(rng, degree, 12).terms})
                    for _ in "fg")
        raw = {}
        for (a1, b1, c1), v1 in f.terms.items():
            for (a2, b2, c2), v2 in g.terms.items():
                e = (a1 + a2, b1 + b2, c1 + c2)
                raw[e] = raw.get(e, 0j) + v1 * v2
        assert bits(sy.Symbol(raw).terms) == bits(_stack_reduced(raw))
        assert bits((f * g).terms) == bits(_stack_reduced(raw))
    # a raw x1^a, a >= 4, keeps its coefficients; its terms are listed in
    # another order
    for a in range(4, 20):
        f = sy.Symbol({(a, 1, 2): 0.3 - 1.7j})
        assert f.terms == _stack_reduced({(a, 1, 2): 0.3 - 1.7j})


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
    # the opposite sign is the negated bracket
    assert sy.poisson_bracket(X1, X2) == 2 * X3
    assert -sy.poisson_bracket(X1, X2) == -2 * X3


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
    assert lap(X3) == -4 * X3
    assert lap(X3) * -1 == 4 * X3  # the opposite sign


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
    c1 = lambda a, b: sy.c1_candidate(a, b, "dzbar-dz")
    assert c1(X3, X3) == ONE - X3 ** 2
    assert c1(X1, sy.constant(5.0)).is_zero
    assert c1(sy.constant(5.0), X1).is_zero
    expect = 0.5 * (ONE + X3**2 - X1**2 + X2**2)
    assert c1(X1, X1) == expect


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
    c1 = lambda a, b: sy.c1_candidate(a, b, "dzbar-dz")
    assert c1(f + g, h) == c1(f, h) + c1(g, h)
    assert c1(f, g + h) == c1(f, g) + c1(f, h)


def test_c1_matches_symbolic_oracle(rng):
    # pull f and g back to the stereographic chart with sympy and take the
    # Wirtinger derivatives there: (1+z zbar)^2 (dzbar f)(dz g) for
    # "dzbar-dz" and -(1+z zbar)^2 (dz f)(dzbar g) for "dz-dzbar"
    sp = pytest.importorskip("sympy")
    z, zb = sp.symbols("z zbar")
    u = 1 + z * zb
    chart = [(z + zb) / u, -sp.I * (z - zb) / u, (1 - z * zb) / u]

    def pullback(f):
        return sum(complex(v) * chart[0] ** a * chart[1] ** b * chart[2] ** c
                   for (a, b, c), v in f.terms.items())

    oracles = {"dzbar-dz": lambda pf, pg: u**2 * sp.diff(pf, zb) * sp.diff(pg, z),
               "dz-dzbar": lambda pf, pg: -u**2 * sp.diff(pf, z) * sp.diff(pg, zb)}
    for _ in range(6):
        f, g = random_symbol(rng, degree=3), random_symbol(rng, degree=3)
        pf, pg = pullback(f), pullback(g)
        for ordering in sy.C1_ORDERINGS:
            c1 = sy.c1_candidate(f, g, ordering)
            oracle = sp.lambdify((z, zb), oracles[ordering](pf, pg), "numpy")
            for _ in range(8):
                zz = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                theirs = complex(oracle(zz, np.conj(zz)))
                ours = sy.evaluate(c1, SpherePoint.from_z(zz))
                assert abs(ours - theirs) <= 1e-12 * max(1.0, abs(theirs)), (ordering, zz)


def test_c1_symmetric_part_is_the_gradient_pairing_exact(rng):
    # the two orderings differ only in the sign of the symmetric part,
    # grad f . grad g - (x . grad f)(x . grad g), built here from partials
    x = (X1, X2, X3)
    for _ in range(50):
        f, g = random_symbol(rng, degree=3), random_symbol(rng, degree=3)
        df = [sy.partial(f, i) for i in (1, 2, 3)]
        dg = [sy.partial(g, i) for i in (1, 2, 3)]
        pairing = sum((a * b for a, b in zip(df, dg)), sy.constant(0)) \
            - sum((xi * a for xi, a in zip(x, df)), sy.constant(0)) \
            * sum((xi * b for xi, b in zip(x, dg)), sy.constant(0))
        half = (sy.c1_candidate(f, g, "dzbar-dz") - sy.c1_candidate(f, g, "dz-dzbar")) * 0.5
        assert half == pairing


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


def _recorded_grids(monkeypatch):
    """The (rows, columns) of each coarse grid the search reads, in order."""
    grid, shapes = ex._real_values, []

    def recorded(g, u, phi):
        shapes.append(np.broadcast(u, phi).shape)
        return grid(g, u, phi)

    monkeypatch.setattr(ex, "_real_values", recorded)
    return shapes


def test_sup_norm_nondecreasing_in_resolution(monkeypatch):
    # a degree-2 symbol is searched on 24 rows; a cap below that sets the
    # coarse grid the search starts from
    f = sy.parse("x3 + 0.4*x1*x2 - 0.2*x2^2")
    shapes, vals = _recorded_grids(monkeypatch), []
    for r in (6, 12, 24, 96):
        monkeypatch.setattr(ex, "GRID_RESOLUTION", r)
        vals.append(sy.sup_norm(f))
    assert shapes == [(6, 12), (12, 24), (24, 48), (24, 48)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12
    # the ascent pins the value independently of the coarse grid
    assert max(vals) - min(vals) < 1e-9


def test_grid_extrema_grid_follows_the_degree(monkeypatch):
    shapes = _recorded_grids(monkeypatch)
    for d in (1, 3, 4, 11, 12, 14):
        sy.grid_extrema(X3 ** d)
    assert shapes == [(r, 2 * r) for r in (24, 24, 32, 88, 96, 96)]


def test_sup_norm_interior_maximum():
    # f = x3 + x3^2 has max 2 at the pole, but |f| also sees -1/4 at x3=-1/2
    f = X3 + X3 * X3
    assert abs(sy.sup_norm(f) - 2.0) < 1e-12
    fmin, fmax, _, _ = sy.grid_extrema(f)
    assert abs(fmin + 0.25) < 1e-10


# The search before the Newton ascent: 48 halvings of a 7 x 7 local grid
# from the 4 best cells of each sign on a fixed 96 x 192 grid.  The ascent
# must reach at least its values.
def _scalar_refine(f, u0, phi0, sign, rounds=48, local=7):
    # reference search: one start at a time, on flat meshgrid arrays
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


def _reaches_the_scalar_refinement(f):
    fmin, fmax, _, _ = sy.grid_extrema(f)
    ref_min, ref_max, _, _ = _scalar_grid_extrema(f)
    tol = 1e-12 * max(1.0, f.coeff_max())
    assert fmax >= ref_max - tol and fmin <= ref_min + tol, f
    return fmin, fmax


def test_grid_extrema_reaches_the_scalar_refinement():
    for f in _extrema_symbols():
        _reaches_the_scalar_refinement(f)


def _high_degree_symbols():
    """16 seeded real symbols of degree 7-14."""
    rng = np.random.RandomState(2026)
    symbols = []
    for i in range(16):
        degree = 7 + i % 8
        terms = {(0, 0, degree): 1.0}
        for _ in range(2 + i % 4):
            a = int(rng.randint(0, 2))
            b = int(rng.randint(0, degree + 1 - a))
            terms[(a, b, int(rng.randint(0, degree + 1 - a - b)))] = float(rng.normal())
        symbols.append(sy.Symbol(terms))
    return symbols


def test_grid_extrema_reaches_the_scalar_refinement_at_high_degree():
    """The high-degree symbols, and a maximum on a pole, where every cell of
    the u = 1 grid row is the one point."""
    for f in _high_degree_symbols():
        _reaches_the_scalar_refinement(f)
    pole = sy.parse("x3^3 - 0.2*x1*x2")
    assert _reaches_the_scalar_refinement(pole)[1] == 1.0  # the pole's maximum, found


# extrema of high order, where f vanishes to more than second order across
# the extremum (four seeded small-many symbols and a ring maximum): Newton
# steps shrink only linearly there, and a stop on the step length alone took
# all 40 steps
_HIGH_ORDER = ("0.931*x3^4", "-0.923*x3^4", "0.726*x3^4", "-0.778*x3^6",
               "-0.989*x3^10")


def test_grid_extrema_ascent_converges_in_few_steps(monkeypatch):
    # Newton steps near a regular extremum: the 69 symbols take at most 12
    # steps each (a median of 5), far below MAX_STEPS; an ascent that keeps
    # stepping at the trust radius, or shrinks it too fast, takes up to 40.
    # The high-order extrema stop on the predicted gain, within 15 steps
    step, calls = ex._step, []

    def counted(v, r):
        calls[-1] += 1
        return step(v, r)

    monkeypatch.setattr(ex, "_step", counted)
    high_order = [sy.parse(e) for e in _HIGH_ORDER]
    for f in _extrema_symbols() + _high_degree_symbols() + high_order:
        calls.append(0)
        sy.grid_extrema(f)
    assert max(calls) <= 15, max(calls)
    # and each still reaches its extremum on the equator
    for f in high_order:
        lo, hi, _, _ = sy.grid_extrema(f)
        assert min(abs(lo), abs(hi)) <= 1e-15


def test_sup_norm_argmax_follows_the_tie_order():
    # tied maximizers: the largest x3 first, then the largest x1, then x2.
    # x3^2 peaks at both poles; x1^2 - x2^2 has |f| = 1 at (+-1, 0, 0) and
    # (0, +-1, 0), on both signs
    for text, point in (("x3^2", (0.0, 0.0, 1.0)), ("x1^2 - x2^2", (1.0, 0.0, 0.0))):
        sup, x0 = sy.sup_norm_argmax(sy.parse(text))
        assert abs(sup - 1.0) <= 1e-12
        assert np.max(np.abs(np.subtract(x0.ambient(), point))) <= 1e-9, (text, x0.ambient())


def test_grid_extrema_points_do_not_depend_on_the_order_of_the_starts(monkeypatch):
    def searched():
        out = []
        for f in _extrema_symbols():
            fmin, fmax, arg_min, arg_max = sy.grid_extrema(f)
            sup, x0 = sy.sup_norm_argmax(f)
            out.append((fmin, fmax, arg_min.ambient(), arg_max.ambient(), sup, x0.ambient()))
        return out

    before = searched()
    argpartition, calls = np.argpartition, []

    def reversed_starts(a, kth):
        # the kth + 1 best cells, in the opposite order
        calls.append(kth)
        idx = argpartition(a, kth)
        idx[:kth + 1] = idx[:kth + 1][::-1].copy()
        return idx

    monkeypatch.setattr(np, "argpartition", reversed_starts)
    assert searched() == before
    assert calls


def test_grid_extrema_counts_each_pole_once():
    # the pole (1.0) outranks every cell near the higher, narrow maximum
    # 1.001 at (1, 0, 0); were all 2R cells of the u = 1 row candidates, all
    # 4 starts of the maximum would be the pole
    f = sy.parse("x3^8 + 1.001*x1^8")
    assert abs(sy.grid_extrema(f)[1] - 1.001) <= 1e-12


def test_grid_extrema_of_constants_takes_no_step(monkeypatch):
    # a constant's stencil is flat: no ascent, so no 0/0 step (a RuntimeWarning
    # is an error here)
    def no_step(v, r):
        raise AssertionError("a constant took an ascent step")

    monkeypatch.setattr(ex, "_step", no_step)
    for f in (sy.Symbol({}), sy.constant(-1.75), sy.constant(1e300)):
        c = f.terms.get((0, 0, 0), 0j).real
        fmin, fmax, arg_min, arg_max = sy.grid_extrema(f)
        assert fmin == fmax == c
        assert sy.evaluate(f, arg_min).real == sy.evaluate(f, arg_max).real == c


def test_grid_extrema_scales_with_the_symbol():
    # the ascent reads derivatives of f / coeff_l1: no overflow at the largest
    # coefficients `parse` admits, and no underflow at tiny ones
    f = _extrema_symbols()[23]
    fmin, fmax, _, _ = sy.grid_extrema(f)
    for c in (1e-300, 1e249):
        gmin, gmax, _, _ = sy.grid_extrema(c * f)
        assert abs(gmin / c - fmin) <= 1e-12 * abs(fmin), c
        assert abs(gmax / c - fmax) <= 1e-12 * abs(fmax), c


def _sphere_samples(n):
    v = np.random.RandomState(7).normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def test_grid_extrema_points_attain_values():
    # symbols 23 and 43 have extrema within about 0.1 of a pole, which the
    # search before the Newton ascent missed by up to 7.4e-3
    v = _sphere_samples(200_000)
    for f in _extrema_symbols() + _high_degree_symbols():
        fmin, fmax, arg_min, arg_max = sy.grid_extrema(f)
        tol = 1e-12 * max(1.0, f.coeff_max())
        assert abs(sy.evaluate(f, arg_max).real - fmax) <= tol, f
        assert abs(sy.evaluate(f, arg_min).real - fmin) <= tol, f
        vals = np.real(sy.eval_ambient(f, v[:, 0], v[:, 1], v[:, 2]))
        assert fmin - 1e-12 <= vals.min() and vals.max() <= fmax + 1e-12, f


def test_symbol_json_roundtrip_sorted(rng):
    f = random_symbol(rng, real=False)
    obj = sy.symbol_to_json(f)
    exps = [tuple(t["e"]) for t in obj["terms"]]
    assert exps == sorted(exps)
    assert sy.symbol_from_json(obj) == f
    assert sy.symbol_from_json(json.loads(json.dumps(obj))) == f


# -- properties on random symbols ------------------------------------------------


@st.composite
def _symbols(draw, max_degree=4, real=True):
    """Up to 5 terms of degree <= max_degree with coefficients in [-3, 3];
    exponents with a >= 2 exercise the x1^2 reduction."""
    coeff = st.floats(-3.0, 3.0, allow_nan=False)
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        a = draw(st.integers(0, max_degree))
        b = draw(st.integers(0, max_degree - a))
        c = draw(st.integers(0, max_degree - a - b))
        terms[(a, b, c)] = complex(draw(coeff), 0.0 if real else draw(coeff))
    return sy.Symbol(terms)


@given(_symbols(max_degree=6, real=False))
def test_normal_form_is_idempotent(f):
    assert all(a <= 1 and v != 0 for (a, _, _), v in f.terms.items())
    assert sy.Symbol(f.terms).terms == f.terms


@given(_symbols(max_degree=6, real=False))
def test_symbol_json_round_trip(f):
    obj = json.loads(json.dumps(sy.symbol_to_json(f)))
    assert sy.symbol_from_json(obj).terms == f.terms


def _vanishes(parts, scale):
    """sum(parts) is zero to 1e-12 of scale in every coefficient."""
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return all(abs(v) <= 1e-12 * scale for v in total.terms.values())


@given(_symbols(), _symbols(), _symbols())
def test_bracket_leibniz_and_jacobi(f, g, h):
    # both identities are trilinear: measure them against |f|_1 |g|_1 |h|_1
    pb = sy.poisson_bracket
    scale = f.coeff_l1() * g.coeff_l1() * h.coeff_l1()
    assert _vanishes([pb(f * g, h), -(f * pb(g, h)), -(pb(f, h) * g)], scale)
    assert _vanishes([pb(f, pb(g, h)), pb(g, pb(h, f)), pb(h, pb(f, g))], scale)


_unit = st.floats(-1.0, 1.0, allow_nan=False)
_angle = st.floats(-10.0, 10.0, allow_nan=False)


@given(_symbols(max_degree=14), st.lists(_unit, min_size=1, max_size=5),
       st.lists(_angle, min_size=1, max_size=5))
def test_real_values_on_a_broadcast_grid_is_the_flat_evaluation(f, u, phi):
    u, phi = np.array(u), np.array(phi)
    uu, pp = np.meshgrid(u, phi, indexing="ij")
    uu, pp = uu.ravel(), pp.ravel()
    # the evaluation before powers were shared: every factor of every term
    rho = np.sqrt(np.maximum(0.0, 1.0 - uu * uu))
    x1, x2 = rho * np.cos(pp), rho * np.sin(pp)
    terms = [v.real * x1**a * x2**b * uu**c for (a, b, c), v in sorted(f.terms.items())]
    flat = sum(terms[1:], terms[0]) if terms else np.zeros(uu.shape)
    grid = ex._real_values(f, u[:, None], phi[None, :])
    assert grid.shape == (u.size, phi.size)
    assert grid.ravel().tobytes() == flat.tobytes()
    assert ex._real_values(f, uu, pp).tobytes() == flat.tobytes()
    # ... and the real part of the complex evaluation before it
    ref = _complex_formula(f, x1, x2, uu)
    assert _zeros_as_one(grid.ravel()) == _zeros_as_one(np.real(ref))


def _complex_formula(f, x1, x2, x3):
    """The evaluator before powers were shared and real symbols ran in real
    arithmetic: every factor of every term, in complex arithmetic."""
    terms = [v * x1**a * x2**b * x3**c for (a, b, c), v in sorted(f.terms.items())]
    return sum(terms[1:], terms[0]) if terms else np.zeros(np.broadcast(x1, x2, x3).shape)


def _zeros_as_one(values):
    """The bytes of values with -0.0 read as 0.0.  Complex arithmetic carries
    imaginary parts of +-0.0 that can flip the sign of a zero real part:
    x1*x2*x3 at (-2, -2, -0.0) is -0.0 in real arithmetic and 0.0 in
    complex.  The search grid has such points: x2 = rho sin(phi) is -0.0
    at a pole when sin(phi) < 0."""
    return (np.asarray(values) + 0.0).tobytes()


@given(_symbols(max_degree=4, real=False), _symbols(max_degree=4),
       st.lists(_unit, min_size=1, max_size=5), st.lists(_angle, min_size=1, max_size=5))
def test_eval_ambient_of_complex_symbols_is_the_complex_formula(f, g, u, phi):
    u, phi = np.array(u), np.array(phi)
    rho = np.sqrt(np.maximum(0.0, 1.0 - u * u))[:, None]
    x = (rho * np.cos(phi), rho * np.sin(phi), u[:, None])
    for h in (f, sy.c1_candidate(f, g, sy.SELECTED_C1_ORDERING), f * g):
        got, ref = sy.eval_ambient(h, *x), _complex_formula(h, *x)
        assert got.shape == (u.size, phi.size)
        if not any(v.imag for v in h.terms.values()):  # real arithmetic
            assert got.dtype == float
            ref = np.real(ref)
        assert _zeros_as_one(got) == _zeros_as_one(ref)
