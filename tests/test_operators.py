import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided

from btq import norms
from btq import operators as op
from btq import symbols as sy
from btq.errors import CapacityError, LevelMismatchError
from btq.geometry import SpherePoint, make_rule
from btq.hilbert import (BLOCK, TWO_PI, SectionVector, basis_eval_grid, binomial_floats,
                         coefficient_inner, coherent_state, kernel_density,
                         quadrature_inner, radial_factors)
from conftest import _fresh_env, assemble_in_subprocess, dense_hermitian, random_symbol

X1, X2, X3, ONE = sy.X1, sy.X2, sy.X3, sy.ONE
CRITERION10 = "x1*x2*x3^2 + 0.25*x1^2*x2^2 - x3 + 0.125"


def diag_x3(m):
    return np.array([(m - 2 * k) / (m + 2) for k in range(m + 1)])


# -- Toeplitz path 1: quadrature ------------------------------------------------


def test_toeplitz_identity():
    t = op.toeplitz(ONE, 4)
    assert np.max(np.abs(t.mat - np.eye(5))) < 1e-14
    assert t.hermitian


def test_toeplitz_x3_and_x3sq():
    t = op.toeplitz(X3, 2)
    assert np.max(np.abs(t.mat - np.diag([0.5, 0.0, -0.5]))) < 1e-13
    t2 = op.toeplitz(X3 * X3, 2)
    assert np.max(np.abs(t2.mat - np.diag([0.4, 0.2, 0.4]))) < 1e-13


# -- Toeplitz path 2: exact moments ---------------------------------------------


def test_toeplitz_exact_x3_diagonal():
    for m in (1, 2, 5, 16):
        t = op.toeplitz_exact(X3, m)
        assert np.max(np.abs(t.mat - np.diag(diag_x3(m)))) < 1e-14


def test_toeplitz_exact_x1_m1():
    t = op.toeplitz_exact(X1, 1)
    expect = np.array([[0.0, 1 / 3], [1 / 3, 0.0]])
    assert np.max(np.abs(t.mat - expect)) < 1e-15


def test_toeplitz_exact_x2_zero_diagonal():
    for m in (1, 4, 9):
        t = op.toeplitz_exact(X2, m)
        assert np.max(np.abs(np.diag(t.mat))) == 0.0


def test_toeplitz_exact_selection_rule(rng):
    # entry (j,k) vanishes unless |j-k| <= a+b with matching parity
    f = X1 * X2  # a+b = 2, angular frequencies -2, 0, +2
    t = op.toeplitz_exact(f, 8)
    for j in range(9):
        for k in range(9):
            if abs(j - k) > 2 or (j - k) % 2 != 0:
                assert t.mat[j, k] == 0.0


def _chart_numerator(a, b, c):
    """(z+zbar)^a (zbar-z)^b (1-z zbar)^c expanded exactly in integers, zeros
    kept; x1^a x2^b x3^c (1+z zbar)^(a+b+c) is i^b times it."""
    poly = {(0, 0): 1}

    def mul(p, q):
        out = {}
        for (i1, j1), c1 in p.items():
            for (i2, j2), c2 in q.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, 0) + c1 * c2
        return out

    for _ in range(a):
        poly = mul(poly, {(1, 0): 1, (0, 1): 1})
    for _ in range(b):
        poly = mul(poly, {(1, 0): -1, (0, 1): 1})
    for _ in range(c):
        poly = mul(poly, {(0, 0): 1, (1, 1): -1})
    return poly


def _i_power(b):
    return (1, 1j, -1, -1j)[b % 4]


def _chart_terms_by_q(a, b, c):
    """{q: [(alpha, n_(alpha, alpha-q))]} over the nonzero chart coefficients:
    the terms that reach diagonal q of the monomial's Toeplitz matrix."""
    by_q = {}
    for (alpha, beta), cc in _chart_numerator(a, b, c).items():
        if cc:
            by_q.setdefault(alpha - beta, []).append((alpha, cc))
    return by_q


def _normal_form_monomials(degree):
    """Every exponent (a, b, c) with a <= 1 and a + b + c <= degree."""
    return [(a, b, d - a - b) for d in range(degree + 1)
            for a in range(min(d, 1) + 1) for b in range(d - a + 1)]


def test_chart_numerator_is_the_exact_expansion():
    for a, b, c in _normal_form_monomials(16):
        expect = {e: v for e, v in _chart_numerator(a, b, c).items() if v != 0}
        got = op._chart_numerator(a, b, c)
        assert got == expect, (a, b, c)
        assert all(type(v) is int for v in got.values())


@given(st.sampled_from(_normal_form_monomials(12)),
       st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
def test_chart_numerator_matches_the_monomial_pointwise(abc, z):
    # sum c z^alpha zbar^beta = (1+|z|^2)^d x1^a x2^b x3^c on the sphere
    a, b, c = abc
    num = _i_power(b) * sum(cc * z**alpha * z.conjugate()**beta
                            for (alpha, beta), cc in op._chart_numerator(a, b, c).items())
    x1, x2, x3 = SpherePoint.from_z(z).ambient()
    scale = (1.0 + abs(z) ** 2) ** (a + b + c)
    assert abs(num - scale * x1**a * x2**b * x3**c) <= 1e-12 * scale


def _toeplitz_exact_per_entry(f, m):
    """Reference: per entry, the Beta ratios sum_alpha n C(m,k)/C(m+d,k+alpha)
    and the root's C(m,j)/C(m,k) as exact Fractions, each rounded once, over
    an independent expansion of the chart numerators."""
    n = m + 1
    mat = np.zeros((n, n), dtype=complex)
    for (a, b, c), coeff in sorted(f.terms.items()):
        d = a + b + c
        scale = coeff * _i_power(b) * ((m + 1) / (m + d + 1))
        for q, terms in _chart_terms_by_q(a, b, c).items():
            for k in range(max(-q, 0), n - max(q, 0)):
                ratio = sum(Fraction(cc * math.comb(m, k), math.comb(m + d, k + alpha))
                            for alpha, cc in terms)
                root = math.sqrt(float(Fraction(math.comb(m, k + q), math.comb(m, k))))
                mat[k + q, k] += scale * float(ratio) * root
    return mat


def test_toeplitz_exact_matches_per_entry_beta_ratios(rng):
    symbols = (ONE, X3, X1 * X2, sy.parse("x1*x2*x3^2 + 0.25*x1^2*x2^2 - x3 + 0.125"),
               random_symbol(rng, degree=5), random_symbol(rng, degree=4, real=False))
    for f in symbols:
        for m in (0, 1, 5, 40):
            got = op.toeplitz_exact(f, m).mat
            assert got.tobytes() == _toeplitz_exact_per_entry(f, m).tobytes()


def _mp_entries(f, m, entries, dps=60):
    """Entries (j, k) of T_f from the Beta ratios: coeff i^b (m+1)/(m+d+1)
    sqrt(C(m,j) C(m,k)) sum n / C(m+d, k+alpha).  The sum is an exact
    integer over (m+d)!, and the root and the products run in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    terms = [(a + b + c, coeff * _i_power(b), _chart_terms_by_q(a, b, c))
             for (a, b, c), coeff in f.terms.items()]
    out = []
    with mpmath.workdps(dps):
        for j, k in entries:
            total = mpmath.mpc(0)
            for d, coeff, by_q in terms:
                fact = math.factorial(m + d)
                num = sum(cc * (fact // math.comb(m + d, k + alpha))
                          for alpha, cc in by_q.get(j - k, ()))
                root = mpmath.sqrt(mpmath.mpf(math.comb(m, j) * math.comb(m, k)))
                total += mpmath.mpc(coeff) * (m + 1) / (m + d + 1) * root * num / fact
            out.append(complex(total))
    return np.array(out)


def test_toeplitz_exact_cancels_high_degree_chart_terms():
    # the chart terms of these monomials cancel by many orders of magnitude;
    # rounded to float before the sum they lost up to 3e-7 of the largest entry
    for expr in ("x2^20*x3^20", "x1*x2^30*x3^28", "x2^32*x3^32"):
        f = sy.parse(expr)
        for m in (5, 40):
            got = op.toeplitz_exact(f, m).mat
            ref = _mp_entries(f, m, np.ndindex(got.shape)).reshape(got.shape)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), (expr, m)


def test_toeplitz_exact_runs_above_the_float_binomial_cap(rng):
    # sampled entries, the largest among them, against the mpmath reference
    for expr in (CRITERION10, "x1*x3^20 - 2*x2^5*x1^3"):
        f = sy.parse(expr)
        for m in (1021, 2048, 4096):
            t = op.toeplitz_exact(f, m)
            q, k = np.unravel_index(np.argmax(np.abs(t.diags)), t.diags.shape)
            entries = [(int(k) + int(q) - t.band, int(k))]
            for k in rng.randint(0, m + 1, 16).tolist():  # j stays on the band
                j = k + int(rng.randint(-t.band, t.band + 1))
                entries.append((min(max(j, 0), m), k))
            ref = _mp_entries(f, m, entries)
            got = np.array([t.diags[t.band + j - k, k] for j, k in entries])
            assert np.all(np.isfinite(t.diags))
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(t.diags)), (expr, m)


# -- Toeplitz path 3: integral kernel --------------------------------------------


def test_kernel_apply_reproduces_sections(rng):
    m = 6
    sec = SectionVector(m, rng.randn(m + 1) + 1j * rng.randn(m + 1))
    out = op.kernel_matrix(ONE, m) @ sec
    assert np.max(np.abs(out.coeffs - sec.coeffs)) < 1e-12


def test_kernel_apply_examples():
    e0 = SectionVector(2, np.array([1, 0, 0], dtype=complex))
    out = op.kernel_matrix(X3, 2) @ e0
    assert np.max(np.abs(out.coeffs - np.array([0.5, 0, 0]))) < 1e-13

    e0 = SectionVector(1, np.array([1, 0], dtype=complex))
    out = op.kernel_matrix(X1, 1) @ e0
    assert np.max(np.abs(out.coeffs - np.array([0, 1 / 3]))) < 1e-13


def test_kernel_apply_matches_toeplitz(rng):
    m = 10
    f = random_symbol(rng, degree=3)
    t = op.toeplitz(f, m)
    for _ in range(5):
        sec = SectionVector(m, rng.randn(m + 1) + 1j * rng.randn(m + 1))
        out = op.kernel_matrix(f, m) @ sec
        assert np.max(np.abs(out.coeffs - t.mat @ sec.coeffs)) < 1e-10


def test_three_paths_agree(rng):
    from btq.lab import cross_check
    for f in (X1, X3 * X3, X1 * X2, random_symbol(rng, degree=4)):
        for m in (2, 8, 32):
            assert cross_check(f, m) < 1e-10


@st.composite
def _covariance_symbols(draw):
    """Up to 5 terms of degree <= 6, real or complex coefficients in [-3, 3]."""
    coeff = st.floats(-3.0, 3.0, allow_nan=False)
    real = draw(st.booleans())
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        a = draw(st.integers(0, 6))
        b = draw(st.integers(0, 6 - a))
        c = draw(st.integers(0, 6 - a - b))
        terms[(a, b, c)] = complex(draw(coeff), 0.0 if real else draw(coeff))
    return sy.Symbol(terms)


@pytest.mark.parametrize("path", [op.toeplitz, op.toeplitz_exact, op.kernel_matrix],
                         ids=lambda p: p.__name__)
@given(g=_covariance_symbols(), m=st.integers(0, 64), i=st.integers(1, 3))
def test_each_path_is_rotation_covariant(path, g, m, i):
    # SU(2) equivariance: (m+2) i [T_xi, T_g] = T_{xi,g} exactly at every
    # level.  Each path is checked alone, against itself, so an error that
    # two paths share (and `crosscheck` cannot see) shows here
    xi = (X1, X2, X3)[i - 1]
    defect = (1j * (m + 2)) * op.commutator(path(xi, m), path(g, m)) \
        - path(sy.poisson_bracket(xi, g), m)
    assert np.max(np.abs(defect.diags)) <= 1e-12 * max(1.0, g.coeff_l1())


def test_band_limited_paths_match_exact_at_high_level(rng):
    # the angular FFT runs on 2 deg f + 1 nodes; aliasing would show here
    symbols = [random_symbol(rng, degree=d) for d in (1, 3, 6)]
    symbols += [random_symbol(rng, degree=d, real=False) for d in (2, 6)]
    for m in (256, 1000):
        for f in symbols:
            exact = op.toeplitz_exact(f, m).mat
            for path in (op.toeplitz, op.kernel_matrix):
                assert np.max(np.abs(path(f, m).mat - exact)) < 1e-12


def _sphere_mean(f):
    """Mean of f over the sphere: mean(x1^a x2^b x3^c) =
    G((a+1)/2) G((b+1)/2) G((c+1)/2) G(3/2) / (G(1/2)^3 G((a+b+c+3)/2))
    for a, b, c all even, else 0."""
    g = math.gamma
    return sum(v * g((a + 1) / 2) * g((b + 1) / 2) * g((c + 1) / 2) * g(1.5)
               / (g(0.5) ** 3 * g((a + b + c + 3) / 2))
               for (a, b, c), v in f.terms.items()
               if a % 2 == b % 2 == c % 2 == 0)


def test_trace_is_level_times_sphere_mean(rng):
    # the kernel diagonal is the constant (m+1)/2pi, so tr T_f = (m+1) mean(f)
    # exactly; each path must meet it without reference to the other two.
    # The bound n^2 eps |f|_1 (n = m + 1) is first order in eps: n diagonal
    # entries of size at most sup|f| <= |f|_1, each allowed n eps |f|_1 of
    # rounding, its own and its share of the sum's (numpy's pairwise sum adds
    # about log2(n) eps per entry).  Measured: at most 4.4 n eps |f|_1 (x3^2,
    # m = 1000).  Every fixed symbol's mean is large enough that a path whose
    # output is scaled by 1 + 1e-9 fails
    eps = np.finfo(float).eps
    fixed = [sy.parse(e) for e in ("x3^2", CRITERION10, "0.3 + x1^2*x3^4 - x2^6",
                                   "(1+x1+x2+x3)^6")]
    symbols = fixed + [random_symbol(rng, degree=d, nterms=6, real=real)
                       for d in (2, 4, 6) for real in (True, False)]
    for f in symbols:
        mean = _sphere_mean(f)
        cases = [(m, path) for m in (1, 5, 33, 200, 1000)
                 for path in (op.toeplitz, op.toeplitz_exact, op.kernel_matrix)]
        # above the float binomial cap only the exact path runs
        for m, path in cases + [(2048, op.toeplitz_exact)]:
            t, n = path(f, m), m + 1
            bound = n * n * eps * f.coeff_l1()
            assert f not in fixed or 2 * bound < 1e-9 * abs(n * mean)
            trace = complex(np.sum(t.diags[t.band]))
            assert abs(trace - n * mean) <= bound, (m, path.__name__)


# -- structure ------------------------------------------------------------------


def test_hermiticity_flags(rng):
    for _ in range(5):
        f = random_symbol(rng)
        t = op.toeplitz(f, 12)
        assert t.hermitian
        assert t.hermitian_defect() < 1e-12
    tc = op.toeplitz(X1 + 1j * X2, 12)
    assert not tc.hermitian
    # no maker asserts the flag: each one equals the dense check of its matrix
    f, fc = random_symbol(rng, degree=3), random_symbol(rng, degree=3, real=False)
    for m in (1, 12):
        made = [op.identity(m)]
        for h in (f, fc, 1j * X3, sy.Symbol({})):
            made += [op.toeplitz(h, m), op.toeplitz_exact(h, m), op.kernel_matrix(h, m),
                     op.prequantum(h, m), op.tuynman_rhs(h, m)]
        a, b = op.toeplitz(f, m), op.toeplitz(X1 * X2, m)
        q = op.prequantum(f, m)
        made += [a + b, a - b, a - a, a + q, q * 1j, 1j * q, a * 1j, a / 2,
                 -a, a @ b, a @ a, q @ q, op.commutator(a, b),
                 op.commutator(a, b) * 1j, op.commutator(a, a)]
        for x in made:
            assert x.hermitian is dense_hermitian(x.mat)
        assert {x.hermitian for x in made} == {True, False}


def test_positivity(rng):
    for _ in range(5):
        g = random_symbol(rng, degree=2)
        f = g * g  # nonnegative on the sphere
        assert sy.grid_extrema(f)[0] >= -1e-12
        t = op.toeplitz(f, 16)
        assert np.min(np.linalg.eigvalsh(t.mat)) >= -1e-10


def test_su2_norm_equality():
    for m in (4, 32):
        n1 = op.operator_norm(op.toeplitz(X1, m))
        n3 = op.operator_norm(op.toeplitz(X3, m))
        assert abs(n1 - n3) < 1e-10


def test_easy_bound(rng):
    for _ in range(8):
        f = random_symbol(rng, degree=3)
        sup = sy.sup_norm(f)
        for m in (8, 32):
            assert op.operator_norm(op.toeplitz(f, m)) <= sup + 1e-9


# -- geometric quantization -------------------------------------------------------


def test_prequantum_constant():
    q = op.prequantum(ONE, 3)
    assert np.max(np.abs(q.mat - 1j * np.eye(4))) < 1e-13


def test_prequantum_x3_closed_form():
    q2 = op.prequantum(X3, 2)
    assert np.max(np.abs(q2.mat - 1j * np.diag([1.0, 0.0, -1.0]))) < 1e-13
    q4 = op.prequantum(X3, 4)
    expect = 1j * np.diag([1.0, 0.5, 0.0, -0.5, -1.0])
    assert np.max(np.abs(q4.mat - expect)) < 1e-13


def test_prequantum_refuses_level_zero(monkeypatch):
    # the 1/m of Q_f has no value at m = 0; refused before any rule is built
    def refuse(*args):
        raise AssertionError("rule built for a refused level")

    monkeypatch.setattr(op, "make_rule", refuse)
    for f in (X3, X3 * X3, ONE):
        with pytest.raises(ValueError, match="m >= 1"):
            op.prequantum(f, 0)


def test_prequantum_antihermitian(rng):
    for _ in range(5):
        f = random_symbol(rng, degree=3)
        q = op.prequantum(f, 9)
        assert np.max(np.abs(q.mat + q.mat.conj().T)) < 1e-10
        assert not q.hermitian


def test_tuynman_rhs_examples():
    rhs = op.tuynman_rhs(sy.constant(2.0), 5)
    assert np.max(np.abs(rhs.mat - 2j * np.eye(6))) < 1e-13
    rhs2 = op.tuynman_rhs(X3, 2)
    assert np.max(np.abs(rhs2.mat - 1j * np.diag([1.0, 0.0, -1.0]))) < 1e-13
    for m in (3, 8):
        rhs = op.tuynman_rhs(X3, m)
        expect = 1j * ((m + 2) / m) * np.diag(diag_x3(m))
        assert np.max(np.abs(rhs.mat - expect)) < 1e-13
    with pytest.raises(ValueError):
        op.tuynman_rhs(X3, 0)


def test_tuynman_rhs_flag_is_the_band_check():
    # i T_g has the bytes of toeplitz(g) * 1j; for real g it is anti-Hermitian,
    # so the band check calls it Hermitian only when it is zero
    f10 = sy.parse("x1*x2*x3^2 + 0.25*x1^2*x2^2 - x3 + 0.125")
    cases = [(sy.Symbol({}), True), (X3, False), (f10, False),
             (1j * X3, True), (X1 + 1j * X2 * X3, False)]
    for f, expected in cases:
        for m in (1, 6, 32):
            rhs = op.tuynman_rhs(f, m)
            g = f - sy.laplace_beltrami(f) * (1.0 / (2.0 * m))
            assert rhs.mat.tobytes() == (op.toeplitz(g, m) * 1j).mat.tobytes()
            assert rhs.hermitian == op.QuantumOperator(m, rhs.mat).hermitian == expected


def test_tuynman_identity_quadrature(rng):
    for f in (X1, X3 * X3, random_symbol(rng, degree=2)):
        for m in (2, 8):
            q = op.prequantum(f, m)
            rhs = op.tuynman_rhs(f, m)
            assert np.max(np.abs(q.mat - rhs.mat)) <= 1e-10 * (1 + op.operator_norm(q))


def test_prequantum_matches_tuynman_rhs_up_to_degree_6(rng):
    # both angular factors of Q_f carry harmonics |q| <= deg f only
    symbols = [random_symbol(rng, degree=d) for d in (1, 2, 4, 6)]
    symbols.append(random_symbol(rng, degree=6, real=False))
    for m in (1, 7, 64, 1000):
        for f in symbols:
            q = op.prequantum(f, m)
            rhs = op.tuynman_rhs(f, m)
            bound = 1e-12 * (1 + op.operator_norm(op.QuantumOperator(m, -1j * q.mat)))
            assert np.max(np.abs(q.mat - rhs.mat)) <= bound


# -- norms and commutators ---------------------------------------------------------


def test_operator_norm_examples():
    assert op.operator_norm(op.identity(5)) == 1.0
    # |T_{c x3}| = c m/(m+2); a subnormal c needs a scale past 2^1023, made of
    # two factors, and m = 200 takes the Sturm path, not one window
    for c in (1.0, 1e-310, 1e249):
        for m in (2, 8, 64, 200):
            want = c * m / (m + 2)
            t = op.toeplitz_exact(sy.parse(f"{c!r}*x3"), m)
            assert abs(op.operator_norm(t) - want) <= 1e-12 * want, (c, m)
    zero = op.QuantumOperator(3, np.zeros((4, 4)))
    assert op.operator_norm(zero) == 0.0


def test_operator_norm_matches_svd(rng):
    # general operators: the norm against the top eigenvalue of a dense A^H A
    for n in (3, 17, 60):
        a = rng.randn(n, n) + 1j * rng.randn(n, n)
        x = op.QuantumOperator(n - 1, a)
        assert not x.hermitian  # so the norm takes the A^H A branch
        norm = op.operator_norm(x)
        sv = float(np.sqrt(np.max(np.linalg.eigvalsh(a.conj().T @ a))))
        assert abs(norm - sv) < 1e-9 * sv


def test_commutator_trivial():
    a = op.toeplitz(X1, 5)
    assert op.operator_norm(op.commutator(a, a)) == 0.0
    assert op.operator_norm(op.commutator(op.identity(5), a)) == 0.0


def test_commutator_m1_explicit():
    a = op.toeplitz(X1, 1)
    b = op.toeplitz(X2, 1)
    c = op.commutator(a, b)
    expect = (-2j / 9) * np.diag([1.0, -1.0])
    assert np.max(np.abs(c.mat - expect)) < 1e-14
    # a multiple of the T_x3 pattern
    t3 = op.toeplitz(X3, 1)
    assert np.max(np.abs(c.mat - (-2j / 3) * t3.mat)) < 1e-14


def test_level_mismatch():
    # sums, differences and products check the levels; the commutator is
    # built from products and relies on their check
    i3, i4 = op.identity(3), op.identity(4)
    for call in (lambda: i3 + i4, lambda: i3 - i4, lambda: i3 @ i4,
                 lambda: i4 @ i3, lambda: op.commutator(i3, i4)):
        with pytest.raises(LevelMismatchError):
            call()
    with pytest.raises(TypeError):
        i3 @ np.eye(4)
    # sections, inner products and basis tables raise the same type
    a, b = SectionVector(3, np.ones(4)), SectionVector(4, np.ones(5))
    table4 = basis_eval_grid(4, make_rule(4, 2))
    for call in (lambda: op.identity(3) @ b,
                 lambda: coefficient_inner(a, b),
                 lambda: quadrature_inner(a, a, table4),
                 lambda: op.kernel_matrix(X3, 3) @ b):
        with pytest.raises(LevelMismatchError):
            call()


def test_levels_above_max_level_are_capacity_errors():
    # the float binomials C(m, k) own the level cap, so every caller refuses
    # alike rather than overflowing or running on; the exact path has none
    p = SpherePoint.from_z(0.5)
    for m in (1021, 1100):
        for call in (lambda: op.toeplitz(X3, m),
                     lambda: op.kernel_matrix(X3, m),
                     lambda: coherent_state(m, 0.5),
                     lambda: kernel_density(m, p),
                     lambda: radial_factors(m, [0.5])):
            with pytest.raises(CapacityError):
                call()


# -- banded storage -----------------------------------------------------------------


def _banded(rng, m, band):
    """Random complex matrix with every entry of |j - k| > band zero."""
    mat = rng.randn(m + 1, m + 1) + 1j * rng.randn(m + 1, m + 1)
    j, k = np.indices(mat.shape)
    return np.where(np.abs(j - k) <= band, mat, 0)


def _on_band(ref, band):
    """numpy's result with its off-band zeros as +0.0 (numpy's -mat gives -0.0)."""
    j, k = np.indices(ref.shape)
    outside = np.abs(j - k) > band
    assert not ref[outside].any()
    return np.where(outside, 0, ref)


def test_band_storage_matches_dense(rng):
    for m in (0, 1, 7, 40):
        mats = [_banded(rng, m, b) for b in (m, m, 0, 1, 3)]
        ops = [op.QuantumOperator(m, a) for a in mats]
        for a, x, b in zip(mats, ops, (m, m, 0, 1, 3)):
            assert x.band == min(b, m)
            assert x.diags.shape == (2 * x.band + 1, m + 1)
            assert x.mat.tobytes() == a.tobytes()
            for s in (2.5, -1.5 + 0.25j, -1j):
                assert (x * s).mat.tobytes() == _on_band(a * s, x.band).tobytes()
                assert (s * x).mat.tobytes() == _on_band(s * a, x.band).tobytes()
                assert (x / s).mat.tobytes() == _on_band(a / s, x.band).tobytes()
            assert (-x).mat.tobytes() == _on_band(-a, x.band).tobytes()
            v = rng.randn(m + 1) + 1j * rng.randn(m + 1)
            ref = a @ v
            got = (x @ SectionVector(m, v)).coeffs
            assert np.max(np.abs(got - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))
        for a, x in zip(mats, ops):
            for b, y in zip(mats, ops):
                band = max(x.band, y.band)
                assert (x + y).mat.tobytes() == _on_band(a + b, band).tobytes()
                assert (x - y).mat.tobytes() == _on_band(a - b, band).tobytes()
                for got, ref in (((x @ y).mat, a @ b),
                                 (op.commutator(x, y).mat, a @ b - b @ a)):
                    assert np.max(np.abs(got - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))
                assert (x @ y).band == min(x.band + y.band, m)


def test_band_hermiticity_matches_dense_check(rng):
    # a Hermitian H (max |H| = 1) plus eps S, S anti-Hermitian with max |S| = 1:
    # |A - A^H| = 2 eps against the 1e-12 tolerance
    for m in (0, 1, 7, 40):
        for band in (0, 1, 3, m):
            r = _banded(rng, m, band)
            h = (r + r.conj().T) / 2
            h /= np.max(np.abs(h))
            r = _banded(rng, m, band)
            s = (r - r.conj().T) / 2
            s /= np.max(np.abs(s))
            for eps, expected in ((0.0, True), (0.5e-12, None), (2e-12, False)):
                a = h + eps * s
                x = op.QuantumOperator(m, a)
                assert x.hermitian == dense_hermitian(a)
                assert expected is None or x.hermitian is expected
                assert x.hermitian_defect() == float(np.max(np.abs(a - a.conj().T)))


def test_hermitian_is_read_off_the_stack_it_wraps():
    # m and the stack are all an operator stores, so a caller that changes
    # the array it wrapped changes the operator: the flag and the norm
    # follow the stack, not the stack at construction
    assert op.QuantumOperator.__slots__ == ("m", "diags")
    d = op.toeplitz(X1, 8).diags.copy()
    a = op.QuantumOperator.from_diags(8, d)
    assert a.hermitian
    d[0] *= 2
    assert not a.hermitian and a.band == 1
    ref = float(np.linalg.norm(a.mat, 2))
    assert abs(op.operator_norm(a) - ref) <= 1e-12 * ref


def test_hermiticity_is_checked_only_when_read(monkeypatch):
    # arithmetic wraps its results without a check; one read of .hermitian
    # makes one adjoint (i[A, B] - C is Hermitian for Hermitian A, B, C)
    a, b, c = (op.toeplitz(h, 16) for h in (X1, X2 * X3, X1 * X2))
    adjoint, calls = op._band_adjoint, []

    def counted(diags):
        calls.append(len(diags))
        return adjoint(diags)

    monkeypatch.setattr(op, "_band_adjoint", counted)
    x = op.commutator(a, b) * 1j - c
    assert calls == []
    assert x.hermitian
    assert calls == [len(x.diags)]


def test_from_diags_refuses_a_band_wider_than_the_level():
    for m in (2, 5, 16):
        for rows in (2 * m + 3, 2 * m + 2, 2 * m):
            with pytest.raises(ValueError):
                op.QuantumOperator.from_diags(m, np.zeros((rows, m + 1), complex))
        x = op.QuantumOperator.from_diags(m, np.zeros((2 * m + 1, m + 1), complex))
        assert x.band == m


def test_operators_store_only_their_band():
    f = sy.parse(CRITERION10)
    m = 1000
    for t in (op.toeplitz(f, m), op.toeplitz_exact(f, m), op.kernel_matrix(f, m),
              op.prequantum(f, m), op.tuynman_rhs(f, m)):
        assert t.band == f.degree
        assert t.diags.size <= (2 * f.degree + 1) * (m + 1)


def _one_shot_table(m, s):
    """The radial table as one formula on full (nodes x (m+1)) arrays."""
    k = np.arange(m + 1)
    mag2 = binomial_floats(m) * s[:, None] ** k[None, :] * (1.0 - s)[:, None] ** (m - k)[None, :]
    return np.sqrt(mag2 * ((m + 1) / TWO_PI))


def _one_shot_band(left, right, w, samples, band):
    """Band sums over every node at once, on full rows of the left frame
    zero-padded by `top` columns each side:
    d[top + q, k] = sum_i w_i c_q(s_i) left[i, k+q] right[i, k], with
    left[i, k+q] = 0 off the matrix."""
    n = left.shape[1]
    top = min(band, n - 1)
    c = np.fft.fft(samples, axis=1) * (2.0 * math.pi / samples.shape[1])
    padded = np.pad(left, ((0, 0), (top, top)))
    d = np.zeros((2 * top + 1, n), dtype=complex)
    for q in range(-top, top + 1):
        prod = padded[:, top + q:top + q + n] * right
        d[top + q] = np.sum((w * c[:, q])[:, None] * prod, axis=0)
    return d


def test_lean_assembly_keeps_the_bytes(rng, monkeypatch):
    # node-streamed band sums keep every byte of the one-shot formulas, inline
    # here: the table and its Gram diagonal, the kernel path's raw frame, and
    # each band summed over all nodes at once (Q_f's second sum on the table
    # times k).  The levels cover one-entry corner diagonals (m <= 4, and
    # m = 40 at degree 40, whose 41 nodes exceed one BLOCK), single blocks,
    # and several blocks with a short last one (m = 513 at degree 0 ends on
    # a 1-node block).  Q_f, which has no level 0, starts at m = 1
    band_matrix, calls = op._band_matrix, []

    def spy(m, frames, w, band, *integrands):
        blocks = list(frames)
        got = band_matrix(m, iter(blocks), w, band, *integrands)
        frame = np.concatenate(blocks)
        refs = [_one_shot_band(frame, frame if col is None else frame * col, w, smp, band)
                for smp, col in integrands]
        assert got.tobytes() == sum(refs[1:], refs[0]).tobytes(), (m, band)
        calls.append((frame, len(integrands), got))
        return got

    monkeypatch.setattr(op, "_band_matrix", spy)
    levels = [(m, d) for m in (0, 1, 2, 3, 4, 7, 64, 513, 1000) for d in range(7)]
    for m, d in levels + [(40, 40)]:
        k = np.arange(m + 1)
        rule = make_rule(m, d)
        s, w = rule.s_nodes, rule.s_weights
        table, ref = basis_eval_grid(m, rule), _one_shot_table(m, s)
        assert table.B.tobytes() == ref.tobytes()
        gram = TWO_PI * np.sum(w[:, None] * ref**2, axis=0)
        assert table.gram_diagonal().tobytes() == gram.tobytes()
        assert table.gram_defect == float(np.max(np.abs(gram - 1.0)))

        f, calls[:] = random_symbol(rng, degree=d) + X2**d, []
        assert f.degree >= d
        op.toeplitz(f, m)
        t = op.kernel_matrix(f, m)
        if m:
            op.prequantum(f, m)
            table2, two, _ = calls.pop()
            assert two == 2
            assert table2.tobytes() == _one_shot_table(
                m, make_rule(m, f.degree + 2).s_nodes).tobytes()
        (table1, one, _), (frame, _, integrals) = calls
        assert one == 1
        assert table1.tobytes() == _one_shot_table(m, make_rule(m, f.degree).s_nodes).tobytes()
        s = make_rule(m, f.degree).s_nodes[:, None]
        assert frame.tobytes() == (s ** (k / 2.0) * (1.0 - s) ** ((m - k) / 2.0)).tobytes()
        r = np.sqrt(binomial_floats(m) * ((m + 1) / TWO_PI))
        rows = op._band_index(len(integrals) // 2, m + 1)[0]
        assert t.diags.tobytes() == (r[rows] * integrals * r[None, :]).tobytes()


def test_frames_are_consecutive_blocks_that_cover_every_node_once():
    # `_band_matrix` copies each block into a BLOCK-row buffer and reads its
    # weights at the running node offset, so both frames hand out blocks of
    # at most BLOCK nodes, in node order, every node once: 257 nodes end on
    # a 1-node block, 41 split into 32 + 9
    for m, d, sizes in ((513, 0, [BLOCK] * 8 + [1]), (40, 40, [BLOCK, 9])):
        rule, k = make_rule(m, d), np.arange(m + 1)
        s = rule.s_nodes[:, None]
        table = _one_shot_table(m, rule.s_nodes)
        raw = s ** (k / 2.0) * (1.0 - s) ** ((m - k) / 2.0)
        for blocks, ref in ((basis_eval_grid(m, rule).blocks(), table),
                            (op._raw_frame(m, rule.s_nodes), raw)):
            blocks = list(blocks)
            assert [len(b) for b in blocks] == sizes
            assert np.concatenate(blocks).tobytes() == ref.tobytes()


def test_streamed_assembly_holds_no_table():
    # no (nodes x (m+1)) array is ever alive: each level operation peaks
    # below one table's bytes (a full-table assembly peaked at 1.45-1.74
    # tables), and a basis table allocates nothing until a pass reads it
    f, m = sy.parse(CRITERION10), 1000
    for build, degree, bound in ((lambda: basis_eval_grid(m, make_rule(m, 4)), 4, 0.01),
                                 (lambda: op.toeplitz(f, m), 4, 1.0),
                                 (lambda: op.prequantum(f, m), 6, 1.0),
                                 (lambda: op.kernel_matrix(f, m), 4, 1.0)):
        table_bytes = len(make_rule(m, degree).s_nodes) * (m + 1) * 8
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * table_bytes, (degree, peak / table_bytes)


def test_operator_norm_is_the_dense_eigvalsh():
    # dense up to 159 rows (m = 158), where one window is the whole band;
    # the band norm past it, within the bound of the banded-norm tests
    f = sy.parse(CRITERION10)
    for m in (1, 64, 158, 300):
        t = op.toeplitz(f, m)
        ref = float(np.max(np.abs(np.linalg.eigvalsh(t.mat))))
        if m < 300:
            assert m + 1 <= norms.WINDOW_ROWS
            assert op.operator_norm(t) == ref
        else:
            assert abs(op.operator_norm(t) - ref) <= 1e-12 * ref


def _dense_norm(x):
    """The dense norm: eigvalsh for a band that passed the hermiticity check,
    else the root of the largest eigenvalue of A^H A, the band product."""
    if x.hermitian:
        return float(np.max(np.abs(np.linalg.eigvalsh(x.mat))))
    ata = op.QuantumOperator.from_diags(x.m, op._band_adjoint(x.diags)) @ x
    return math.sqrt(float(np.max(np.abs(np.linalg.eigvalsh(ata.mat)))))


def _lab_norm_cases(rng, m, degrees):
    """T_f and -i Q_f (from m = 1) of random real symbols, the thm2 residual
    and both thm3 residuals, as the lab builds them."""
    cases = []
    for d in degrees:
        f = random_symbol(rng, degree=d)
        cases += [op.toeplitz(f, m)] + ([-1j * op.prequantum(f, m)] if m else [])
    f, g = random_symbol(rng, degree=2), random_symbol(rng, degree=3)
    tf, tg = op.toeplitz(f, m), op.toeplitz(g, m)
    cases.append(op.commutator(tf, tg) * (1j * m) - op.toeplitz(sy.poisson_bracket(f, g), m))
    r1 = tf @ tg - op.toeplitz(sy.multiply(f, g), m)
    c1 = sy.c1_candidate(f, g, sy.SELECTED_C1_ORDERING)
    return cases + [r1] + ([r1 - op.toeplitz(c1, m) / m] if m else [])


def _special_norm_cases(m):
    """Zero, identity, repeated eigenvalues at both ends, and a zero diagonal
    (an exact-zero leading pivot at the shift 0)."""
    n, band = m + 1, min(1, m)
    zero_diag = np.zeros((2 * band + 1, n), complex)
    zero_diag[0, 1:] = zero_diag[-1, :n - 1] = 1.0  # empty slices when n = 1
    repeated = np.resize([2.0, -2.0, 0.5, 0.5], (1, n)).astype(complex)
    return [op.QuantumOperator.from_diags(m, np.zeros((2 * band + 1, n), complex)),
            op.identity(m), op.QuantumOperator.from_diags(m, repeated),
            op.QuantumOperator.from_diags(m, zero_diag)]


def test_banded_norm_matches_the_dense_norm(rng, monkeypatch):
    # with windows of one row, `_band_radius` takes the Sturm path from 2 rows
    # up, its windows covering none of the band
    monkeypatch.setattr(norms, "WINDOW_ROWS", 1)
    for m in (0, 1, 2, 7, 64):
        cases = _lab_norm_cases(rng, m, range(1, 7)) + _special_norm_cases(m)
        assert m == 0 or any(not x.hermitian for x in cases)  # both branches
        for x in cases:
            ref = _dense_norm(x)
            assert abs(op.operator_norm(x) - ref) <= 1e-12 * ref, (m, x.band, x.hermitian)


def test_band_inertia_counts_through_exact_zero_pivots():
    # zero diagonal, unit off-diagonals: eigenvalues 2 cos(k pi/(n+1)); at
    # the shift 0 every second pivot is exactly zero before the guard
    for n in (2, 8, 64):
        x = _special_norm_cases(n - 1)[-1]
        assert x.hermitian and x.band == 1
        lam = 2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        shifts = np.array([0.0, -2.5, 2.5, lam[0] + 1e-9, lam[-1] - 1e-9])
        counts = norms._band_inertia(x.diags, shifts, np.finfo(float).eps * 2)
        assert counts.tolist() == [n // 2, 0, n, n, 0]


def _one_store_inertia(diags, shifts, pivmin):
    """`_band_inertia` with one store of all n + b rows: the reference for
    its chunked store."""
    b, n, ns = len(diags) // 2, diags.shape[1], len(shifts)
    store = np.zeros((n + b, b + 1, ns), dtype=complex)
    for j in range(b + 1):
        store[b - j:n, j] = diags[2 * b - j, :n - b + j, None]
    store[:n, b] -= shifts
    flat, (step, entry, shift) = store.reshape(-1, ns), store.strides
    piv = flat[b::b + 1][:n].real
    below = as_strided(flat[2 * b:], (n, b, ns), (step, b * entry, shift))
    window = as_strided(flat[2 * b + 1:], (n, b, b, ns), (step, b * entry, entry, shift))
    for k in range(n):
        p = piv[k]
        np.copyto(p, -pivmin, where=np.abs(p) < pivmin)
        c = below[k]
        window[k] -= c[:, None] * (c.conj() / p)
    return piv.copy(), np.count_nonzero(piv < 0, axis=0)


def test_band_inertia_chunks_count_as_one_store(rng):
    # a random Hermitian band and one whose only entries are ones on the b-th
    # diagonals: b decoupled chains with an exact zero pivot every second
    # row at the shift 0; sizes across and inside one chunk of 64 pivots
    for b in (1, 4, 8):
        for n in (2, 64, 1001):
            inside = norms._band_index(b, n)[1]
            d = np.where(inside, rng.standard_normal((2 * b + 1, n))
                         + 1j * rng.standard_normal((2 * b + 1, n)), 0)
            chains = np.zeros((2 * b + 1, n), complex)
            chains[0, b:] = chains[-1, :n - b] = 1.0
            for x in ((d + norms._band_adjoint(d)) / 2, chains):
                g = max(1.0, float(np.max(np.abs(x).sum(axis=0))))
                shifts = np.concatenate([[0.0], np.linspace(-g, g, 23)])
                pivmin = np.finfo(float).eps * g
                pivots, want = _one_store_inertia(x, shifts, pivmin)
                assert x is not chains or n <= b or np.any(pivots == -pivmin)
                got = norms._band_inertia(x, shifts, pivmin)
                assert got.tolist() == want.tolist(), (b, n)


def test_operator_norm_at_high_level_is_the_band_norm(rng):
    m = 1000
    cases = _lab_norm_cases(rng, m, (4,))
    for x in cases:
        ref = _dense_norm(x)
        assert abs(op.operator_norm(x) - ref) <= 1e-12 * ref, (x.band, x.hermitian)


def test_operator_norm_reads_only_the_band_from_the_cutover(monkeypatch):
    # a Hermitian and a general operator past WINDOW_ROWS rows, whatever the
    # band: LAPACK, `_dense` and `.mat` see only `_band_radius`'s principal
    # windows of WINDOW_ROWS rows, not the whole band; at four times that
    # size, the memory bound below holds
    m = norms.WINDOW_ROWS
    f = sy.parse(CRITERION10)

    def band4(m):
        return [op.toeplitz(f, m), op.toeplitz(X1 * X3, m) @ op.toeplitz(X1 * X2, m)]

    for x in band4(m - 1) + [op.toeplitz_exact(X3 ** 16, m - 1)]:
        assert op.operator_norm(x) == _dense_norm(x)
    cases = band4(m) + [op.toeplitz_exact(X3 ** 16, m)] + band4(4 * m + 3)
    assert [(x.band, x.hermitian) for x in cases] == [(4, True), (4, False), (16, True),
                                                      (4, True), (4, False)]
    refs = [_dense_norm(x) for x in cases]
    rows = []  # the row count of every matrix the three spies see

    def spy(fn, size):
        def seen(*args, **kwargs):
            out = fn(*args, **kwargs)
            rows.append(size(args, out))
            return out
        return seen

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK 2-norm in an operator norm")

    mat = op.QuantumOperator.mat.fget
    monkeypatch.setattr(op.QuantumOperator, "mat",
                        property(spy(mat, lambda args, out: len(out))))
    monkeypatch.setattr(norms, "_dense", spy(norms._dense, lambda args, out: len(out)))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        spy(np.linalg.eigvalsh, lambda args, out: len(args[0])))
    monkeypatch.setattr(np.linalg, "norm", refuse)
    for x, ref in zip(cases, refs):
        rows.clear()
        tracemalloc.start()
        try:
            got = op.operator_norm(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(got - ref) <= 1e-12 * ref
        assert rows and max(rows) <= norms.WINDOW_ROWS, rows
        # a quarter of one dense complex matrix; half for A^H A, of twice the
        # band (at WINDOW_ROWS + 1 rows the first sweep's Sturm store of either
        # is larger)
        if x.m > m:
            assert peak < (x.m + 1) ** 2 * 16 / (4 if x.hermitian else 2), peak


@pytest.fixture
def sweeps(monkeypatch):
    """The shift count of each `_band_inertia` call: one per Sturm sweep."""
    seen = []
    inertia = norms._band_inertia

    def counted(*args):
        seen.append(len(args[1]))
        return inertia(*args)

    monkeypatch.setattr(norms, "_band_inertia", counted)
    return seen


def test_criterion10_q_norm_takes_at_most_two_sweeps(sweeps):
    # -i Q_f of the criterion-10 symbol: its extreme eigenvectors localise
    # where f is extreme, so the window's estimate ends the multisection in
    # one or two Sturm sweeps (17 from the Gershgorin bounds alone)
    f = sy.parse(CRITERION10)
    for m in (256, 512, 1000):
        x = -1j * op.prequantum(f, m)
        assert x.hermitian
        sweeps.clear()
        op.operator_norm(x)
        assert 1 <= len(sweeps) <= 2, (m, sweeps)


def test_band_norm_where_the_window_cannot_localise(sweeps):
    # x1: a symmetric spectrum, so both ends stay live; -0.557 x2^6: its top
    # end is the great circle x2 = 0, not a point; and a general A^H A, whose
    # bottom end is not localised either.  In the last two the other end's
    # |lambda| is certainly larger after the first sweep, so the end the
    # window misses is dropped rather than narrowed
    cases = [op.toeplitz(X1, 300), op.toeplitz(sy.parse("-0.557*x2^6"), 170),
             op.toeplitz(X1 * X3, 300) @ op.toeplitz(X1 * X2, 300)]
    assert [x.hermitian for x in cases] == [True, True, False]
    for x in cases:
        ref = _dense_norm(x)
        sweeps.clear()
        assert abs(op.operator_norm(x) - ref) <= 1e-12 * ref, (x.m, x.band)
        assert x is cases[0] or len(sweeps) <= 2, sweeps


# -- determinism ---------------------------------------------------------------------


def test_assembly_bit_identical_across_threads():
    runs = [assemble_in_subprocess("x1*x2*x3 - 0.5*x3^2", 24, n)[0]
            for n in (1, 3, 8)]
    assert runs[0] == runs[1] == runs[2]


def _reports_under_one_and_two_threads(args):
    return [subprocess.run([sys.executable, "-m", "btq.cli", *args],
                           env=_fresh_env(OPENBLAS_NUM_THREADS=str(n), OMP_NUM_THREADS=str(n)),
                           capture_output=True, check=True).stdout
            for n in (1, 2)]


@pytest.mark.parametrize("args", [
    ["thm3", "--f", "x1", "--g", "x2", "--levels", "16,32,64,128", "--order", "2"],
    ["tuynman", "--f", CRITERION10, "--levels", "256,512", "--max-level", "1020"],
    ["thm1", "--f", CRITERION10, "--levels", "150,200,250"],
], ids=["thm3", "tuynman", "thm1"])
def test_report_bit_identical_across_threads(args):
    # LAPACK sees at most WINDOW_ROWS rows, where eigvalsh gives the
    # same bytes under 1 and 2 threads; a general operator's is eigvalsh of
    # A^H A (the LAPACK 2-norm differed from 68 rows, eigvalsh from 164)
    runs = _reports_under_one_and_two_threads(args)
    assert runs[0] == runs[1]


_DENSE_NORMS = """
import hashlib
import numpy as np
from btq import norms, operators as op
rng, digest = np.random.default_rng(46), hashlib.sha256()
for n in range(norms.WINDOW_ROWS - 9, norms.WINDOW_ROWS + 1):
    for band in range(13):
        inside = op._band_index(band, n)[1]
        d = np.where(inside, rng.standard_normal((2 * band + 1, n))
                     + 1j * rng.standard_normal((2 * band + 1, n)), 0)
        for diags, hermitian in ((d, False), ((d + op._band_adjoint(d)) / 2, True)):
            x = op.QuantumOperator.from_diags(n - 1, diags)
            assert x.hermitian == hermitian
            digest.update(np.float64(op.operator_norm(x)).tobytes())
print(digest.hexdigest())
"""


def test_dense_norms_below_the_cutover_bit_identical_across_threads():
    # the 10 sizes up to WINDOW_ROWS, where one window is the whole band,
    # Hermitian and general, bands 0-12: a BLAS build whose eigvalsh switches
    # to threaded kernels at or below that size fails here
    runs = [subprocess.run([sys.executable, "-c", _DENSE_NORMS],
                           env=_fresh_env(OPENBLAS_NUM_THREADS=str(n), OMP_NUM_THREADS=str(n)),
                           capture_output=True, check=True).stdout
            for n in (1, 2)]
    assert len(runs[0]) == 65 and runs[0] == runs[1]


def test_thm1_report_bit_identical_across_threads():
    # a band-4 norm at m = 1000 hands LAPACK only windows of WINDOW_ROWS rows,
    # so it reports the same bytes under any thread count (dense eigvalsh did not)
    runs = _reports_under_one_and_two_threads(
        ["thm1", "--f", CRITERION10, "--levels", "1000", "--max-level", "1020"])
    assert runs[0] == runs[1]
