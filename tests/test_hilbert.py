import math
from fractions import Fraction

import numpy as np
import pytest

from btq import hilbert as hb
from btq import operators
from btq.errors import CapacityError, UnderResolvedRuleError
from btq.geometry import QuadratureRule, SpherePoint, make_rule
from btq.symbols import parse
from conftest import modules_after, random_point

TWO_PI = 2.0 * math.pi


def test_monomial_norm_examples():
    assert abs(hb.monomial_norm(0, 0) - TWO_PI) < 1e-15
    assert abs(hb.monomial_norm(1, 0) - math.pi) < 1e-15
    assert abs(hb.monomial_norm(2, 1) - math.pi / 3) < 1e-15
    with pytest.raises(IndexError):
        hb.monomial_norm(3, 4)
    with pytest.raises(IndexError):
        hb.monomial_norm(3, -1)


def test_monomial_norm_is_the_rounded_exact_reciprocal():
    # reference: the exact rational 1/((m+1) C(m,k)), rounded once
    for m in [*range(64), 255, 256, 511, 512, 1000, 1019, 1020]:
        for k in range(m + 1):
            ref = float(Fraction(1, (m + 1) * math.comb(m, k)))
            assert hb.monomial_norm(m, k) == TWO_PI * ref
    loaded = modules_after("import btq")
    assert "fractions" not in loaded and "decimal" not in loaded


def test_monomial_norm_against_quadrature():
    # independent route: integrate |z^k|^2 (1+|z|^2)^-m directly
    m = 7
    rule = make_rule(m, 0)
    s, w = rule.s_nodes, rule.s_weights
    for k in range(m + 1):
        val = TWO_PI * np.sum(w * s**k * (1 - s) ** (m - k))
        assert abs(val - hb.monomial_norm(m, k)) < 1e-14 * hb.monomial_norm(m, k)


def test_monomial_norm_large_level_no_overflow():
    n = hb.monomial_norm(400, 200)
    assert 0.0 < n < 1.0
    log_n = math.log(TWO_PI) + 2 * math.lgamma(201) - math.lgamma(402)
    assert abs(math.log(n) - log_n) < 1e-9


def test_dimension():
    for m in (0, 1, 5, 64):
        assert hb.dimension(m) == m + 1
        table = hb.basis_eval_grid(m, make_rule(m, 0)) if m <= 5 else None
        if table is not None:
            assert table.B.shape[1] == m + 1


def test_gram_identity():
    for m in (0, 3, 16):
        table = hb.basis_eval_grid(m, make_rule(m, 0))
        assert table.gram_defect <= 1e-12


def test_gram_identity_up_to_max_level():
    # leggauss weights alone left a 1.35e-12 defect at m=256, degree 4
    for m in (256, 512, 1000, 1020):
        for d in (0, 4, 6):
            assert hb.basis_eval_grid(m, make_rule(m, d)).gram_defect <= 1e-12


def test_under_resolved_rule_rejected_by_declaration():
    rule = make_rule(1, 0)
    with pytest.raises(UnderResolvedRuleError) as err:
        hb.basis_eval_grid(3, rule)
    assert "radial degree" in str(err.value)


def test_under_resolved_rule_rejected_by_gram_self_test(monkeypatch):
    # construction checks only the declared exactness; the Gram self-test
    # refuses the lying rule when a pass over the table's blocks ends: in the
    # assembly that streams them, or on reading the table or its defect
    weak = make_rule(1, 0)
    lying = QuadratureRule(s_nodes=weak.s_nodes, s_weights=weak.s_weights,
                           max_radial_degree=99)
    monkeypatch.setattr(operators, "make_rule", lambda m, degree: lying)
    x3 = parse("x3")
    for read in (lambda: operators.toeplitz(x3, 3), lambda: operators.prequantum(x3, 3),
                 lambda: hb.basis_eval_grid(3, lying).gram_defect,
                 lambda: hb.basis_eval_grid(3, lying).B):
        with pytest.raises(UnderResolvedRuleError) as err:
            read()
        assert "Gram" in str(err.value)


def test_inner_product_consistency(rng):
    # quadrature inner product == coefficient inner product
    for m in (1, 4, 16):
        table = hb.basis_eval_grid(m, make_rule(m, 0))
        for _ in range(20):
            a = hb.SectionVector(m, rng.randn(m + 1) + 1j * rng.randn(m + 1))
            b = hb.SectionVector(m, rng.randn(m + 1) + 1j * rng.randn(m + 1))
            qi = hb.quadrature_inner(a, b, table)
            ci = hb.coefficient_inner(a, b)
            assert abs(qi - ci) < 1e-12 * max(1.0, abs(ci))


def test_kernel_density_examples():
    assert abs(hb.kernel_density(0, SpherePoint.from_z(0.7j)) - 1 / TWO_PI) < 1e-15
    north = SpherePoint.from_z(0)
    assert abs(hb.kernel_density(7, north) - 8 / TWO_PI) < 1e-14
    far = SpherePoint.from_z(2 + 1j)
    assert abs(hb.kernel_density(7, far) - hb.kernel_density(7, north)) < 1e-12
    with pytest.raises(ValueError):
        hb.kernel_density(3, SpherePoint.infinity())


def test_kernel_density_constant(rng):
    for m in (1, 8, 64):
        expect = (m + 1) / TWO_PI
        for _ in range(50):
            p = random_point(rng)
            assert abs(hb.kernel_density(m, p) - expect) < 1e-12 * expect


def test_coherent_state_coefficients():
    st = hb.coherent_state(5, 0)
    expect0 = math.sqrt(TWO_PI / 6)
    assert abs(st.coeffs[0] - expect0) < 1e-15
    assert np.max(np.abs(st.coeffs[1:])) == 0.0

    st2 = hb.coherent_state(2, 1)
    expect = math.sqrt(TWO_PI / 3) * np.array([1.0, math.sqrt(2), 1.0])
    assert np.max(np.abs(st2.coeffs - expect)) < 1e-14


def test_coherent_state_norm_identity(rng):
    st = hb.coherent_state(3, 1j)
    norm2 = hb.coefficient_inner(st, st).real
    assert abs(norm2 - (TWO_PI / 4) * 8) < 1e-12 * norm2
    for _ in range(10):
        z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        m = int(rng.randint(1, 40))
        st = hb.coherent_state(m, z0)
        norm2 = hb.coefficient_inner(st, st).real
        closed = hb.coherent_norm_sq(m, z0)
        assert abs(norm2 - closed) < 1e-12 * closed


def test_coherent_state_refuses_levels_where_its_norm_overflows():
    # at (1000, 3) the coefficients were inf and at (600, 3) <phi, phi> was,
    # with only a RuntimeWarning; coherent_norm_sq raised a bare OverflowError
    for m, z0 in ((600, 3), (1000, 3), (1020, 2.0), (800, 5j)):
        with pytest.raises(CapacityError):
            hb.coherent_state(m, z0)
        with pytest.raises(CapacityError):
            hb.coherent_norm_sq(m, z0)
    st = hb.coherent_state(300, 3)
    norm2 = hb.coefficient_inner(st, st).real
    closed = hb.coherent_norm_sq(300, 3)
    assert abs(closed - 2.087e298) < 1e-3 * closed
    assert abs(norm2 - closed) < 1e-12 * closed


def test_coherent_densities_refuse_levels_where_they_overflow():
    # at (1000, 3) both raised a bare OverflowError from the float power
    # (10^1000 and 10^1000 exp(0)); now a CapacityError naming m and z0
    p = SpherePoint.from_z(3)
    for density in (hb.coherent_density, hb.coherent_density_reference):
        with pytest.raises(CapacityError, match="z0=3 .* level 1000"):
            density(1000, 3, p)
    assert hb.coherent_density(300, 3, p) == 10.0 ** 300


def test_coherent_density_identity(rng):
    # h^m(phi,phi)(x) = (1+|z0|^2)^m exp(-m D(x0,x))
    for m in (1, 8, 64):
        done = 0
        while done < 50:
            z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            p = random_point(rng)
            ref = hb.coherent_density_reference(m, z0, p)
            if ref < 1e-250:
                continue
            val = hb.coherent_density(m, z0, p)
            assert abs(val - ref) < 1e-10 * max(ref, 1e-300)
            done += 1


def test_coherent_density_peaks_at_base_point(rng):
    m, z0 = 16, 0.4 - 0.3j
    at_base = hb.coherent_density(m, z0, SpherePoint.from_z(z0))
    assert abs(at_base - (1 + abs(z0) ** 2) ** m) < 1e-10 * at_base
    for _ in range(20):
        p = random_point(rng)
        assert hb.coherent_density(m, z0, p) <= at_base * (1 + 1e-12)


def test_section_vector_shape_check(rng):
    raw = rng.randn(4)
    sec = hb.SectionVector(3, raw)
    assert sec.coeffs.dtype == complex
    assert np.array_equal(sec.coeffs, raw)
    with pytest.raises(ValueError):
        hb.SectionVector(3, np.zeros(3, dtype=complex))
