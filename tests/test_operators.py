import math
from fractions import Fraction

import numpy as np
import pytest

from btq import operators as op
from btq import symbols as sy
from btq.errors import LevelMismatchError, UnderResolvedRuleError
from btq.geometry import make_rule
from btq.hilbert import SectionVector, basis_eval_grid
from conftest import assemble_in_subprocess, random_symbol

X1, X2, X3, ONE = sy.X1, sy.X2, sy.X3, sy.ONE


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


def test_toeplitz_under_resolved_rejected():
    rule = make_rule(8, 0)  # no headroom for a degree-2 symbol
    with pytest.raises(UnderResolvedRuleError):
        op.toeplitz(X3 * X3, 8, rule=rule)


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


def _toeplitz_exact_per_entry(f, m):
    """Reference: one math.comb and one Fraction per entry."""
    n = m + 1
    mat = np.zeros((n, n), dtype=complex)
    sq = np.array([math.sqrt(float(math.comb(m, k))) for k in range(n)])
    for (a, b, c), coeff in sorted(f.terms.items()):
        d = a + b + c
        for (alpha, beta), cc in sorted(op._chart_numerator(a, b, c).items()):
            for k in range(n):
                j = k + alpha - beta
                if 0 <= j < n:
                    kappa = Fraction(m + 1, (m + d + 1) * math.comb(m + d, k + alpha))
                    mat[j, k] += coeff * cc * (float(kappa) * sq[j] * sq[k])
    return mat


def test_toeplitz_exact_matches_per_entry_beta_ratios(rng):
    symbols = (ONE, X3, X1 * X2, sy.parse("x1*x2*x3^2 + 0.25*x1^2*x2^2 - x3 + 0.125"),
               random_symbol(rng, degree=5), random_symbol(rng, degree=4, real=False))
    for f in symbols:
        for m in (0, 1, 5, 40):
            got = op.toeplitz_exact(f, m).mat
            assert got.tobytes() == _toeplitz_exact_per_entry(f, m).tobytes()


# -- Toeplitz path 3: integral kernel --------------------------------------------


def test_kernel_apply_reproduces_sections(rng):
    m = 6
    sec = SectionVector(m, rng.randn(m + 1) + 1j * rng.randn(m + 1))
    out = op.kernel_apply(ONE, m, sec)
    assert np.max(np.abs(out.coeffs - sec.coeffs)) < 1e-12


def test_kernel_apply_examples():
    e0 = SectionVector(2, np.array([1, 0, 0], dtype=complex))
    out = op.kernel_apply(X3, 2, e0)
    assert np.max(np.abs(out.coeffs - np.array([0.5, 0, 0]))) < 1e-13

    e0 = SectionVector(1, np.array([1, 0], dtype=complex))
    out = op.kernel_apply(X1, 1, e0)
    assert np.max(np.abs(out.coeffs - np.array([0, 1 / 3]))) < 1e-13


def test_kernel_apply_matches_toeplitz(rng):
    m = 10
    f = random_symbol(rng, degree=3)
    t = op.toeplitz(f, m)
    for _ in range(5):
        sec = SectionVector(m, rng.randn(m + 1) + 1j * rng.randn(m + 1))
        out = op.kernel_apply(f, m, sec)
        assert np.max(np.abs(out.coeffs - t.mat @ sec.coeffs)) < 1e-10


def test_three_paths_agree(rng):
    from btq.lab import cross_check
    for f in (X1, X3 * X3, X1 * X2, random_symbol(rng, degree=4)):
        for m in (2, 8, 32):
            assert cross_check(f, m) < 1e-10


def test_band_limited_paths_match_exact_at_high_level(rng):
    # the angular FFT runs on 2 deg f + 1 nodes; aliasing would show here
    symbols = [random_symbol(rng, degree=d) for d in (1, 3, 6)]
    symbols += [random_symbol(rng, degree=d, real=False) for d in (2, 6)]
    for m in (256, 1000):
        table = basis_eval_grid(m, make_rule(m, 6))
        for f in symbols:
            exact = op.toeplitz_exact(f, m).mat
            for path in (op.toeplitz, op.kernel_matrix):
                assert np.max(np.abs(path(f, m, table=table).mat - exact)) < 1e-12


# -- structure ------------------------------------------------------------------


def test_hermiticity_flags(rng):
    for _ in range(5):
        f = random_symbol(rng)
        t = op.toeplitz(f, 12)
        assert t.hermitian
        assert t.hermitian_defect() < 1e-12
    tc = op.toeplitz(X1 + 1j * X2, 12)
    assert not tc.hermitian


def test_positivity(rng):
    for _ in range(5):
        g = random_symbol(rng, degree=2)
        f = g * g  # nonnegative on the sphere
        assert sy.grid_min(f) >= -1e-12
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
        table = basis_eval_grid(m, make_rule(m, 8))
        for f in symbols:
            q = op.prequantum(f, m, table=table)
            rhs = op.tuynman_rhs(f, m, table=table)
            bound = 1e-12 * (1 + op.operator_norm(op.QuantumOperator(m, -1j * q.mat)))
            assert np.max(np.abs(q.mat - rhs.mat)) <= bound


# -- norms and commutators ---------------------------------------------------------


def test_operator_norm_examples():
    assert op.operator_norm(op.identity(5)) == 1.0
    for m in (2, 8, 64):
        t = op.toeplitz_exact(X3, m)
        assert abs(op.operator_norm(t) - m / (m + 2)) < 1e-12
    zero = op.QuantumOperator(3, np.zeros((4, 4)), hermitian=False)
    assert op.operator_norm(zero) == 0.0


def test_operator_norm_matches_svd(rng):
    # general operators: the 2-norm against the top eigenvalue of A^H A
    for n in (3, 17, 60):
        a = rng.randn(n, n) + 1j * rng.randn(n, n)
        norm = op.operator_norm(op.QuantumOperator(n - 1, a, hermitian=False))
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
    with pytest.raises(LevelMismatchError):
        op.commutator(op.identity(3), op.identity(4))


# -- serialization and determinism ---------------------------------------------------


def test_json_roundtrip(rng):
    t = op.toeplitz(random_symbol(rng), 5)
    back = op.QuantumOperator.from_json_dict(t.to_json_dict())
    assert back.m == 5
    assert np.array_equal(back.mat, t.mat)


def test_binary_roundtrip(rng):
    t = op.toeplitz(random_symbol(rng, real=False), 7)
    blob = t.to_binary()
    assert blob[:8] == b"BTQOPV01"
    assert len(blob) == 8 + 16 * 64
    back = op.QuantumOperator.from_binary(blob)
    assert back.m == 7
    assert np.array_equal(back.mat, t.mat)
    with pytest.raises(ValueError):
        op.QuantumOperator.from_binary(b"WRONGHDR" + blob[8:])


def test_binary_payload_is_interleaved_le_float64():
    import struct
    mat = np.array([[1.5 + 2.5j, -3.0 + 0.25j],
                    [0.0 - 1.0j, 4.0 + 0.0j]])
    blob = op.QuantumOperator(1, mat).to_binary()
    floats = struct.unpack("<8d", blob[8:])
    assert floats == (1.5, 2.5, -3.0, 0.25, 0.0, -1.0, 4.0, 0.0)


def test_json_dict_schema(rng):
    t = op.toeplitz_exact(X3, 2)
    obj = t.to_json_dict()
    assert set(obj) == {"m", "rows"}
    assert obj["m"] == 2
    assert len(obj["rows"]) == 3 and len(obj["rows"][0]) == 3
    assert obj["rows"][0][0] == [0.5, 0.0]


def test_assembly_bit_identical_across_threads():
    runs = [assemble_in_subprocess("x1*x2*x3 - 0.5*x3^2", 24, n)[0]
            for n in (1, 3, 8)]
    assert runs[0] == runs[1] == runs[2]
