"""Quantum operators at level m: Toeplitz matrices by three independent
construction paths, geometric-quantization matrices, norms and commutators.

Paths for T_f: (1) quadrature: the angular integral of every matrix
element is an exact Kronecker delta, so (T_f)_{k+q,k} is the radial Gauss
sum 2 pi sum_s w_s R_{k+q}(s) R_k(s) f_q(s) over the basis table, with f_q
the angular Fourier coefficient of f taken by FFT on 2 deg f + 1 uniform
phi nodes (exact, since f carries only the harmonics |q| <= deg f); only
the band |q| <= deg f is assembled, by elementwise products and sums (no
BLAS, so the bytes do not depend on any thread count); (2) exact radial
moments, expanding the chart numerator of each monomial and integrating
every z^a zbar^b (1+z zbar)^-(m+d) term as an exact Beta ratio, tabulated
once per term degree from exact binomials -- no quadrature at all; (3) the
explicit integral kernel, expanding (1 + z conj(zeta))^m binomially and
re-projecting on the raw monomial frame.  Pairwise agreement of the three
is the package's core self-test.

The geometric-quantization operator is Q_f = Pi(-(1/m) nabla_{X_f} + i f)Pi
with the Hamiltonian field of the area form; the 1/m is the level-m scaling
(the m-th bundle power quantizes m times the symplectic form), and Tuynman's
relation Q_f = i T_{f - Laplacian(f)/(2m)} is the exactness check.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ._zpoly import chart_rational, zp_eval
from .errors import LevelMismatchError, UnderResolvedRuleError
from .geometry import DEFAULT_CONVENTIONS, make_rule
from .hilbert import TWO_PI, SectionVector, basis_eval_grid, binomial_row
from .symbols import eval_ambient, laplace_beltrami

BINARY_HEADER = b"BTQOPV01"
_HERM_TOL = 1e-12


class QuantumOperator:
    """Dense complex matrix at level m in the orthonormal basis."""

    __slots__ = ("m", "mat", "hermitian", "_norm")

    def __init__(self, m, mat, hermitian=None):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (m + 1, m + 1):
            raise ValueError(f"level {m} needs a {m + 1}x{m + 1} matrix")
        self.m = m
        self.mat = mat
        if hermitian is None:
            scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 1.0)
            hermitian = float(np.max(np.abs(mat - mat.conj().T))) <= _HERM_TOL * scale
        self.hermitian = bool(hermitian)
        self._norm = None

    def hermitian_defect(self):
        return float(np.max(np.abs(self.mat - self.mat.conj().T)))

    def __add__(self, other):
        self._check(other)
        return QuantumOperator(self.m, self.mat + other.mat)

    def __sub__(self, other):
        self._check(other)
        return QuantumOperator(self.m, self.mat - other.mat)

    def __mul__(self, scalar):
        return QuantumOperator(self.m, self.mat * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return QuantumOperator(self.m, -self.mat)

    def __matmul__(self, other):
        self._check(other)
        return QuantumOperator(self.m, self.mat @ other.mat)

    def _check(self, other):
        if not isinstance(other, QuantumOperator):
            raise TypeError("expected a QuantumOperator")
        if self.m != other.m:
            raise LevelMismatchError(f"levels {self.m} and {other.m} differ")

    def norm(self):
        if self._norm is None:
            self._norm = operator_norm(self)
        return self._norm

    # -- serialization ---------------------------------------------------

    def to_json_dict(self):
        return {"m": self.m,
                "rows": [[[v.real, v.imag] for v in row] for row in self.mat]}

    @classmethod
    def from_json_dict(cls, obj):
        mat = np.array([[complex(r, i) for r, i in row] for row in obj["rows"]])
        return cls(obj["m"], mat)

    def to_json(self):
        return json.dumps(self.to_json_dict())

    def to_binary(self):
        """Header "BTQOPV01" + row-major little-endian float64 re/im pairs."""
        return BINARY_HEADER + np.ascontiguousarray(self.mat.astype("<c16")).tobytes()

    @classmethod
    def from_binary(cls, blob):
        if blob[:8] != BINARY_HEADER:
            raise ValueError("bad operator binary header")
        flat = np.frombuffer(blob[8:], dtype="<c16")
        n = math.isqrt(flat.size)
        if n * n != flat.size:
            raise ValueError("operator binary payload is not square")
        return cls(n - 1, flat.reshape(n, n).astype(complex))


def identity(m):
    return QuantumOperator(m, np.eye(m + 1, dtype=complex), hermitian=True)


# -- banded assembly on the radial table ---------------------------------------


def _band_matrix(left, right, w, samples, band):
    """mat[k+q, k] = sum_i w_i left[i, k+q] right[i, k] c_q(s_i) for |q| <= band.

    samples[i, l] is the integrand's angular factor at (s_i, phi_l) on the
    `_phi_grid(band)` nodes.  The factor carries only the harmonics
    |q| <= band, which 2 band + 1 nodes resolve without aliasing, so
    c_q(s_i) = int samples e^{-i q phi} dphi is exact by FFT.  Entries
    outside the band are exact zeros.
    """
    n = left.shape[1]
    coeffs = np.fft.fft(samples, axis=1) * (2.0 * math.pi / samples.shape[1])
    mat = np.zeros((n, n), dtype=complex)
    top = min(band, n - 1)
    for q in range(-top, top + 1):
        a, b = max(q, 0), max(-q, 0)  # band q starts at row a, column b
        wc = w * coeffs[:, q]  # negative q indexes frequency q modulo n_phi
        prod = left[:, a:n - b] * right[:, b:n - a]
        vals = np.sum(wc[:, None] * prod, axis=0)
        mat[np.arange(a, n - b), np.arange(b, n - a)] = vals
    return mat


def _phi_grid(degree):
    """The 2 degree + 1 uniform phi nodes that resolve harmonics |q| <= degree."""
    n = 2 * degree + 1
    return 2.0 * math.pi * np.arange(n) / n


def _ambient_grid(table, degree):
    """Ambient coordinates at the radial nodes times `_phi_grid(degree)`,
    broadcasting to (n_s, 2 degree + 1)."""
    s = table.s[:, None]
    phi = _phi_grid(degree)[None, :]
    rho = 2.0 * np.sqrt(s * (1.0 - s))
    return rho * np.cos(phi), rho * np.sin(phi), 1.0 - 2.0 * s


def _resolve_table(f_degree, m, rule=None, table=None, margin=0, extra_degree=0):
    if table is None:
        if rule is None:
            rule = make_rule(m, f_degree + extra_degree, margin=margin)
        table = basis_eval_grid(m, rule)
    need = m + f_degree + extra_degree
    if table.rule.max_radial_degree < need or table.rule.max_angular_frequency < need:
        raise UnderResolvedRuleError(
            f"rule resolves degree {table.rule.max_radial_degree}, need {need}")
    if table.m != m:
        raise ValueError("table level mismatch")
    return table


# -- path 1: quadrature --------------------------------------------------------


def _toeplitz_matrix(f, m, rule=None, table=None, margin=0):
    """The raw T_f array; for real f, verified Hermitian to _HERM_TOL."""
    table = _resolve_table(f.degree, m, rule, table, margin)
    fv = eval_ambient(f, *_ambient_grid(table, f.degree))
    mat = _band_matrix(table.B, table.B, table.w, fv, f.degree)
    if f.is_real:
        scale = max(1.0, float(np.max(np.abs(mat))))
        if float(np.max(np.abs(mat - mat.conj().T))) > _HERM_TOL * scale:
            raise UnderResolvedRuleError(
                "real symbol produced a non-Hermitian Toeplitz matrix")
    return mat


def toeplitz(f, m, rule=None, table=None, margin=0):
    """T_f at level m by exact quadrature: (T_f)_jk = <e_j, f e_k>."""
    mat = _toeplitz_matrix(f, m, rule, table, margin)
    return QuantumOperator(m, mat, hermitian=True if f.is_real else None)


# -- path 2: exact Beta moments ------------------------------------------------


def _chart_numerator(a, b, c):
    """(z+zbar)^a (-i(z-zbar))^b (1-z zbar)^c expanded exactly."""
    poly = {(0, 0): complex(1.0)}

    def mul(p, q):
        out = {}
        for (i1, j1), c1 in p.items():
            for (i2, j2), c2 in q.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, 0j) + c1 * c2
        return out

    for _ in range(a):
        poly = mul(poly, {(1, 0): 1.0 + 0j, (0, 1): 1.0 + 0j})
    for _ in range(b):
        poly = mul(poly, {(1, 0): -1j, (0, 1): 1j})
    for _ in range(c):
        poly = mul(poly, {(0, 0): 1.0 + 0j, (1, 1): -1.0 + 0j})
    return poly


def toeplitz_exact(f, m):
    """T_f by exact radial Beta moments (no quadrature): the oracle path.

    Every chart monomial z^alpha zbar^beta over (1+z zbar)^(m+d) integrates
    to an exact rational multiple of the monomial norms; entries are finite
    sums of such ratios, and the angular selection rule |j-k| <= a+b with
    parity is automatic.
    """
    n = m + 1
    mat = np.zeros((n, n), dtype=complex)
    sq = np.sqrt(np.array(binomial_row(m), dtype=float))
    k = np.arange(n)
    kappas = {}
    for (a, b, c), coeff in sorted(f.terms.items()):
        d = a + b + c
        if d not in kappas:
            # kappa_A = (m+1)/((m+d+1) C(m+d, A)); int / int rounds correctly
            kappas[d] = np.array([(m + 1) / ((m + d + 1) * cb)
                                  for cb in binomial_row(m + d)])
        kappa = kappas[d]
        poly = _chart_numerator(a, b, c)
        for (alpha, beta), cc in sorted(poly.items()):
            q = alpha - beta  # row j = k + q
            kk = k[(k + q >= 0) & (k + q < n)]
            mat[kk + q, kk] += coeff * cc * (kappa[kk + alpha]
                                             * sq[kk + q] * sq[kk])
    hermitian = None
    if f.is_real:
        hermitian = bool(np.max(np.abs(mat - mat.conj().T)) <=
                         _HERM_TOL * max(1.0, np.max(np.abs(mat))))
    return QuantumOperator(m, mat, hermitian=hermitian)


# -- path 3: integral kernel ---------------------------------------------------


def kernel_apply(f, m, sec, rule=None, table=None):
    """Apply T_f to a section through the explicit integral kernel.

    (T_f s)(z) = (m+1)/(2 pi) int (1+z conj(zeta))^m f s (1+|zeta|^2)^-m
    Omega(zeta); the binomial expansion of the kernel gives the raw monomial
    coefficients directly, which are then re-expressed in the orthonormal
    basis.  Agrees with toeplitz(f,...) applied to the coefficients.
    """
    table = _resolve_table(f.degree, m, rule, table)
    if sec.m != m:
        raise ValueError("section level mismatch")
    return SectionVector(m, _kernel_operator(f, table) @ sec.coeffs)


def _kernel_operator(f, table):
    m = table.m
    k = np.arange(m + 1)
    s = table.s[:, None]
    # raw monomial values |z^k| (1+|z|^2)^(-m/2) at the radial nodes (no norms)
    frame = s ** (k / 2.0) * (1.0 - s) ** ((m - k) / 2.0)
    fv = eval_ambient(f, *_ambient_grid(table, f.degree))
    integrals = _band_matrix(frame, frame, table.w, fv, f.degree)
    # kernel coefficient (m+1)/(2 pi) C(m,j) of z^j, with z^j and z^k
    # re-expressed in the orthonormal basis (||z^k||^2 = 2 pi/((m+1) C(m,k)))
    r = np.sqrt(np.array(binomial_row(m), dtype=float) * ((m + 1) / TWO_PI))
    return r[:, None] * integrals * r[None, :]


def kernel_matrix(f, m, rule=None, table=None):
    """T_f reconstructed column-by-column from the kernel path."""
    table = _resolve_table(f.degree, m, rule, table)
    return QuantumOperator(m, _kernel_operator(f, table))


# -- geometric quantization ----------------------------------------------------


def prequantum(f, m, rule=None, table=None):
    """Q_f = Pi P_f Pi with P_f = -(1/m) nabla_{X_f} + i f at level m.

    In the chart, for a holomorphic representative p:
    P_f p = (i/m)(1+z zbar)^2 (dzbar f)(dz p - m zbar p/(1+z zbar)) + i f p.
    Derivatives raise the integrand degree, hence the +2 exactness margin.
    dzbar shifts angular frequency by +1 and the factors zbar and 1/z by -1,
    so both angular factors keep the harmonics |q| <= deg f: they are
    sampled on the 2 deg f + 1 nodes of `_phi_grid`, and Q_f has the band of
    T_f.  Anti-Hermitian (to quadrature accuracy) for real f.
    """
    table = _resolve_table(f.degree, m, rule, table, extra_degree=2)
    rat = chart_rational(f.terms)
    d = rat.pole
    s = table.s[:, None]
    z = np.sqrt(s / (1.0 - s)) * np.exp(1j * _phi_grid(f.degree))[None, :]
    u = 1.0 / (1.0 - s)
    fv = eval_ambient(f, *_ambient_grid(table, f.degree))
    # dzbar f = G/u^(d+1) by the quotient rule; we need u * dzbar f = G/u^d
    gv = zp_eval(rat.dzbar().num, z)
    u_dzbar_f = gv if d == 0 else gv * u ** (-float(d))
    if m > 0:
        col = (1j / m) * u_dzbar_f * u / z  # pairs with k z^(k-1)
    else:
        col = np.zeros_like(z)
    base = 1j * (fv - np.conj(z) * u_dzbar_f)
    B, w, band = table.B, table.w, f.degree
    k = np.arange(m + 1)
    mat = _band_matrix(B, B, w, base, band) + _band_matrix(B, B * k, w, col, band)
    return QuantumOperator(m, mat, hermitian=False)


def tuynman_rhs(f, m, conventions=DEFAULT_CONVENTIONS, rule=None, table=None):
    """i T_{f - Laplacian(f)/(2m)}: the Toeplitz side of Tuynman's relation."""
    if m < 1:
        raise ValueError("Tuynman's relation needs m >= 1")
    g = f - laplace_beltrami(f, conventions) * (1.0 / (2.0 * m))
    mat = _toeplitz_matrix(g, m, rule, table) * 1j
    # real g: T_g is verified Hermitian, so i T_g is anti-Hermitian and is
    # Hermitian only when zero; complex g: one check on the product
    return QuantumOperator(m, mat, hermitian=not mat.any() if g.is_real else None)


# -- norms and commutators -----------------------------------------------------


def operator_norm(op):
    """Largest singular value: Hermitian eigendecomposition when flagged,
    else the LAPACK 2-norm (largest singular value)."""
    if op.hermitian:
        if op.m == 0:
            return float(abs(op.mat[0, 0]))
        return float(np.max(np.abs(np.linalg.eigvalsh(op.mat))))
    return float(np.linalg.norm(op.mat, 2))


def commutator(a, b):
    """[A, B] = AB - BA (anti-Hermitian for Hermitian inputs)."""
    a._check(b)
    return QuantumOperator(a.m, a.mat @ b.mat - b.mat @ a.mat)
