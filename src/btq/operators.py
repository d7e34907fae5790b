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
is the package's core self-test.  Operators are stored as their band of
diagonals (`QuantumOperator`), filled directly by every path; only
`operator_norm` builds the dense (m+1)^2 matrix, for LAPACK.

The geometric-quantization operator is Q_f = Pi(-(1/m) nabla_{X_f} + i f)Pi
with the Hamiltonian field of the area form; the 1/m is the level-m scaling
(the m-th bundle power quantizes m times the symplectic form), and Tuynman's
relation Q_f = i T_{f - Laplacian(f)/(2m)} is the exactness check.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._zpoly import chart_numerator
from .errors import LevelMismatchError, UnderResolvedRuleError
from .geometry import DEFAULT_CONVENTIONS, make_rule, phi_grid
from .hilbert import TWO_PI, SectionVector, basis_eval_grid, binomial_row
from .symbols import eval_ambient, laplace_beltrami, partial

BINARY_HEADER = b"BTQOPV01"
_HERM_TOL = 1e-12


@functools.lru_cache(maxsize=64)
def _band_index(band, n):
    """Per stack entry (band + q, k): row k + q (clipped), in-matrix mask,
    and flat index in the dense matrix (n^2 outside it).  Read-only."""
    rows = np.arange(-band, band + 1)[:, None] + np.arange(n)[None, :]
    inside = (rows >= 0) & (rows < n)
    flat = np.where(inside, rows * n + np.arange(n), n * n)
    out = (np.clip(rows, 0, n - 1), inside, flat)
    for a in out:
        a.flags.writeable = False
    return out


def _hermitian_defect(diags):
    """max |A - A^H| on the band: (A^H)[k+q, k] = conj(A[k, k+q])."""
    rows, inside, _ = _band_index(len(diags) // 2, diags.shape[1])
    adj = np.where(inside, np.take_along_axis(diags[::-1], rows, axis=1).conj(), 0)
    return float(np.max(np.abs(diags - adj)))


def _is_hermitian(diags):
    return _hermitian_defect(diags) <= _HERM_TOL * max(1.0, float(np.max(np.abs(diags))))


def _band_product(a, b):
    """Stack of A B, one pass per diagonal p of A: (AB)[k+p+r, k] gains
    A[k+r+p, k+r] B[k+r, k] for every diagonal r of B.  O(n b1 b2) work."""
    b1, b2, n = len(a) // 2, len(b) // 2, a.shape[1]
    out = np.zeros((2 * (b1 + b2) + 1, n), dtype=complex)
    padded = np.pad(a, ((0, 0), (b2, b2)))
    for i in range(2 * b1 + 1):
        # shifted[r + b2, k] = A[k+r+p, k+r] with p = i - b1 (zero off the matrix)
        shifted = sliding_window_view(padded[i], n)
        out[i:i + 2 * b2 + 1] += shifted * b
    top = min(b1 + b2, n - 1)
    return out[b1 + b2 - top:b1 + b2 + top + 1]


class QuantumOperator:
    """Complex operator at level m in the orthonormal basis, kept as its band:
    diags[band + q, k] = A[k+q, k] for |q| <= band (zero-padded), and every
    entry with |j - k| > band is an exact zero.  The constructor keeps the
    exact band of a dense matrix; `.mat` materialises one on each access.
    Arithmetic, products (band b1 + b2, O(m b1 b2)), mat-vecs and the
    hermiticity check act on the diagonals."""

    __slots__ = ("m", "band", "diags", "hermitian")

    def __init__(self, m, mat, hermitian=None):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (m + 1, m + 1):
            raise ValueError(f"level {m} needs a {m + 1}x{m + 1} matrix")
        band = int(np.max(np.abs(np.subtract(*np.nonzero(mat))), initial=0))
        rows, inside, _ = _band_index(band, m + 1)
        self._set(m, np.where(inside, mat[rows, np.arange(m + 1)], 0), hermitian)

    @classmethod
    def from_diags(cls, m, diags, hermitian=None):
        """Wrap a zero-padded (2 band + 1, m + 1) diagonal stack, band <= m."""
        if diags.shape[1:] != (m + 1,) or len(diags) % 2 == 0 or len(diags) > 2 * m + 1:
            raise ValueError(f"level {m} needs a (2 band + 1, {m + 1}) stack")
        op = cls.__new__(cls)
        op._set(m, diags, hermitian)
        return op

    def _set(self, m, diags, hermitian):
        self.m, self.band, self.diags = m, len(diags) // 2, diags
        self.hermitian = bool(_is_hermitian(diags) if hermitian is None else hermitian)

    @property
    def mat(self):
        n = self.m + 1
        out = np.zeros(n * n + 1, dtype=complex)  # the padding lands in the last slot
        out[_band_index(self.band, n)[2]] = self.diags
        return out[:-1].reshape(n, n)

    def hermitian_defect(self):
        return _hermitian_defect(self.diags)

    def _aligned(self, other):
        self._check(other)
        band = max(self.band, other.band)
        return (np.pad(d, ((band - len(d) // 2,) * 2, (0, 0)))
                for d in (self.diags, other.diags))

    def __add__(self, other):
        a, b = self._aligned(other)
        return QuantumOperator.from_diags(self.m, a + b)

    def __sub__(self, other):
        a, b = self._aligned(other)
        return QuantumOperator.from_diags(self.m, a - b)

    def __mul__(self, scalar):
        return QuantumOperator.from_diags(self.m, self.diags * scalar)

    def __rmul__(self, scalar):  # scalar first, as numpy's scalar * array rounds
        return QuantumOperator.from_diags(self.m, scalar * self.diags)

    def __truediv__(self, scalar):
        return QuantumOperator.from_diags(self.m, self.diags / scalar)

    def __neg__(self):
        return QuantumOperator.from_diags(self.m, -self.diags)

    def __matmul__(self, other):
        """Operator product, or the operator applied to a SectionVector."""
        if isinstance(other, SectionVector):
            if other.m != self.m:
                raise LevelMismatchError(f"levels {self.m} and {other.m} differ")
            rows, inside, _ = _band_index(self.band, self.m + 1)
            out = np.zeros(self.m + 1, dtype=complex)
            np.add.at(out, rows[inside], (self.diags * other.coeffs)[inside])
            return SectionVector(self.m, out)
        self._check(other)
        return QuantumOperator.from_diags(self.m, _band_product(self.diags, other.diags))

    def _check(self, other):
        if not isinstance(other, QuantumOperator):
            raise TypeError("expected a QuantumOperator")
        if self.m != other.m:
            raise LevelMismatchError(f"levels {self.m} and {other.m} differ")

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
    return QuantumOperator.from_diags(m, np.ones((1, m + 1), complex), hermitian=True)


# -- banded assembly on the radial table ---------------------------------------


def _band_matrix(left, right, w, samples, band):
    """Diagonal stack d[top + q, k] = sum_i w_i left[i, k+q] right[i, k] c_q(s_i)
    for |q| <= top = min(band, n - 1), in `QuantumOperator` layout.

    samples[i, l] is the integrand's angular factor at (s_i, phi_l) on the
    `phi_grid(band)` nodes.  The factor carries only the harmonics
    |q| <= band, which 2 band + 1 nodes resolve without aliasing, so
    c_q(s_i) = int samples e^{-i q phi} dphi is exact by FFT.  Only the
    band is allocated: O(n band) memory, never n^2.
    """
    n = left.shape[1]
    coeffs = np.fft.fft(samples, axis=1) * (2.0 * math.pi / samples.shape[1])
    top = min(band, n - 1)
    diags = np.zeros((2 * top + 1, n), dtype=complex)
    for q in range(-top, top + 1):
        a, b = max(q, 0), max(-q, 0)  # band q starts at row a, column b
        wc = w * coeffs[:, q]  # negative q wraps modulo the node count
        prod = left[:, a:n - b] * right[:, b:n - a]
        diags[top + q, b:n - a] = np.sum(wc[:, None] * prod, axis=0)
    return diags


def _ambient_grid(table, degree):
    """Ambient coordinates at the radial nodes times `phi_grid(degree)`,
    broadcasting to (n_s, 2 degree + 1)."""
    s = table.s[:, None]
    phi = phi_grid(degree)[None, :]
    rho = 2.0 * np.sqrt(s * (1.0 - s))
    return rho * np.cos(phi), rho * np.sin(phi), 1.0 - 2.0 * s


def _resolve_table(f_degree, m, table=None, margin=0, extra_degree=0):
    if table is None:
        table = basis_eval_grid(m, make_rule(m, f_degree + extra_degree, margin=margin))
    need = m + f_degree + extra_degree
    if table.rule.max_radial_degree < need:
        raise UnderResolvedRuleError(
            f"rule resolves degree {table.rule.max_radial_degree}, need {need}")
    if table.m != m:
        raise ValueError("table level mismatch")
    return table


# -- path 1: quadrature --------------------------------------------------------


def _toeplitz_diags(f, m, table=None, margin=0):
    """The diagonal stack of T_f; for real f, verified Hermitian to _HERM_TOL."""
    table = _resolve_table(f.degree, m, table, margin)
    fv = eval_ambient(f, *_ambient_grid(table, f.degree))
    diags = _band_matrix(table.B, table.B, table.w, fv, f.degree)
    if f.is_real and not _is_hermitian(diags):
        raise UnderResolvedRuleError(
            "real symbol produced a non-Hermitian Toeplitz matrix")
    return diags


def toeplitz(f, m, table=None, margin=0):
    """T_f at level m by exact quadrature: (T_f)_jk = <e_j, f e_k>."""
    diags = _toeplitz_diags(f, m, table, margin)
    return QuantumOperator.from_diags(m, diags, hermitian=True if f.is_real else None)


# -- path 2: exact Beta moments ------------------------------------------------


def toeplitz_exact(f, m):
    """T_f by exact radial Beta moments (no quadrature): the oracle path.

    Every chart monomial z^alpha zbar^beta over (1+z zbar)^(m+d) integrates
    to an exact rational multiple of the monomial norms; entries are finite
    sums of such ratios, and the angular selection rule |j-k| <= a+b with
    parity is automatic.
    """
    n, top = m + 1, f.degree
    diags = np.zeros((2 * top + 1, n), dtype=complex)
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
        poly = chart_numerator(a, b, c)
        for (alpha, beta), cc in sorted(poly.items()):
            q = alpha - beta  # row j = k + q
            kk = k[(k + q >= 0) & (k + q < n)]
            diags[top + q, kk] += coeff * cc * (kappa[kk + alpha] * sq[kk + q] * sq[kk])
    band = min(top, m)  # diagonals |q| > m hold no entry
    return QuantumOperator.from_diags(m, diags[top - band:top + band + 1])


# -- path 3: integral kernel ---------------------------------------------------


def kernel_apply(f, m, sec, table=None):
    """Apply T_f to a section through the explicit integral kernel.

    (T_f s)(z) = (m+1)/(2 pi) int (1+z conj(zeta))^m f s (1+|zeta|^2)^-m
    Omega(zeta); the binomial expansion of the kernel gives the raw monomial
    coefficients directly, which are then re-expressed in the orthonormal
    basis.  Agrees with toeplitz(f,...) applied to the coefficients.
    """
    table = _resolve_table(f.degree, m, table)
    if sec.m != m:
        raise ValueError("section level mismatch")
    return _kernel_operator(f, table) @ sec


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
    rows = _band_index(len(integrals) // 2, m + 1)[0]
    return QuantumOperator.from_diags(m, r[rows] * integrals * r[None, :])


def kernel_matrix(f, m, table=None):
    """T_f reconstructed column-by-column from the kernel path."""
    return _kernel_operator(f, _resolve_table(f.degree, m, table))


# -- geometric quantization ----------------------------------------------------


def prequantum(f, m, table=None):
    """Q_f = Pi P_f Pi with P_f = -(1/m) nabla_{X_f} + i f at level m.

    In the chart, for a holomorphic representative p:
    P_f p = (i/m)(1+z zbar)^2 (dzbar f)(dz p - m zbar p/(1+z zbar)) + i f p.
    The one derivative is the chain rule on the ambient partials d_i f,
    u dzbar f = [(1 - z^2) d_1 f + i(1 + z^2) d_2 f - 2z d_3 f]/u with
    u = 1 + z zbar, from dzbar x_i = (1 - z^2, i(1 + z^2), -2z)/u^2.
    Derivatives raise the integrand degree, hence the +2 exactness margin.
    dzbar shifts angular frequency by +1 and the factors zbar and 1/z by -1,
    so both angular factors keep the harmonics |q| <= deg f: they are
    sampled on the 2 deg f + 1 nodes of `phi_grid`, and Q_f has the band of
    T_f.  Anti-Hermitian (to quadrature accuracy) for real f.
    """
    table = _resolve_table(f.degree, m, table, extra_degree=2)
    x = _ambient_grid(table, f.degree)
    s = table.s[:, None]
    z = np.sqrt(s / (1.0 - s)) * np.exp(1j * phi_grid(f.degree))[None, :]
    u = 1.0 / (1.0 - s)
    fv = eval_ambient(f, *x)
    d1, d2, d3 = (eval_ambient(partial(f, i), *x) for i in (1, 2, 3))
    u_dzbar_f = ((1.0 - z * z) * d1 + 1j * (1.0 + z * z) * d2 - 2.0 * z * d3) / u
    if m > 0:
        col = (1j / m) * u_dzbar_f * u / z  # pairs with k z^(k-1)
    else:
        col = np.zeros_like(z)
    base = 1j * (fv - np.conj(z) * u_dzbar_f)
    B, w, band = table.B, table.w, f.degree
    k = np.arange(m + 1)
    diags = _band_matrix(B, B, w, base, band) + _band_matrix(B, B * k, w, col, band)
    return QuantumOperator.from_diags(m, diags, hermitian=False)


def tuynman_rhs(f, m, conventions=DEFAULT_CONVENTIONS, table=None):
    """i T_{f - Laplacian(f)/(2m)}: the Toeplitz side of Tuynman's relation."""
    if m < 1:
        raise ValueError("Tuynman's relation needs m >= 1")
    g = f - laplace_beltrami(f, conventions) * (1.0 / (2.0 * m))
    diags = _toeplitz_diags(g, m, table) * 1j
    # real g: T_g is verified Hermitian, so i T_g is anti-Hermitian and is
    # Hermitian only when zero; complex g: one check on the product
    hermitian = not diags.any() if g.is_real else None
    return QuantumOperator.from_diags(m, diags, hermitian=hermitian)


# -- norms and commutators -----------------------------------------------------


def operator_norm(op):
    """Largest singular value on the dense matrix, a run's one O(m^2) allocation:
    eigvalsh when flagged Hermitian, else the LAPACK 2-norm."""
    if op.hermitian:
        if op.m == 0:
            return float(abs(op.mat[0, 0]))
        return float(np.max(np.abs(np.linalg.eigvalsh(op.mat))))
    return float(np.linalg.norm(op.mat, 2))


def commutator(a, b):
    """[A, B] = AB - BA (anti-Hermitian for Hermitian inputs)."""
    a._check(b)
    ab, ba = _band_product(a.diags, b.diags), _band_product(b.diags, a.diags)
    return QuantumOperator.from_diags(a.m, ab - ba)
