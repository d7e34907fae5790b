"""Quantum operators at level m: Toeplitz matrices by three independent
construction paths, geometric-quantization matrices and commutators; the
norms are in `norms`, and re-exported here.

Each quadrature maker sizes its own radial rule from its inputs,
`make_rule(m, deg f)` (deg f + 2 for the derivative in Q_f), and no
maker holds a basis table: `_band_matrix` takes the frame (path 1's radial
factors, path 3's raw monomials) one block of `hilbert.BLOCK` nodes at a
time and adds each block into the band, so assembly memory is
O(BLOCK m + band m).  The Gram self-test runs at the end of path 1's pass.

Paths for T_f: (1) quadrature: the angular integral of every matrix
element is an exact Kronecker delta, so (T_f)_{k+q,k} is the radial Gauss
sum 2 pi sum_s w_s R_{k+q}(s) R_k(s) f_q(s) over the basis table, with f_q
the angular Fourier coefficient of f taken by FFT on 2 deg f + 1 uniform
phi nodes (exact, since f carries only the harmonics |q| <= deg f); only
the band |q| <= deg f is assembled, by elementwise products and sums (no
BLAS, so the bytes do not depend on any thread count); (2) exact radial
moments: each monomial's chart numerator, expanded by the binomial theorem,
integrates term by term to Beta ratios that are Pochhammer products, summed
in exact integers and rounded once per factor -- no quadrature and no float
binomial; (3) the explicit integral kernel,
expanding (1 + z conj(zeta))^m binomially and re-projecting on the raw
monomial frame at the rule's nodes, with no basis table.  Pairwise
agreement of the three is the package's core self-test.  Operators are
stored as their band of diagonals (`QuantumOperator`), filled directly by
every path; only `operator_norm` builds a dense (m+1)^2 matrix, for
LAPACK, and only below `DENSE_NORM_ROWS` = 160 rows (from there up, dense
principal windows of fewer rows).  Whether an
operator is Hermitian is read off its band when a caller asks; no path
asserts it.

The geometric-quantization operator is Q_f = Pi(-(1/m) nabla_{X_f} + i f)Pi
with the Hamiltonian field of the area form; the 1/m is the level-m scaling
(the m-th bundle power quantizes m times the symplectic form), and Tuynman's
relation Q_f = i T_{f - Laplacian(f)/(2m)} is the exactness check.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import LevelMismatchError, UnderResolvedRuleError
from .geometry import make_rule, phi_grid
from .hilbert import (BLOCK, TWO_PI, SectionVector, basis_eval_grid,
                      binomial_floats, binomial_row)
from .symbols import eval_ambient, laplace_beltrami, partial

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


def _band_adjoint(diags):
    """Stack of A^H: (A^H)[k+q, k] = conj(A[k, k+q])."""
    rows, inside, _ = _band_index(len(diags) // 2, diags.shape[1])
    return np.where(inside, np.take_along_axis(diags[::-1], rows, axis=1).conj(), 0)


def _dense(diags):
    """The dense matrix of a diagonal stack."""
    n = diags.shape[1]
    out = np.zeros(n * n + 1, dtype=complex)  # the padding lands in the last slot
    out[_band_index(len(diags) // 2, n)[2]] = diags
    return out[:-1].reshape(n, n)


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
    hermiticity check act on the diagonals.

    The stack is the one stored fact: `band` and `hermitian` are read off
    it on each access, so neither can disagree with it.  `hermitian` is the
    check |A - A^H| <= 1e-12 max(1, max |A|) on the band; `toeplitz` reads
    it to refuse a real symbol's non-Hermitian T_f, and `operator_norm` to
    norm A itself or A^H A."""

    __slots__ = ("m", "diags")

    def __init__(self, m, mat):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (m + 1, m + 1):
            raise ValueError(f"level {m} needs a {m + 1}x{m + 1} matrix")
        band = int(np.max(np.abs(np.subtract(*np.nonzero(mat))), initial=0))
        rows, inside, _ = _band_index(band, m + 1)
        self.m, self.diags = m, np.where(inside, mat[rows, np.arange(m + 1)], 0)

    @classmethod
    def from_diags(cls, m, diags):
        """Wrap a zero-padded (2 band + 1, m + 1) diagonal stack, band <= m."""
        if diags.shape[1:] != (m + 1,) or len(diags) % 2 == 0 or len(diags) > 2 * m + 1:
            raise ValueError(f"level {m} needs a (2 band + 1, {m + 1}) stack")
        op = cls.__new__(cls)
        op.m, op.diags = m, diags
        return op

    @property
    def band(self):
        return len(self.diags) // 2

    @property
    def hermitian(self):
        scale = max(1.0, float(np.max(np.abs(self.diags))))
        return self.hermitian_defect() <= _HERM_TOL * scale

    @property
    def mat(self):
        return _dense(self.diags)

    def hermitian_defect(self):
        """max |A - A^H| on the band."""
        return float(np.max(np.abs(self.diags - _band_adjoint(self.diags))))

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


def identity(m):
    return QuantumOperator.from_diags(m, np.ones((1, m + 1), complex))


# -- banded assembly, streamed over node blocks --------------------------------


def _band_matrix(m, frames, w, band, *integrands):
    """Diagonal stack d[top + q, k] = sum_i w_i F[i, k+q] F[i, k] col[k] c_q(s_i)
    for |q| <= top = min(band, m), in `QuantumOperator` layout, summed over
    the integrands (samples, col); col None is a factor 1.

    frames yields the real frame F (nodes x (m+1)) in blocks of at most
    BLOCK nodes.  Each block is copied between zero margins of `top`
    columns, so the factor F[:, k+q] of diagonal q is a full-row slice, and
    adds its nodes to every diagonal's running sum: the first block is
    summed alone, every later one with the running sum as its row 0, and
    numpy's axis-0 sum adds rows in order, so every entry adds its nodes in
    node order (a level-0 operator is a single column, which numpy sums
    pairwise within a block).  No frame is held: O(BLOCK m + band m) memory.

    samples[i, l] is the integrand's angular factor at (s_i, phi_l) on the
    `phi_grid(band)` nodes.  The factor carries only the harmonics
    |q| <= band, which 2 band + 1 nodes resolve without aliasing, so
    c_q(s_i) = int samples e^{-i q phi} dphi is exact by FFT.
    """
    n, top = m + 1, min(band, m)
    wcs = [w[:, None] * (np.fft.fft(smp, axis=1) * (TWO_PI / smp.shape[1]))
           for smp, _ in integrands]
    stacks = [np.zeros((2 * top + 1, n), dtype=complex) for _ in integrands]
    # per block: the frame between zero margins, and per diagonal the
    # weighted terms in rows 1.. of `acc`, the running sum in its row 0
    shifted, acc = np.zeros((BLOCK, n + 2 * top)), np.empty((BLOCK + 1, n), dtype=complex)
    lo = 0
    for F in frames:
        r = len(F)
        shifted[:r, top:top + n] = F
        terms = acc[:r + 1]
        for (_, col), wc, d in zip(integrands, wcs, stacks):
            right = F if col is None else F * col
            for q in range(-top, top + 1):
                np.multiply(shifted[:r, top + q:top + q + n], right, out=terms[1:])
                # negative q wraps modulo the phi node count
                np.multiply(wc[lo:lo + r, q, None], terms[1:], out=terms[1:])
                if lo:
                    terms[0] = d[top + q]
                np.sum(terms if lo else terms[1:], axis=0, out=d[top + q])
        lo += r
        del right  # F * col is not held while the next block is built
    return sum(stacks[1:], stacks[0])


def _ambient_grid(s, degree):
    """Ambient coordinates at the radial nodes s times `phi_grid(degree)`,
    broadcasting to (n_s, 2 degree + 1)."""
    s = s[:, None]
    phi = phi_grid(degree)[None, :]
    rho = 2.0 * np.sqrt(s * (1.0 - s))
    return rho * np.cos(phi), rho * np.sin(phi), 1.0 - 2.0 * s


# -- path 1: quadrature --------------------------------------------------------


def toeplitz(f, m):
    """T_f at level m by exact quadrature: (T_f)_jk = <e_j, f e_k>.  For real
    f, an operator that fails the hermiticity check is refused."""
    table = basis_eval_grid(m, make_rule(m, f.degree))
    fv = eval_ambient(f, *_ambient_grid(table.s, f.degree))
    diags = _band_matrix(m, table.blocks(), table.w, f.degree, (fv, None))
    t = QuantumOperator.from_diags(m, diags)
    if f.is_real and not t.hermitian:
        raise UnderResolvedRuleError(
            "real symbol produced a non-Hermitian Toeplitz matrix")
    return t


# -- path 2: exact Beta moments ------------------------------------------------


def _chart_numerator(a, b, c):
    """x1^a x2^b x3^c times (1+z zbar)^(a+b+c) is i^b (z + zbar)^a (zbar - z)^b
    (1 - z zbar)^c.  By the binomial theorem, {(alpha, beta): integer
    coefficient of z^alpha zbar^beta}, each the exact sum of (-1)^(j+l)
    C(a,i) C(b,j) C(c,l).  Zero sums are dropped; the caller applies i^b."""
    sums = {}
    for i, ca in enumerate(binomial_row(a)):
        for j, cb in enumerate(binomial_row(b)):
            for l, cc in enumerate(binomial_row(c)):
                e = (i + j + l, a - i + b - j + l)
                sums[e] = sums.get(e, 0) + (-1) ** (j + l) * ca * cb * cc
    return {e: v for e, v in sums.items() if v}


def toeplitz_exact(f, m):
    """T_f by exact radial Beta moments (no quadrature): the oracle path.

    Entry (k+q, k) of coeff x1^a x2^b x3^c is coeff i^b (m+1)/(m+d+1)
    sqrt(C(m,k+q)/C(m,k)) sum_alpha n_(alpha,alpha-q) (k+1)_alpha
    (m-k+1)_(d-alpha) / (m+1)_d, n the chart numerator: the Beta ratio
    C(m,k)/C(m+d,k+alpha) as Pochhammer symbols.  Sum and ratio are exact
    integers, each rounded once by int / int, so the terms cancel exactly
    and no float binomial caps the level (OverflowError past m ~ 1.6e6 at
    degree 64).  The selection rule |j-k| <= a+b, with parity, is automatic.
    """
    n, band = m + 1, min(f.degree, m)  # diagonals |q| > m hold no entry
    poch = [np.ones(n, dtype=object)]  # poch[r][x] = (x+1)_r for x = 0..m, exact
    for r in range(1, f.degree + 1):
        poch.append(poch[-1] * np.arange(r, n + r, dtype=object))
    rows, roots, diags = {}, {}, np.zeros((2 * band + 1, n), dtype=complex)
    for (a, b, c), coeff in sorted(f.terms.items()):
        d, sums = a + b + c, {}
        if d not in rows:  # rows[d][alpha][k] = (k+1)_alpha (m-k+1)_(d-alpha)
            rows[d] = [poch[al] * poch[d - al][::-1] for al in range(d + 1)]
        for (alpha, beta), cc in sorted(_chart_numerator(a, b, c).items()):
            if abs(alpha - beta) <= band:
                sums[alpha - beta] = sums.get(alpha - beta, 0) + cc * rows[d][alpha]
        scale = coeff * (1, 1j, -1, -1j)[b % 4] * ((m + 1) / (m + d + 1))
        for q, s in sums.items():
            lo, hi = max(-q, 0), n - max(q, 0)  # columns k with 0 <= k + q <= m
            if q not in roots:  # C(m,k+q)/C(m,k) = (m-k-q+1)_q / (k+1)_q for q >= 0
                up, down = poch[abs(q)][::-1][abs(q):], poch[abs(q)][:n - abs(q)]
                roots[q] = np.sqrt((up / down if q >= 0 else down / up).astype(float))
            diags[band + q, lo:hi] += scale * (s[lo:hi] / poch[d][m]).astype(float) * roots[q]
    return QuantumOperator.from_diags(m, diags)


# -- path 3: integral kernel ---------------------------------------------------


def _raw_frame(m, s):
    """Raw monomial values |z^k| (1+|z|^2)^(-m/2) (no norms) at the radial
    nodes s, BLOCK nodes at a time: path 3's frame for `_band_matrix`."""
    up, down = np.arange(m + 1) / 2.0, np.arange(m, -1, -1) / 2.0  # k/2, (m - k)/2
    for lo in range(0, len(s), BLOCK):
        sb = s[lo:lo + BLOCK, None]
        out = sb ** up
        out *= (1.0 - sb) ** down
        yield out


def kernel_matrix(f, m):
    """T_f through the explicit integral kernel, band by band like `toeplitz`.

    (T_f s)(z) = (m+1)/(2 pi) int (1+z conj(zeta))^m f s (1+|zeta|^2)^-m
    Omega(zeta); the binomial expansion of the kernel gives the raw monomial
    coefficients directly, which are then re-expressed in the orthonormal
    basis.  The integrals run on the nodes and weights of `make_rule`, over
    the raw monomial frame streamed in node blocks, with no basis table.
    Apply it to a section with `@`, which checks the levels.
    """
    # kernel coefficient (m+1)/(2 pi) C(m,j) of z^j, with z^j and z^k
    # re-expressed in the orthonormal basis (||z^k||^2 = 2 pi/((m+1) C(m,k)))
    r = np.sqrt(binomial_floats(m) * ((m + 1) / TWO_PI))
    rule = make_rule(m, f.degree)
    fv = eval_ambient(f, *_ambient_grid(rule.s_nodes, f.degree))
    integrals = _band_matrix(m, _raw_frame(m, rule.s_nodes), rule.s_weights,
                             f.degree, (fv, None))
    rows = _band_index(len(integrals) // 2, m + 1)[0]
    return QuantumOperator.from_diags(m, r[rows] * integrals * r[None, :])


# -- geometric quantization ----------------------------------------------------


def prequantum(f, m):
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
    T_f.  Anti-Hermitian (to quadrature accuracy) for real f.  The 1/m
    leaves no Q_f at m = 0, which is refused.
    """
    if m < 1:
        raise ValueError("Q_f carries 1/m: it needs m >= 1")
    table = basis_eval_grid(m, make_rule(m, f.degree + 2))
    x = _ambient_grid(table.s, f.degree)
    s = table.s[:, None]
    z = np.sqrt(s / (1.0 - s)) * np.exp(1j * phi_grid(f.degree))[None, :]
    u = 1.0 / (1.0 - s)
    fv = eval_ambient(f, *x)
    d1, d2, d3 = (eval_ambient(partial(f, i), *x) for i in (1, 2, 3))
    u_dzbar_f = ((1.0 - z * z) * d1 + 1j * (1.0 + z * z) * d2 - 2.0 * z * d3) / u
    col = (1j / m) * u_dzbar_f * u / z  # pairs with k z^(k-1)
    base = 1j * (fv - np.conj(z) * u_dzbar_f)
    diags = _band_matrix(m, table.blocks(), table.w, f.degree,
                         (base, None), (col, np.arange(m + 1)))
    return QuantumOperator.from_diags(m, diags)


def tuynman_rhs(f, m):
    """i T_{f - Laplacian(f)/(2m)}: the Toeplitz side of Tuynman's relation."""
    if m < 1:
        raise ValueError("Tuynman's relation needs m >= 1")
    g = f - laplace_beltrami(f) * (1.0 / (2.0 * m))
    return toeplitz(g, m) * 1j


# -- commutators --------------------------------------------------------------


def commutator(a, b):
    """[A, B] = AB - BA (anti-Hermitian for Hermitian inputs)."""
    return a @ b - b @ a


# last: `norms` imports the band helpers from here
from .norms import DENSE_NORM_ROWS, _band_inertia, _band_radius, operator_norm  # noqa: E402,F401
