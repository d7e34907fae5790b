"""Band algebra and operator norms.

An operator at level m is kept as its band, the zero-padded stack
diags[band + q, k] = A[k+q, k] (`operators.QuantumOperator`): `_band_index`
places a stack in the dense matrix, `_band_adjoint` and `_band_product`
form A^H and A B on stacks, and `_dense` materialises the matrix.

`operator_norm` norms a Hermitian band itself and any other operator by the
root of the spectral radius of A^H A, formed once as a band product.
`_band_radius` takes LAPACK `eigvalsh` of a principal window of WINDOW_ROWS
rows at each end of the spectrum: a band of no more rows is its own window,
whose eigenvalues are the answer; a longer one has the radius certified by
Sturm counts (`_band_inertia`) started from the windows' extreme
eigenvalues.  So LAPACK only ever sees at most WINDOW_ROWS rows, where its
bytes measured the same under 1, 2, 4 and 8 OpenBLAS threads.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

# rows of `_band_radius`'s principal windows, the largest matrix LAPACK sees:
# eigvalsh bytes measured the same under 1, 2, 4 and 8 OpenBLAS threads up to
# 163 rows, not from 164
WINDOW_ROWS = 159
# a band whose largest entry lies in [2^-SAFE_EXP, 2^SAFE_EXP] is normed as it
# is; any other is first scaled by powers of two, exactly, so that A^H A,
# the Gershgorin sums and the windows stay inside the float range
SAFE_EXP = 256
CHUNK = 64  # pivots per `_band_inertia` store
SHIFTS = 16  # shifts per multisection sweep, split over the ends still narrowed
FIRST_STEPS = 19  # pivmin 8^j for j < 19 reaches 4 g, past both Gershgorin bounds


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


def _band_inertia(diags, shifts, pivmin):
    """Eigenvalues below each shift of the Hermitian band (its lower triangle):
    the negative pivots of a banded LDL^H of A - sigma I (Sylvester), for all
    shifts at once by elementwise steps on views of a store of rows
    A[r, r-b .. r].  A pivot below pivmin in size becomes -pivmin (dstebz).

    The store holds CHUNK + b rows: each chunk of CHUNK pivots starts from the
    b rows the last one updated but did not pivot, and reads the rest from
    the band, so memory is O(CHUNK b^2) per shift at any size."""
    b, n, ns = len(diags) // 2, diags.shape[1], len(shifts)
    store = np.zeros((CHUNK + b, b + 1, ns), dtype=complex)
    flat, (step, entry, shift) = store.reshape(-1, ns), store.strides
    piv = flat[b::b + 1][:CHUNK].real
    # below[k][i] = A[k+1+i, k]; window[k][i, j] = A[k+1+i, k+1+j] for i >= j,
    # while i < j lands on columns <= k, which no later step reads
    below = as_strided(flat[2 * b:], (CHUNK, b, ns), (step, b * entry, shift))
    window = as_strided(flat[2 * b + 1:], (CHUNK, b, b, ns), (step, b * entry, entry, shift))
    counts = np.zeros(ns, dtype=np.intp)
    for k0 in range(0, n, CHUNK):
        first = k0 + b if k0 else 0  # the first row read from the band
        if k0:
            store[:b] = store[CHUNK:]
        store[first - k0:] = 0  # rows past the end stay zero
        last = min(k0 + CHUNK + b, n)
        for j in range(b + 1):  # entry j of row r is A[r, r-b+j], in the band from r = b-j
            r = max(first, b - j)
            store[r - k0:last - k0, j] = diags[2 * b - j, r - b + j:last - b + j, None]
        store[first - k0:last - k0, b] -= shifts
        pivots = min(CHUNK, n - k0)
        for k in range(pivots):
            p = piv[k]
            np.copyto(p, -pivmin, where=np.abs(p) < pivmin)
            c = below[k]
            window[k] -= c[:, None] * (c.conj() / p)
        counts += np.count_nonzero(piv[:pivots] < 0, axis=0)
    return counts


def _band_radius(d):
    """Spectral radius of the Hermitian band d (its lower triangle is read):
    max |eigvalsh| of d itself if it has at most WINDOW_ROWS rows, else
    certified by multisection on `_band_inertia`.

    The brackets of lambda_min and lambda_max start at +-(Gershgorin bound g).
    Each end's first shifts sit at e +- pivmin 8^j, with e the top (bottom)
    eigenvalue of the window centred on the row whose Gershgorin interval
    reaches furthest up (down): the extreme eigenvectors of a Toeplitz band
    localise where the symbol is extreme, so e is then within pivmin = eps g
    of lambda and one sweep ends.  Later sweeps split SHIFTS equally spaced
    shifts over the brackets still wider than 4 eps g.  An end is dropped once
    its |lambda| bound falls below the other end's certain |lambda|, and the
    live end gets its shifts.  Brackets move only on Sturm counts, so the
    window sets the cost, not the result's bound."""
    b, n = len(d) // 2, d.shape[1]
    if n <= WINDOW_ROWS:  # the band is its own window
        return float(np.max(np.abs(np.linalg.eigvalsh(_dense(d)))))
    # column sums of the Hermitian matrix the lower triangle defines
    mags = np.abs(np.concatenate([_band_adjoint(d)[:b], d[b:]]))
    sums = mags.sum(axis=0)
    g = float(np.max(sums))
    if g == 0:  # the zero operator
        return 0.0
    pivmin = np.finfo(float).eps * g
    off = sums - mags[b]
    rows = (int(np.argmin(d[b].real - off)), int(np.argmax(d[b].real + off)))
    starts = [min(max(r - WINDOW_ROWS // 2, 0), n - WINDOW_ROWS) for r in rows]
    # eigvalsh of each distinct principal window, lower triangle
    eigs = {s: np.linalg.eigvalsh(_dense(d[:, s:s + WINDOW_ROWS])) for s in set(starts)}
    lo, hi = np.full(2, -g - pivmin), np.full(2, g + pivmin)
    steps = pivmin * 8.0 ** np.arange(FIRST_STEPS)
    ends = (eigs[starts[0]][0], eigs[starts[1]][-1])
    shifts = [np.concatenate([e - steps[::-1], e + steps]) for e in ends]
    shifts = [s[(s > -g - pivmin) & (s < g + pivmin)] for s in shifts]
    live = np.ones(2, dtype=bool)
    while True:
        counts = _band_inertia(d, np.concatenate(shifts), pivmin)
        # lambda_min < sigma iff the count is >= 1, lambda_max iff it is >= n
        for end, (s, c) in enumerate(zip(shifts, np.split(counts, [len(shifts[0])]))):
            passed = c >= (1, n)[end]
            hi[end] = min(hi[end], np.min(s[passed], initial=np.inf))
            lo[end] = max(lo[end], np.max(s[~passed], initial=-np.inf))
        bound = np.maximum(-lo, hi)
        certain = np.where((lo > 0) | (hi < 0), np.minimum(np.abs(lo), np.abs(hi)), 0)
        live &= bound >= certain[::-1]
        wide = live & (hi - lo > 4 * pivmin)
        if not wide.any():
            return float(np.max(np.abs(lo + hi)[live])) / 2
        k = SHIFTS // int(np.count_nonzero(wide))
        shifts = [lo[e] + (hi[e] - lo[e]) * (np.arange(1, k + 1) / (k + 1)) if wide[e]
                  else np.empty(0) for e in range(2)]


def operator_norm(op):
    """Largest singular value: the spectral radius of A if `op.hermitian`, else
    the root of that of A^H A, formed once as a band product; `_band_radius`
    takes it at every size, by LAPACK on at most WINDOW_ROWS rows, so it does
    not depend on the BLAS thread count.  A band whose largest entry lies
    outside [2^-SAFE_EXP, 2^SAFE_EXP] is normed scaled by 2^-exp, as two
    factors that stay finite down to subnormal entries, and the norm scaled
    back, so no intermediate overflows or underflows."""
    hermitian, a = op.hermitian, op.diags
    top, exp = float(np.max(np.abs(a))), 0
    if top and not 2.0 ** -SAFE_EXP <= top <= 2.0 ** SAFE_EXP:
        exp = math.frexp(top)[1]
        half = exp // 2
        a = a * math.ldexp(1.0, -half) * math.ldexp(1.0, half - exp)
    d = a if hermitian else _band_product(_band_adjoint(a), a)
    radius = _band_radius(d)
    return math.ldexp(radius if hermitian else math.sqrt(radius), exp)
