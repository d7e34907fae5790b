"""Operator norms: the largest singular value of a banded operator.

`operator_norm` norms a Hermitian band itself and any other operator by the
root of the spectral radius of A^H A, formed once as a band product.  Below
DENSE_NORM_ROWS rows the band becomes a dense matrix for LAPACK `eigvalsh`;
from there up `_band_radius` certifies the radius by Sturm counts
(`_band_inertia`), started from `eigvalsh` of a principal window of
WINDOW_ROWS rows at each end of the spectrum.  So LAPACK only ever sees
fewer than DENSE_NORM_ROWS rows, where its bytes measured the same under 1,
2, 4 and 8 OpenBLAS threads.

`operators` re-exports every name here from its last line, after the band
helpers this module imports; the package imports `operators` before this
module, whichever of the two a caller names first.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .operators import _band_adjoint, _band_product, _dense

# below this many rows the norm is dense LAPACK eigvalsh, whose bytes measured
# the same under 1, 2, 4 and 8 OpenBLAS threads up to 163 rows, not from 164;
# from here up it is `_band_radius`, which calls LAPACK on windows only
DENSE_NORM_ROWS = 160
# rows of `_band_radius`'s principal windows: a size below 164 of its own, so
# a lower DENSE_NORM_ROWS leaves the windows as they are
WINDOW_ROWS = 159
# a band whose largest entry lies in [2^-SAFE_EXP, 2^SAFE_EXP] is normed as it
# is; any other is first scaled by a power of two, exactly, so that A^H A,
# the Gershgorin sums and the windows stay inside the float range
SAFE_EXP = 256
CHUNK = 64  # pivots per `_band_inertia` store
SHIFTS = 16  # shifts per multisection sweep, split over the ends still narrowed
FIRST_STEPS = 19  # pivmin 8^j for j < 19 reaches 4 g, past both Gershgorin bounds


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
    """Spectral radius of the Hermitian band d (its lower triangle is read),
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
    # column sums of the Hermitian matrix the lower triangle defines
    mags = np.abs(np.concatenate([_band_adjoint(d)[:b], d[b:]]))
    sums = mags.sum(axis=0)
    g = float(np.max(sums))
    if g == 0:  # the zero operator
        return 0.0
    pivmin = np.finfo(float).eps * g
    off = sums - mags[b]
    rows = (int(np.argmin(d[b].real - off)), int(np.argmax(d[b].real + off)))
    starts = [min(max(r - WINDOW_ROWS // 2, 0), max(n - WINDOW_ROWS, 0)) for r in rows]
    # eigvalsh of each principal window (all rows, if fewer), lower triangle
    eigs = {s: np.linalg.eigvalsh(_dense(d[:, s:s + WINDOW_ROWS])) for s in starts}
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
    the root of that of A^H A, formed once as a band product.  Below
    DENSE_NORM_ROWS rows the radius is dense LAPACK eigvalsh, from there up
    `_band_radius`, with LAPACK on windows below that size only.  Neither
    depends on the BLAS thread count.  A band whose largest entry lies
    outside [2^-SAFE_EXP, 2^SAFE_EXP] is normed scaled by a power of two,
    and the norm scaled back, so no intermediate overflows or underflows."""
    hermitian, a = op.hermitian, op.diags
    top, exp = float(np.max(np.abs(a))), 0
    if top and not 2.0 ** -SAFE_EXP <= top <= 2.0 ** SAFE_EXP:
        exp = math.frexp(top)[1]
        a = a * math.ldexp(1.0, -exp)
    d = a if hermitian else _band_product(_band_adjoint(a), a)
    if op.m + 1 < DENSE_NORM_ROWS:
        radius = float(np.max(np.abs(np.linalg.eigvalsh(_dense(d)))))
    else:
        radius = _band_radius(d)
    return math.ldexp(radius if hermitian else math.sqrt(radius), exp)
