"""Sup norms of real symbols by grid search: `grid_extrema` and the two
sup-norm readings of it.

The search reads Re f on a (u = x3, phi) grid through
`symbols.eval_ambient` and refines the best cells of each sign by
shrinking local grids.  `symbols` re-exports every name here from its last
line, after `eval_ambient`; the package imports `symbols` before this
module, whichever of the two a caller names first.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import SpherePoint
from .symbols import eval_ambient


def _real_values(f, u, phi):
    """Re f at (u = x3, phi), in the broadcast shape of u and phi (a grid as
    u[:, None], phi[None, :]).  rho comes from u and cos, sin from phi, each
    on its own shape, so every point gets the bits of flat arrays."""
    rho = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    return eval_ambient(f, rho * np.cos(phi), rho * np.sin(phi), u).real


# `_refine`: REFINE_ROUNDS halvings of a REFINE_LOCAL^2 grid around each start
REFINE_ROUNDS = 48
REFINE_LOCAL = 7


def _refine(f, u0, phi0, sign):
    """Shrinking local grid search for the maximum of sign*f from each start
    (one row of u0, phi0, sign).  All starts advance together: per round,
    the REFINE_LOCAL-point u and phi axes of every start are built in one
    pass with `np.linspace`'s arithmetic written out (lo + K*step, the last
    point hi; its step == 0 branch never arises, since the last half-widths
    span several float spacings at |u| <= 1, |phi| < 8.1), and f is evaluated
    on the (starts, REFINE_LOCAL, 1) x (starts, 1, REFINE_LOCAL) grid; the
    bytes are those of per-start `linspace` grids.  A start moves to the
    first maximum of its grid (u-major) only on a strict gain.  Returns
    (best sign*f, u, phi) per start."""
    local = REFINE_LOCAL
    knots = np.arange(local, dtype=float)
    half = np.array([[2.0 / local], [2.0 * math.pi / local]])
    rows = np.arange(len(sign))
    at = np.array([u0, phi0], dtype=float)  # (u, phi) of each start
    best = sign * _real_values(f, at[0], at[1])
    for _ in range(REFINE_ROUNDS):
        lo, hi = at - half, at + half
        axes = knots * ((hi - lo) / (local - 1))[:, :, None]
        axes += lo[:, :, None]
        axes[:, :, -1] = hi
        us, ps = np.clip(axes[0], -1, 1), axes[1]
        vals = sign[:, None, None] * _real_values(f, us[:, :, None], ps[:, None, :])
        i, j = divmod(np.argmax(vals.reshape(len(sign), -1), axis=-1), local)
        gain = vals[rows, i, j]
        better = gain > best
        best = np.where(better, gain, best)
        at = np.where(better, [us[rows, i], ps[rows, j]], at)
        half = half * 0.5
    return best, at[0], at[1]


GRID_RESOLUTION = 96


def grid_extrema(f):
    """(min, max, argmin point, argmax point) of a real symbol.

    Dense (GRID_RESOLUTION x 2 GRID_RESOLUTION) grid in (u = x3, phi) --
    accuracy O(GRID_RESOLUTION^-2) -- evaluated as u[:, None] x phi[None, :]
    with no meshgrid copies, then `_refine` from the 4 best cells of each
    sign (flat cell k is u[k // 2R], phi[k % 2R]), all 8 starts together.
    The bytes are those of the flat meshgrid search.  A search, not a
    certificate: an extremum outside the basins of the starts is missed.
    """
    if not f.is_real:
        raise ValueError("grid extrema are defined for real symbols only")
    u = np.linspace(-1.0, 1.0, GRID_RESOLUTION)
    phi = np.linspace(0.0, 2.0 * math.pi, 2 * GRID_RESOLUTION, endpoint=False)
    vals = _real_values(f, u[:, None], phi[None, :]).ravel()
    n = min(4, vals.size)
    start = np.concatenate([np.argsort(s * vals)[::-1][:n] for s in (1.0, -1.0)])
    sign = np.repeat([1.0, -1.0], n)
    best, best_u, best_phi = _refine(f, u[start // phi.size],
                                     phi[start % phi.size], sign)
    ext = []
    for lo in (0, n):
        k = lo + int(np.argmax(best[lo:lo + n]))
        cu, cp = best_u[k], best_phi[k]
        rho = math.sqrt(max(0.0, 1.0 - cu * cu))
        pt = SpherePoint.from_ambient(rho * math.cos(cp), rho * math.sin(cp), cu)
        ext.append((sign[k] * best[k], pt))
    (fmax, arg_max), (fmin, arg_min) = ext
    return float(fmin), float(fmax), arg_min, arg_max


def sup_norm(f):
    """Sup of |f| over the sphere for a real symbol."""
    return sup_norm_argmax(f)[0]


def sup_norm_argmax(f):
    """(sup |f|, maximizer SpherePoint) for a real symbol."""
    fmin, fmax, arg_min, arg_max = grid_extrema(f)
    if abs(fmin) > abs(fmax):
        return abs(fmin), arg_min
    return abs(fmax), arg_max
