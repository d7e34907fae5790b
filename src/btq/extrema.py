"""Sup norms of real symbols by a grid and a Newton ascent: `grid_extrema`
and the two sup-norm readings of it.

The search reads Re f on a (u = x3, phi) grid sized by the degree through
`symbols.eval_ambient`, then climbs from the best cells of each sign by
safeguarded Newton steps on finite-difference stencils, read through the
same evaluator.  `symbols` re-exports every name here from its last line,
after `eval_ambient`; the package imports `symbols` before this module,
whichever of the two a caller names first.
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


# coarse rows from degree 12 up; below, 8 per degree and at least 24
GRID_RESOLUTION = 96
MAX_STEPS = 40  # ascent steps, each one stencil of every start
STEP_TOL = 1e-9  # the ascent stops when every step is shorter
_H = 1e-5  # stencil spacing in the chart
# the 9 stencil offsets (a, b), centre first, and the weights reading f_a,
# f_b, f_aa, f_bb, f_ab at the centre.  Built from flat lists of Python
# floats: array arithmetic at import adds 0.25 MB of peak RSS to processes
# that never divide an array, and a nested list adds 0.1 MB
_A = np.array([0, _H, -_H, 0, 0, _H, _H, -_H, -_H])
_B = np.array([0, 0, 0, _H, -_H, _H, -_H, _H, -_H])
_G, _C, _X = 0.5 / _H, 1.0 / (_H * _H), 0.25 / (_H * _H)
_D = np.array([0, _G, -_G, 0, 0, 0, 0, 0, 0,
               0, 0, 0, _G, -_G, 0, 0, 0, 0,
               -2 * _C, _C, _C, 0, 0, 0, 0, 0, 0,
               -2 * _C, 0, 0, _C, _C, 0, 0, 0, 0,
               0, 0, 0, 0, 0, _X, -_X, -_X, _X]).reshape(5, 9)


def _unit(p):
    """p scaled to unit length along axis 0 (the three coordinates)."""
    return p / np.sqrt((p * p).sum(0))


def _stencil(f, sign, x, e1, e2):
    """sign*Re f on normalise(x + a e1 + b e2) over the 9 stencil offsets of
    each start (columns of the (3, n) arrays x, e1, e2): (n, 9) values."""
    p = _unit(x[:, :, None] + _A * e1[:, :, None] + _B * e2[:, :, None])
    return sign[:, None] * eval_ambient(f, p[0], p[1], p[2]).real


def _step(v, r):
    """Safeguarded Newton step (a, b) up the quadratic model read from the
    stencil values v (n, 9).  Where the model's largest curvature lies above
    -|g|/r, the Hessian is shifted down to it (Levenberg-Marquardt), which
    bounds the step by the trust radius r."""
    ga, gb, haa, hbb, hab = (_D * v[:, None, :]).sum(-1).T
    lam = 0.5 * (haa + hbb) + np.hypot(0.5 * (haa - hbb), hab)
    mu = np.maximum(0.0, lam + np.hypot(ga, gb) / r)
    a11, a22 = haa - mu, hbb - mu
    det = a11 * a22 - hab * hab
    det = np.where(det > 0.0, det, np.inf)  # no concave model: no step
    return (hab * gb - a22 * ga) / det, (hab * ga - a11 * gb) / det


def grid_extrema(f):
    """(min, max, argmin point, argmax point) of a real symbol.

    Re f on an R x 2R grid in (u = x3, phi), R = min(GRID_RESOLUTION,
    max(24, 8 deg f)); the u = +-1 rows count as one cell each.  From the 4
    best cells of each sign, all 8 starts climb together by safeguarded
    Newton steps (`_step`) in the pole-free chart normalise(x0 + a e1 + b e2)
    of each start, one 9-point stencil per step; a start moves only on a
    strict gain, and the ascent stops when every step is below STEP_TOL or
    after MAX_STEPS.  A search, not a certificate: an extremum outside the
    basins of the starts is missed.
    """
    if not f.is_real:
        raise ValueError("grid extrema are defined for real symbols only")
    res = min(GRID_RESOLUTION, max(24, 8 * f.degree))
    u = np.linspace(-1.0, 1.0, res)
    phi = np.linspace(0.0, 2.0 * math.pi, 2 * res, endpoint=False)
    vals = _real_values(f, u[:, None], phi[None, :])
    # the inner rows, and each pole row (u = -1, 1) by its first cell
    cells = np.arange(2 * res - 1, vals.size - 2 * res + 1)
    cells[0] = 0
    vals = vals.ravel()[cells]
    start = cells[np.concatenate([np.argpartition(-s * vals, 3)[:4] for s in (1.0, -1.0)])]
    sign = np.repeat([1.0, -1.0], 4)
    cu, cp = u[start // phi.size], phi[start % phi.size]
    rho, cos, sin = np.sqrt(np.maximum(0.0, 1.0 - cu * cu)), np.cos(cp), np.sin(cp)
    # the (theta, phi) frame of each start; at a pole, one tangent frame
    x = np.array([rho * cos, rho * sin, cu])
    e1, e2 = np.array([cu * cos, cu * sin, -rho]), np.array([-sin, cos, np.zeros(8)])
    v = _stencil(f, sign, x, e1, e2)
    r, scale = np.full(8, math.pi / res), f.coeff_l1()
    for _ in range(MAX_STEPS if f.degree else 0):
        sa, sb = _step(v / scale, r)  # scale-free: no overflow or underflow
        norm = np.hypot(sa, sb)
        move = norm >= STEP_TOL
        if not move.any():
            break
        # the frame carried to the trial point: e1 projected, e2 = xt x e1t
        xt = _unit(x + sa * e1 + sb * e2)
        e1t = _unit(e1 - (e1 * xt).sum(0) * xt)
        e2t = xt[[1, 2, 0]] * e1t[[2, 0, 1]] - xt[[2, 0, 1]] * e1t[[1, 2, 0]]
        vt = _stencil(f, sign, xt, e1t, e2t)
        gain = move & (vt[:, 0] > v[:, 0])
        # a gain doubles the radius (at most 1); a failure cuts it to norm / 4
        r = np.where(gain, np.minimum(2.0 * r, 1.0), np.where(move, 0.25 * norm, r))
        x, e1, e2 = (np.where(gain, t, s) for t, s in ((xt, x), (e1t, e1), (e2t, e2)))
        v = np.where(gain[:, None], vt, v)
    best = v[:, 0]
    k = [lo + int(np.argmax(best[lo:lo + 4])) for lo in (0, 4)]
    fmax, fmin = (sign[i] * best[i] for i in k)
    arg_max, arg_min = (SpherePoint.from_ambient(*map(float, x[:, i])) for i in k)
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
