"""Bivariate polynomials in (z, zbar): the stereographic chart numerators.

An ambient monomial of degree d restricts to the sphere as
num/(1+z zbar)^d; `chart_numerator` expands num for the exact Toeplitz
path, and `geometry.curvature_check` differentiates the bundle metric
with the same polynomial arithmetic.
"""

from __future__ import annotations

import numpy as np

# coefficient dict: (i, j) -> complex, meaning sum c_ij z^i zbar^j


def zp_add(p, q):
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0.0) + c
        if v == 0:
            out.pop(e, None)
        else:
            out[e] = v
    return out


def zp_mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            e = (i1 + i2, j1 + j2)
            v = out.get(e, 0.0) + c1 * c2
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
    return out


def zp_pow(p, n):
    out = {(0, 0): 1.0}
    for _ in range(n):
        out = zp_mul(out, p)
    return out


def zp_dz(p):
    return {(i - 1, j): i * c for (i, j), c in p.items() if i > 0}


def zp_eval(p, z):
    """Evaluate at a complex z, with zbar = conj(z)."""
    zbar = np.conjugate(z)
    return sum((c * z**i * zbar**j for (i, j), c in sorted(p.items())), 0j)


# chart numerators of the ambient coordinates: x_i = X[i] / (1+z zbar)
X_NUM = (
    {(1, 0): 1.0, (0, 1): 1.0},     # x1 = (z + zbar)/u
    {(1, 0): -1j, (0, 1): 1j},      # x2 = -i(z - zbar)/u = 2 Im(z)/u
    {(0, 0): 1.0, (1, 1): -1.0},    # x3 = (1 - z zbar)/u
)


def chart_numerator(a, b, c):
    """Chart numerator of x1^a x2^b x3^c, which is it over (1+z zbar)^(a+b+c)."""
    num = {(0, 0): 1.0}
    for e, base in zip((a, b, c), X_NUM):
        if e:
            num = zp_mul(num, zp_pow(base, e))
    return num
