"""Charts, Kaehler data, diastasis and exact quadrature for the Riemann sphere.

Conventions. The Kaehler form is omega = i dz dzbar/(1+z zbar)^2 in the
stereographic coordinate z, so the total area is 2*pi (a round sphere of
radius 1/sqrt(2)).  z = 0 is the north pole x3 = +1; the single point the
chart misses is the south pole (0,0,-1).  In the radial substitution
s = |z|^2/(1+|z|^2) the volume form is exactly ds dphi on (0,1) x (0,2*pi),
which is what makes finite-node quadrature exact for all the integrands
this package produces: `make_rule` sizes the Gauss rule in s for a level
and symbol degree, and `phi_grid(d)` is the uniform phi grid that resolves
the harmonics of a degree-d symbol.  No 2-D grid is ever built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TOTAL_AREA = 2.0 * math.pi
# the c in {x_i, x_j} = c eps_ijk x_k and the sign of the Laplacian are fixed
# by the prequantum condition c(L) = omega/2pi; `btq calibrate` checks each
# by an identity exact at every level, which the opposite sign misses
POISSON_CONSTANT = 2.0
LAPLACE_SIGN = 1
# the metric g(X,Y) = omega(X, IY) scales the ambient-identity Laplacian by 2
LAPLACE_SCALE = 2.0

# Newton steps in `make_rule`: 4 land every node within 1 ulp of the
# companion-matrix eigenvalues up to n = 559 (3 do not); the basis Gram
# defect on these rules is at most 1.33e-13 for levels up to 1020, degree 8
NEWTON_STEPS = 4

# how far x1^2 + x2^2 + x3^2 may stray from 1 in `SpherePoint.from_ambient`
ON_SPHERE_TOL = 1e-9


class SpherePoint:
    """A point of S^2 with its stereographic coordinate.

    chart is "finite" (coordinate z, north-pole chart) or "infinity"
    (the south pole, the one point the z-chart misses).
    """

    __slots__ = ("chart", "z")

    def __init__(self, chart, z=0j):
        if chart not in ("finite", "infinity"):
            raise ValueError(f"unknown chart {chart!r}")
        self.chart = chart
        self.z = complex(z) if chart == "finite" else None

    @classmethod
    def from_z(cls, z):
        return cls("finite", z)

    @classmethod
    def infinity(cls):
        return cls("infinity")

    @classmethod
    def from_ambient(cls, x1, x2, x3):
        r2 = x1 * x1 + x2 * x2 + x3 * x3
        if abs(r2 - 1.0) > ON_SPHERE_TOL:
            raise ValueError(f"({x1},{x2},{x3}) is not on the unit sphere")
        if 1.0 + x3 <= 1e-300:
            return cls.infinity()
        return cls("finite", complex(x1, x2) / (1.0 + x3))

    def ambient(self):
        """(x1, x2, x3) with x1^2+x2^2+x3^2 = 1."""
        if self.chart == "infinity":
            return (0.0, 0.0, -1.0)
        z = self.z
        u = 1.0 + abs(z) ** 2
        return (2.0 * z.real / u, 2.0 * z.imag / u, (2.0 - u) / u)

    def _lift(self):
        # unit vector in C^2 representing the point of P^1
        if self.chart == "infinity":
            return (0.0 + 0j, 1.0 + 0j)
        n = math.sqrt(1.0 + abs(self.z) ** 2)
        return (1.0 / n + 0j, self.z / n)

    def __repr__(self):
        if self.chart == "infinity":
            return "SpherePoint(infinity)"
        return f"SpherePoint(z={self.z})"


def diastasis(p, q):
    """Calabi diastasis D(p,q) = -log |<p,q>|^2 of unit lifts.

    Symmetric, zero iff p == q, +inf for antipodal pairs (extended-real
    valued by design, never an error).
    """
    ap, bp = p._lift()
    aq, bq = q._lift()
    k = ap.conjugate() * aq + bp.conjugate() * bq
    k2 = abs(k) ** 2
    if k2 == 0.0:
        return math.inf
    return max(0.0, -math.log(k2))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule in s = |z|^2/(1+|z|^2) on (0, 1): exact (to roundoff) for
    polynomials in s of degree <= max_radial_degree.  Times `phi_grid`, it
    integrates p(s) e^{i q phi} against ds dphi."""

    s_nodes: np.ndarray
    s_weights: np.ndarray
    max_radial_degree: int

    @property
    def n_nodes(self):
        return len(self.s_nodes)


@functools.lru_cache(maxsize=None)
def make_rule(m, degree):
    """Radial rule exact for every level-m matrix-element integrand with
    symbols of total degree <= degree: radial degree >= m + degree.
    Memoised, so the node and weight arrays are read-only.  The Legendre
    nodes x are Newton iterates on the three-term recurrence from Tricomi's
    guesses cos(pi (4k-1)/(4n+2)); the weights are 2/((1-x^2) P_n'(x)^2)."""
    if m < 0 or degree < 0:
        raise ValueError("level and degree must be nonnegative")
    n_s = max((m + degree + 2) // 2, 1)  # 2 n_s - 1 >= m + degree
    x = np.cos(np.pi * (4 * np.arange(n_s, 0, -1) - 1) / (4 * n_s + 2))
    for step in range(NEWTON_STEPS + 1):  # the last pass is for the weights
        p_prev, p = np.ones_like(x), x
        for j in range(2, n_s + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n_s * (x * p - p_prev) / (x * x - 1.0)
        if step < NEWTON_STEPS:
            x = x - p / dp
    s = 0.5 * (x + 1.0)
    ws = 1.0 / ((1.0 - x * x) * dp * dp)
    s.flags.writeable = ws.flags.writeable = False
    return QuadratureRule(s_nodes=s, s_weights=ws, max_radial_degree=2 * n_s - 1)


def phi_grid(degree):
    """The 2 degree + 1 uniform phi nodes: exact for e^{i q phi}, |q| <= 2 degree,
    so an FFT there gives the Fourier coefficients of any factor carrying only
    the harmonics |q| <= degree, without aliasing."""
    n = 2 * degree + 1
    return 2.0 * math.pi * np.arange(n) / n


def curvature_check(m, points):
    """Max defect of -dz dzbar log h_m = m/(1+z zbar)^2 for h_m = (1+z zbar)^-m.

    The left side is the quotient rule -dz (p/u) = (zbar p - u dz p)/u^2 on
    dzbar log h_m = p/u, p = -m z, dz p = -m, u = 1 + z zbar, evaluated in
    numbers at each point; the right side comes from the Kaehler form, so a
    zero defect ties the bundle metric to omega.
    """
    worst = 0.0
    for pt in points:
        if pt.chart != "finite":
            continue
        u, p, dz_p = 1.0 + abs(pt.z) ** 2, -m * pt.z, -m
        lhs = (pt.z.conjugate() * p - u * dz_p) / u**2
        worst = max(worst, abs(lhs - m / u**2))
    return worst
