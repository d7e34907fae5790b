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

from ._zpoly import zp_add, zp_dz, zp_eval, zp_mul
from .errors import CapacityError

TOTAL_AREA = 2.0 * math.pi

# cap on Gauss nodes in s, the one size make_rule allocates (leggauss
# builds an n x n companion matrix: about 1 s at this size)
MAX_RADIAL_NODES = 2048


@dataclass(frozen=True)
class KahlerConventions:
    """Every sign/normalization the formulas leave open, pinned in one place.

    poisson_constant is the c in {x_i, x_j} = c eps_ijk x_k; laplace_sign
    and laplace_scale turn the ambient-identity Laplacian into the one the
    metric g(X,Y) = omega(X, IY) defines (eigenvalues -2 l(l+1) here).
    The defaults are the values the runtime calibration selects.
    """

    total_area: float = TOTAL_AREA
    poisson_constant: float = 2.0
    laplace_sign: int = 1
    laplace_scale: float = 2.0

    def as_dict(self):
        return {
            "total_area": self.total_area,
            "poisson_constant": self.poisson_constant,
            "laplace_sign": self.laplace_sign,
            "laplace_scale": self.laplace_scale,
        }


DEFAULT_CONVENTIONS = KahlerConventions()


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
    def from_ambient(cls, x1, x2, x3, tol=1e-9):
        r2 = x1 * x1 + x2 * x2 + x3 * x3
        if abs(r2 - 1.0) > tol:
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

    def antipode(self):
        x1, x2, x3 = self.ambient()
        return SpherePoint.from_ambient(-x1, -x2, -x3)

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
def make_rule(m, degree, margin=0):
    """Radial rule exact for every level-m matrix-element integrand with
    symbols of total degree <= degree: radial degree >= m + degree + margin.
    Memoised, so the node and weight arrays are read-only."""
    if m < 0 or degree < 0 or margin < 0:
        raise ValueError("level, degree and margin must be nonnegative")
    n_s = max((m + degree + margin + 2) // 2, 1)  # 2 n_s - 1 >= m + degree + margin
    if n_s > MAX_RADIAL_NODES:
        raise CapacityError(
            f"quadrature would need {n_s} radial nodes (cap {MAX_RADIAL_NODES})")
    x, _ = np.polynomial.legendre.leggauss(n_s)
    # leggauss weights are off by up to 1.8e-10 (relative) at 502 nodes;
    # w = 2/((1-x^2) P_n'(x)^2) from the three-term recurrence by 8e-13
    p_prev, p = np.ones_like(x), x
    for j in range(2, n_s + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = n_s * (x * p - p_prev) / (x * x - 1.0)
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

    The left side is differentiated symbolically on chart polynomials by the
    quotient rule, the right side comes from the Kaehler form, so a zero
    defect really does tie the bundle metric to omega rather than comparing
    an expression with itself.
    """
    # dzbar log h_m = -m dzbar(u)/u = p/u with p = -m z; the quotient rule
    # -dz (p/u) = (zbar p - u dz p)/u^2 puts the left side over u^2
    p, minus_u = {(1, 0): -float(m)}, {(0, 0): -1.0, (1, 1): -1.0}
    num = zp_add(zp_mul({(0, 1): 1.0}, p), zp_mul(minus_u, zp_dz(p)))
    worst = 0.0
    for pt in points:
        if pt.chart != "finite":
            continue
        u = 1.0 + abs(pt.z) ** 2
        lhs = zp_eval(num, pt.z) * u ** -2.0
        worst = max(worst, abs(lhs - float(m) / u**2))
    return worst
