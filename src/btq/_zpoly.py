"""Bivariate polynomials in (z, zbar) and rational forms p/(1+z zbar)^k.

Internal helper for the stereographic chart: ambient polynomials restricted
to the sphere become num/(1+z zbar)^deg, and the covariant/Hamiltonian
calculus only ever needs polynomial arithmetic plus the quotient-rule
derivative of such rational forms.
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


def zp_scale(p, a):
    if a == 0:
        return {}
    return {e: a * c for e, c in p.items()}


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


def zp_dzbar(p):
    return {(i, j - 1): j * c for (i, j), c in p.items() if j > 0}


def zp_eval(p, z, zbar=None):
    """Evaluate at complex z (scalar or ndarray); zbar defaults to conj(z)."""
    if zbar is None:
        zbar = np.conjugate(z)
    out = None
    for (i, j), c in sorted(p.items()):
        term = c * z**i * zbar**j
        out = term if out is None else out + term
    if out is None:
        return np.zeros_like(z, dtype=complex) if isinstance(z, np.ndarray) else 0.0
    return out


U = {(0, 0): 1.0, (1, 1): 1.0}  # 1 + z zbar

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


class Rational:
    """num/(1+z zbar)^pole with polynomial numerator."""

    __slots__ = ("num", "pole")

    def __init__(self, num, pole=0):
        self.num = num
        self.pole = pole

    def with_pole(self, k):
        """Rewrite over the denominator u^k (k >= pole)."""
        if k == self.pole:
            return self
        if k < self.pole:
            raise ValueError("cannot lower the pole order")
        return Rational(zp_mul(self.num, zp_pow(U, k - self.pole)), k)

    def __add__(self, other):
        k = max(self.pole, other.pole)
        return Rational(zp_add(self.with_pole(k).num, other.with_pole(k).num), k)

    def __mul__(self, other):
        if isinstance(other, Rational):
            return Rational(zp_mul(self.num, other.num), self.pole + other.pole)
        return Rational(zp_scale(self.num, other), self.pole)

    def dz(self):
        # d/dz (P/u^k) = (u P_z - k zbar P)/u^(k+1)
        n = zp_add(zp_mul(U, zp_dz(self.num)),
                   zp_scale(zp_mul({(0, 1): 1.0}, self.num), -self.pole))
        return Rational(n, self.pole + 1)

    def dzbar(self):
        # d/dzbar (P/u^k) = (u P_zbar - k z P)/u^(k+1)
        n = zp_add(zp_mul(U, zp_dzbar(self.num)),
                   zp_scale(zp_mul({(1, 0): 1.0}, self.num), -self.pole))
        return Rational(n, self.pole + 1)

    def eval(self, z, u=None):
        if u is None:
            u = 1.0 + np.abs(z) ** 2
        v = zp_eval(self.num, z)
        return v if self.pole == 0 else v * u ** (-float(self.pole))


def chart_rational(terms):
    """Map ambient coefficients {(a,b,c): coeff} to the chart form P/u^pole.

    Each monomial x1^a x2^b x3^c restricts to its numerator product over
    u^(a+b+c); the sum is put over the common maximal denominator.
    """
    out = Rational({}, 0)
    for (a, b, c), coeff in sorted(terms.items()):
        num = {(0, 0): complex(coeff)}
        for e, base in zip((a, b, c), X_NUM):
            if e:
                num = zp_mul(num, zp_pow(base, e))
        out = out + Rational(num, a + b + c)
    return out
