#!/usr/bin/env python3
"""Sphere geometry: the area-2pi normalization, exact quadrature, the
Calabi diastasis, and the prequantum curvature identity.

The Kaehler form is omega = i dz dzbar/(1+|z|^2)^2, which integrates to
2 pi (a round sphere of radius 1/sqrt(2)).  In the substitution
s = |z|^2/(1+|z|^2) the volume form becomes exactly ds dphi, so a Gauss
rule in s times a uniform rule in phi integrates every matrix-element
integrand with zero truncation error -- that's what lets the package
compare quadrature against closed forms at 1e-12.  The radial rule comes
from `make_rule`, the phi grid from `phi_grid`.  The basis carries the
angular factor e^{i k phi}, so the package only ever sums over the two
factors separately.
"""

import math

import numpy as np

from btq.geometry import (SpherePoint, TOTAL_AREA, curvature_check, diastasis,
                          make_rule, phi_grid)

rule = make_rule(4, 3)
s, w = rule.s_nodes, rule.s_weights
print(f"radial rule for level 4 / degree 3: {rule.n_nodes} Gauss nodes in s, "
      f"exact to degree {rule.max_radial_degree}")

area = float(2 * math.pi * np.sum(w))
print(f"  2 pi * sum of weights = {area!r}  (2 pi = {TOTAL_AREA!r})")

val = float(2 * math.pi * np.sum(w * s**5 * (1 - s) ** 2))
exact = 2 * math.pi * math.factorial(5) * math.factorial(2) / math.factorial(8)
print(f"  moment s^5 (1-s)^2: quadrature {val!r} vs Beta closed form {exact!r}")

phi = phi_grid(3)
print(f"\nphi_grid(3): {len(phi)} uniform nodes, exact for e^(i q phi) with |q| <= 6")
for q in (1, 6, 7):
    mean = abs(np.mean(np.exp(1j * q * phi)))
    note = "  (aliases onto q = 0)" if q == 7 else ""
    print(f"  q = {q}: |mean of e^(i q phi)| = {mean:.2e}{note}")

print("\ndiastasis D(p, q) = -log |<p, q>|^2 of unit lifts:")
north = SpherePoint.from_z(0)
for q, label in [(SpherePoint.from_z(0), "north"),
                 (SpherePoint.from_z(1), "z=1"),
                 (SpherePoint.from_z(2j), "z=2i"),
                 (SpherePoint.infinity(), "south (antipodal)")]:
    print(f"  D(north, {label:18s}) = {diastasis(north, q)}")

print("\nprequantum curvature: -dz dzbar log h_m = m omega / (i dz dzbar):")
pts = [SpherePoint.from_z(complex(x, y))
       for x, y in [(0, 0), (1, 0), (0.3, -1.2), (2, 2)]]
for m in (0, 1, 5, 12):
    print(f"  level {m}: max defect over samples = {curvature_check(m, pts):.3e}")
