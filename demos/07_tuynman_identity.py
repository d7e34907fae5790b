#!/usr/bin/env python3
"""Tuynman's relation: geometric quantization equals a Toeplitz correction.

The geometric-quantization operator Q_f (compression of the prequantum
operator -(1/m) nabla_{X_f} + i f) coincides exactly with
i T_{f - Laplacian(f)/(2m)}.  This is an identity at every level, not an
asymptotic statement -- defects sit at quadrature accuracy.  It also pins
the Laplacian sign: the wrong sign misses by an O(1/m) operator, and `btq
calibrate` checks the sign this way at m = 4, with the Poisson sign.
"""

import numpy as np

from btq import symbols as sy
from btq.calibration import LEVEL, calibrate
from btq.lab import tuynman_run
from btq.operators import operator_norm, prequantum, toeplitz

X1, X3 = sy.X1, sy.X3

print(f"calibration at m = {LEVEL} (defect with the built-in sign, the opposite one):")
for name, (built_in, opposite) in calibrate().items():
    print(f"  {name}: {built_in:.3e}, {opposite:.6f}")

print("\nQ_x3 at level 4 (closed form i diag((m-2k)/m)):")
print(np.round(prequantum(X3, 4).mat.imag, 12))

print("\nidentity defects ||Q_f - i T_{f - Lap f/2m}||_max:")
for text in ("x1", "x3", "x3^2", "x1*x2 - 0.5*x3"):
    f = sy.parse(text)
    rep = tuynman_run(f, [2, 4, 8, 16, 32])
    worst = max(r.measured for r in rep.rows)
    print(f"  f = {text:14s} worst defect = {worst:.3e}   passed: {rep.passed}")

print("\nwrong Laplacian sign at m=8, f=x3:")
q = prequantum(X3, 8)
bad = toeplitz(X3 + sy.laplace_beltrami(X3) * (1.0 / 16.0), 8) * 1j  # f + Lap f/2m
print(f"  defect = {float(np.max(np.abs(q.mat - bad.mat))):.6f} "
      f" (vs ||Q|| = {operator_norm(q):.6f})")
