#!/usr/bin/env python3
"""The commutator limit: ||m i [T_f, T_g] - T_{f,g}|| = O(1/m).

Rescaled commutators of Toeplitz matrices converge to the Toeplitz matrix
of the Poisson bracket, which is what "the matrix algebras approximate the
Poisson algebra" means quantitatively.  For the coordinate pair (x1, x2)
the defect is exactly 4m/(m+2)^2.  With the wrong-sign bracket the defect
saturates at O(1) instead of decaying.  SU(2) equivariance makes the
rescaling by m+2 exact: (m+2) i [T_x1, T_x2] = T_{x1,x2} at every level,
which the wrong-sign bracket misses by 4m/(m+2); `btq calibrate` checks
the Poisson sign this way at m = 4.
"""

from btq import symbols as sy
from btq.lab import thm2_run
from btq.operators import commutator, operator_norm, toeplitz

X1, X2 = sy.X1, sy.X2

rep = thm2_run(X1, X2, [2, 4, 8, 16, 32, 64, 128])
print("defect d_m = ||m i [T_x1, T_x2] - T_{2 x3}||:")
print("    m      measured           4m/(m+2)^2")
for r in rep.rows:
    print(f"  {r.m:4d}   {r.measured:.12f}   {4 * r.m / (r.m + 2) ** 2:.12f}")
print(f"fitted decay exponent over {rep.fit.window}: {rep.fit.slope:.4f}")

print("\nwith the wrong Poisson sign the defect saturates:")
wrong = -sy.poisson_bracket(X1, X2)  # {x1, x2} = -2 x3
for m in (8, 32, 128):
    tfg = toeplitz(wrong, m)
    defect = (1j * m) * commutator(toeplitz(X1, m), toeplitz(X2, m)) - tfg
    d = operator_norm(defect)
    print(f"  m = {m:4d}: defect = {d:.6f}")

print("\nexact at every level: ||(m+2) i [T_x1, T_x2] -+ T_{x1,x2}||, and 4m/(m+2):")
for m in (1, 4, 32, 128):
    spin = (1j * (m + 2)) * commutator(toeplitz(X1, m), toeplitz(X2, m))
    tb = toeplitz(sy.poisson_bracket(X1, X2), m)
    print(f"  m = {m:4d}: built-in {operator_norm(spin - tb):.2e}, "
          f"opposite {operator_norm(spin + tb):.12f}, 4m/(m+2) = {4 * m / (m + 2):.12f}")
