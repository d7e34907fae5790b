#!/usr/bin/env python3
"""The classical observable algebra: parsing, the sphere relation, Poisson
brackets, the Laplacian, and the first star-product bidifferential operator.

Observables are polynomials in the ambient coordinates modulo
x1^2 + x2^2 + x3^2 = 1.  With the area normalized to 2 pi the structure
constants are {x_i, x_j} = 2 eps_ijk x_k and the Laplacian eigenvalue on
degree-l harmonics is -2 l (l+1); both signs are built in, and `btq
calibrate` checks each by an identity exact at every level (see the
commutator and Tuynman demos).
"""

from btq import symbols as sy

X1, X2, X3 = sy.X1, sy.X2, sy.X3

f = sy.parse("x1^2")
print(f"x1^2 in normal form: {f}")
print(f"x1*x1 == 1 - x2^2 - x3^2: {f == sy.ONE - X2**2 - X3**2}")

print("\nPoisson structure:")
for a, b in ((X1, X2), (X2, X3), (X3, X1)):
    print(f"  {{{a}, {b}}} = {sy.poisson_bracket(a, b)}")

g, h, k = sy.parse("x1*x2 - x3"), sy.parse("x3^2 + x2"), sy.parse("x1 + 2*x2*x3")
leibniz = sy.poisson_bracket(g * h, k) - g * sy.poisson_bracket(h, k) \
    - sy.poisson_bracket(g, k) * h
jacobi = sy.poisson_bracket(g, sy.poisson_bracket(h, k)) \
    + sy.poisson_bracket(h, sy.poisson_bracket(k, g)) \
    + sy.poisson_bracket(k, sy.poisson_bracket(g, h))
print(f"  Leibniz defect (coefficient max): {leibniz.coeff_max()}")
print(f"  Jacobi defect  (coefficient max): {jacobi.coeff_max()}")

print("\nLaplacian (eigenvalue -2 l (l+1) in this normalization):")
for sym, l in ((X3, 1), (X1 * X2, 2)):
    print(f"  Lap {sym} = {sy.laplace_beltrami(sym)}   [l={l}]")

print("\nfirst star-product coefficient candidates:")
for ordering in sy.C1_ORDERINGS:
    c1 = sy.c1_candidate(X3, X3, ordering)
    tag = "selected" if ordering == sy.SELECTED_C1_ORDERING else "rejected"
    print(f"  C1(x3, x3) [{ordering}, {tag}] = {c1}")
c1 = lambda a, b: sy.c1_candidate(a, b, sy.SELECTED_C1_ORDERING)
eq4 = c1(g, h) - c1(h, g) + 1j * sy.poisson_bracket(g, h)
print(f"  antisymmetrization identity defect: {eq4.coeff_max()}")

print("\nsup norms over the sphere:")
for sym in (X3, X1**2 + X2**2, sy.parse("0.3 + x1 + 0.5*x2*x3")):
    print(f"  sup |{sym}| = {sy.sup_norm(sym)!r}")
