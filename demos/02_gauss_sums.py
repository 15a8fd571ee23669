"""
Quadratic Gauss sums and the unit G_r
=====================================

The surgery invariant's normalization constants are quadratic Gauss
sums: finite sums of A raised to square exponents. Working at order
k = 3r, two particular sums S1 and S2 have exactly computable
magnitudes, and a specific ratio of them, G_r, is a root of unity
whose sign matters for the obstruction tests.
"""

from cycloquant import (
    gauss_sum,
    g_r,
    quantum_int,
    quantum_int_laurent,
    s1,
    s2,
)

# Quantum integers [n] are symmetric Laurent polynomials.
for n in range(1, 5):
    print(f"[{n}] =", quantum_int_laurent(n))

# Reduced at order 15 they become ring constants; [3] is the value of
# the braid-closure invariant on the unknot.
print("[3] at order 15:", quantum_int(3, 15))

# A quadratic Gauss sum: sum of A^(a j^2) for j below n.
print("sum of A^(j^2), j < 3, at order 3:", gauss_sum(1, 3, 3))

# The two normalization sums at level r live at order 3r and have
# magnitude r and 3r exactly: S * conj(S) is an integer.
for r in (5, 7):
    k = 3 * r
    m1 = s1(r) * s1(r).galois(-1)
    m2 = s2(r) * s2(r).galois(-1)
    print(f"level {r}: S1*conj(S1) = {m1}, S2*conj(S2) = {m2}")

# G_r is a unit of modulus one; at level 5 it is exactly -A^9, and the
# recorded sign epsilon = -1 feeds the branched-cover obstruction.
for r in (5, 7, 9):
    res = g_r(r)
    print(f"G_{r} = {res.value}  (epsilon = {res.epsilon})")
    print(f"  modulus check: G * conj(G) = {res.value * res.value.galois(-1)}")
