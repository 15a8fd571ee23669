"""
Exact arithmetic in cyclotomic quotient rings
=============================================

Everything downstream (Gauss sums, link invariants, obstruction tests)
lives in Z[A, A^-1] and its quotients by a cyclotomic polynomial. This
walk-through shows the basic moves: building Laurent polynomials,
reducing them into a quotient where A has finite order, inverting
units, and applying Galois symmetries.
"""

from cycloquant import (
    CycloFraction,
    cyclotomic_poly,
    invert,
    parse_laurent,
    reduce,
)

# Laurent polynomials parse from and print to a canonical string form.
f = parse_laurent("A^-6 + 1 + A^6")
print("a Laurent polynomial:", f)
print("its square:          ", f * f)

# Cyclotomic polynomials are computed exactly by integer recursion.
for k in (1, 2, 3, 5, 15):
    print(f"Phi_{k}(A) =", cyclotomic_poly(k))

# Reducing modulo Phi_15 turns A into a primitive 15th root of unity.
# The quotient has Z-rank 8 = deg Phi_15, with basis 1, A, ..., A^7.
x = reduce(parse_laurent("A^8"), 15)
print("A^8 reduced at order 15:", x)

# Every power of A now cycles with period 15.
print("A^15 reduced at order 15:", reduce(parse_laurent("A^15"), 15))
print("A^-6 reduced at order 15:", reduce(parse_laurent("A^-6"), 15))

# Fractions with integer denominators normalize automatically.
third = CycloFraction(reduce(parse_laurent("5 - 5A"), 15), 15)
print("a normalized fraction:", third)

# Units invert exactly; the inverse of A is A^14.
inv_a = invert(reduce(parse_laurent("A"), 15))
print("1/A at order 15:", inv_a)

# Galois conjugation A -> A^t is a ring symmetry for gcd(t, 15) = 1.
# t = -1 is complex conjugation on every embedding.
y = reduce(parse_laurent("1 + 2A + 3A^2"), 15)
print("conjugate of 1 + 2A + 3A^2:", y.galois(-1))
print("round trip:", y.galois(-1).galois(-1) == y)
