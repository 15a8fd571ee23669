"""
Braid closures and the J invariant
==================================

Links enter as braid words: a positive integer i is a positive
crossing of strands i and i+1, a negative integer its inverse. The
closure ties the braid's top back to its bottom. J is an exact
Laurent-polynomial invariant of the closure, computed as a Markov trace
on the Hecke algebra of the braid group; an unknotted circle
contributes the loop factor A^-6 + 1 + A^6.
"""

from cycloquant import BraidWord, closure_components, j_invariant, parse_laurent

# The trivial braid on one strand closes to the unknot.
unknot = BraidWord(1)
print("J(unknot) =", j_invariant(unknot))

# sigma_1^2 on two strands closes to the Hopf link: two components.
hopf = BraidWord(2, (1, 1))
print("Hopf components:", closure_components(hopf))
print("J(Hopf) =", j_invariant(hopf))

# sigma_1^3 closes to the trefoil knot.
trefoil = BraidWord(2, (1, 1, 1))
print("J(trefoil) =", j_invariant(trefoil))

# The mirror image reverses every crossing and conjugates J (A -> A^-1).
print("J(mirror trefoil) =", j_invariant(trefoil.mirror()))
print("mirror check:", j_invariant(trefoil.mirror()) == j_invariant(trefoil).conjugate())

# A split extra strand multiplies J by the loop factor.
split = BraidWord(3, (1, 1, 1))
loop = parse_laurent("A^-6 + 1 + A^6")
print("split union check:", j_invariant(split) == j_invariant(trefoil) * loop)

# (2, k) torus links satisfy a two-term recursion in k, a direct
# consequence of the defining skein relation:
#   J_k = A^-18 J_{k-2} + (A^-6 - A^-12) J_{k-1}
switch, smooth = parse_laurent("A^-18"), parse_laurent("A^-6 - A^-12")
j_prev, j_cur = loop * loop, loop
for k in range(2, 7):
    j_prev, j_cur = j_cur, switch * j_prev + smooth * j_cur
    direct = j_invariant(BraidWord(2, (1,) * k))
    print(f"(2,{k}) torus closure matches recursion:", direct == j_cur)
