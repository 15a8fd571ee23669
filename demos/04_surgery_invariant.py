"""
Linking matrices and the surgery invariant Z_N
==============================================

A framed link presents a closed 3-manifold by surgery, and the
abelian invariant Z_N depends only on the linking matrix: a symmetric
integer matrix with framings on the diagonal. Z_N is a Gauss-sum
average over (Z/N)^m, normalized by the matrix signature so that it
is unchanged by the two Kirby moves relating different surgery
presentations of the same manifold.
"""

from cycloquant import (
    FramedBraidLink,
    BraidWord,
    linking_matrix,
    moo_fast,
    moo_invariant,
    signature_counts,
)

# The linking matrix of a framed braid closure: the Hopf link with
# framings 0 gives the off-diagonal pairing.
hopf = FramedBraidLink(BraidWord(2, (1, 1)), (0, 0))
b_hopf = linking_matrix(hopf)
print("Hopf linking matrix:", b_hopf.rows())

# Exact signature data of a symmetric integer matrix.
sig = signature_counts([[2, 0, 0], [0, -3, 0], [0, 0, 0]])
print("inertia of diag(2, -3, 0):", sig)

# The empty surgery (the 3-sphere itself) has Z_N = 1 at every level.
for n in (3, 5, 7):
    print(f"Z_{n}(S^3) =", moo_invariant([], n))

# A +-1 framed unknot is a stabilization: still the 3-sphere.
print("Z_5 of diag(1):", moo_invariant([[1]], 5))
print("Z_5 of diag(-1):", moo_invariant([[-1]], 5))

# Surgery on a 2-framed unknot gives a lens space with a nontrivial value.
print("Z_5 of [[2]]:", moo_invariant([[2]], 5))

# A 0-framed unknot produces first homology Z: the value picks up a
# half power of N, printed as an explicit N^(-1/2) factor.
print("Z_5 of [[0]]:", moo_invariant([[0]], 5))

# Kirby moves leave Z_N unchanged: stabilization appends a +-1 block,
# handle slides act by unimodular congruence.
base = [[2, 1], [1, -2]]
stab = [[2, 1, 0], [1, -2, 0], [0, 0, 1]]
slid = [[2, 3], [3, 2]]  # slide: add row/column 1 into row/column 2
print("stabilization invariance:", moo_invariant(stab, 15) == moo_invariant(base, 15))
print("handle slide invariance: ", moo_invariant(slid, 15) == moo_invariant(base, 15))

# The fast path, which the command line and check_thm_5_1 use,
# diagonalizes the matrix over each prime-power factor p^e of N instead
# of summing N^m terms; a block with no unit pivot is divided by p and
# diagonalized again mod p^(e-1). It agrees exactly with the defining sum.
print("fast path agrees:", moo_fast(base, 15) == moo_invariant(base, 15))
