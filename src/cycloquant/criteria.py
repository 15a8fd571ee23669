"""Periodicity obstruction tests built on the congruences.

Each test decides a necessary condition: a manifold or link that fails
one cannot have the corresponding symmetry, while passing proves
nothing. Invariant values enter as ring elements (computing the
level-r invariant of an arbitrary manifold is out of scope; known
values are supplied as constants).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable

from .gauss import _require_level, g_r, quantum_int_laurent
from .links import BraidWord, LinkingMatrix, j_invariant, signature_counts
from .moo import _require_odd, moo_fast
from .rings import (
    CycloElem,
    CycloFraction,
    ModCycloElem,
    ideal_membership_cyclo,
    is_prime,
    laurent_ideal_membership,
    parse_laurent,
    reduce,
    reduce_mod_p,
)

# the level-5 invariant of the (2,1) lens space, the running example of
# a manifold that is provably not a cyclic branched cover
LENS_SPACE_2_1_LEVEL_5 = CycloFraction(
    reduce(parse_laurent("1 - A - A^2 + A^3 - A^4 + A^5 - A^7"), 15)
)


# ---------------------------------------------------------------------------
# verdicts


@dataclasses.dataclass(frozen=True)
class Witness:
    """Exponents substantiating a satisfied congruence: eps * A^s * G^alpha."""

    epsilon: int
    s: int
    alpha: int


@dataclasses.dataclass(frozen=True)
class ObstructionVerdict:
    satisfied: bool
    witness: Witness | None
    context: tuple[int, int]  # (r or N, p)


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _multiplicative_order(x: ModCycloElem, cap: int = 1_000_000) -> int:
    one = ModCycloElem.one(x.order, x.p)
    cur = x
    for n in range(1, cap + 1):
        if cur == one:
            return n
        cur = cur * x
    raise ArithmeticError("no multiplicative order found; image is not a unit")


# ---------------------------------------------------------------------------
# the characteristic-zero power list


def powers_of_A_char0(r: int) -> list[CycloElem]:
    """Reduced representatives of A^s, s = 0..3r-1, at level r."""
    _require_level(r)
    k = 3 * r
    return [CycloElem.a_power(k, s) for s in range(k)]


# ---------------------------------------------------------------------------
# level-r congruence for p-periodic manifolds


def check_thm_1_1(
    vm: CycloFraction, vmbar: CycloFraction, r: int, p: int
) -> ObstructionVerdict:
    """Is vm = vmbar^p * G_r^alpha modulo (p, [3]^p - [3]) for some alpha?

    Both signs of G_r are admitted, which only enlarges the candidate
    set. A satisfied verdict carries (epsilon, 0, alpha).
    """
    _require_level(r)
    _require_prime(p)
    k = 3 * r
    if math.gcd(p, k) != 1:
        raise ValueError(f"need gcd(p, {k}) = 1")
    if vm.order != k or vmbar.order != k:
        raise ValueError(f"invariant values must live at order {k}")
    # x^p and the Frobenius A -> A^p agree mod p, and only residues mod p
    # are read below
    g_poly = quantum_int_laurent(3).subst_power(p) - quantum_int_laurent(3)
    vm_p = reduce_mod_p(vm, p)
    vmbar_pow = reduce_mod_p(vmbar.galois(p), p)
    g_img = reduce_mod_p(g_r(r).value, p)
    for eps in (1, -1):
        base = g_img * eps
        cur = ModCycloElem.one(k, p)
        for alpha in range(_multiplicative_order(base)):
            if ideal_membership_cyclo(vm_p - vmbar_pow * cur, g_poly, p, k):
                return ObstructionVerdict(True, Witness(eps, 0, alpha), (r, p))
            cur = cur * base
    return ObstructionVerdict(False, None, (r, p))


# ---------------------------------------------------------------------------
# branched cyclic covers


def check_cor_1_2(v: CycloFraction, r: int, p: int) -> ObstructionVerdict:
    """Is v = eps * A^s * G_r^alpha mod p?

    For p = +-1 mod r the periodicity ideal collapses to (p), so the
    congruence of the p-fold branched cover test reduces to membership
    of v mod p in this finite candidate set. Unsatisfied means: no knot
    has this manifold as its p-fold cyclic branched cover.
    """
    _require_level(r)
    _require_prime(p)
    if p == 3:
        raise ValueError("p = 3 is excluded")
    if p % r not in (1, r - 1):
        raise ValueError(f"need p = +-1 mod {r}")
    k = 3 * r
    if v.order != k:
        raise ValueError(f"invariant value must live at order {k}")
    # v = eps A^s G^alpha iff v G^-alpha = eps A^s; k = 3r and p are odd,
    # so the 2k values +-A^s are distinct and a lookup finds the only s
    s_of = {
        reduce_mod_p(CycloElem.a_power(k, s), p).coeffs: s for s in range(k)
    }
    g_img = reduce_mod_p(g_r(r).value, p)
    order = _multiplicative_order(g_img)
    g_inv = g_img ** (order - 1)
    w = reduce_mod_p(v, p)
    for alpha in range(order):
        for eps, x in ((1, w), (-1, -w)):
            s = s_of.get(x.coeffs)
            if s is not None:
                return ObstructionVerdict(True, Witness(eps, s, alpha), (r, p))
        w = w * g_inv
    return ObstructionVerdict(False, None, (r, p))


# ---------------------------------------------------------------------------
# periodic links


def check_thm_4_1(lift: BraidWord, quotient: BraidWord, p: int) -> bool:
    """Does J(lift) = J(quotient)^p hold modulo (p, [3]^p - [3])?"""
    if p == 1:
        return True
    _require_prime(p)
    # the Frobenius A -> A^p stands in for the p-th power: equal mod p
    f = j_invariant(lift) - j_invariant(quotient).subst_power(p)
    g_poly = quantum_int_laurent(3).subst_power(p) - quantum_int_laurent(3)
    return laurent_ideal_membership(f, g_poly, p)


# ---------------------------------------------------------------------------
# periodic rational homology spheres


def check_thm_5_1(
    matrix: LinkingMatrix | Iterable[Iterable[int]],
    matrix_bar: LinkingMatrix | Iterable[Iterable[int]],
    p: int,
    n: int,
    *,
    fast: bool = True,
) -> ObstructionVerdict:
    """Is Z_N(B) = +-Z_N(Bbar)^p mod p?

    Both matrices must be nondegenerate (rational homology spheres).
    p = 1 is accepted as the degenerate identity case. Z_N is always
    computed by moo_fast; `fast` is accepted and ignored.
    """
    if not isinstance(matrix, LinkingMatrix):
        matrix = LinkingMatrix.from_rows(matrix)
    if not isinstance(matrix_bar, LinkingMatrix):
        matrix_bar = LinkingMatrix.from_rows(matrix_bar)
    _require_odd(n)
    for b in (matrix, matrix_bar):
        if signature_counts(b).nullity != 0:
            raise ValueError("linking matrix must be nondegenerate")
    if p == 1:
        return ObstructionVerdict(True, Witness(1, 0, 0), (n, 1))
    _require_prime(p)
    if math.gcd(n, p) != 1:
        raise ValueError(f"need gcd({n}, {p}) = 1")
    z = moo_fast(matrix, n)
    z_bar = moo_fast(matrix_bar, n)
    z_p = reduce_mod_p(z.value, p)
    z_bar_pow = reduce_mod_p(z_bar.value, p) ** p
    for eps in (1, -1):
        if z_p == z_bar_pow * eps:
            return ObstructionVerdict(True, Witness(eps, 0, 0), (n, p))
    return ObstructionVerdict(False, None, (n, p))


if __name__ == "__main__":
    for p in (11, 19, 29, 31):
        verdict = check_cor_1_2(LENS_SPACE_2_1_LEVEL_5, 5, p)
        state = "CONSISTENT" if verdict.satisfied else "OBSTRUCTED"
        print(f"p = {p}: {state}")
    print(check_thm_4_1(BraidWord(2, (1, 1, 1)), BraidWord(2, (1,)), 3))
    print(check_thm_5_1([[1], ], [[1]], 3, 5))
