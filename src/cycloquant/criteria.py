"""Periodicity obstruction tests built on the congruences.

Each test decides a necessary condition: a manifold or link that fails
one cannot have the corresponding symmetry, while passing proves
nothing. Invariant values enter as ring elements (computing the
level-r invariant of an arbitrary manifold is out of scope; known
values are supplied as constants).
"""

from __future__ import annotations

import math
from typing import Iterable

from . import links, moo
from .gauss import _require_level, quantum_int_laurent
from .rings import (
    CycloElem,
    CycloFraction,
    LaurentPoly,
    _divmod,
    _Record,
    _require_prime,
    ideal_gcd_poly,
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


class Witness(_Record):
    """Exponents substantiating a satisfied congruence: eps * A^s * G^alpha."""

    __slots__ = ("epsilon", "s", "alpha")
    epsilon: int
    s: int
    alpha: int


class ObstructionVerdict(_Record):
    __slots__ = ("satisfied", "witness", "context")
    satisfied: bool
    witness: Witness | None
    context: tuple[int, int]  # (r or N, p)


def _periodicity_generator(p: int) -> LaurentPoly:
    """[3]^p - [3] with the Frobenius A -> A^p for the p-th power (equal mod p)."""
    return quantum_int_laurent(3).subst_power(p) - quantum_int_laurent(3)


def _g_order(k: int, p: int) -> int:
    """The order of G_r = -A^-36 in F_p[A]/(Phi_k), k = 3r, gcd(p, k) = 1.

    A has order k there, so A^-36 has the odd order k/gcd(36, k); the
    sign doubles it unless p = 2.
    """
    odd = k // math.gcd(36, k)
    return odd if p == 2 else 2 * odd


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

    G_r = -A^-36 (Gauss: S1^2 S2^2 = -3r^2), so -G_r adds no candidate:
    -1 is a power of G_r mod p for odd p, and the signs agree for p = 2.
    A satisfied verdict carries (1, 0, alpha) with the smallest alpha.
    The ideal is generated by d = gcd(Phi_k, [3]^p - [3]) over F_p, which
    divides A^k - 1, so a step alpha -> alpha + 1 is a shift by -36 mod k,
    a sign and one division by d. alpha runs below the order of G_r mod p,
    2k/gcd(36, k) (k/gcd(36, k) at p = 2), where the candidates repeat.

    The test is vacuous unless p = +-1 mod r: elsewhere (p, [3]^p - [3])
    is the unit ideal at order k, d = 1, both sides vanish, and the
    verdict is satisfied with alpha = 0 whatever the values.
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
    d = ideal_gcd_poly(_periodicity_generator(p), p, k)
    _, target = _divmod(reduce_mod_p(vm, p).coeffs, d, p)
    _, cand = _divmod(reduce_mod_p(vmbar.galois(p), p).coeffs, d, p)
    shift = [0] * (-36 % k)
    for alpha in range(_g_order(k, p)):
        if cand == target:
            return ObstructionVerdict(True, Witness(1, 0, alpha), (r, p))
        _, cand = _divmod(shift + [-c for c in cand], d, p)
    return ObstructionVerdict(False, None, (r, p))


# ---------------------------------------------------------------------------
# branched cyclic covers


def check_cor_1_2(v: CycloFraction, r: int, p: int) -> ObstructionVerdict:
    """Is v = eps * A^s * G_r^alpha mod p?

    For p = +-1 mod r the periodicity ideal collapses to (p), so the
    congruence of the p-fold branched cover test reduces to membership
    of v mod p in this finite candidate set. Unsatisfied means: no knot
    has this manifold as its p-fold cyclic branched cover.

    G_r = -A^-36, so every candidate is some +-A^t and those at alpha = 0
    are already the whole set: the scan in (alpha, s, eps) order first
    hits at alpha = 0, and one lookup of +-v mod p decides it.
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
    # k = 3r and p are odd, so the 2k values +-A^s are distinct and a
    # lookup finds the only s
    s_of = {reduce_mod_p(x, p).coeffs: s for s, x in enumerate(powers_of_A_char0(r))}
    w = reduce_mod_p(v, p)
    for eps, x in ((1, w), (-1, -w)):
        s = s_of.get(x.coeffs)
        if s is not None:
            return ObstructionVerdict(True, Witness(eps, s, 0), (r, p))
    return ObstructionVerdict(False, None, (r, p))


# ---------------------------------------------------------------------------
# periodic links


def check_thm_4_1(lift: links.BraidWord, quotient: links.BraidWord, p: int) -> bool:
    """Does J(lift) = J(quotient)^p hold modulo (p, [3]^p - [3])?"""
    if p == 1:
        return True
    _require_prime(p)
    # the Frobenius A -> A^p stands in for the p-th power: equal mod p
    f = links.j_invariant(lift) - links.j_invariant(quotient).subst_power(p)
    return laurent_ideal_membership(f, _periodicity_generator(p), p)


# ---------------------------------------------------------------------------
# periodic rational homology spheres


def check_thm_5_1(
    matrix: links.LinkingMatrix | Iterable[Iterable[int]],
    matrix_bar: links.LinkingMatrix | Iterable[Iterable[int]],
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
    matrix, matrix_bar = links._as_matrix(matrix), links._as_matrix(matrix_bar)
    moo._require_odd(n)
    for b in (matrix, matrix_bar):
        if links.signature_counts(b).nullity != 0:
            raise ValueError("linking matrix must be nondegenerate")
    if p == 1:
        return ObstructionVerdict(True, Witness(1, 0, 0), (n, 1))
    _require_prime(p)
    if math.gcd(n, p) != 1:
        raise ValueError(f"need gcd({n}, {p}) = 1")
    z = moo.moo_fast(matrix, n)
    z_bar = moo.moo_fast(matrix_bar, n)
    z_p = reduce_mod_p(z.value, p)
    # the Frobenius A -> A^p stands in for the p-th power: equal mod p
    z_bar_pow = reduce_mod_p(z_bar.value.galois(p), p)
    for eps in (1, -1):
        if z_p == z_bar_pow * eps:
            return ObstructionVerdict(True, Witness(eps, 0, 0), (n, p))
    return ObstructionVerdict(False, None, (n, p))

