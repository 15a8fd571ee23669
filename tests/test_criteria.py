"""Obstruction-test suites: power lists, congruences, verdicts."""

from __future__ import annotations

import random
import time

import pytest

from cycloquant.criteria import (
    LENS_SPACE_2_1_LEVEL_5,
    ObstructionVerdict,
    Witness,
    _g_order,
    _periodicity_generator,
    check_cor_1_2,
    check_thm_1_1,
    check_thm_4_1,
    check_thm_5_1,
    powers_of_A_char0,
)
from cycloquant.gauss import g_r, quantum_int_laurent
from cycloquant.links import (
    BraidWord,
    FramedBraidLink,
    LinkingMatrix,
    j_invariant,
    linking_matrix,
    periodic_lift,
    signature_counts,
    strong_periodicity_check,
)
from cycloquant.moo import moo_fast, moo_invariant
from cycloquant.rings import (
    CycloElem,
    CycloFraction,
    cyclotomic_poly,
    ideal_gcd_poly,
    LaurentPoly,
    ideal_membership_cyclo,
    laurent_ideal_membership,
    parse_laurent,
    reduce,
    reduce_mod_p,
)
from oracles import REDUCED_POWERS_LEVEL_5

GOOD_PAIRS = ((5, 11), (5, 19), (5, 29), (5, 31), (7, 13))
# levels divisible by 3, where G_r has order 2r/3
LEVELS_DIVISIBLE_BY_3 = ((9, 17), (15, 29), (21, 43))


def _one(k: int) -> CycloFraction:
    return CycloFraction(CycloElem.one(k))


def _a_power(k: int, s: int) -> CycloFraction:
    return CycloFraction(CycloElem.a_power(k, s))


# ---------------------------------------------------------------------------
# the power list


def test_powers_of_A_level_5_golden():
    got = powers_of_A_char0(5)
    assert len(got) == 15
    expected = {reduce(parse_laurent(s), 15) for s in REDUCED_POWERS_LEVEL_5}
    assert set(got) == expected
    assert len(set(got)) == 15
    assert str(got[8]) == "-1 + A - A^3 + A^4 - A^5 + A^7"


def test_powers_of_A_level_7():
    got = powers_of_A_char0(7)
    assert len(got) == 21 and len(set(got)) == 21
    with pytest.raises(ValueError):
        powers_of_A_char0(4)


def test_g_r_is_a_signed_power_of_A():
    # Gauss's evaluation S1^2 S2^2 = -3r^2 makes G_r = -A^-36 exactly;
    # the criteria read this closed form, g_r stays the definition
    for r in range(5, 62, 2):
        k = 3 * r
        got = g_r(r)
        assert got.value == -_a_power(k, -36 % k), r
        assert got.epsilon == -1, r


def test_g_order_is_the_order_of_g_r():
    # the closed-form order against a walk over the powers of G_r mod p
    for r in range(5, 24, 2):
        for p in (2, 7, 13):
            k = 3 * r
            if k % p == 0:
                continue
            g = reduce_mod_p(g_r(r).value, p)
            one, cur, order = g**0, g, 1
            while cur != one:
                cur, order = cur * g, order + 1
            assert _g_order(k, p) == order, (r, p)
            # -1 is a power of G_r, so -G_r adds no candidate
            assert p == 2 or g ** (order // 2) == -one, (r, p)


# ---------------------------------------------------------------------------
# the collapsing ideal


def test_ideal_gcd_is_full_cyclotomic_for_good_primes():
    # for p = +-1 mod r the periodicity ideal collapses: the gcd with
    # [3]^p - [3] is the whole cyclotomic polynomial mod p
    for r, p in GOOD_PAIRS:
        k = 3 * r
        g = quantum_int_laurent(3) ** p - quantum_int_laurent(3)
        dense = [0] * (max(e for e, _ in cyclotomic_poly(k).terms()) + 1)
        for e, c in cyclotomic_poly(k).terms():
            dense[e] = c % p
        assert list(ideal_gcd_poly(g, p, k)) == dense


def test_periodicity_ideal_is_the_unit_ideal_unless_p_is_pm1_mod_r():
    # (p, [3]^p - [3]) is proper at order 3r exactly when p = +-1 mod r;
    # elsewhere check_thm_1_1 is vacuous and answers satisfied, alpha = 0
    proper = 0
    for r in range(5, 24, 2):
        for p in range(2, 200):
            if any(p % q == 0 for q in range(2, p)) or 3 * r % p == 0:
                continue
            d = ideal_gcd_poly(_periodicity_generator(p), p, 3 * r)
            assert (len(d) > 1) == (p % r in (1, r - 1)), (r, p, d)
            proper += len(d) > 1
    assert proper > 0


# ---------------------------------------------------------------------------
# the level-r congruence


def test_thm_1_1_examples():
    one = _one(15)
    v = check_thm_1_1(one, one, 5, 11)
    assert v.satisfied and v.witness == Witness(1, 0, 0)
    assert v.context == (5, 11)

    g5 = g_r(5).value
    v = check_thm_1_1(g5, one, 5, 11)
    assert v.satisfied and v.witness.alpha == 1

    bumped = one + CycloFraction(CycloElem.a_power(15, 2) * 11)
    assert check_thm_1_1(bumped, one, 5, 11).satisfied


def test_thm_1_1_witness_substitutes_back():
    rng = random.Random(307)
    for r, p in ((5, 11), (7, 13)):
        k = 3 * r
        g_poly = quantum_int_laurent(3) ** p - quantum_int_laurent(3)
        vmbar = _a_power(k, rng.randrange(k))
        vm = vmbar**p * g_r(r).value ** rng.randrange(1, 4)
        verdict = check_thm_1_1(vm, vmbar, r, p)
        assert verdict.satisfied
        w = verdict.witness
        cand = reduce_mod_p(vmbar, p) ** p
        base = reduce_mod_p(g_r(r).value, p) * w.epsilon
        for _ in range(w.alpha):
            cand = cand * base
        diff = reduce_mod_p(vm, p) - cand
        assert ideal_membership_cyclo(diff, g_poly, p, k)


def test_thm_1_1_validation():
    one = _one(15)
    with pytest.raises(ValueError):
        check_thm_1_1(one, one, 5, 5)  # divides 3r
    with pytest.raises(ValueError):
        check_thm_1_1(one, one, 5, 9)  # not prime
    with pytest.raises(ValueError):
        check_thm_1_1(_one(9), _one(9), 5, 11)  # wrong ring


# ---------------------------------------------------------------------------
# the branched-cover test


def test_cor_1_2_examples():
    v = check_cor_1_2(_one(15), 5, 11)
    assert v.satisfied and v.witness == Witness(1, 0, 0)

    v = check_cor_1_2(_a_power(15, 3) * g_r(5).value, 5, 11)
    assert v.satisfied

    for p in (11, 19, 29, 31):
        assert not check_cor_1_2(LENS_SPACE_2_1_LEVEL_5, 5, p).satisfied


def test_cor_1_2_witness_substitutes_back():
    rng = random.Random(311)
    for r, p in ((5, 11), (5, 19), (7, 13)):
        k = 3 * r
        v = (
            _a_power(k, rng.randrange(k))
            * g_r(r).value ** rng.randrange(3)
            * rng.choice([1, -1])
        )
        verdict = check_cor_1_2(v, r, p)
        assert verdict.satisfied
        w = verdict.witness
        cand = reduce_mod_p(
            _a_power(k, w.s) * g_r(r).value ** w.alpha * w.epsilon, p
        )
        assert reduce_mod_p(v, p) == cand


def test_cor_1_2_matches_full_scan():
    # the candidate scan in its defining (alpha, s, epsilon) order
    def full_scan(v, r, p):
        k = 3 * r
        v_p = reduce_mod_p(v, p)
        g = reduce_mod_p(g_r(r).value, p)
        g_pow, seen = g ** 0, set()
        for alpha in range(k * p):
            if g_pow.coeffs in seen:
                break
            seen.add(g_pow.coeffs)
            for s in range(k):
                for eps in (1, -1):
                    if v_p == reduce_mod_p(_a_power(k, s), p) * g_pow * eps:
                        return ObstructionVerdict(True, Witness(eps, s, alpha), (r, p))
            g_pow = g_pow * g
        return ObstructionVerdict(False, None, (r, p))

    rng = random.Random(317)
    for r, p in ((5, 11), (5, 19), (7, 13)) + LEVELS_DIVISIBLE_BY_3:
        k = 3 * r
        for _ in range(3):
            planted = (
                _a_power(k, rng.randrange(k))
                * g_r(r).value ** rng.randrange(4)
                * rng.choice([1, -1])
            )
            noise = CycloFraction(
                reduce(parse_laurent(f"{rng.randint(-3, 3)} + A^{rng.randrange(k)}"), k)
            )
            for v in (planted, noise):
                assert check_cor_1_2(v, r, p) == full_scan(v, r, p)


def test_cor_1_2_validation():
    with pytest.raises(ValueError):
        check_cor_1_2(_one(15), 5, 3)
    with pytest.raises(ValueError):
        check_cor_1_2(_one(15), 5, 7)  # 7 is not +-1 mod 5
    with pytest.raises(ValueError):
        check_cor_1_2(_one(15), 5, 33)  # not prime


def test_thm_1_1_satisfied_implies_cor_1_2():
    # the periodicity check's candidate set (vmbar = 1) sits inside
    # the cover check's: agreement holds in one direction only
    rng = random.Random(313)
    samples = []
    for r, p in GOOD_PAIRS:
        k = 3 * r
        samples.append((g_r(r).value ** rng.randrange(4), r, p))
        samples.append((_a_power(k, rng.randrange(k)), r, p))
        if r == 5:
            samples.append((LENS_SPACE_2_1_LEVEL_5, r, p))
    for v, r, p in samples:
        if check_thm_1_1(v, _one(3 * r), r, p).satisfied:
            assert check_cor_1_2(v, r, p).satisfied


def test_cor_1_2_is_strictly_weaker_at_A():
    # A itself is a legal branched-cover value (s = 1) but not of the
    # form G^alpha, pinning the one-directional containment
    a = _a_power(15, 1)
    assert check_cor_1_2(a, 5, 11).satisfied
    assert not check_thm_1_1(a, _one(15), 5, 11).satisfied


# ---------------------------------------------------------------------------
# periodic links


def test_thm_4_1_examples():
    assert check_thm_4_1(BraidWord(2, (1, 1, 1)), BraidWord(2, (1,)), 3)
    assert check_thm_4_1(BraidWord(2, (1, 1, 1, 1, 1)), BraidWord(2, (1,)), 5)
    q = BraidWord(3, (1, -2))
    assert check_thm_4_1(q, q, 1)


def test_thm_4_1_torus_family():
    for k in (1, 2):
        for p in (2, 3, 5):
            lift = BraidWord(2, (1,) * (k * p))
            quotient = BraidWord(2, (1,) * k)
            assert check_thm_4_1(lift, quotient, p), (k, p)


def test_thm_4_1_detects_non_lifts():
    # the unknot is not the 3-fold lift of the Hopf link
    assert not check_thm_4_1(BraidWord(2, (1,)), BraidWord(2, (1, 1)), 3)


def test_thm_4_1_long_lift():
    # a 3-strand, 8-letter quotient lifted at p = 31: 248 crossings
    quotient = BraidWord(3, (1, -2, 1, 2, -1, 2, 1, -2))
    start = time.perf_counter()
    assert check_thm_4_1(periodic_lift(quotient, 31), quotient, 31)
    assert time.perf_counter() - start < 2.0


def _random_braid(rng: random.Random, strands: int, length: int) -> BraidWord:
    letters = [g for g in range(1 - strands, strands) if g]
    return BraidWord(strands, tuple(rng.choice(letters) for _ in range(length) if letters))


def test_thm_4_1_matches_literal_power():
    # the congruence read with the literal p-th powers of J(quotient) and [3]
    rng = random.Random(337)
    for _ in range(40):
        p = rng.choice((2, 3, 5, 7))
        quotient = _random_braid(rng, rng.randint(1, 3), rng.randint(0, 5))
        if rng.random() < 0.5:
            lift = periodic_lift(quotient, p)
        else:
            lift = _random_braid(rng, quotient.strands, rng.randint(0, 8))
        f = j_invariant(lift) - j_invariant(quotient) ** p
        g_poly = quantum_int_laurent(3) ** p - quantum_int_laurent(3)
        assert check_thm_4_1(lift, quotient, p) == laurent_ideal_membership(f, g_poly, p)


def _thm_1_1_literal(vm, vmbar, r, p):
    # the congruence read with the literal p-th powers of vmbar and [3],
    # scanning each candidate power of +-G_r until it repeats
    g_poly = quantum_int_laurent(3) ** p - quantum_int_laurent(3)
    vm_p = reduce_mod_p(vm, p)
    vmbar_pow = reduce_mod_p(vmbar, p) ** p
    for eps in (1, -1):
        base = reduce_mod_p(g_r(r).value, p) * eps
        cur, seen = base**0, set()
        while cur.coeffs not in seen:
            if ideal_membership_cyclo(vm_p - vmbar_pow * cur, g_poly, p, 3 * r):
                return ObstructionVerdict(True, Witness(eps, 0, len(seen)), (r, p))
            seen.add(cur.coeffs)
            cur = cur * base
    return ObstructionVerdict(False, None, (r, p))


def _thm_1_1_value(rng, k, dens=(1, 1, 2)):
    terms = {rng.randrange(k): rng.randint(-3, 3) for _ in range(4)}
    return CycloFraction(reduce(LaurentPoly(terms), k), rng.choice(dens))


def test_thm_1_1_matches_literal_power():
    rng = random.Random(347)
    for r, p in GOOD_PAIRS + ((5, 7), (7, 11)) + LEVELS_DIVISIBLE_BY_3:
        k = 3 * r
        for _ in range(3):
            vmbar = _thm_1_1_value(rng, k)
            planted = vmbar**p * g_r(r).value ** rng.randrange(4)
            for vm in (planted, _thm_1_1_value(rng, k)):
                assert check_thm_1_1(vm, vmbar, r, p) == _thm_1_1_literal(vm, vmbar, r, p)


def test_thm_1_1_reaches_the_last_power():
    # for p = +-1 mod r the ideal is (p), where G_r keeps its full order,
    # so vmbar^p * G_r^-1 is first matched at the last alpha of the walk
    for r, p in GOOD_PAIRS + LEVELS_DIVISIBLE_BY_3:
        k = 3 * r
        last = _g_order(k, p) - 1
        vmbar = _a_power(k, 1)
        vm = vmbar**p * g_r(r).value ** last
        verdict = check_thm_1_1(vm, vmbar, r, p)
        assert verdict == _thm_1_1_literal(vm, vmbar, r, p)
        assert verdict.witness == Witness(1, 0, last), (r, p)


def test_thm_1_1_at_p_2():
    # gcd(2, 3r) = 1, so p = 2 is admitted; there the two signs of G_r
    # coincide (the ideal is the unit ideal, as 2 is not +-1 mod r)
    rng = random.Random(349)
    for r in (5, 7, 9, 11, 15):
        k = 3 * r
        for _ in range(2):
            vmbar = _thm_1_1_value(rng, k, dens=(1, 3))
            planted = vmbar**2 * g_r(r).value ** rng.randrange(4)
            for vm in (planted, _thm_1_1_value(rng, k, dens=(1, 3))):
                assert check_thm_1_1(vm, vmbar, r, 2) == _thm_1_1_literal(vm, vmbar, r, 2)


# ---------------------------------------------------------------------------
# periodic rational homology spheres


def test_thm_5_1_examples():
    v = check_thm_5_1([], [], 3, 5)
    assert v.satisfied and v.witness.epsilon == 1

    for p in (3, 5):
        for f in (1, -2):
            for n in (5, 7):
                if n % p == 0:
                    continue
                b = [[f if i == j else 0 for j in range(p)] for i in range(p)]
                assert check_thm_5_1(b, [[f]], p, n).satisfied, (p, f, n)


def test_thm_5_1_reflexive():
    rng = random.Random(331)
    for _ in range(5):
        f = rng.choice([-3, -2, -1, 1, 2, 3])
        b = [[f, 1], [1, f * 2 + 1]]
        v = check_thm_5_1(b, b, 1, rng.choice([5, 7, 9]))
        assert v.satisfied


def test_thm_5_1_negative_case():
    v = check_thm_5_1([[2]], [[3]], 5, 9)
    assert not v.satisfied and v.witness is None
    assert v.context == (9, 5)


def _thm_5_1_literal(z, z_bar, p, n):
    # the congruence read with the literal p-th power of Z_N(Bbar) mod p
    z_p = reduce_mod_p(z.value, p)
    z_bar_pow = reduce_mod_p(z_bar.value, p) ** p
    signs = [eps for eps in (1, -1) if z_p == z_bar_pow * eps]
    return ObstructionVerdict(
        bool(signs), Witness(signs[0], 0, 0) if signs else None, (n, p)
    )


def test_thm_5_1_dual_path_oracle():
    # the verdict from the brute-force moo_invariant, computed here; the
    # fast switch is a no-op
    for b, bbar, p, n in (
        ([[1]], [[2]], 3, 5),
        ([[2]], [[3]], 5, 9),
        ([[2, 1], [1, 2]], [[1]], 3, 7),
        ([[3, 0], [0, 6]], [[3]], 2, 9),
        ([[1, 0], [0, 1]], [[1]], 2, 15),
    ):
        want = _thm_5_1_literal(moo_invariant(b, n), moo_invariant(bbar, n), p, n)
        assert check_thm_5_1(b, bbar, p, n) == want
        assert check_thm_5_1(b, bbar, p, n, fast=False) == want
        assert check_thm_5_1(b, bbar, p, n, fast=True) == want


def _periodic_pair(rng, p, size):
    # B = P^T (Bbar + ... + Bbar) P: p diagonal copies, P unimodular
    bbar = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            bbar[i][j] = bbar[j][i] = rng.randint(-3, 3)
        bbar[i][i] = rng.choice((-3, -2, -1, 1, 2, 3))
    m = p * size
    block = [[0] * m for _ in range(m)]
    for c in range(p):
        for i in range(size):
            for j in range(size):
                block[c * size + i][c * size + j] = bbar[i][j]
    basis = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(m):
        i, j = rng.sample(range(m), 2)
        basis[i] = [x + y for x, y in zip(basis[i], basis[j])]
    rows = [[sum(basis[a][i] * block[a][b] * basis[b][j] for a in range(m) for b in range(m))
             for j in range(m)] for i in range(m)]
    return rows, bbar


def test_thm_5_1_matches_literal_power():
    # the Frobenius A -> A^p against the literal p-th power, on periodic
    # pairs and on some non-periodic controls
    rng = random.Random(353)
    checked = 0
    while checked < 40:
        p = rng.choice((2, 3, 5, 7))
        n = rng.choice([n for n in (5, 7, 9, 11, 15, 21, 25) if n % p])
        b, bbar = _periodic_pair(rng, p, rng.randint(1, 2))
        if signature_counts(LinkingMatrix(bbar)).nullity:
            continue
        if rng.random() < 0.3:
            b = [[rng.choice((-2, -1, 1, 2))]]
        want = _thm_5_1_literal(moo_fast(b, n), moo_fast(bbar, n), p, n)
        assert check_thm_5_1(b, bbar, p, n) == want, (b, bbar, p, n)
        checked += 1


def test_thm_5_1_holds_on_strongly_periodic_lifts():
    # true pairs: a quotient whose components each run over p^2 strands
    # (a chain sigma_1 ... sigma_{p^2 - 1} per component, with random
    # sigma_i^+-2 inserted, which keep the permutation) has a strongly
    # periodic p-fold lift, framed by strong_periodicity_check
    rng = random.Random(4051)
    checked = 0
    for _ in range(40):
        p = rng.choice((3, 5))
        blocks = rng.choice((1, 2)) if p == 3 else 1
        k = p * p
        word = [block * k + i for block in range(blocks) for i in range(1, k)]
        for _ in range(rng.randint(1, 4)):
            letter = rng.choice((1, -1)) * rng.randint(1, blocks * k - 1)
            at = rng.randint(0, len(word))
            word[at:at] = [letter, letter]
        b = BraidWord(blocks * k, word)
        framings = [rng.randint(-3, 3) for _ in range(blocks)]
        result = strong_periodicity_check(b, p, framings)
        assert result.satisfied
        lift = linking_matrix(result.lift)
        quotient = linking_matrix(FramedBraidLink(b, framings))
        if signature_counts(lift).nullity or signature_counts(quotient).nullity:
            continue
        for n in (5, 7, 11, 13, 25, 35):
            if n % p:
                assert check_thm_5_1(lift, quotient, p, n).satisfied, (word, framings, p, n)
                checked += 1
    assert checked >= 100


def test_thm_5_1_validation():
    with pytest.raises(ValueError):
        check_thm_5_1([[0]], [[1]], 3, 5)  # degenerate
    with pytest.raises(ValueError):
        check_thm_5_1([[1]], [[1]], 3, 9)  # gcd(N, p) > 1
    with pytest.raises(ValueError):
        check_thm_5_1([[1]], [[1]], 3, 4)  # even N
