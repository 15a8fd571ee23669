"""Acceptance gate: one test per headline capability.

Each test prints a single "criterion N: PASS" line when its assertions
hold, so a verbose run reads as a checklist. Golden values are frozen
byte-exact; numerical comparisons pin their tolerance inline; every
randomized sweep uses a fixed seed.
"""

import random
import time

import pytest

from cycloquant import (
    LENS_SPACE_2_1_LEVEL_5,
    BraidWord,
    CycloElem,
    CycloFraction,
    MooValue,
    check_cor_1_2,
    check_thm_4_1,
    check_thm_5_1,
    cyclotomic_poly,
    g_r,
    j_invariant,
    moo_fast,
    moo_invariant,
    parse_laurent,
    powers_of_A_char0,
    quantum_int,
    reduce,
    reduce_mod_p,
    s1,
    s2,
)
from oracles import _block_sum, _congruent, _float_invariant, _random_braid, _random_symmetric
from oracles import REDUCED_POWERS_LEVEL_5, _random_unimodular, j_skein

ODD_LEVELS = (3, 5, 7, 9, 15)


def _report(n: int, text: str) -> None:
    print(f"criterion {n}: PASS ({text})")


# ---------------------------------------------------------------------------
# exact ring arithmetic


def test_criterion_01_phi_15_golden():
    assert str(cyclotomic_poly(15)) == "1 - A + A^3 - A^4 + A^5 - A^7 + A^8"
    _report(1, "Phi_15 matches the golden string byte-exactly")


def test_criterion_02_reduced_power_table():
    powers = powers_of_A_char0(5)
    assert len(powers) == 15
    assert {str(x) for x in powers} == set(REDUCED_POWERS_LEVEL_5)
    # the table is also in order: entry s is the reduction of A^s
    assert [str(x) for x in powers] == list(REDUCED_POWERS_LEVEL_5)
    _report(2, "the 15 reduced powers of A at level 5 match the frozen table")


def test_criterion_03_g_r_unit():
    res = g_r(5)
    minus_a_36 = CycloFraction(-reduce(parse_laurent("A^-36"), 15))
    assert res.epsilon in (1, -1)
    assert res.epsilon == -1
    assert res.value == minus_a_36
    for r in (5, 7):
        val = g_r(r).value
        assert val * val.galois(-1) == 1
    _report(3, "G_5 = -A^-36 with epsilon = -1 recorded; |G_r| = 1 for r in {5,7}")


def test_criterion_04_gauss_magnitudes():
    for r in (5, 7, 9, 11):
        one = CycloElem.one(3 * r)
        assert s1(r) * s1(r).galois(-1) == one * r
        assert s2(r) * s2(r).galois(-1) == one * (3 * r)
    _report(4, "S1 and S2 magnitudes are r and 3r exactly for r in {5,7,9,11}")


def test_criterion_05_frobenius_on_quantum_three():
    for r, p in ((5, 11), (5, 19), (5, 29), (5, 31), (7, 13)):
        three = reduce_mod_p(quantum_int(3, 3 * r), p)
        assert three**p == three
    _report(5, "[3]^p = [3] mod p in the level-r quotient for all five pairs")


# ---------------------------------------------------------------------------
# the branched-cover obstruction headline


def test_criterion_06_lens_space_obstruction():
    start = time.perf_counter()
    for p in (11, 19, 29, 31):
        verdict = check_cor_1_2(LENS_SPACE_2_1_LEVEL_5, 5, p)
        assert not verdict.satisfied
        assert verdict.witness is None
        print(f"L(2,1) is not the {p}-fold cyclic branched cover")
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(6, f"all four primes obstructed in {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# the surgery invariant


def test_criterion_07_moo_normalization():
    for n in ODD_LEVELS:
        one = MooValue(CycloFraction(CycloElem.one(n)))
        assert moo_invariant([], n) == one
        assert moo_invariant([[1]], n) == one
        assert moo_invariant([[-1]], n) == one
    _report(7, "Z_N(empty) = Z_N([[1]]) = Z_N([[-1]]) = 1 for N in {3,5,7,9,15}")


def test_criterion_08_kirby_invariance():
    rng = random.Random(20260817)
    for _ in range(100):
        n = rng.choice(ODD_LEVELS)
        b = _random_symmetric(rng)
        base = moo_invariant(b, n)
        eps = rng.choice((1, -1))
        assert moo_invariant(_block_sum(b, [[eps]]), n) == base
    for _ in range(100):
        n = rng.choice(ODD_LEVELS)
        b = _random_symmetric(rng)
        if not b:
            b = [[rng.randint(-5, 5)]]
        e = _random_unimodular(rng, len(b))
        assert moo_invariant(_congruent(b, e), n) == moo_invariant(b, n)
    _report(8, "100 random stabilizations and 100 unimodular congruences exact")


def test_criterion_09_fast_path_agreement():
    rng = random.Random(90917)
    for _ in range(200):
        n = rng.choice(ODD_LEVELS)
        b = _random_symmetric(rng)
        assert moo_fast(b, n) == moo_invariant(b, n)
    _report(9, "moo_fast equals moo_invariant on 200 random matrices")


def test_criterion_10_float_oracle():
    rng = random.Random(101317)
    checked = 0
    for _ in range(40):
        n = rng.choice(ODD_LEVELS)
        b = _random_symmetric(rng)
        exact = moo_invariant(b, n).to_complex()
        assert abs(exact - _float_invariant(b, n)) < 1e-9
        checked += 1
    assert checked == 40
    _report(10, "ring-valued Z_N matches the complex-double sum within 1e-9")


# ---------------------------------------------------------------------------
# the braid-closure invariant


def test_criterion_11_j_invariant():
    unknot = j_invariant(BraidWord(1))
    assert str(unknot) == "A^-6 + 1 + A^6"
    assert unknot == parse_laurent("A^-6 + 1 + A^6")

    # the skein oracle gives one value under every resolution order, and
    # the Hecke evaluation matches it
    rng = random.Random(111921)
    fixed = BraidWord(3, (1, 1, 2, -1, 2, 1))
    reference = j_skein(fixed)
    assert j_invariant(fixed) == reference
    for _ in range(50):
        seed = rng.randrange(2**32)
        assert j_skein(fixed, traversal_seed=seed) == reference

    for _ in range(30):
        b = _random_braid(rng, max_strands=4, max_len=8)
        value = j_invariant(b)
        assert value == j_skein(b)
        assert j_invariant(b.mirror()) == value.conjugate()
    _report(
        11,
        "unknot golden, 50 resolution orders agree, 30 mirror pairs agree, "
        "Hecke evaluation matches the skein oracle",
    )


# ---------------------------------------------------------------------------
# periodicity congruences


def test_criterion_12_torus_congruence():
    start = time.perf_counter()
    for k in (1, 2):
        quotient = BraidWord(2, (1,) * k)
        for p in (2, 3, 5):
            lift = BraidWord(2, (1,) * (k * p))
            assert check_thm_4_1(lift, quotient, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(12, f"J congruence holds for all six (k, p) pairs in {elapsed:.2f}s (< 10s)")


def test_criterion_13_periodic_sphere_congruence():
    checked = 0
    for p in (3, 5):
        for f in (1, -1, 2, -2):
            for n in (5, 7, 9):
                if n % p == 0:
                    continue
                big = [[f if i == j else 0 for j in range(p)] for i in range(p)]
                verdict = check_thm_5_1(big, [[f]], p, n)
                assert verdict.satisfied
                checked += 1
    assert checked == 16
    _report(13, "Z_N congruence holds for all 16 diagonal periodic pairs")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
