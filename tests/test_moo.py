"""Tests for the abelian surgery invariant."""

from __future__ import annotations

import cmath
import collections
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycloquant import moo as moo_module
from cycloquant.gauss import gauss_sum
from cycloquant.links import LinkingMatrix, SigTriple, signature_counts
from cycloquant.moo import MooValue, _assemble, bracket_sum, moo_fast, moo_invariant
from cycloquant.rings import (
    CycloElem,
    CycloFraction,
    LaurentPoly,
    ModCycloElem,
    OrderMismatchError,
    _phi_dense,
    _phi_reciprocal,
    prime_factors,
    reduce,
)
from oracles import _block_sum, _congruent, _float_invariant, _random_symmetric, _random_unimodular

ODD_LEVELS = (3, 5, 7, 9, 15)


# ---------------------------------------------------------------------------
# the value type


def test_moo_value_normalizes_half_powers():
    five = CycloFraction(CycloElem.one(5) * 25)
    v = MooValue(five, 4)
    assert v.half_power == 0
    assert v.value == CycloFraction(CycloElem.one(5))
    w = MooValue(five, 3)
    assert w.half_power == 1
    assert w.value == CycloFraction(CycloElem.one(5) * 5)


def test_moo_value_strings():
    assert str(moo_invariant([], 3)) == "1"
    assert str(moo_invariant([[2]], 3)) == "-1"
    assert str(moo_invariant([[0]], 5)) == "5 * 5^(-1/2)"


def test_moo_value_multiplication_folds():
    root = moo_invariant([[0]], 5)  # sqrt(5)
    assert root * root == MooValue(CycloFraction(CycloElem.one(5) * 5), 0)


def test_moo_value_equality_across_orders():
    # == across orders is False, as for the ring elements; * still raises
    v, w = moo_invariant([[0]], 5), moo_invariant([[0]], 3)
    for other in (w, w.value, w.value.num):
        assert not v == other and not other == v
        assert v != other and other != v
    with pytest.raises(OrderMismatchError):
        v * w


def test_equal_values_hash_equal():
    # an int equals the constant element, a fraction with den 1 its
    # numerator, a MooValue with half_power 0 its value; equal means equal hash
    f = CycloFraction(reduce(LaurentPoly({0: 1, 1: 2}), 5))
    assert len({MooValue(f), f, f.num}) == 1
    assert CycloElem.one(5) == 1 and ModCycloElem.one(5, 7) == 1
    assert LaurentPoly({0: 1}) == 1 and hash(LaurentPoly({0: 1})) == hash(1)
    pool: list = [-1, 0, 1, 2, 8, LaurentPoly(), LaurentPoly({0: 2}), LaurentPoly({0: 2, 3: 1})]
    for n in (5, 7):
        x = reduce(LaurentPoly({0: 2, 1: 1}), n)
        pool += [CycloElem.zero(n), CycloElem.one(n), CycloElem.one(n) * 2, x]
        pool += [CycloFraction.from_int(2, n), CycloFraction(x), CycloFraction(x, 3)]
        pool += [MooValue(CycloFraction.from_int(2, n)), MooValue(CycloFraction(x)),
                 MooValue(CycloFraction(x), 1)]
    for p in (7, 11):
        pool += [ModCycloElem.zero(5, p), ModCycloElem.one(5, p), ModCycloElem(5, p, (1, 1, 0, 0))]
    equal_pairs = 0
    for x in pool:
        for y in pool:
            if x != y:
                continue
            assert y == x, (x, y)
            equal_pairs += x is not y
            n, m = (x, y) if isinstance(x, int) else (y, x)
            if isinstance(n, int) and isinstance(m, ModCycloElem) and not 0 <= n < m.p:
                # mod p an int equals the constant of its whole residue
                # class; only the representative in [0, p) hashes alike
                assert (n, m) == (8, ModCycloElem.one(5, 7))
                continue
            assert hash(x) == hash(y), (x, y)
    assert equal_pairs == 2 * 29  # the pool's 29 equal pairs, each both ways


@st.composite
def ring_values(draw):
    # the five types on one small coefficient vector, so that values of
    # different types often agree
    order, p = draw(st.sampled_from((5, 7))), draw(st.sampled_from((3, 7)))
    den, half = draw(st.sampled_from((1, 2))), draw(st.sampled_from((0, 1)))
    c = (draw(st.integers(-2, 2)), draw(st.integers(0, 1))) + (0,) * (order - 3)
    num = CycloElem(order, c)
    frac, mod = CycloFraction(num, den), ModCycloElem(order, p, tuple(x % p for x in c))
    return [LaurentPoly({0: c[0], 1: c[1]}), num, frac, mod, MooValue(frac, half)]


@given(st.lists(ring_values(), min_size=1, max_size=4))
def test_ring_equality_is_an_equivalence(groups):
    # an int is the one bridge: it equals the constant of every ring, so
    # == through an int is not transitive, by design
    assert LaurentPoly({0: 2}) == 2 == CycloElem.one(5) * 2 != LaurentPoly({0: 2})
    pool = [x for group in groups for x in group]
    for x in pool:
        assert x == x
        for y in pool:
            assert (x == y) == (y == x)
            if x == y:
                assert hash(x) == hash(y)
                assert all((x == z) == (y == z) for z in pool)


# ---------------------------------------------------------------------------
# the defining sum


def test_bracket_examples():
    assert bracket_sum([], 5) == CycloElem.one(5)
    assert str(bracket_sum([[1]], 3)) == "1 + 2A"
    assert bracket_sum([[1]], 3) == gauss_sum(1, 3, 3)


def test_bracket_factorizes_over_blocks():
    rng = random.Random(211)
    for _ in range(20):
        n = rng.choice(ODD_LEVELS)
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        lhs = bracket_sum([[a, 0], [0, b]], n)
        assert lhs == bracket_sum([[a]], n) * bracket_sum([[b]], n)


# ---------------------------------------------------------------------------
# normalization examples


def test_moo_normalization_examples():
    for n in ODD_LEVELS:
        one = MooValue(CycloFraction(CycloElem.one(n)))
        assert moo_invariant([], n) == one
        assert moo_invariant([[1]], n) == one
        assert moo_invariant([[-1]], n) == one


def test_moo_lens_space_value():
    got = moo_invariant([[2]], 3)
    assert got == MooValue(CycloFraction(-CycloElem.one(3)))
    # float cross-check at A = exp(2 pi i / 3)
    w = cmath.exp(2j * cmath.pi / 3)
    bracket = sum(w ** ((2 * l * l) % 3) for l in range(3))
    g = sum(w ** (k * k % 3) for k in range(3))
    assert abs(got.to_complex() - bracket / g) < 1e-9


def _long_normalisation(bracket: CycloElem, b: LinkingMatrix, n: int) -> MooValue:
    # the normalisation as defined: bracket conj(G_N)^s+ G_N^s- / N^r, then N^(-b1/2)
    sig = signature_counts(b)
    g = gauss_sum(1, n, n)
    num = bracket * g.galois(-1) ** sig.sigma_plus * g**sig.sigma_minus
    return MooValue(CycloFraction(num, n ** (sig.sigma_plus + sig.sigma_minus)), sig.nullity)


def test_assemble_matches_long_normalisation(monkeypatch):
    # _assemble is linear in the bracket, so a random element stands in for it;
    # each form has a random inertia of rank 0-6 and nullity 0-2, hidden by a
    # unimodular congruence, at N = 1 and 3 mod 4 and with repeated primes
    rng = random.Random(257)
    cases = []
    for n in (3, 5, 7, 9, 15, 21, 25, 27, 45, 63, 75, 81, 105, 225, 315):
        for r in range(7):
            for nullity in range(3):
                s_plus = rng.randint(0, r)
                diag = [rng.randint(1, 4) for _ in range(s_plus)]
                diag += [-rng.randint(1, 4) for _ in range(r - s_plus)] + [0] * nullity
                rng.shuffle(diag)
                m = len(diag)
                d = [[diag[i] if i == j else 0 for j in range(m)] for i in range(m)]
                b = LinkingMatrix(_congruent(d, _random_unimodular(rng, m)))
                assert signature_counts(b) == SigTriple(s_plus, r - s_plus, nullity)
                terms = [(rng.randrange(n), rng.randint(-9, 9)) for _ in range(5)]
                bracket = reduce(LaurentPoly(terms), n)
                cases.append((bracket, b, n, _long_normalisation(bracket, b, n)))

    def forbidden(*args):
        raise AssertionError("_assemble takes no Galois conjugate and no power")

    products = []
    mul = CycloElem.__mul__

    def counted(self, other):
        if isinstance(other, CycloElem):
            products.append(1)
        return mul(self, other)

    monkeypatch.setattr(CycloElem, "galois", forbidden)
    monkeypatch.setattr(CycloElem, "__pow__", forbidden)
    monkeypatch.setattr(CycloElem, "__mul__", counted)
    for bracket, b, n, want in cases:
        products.clear()
        assert _assemble(bracket, b, n) == want, (b.rows(), n)
        assert len(products) <= 1


def test_moo_validation():
    for bad in (1, 2, 4, 6):
        with pytest.raises(ValueError):
            moo_invariant([[1]], bad)
    with pytest.raises(ValueError):
        moo_fast([[1]], 2)


# ---------------------------------------------------------------------------
# invariance properties


def test_moo_kirby_stabilization():
    rng = random.Random(223)
    for _ in range(30):
        n = rng.choice(ODD_LEVELS)
        b = _random_symmetric(rng)
        base = moo_invariant(b, n)
        for eps in (1, -1):
            assert moo_invariant(_block_sum(b, [[eps]]), n) == base


def test_moo_unimodular_congruence():
    rng = random.Random(227)
    for _ in range(30):
        n = rng.choice(ODD_LEVELS)
        b = _random_symmetric(rng)
        if not b:
            continue
        e = _random_unimodular(rng, len(b))
        assert moo_invariant(_congruent(b, e), n) == moo_invariant(b, n)


def test_moo_conjugation():
    rng = random.Random(229)
    for _ in range(20):
        n = rng.choice(ODD_LEVELS)
        b = _random_symmetric(rng)
        neg = [[-x for x in row] for row in b]
        assert moo_invariant(neg, n) == moo_invariant(b, n).galois(-1)


def test_moo_multiplicative_under_block_sum():
    rng = random.Random(233)
    for _ in range(20):
        n = rng.choice(ODD_LEVELS)
        b1 = _random_symmetric(rng, 2)
        b2 = _random_symmetric(rng, 2)
        lhs = moo_invariant(_block_sum(b1, b2), n)
        assert lhs == moo_invariant(b1, n) * moo_invariant(b2, n)


# ---------------------------------------------------------------------------
# fast path


def test_moo_fast_named_cases():
    assert moo_fast([[0, 1], [1, 0]], 5) == moo_invariant([[0, 1], [1, 0]], 5)
    assert moo_fast([[3, 0], [0, -2]], 15) == moo_invariant([[3, 0], [0, -2]], 15)


def test_moo_fast_fallback_blocks():
    # every entry divisible by p, p^2 or p^3: no unit pivot exists, and
    # the block is divided by p and eliminated again at the lower power
    for rows, n in (
        ([[3]], 9),
        ([[0, 3], [3, 0]], 9),
        ([[5]], 15),
        ([[3, 3], [3, 3]], 9),
        ([[9]], 27),
        ([[9, 0], [0, 18]], 27),
        ([[0, 9], [9, 0]], 81),
        ([[27]], 81),
        ([[27, 27], [27, 54]], 81),
        ([[3, 9], [9, 27]], 27),
        ([[25, 50], [50, 25]], 75),
        ([[0, 3, 0], [3, 0, 9], [0, 9, 0]], 27),
    ):
        assert moo_fast(rows, n) == moo_invariant(rows, n), (rows, n)
    anchor = [[3, 6, 0], [6, 9, 3], [0, 3, 6]]
    start = time.perf_counter()
    value = moo_fast(anchor, 81)
    assert time.perf_counter() - start < 0.01
    assert str(value) == "9"


def test_moo_fast_anchor_at_9009_is_fast():
    # the 3x3 anchor with Phi_9009 warm; its odd rank adds _assemble's
    # product by G_N to the four primes' reductions
    _phi_dense(9009), _phi_reciprocal(9009)
    value, seconds = _best_of(2, moo_fast, [[2, 1, 0], [1, 3, 1], [0, 1, 4]], 9009)
    assert seconds < 0.5
    assert str(value) == "3"


def _tridiagonal(m: int, d: int) -> list[list[int]]:
    return [[d if i == j else int(abs(i - j) == 1) for j in range(m)] for i in range(m)]


def _best_of(runs: int, f, *args):
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        value = f(*args)
        times.append(time.perf_counter() - start)
    return value, min(times)


@pytest.mark.parametrize(
    "rows, n, want, bound",
    [
        (_tridiagonal(4, 2), 9009, "1", 0.15),
        # 40 pivots per prime, the 509 sums multiplied packed in Z[B]/(B^509 - 1)
        (_tridiagonal(40, 2), 30031, None, 1.2),
        # q = 3481: with the schoolbook cyclic product alone it took about 3 s
        # (Python 3.11, 2-core x86-64)
        (_tridiagonal(6, 3), 59 * 59 * 7, None, 0.35),
    ],
    ids=["4x4-9009", "40-row-30031", "6x6-24367"],
)
def test_moo_fast_large_orders_are_fast(rows, n, want, bound):
    # with Phi_N and its reciprocal warm, each prime's sums are multiplied
    # in a small cyclic ring and reduced mod Phi_N once
    _phi_dense(n), _phi_reciprocal(n)
    value, seconds = _best_of(2, moo_fast, rows, n)
    assert seconds < bound
    if want is not None:
        assert str(value) == want


def test_bracket_fast_reduces_once_per_prime(monkeypatch):
    # no Gauss sum and no ring product inside the pivot loop: one reduce
    # and at most one ring product per prime power of N
    counts = collections.Counter()
    mul, red = CycloElem.__mul__, moo_module.reduce

    def counted_mul(self, other):
        counts["mul" if isinstance(other, CycloElem) else "scale"] += 1
        return mul(self, other)

    def counted_reduce(poly, order):
        counts["reduce"] += 1
        return red(poly, order)

    monkeypatch.setattr(CycloElem, "__mul__", counted_mul)
    monkeypatch.setattr(moo_module, "reduce", counted_reduce)
    monkeypatch.setattr(moo_module, "gauss_sum", None)
    moo_module._bracket_fast(LinkingMatrix(_tridiagonal(12, 2)), 9009)  # 3^2 * 7 * 11 * 13
    assert counts["reduce"] == 4 and counts["mul"] <= 4


def test_moo_fast_residual_sweep():
    # every entry = 0 mod p or p^2 for a prime p dividing N, so the
    # residual block is the whole form at the first step
    rng = random.Random(251)
    for _ in range(200):
        n = rng.choice((9, 15, 21, 25, 27, 45, 49, 63, 75, 81))
        p = rng.choice([q for q in (3, 5, 7) if n % q == 0])
        m = rng.randint(1, 3 if n <= 27 else 2)
        rows = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                rows[i][j] = rows[j][i] = rng.randint(-4, 4) * p ** rng.randint(1, 2)
        assert moo_fast(rows, n) == moo_invariant(rows, n), (rows, n)


@st.composite
def prime_power_forms(draw):
    # odd N with a prime square or cube, small enough to enumerate; a third
    # of the forms are scaled by p or p^2 for a prime p of N, so that the
    # elimination meets residual levels
    n = draw(st.sampled_from((9, 25, 27, 45, 49, 63, 75, 99, 125, 147, 175, 189, 225, 343)))
    m = draw(st.integers(1, max(k for k in (1, 2, 3) if n**k <= 20_000)))
    entries = iter(draw(st.lists(st.integers(-6, 6), min_size=m * m, max_size=m * m)))
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = next(entries)
    if draw(st.integers(0, 2)) == 0:
        scale = draw(st.sampled_from(sorted(prime_factors(n)))) ** draw(st.integers(1, 2))
        rows = [[scale * x for x in row] for row in rows]
    return rows, n


@given(prime_power_forms())
def test_moo_fast_matches_enumeration_at_prime_powers(case):
    rows, n = case
    assert moo_fast(rows, n) == moo_invariant(rows, n)


def test_moo_fast_matches_brute_force():
    rng = random.Random(239)
    for _ in range(40):
        n = rng.choice(ODD_LEVELS)
        b = _random_symmetric(rng)
        assert moo_fast(b, n) == moo_invariant(b, n)


# ---------------------------------------------------------------------------
# float oracle


def test_moo_float_oracle():
    # up to 4 rows at N <= 7, so bracket_sum's loop over the last
    # coordinate runs under zero to three levels of recursion
    rng = random.Random(241)
    for _ in range(40):
        n = rng.choice(ODD_LEVELS)
        b = _random_symmetric(rng, 4 if n <= 7 else 3)
        exact = moo_invariant(b, n).to_complex()
        assert abs(exact - _float_invariant(b, n)) < 1e-9
