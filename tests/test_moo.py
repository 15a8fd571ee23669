"""Tests for the abelian surgery invariant."""

from __future__ import annotations

import cmath
import itertools
import random
import time

import pytest

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
    reduce,
)

ODD_LEVELS = (3, 5, 7, 9, 15)


def _random_symmetric(rng: random.Random, max_size: int = 3) -> list[list[int]]:
    m = rng.randint(0, max_size)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = rng.randint(-5, 5)
    return rows


def _block_sum(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    ma, mb = len(a), len(b)
    out = [[0] * (ma + mb) for _ in range(ma + mb)]
    for i in range(ma):
        out[i][: ma] = a[i]
    for i in range(mb):
        for j in range(mb):
            out[ma + i][ma + j] = b[i][j]
    return out


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
                b = LinkingMatrix.from_rows(_congruent(d, _random_unimodular(rng, m)))
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


def _random_unimodular(rng: random.Random, m: int) -> list[list[int]]:
    e = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for _ in range(rng.randint(1, 5) if m >= 2 else 0):
        i, j = rng.sample(range(m), 2)
        c = rng.randint(-2, 2)
        for col in range(m):
            e[j][col] += c * e[i][col]
    return e


def _congruent(b: list[list[int]], e: list[list[int]]) -> list[list[int]]:
    m = len(b)
    be = [[sum(b[i][k] * e[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    return [[sum(e[k][i] * be[k][j] for k in range(m)) for j in range(m)] for i in range(m)]


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
    # the 3x3 anchor with Phi_9009 warm; a kernel forced onto the schoolbook
    # product and long division (about 5 s here) gives the same value
    _phi_dense(9009)
    start = time.perf_counter()
    value = moo_fast([[2, 1, 0], [1, 3, 1], [0, 1, 4]], 9009)
    assert time.perf_counter() - start < 1.0
    assert str(value) == "3"


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


def test_moo_fast_matches_brute_force():
    rng = random.Random(239)
    for _ in range(40):
        n = rng.choice(ODD_LEVELS)
        b = _random_symmetric(rng)
        assert moo_fast(b, n) == moo_invariant(b, n)


# ---------------------------------------------------------------------------
# float oracle


def _float_invariant(rows: list[list[int]], n: int) -> complex:
    m = len(rows)
    w = cmath.exp(2j * cmath.pi / n)
    bracket = sum(
        w ** (sum(rows[i][j] * l[i] * l[j] for i in range(m) for j in range(m)) % n)
        for l in itertools.product(range(n), repeat=m)
    )
    g = sum(w ** (k * k % n) for k in range(n))
    sig = signature_counts(LinkingMatrix.from_rows(rows))
    return (
        n ** (-sig.nullity / 2)
        * bracket
        * g ** (-sig.sigma_plus)
        * g.conjugate() ** (-sig.sigma_minus)
    )


def test_moo_float_oracle():
    rng = random.Random(241)
    for _ in range(25):
        n = rng.choice(ODD_LEVELS)
        b = _random_symmetric(rng)
        exact = moo_invariant(b, n).to_complex()
        assert abs(exact - _float_invariant(b, n)) < 1e-9
