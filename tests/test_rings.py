"""Exact Laurent / cyclotomic-quotient arithmetic tests."""

from __future__ import annotations

import collections
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycloquant.rings import (
    CycloElem,
    CycloFraction,
    DenominatorNotInvertibleError,
    LaurentPoly,
    ModCycloElem,
    NotAUnitError,
    OrderMismatchError,
    cyclotomic_poly,
    euler_phi,
    ideal_membership_cyclo,
    invert,
    is_prime,
    laurent_ideal_membership,
    parse_laurent,
    parse_ring_element,
    reduce,
    reduce_mod_p,
)
from cycloquant import rings
from cycloquant.rings import _divmod, _phi_dense

A = LaurentPoly.monomial(1)

# level-5 value of the lens space L(2,1) under the level-5 invariant,
# used here only as a nontrivial reduction target
L21 = parse_laurent("1 - A - A^2 + A^3 - A^4 + A^5 - A^7")


def _random_laurent(rng: random.Random, n_terms: int = 6, span: int = 30) -> LaurentPoly:
    return LaurentPoly(
        [(rng.randint(-span, span), rng.randint(-9, 9)) for _ in range(n_terms)]
    )


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_phi_small():
    assert cyclotomic_poly(1) == A - 1
    assert cyclotomic_poly(2) == A + 1
    assert cyclotomic_poly(3) == A * A + A + 1


def test_phi_15_golden_string():
    assert str(cyclotomic_poly(15)) == "1 - A + A^3 - A^4 + A^5 - A^7 + A^8"


def test_phi_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for k in list(range(1, 301)) + [1001, 4620, 9009]:
        want = sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()[::-1]
        phi = cyclotomic_poly(k)
        assert [phi.coeff(e) for e in range(len(want))] == want, k
        assert phi.max_exp == len(want) - 1, k


def test_phi_30030_is_fast():
    # _phi_dense does not call itself, so __wrapped__ builds each Phi_k cold;
    # 153510 = 2*3*5*7*17*43 has the most primes and the largest degree under
    # the ring-size budget
    for k, degree in ((30030, 5760), (102102, 23040), (153510, 32256)):
        start = time.perf_counter()
        phi = _phi_dense.__wrapped__(k)
        assert time.perf_counter() - start < 1.0, k
        assert len(phi) - 1 == degree, k
        # Phi_2m(A) = Phi_m(-A) for odd m > 1
        half = _phi_dense(k // 2)
        assert phi == tuple(c if i % 2 == 0 else -c for i, c in enumerate(half)), k


def test_ring_size_budget():
    # phi(k) <= 2^15 passes, one more fails; k > 2^31 fails unfactored,
    # since phi(k) >= sqrt(k/2)
    import cycloquant
    from cycloquant import links

    assert rings.RecursionBudgetExceeded is links.RecursionBudgetExceeded
    assert rings.RecursionBudgetExceeded is cycloquant.RecursionBudgetExceeded
    assert rings._PHI_BUDGET == 2**15
    assert euler_phi(32749) == 32748  # the largest prime within it
    for k in (32771, 510510, 2 * 2**30, 2**31 + 11, 10**40):
        start = time.perf_counter()
        with pytest.raises(rings.RecursionBudgetExceeded, match="budget"):
            _phi_dense(k)
        with pytest.raises(rings.RecursionBudgetExceeded):
            reduce(A, k)  # refused before the fold allocates k terms
        assert time.perf_counter() - start < 1.0, k


def test_phi_product_is_a_k_minus_1():
    for k in range(1, 61):
        prod = LaurentPoly.monomial(0)
        for d in range(1, k + 1):
            if k % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod == LaurentPoly.monomial(k) - 1, k


def test_phi_products_are_a_k_minus_1_to_3000():
    # prod over d | k of Phi_d = A^k - 1 for every k <= 3000, by induction on
    # k: with p the least prime of k and j = k/p, the d | k that do not
    # divide j must give (A^k - 1) / (A^j - 1) = 1 + A^j + ... + A^((p-1)j).
    # Exact packed products keep it fast, and no step is shared with how
    # _phi_dense builds Phi_k.
    assert _phi_dense(1) == (-1, 1)
    divisors: list[list[int]] = [[] for _ in range(3001)]
    for d in range(1, 3001):
        for multiple in range(d, 3001, d):
            divisors[multiple].append(d)
    for k in range(2, 3001):
        p = min(rings.prime_factors(k))
        j = k // p
        rest = sorted((_phi_dense(d) for d in divisors[k] if j % d), key=len)
        prod = [1]
        for phi in rest:
            prod = rings._kronecker(prod, phi, len(prod) + len(phi) - 1)
        assert prod == ([1] + [0] * (j - 1)) * (p - 1) + [1], k


# ---------------------------------------------------------------------------
# reduction into the quotient


def test_reduce_examples():
    assert reduce(LaurentPoly.monomial(15), 15) == CycloElem.one(15)
    assert str(reduce(LaurentPoly.monomial(8), 15)) == "-1 + A - A^3 + A^4 - A^5 + A^7"
    assert reduce(LaurentPoly(), 15) == CycloElem.zero(15)


def test_reduce_kills_negative_exponents():
    # A^-1 = A^(k-1) in the quotient
    for k in (9, 15, 21):
        assert reduce(LaurentPoly.monomial(-1), k) == CycloElem.a_power(k, k - 1)


def test_reduce_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        x = reduce(_random_laurent(rng), 15)
        assert reduce(x.to_laurent(), 15) == x


def test_reduce_is_ring_homomorphism():
    rng = random.Random(20260817)
    for k in (9, 15, 21, 33):
        for _ in range(200):
            f = _random_laurent(rng)
            g = _random_laurent(rng)
            assert reduce(f * g, k) == reduce(f, k) * reduce(g, k)
            assert reduce(f + g, k) == reduce(f, k) + reduce(g, k)


# ---------------------------------------------------------------------------
# fractions


def test_fraction_basics():
    x = CycloFraction(reduce(L21, 15), 4)
    assert x + 0 == x
    f = reduce(_random_laurent(random.Random(3)), 15)
    assert CycloFraction(f, 2) * 2 == CycloFraction(f)
    a7 = CycloFraction(CycloElem.a_power(15, 7))
    a8 = CycloFraction(CycloElem.a_power(15, 8))
    assert a7 * a8 == 1


def test_fraction_normalization():
    f = CycloElem.one(15) * 6
    x = CycloFraction(f, 10)
    assert x.den == 5 and x.num == CycloElem.one(15) * 3
    # zero normalizes to 0/1
    assert CycloFraction(CycloElem.zero(15), 7).den == 1


def test_fraction_cross_multiplication_equality():
    rng = random.Random(11)
    for _ in range(40):
        num = reduce(_random_laurent(rng), 15)
        d1, d2 = rng.randint(1, 30), rng.randint(1, 30)
        x = CycloFraction(num * d2, d1 * d2)
        y = CycloFraction(num, d1)
        assert x == y
        assert x.num * y.den == y.num * x.den


# ---------------------------------------------------------------------------
# galois conjugation


def test_galois_examples():
    x = CycloFraction(reduce(L21, 15), 3)
    assert x.galois(1) == x
    assert x.galois(-1).galois(-1) == x
    a = CycloFraction(CycloElem.a_power(15, 1))
    assert a.galois(-1) == CycloFraction(CycloElem.a_power(15, 14))


def test_galois_is_multiplicative():
    rng = random.Random(5)
    for t in (-1, 2, 7):
        for _ in range(25):
            x = reduce(_random_laurent(rng), 15)
            y = reduce(_random_laurent(rng), 15)
            assert (x * y).galois(t) == x.galois(t) * y.galois(t)


def test_galois_requires_coprime():
    with pytest.raises(ValueError):
        CycloElem.one(15).galois(3)


# ---------------------------------------------------------------------------
# inversion


def test_invert_unit_monomial():
    inv = invert(CycloFraction(CycloElem.a_power(15, 1)), allowed_primes={3, 5})
    assert inv == CycloFraction(CycloElem.a_power(15, 14))


def test_invert_integer():
    inv = invert(CycloFraction.from_int(3, 15), allowed_primes={3, 5})
    assert inv == CycloFraction(CycloElem.one(15), 3)


def test_invert_quantum_denominator():
    # the denominator showing up in the eta constants
    x = CycloFraction(reduce(LaurentPoly({3: 1, -3: -1}), 15))
    inv = invert(x, allowed_primes={3, 5})
    assert x * inv == 1


def test_invert_rejects_outside_primes():
    with pytest.raises(NotAUnitError):
        invert(CycloFraction.from_int(2, 15), allowed_primes={3, 5})


def test_invert_big_denominator_is_fast():
    # the allowed primes are divided out of the denominator, which is
    # never factored: 1/(10^18 + 9) is refused at once
    start = time.perf_counter()
    with pytest.raises(NotAUnitError):
        invert(CycloFraction.from_int(10**18 + 9, 15), allowed_primes={3, 5})
    inv = invert(CycloFraction.from_int(3**40 * 5**7, 15), allowed_primes={3, 5})
    assert inv == CycloFraction(CycloElem.one(15), 3**40 * 5**7)
    assert time.perf_counter() - start < 1.0


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        invert(CycloFraction(CycloElem.zero(15)))


def test_invert_random_multiply_back():
    rng = random.Random(99)
    for k in (15, 2, 3, 4, 6, 8, 12, 20, 21, 30):
        done = 0
        while done < 20:
            x = CycloFraction(reduce(_random_laurent(rng, 4, 10), k), rng.randint(1, 6))
            if not x:
                continue
            assert x * invert(x) == 1, (k, x)
            done += 1


@pytest.mark.parametrize("k", [2, 4, 12, 15, 21, 69, 105])
def test_invert_matches_sympy(k):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi = sympy.cyclotomic_poly(k, x)
    rng = random.Random(k)
    for _ in range(3):
        y = CycloFraction(reduce(_random_laurent(rng, 5, 2 * k), k), rng.randint(1, 9))
        if not y:
            continue
        expr = sum(c * x**i for i, c in enumerate(y.num.coeffs)) / y.den
        want = sympy.Poly(sympy.invert(expr, phi, x, domain=sympy.QQ), x).all_coeffs()[::-1]
        want = [Fraction(str(c)) for c in want]
        inv = invert(y)
        got = [Fraction(c, inv.den) for c in inv.num.coeffs]
        assert got == want + [0] * (len(got) - len(want)), (k, y)


# ---------------------------------------------------------------------------
# mod-p reduction


def test_reduce_mod_p_examples():
    third = CycloFraction(CycloElem.one(15), 3)
    assert reduce_mod_p(third, 11) == reduce_mod_p(CycloFraction.from_int(4, 15), 11)
    f = reduce(L21, 15)
    assert not reduce_mod_p(CycloFraction(f * 11), 11)
    got = reduce_mod_p(CycloFraction(f), 11)
    assert got.coeffs == tuple(c % 11 for c in f.coeffs)


def test_reduce_mod_p_denominator_must_be_unit():
    with pytest.raises(DenominatorNotInvertibleError):
        reduce_mod_p(CycloFraction(CycloElem.one(15), 11), 11)


def test_reduce_mod_p_is_ring_homomorphism():
    rng = random.Random(17)
    for p in (7, 11):
        for _ in range(40):
            x = reduce(_random_laurent(rng), 15)
            y = reduce(_random_laurent(rng), 15)
            assert reduce_mod_p(x * y, p) == reduce_mod_p(x, p) * reduce_mod_p(y, p)
            assert reduce_mod_p(x + y, p) == reduce_mod_p(x, p) + reduce_mod_p(y, p)


@given(
    data=st.data(),
    k=st.sampled_from([2, 3, 4, 6, 9, 12, 15, 21, 35]),
    p=st.sampled_from([2, 3, 5, 7, 11, 13, 101]),
)
def test_reduce_mod_p_is_multiplicative_property(data, k, p):
    # ties the Z and F_p branches of the shared division kernel together
    coeffs = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=2 * k)
    x = reduce(LaurentPoly(dict(enumerate(data.draw(coeffs)))), k)
    y = reduce(LaurentPoly(dict(enumerate(data.draw(coeffs)))), k)
    assert reduce_mod_p(x * y, p) == reduce_mod_p(x, p) * reduce_mod_p(y, p)


# ---------------------------------------------------------------------------
# the packed product and the reciprocal division against a schoolbook oracle

# both sides of the path cutoffs; Phi_1009 is all ones, Phi_1024 = A^512 + 1
# and Phi_9009 = Phi_3003(A^3)
ORACLE_ORDERS = (2, 15, 69, 105, 315, 1001, 1009, 1024, 3003, 9009)


def _oracle_mod_phi(f: list[int], k: int, p: int = 0) -> tuple[int, ...]:
    rem = _divmod(f, _phi_dense(k), p)[1]
    return tuple(rem) + (0,) * (euler_phi(k) - len(rem))


def _oracle_mul_mod_phi(a: list[int], b: list[int], k: int, p: int = 0) -> tuple[int, ...]:
    conv = [0] * (len(a) + len(b) - 1)
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                conv[i + j] += x * y
    return _oracle_mod_phi(conv, k, p)


def _operand(rng: random.Random, k: int, kind: str) -> list[int]:
    """phi(k) coefficients: all zero, 5 nonzero, or up to 300 of size 99 or 10^30."""
    d = euler_phi(k)
    # past 720 coefficients the support stays low, so the oracle's quotient is short
    span = d if d <= 720 else (d + 200) // 2
    out = [0] * d
    count = {"zero": 0, "sparse": min(5, span)}.get(kind, min(300, span))
    bound = 10**30 if kind == "huge" else 99
    for i in rng.sample(range(span), count):
        out[i] = rng.randint(-bound, bound)
    return out


def _count_calls(monkeypatch, calls: collections.Counter, name: str) -> None:
    real = getattr(rings, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(rings, name, counted)


def test_kernel_matches_schoolbook_oracle(monkeypatch):
    calls: collections.Counter = collections.Counter()
    _count_calls(monkeypatch, calls, "_kronecker")
    _count_calls(monkeypatch, calls, "_phi_reciprocal")
    paths = set()
    for k in ORACLE_ORDERS:
        rng = random.Random(k)
        cases = [(0, "zero", "dense"), (0, "dense", "zero"), (0, "sparse", "dense"),
                 (0, "dense", "dense"), (0, "huge", "huge"), (7, "dense", "dense"),
                 (1_000_000_007, "huge", "huge")]
        for p, kind_a, kind_b in cases:
            a, b = _operand(rng, k, kind_a), _operand(rng, k, kind_b)
            before = calls.copy()
            if p:  # an F_p product is the image of the product over Z
                a, b = [c % p for c in a], [c % p for c in b]
                product = ModCycloElem(k, p, tuple(a)) * ModCycloElem(k, p, tuple(b))
                assert product.coeffs == _oracle_mul_mod_phi(a, b, k, p), (k, p)
            else:
                assert rings._mul_mod_phi(a, b, k) == _oracle_mul_mod_phi(a, b, k), k
            divisions = calls["_phi_reciprocal"] - before["_phi_reciprocal"]
            products = calls["_kronecker"] - before["_kronecker"] - 2 * divisions
            paths.add("packed product" if products else "schoolbook product")
            paths.add("reciprocal division" if divisions else "long division")
        # exponents below phi(k) + 200 (all of them up to order 315), so the
        # oracle's quotient stays short, and exponents that wrap around A^k = 1
        top = min(k, euler_phi(k) + 200)
        for n_terms, lo, hi, bound in ((top, 0, top, 10**30), (40, -3 * k, 3 * k, 9)):
            poly = LaurentPoly([(rng.randrange(lo, hi), rng.randint(-bound, bound))
                                for _ in range(n_terms)])
            dense = [0] * k
            for e, c in poly.terms():
                dense[e % k] += c
            assert reduce(poly, k).coeffs == _oracle_mod_phi(dense, k), k
    assert paths == {"packed product", "schoolbook product",
                     "reciprocal division", "long division"}


def test_phi_reciprocal_inverts_rev_phi():
    for k in list(range(2, 301)) + [1001, 1024, 3003, 4620, 9009, 30030]:
        series = rings._phi_reciprocal(k)
        n = k - euler_phi(k)
        assert len(series) == n, k
        rev_phi = _phi_dense(k)[::-1][:n]
        assert rings._kronecker(rev_phi, series, n) == [1] + [0] * (n - 1), k


def test_packed_width_covers_each_operand():
    # the width covers each factor's own coefficients, not only the product
    # bound, which a zero factor makes 0
    big = 10**30
    assert rings._kronecker([0, 0, 0], [big, -big, 1], 5) == [0] * 5
    assert rings._kronecker([big, -big, 1], [0], 3) == [0] * 3
    assert rings._kronecker([1], [big, -big], 2) == [big, -big]
    assert rings._kronecker([-1, 1], [big, big], 3) == [-big, 0, big]
    m = 2**64 - 1  # digits exactly 8 bytes wide
    assert rings._kronecker([m] * 3, [-m] * 3, 3) == [-(m**2), -2 * m**2, -3 * m**2]


def test_cyclic_mul_paths_agree(monkeypatch):
    # the packed and the schoolbook convolution, each forced in turn, equal
    # the sum over (i + j) mod q; the top coefficients of both operands are
    # nonzero, so every product wraps past A^q = 1
    rng = random.Random(263)
    for q in (3, 4, 5, 7, 9, 25, 59, 121, 509, 3481):
        for terms in (0, 1, 8, 60, q):
            if q * terms > 300_000:
                continue
            a = [rng.randint(0, q**3) for _ in range(q - 1)] + [rng.randint(1, 9)]
            b = [0] * q
            for j in rng.sample(range(q), min(terms, q)):
                b[j] = rng.randint(-(10**20), 10**20)
            if terms:
                b[-1] = rng.randint(1, 9)
            want = [0] * q
            for i, ca in enumerate(a):
                for j, cb in enumerate(b):
                    if cb:
                        want[(i + j) % q] += ca * cb
            for ratio in (0, 10**12):  # always packed, never packed
                monkeypatch.setattr(rings, "_KRONECKER_WORK_RATIO", ratio)
                assert rings._cyclic_mul(a, b, q) == want, (q, terms, ratio)


@pytest.mark.parametrize("k", [1001, 3003])
def test_reduce_of_k_terms_matches_sympy(k):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(k)
    f = [rng.randint(-9, 9) for _ in range(k)]
    got = sympy.Poly(reduce(LaurentPoly(dict(enumerate(f))), k).coeffs[::-1], x)
    phi = sympy.cyclotomic_poly(k, x, polys=True)
    want = sympy.Poly(f[::-1], x)
    # f = q Phi_k + r with deg r < phi(k) makes r the remainder; the quotient
    # of the long-division oracle is such a q
    quotient = sympy.Poly(_divmod(f, _phi_dense(k))[0][::-1], x)
    assert got.degree() < phi.degree()
    assert quotient * phi + got == want
    if k == 1001:  # sympy's own division takes seconds at 3003
        assert sympy.rem(want, phi) == got


# ---------------------------------------------------------------------------
# the operators shared by the four ring element types

# name -> (random element at order k, the integer n as an element of that ring)
RINGS = {
    "LaurentPoly": (
        lambda rng, k: _random_laurent(rng),
        lambda n, k: LaurentPoly({0: n}),
    ),
    "CycloElem": (
        lambda rng, k: reduce(_random_laurent(rng), k),
        lambda n, k: CycloElem(k, (n,) + (0,) * (euler_phi(k) - 1)),
    ),
    "CycloFraction": (
        lambda rng, k: CycloFraction(reduce(_random_laurent(rng), k), rng.randint(1, 9)),
        lambda n, k: CycloFraction(CycloElem(k, (n,) + (0,) * (euler_phi(k) - 1))),
    ),
    "ModCycloElem": (
        lambda rng, k: reduce_mod_p(reduce(_random_laurent(rng), k), 11),
        lambda n, k: ModCycloElem(k, 11, (n % 11,) + (0,) * (euler_phi(k) - 1)),
    ),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_ring_operators(ring):
    # an int operand acts as the constant element n, on either side; for
    # CycloElem and ModCycloElem x * n scales the coefficients, which must
    # equal the ring product with that constant
    make, const = RINGS[ring]
    rng = random.Random(19)
    for k in (9, 15, 21):
        x, y = make(rng, k), make(rng, k)
        assert (x - y) + y == x
        assert x - x == const(0, k)
        for n in (-7, -1, 0, 1, 7, 22, -33):
            c = const(n, k)
            assert (n - x) + x == c
            assert (x - n) + c == x
            assert n + x == x + n == x + c
            assert n * x == x * n == x * c
        assert x**0 == const(1, k)
        assert x**1 == x
        assert x**3 == x * x * x
        assert x**6 == (x * x * x) * (x * x * x)
        if ring == "CycloFraction":
            assert x**-2 * x**2 == 1
            assert x**-1 == invert(x)
        else:
            with pytest.raises(ValueError):
                x**-1


def test_pow_product_count(monkeypatch):
    # x**n costs bit_length(n) - 1 squarings and popcount(n) - 1 products
    calls = []
    mul = CycloElem.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    x = reduce(_random_laurent(random.Random(17)), 15)
    monkeypatch.setattr(CycloElem, "__mul__", counted)
    for n in range(9):
        calls.clear()
        _ = x**n
        want = n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0
        assert len(calls) == want, n


@pytest.mark.parametrize("ring", ["CycloElem", "CycloFraction", "ModCycloElem"])
def test_mixed_orders_raise(ring):
    # arithmetic across orders raises; equality across orders is False
    make, const = RINGS[ring]
    rng = random.Random(23)
    x, y = make(rng, 15), make(rng, 9)
    for op in (lambda: x + y, lambda: x - y, lambda: y - x, lambda: x * y, lambda: y * x):
        with pytest.raises(OrderMismatchError):
            op()
    others = [y, y.num] if ring == "CycloFraction" else [y]
    for other in others:
        assert not x == other and not other == x
        assert x != other and other != x
    assert const(1, 15) != const(1, 9)


def test_mod_p_elements_of_different_primes_do_not_mix():
    x = reduce(_random_laurent(random.Random(29)), 15)
    with pytest.raises(OrderMismatchError):
        reduce_mod_p(x, 7) + reduce_mod_p(x, 11)


# ---------------------------------------------------------------------------
# ideal membership


def _bracket3(k: int) -> LaurentPoly:
    # [3] = A^-6 + 1 + A^6 as a Laurent polynomial
    return LaurentPoly({-6: 1, 0: 1, 6: 1})


def test_ideal_membership_trivial_cases():
    g = _bracket3(15) ** 11 - _bracket3(15)
    f = reduce_mod_p(reduce(g, 15), 11)
    assert ideal_membership_cyclo(f, g, 11, 15)
    zero = reduce_mod_p(CycloFraction(CycloElem.zero(15)), 11)
    assert ideal_membership_cyclo(zero, g, 11, 15)


def test_ideal_membership_collapses_for_branched_cover_primes():
    # p = +-1 mod r makes [3]^p - [3] vanish in the quotient, so the ideal
    # is plain (p) and membership of 1 must fail
    for r, p in ((5, 11), (5, 19), (7, 13)):
        g = _bracket3(3 * r) ** p - _bracket3(3 * r)
        one = reduce_mod_p(CycloFraction(CycloElem.one(3 * r)), p)
        assert not ideal_membership_cyclo(one, g, p, 3 * r)
        p_elem = reduce_mod_p(CycloFraction(CycloElem.one(3 * r) * p), p)
        assert ideal_membership_cyclo(p_elem, g, p, 3 * r)


def test_ideal_membership_is_monotone():
    rng = random.Random(23)
    p, k = 7, 15
    g = LaurentPoly({0: 1, 1: 1})  # 1 + A
    members = []
    while len(members) < 6:
        h = reduce(_random_laurent(rng, 4, 10), k)
        f = reduce_mod_p(CycloFraction(h * reduce(g, k)), p)
        assert ideal_membership_cyclo(f, g, p, k)
        members.append(f)
    for x in members:
        for y in members:
            assert ideal_membership_cyclo(x + y, g, p, k)
        h = reduce_mod_p(reduce(_random_laurent(rng, 4, 10), k), p)
        assert ideal_membership_cyclo(h * x, g, p, k)


def test_laurent_ideal_membership():
    g = _bracket3(0) ** 5 - _bracket3(0)
    h = parse_laurent("2 - A^3 + A^-2")
    assert laurent_ideal_membership(h * 5, g, 5)
    assert laurent_ideal_membership(LaurentPoly.monomial(-7) * g, g, 5)
    cube = _bracket3(0) ** 3 - _bracket3(0)
    assert laurent_ideal_membership(cube, cube, 3)
    assert not laurent_ideal_membership(LaurentPoly.monomial(0), g, 5)


def test_laurent_ideal_membership_zero_g_falls_back_to_mod_p():
    g3 = _bracket3(0) * 3
    assert laurent_ideal_membership(LaurentPoly.monomial(2, 9), g3, 3)
    assert not laurent_ideal_membership(LaurentPoly.monomial(2, 2), g3, 3)


def test_laurent_span_budget(monkeypatch):
    # a span past the budget is refused before the dense list is built;
    # terms that vanish mod p do not count
    monkeypatch.setattr(rings, "_SPAN_BUDGET", 10)
    g = LaurentPoly({-4: 1, 5: 2, 9: 7})
    assert rings._laurent_mod_p_cleared(g, 7) == [1] + [0] * 8 + [2]
    with pytest.raises(rings.RecursionBudgetExceeded):
        rings._laurent_mod_p_cleared(LaurentPoly({-4: 1, 6: 2}), 7)
    with pytest.raises(rings.RecursionBudgetExceeded):
        laurent_ideal_membership(LaurentPoly({0: 1, 10: 1}), LaurentPoly({0: 1}), 7)


def _undivided_membership(f: LaurentPoly, g: LaurentPoly, p: int) -> bool:
    # f in (p, g) by one division over F_p of the cleared polynomials
    f_bar, g_bar = rings._laurent_mod_p_cleared(f, p), rings._laurent_mod_p_cleared(g, p)
    if not f_bar:
        return True
    return bool(g_bar) and not _divmod(f_bar, g_bar, p)[1]


def test_laurent_membership_by_exponent_gcd_matches_undivided_division():
    # pairs in Z[A^(+-d)] for d = 1, 2, 6 (J lives in Z[A^(+-6)]): members
    # g h, likely non-members g h + A^e, and f = 0 mod p
    rng = random.Random(167)
    seen = set()
    for d in (1, 2, 6):
        for p in (2, 3, 5, 7):
            for _ in range(60):
                def poly(n: int) -> LaurentPoly:
                    return LaurentPoly([(d * rng.randint(-5, 5), rng.randint(-4, 4))
                                        for _ in range(n)])

                g, h = poly(rng.randint(1, 4)), poly(3)
                kind = rng.randrange(3)
                f = (g * h, g * h + LaurentPoly.monomial(d * rng.randint(-9, 9)), p * h)[kind]
                got = laurent_ideal_membership(f, g, p)
                assert got == _undivided_membership(f, g, p), (f, g, p)
                seen.add((d, got))
    assert seen == {(d, v) for d in (1, 2, 6) for v in (True, False)}


# ---------------------------------------------------------------------------
# complex oracle


def test_to_complex_examples():
    one = CycloFraction.from_int(1, 15)
    assert abs(one.to_complex() - 1.0) < 1e-12
    a4 = CycloFraction(CycloElem.a_power(4, 1))
    assert abs(a4.to_complex(1) - 1j) < 1e-12
    wrap = reduce(LaurentPoly.monomial(15) - 1, 15)
    assert abs(CycloFraction(wrap).to_complex()) < 1e-12


def test_to_complex_commutes_with_ring_ops():
    rng = random.Random(31)
    for _ in range(30):
        x = reduce(_random_laurent(rng), 15)
        y = reduce(_random_laurent(rng), 15)
        root = rng.choice([1, 2, 4, 7, 8, 11, 13, 14])
        lhs = (x * y).to_complex(root)
        rhs = x.to_complex(root) * y.to_complex(root)
        assert abs(lhs - rhs) < 1e-9
        assert abs((x + y).to_complex(root) - (x.to_complex(root) + y.to_complex(root))) < 1e-9


# ---------------------------------------------------------------------------
# serialization


def test_string_goldens():
    assert str(LaurentPoly()) == "0"
    assert str(parse_laurent("A^-6 + 1 + A^6")) == "A^-6 + 1 + A^6"
    assert str(CycloFraction(reduce(LaurentPoly({0: 1, 1: -1}), 15), 15)) == "(1 - A)/15"
    assert str(CycloFraction(reduce(LaurentPoly({0: 1, 1: -1}), 15), 1)) == "1 - A"


def test_parse_roundtrip_random():
    rng = random.Random(41)
    for _ in range(60):
        f = _random_laurent(rng)
        assert parse_laurent(str(f)) == f


def test_parse_fraction_roundtrip():
    rng = random.Random(43)
    for _ in range(40):
        x = CycloFraction(reduce(_random_laurent(rng), 15), rng.randint(1, 40))
        assert parse_ring_element(str(x), 15) == x


def test_parse_rejects_garbage():
    for bad in ("", "A +", "B^2", "1 ++ A"):
        with pytest.raises(ValueError):
            parse_laurent(bad)


# ---------------------------------------------------------------------------
# primality


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(10**5) if is_prime(n)] == list(sympy.primerange(10**5))
    rng = random.Random(64)
    samples = [rng.getrandbits(64) | 1 for _ in range(3000)]
    samples += [sympy.nextprime(rng.getrandbits(64)) for _ in range(200)]
    # strong pseudoprimes to the first 7, 9 and 12 prime bases
    samples += [341550071728321, 3825123056546413051, 318665857834031151167461]
    for n in samples:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_refuses_beyond_its_exact_range():
    assert is_prime(2**61 - 1)  # a Mersenne prime, answered at once
    assert not is_prime(3_317_044_064_679_887_385_961_981 - 2)
    with pytest.raises(ValueError):
        is_prime(3_317_044_064_679_887_385_961_981)  # a strong pseudoprime to all 13 bases
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)
