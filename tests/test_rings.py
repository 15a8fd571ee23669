"""Exact Laurent / cyclotomic-quotient arithmetic tests."""

from __future__ import annotations

import cmath
import random
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
    ideal_membership_cyclo,
    invert,
    laurent_ideal_membership,
    parse_laurent,
    parse_ring_element,
    reduce,
    reduce_mod_p,
)

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
    for k in list(range(1, 61)) + [69, 105, 231]:
        want = sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()[::-1]
        phi = cyclotomic_poly(k)
        assert [phi.coeff(e) for e in range(len(want))] == want, k
        assert phi.max_exp == len(want) - 1, k


def test_phi_product_is_a_k_minus_1():
    for k in range(1, 61):
        prod = LaurentPoly.monomial(0)
        for d in range(1, k + 1):
            if k % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod == LaurentPoly.monomial(k) - 1, k


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


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatchError):
        CycloElem.one(15) + CycloElem.one(9)


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


def test_int_operand_matches_ring_product():
    # an int operand scales the coefficients; it must equal the product
    # with the constant ring element n
    rng = random.Random(19)
    p = 11
    for k in (9, 15, 21):
        x = reduce(_random_laurent(rng), k)
        x_p = reduce_mod_p(x, p)
        pad = (0,) * (len(x.coeffs) - 1)
        for n in (-7, -1, 0, 1, 7, 22, -33):
            assert x * n == n * x == x * CycloElem(k, (n,) + pad)
            assert x_p * n == n * x_p == x_p * ModCycloElem(k, p, (n % p,) + pad)


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
