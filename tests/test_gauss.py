"""Gauss sum, framing constant, and G_r tests."""

from __future__ import annotations

import math
import random

import pytest

from cycloquant.gauss import (
    eta_minus,
    eta_plus,
    g_r,
    gauss_sum,
    quantum_int,
    quantum_int_laurent,
    s1,
    s2,
)
from cycloquant.rings import (
    CycloElem,
    CycloFraction,
    LaurentPoly,
    invert,
    prime_factors,
    reduce,
    reduce_mod_p,
)

# ---------------------------------------------------------------------------
# quantum integers


def test_quantum_int_goldens():
    assert quantum_int_laurent(0) == LaurentPoly()
    assert quantum_int_laurent(1) == LaurentPoly.monomial(0)
    assert quantum_int_laurent(2) == LaurentPoly({3: 1, -3: 1})
    assert str(quantum_int_laurent(3)) == "A^-6 + 1 + A^6"
    # at order 3 every exponent is a multiple of 3, so [3] collapses to 3
    assert quantum_int(3, 3) == CycloElem.one(3) * 3


def test_quantum_int_rejects_negative():
    with pytest.raises(ValueError):
        quantum_int_laurent(-1)


# ---------------------------------------------------------------------------
# quadratic sums


def test_gauss_sum_examples():
    assert str(gauss_sum(1, 3, 3)) == "1 + 2A"
    assert gauss_sum(0, 5, 15) == CycloElem.one(15) * 5
    assert gauss_sum(6, 5, 15) == s1(5)


def test_gauss_sum_period_extension():
    # when a*n is a multiple of the order, the summand is n-periodic in j,
    # so doubling the range doubles the sum
    rng = random.Random(61)
    for _ in range(30):
        k = rng.choice([9, 15, 21, 33])
        d = rng.choice([e for e in range(1, k + 1) if k % e == 0])
        a, n = d, (k // d) * rng.randint(1, 3)
        assert (a * n) % k == 0
        assert gauss_sum(a, 2 * n, k) == gauss_sum(a, n, k) * 2


def test_s1_s2_magnitudes():
    for r in (5, 7, 9, 11):
        assert s1(r) * s1(r).galois(-1) == CycloElem.one(3 * r) * r
        assert s2(r) * s2(r).galois(-1) == CycloElem.one(3 * r) * (3 * r)


def test_level_validation():
    for bad in (3, 4, 6, -5):
        with pytest.raises(ValueError):
            s1(bad)


# ---------------------------------------------------------------------------
# framing constants


def test_eta_minus_is_conjugate():
    for r in (5, 7):
        assert eta_minus(r) == eta_plus(r).galois(-1)


def test_eta_product_identity():
    # eta_plus * eta_minus = 3 r^2 / ((A^6 - 1)(A^-6 - 1))
    for r in (5, 7, 9):
        k = 3 * r
        denom = reduce((LaurentPoly.monomial(6) - 1) * (LaurentPoly.monomial(-6) - 1), k)
        rhs = invert(CycloFraction(denom), allowed_primes=prime_factors(k)) * (3 * r * r)
        assert eta_plus(r) * eta_minus(r) == rhs


@pytest.mark.parametrize("r", range(5, 62, 2))
def test_eta_plus_matches_the_norm_inverse(r):
    # eta_plus inverts A^3 - A^-3 in closed form; invert, by the Galois
    # norm, is the oracle
    k = 3 * r
    quantum_two = CycloFraction(reduce(LaurentPoly({3: 1, -3: -1}), k))
    u = invert(quantum_two, allowed_primes=prime_factors(k))
    lead = CycloFraction(CycloElem.a_power(k, (-18) % k))
    assert eta_plus(r) == -lead * s1(r) * s2(r) * u


def test_eta_magnitude_float_oracle():
    # |eta_plus|^2 should be 3 r^2 / |A^3 - A^-3|^2 at the primitive root
    for r in (5, 7):
        z = eta_plus(r).to_complex(1)
        w = complex((LaurentPoly.monomial(3) - LaurentPoly.monomial(-3)).evaluate(
            cmath_exp(3 * r)))
        assert abs(abs(z) ** 2 - 3 * r * r / abs(w) ** 2) < 1e-9


def cmath_exp(order: int) -> complex:
    return complex(math.cos(2 * math.pi / order), math.sin(2 * math.pi / order))


# ---------------------------------------------------------------------------
# the ratio G_r


def test_g5_is_minus_a9():
    res = g_r(5)
    assert res.value == -CycloFraction(CycloElem.a_power(15, 9))
    assert res.epsilon == -1


def test_g_r_unit_of_modulus_one():
    for r in (5, 7, 9):
        val = g_r(r).value
        conj = val.galois(-1)
        assert val * conj == 1
        assert invert(val, allowed_primes=prime_factors(3 * r)) == conj


def test_g_r_epsilon_is_consistently_minus_one():
    for r in (5, 7, 9):
        assert g_r(r).epsilon == -1


# ---------------------------------------------------------------------------
# congruence groundwork


def test_bracket_power_collapses_for_good_primes():
    # [3]^p = [3] mod (p, Phi_3r) whenever p = +-1 mod r and p != 3:
    # the ideal in the congruence test then degenerates to (p)
    for r, p in ((5, 11), (5, 19), (7, 13), (7, 29)):
        b = quantum_int(3, 3 * r)
        assert not reduce_mod_p(b ** p - b, p)


def test_frobenius_on_coefficients():
    # f(A)^p = f(A^p) mod p when p is coprime to the order
    rng = random.Random(71)
    for p in (11, 19):
        for _ in range(20):
            f = reduce(
                LaurentPoly([(rng.randint(-20, 20), rng.randint(-5, 5)) for _ in range(5)]),
                15,
            )
            assert reduce_mod_p(f ** p, p) == reduce_mod_p(f.galois(p % 15), p)
