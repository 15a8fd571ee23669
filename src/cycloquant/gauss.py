"""Quadratic Gauss sums and the framing constants built from them.

Everything here lives in a cyclotomic quotient ring: quantum integers,
the two quadratic sums S1 and S2 attached to an odd level r, the framing
correction constants eta_plus / eta_minus, and their ratio G_r whose
powers show up in the periodicity congruences.
"""

from __future__ import annotations

import functools

from .rings import CycloElem, CycloFraction, LaurentPoly, _Record, euler_phi, reduce

# ---------------------------------------------------------------------------
# quantum integers


def quantum_int_laurent(n: int) -> LaurentPoly:
    """[n] as a Laurent polynomial: sum of A^(3(n-1-2j)) for j = 0..n-1."""
    if n < 0:
        raise ValueError("quantum integer index must be nonnegative")
    return LaurentPoly([(3 * (n - 1 - 2 * j), 1) for j in range(n)])


def quantum_int(n: int, order: int) -> CycloElem:
    """[n] reduced into the cyclotomic quotient of the given order.

    j and j + order give the same exponent mod order, so [n] folds to at
    most order terms, the j-th with count n // order + (j < n % order).
    """
    if n < 0:
        raise ValueError("quantum integer index must be nonnegative")
    euler_phi(order)  # the ring-size budget, before any term is built
    full, part = divmod(n, order)
    terms = [(3 * (n - 1 - 2 * j), full + (j < part)) for j in range(min(n, order))]
    return reduce(LaurentPoly(terms), order)


# ---------------------------------------------------------------------------
# quadratic sums


def gauss_sum(a: int, n: int, order: int) -> CycloElem:
    """Sum of A^(a * j^2) for j = 0..n-1, in the quotient of the given order.

    j and j + order give the same term, so n > order folds to two sums of
    at most order terms.
    """
    if n < 0:
        raise ValueError("summation length must be nonnegative")
    euler_phi(order)  # the ring-size budget, before the loop
    if n > order:
        full, part = divmod(n, order)
        return gauss_sum(a, order, order) * full + gauss_sum(a, part, order)
    terms: dict[int, int] = {}
    for j in range(n):
        e = (a * j * j) % order
        terms[e] = terms.get(e, 0) + 1
    return reduce(LaurentPoly(terms), order)


@functools.cache
def s1(r: int) -> CycloElem:
    """Sum of A^(6 k^2), k = 0..r-1, in the order-3r quotient."""
    _require_level(r)
    return gauss_sum(6, r, 3 * r)


@functools.cache
def s2(r: int) -> CycloElem:
    """Sum of A^(2 k^2), k = 0..3r-1, in the order-3r quotient."""
    _require_level(r)
    return gauss_sum(2, 3 * r, 3 * r)


def _require_level(r: int) -> None:
    if r < 5 or r % 2 == 0:
        raise ValueError("level must be an odd integer >= 5")


# ---------------------------------------------------------------------------
# framing constants


@functools.cache
def eta_plus(r: int) -> CycloFraction:
    """Normalization constant for positive-definite surgery presentations.

    eta_plus = -A^-18 * S1 * S2 / (A^3 - A^-3), computed exactly. With
    zeta = A^6, a primitive r-th root of unity, A^3 - A^-3 = A^-3 (zeta - 1)
    and (zeta - 1) * sum of j zeta^j over j < r is r, so the inverse is
    (1/r) * sum of j A^(6j + 3) over 0 < j < r: one reduce, no norm.
    """
    _require_level(r)
    k = 3 * r
    u = CycloFraction(reduce(LaurentPoly({6 * j + 3: j for j in range(1, r)}), k), r)
    lead = CycloFraction(CycloElem.a_power(k, (-18) % k))
    return -lead * s1(r) * s2(r) * u


@functools.cache
def eta_minus(r: int) -> CycloFraction:
    """Mirror constant: the image of eta_plus under A -> A^-1."""
    return eta_plus(r).galois(-1)


# ---------------------------------------------------------------------------
# the ratio G_r


class GrResult(_Record):
    """G_r together with the sign relating its two defining expressions.

    value    -- A^-36 * S1^2 * S2^2 / (3 r^2)
    epsilon  -- the sign making value == epsilon * (eta_plus / eta_minus)
    """

    __slots__ = ("value", "epsilon")
    value: CycloFraction
    epsilon: int


@functools.cache
def g_r(r: int) -> GrResult:
    _require_level(r)
    k = 3 * r
    lead = CycloElem.a_power(k, (-36) % k)
    value = CycloFraction(lead * s1(r) ** 2 * s2(r) ** 2, 3 * r * r)
    # value == epsilon * eta_plus / eta_minus is decided as
    # value * eta_minus == epsilon * eta_plus, which needs no inverse
    scaled = value * eta_minus(r)
    if scaled == eta_plus(r):
        epsilon = 1
    elif scaled == -eta_plus(r):
        epsilon = -1
    else:  # pragma: no cover - would indicate an arithmetic bug
        raise ArithmeticError("G_r does not match the eta ratio up to sign")
    return GrResult(value, epsilon)

