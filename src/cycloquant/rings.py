"""Exact arithmetic in Z[A^{+-1}] and its cyclotomic quotients.

Conventions used throughout:

  * A is a formal variable.  Laurent polynomials are stored sparsely as
    {exponent: coefficient} with arbitrary-precision integer coefficients.
  * Phi_k is the k-th cyclotomic polynomial.  In the quotient
    Lambda = Z[A^{+-1}]/(Phi_k(A)) we have A^k = 1, so negative exponents
    are eliminated by A^{-1} = A^{k-1} and every element has a canonical
    representative of degree < phi(k).
  * Localized elements are fractions elem/den with a positive integer
    denominator, normalized so gcd(den, content(elem)) = 1.
  * Mod-p computations happen in F_p[A]/(Phi_k mod p), p prime.

Canonical ASCII form used by __str__ and the parsers: terms in ascending
exponent order with explicit signs, e.g. "1 - A + A^3 - A^4 + A^5 - A^7 + A^8",
and fractions wrapped as "(...)/15".
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import re
from typing import Iterable, Mapping, Sequence


class OrderMismatchError(ArithmeticError):
    """Raised when elements of Z[A^{+-1}]/(Phi_j) and /(Phi_k), j != k, are mixed."""


class NotAUnitError(ArithmeticError):
    """Raised when inversion needs a denominator prime outside the allowed set."""


class DenominatorNotInvertibleError(ArithmeticError):
    """Raised when a denominator vanishes mod p, so no mod-p reduction exists."""


# ---------------------------------------------------------------------------
# the dense polynomial kernel (list index = exponent, trailing zeros trimmed)


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod(a: Sequence[int], b: Sequence[int], p: int = 0) -> tuple[list[int], list[int]]:
    """Long division of dense polynomials over Z (p = 0) or over F_p (p prime).

    Over Z the divisor must be monic, so everything stays integral.  Over
    F_p the lead coefficient is inverted and the remainder is reduced
    mod p once at the end; each quotient coefficient is reduced as it is
    found, so the intermediate remainder only grows linearly.
    """
    if p:
        if not b or b[-1] % p == 0:
            raise ZeroDivisionError("polynomial division by zero")
        inv_lead = pow(b[-1], -1, p)
    elif not b or b[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(a)
    deg_b = len(b) - 1
    b_terms = [(j, bj) for j, bj in enumerate(b) if bj]  # Phi_k is often sparse
    quo = [0] * max(len(rem) - deg_b, 0)
    for i in range(len(rem) - 1, deg_b - 1, -1):
        c = rem[i] * inv_lead % p if p else rem[i]
        if c == 0:
            continue
        quo[i - deg_b] = c
        for j, bj in b_terms:
            rem[i - deg_b + j] -= c * bj
    if p:
        rem = [c % p for c in rem]
    return _trim(quo), _trim(rem)


def _mul_mod_phi(a: Sequence[int], b: Sequence[int], k: int, p: int = 0) -> tuple[int, ...]:
    """Dense a * b mod Phi_k (over F_p when p > 0), padded to phi(k) coefficients."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    conv[i + j] += ca * cb
    _, rem = _divmod(conv, _phi_dense(k), p)
    return tuple(rem) + (0,) * (euler_phi(k) - len(rem))


def _power(base, n: int, one):
    """base**n by square-and-multiply, n >= 0, for any ring element type."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


@functools.cache
def _phi_dense(k: int) -> tuple[int, ...]:
    """Dense coefficients of Phi_k, computed by exact division of A^k - 1."""
    if k < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {k}")
    if k == 1:
        return (-1, 1)
    num: Sequence[int] = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            num, rem = _divmod(num, _phi_dense(d))
            if rem:
                raise AssertionError(f"Phi_{d} does not divide A^{k} - 1")
    return tuple(num)


def euler_phi(k: int) -> int:
    return len(_phi_dense(k)) - 1


# ---------------------------------------------------------------------------
# Laurent polynomials over Z


class LaurentPoly:
    """Integer Laurent polynomial in A."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[int, int] = {}
        for e, c in items:
            data[e] = data.get(e, 0) + c
        self._terms: dict[int, int] = {e: c for e, c in data.items() if c}

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> LaurentPoly:
        return cls({exponent: coeff})

    def terms(self) -> tuple[tuple[int, int], ...]:
        """Sorted (exponent, coefficient) pairs."""
        return tuple(sorted(self._terms.items()))

    def coeff(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no minimal exponent")
        return min(self._terms)

    @property
    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no maximal exponent")
        return max(self._terms)

    def content(self) -> int:
        return math.gcd(*self._terms.values()) if self._terms else 0

    def _coerced(self, other: object) -> LaurentPoly | None:
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other: object) -> LaurentPoly:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        data = dict(self._terms)
        for e, c in o._terms.items():
            data[e] = data.get(e, 0) + c
        return LaurentPoly(data)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: object) -> LaurentPoly:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> LaurentPoly:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> LaurentPoly:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        data: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in o._terms.items():
                e = e1 + e2
                data[e] = data.get(e, 0) + c1 * c2
        return LaurentPoly(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("negative powers are not Laurent-polynomial valued here")
        return _power(self, n, LaurentPoly({0: 1}))

    def subst_power(self, t: int) -> LaurentPoly:
        """A |-> A^t (t nonzero), e.g. t = -1 is the mirror/conjugation map."""
        if t == 0:
            raise ValueError("substitution exponent must be nonzero")
        return LaurentPoly({e * t: c for e, c in self._terms.items()})

    def conjugate(self) -> LaurentPoly:
        return self.subst_power(-1)

    def evaluate(self, z: complex) -> complex:
        return sum(c * z**e for e, c in self._terms.items())

    def __eq__(self, other: object) -> bool:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        return hash(self.terms())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e in sorted(self._terms):
            c = self._terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                a = "A" if e == 1 else f"A^{e}"
                body = a if mag == 1 else f"{mag}{a}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


A = LaurentPoly.monomial(1)


def cyclotomic_poly(k: int) -> LaurentPoly:
    """The k-th cyclotomic polynomial Phi_k(A) as an element of Z[A]."""
    return LaurentPoly(dict(enumerate(_phi_dense(k))))


# ---------------------------------------------------------------------------
# the quotient Z[A^{+-1}]/(Phi_k)


@dataclasses.dataclass(frozen=True)
class CycloElem:
    """Canonical representative in Z[A^{+-1}]/(Phi_order), degree < phi(order)."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        if len(self.coeffs) != euler_phi(self.order):
            raise ValueError(
                f"need {euler_phi(self.order)} coefficients for order {self.order}, "
                f"got {len(self.coeffs)}"
            )

    @classmethod
    def zero(cls, order: int) -> CycloElem:
        return cls(order, (0,) * euler_phi(order))

    @classmethod
    def one(cls, order: int) -> CycloElem:
        return cls(order, (1,) + (0,) * (euler_phi(order) - 1))

    @classmethod
    def a_power(cls, order: int, s: int) -> CycloElem:
        """The reduced representative of A^s."""
        return reduce(LaurentPoly.monomial(s), order)

    def _coerced(self, other: object) -> CycloElem | None:
        if isinstance(other, CycloElem):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"cannot mix orders {self.order} and {other.order}"
                )
            return other
        if isinstance(other, int):
            return CycloElem(self.order, (other,) + (0,) * (len(self.coeffs) - 1))
        return None

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other: object) -> CycloElem:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return CycloElem(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> CycloElem:
        return CycloElem(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other: object) -> CycloElem:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> CycloElem:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> CycloElem:
        if isinstance(other, int):
            return CycloElem(self.order, tuple(c * other for c in self.coeffs))
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return CycloElem(self.order, _mul_mod_phi(self.coeffs, o.coeffs, self.order))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> CycloElem:
        if n < 0:
            raise ValueError("negative powers need invert(); see CycloFraction")
        return _power(self, n, CycloElem.one(self.order))

    def to_laurent(self) -> LaurentPoly:
        return LaurentPoly(dict(enumerate(self.coeffs)))

    def galois(self, t: int) -> CycloElem:
        """Ring automorphism A |-> A^t, gcd(t, order) = 1."""
        if math.gcd(t, self.order) != 1:
            raise ValueError(f"A -> A^{t} is not an automorphism at order {self.order}")
        return reduce(
            LaurentPoly({(i * t) % self.order: c for i, c in enumerate(self.coeffs) if c}),
            self.order,
        )

    def to_complex(self, which_root: int = 1) -> complex:
        if math.gcd(which_root, self.order) != 1:
            raise ValueError(f"A -> zeta^{which_root} is not a primitive embedding")
        z = cmath.exp(2j * cmath.pi * which_root / self.order)
        return self.to_laurent().evaluate(z)

    def __str__(self) -> str:
        return str(self.to_laurent())


def reduce(poly: LaurentPoly, order: int) -> CycloElem:
    """Canonical image of a Laurent polynomial in Z[A^{+-1}]/(Phi_order).

    Exponents are first folded with A^order = 1 (this is how negative
    exponents disappear), then the remainder mod Phi_order is taken.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    dense = [0] * order
    for e, c in poly.terms():
        dense[e % order] += c
    return CycloElem(order, _mul_mod_phi(dense, (1,), order))


# ---------------------------------------------------------------------------
# localizations: elem / positive integer


class CycloFraction:
    """A CycloElem divided by a positive integer, in normalized form.

    Instances are treated as immutable.  Normalization makes equality
    componentwise: den > 0 and gcd(den, content(num)) = 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: CycloElem, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(den, *num.coeffs)
        if g > 1:
            num = CycloElem(num.order, tuple(c // g for c in num.coeffs))
            den //= g
        self.num = num
        self.den = den

    @property
    def order(self) -> int:
        return self.num.order

    @classmethod
    def from_int(cls, n: int, order: int) -> CycloFraction:
        return cls(CycloElem.one(order) * n, 1)

    def _coerced(self, other: object) -> CycloFraction | None:
        if isinstance(other, CycloFraction):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"cannot mix orders {self.order} and {other.order}"
                )
            return other
        if isinstance(other, CycloElem):
            return CycloFraction(self.num._coerced(other), 1)
        if isinstance(other, int):
            return CycloFraction.from_int(other, self.order)
        return None

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: object) -> CycloFraction:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return CycloFraction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> CycloFraction:
        return CycloFraction(-self.num, self.den)

    def __sub__(self, other: object) -> CycloFraction:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> CycloFraction:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> CycloFraction:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return CycloFraction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> CycloFraction:
        if isinstance(other, int):
            return CycloFraction(self.num, self.den * other)
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self * invert(o)

    def __pow__(self, n: int) -> CycloFraction:
        if n < 0:
            return invert(self) ** (-n)
        return CycloFraction(self.num**n, self.den**n)

    def galois(self, t: int) -> CycloFraction:
        return CycloFraction(self.num.galois(t), self.den)

    def to_complex(self, which_root: int = 1) -> complex:
        return self.num.to_complex(which_root) / self.den

    def __eq__(self, other: object) -> bool:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"({self.num})/{self.den}"

    def __repr__(self) -> str:
        return f"CycloFraction('{self}', order={self.order})"


# ---------------------------------------------------------------------------
# inversion via the Galois norm


def invert(
    x: CycloElem | CycloFraction, allowed_primes: Iterable[int] | None = None
) -> CycloFraction:
    """Multiplicative inverse of x in the localization of Z[A^{+-1}]/(Phi_k).

    For nonzero y in the quotient, c = prod of sigma_t(y) over the units
    t != 1 mod k (sigma_t: A |-> A^t) satisfies y * c = N(y), the norm,
    a nonzero integer; so 1/y = c / N(y) with no arithmetic over Q (Cohen,
    A Course in Computational Algebraic Number Theory, 4.3).  The result is
    normalized, so it is the unique representative of the inverse.
    When allowed_primes is given, every prime in the normalized
    denominator must belong to it, otherwise NotAUnitError.
    """
    frac = x if isinstance(x, CycloFraction) else CycloFraction(x, 1)
    y = frac.num
    if not y:
        raise ZeroDivisionError("cannot invert zero")
    k = frac.order
    c = CycloElem.one(k)
    for t in range(2, k):
        if math.gcd(t, k) == 1:
            c = c * y.galois(t)
    norm = (y * c).coeffs
    if any(norm[1:]):  # pragma: no cover - would indicate an arithmetic bug
        raise ArithmeticError("the norm is not an integer")
    result = CycloFraction(c * frac.den, norm[0])
    if allowed_primes is not None:
        allowed = set(allowed_primes)
        bad = prime_factors(result.den) - allowed
        if bad:
            raise NotAUnitError(
                f"inverse needs primes {sorted(bad)} outside allowed {sorted(allowed)}"
            )
    return result


# ---------------------------------------------------------------------------
# mod-p quotients F_p[A]/(Phi_k mod p)


def _gcd_mod_p(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd over F_p of two dense polynomials."""
    r0, r1 = _trim([c % p for c in a]), _trim([c % p for c in b])
    while r1:
        _, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
    if r0:
        inv_lead = pow(r0[-1], -1, p)
        r0 = [c * inv_lead % p for c in r0]
    return r0


@dataclasses.dataclass(frozen=True)
class ModCycloElem:
    """Element of F_p[A]/(Phi_order mod p), coefficients in [0, p)."""

    order: int
    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError(f"modulus must be >= 2, got {self.p}")
        if len(self.coeffs) != euler_phi(self.order):
            raise ValueError(
                f"need {euler_phi(self.order)} coefficients for order {self.order}"
            )
        if any(not 0 <= c < self.p for c in self.coeffs):
            raise ValueError("coefficients must be reduced mod p")

    @classmethod
    def zero(cls, order: int, p: int) -> ModCycloElem:
        return cls(order, p, (0,) * euler_phi(order))

    @classmethod
    def one(cls, order: int, p: int) -> ModCycloElem:
        return cls(order, p, (1 % p,) + (0,) * (euler_phi(order) - 1))

    def _coerced(self, other: object) -> ModCycloElem | None:
        if isinstance(other, ModCycloElem):
            if (other.order, other.p) != (self.order, self.p):
                raise OrderMismatchError(
                    f"cannot mix (order, p) = ({self.order}, {self.p}) "
                    f"and ({other.order}, {other.p})"
                )
            return other
        if isinstance(other, int):
            return ModCycloElem(
                self.order, self.p, (other % self.p,) + (0,) * (len(self.coeffs) - 1)
            )
        return None

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other: object) -> ModCycloElem:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return ModCycloElem(
            self.order, self.p,
            tuple((a + b) % self.p for a, b in zip(self.coeffs, o.coeffs)),
        )

    __radd__ = __add__

    def __neg__(self) -> ModCycloElem:
        return ModCycloElem(self.order, self.p, tuple(-c % self.p for c in self.coeffs))

    def __sub__(self, other: object) -> ModCycloElem:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> ModCycloElem:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> ModCycloElem:
        if isinstance(other, int):
            scaled = tuple(c * other % self.p for c in self.coeffs)
            return ModCycloElem(self.order, self.p, scaled)
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return ModCycloElem(
            self.order, self.p, _mul_mod_phi(self.coeffs, o.coeffs, self.order, self.p)
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> ModCycloElem:
        if n < 0:
            raise ValueError("negative powers are not defined here")
        return _power(self, n, ModCycloElem.one(self.order, self.p))

    def __str__(self) -> str:
        poly = LaurentPoly(dict(enumerate(self.coeffs)))
        return f"{poly} (mod {self.p})"


def reduce_mod_p(x: CycloElem | CycloFraction, p: int) -> ModCycloElem:
    """Image of x in F_p[A]/(Phi_k mod p); the denominator is inverted mod p."""
    _require_prime(p)
    if isinstance(x, CycloElem):
        return ModCycloElem(x.order, p, tuple(c % p for c in x.coeffs))
    if x.den % p == 0:
        raise DenominatorNotInvertibleError(f"denominator {x.den} vanishes mod {p}")
    inv_den = pow(x.den % p, -1, p)
    return ModCycloElem(x.order, p, tuple(c * inv_den % p for c in x.num.coeffs))


# ---------------------------------------------------------------------------
# ideal membership


def _laurent_mod_p_cleared(g: LaurentPoly, p: int) -> list[int]:
    """g mod p with the A-power content removed; [] iff g = 0 mod p."""
    nonzero = [(e, c % p) for e, c in g.terms() if c % p]
    if not nonzero:
        return []
    shift = min(e for e, _ in nonzero)
    dense = [0] * (max(e for e, _ in nonzero) - shift + 1)
    for e, c in nonzero:
        dense[e - shift] = c
    return dense


def ideal_membership_cyclo(f: ModCycloElem, g: LaurentPoly, p: int, k: int) -> bool:
    """Decide f in (g) inside F_p[A]/(Phi_k mod p).

    F_p[X] is a PID, so the ideal (g, Phi_k) is generated by
    d = gcd(Phi_k mod p, g mod p) and membership is d | f.  Multiplying g
    by a power of A does not change the ideal (A is a unit), so the
    A-power content of g is cleared first.
    """
    d = ideal_gcd_poly(g, p, k)
    if (f.order, f.p) != (k, p):
        raise OrderMismatchError(f"f lives at (order, p) = ({f.order}, {f.p}), not ({k}, {p})")
    if not d:
        return not any(f.coeffs)
    _, rem = _divmod(f.coeffs, d, p)
    return not rem


def ideal_gcd_poly(g: LaurentPoly, p: int, k: int) -> tuple[int, ...]:
    """The monic generator of (g, Phi_k) over F_p, as dense coefficients.

    Returns the ascending coefficient tuple of gcd(Phi_k mod p, g mod p)
    with the A-power content of g cleared; () when g vanishes mod p.
    """
    _require_prime(p)
    g_bar = _laurent_mod_p_cleared(g, p)
    if not g_bar:
        return ()
    return tuple(_gcd_mod_p(_phi_dense(k), g_bar, p))


def laurent_ideal_membership(f: LaurentPoly, g: LaurentPoly, p: int) -> bool:
    """Decide f in (p, g) inside Z[A^{+-1}].

    Modulo p this is divisibility in F_p[A^{+-1}]; powers of A are units,
    so both polynomials are shifted to have a nonzero constant term and
    the test is plain univariate divisibility over F_p.
    """
    _require_prime(p)
    f_bar = _laurent_mod_p_cleared(f, p)
    if not f_bar:
        return True
    g_bar = _laurent_mod_p_cleared(g, p)
    if not g_bar:
        return False
    _, rem = _divmod(f_bar, g_bar, p)
    return not rem


# ---------------------------------------------------------------------------
# parsing the canonical ASCII form


_TERM_RE = re.compile(r"^(?:(\d+)\s*)?(A(?:\^(-?\d+))?)?$")
_FRACTION_RE = re.compile(r"^\((?P<num>.*)\)\s*/\s*(?P<den>\d+)$", re.DOTALL)


def parse_laurent(s: str) -> LaurentPoly:
    """Parse the canonical form, e.g. "1 - A + 2A^3 - A^-6"."""
    text = s.strip()
    if not text:
        raise ValueError("empty polynomial string")
    guarded = text.replace("^-", "^~")  # keep exponent signs out of the split
    tokens = re.split(r"([+-])", guarded)
    terms: list[tuple[int, int]] = []
    sign = 1
    pending_sign = False
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        if tok in "+-":
            if pending_sign:
                raise ValueError(f"dangling sign in {s!r}")
            sign = 1 if tok == "+" else -1
            pending_sign = True
            continue
        m = _TERM_RE.match(tok.replace("~", "-"))
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"bad term {tok!r} in {s!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        if m.group(2) is None:
            exponent = 0
        else:
            exponent = int(m.group(3)) if m.group(3) else 1
        terms.append((exponent, sign * coeff))
        sign = 1
        pending_sign = False
    if pending_sign:
        raise ValueError(f"dangling sign in {s!r}")
    return LaurentPoly(terms)


def parse_ring_element(s: str, order: int) -> CycloFraction:
    """Parse "(...)/den" or a bare polynomial into the order-k quotient."""
    text = s.strip()
    m = _FRACTION_RE.match(text)
    if m:
        poly = parse_laurent(m.group("num"))
        den = int(m.group("den"))
    else:
        poly = parse_laurent(text)
        den = 1
    return CycloFraction(reduce(poly, order), den)


# ---------------------------------------------------------------------------
# small integer utilities


def is_prime(n: int) -> bool:
    return prime_factors(n) == {n}


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def prime_factors(n: int) -> set[int]:
    """The set of primes dividing |n| (empty for n in {-1, 0, 1})."""
    n = abs(n)
    out: set[int] = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.add(n)
    return out


if __name__ == "__main__":
    print("Phi_15 =", cyclotomic_poly(15))
    print("A^8    =", CycloElem.a_power(15, 8))
    x = reduce(LaurentPoly({3: 1, -3: -1}), 15)  # A^3 - A^-3
    print("1/(A^3 - A^-3) =", invert(x, allowed_primes={3, 5}))
