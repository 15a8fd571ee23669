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
  * Mod-p computations happen in F_p[A]/(Phi_k mod p), p prime.  Phi_k is
    monic, so a product there is the image mod p of the product over Z.

Canonical ASCII form used by __str__ and the parsers: terms in ascending
exponent order with explicit signs, e.g. "1 - A + A^3 - A^4 + A^5 - A^7 + A^8",
and fractions wrapped as "(...)/15".

The dense kernel behind every product in a quotient has three steps:

  * Multiply.  Each factor is packed into one integer, sum c_i 2^(8wi) with
    w bytes per coefficient, and CPython multiplies the two (Kronecker
    substitution); the product's coefficients are read back from its bytes.
  * Fold.  A^k = 1 folds the product to degree < k.
  * Divide.  The reversed quotient by Phi_k is the reversed dividend times
    the reciprocal series of rev(Phi_k), one more packed product (Barrett).
    Phi_k and that series (integral, as Phi_k is monic) are one Moebius
    product of binomials 1 - A^d, truncated, and are cached per order.

Operands with few nonzero coefficients keep the schoolbook convolution and
the long division, which skip zeros; one constant per step picks the path
from the operands' sizes.  reduce folds and divides.  The remainder by Phi_k
is unique, so every path gives the same representative.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import re
from typing import Iterable, Mapping, Sequence, TypeVar


class OrderMismatchError(ArithmeticError):
    """Raised when elements of Z[A^{+-1}]/(Phi_j) and /(Phi_k), j != k, are mixed."""


class NotAUnitError(ArithmeticError):
    """Raised when inversion needs a denominator prime outside the allowed set."""


class DenominatorNotInvertibleError(ArithmeticError):
    """Raised when a denominator vanishes mod p, so no mod-p reduction exists."""


class RecursionBudgetExceeded(RuntimeError):
    """Raised when an input outgrows a work budget: a ring of degree phi(k), a J."""


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


# The packed-integer paths cost about this many of the Python loops' term
# products per coefficient they pack; below that the loops are faster.
_KRONECKER_WORK_RATIO = 8  # term products of the convolution, a * b
_BARRETT_WORK_RATIO = 16  # term products of the long division by Phi_k


def _ones(w: int, n: int) -> int:
    """sum 2^(8wi) for i < n: a one in each of n digits of w bytes."""
    return ((1 << (8 * w * n)) - 1) // ((1 << (8 * w)) - 1)


def _pack(c: Sequence[int], w: int) -> int:
    """sum c_i 2^(8wi) for signed digits |c_i| < 2^(8w-1), joined as biased bytes."""
    bias = 1 << (8 * w - 1)
    raw = b"".join((x + bias).to_bytes(w, "little") for x in c)
    return int.from_bytes(raw, "little") - bias * _ones(w, len(c))


def _unpack(x: int, w: int, n: int = 0) -> list[int]:
    """The n (0: all) low signed digits of x = sum c_i 2^(8wi), |c_i| < 2^(8w-1)."""
    n = n or abs(x).bit_length() // (8 * w) + 2
    bias = 1 << (8 * w - 1)
    raw = ((x + bias * _ones(w, n)) & ((1 << (8 * w * n)) - 1)).to_bytes(w * n, "little")
    return [int.from_bytes(raw[i : i + w], "little") - bias for i in range(0, w * n, w)]


def _kronecker(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The first n coefficients of a * b, from one product of packed integers.

    Each operand becomes sum c_i 2^(8wi) with w bytes per coefficient, wide
    enough for every coefficient of a, b and the product (Kronecker
    substitution; Harvey, JSC 2009), so CPython's Karatsuba does the
    convolution. Adding a bias of 2^(8w-1) to every digit makes them all
    nonnegative, so the product unpacks by slicing its bytes.
    """
    ba, bb = max(map(abs, a)).bit_length(), max(map(abs, b)).bit_length()
    w = max(ba + bb + min(len(a), len(b)).bit_length(), ba, bb) // 8 + 1
    return _unpack(_pack(a, w) * _pack(b, w), w, n)


def _mul_mod_phi(a: Sequence[int], b: Sequence[int], k: int) -> tuple[int, ...]:
    """Dense a * b mod Phi_k over Z, padded to phi(k) coefficients.

    Phi_k divides A^k - 1, so the product mod A^k - 1 has the same remainder.
    """
    return _mod_phi(_cyclic_mul(a, b, k), k)


def _cyclic_mul(a: Sequence[int], b: Sequence[int], k: int) -> list[int]:
    """Dense a * b in Z[A]/(A^k - 1): the product folded to at most k coefficients."""
    n = len(a) + len(b) - 1
    b_terms = [(j, cb) for j, cb in enumerate(b) if cb]
    if (len(a) - a.count(0)) * len(b_terms) >= _KRONECKER_WORK_RATIO * (len(a) + len(b)):
        conv = _kronecker(a, b, n)
    else:
        conv = [0] * n
        for i, ca in enumerate(a):
            if ca:
                for j, cb in b_terms:
                    conv[i + j] += ca * cb
    folded = conv[:k]  # A^k = 1
    for start in range(k, n, k):
        chunk = conv[start : start + k]
        folded[: len(chunk)] = [x + y for x, y in zip(folded, chunk)]
    return folded


def _mod_phi(f: list[int], k: int) -> tuple[int, ...]:
    """f mod Phi_k over Z, deg f < k, padded to phi(k) coefficients.

    A long quotient comes from the reciprocal series of Phi_k (Barrett; von
    zur Gathen and Gerhard, Modern Computer Algebra, 9.1): its reversal is
    rev(f) / rev(Phi_k) mod A^m. As Phi_k is monic, all of it stays over Z,
    and the quotient and remainder over F_p are the images of those over Z.
    """
    phi = _phi_dense(k)
    d = len(phi) - 1
    f = _trim(f)
    m = len(f) - d  # the quotient's length
    if m * (len(phi) - phi.count(0)) < _BARRETT_WORK_RATIO * (m + d):
        rem = _divmod(f, phi)[1]
    else:
        quo = _kronecker(f[d:][::-1], _phi_reciprocal(k)[:m], m)[::-1]
        rem = _trim([x - y for x, y in zip(f, _kronecker(quo, phi[:d], d))])
    return tuple(rem) + (0,) * (d - len(rem))


_PHI_BUDGET = 1 << 15  # the ring-size budget on phi(k); phi(30031) = 29464 is within it


def _binomial_product(k: int, n: int, sign: int) -> list[int]:
    """The product over squarefree e | k of (1 - A^(k/e))^(sign * mu(e)) mod A^n.

    Each factor is one pass: a product by 1 - A^d, or over it, a running sum.
    """
    out = [1] + [0] * (n - 1)
    primes = sorted(prime_factors(k))
    for r in range(len(primes) + 1):
        for e in itertools.combinations(primes, r):
            d = k // math.prod(e)
            if sign * (-1) ** r > 0:  # sign * mu(e) = 1: times 1 - A^d
                out[d:] = [x - y for x, y in zip(out[d:], out)]
            else:  # over 1 - A^d
                for i in range(d, n):
                    out[i] += out[i - d]
    return out


@functools.cache
def _phi_dense(k: int) -> tuple[int, ...]:
    """Dense coefficients of Phi_k, from the Moebius product of its radical m.

    Phi_m = the product over squarefree e | m of (1 - A^(m/e))^mu(e) for
    m > 1, a polynomial of degree phi(m), so the series to A^(phi(m) + 1)
    is all of it; then Phi_k(A) = Phi_m(A^(k/m)). A degree phi(k) over
    _PHI_BUDGET raises RecursionBudgetExceeded.
    """
    if k < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {k}")
    if k > 2 * _PHI_BUDGET**2:  # phi(k) >= sqrt(k/2), so no need to factor k
        raise RecursionBudgetExceeded(f"order {k} is past the budget phi(k) <= {_PHI_BUDGET}")
    primes = prime_factors(k)
    m, phi_m = math.prod(primes), math.prod(p - 1 for p in primes)
    degree = k // m * phi_m
    if degree > _PHI_BUDGET:
        raise RecursionBudgetExceeded(f"Phi_{k} has degree {degree}, budget is {_PHI_BUDGET}")
    if k == 1:
        return (-1, 1)
    out = [0] * (degree + 1)
    out[:: k // m] = _binomial_product(m, phi_m + 1, 1)
    return tuple(out)


@functools.cache
def _phi_reciprocal(k: int) -> tuple[int, ...]:
    """1 / rev(Phi_k) mod A^(k - phi(k)), k >= 2: an integer series, as Phi_k is monic.

    rev(Phi_k) = Phi_k, the Moebius product that _phi_dense truncates, so
    the series is the same product with every exponent negated.
    """
    return tuple(_binomial_product(k, k - euler_phi(k), -1))


def euler_phi(k: int) -> int:
    return len(_phi_dense(k)) - 1


# ---------------------------------------------------------------------------
# the operators every ring element type shares

_R = TypeVar("_R", bound="_RingOps")


class _RingOps:
    """Reflected, difference, power and comparison operators of a ring element type.

    A subclass supplies _coerced (same-ring operand or int to an element,
    None otherwise), _canonical, __add__, __neg__ and __mul__ in its own
    body; the rest follows from those. The unit is _coerced(1). Products go
    through attribute lookup of __mul__, so a wrapper set on the class (as
    perfbench/tracer.py does) sees every one of them.

    Equality coerces as arithmetic does. Among ring values (LaurentPoly,
    CycloElem, CycloFraction, ModCycloElem, MooValue), == is an equivalence
    that agrees with hash; elements of different orders or moduli are
    unequal, though mixing them in arithmetic raises. An int is the only
    bridge: it equals the constant of every order and of every residue class
    mod p, so == through an int is not transitive, by design. _canonical is
    the int for a constant element, so such an element hashes like that int
    (mod p, like its representative in [0, p)).
    """

    __slots__ = ()

    def __radd__(self: _R, other: object) -> _R:
        return self.__add__(other)

    def __sub__(self: _R, other: object) -> _R:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self: _R, other: object) -> _R:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __rmul__(self: _R, other: object) -> _R:
        return self.__mul__(other)

    def __eq__(self, other: object) -> bool:
        try:
            o = self._coerced(other)
        except OrderMismatchError:
            return False
        if o is None:
            return NotImplemented
        return self._canonical() == o._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __pow__(self: _R, n: int) -> _R:
        """self**n, n >= 0, in bit_length(n) - 1 squarings and popcount(n) - 1 products."""
        if n < 0:
            raise ValueError(f"negative power of a {type(self).__name__}; use CycloFraction")
        result = self if n else self._coerced(1)
        for bit in bin(n)[3:]:  # the bits after the leading one, high to low
            result = result * result
            if bit == "1":
                result = result * self
        return result


class _Record:
    """An immutable record whose fields are the names in its class's __slots__.

    Equality is field-wise within one type, and hash, repr and pickling
    follow the fields. Fields are set once, with object.__setattr__; the
    generic __init__ takes them positionally.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields()  # __setattr__ refuses the default restore


# ---------------------------------------------------------------------------
# Laurent polynomials over Z


class LaurentPoly(_RingOps):
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

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in self._terms.items()})

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

    def subst_power(self, t: int) -> LaurentPoly:
        """A |-> A^t (t nonzero), e.g. t = -1 is the mirror/conjugation map."""
        if t == 0:
            raise ValueError("substitution exponent must be nonzero")
        return LaurentPoly({e * t: c for e, c in self._terms.items()})

    def conjugate(self) -> LaurentPoly:
        return self.subst_power(-1)

    def evaluate(self, z: complex) -> complex:
        return sum(c * z**e for e, c in self._terms.items())

    def _canonical(self) -> int | tuple:
        if self._terms.keys() <= {0}:
            return self._terms.get(0, 0)
        return self.terms()

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


class CycloElem(_RingOps, _Record):
    """Canonical representative in Z[A^{+-1}]/(Phi_order), degree < phi(order)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
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
                raise OrderMismatchError(f"cannot mix orders {self.order} and {other.order}")
            return other
        if isinstance(other, int):
            return CycloElem(self.order, (other,) + (0,) * (len(self.coeffs) - 1))
        return None

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def _canonical(self) -> int | tuple:
        return self.coeffs[0] if not any(self.coeffs[1:]) else (self.order, self.coeffs)

    def __add__(self, other: object) -> CycloElem:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return CycloElem(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self) -> CycloElem:
        return CycloElem(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other: object) -> CycloElem:
        if isinstance(other, int):
            return CycloElem(self.order, tuple(c * other for c in self.coeffs))
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return CycloElem(self.order, _mul_mod_phi(self.coeffs, o.coeffs, self.order))

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
    _phi_dense(order)  # the ring-size budget, before the fold allocates order terms
    dense = [0] * order
    for e, c in poly.terms():
        dense[e % order] += c
    return CycloElem(order, _mod_phi(dense, order))


# ---------------------------------------------------------------------------
# localizations: elem / positive integer


class CycloFraction(_RingOps):
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
                raise OrderMismatchError(f"cannot mix orders {self.order} and {other.order}")
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

    def __neg__(self) -> CycloFraction:
        return CycloFraction(-self.num, self.den)

    def __mul__(self, other: object) -> CycloFraction:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return CycloFraction(self.num * o.num, self.den * o.den)

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

    def _canonical(self) -> int | tuple:
        num = self.num._canonical()
        return num if self.den == 1 else (num, self.den)

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
        rest = result.den
        for q in allowed_primes:  # divide the allowed primes out, factor nothing
            while q > 1 and rest % q == 0:
                rest //= q
        if rest != 1:
            raise NotAUnitError(f"inverse needs the denominator factor {rest}, not allowed")
    return result


# ---------------------------------------------------------------------------
# mod-p quotients F_p[A]/(Phi_k mod p)


class ModCycloElem(_RingOps, _Record):
    """Element of F_p[A]/(Phi_order mod p), coefficients in [0, p)."""

    __slots__ = ("order", "p", "coeffs")

    def __init__(self, order: int, p: int, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)
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

    def _canonical(self) -> int | tuple:
        if not any(self.coeffs[1:]):
            return self.coeffs[0]
        return (self.order, self.p, self.coeffs)

    def __add__(self, other: object) -> ModCycloElem:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return ModCycloElem(
            self.order, self.p,
            tuple((a + b) % self.p for a, b in zip(self.coeffs, o.coeffs)),
        )

    def __neg__(self) -> ModCycloElem:
        return ModCycloElem(self.order, self.p, tuple(-c % self.p for c in self.coeffs))

    def __mul__(self, other: object) -> ModCycloElem:
        if isinstance(other, int):
            scaled = tuple(c * other % self.p for c in self.coeffs)
            return ModCycloElem(self.order, self.p, scaled)
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        product = _mul_mod_phi(self.coeffs, o.coeffs, self.order)  # Phi_k is monic
        return ModCycloElem(self.order, self.p, tuple(c % self.p for c in product))

    def __str__(self) -> str:
        return f"{LaurentPoly(dict(enumerate(self.coeffs)))} (mod {self.p})"


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


_SPAN_BUDGET = 1 << 24  # the dense budget on a Laurent polynomial's exponent span mod p


def _laurent_mod_p_cleared(g: LaurentPoly, p: int) -> list[int]:
    """g mod p with the A-power content removed; [] iff g = 0 mod p.

    A span past _SPAN_BUDGET raises RecursionBudgetExceeded before the
    dense list is allocated.
    """
    nonzero = [(e, c % p) for e, c in g.terms() if c % p]  # sorted by exponent
    span = nonzero[-1][0] - nonzero[0][0] + 1 if nonzero else 0
    if span > _SPAN_BUDGET:
        raise RecursionBudgetExceeded(f"exponent span {span} mod {p} is past {_SPAN_BUDGET}")
    dense = [0] * span
    for e, c in nonzero:
        dense[e - nonzero[0][0]] = c
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
    r0, r1 = [c % p for c in _phi_dense(k)], _laurent_mod_p_cleared(g, p)
    if not r1:
        return ()
    while r1:  # Euclid over F_p; Phi_k is monic, so the gcd is nonzero
        r0, r1 = r1, _divmod(r0, r1, p)[1]
    inv_lead = pow(r0[-1], -1, p)
    return tuple(c * inv_lead % p for c in r0)


def laurent_ideal_membership(f: LaurentPoly, g: LaurentPoly, p: int) -> bool:
    """Decide f in (p, g) inside Z[A^{+-1}].

    Modulo p this is divisibility in F_p[A^{+-1}]; powers of A are units, so
    both are shifted to a nonzero constant term. With f = F(A^d), g = G(A^d)
    for d the gcd of their exponents, g | f over F_p exactly when G | F.
    """
    _require_prime(p)
    f_bar = _laurent_mod_p_cleared(f, p)
    if not f_bar:
        return True
    g_bar = _laurent_mod_p_cleared(g, p)
    if not g_bar:
        return False
    exponents = (i for a in (f_bar, g_bar) for i, c in enumerate(a) if c)
    d = functools.reduce(math.gcd, exponents, 0) or 1  # gcd(*...) held MBs on 3.11
    _, rem = _divmod(f_bar[::d], g_bar[::d], p)
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
    sign = None  # the sign read since the last term
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        if tok in "+-":
            if sign is not None:
                raise ValueError(f"dangling sign in {s!r}")
            sign = 1 if tok == "+" else -1
            continue
        m = _TERM_RE.match(tok.replace("~", "-"))
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"bad term {tok!r} in {s!r}")
        exponent = 0 if m.group(2) is None else int(m.group(3) or 1)
        terms.append((exponent, (sign or 1) * int(m.group(1) or 1)))
        sign = None
    if sign is not None:
        raise ValueError(f"dangling sign in {s!r}")
    return LaurentPoly(terms)


def parse_ring_element(s: str, order: int) -> CycloFraction:
    """Parse "(...)/den" or a bare polynomial into the order-k quotient."""
    m = _FRACTION_RE.match(s.strip())
    if m:
        return CycloFraction(reduce(parse_laurent(m.group("num")), order), int(m.group("den")))
    return CycloFraction(reduce(parse_laurent(s), order))


# ---------------------------------------------------------------------------
# small integer utilities


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all 13 bases above (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality for n below about 3.3e24; ValueError above.

    Trial division by the primes up to 41 settles n < 43^2; above that,
    Miller-Rabin to those same 13 bases is exact below the limit.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"primality is only decided below {_MILLER_RABIN_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):  # a strong probable prime meets -1 among x, x^2, x^4, ...
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


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
