"""The abelian surgery invariant Z_N computed from linking matrices.

Z_N depends on a surgery presentation only through its linking matrix B:

    Z_N = N^(-b1/2) * bracket(B) * G_N^(-sigma_plus) * conj(G_N)^(-sigma_minus)

where bracket(B) is the exponential sum of the quadratic form l -> l^T B l
over (Z/N)^m, G_N is the quadratic Gauss sum of length N, and
(sigma_plus, sigma_minus, b1) is the exact inertia of B. For odd N,
conj(G_N) = chi G_N and G_N^2 = chi N with chi = (-1/N) (Ireland and
Rosen, ch. 6), so with rank r the G_N factors are a sign, G_N^(r mod 2)
and N^-ceil(r/2). The half power of N from b1 is carried symbolically.

bracket_sum enumerates all N^m vectors and is the semantic definition,
kept as the test oracle. moo_fast diagonalizes the form over each
prime-power factor q = p^e of N and multiplies one-variable sums
instead. A block with no unit pivot is p times a form C', and its sum
over l mod p^e is p^k times the sum of the scaled form p C' over
l mod p^(e-1) (Jordan splitting), so the elimination goes on at the
lower power and no path enumerates vectors. With step = N/q, every
exponent of p's sums is a multiple of step (CRT), so they are
polynomials in B = A^step with B^q = 1: they are multiplied in
Z[B]/(B^q - 1), at most q coefficients, and each prime's product is
reduced mod Phi_N once.
"""

from __future__ import annotations

from typing import Iterable

from .gauss import gauss_sum
from .links import LinkingMatrix, _as_matrix, _symmetric_eliminate, signature_counts
from .rings import CycloElem, CycloFraction, LaurentPoly, _Record, prime_factors, reduce
from .rings import _cyclic_mul

# ---------------------------------------------------------------------------
# the value type


class MooValue(_Record):
    """An exact invariant value: `value * N^(-half_power/2)`.

    Even powers of sqrt(N) are folded into the fraction, so half_power
    is always 0 or 1 after construction; it equals b1 mod 2 for values
    coming from a linking matrix with nullity b1.
    """

    __slots__ = ("value", "half_power")

    def __init__(self, value: CycloFraction, half_power: int = 0) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "half_power", half_power)
        if self.half_power < 0:
            raise ValueError("half_power must be nonnegative")
        value, s = self.value, self.half_power
        value = CycloFraction(value.num, value.den * value.order ** (s // 2))
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "half_power", s % 2)

    @property
    def order(self) -> int:
        return self.value.order

    def _coerced(self, other):
        if isinstance(other, MooValue):
            return other
        if isinstance(other, (CycloFraction, CycloElem, int)):
            return MooValue(self.value._coerced(other), 0)
        return None

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return MooValue(self.value * other.value, self.half_power + other.half_power)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (MooValue, CycloFraction, CycloElem)):
            if other.order != self.order:
                return False  # as for the ring elements; arithmetic still raises
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self.value == other.value and self.half_power == other.half_power

    def __hash__(self):
        # equal to its value when half_power is 0, so hashed like it
        if self.half_power == 0:
            return hash(self.value)
        return hash((self.value, self.half_power))

    def galois(self, t: int) -> "MooValue":
        # the formal sqrt(N) is fixed; only the ring part moves
        return MooValue(self.value.galois(t), self.half_power)

    def to_complex(self, which_root: int = 1) -> complex:
        return self.value.to_complex(which_root) * self.order ** (-self.half_power / 2)

    def __str__(self) -> str:
        if self.half_power == 0:
            return str(self.value)
        return f"{self.value} * {self.order}^(-1/2)"


# ---------------------------------------------------------------------------
# the defining sum


def _require_odd(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError("the invariant is defined for odd N >= 3")


def bracket_sum(matrix: LinkingMatrix | Iterable[Iterable[int]], n: int) -> CycloElem:
    """Sum of A^(l^T B l) over all l in (Z/N)^m, exactly.

    Every one of the N^m vectors is visited: the first m - 1 coordinates
    by recursion, carrying the value so far and the cross terms it leaves
    on the later coordinates, and the last coordinate by one loop.
    """
    _require_odd(n)
    b = _as_matrix(matrix)
    m = b.size
    rows = [[x % n for x in row] for row in b.rows()]
    counts = [0] * n

    def descend(i: int, lin: list[int], val: int) -> None:
        d = rows[i][i]
        if i == m - 1:
            two_lin = 2 * lin[i]
            for x in range(n):
                counts[(val + (d * x + two_lin) * x) % n] += 1
            return
        for x in range(n):
            new_val = (val + (d * x + 2 * lin[i]) * x) % n
            new_lin = [(lin[j] + rows[i][j] * x) % n for j in range(m)]
            descend(i + 1, new_lin, new_val)

    if m:
        descend(0, [0] * m, 0)
    else:
        counts[0] = 1
    return reduce(LaurentPoly({e: c for e, c in enumerate(counts) if c}), n)


def _assemble(bracket: CycloElem, matrix: LinkingMatrix, n: int) -> MooValue:
    sig = signature_counts(matrix)
    r = sig.sigma_plus + sig.sigma_minus
    # conj(G_N) = chi G_N and G_N^2 = chi N with chi = (-1/N), so
    # conj(G_N)^s+ G_N^s- / N^r = chi^(s+ + r//2) G_N^(r mod 2) / N^ceil(r/2)
    num = bracket * gauss_sum(1, n, n) if r % 2 else bracket
    num = num * (-1 if n % 4 == 3 else 1) ** (sig.sigma_plus + r // 2)
    return MooValue(CycloFraction(num, n ** ((r + 1) // 2)), sig.nullity)


def moo_invariant(matrix: LinkingMatrix | Iterable[Iterable[int]], n: int) -> MooValue:
    """The invariant by direct enumeration of the defining sum."""
    _require_odd(n)
    b = _as_matrix(matrix)
    return _assemble(bracket_sum(b, n), b, n)


# ---------------------------------------------------------------------------
# fast path: CRT plus symmetric elimination and p-adic splitting


def _bracket_fast(matrix: LinkingMatrix, n: int) -> CycloElem:
    total = CycloElem.one(n)
    weight = 1
    for p in sorted(prime_factors(n)):
        q = p
        while n % (q * p) == 0:
            q *= p
        step = n // q
        # the idempotent step * s is 1 mod q and 0 mod step, so every term
        # is a power of B = A^step, and B^q = 1
        s = pow(step, -1, q)
        rows = matrix.rows()
        part = [1] + [0] * (q - 1)
        level = q
        while rows and level > 1:
            pivots, rows = _symmetric_eliminate(rows, level, p)
            for a in pivots:
                g, c = [0] * q, s * a % q
                for x in range(level):
                    g[c * x * x % q] += 1
                part = _cyclic_mul(part, g, q)
            # the residual is p C' for a form C', and s * level = 0 mod q,
            # so the sum over l mod level is p^k times the sum of
            # B^(s p l^T C' l) over l mod level/p
            rows = [[x // p for x in row] for row in rows]
            weight *= p ** len(rows)
            level //= p
            s *= p
        total = total * reduce(LaurentPoly(zip(range(0, n, step), part)), n)
    return total * weight


def moo_fast(matrix: LinkingMatrix | Iterable[Iterable[int]], n: int) -> MooValue:
    """Same value as moo_invariant, via per-prime-power diagonalization."""
    _require_odd(n)
    b = _as_matrix(matrix)
    return _assemble(_bracket_fast(b, n), b, n)

