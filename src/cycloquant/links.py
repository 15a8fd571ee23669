"""Braid closures: components, linking matrices, signatures, and the
cubic skein invariant J.

Links enter as braid words (closure implied). That keeps orientations
unambiguous, makes component bookkeeping a permutation-cycle problem,
and turns periodic lifts into word concatenation.

J is valued in the Laurent ring Z[A^(+-1)] and satisfies
    J(empty) = 1,
    J(circle union L) = (A^-6 + 1 + A^6) J(L),
    A^9 J(L+) - A^-9 J(L-) = (A^3 - A^-3) J(L0).
This is the HOMFLYPT skein relation at v = A^-9, z = A^3 - A^-3, so on
a closed braid J is a Markov trace on the Hecke algebra H_n: the word is
multiplied into H_n in a permutation basis, one letter at a time, with
each coefficient packed into one int, and the trace is taken strand by
strand. The cost is linear in the
word length. The skein recursion that switches crossings toward a
descending diagram is the oracle j_skein in tests/oracles.py, which
the tests check j_invariant against.
"""

from __future__ import annotations

import functools
from typing import Iterable, Mapping, Sequence

from .rings import LaurentPoly, RecursionBudgetExceeded, _ones, _pack, _Record, _unpack


def _is_int(x: object) -> bool:
    """True for an int, false for a bool or any other number (JSON 1.5, "3")."""
    return isinstance(x, int) and not isinstance(x, bool)


def _json_list(x: object, what: str) -> list:
    """x itself when it is a JSON array; ValueError for a number, string or object."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# braid words and framed links


class BraidWord(_Record):
    """A word in the braid group on `strands` strands.

    Letters are nonzero integers g with |g| < strands; g > 0 is the
    positive crossing of strands |g|-1 and |g| (0-indexed positions),
    g < 0 its inverse.
    """

    __slots__ = ("strands", "word")

    def __init__(self, strands: int, word: Iterable[int] = ()) -> None:
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "word", tuple(word))
        if not _is_int(self.strands) or self.strands < 1:
            raise ValueError(f"strand count must be a positive integer, got {self.strands!r}")
        for g in self.word:
            if not _is_int(g) or g == 0 or abs(g) >= self.strands:
                raise ValueError(f"letter {g!r} is not an integer 0 < |g| < {self.strands}")

    def mirror(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-g for g in self.word))

    def permutation(self) -> tuple[int, ...]:
        """Map sending each top position to its bottom position."""
        occ = list(range(self.strands))
        for g in self.word:
            i = abs(g)
            occ[i - 1], occ[i] = occ[i], occ[i - 1]
        perm = [0] * self.strands
        for bottom, top in enumerate(occ):
            perm[top] = bottom
        return tuple(perm)


def closure_components(b: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Cycles of the closure permutation, ordered by smallest strand."""
    perm = b.permutation()
    seen = [False] * b.strands
    comps = []
    for s in range(b.strands):
        if seen[s]:
            continue
        cycle = []
        t = s
        while not seen[t]:
            seen[t] = True
            cycle.append(t)
            t = perm[t]
        comps.append(tuple(cycle))
    return tuple(comps)


def _component_of(comps: Iterable[Sequence[int]]) -> dict[int, int]:
    """Strand -> index of the closure component through it."""
    return {s: idx for idx, cycle in enumerate(comps) for s in cycle}


class FramedBraidLink(_Record):
    """A braid closure with one integer framing per component."""

    __slots__ = ("braid", "framings")

    def __init__(self, braid: BraidWord, framings: Iterable[int] = ()) -> None:
        object.__setattr__(self, "braid", braid)
        object.__setattr__(self, "framings", tuple(framings))
        if not all(_is_int(f) for f in self.framings):
            raise ValueError(f"framings must be integers, got {list(self.framings)}")
        n_comps = len(closure_components(self.braid))
        if len(self.framings) != n_comps:
            raise ValueError(
                f"framing vector has length {len(self.framings)}, "
                f"closure has {n_comps} components"
            )

    @classmethod
    def from_dict(cls, data: Mapping) -> "FramedBraidLink":
        try:
            braid = BraidWord(data["strands"], tuple(_json_list(data["word"], "word")))
        except KeyError as exc:
            raise ValueError(f"braid JSON is missing key {exc}") from exc
        framings = data.get("framings")
        if framings is None:
            framings = [0] * len(closure_components(braid))
        return cls(braid, tuple(_json_list(framings, "framings")))

    def to_dict(self) -> dict:
        return {
            "strands": self.braid.strands,
            "word": list(self.braid.word),
            "framings": list(self.framings),
        }


# ---------------------------------------------------------------------------
# linking matrices


class LinkingMatrix(_Record):
    """A symmetric integer matrix (framings on the diagonal)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable[int]]) -> None:
        object.__setattr__(self, "entries", tuple(tuple(row) for row in entries))
        m = len(self.entries)
        for row in self.entries:
            if len(row) != m:
                raise ValueError("matrix must be square")
            if not all(_is_int(x) for x in row):
                raise ValueError(f"matrix entries must be integers, got {list(row)}")
        for i in range(m):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("matrix must be symmetric")

    @classmethod
    def from_dict(cls, data: Mapping) -> "LinkingMatrix":
        if "matrix" not in data:
            raise ValueError('matrix JSON is missing key "matrix"')
        rows = _json_list(data["matrix"], "matrix")
        return cls(_json_list(row, "matrix row") for row in rows)

    def to_dict(self) -> dict:
        return {"matrix": [list(row) for row in self.entries]}

    @property
    def size(self) -> int:
        return len(self.entries)

    def rows(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def _as_matrix(matrix: LinkingMatrix | Iterable[Iterable[int]]) -> LinkingMatrix:
    if isinstance(matrix, LinkingMatrix):
        return matrix
    return LinkingMatrix(matrix)


def linking_matrix(link: FramedBraidLink) -> LinkingMatrix:
    """Pairwise linking numbers of the closure, framings on the diagonal.

    Each inter-component linking number is half the signed count of
    crossings between the two components, which is even for closed
    braids.
    """
    b = link.braid
    comps = closure_components(b)
    comp_of = _component_of(comps)
    m = len(comps)
    inter = [[0] * m for _ in range(m)]
    occ = list(range(b.strands))
    for g in b.word:
        i = abs(g)
        a, c = occ[i - 1], occ[i]
        sign = 1 if g > 0 else -1
        ca, cc = comp_of[a], comp_of[c]
        if ca != cc:
            inter[ca][cc] += sign
            inter[cc][ca] += sign
        occ[i - 1], occ[i] = occ[i], occ[i - 1]
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            if i == j:
                row.append(link.framings[i])
            else:
                half, rem = divmod(inter[i][j], 2)
                if rem:
                    raise ArithmeticError("odd inter-component crossing count")
                row.append(half)
        rows.append(row)
    return LinkingMatrix(rows)


# ---------------------------------------------------------------------------
# exact signature


class SigTriple(_Record):
    __slots__ = ("sigma_plus", "sigma_minus", "nullity")
    sigma_plus: int
    sigma_minus: int
    nullity: int


def _symmetric_eliminate(
    rows: list[list[int]], q: int = 0, p: int = 0
) -> tuple[list[int], list[list[int]]]:
    """Diagonalize the quadratic form l -> l^T C l by symmetric elimination.

    Over Q (q = 0) it pivots on nonzero entries, fraction-free: after
    each step the block holds the Schur complement times the last pivot
    (Bareiss), so every division is exact, and the pivot recorded is
    the product of the last two, which has the sign of the rational
    pivot. Over Z/q for q = p^e, p odd, it pivots on units mod p and
    records them. Where no diagonal entry will do, l_i -> l_i + l_j
    makes one from an off-diagonal entry.

    Returns the pivots and the residual block on which no pivot exists:
    zero over Q, divisible by p over Z/q.
    """

    def usable(x: int) -> bool:
        return x % p != 0 if p else x != 0

    c = [[x % q if q else x for x in row] for row in rows]
    pivots: list[int] = []
    prev = 1
    while c:
        m = len(c)
        i = next((i for i in range(m) if usable(c[i][i])), None)
        if i is None:
            off = next(
                ((i, j) for i in range(m) for j in range(i + 1, m) if usable(c[i][j])),
                None,
            )
            if off is None:
                return pivots, c
            i, j = off
            # substituting l_i -> l_i + l_j makes position (i,i) usable:
            # it becomes c_ii + 2 c_ij + c_jj with only 2 c_ij usable
            for k in range(m):
                c[i][k] += c[j][k]
            for k in range(m):
                c[k][i] += c[k][j]
        a = c[i][i] % q if q else c[i][i]
        rest = [k for k in range(m) if k != i]
        if q:
            inv_a = pow(a, -1, q)
            c = [[(c[r][s] - c[i][r] * c[i][s] * inv_a) % q for s in rest] for r in rest]
            pivots.append(a)
        else:
            c = [[(a * c[r][s] - c[i][r] * c[i][s]) // prev for s in rest] for r in rest]
            pivots.append(a * prev)
            prev = a
    return pivots, c


def signature_counts(matrix: LinkingMatrix | Iterable[Iterable[int]]) -> SigTriple:
    """Exact inertia (positive, negative, zero eigenvalue counts).

    By Sylvester's law of inertia these are the signs of the pivots of
    a symmetric elimination over Q, and the nullity is the size of the
    zero block left when no pivot remains.
    """
    pivots, residual = _symmetric_eliminate(_as_matrix(matrix).rows())
    plus = sum(1 for a in pivots if a > 0)
    return SigTriple(plus, len(pivots) - plus, len(residual))


# ---------------------------------------------------------------------------
# the J invariant

# Production path: J of the closure of b is the Markov trace of b's image
# in the Hecke algebra H_n. The skein relation at one crossing reads
#     T_i = A^-18 T_i^-1 + (A^-6 - A^-12),   T_i^-1 = A^18 T_i + (A^6 - A^12).
# In q = A^6 and S_i = q^2 T_i it is S_i^2 = (q - 1) S_i + q, or
# q S_i^-1 = S_i - q + 1. An element of H_n is a dict from permutation w
# (a tuple, w[k] the image of k) to its coefficient on S_w: a polynomial
# in q, held as one int, its value at q = 2^bits (Kronecker substitution),
# times a power of q for the whole element.

_LOOP_TERMS = ((-1, 1), (0, 1), (1, 1))  # a closed loop counts q^-1 + 1 + q
# terms x strands^2 bounds the work of a trace step; the full twist on
# 7 strands reaches all 7! terms and sits exactly at the budget
_WORK_BUDGET = 5040 * 7**2
_STRAND_BUDGET = 64  # sigma_1 ... sigma_63 closes in 5 ms; that chain costs O(n^3)
_START_BITS = 64  # bits a digit, until a bound on the digits outgrows them
_HEADROOM_BITS = 32  # the digit growth a new bound or width leaves room for


def _within_budget(elem: dict) -> dict:
    n = len(next(iter(elem), ()))
    if len(elem) * n * n > _WORK_BUDGET:
        raise RecursionBudgetExceeded(
            f"Hecke element has {len(elem)} terms on {n} strands; "
            f"terms x strands^2 is budgeted at {_WORK_BUDGET}"
        )
    return elem


def _fit(elem: dict, bits: int, growth: int, frame: int) -> tuple:
    """(elem, bits, bound, frame) once a bound on the digits times growth outgrows bits.

    The zero digits that every coefficient ends in move to the frame. Then
    |digit| <= 2^t is tried for two t with headroom: it holds exactly when
    adding 2^t to every digit leaves its bits above t clear. Failing both,
    the digits are repacked at a width from their actual size.
    """
    k = min((((c & -c).bit_length() - 1) // bits for c in elem.values()), default=0)
    elem, frame = {w: c >> bits * k for w, c in elem.items()}, frame + k
    room = bits - 1 - growth.bit_length() - _HEADROOM_BITS
    if elem and room >= 0:
        ones = _ones(bits // 8, max(abs(c).bit_length() for c in elem.values()) // bits + 2)
        for t in (room // 2, room):  # the smaller bound leaves more headroom
            high = ones * ((1 << bits) - (2 << t))  # bits t+1 .. bits-1 of every digit
            if not any((c + (ones << t)) & high for c in elem.values()):
                return elem, bits, growth << t, frame
    digits = {w: _unpack(c, bits // 8) for w, c in elem.items()}
    bound = growth * max((abs(x) for d in digits.values() for x in d), default=0)
    top = bound.bit_length()  # headroom grows with the digits, up to 256 bits
    bits = 8 + 8 * ((top + min(_HEADROOM_BITS + top // 2, 256)) // 8)
    return {w: _pack(d, bits // 8) for w, d in digits.items()}, bits, bound, frame


def _times_letter(elem: dict, g: int, bits: int) -> dict:
    """elem * S_g for g > 0, elem * q S_{-g}^-1 for g < 0."""
    i = abs(g)
    up = g > 0
    stay = 0 if up else bits
    out = {}
    for w, c in elem.items():
        ws = list(w)
        ws[i - 1], ws[i] = w[i], w[i - 1]
        ws = tuple(ws)
        if (w[i - 1] < w[i]) == up:
            # S_w S_i = S_ws when the length goes up, and q S_w S_i^-1 = q S_ws
            # when it goes down; if ws carries a term of its own, the pair
            # is handled from ws's side
            if ws not in elem:
                out[ws] = c << stay
            continue
        # otherwise S_w S_i = (q - 1) S_w + q S_ws, or q S_w S_i^-1 =
        # (1 - q) S_w + S_ws, and the term on ws moves onto w
        t = c << bits
        acc = (elem.get(ws, 0) << stay) + (t - c if up else c - t)
        if acc:
            out[w] = acc
        out[ws] = t if up else c
    return _within_budget(out)


@functools.lru_cache(maxsize=1 << 15)
def _markov(w: tuple[int, ...]) -> tuple:
    """tr_n(S_w) as tr_{n-1} of an element of H_{n-1}.

    Returns (lowest exponent, l1 norm, (v, terms) pairs), a term (d, f)
    standing for f q^d. If w fixes the last strand, S_w lies in H_{n-1}
    and the strand closes to a loop. Otherwise w = c u with
    c = s_{j+1} ... s_{n-1} reduced, j = w[n-1] and u fixing the last strand, so
    tr_n(S_w) = tr_n(S_{j+1} ... S_{n-1} S_u) = q^2 tr_{n-1}(S_u S_{j+1} ... S_{n-2})
    by cyclicity and tr_n(x T_{n-1}) = tr_{n-1}(x), which holds because J
    does not depend on framing.
    """
    n = len(w)
    j = w[-1]
    u = tuple(x - (x > j) for x in w[:-1])
    if j == n - 1:
        return -1, 3, ((u, _LOOP_TERMS),)
    bits = 8 * ((n - 2 - j) // 4 + 1)  # n - 2 - j letters, each at most tripling a digit
    elem = {u: 1}
    for g in range(j + 1, n - 1):
        elem = _times_letter(elem, g, bits)
    entries = tuple(
        (v, tuple((i + 2, f) for i, f in enumerate(_unpack(c, bits // 8)) if f))
        for v, c in elem.items()
    )
    terms = [t for _, ts in entries for t in ts]
    return min(terms)[0], sum(abs(f) for _, f in terms), entries


def j_invariant(b: BraidWord) -> LaurentPoly:
    """J of the closure of b, as an exact Laurent polynomial.

    Multiplies T_g (T_{-g}^-1 for a negative letter) into H_n one letter
    at a time, then takes the Markov trace, normalised so that a closed
    loop counts [3] = A^-6 + 1 + A^6. The cost is linear in word length
    times the number of basis terms, and each term costs O(n^2) in the
    trace. An intermediate element whose terms times strands^2 exceed
    7! * 7^2 raises RecursionBudgetExceeded, so every braid on at most
    7 strands is answered; a braid on more than 64 strands is refused
    before any work.

    A coefficient is one packed int, so a letter is a few shifts and adds
    per basis term. The digit width follows a proven bound: a letter at
    most triples a digit, a trace step multiplies it by at most the l1 norm
    of the Markov terms it applies. Past the width, a smaller bound is
    proven from the ints, or the digits are repacked at their actual size.
    """
    n = b.strands
    if n > _STRAND_BUDGET:
        raise RecursionBudgetExceeded(f"braid has {n} strands, budget is {_STRAND_BUDGET}")
    # T_g = q^-2 S_g and T_g^-1 = q (q S_g^-1); q^frame is what digit 0 stands for
    frame = sum(-2 if g > 0 else 1 for g in b.word)
    elem, bits, bound = {tuple(range(n)): 1}, _START_BITS, 1
    for g in b.word:
        bound *= 3
        if bound >> (bits - 1):
            elem, bits, bound, frame = _fit(elem, bits, 3, frame)
        elem = _times_letter(elem, g, bits)
    for _ in range(n):  # the Markov trace, one strand at a time
        # a Markov exponent is -1 (a loop) or at least 2 (q^2 times a product of S_i)
        marks, lo, growth = [], 2, 0
        for w in elem:  # a loop, not comprehensions: this runs once a strand
            marks.append(_markov(w))
            lo, growth = min(lo, marks[-1][0]), growth + marks[-1][1]
        bound *= growth
        if bound >> (bits - 1):
            elem, bits, bound, frame = _fit(elem, bits, growth, frame)
        out: dict = {}
        for c, (_, _, entries) in zip(elem.values(), marks):
            for v, terms in entries:
                acc = out.get(v, 0)
                for d, f in terms:
                    acc += (c if f == 1 else f * c) << bits * (d - lo)
                out[v] = acc
        elem = _within_budget(out if all(out.values()) else {v: c for v, c in out.items() if c})
        frame += lo
    digits = _unpack(elem.get((), 0), bits // 8)
    return LaurentPoly({6 * (frame + i): x for i, x in enumerate(digits) if x})


# ---------------------------------------------------------------------------
# periodic lifts


def periodic_lift(b: BraidWord, p: int) -> BraidWord:
    """The p-fold cyclic lift of the closure: the word repeated p times."""
    if p < 1:
        raise ValueError("lift order must be >= 1")
    return BraidWord(b.strands, b.word * p)


def lift_component_rotation(b: BraidWord, p: int) -> tuple[int, ...]:
    """How the deck rotation permutes the lift's components.

    Entry c is the index of the component that component c of the lift
    closure maps to under a one-block rotation.
    """
    comps = closure_components(periodic_lift(b, p))
    comp_of = _component_of(comps)
    perm = b.permutation()
    return tuple(comp_of[perm[cycle[0]]] for cycle in comps)


class StrongPeriodicityResult(_Record):
    __slots__ = ("satisfied", "lift")
    satisfied: bool
    lift: FramedBraidLink


def strong_periodicity_check(
    b: BraidWord, p: int, framings: Sequence[int]
) -> StrongPeriodicityResult:
    """Test whether the p-fold lift of the closure is strongly periodic.

    Builds the lift and checks that every lifted component's linking
    number with the braid axis (its strand count) is divisible by p.
    Note that in the braid model every component links the axis at
    least once, so a quotient made of split unknotted strands never
    passes for p >= 2.

    The lift's framings follow from the transfer identity. Let the
    quotient component K have framing f, and let K_1, ..., K_m be its
    lifts. The preimage of a parallel of K is the parallels of the K_i,
    and a linking number pulls back to p times itself, so the sum of
    lk(K_i, K_j) over all i, j is p * f, and by the rotation every row
    sum over the fibre is f. Each K_i therefore gets the framing
    f - sum of lk(K_i, K_j) over the other lifts K_j of K. With the
    quotient's framing instead, the two linking matrices are not a
    Theorem 5.1 pair, and check_thm_5_1 falsely obstructs many of them.
    """
    if p < 2:
        raise ValueError("periodicity order must be >= 2")
    quotient_comps = closure_components(b)
    if len(framings) != len(quotient_comps):
        raise ValueError("framing vector length must match quotient components")
    framings = FramedBraidLink(b, framings).framings  # integers only
    q_comp_of = _component_of(quotient_comps)
    lift = periodic_lift(b, p)
    lift_comps = closure_components(lift)
    fibre = [q_comp_of[cycle[0]] for cycle in lift_comps]
    lk = linking_matrix(FramedBraidLink(lift, [0] * len(lift_comps))).rows()
    lifted_framings = tuple(
        framings[c] - sum(lk[i][j] for j, d in enumerate(fibre) if d == c and j != i)
        for i, c in enumerate(fibre)
    )
    ok = all(len(cycle) % p == 0 for cycle in lift_comps)
    return StrongPeriodicityResult(ok, FramedBraidLink(lift, lifted_framings))

