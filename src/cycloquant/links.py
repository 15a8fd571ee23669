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
multiplied into H_n in the permutation basis T_w, one letter at a time,
and the trace is taken strand by strand. The cost is linear in the
word length. The skein recursion that switches crossings toward a
descending diagram is kept as j_skein, the oracle the tests check
j_invariant against.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Iterable, Mapping, Sequence

from .rings import LaurentPoly


class RecursionBudgetExceeded(RuntimeError):
    """Raised when a J evaluation outgrows its budget."""


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


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on `strands` strands.

    Letters are nonzero integers g with |g| < strands; g > 0 is the
    positive crossing of strands |g|-1 and |g| (0-indexed positions),
    g < 0 its inverse.
    """

    strands: int
    word: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", tuple(self.word))
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


@dataclasses.dataclass(frozen=True)
class FramedBraidLink:
    """A braid closure with one integer framing per component."""

    braid: BraidWord
    framings: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "framings", tuple(self.framings))
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


@dataclasses.dataclass(frozen=True)
class LinkingMatrix:
    """A symmetric integer matrix (framings on the diagonal)."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(tuple(row) for row in self.entries))
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
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "LinkingMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def from_dict(cls, data: Mapping) -> "LinkingMatrix":
        if "matrix" not in data:
            raise ValueError('matrix JSON is missing key "matrix"')
        rows = _json_list(data["matrix"], "matrix")
        return cls.from_rows(_json_list(row, "matrix row") for row in rows)

    def to_dict(self) -> dict:
        return {"matrix": [list(row) for row in self.entries]}

    @property
    def size(self) -> int:
        return len(self.entries)

    def rows(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


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
    return LinkingMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# exact signature


@dataclasses.dataclass(frozen=True)
class SigTriple:
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
    if not isinstance(matrix, LinkingMatrix):
        matrix = LinkingMatrix.from_rows(matrix)
    pivots, residual = _symmetric_eliminate(matrix.rows())
    plus = sum(1 for a in pivots if a > 0)
    return SigTriple(plus, len(pivots) - plus, len(residual))


# ---------------------------------------------------------------------------
# the J invariant

_LOOP = LaurentPoly({-6: 1, 0: 1, 6: 1})
_SWITCH_POS = LaurentPoly.monomial(-18)
_SMOOTH_POS = LaurentPoly({-6: 1, -12: -1})
_SWITCH_NEG = LaurentPoly.monomial(18)
_SMOOTH_NEG = LaurentPoly({6: 1, 12: -1})

# Production path: J of the closure of b is the Markov trace of b's image
# in the Hecke algebra H_n. The skein relation at one crossing reads
#     T_i = A^-18 T_i^-1 + (A^-6 - A^-12),   T_i^-1 = A^18 T_i + (A^6 - A^12),
# the switch and smoothing coefficients below; equivalently
# T_i^2 = (A^-6 - A^-12) T_i + A^-18. An element of H_n is a
# dict from permutation w (a tuple, w[k] the image of k) to its
# coefficient on T_w; a coefficient is an {exponent: integer} dict in A,
# never mutated once it is stored in an element.

_LOOP_TERMS = _LOOP.terms()
_STEP = {  # letter sign -> (smoothing terms, switch exponent)
    1: (_SMOOTH_POS.terms(), _SWITCH_POS.min_exp),
    -1: (_SMOOTH_NEG.terms(), _SWITCH_NEG.min_exp),
}
# terms x strands^2 bounds the work of a trace step; the full twist on
# 7 strands reaches all 7! terms and sits exactly at the budget
_WORK_BUDGET = 5040 * 7**2
_STRAND_BUDGET = 64  # sigma_1 ... sigma_63 closes in 5 ms; that chain costs O(n^3)


def _add_scaled(acc: dict, c: dict, terms) -> None:
    """acc += c * sum(f A^d for d, f in terms)."""
    for d, f in terms:
        for e, x in c.items():
            acc[e + d] = acc.get(e + d, 0) + f * x


def _within_budget(elem: dict) -> dict:
    n = len(next(iter(elem), ()))
    if len(elem) * n * n > _WORK_BUDGET:
        raise RecursionBudgetExceeded(
            f"Hecke element has {len(elem)} terms on {n} strands; "
            f"terms x strands^2 is budgeted at {_WORK_BUDGET}"
        )
    return elem


def _times_letter(elem: dict, g: int) -> dict:
    """elem * T_g for g > 0, elem * T_{-g}^-1 for g < 0."""
    i = abs(g)
    smooth, switch = _STEP[1 if g > 0 else -1]
    out = {}
    for w, c in elem.items():
        ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
        if (w[i - 1] < w[i]) == (g > 0):
            # T_w T_i = T_ws when the length goes up, and T_w T_i^-1 = T_ws
            # when it goes down; if ws carries a term of its own, the pair
            # is handled from ws's side
            if ws not in elem:
                out[ws] = c
            continue
        # otherwise T_w T_i^(+-1) = smooth T_w + A^switch T_ws, and the
        # term on ws moves onto w
        acc = dict(elem.get(ws, ()))
        _add_scaled(acc, c, smooth)
        acc = {e: x for e, x in acc.items() if x}
        if acc:
            out[w] = acc
        out[ws] = {e + switch: x for e, x in c.items()}
    return _within_budget(out)


@functools.lru_cache(maxsize=1 << 15)
def _markov(w: tuple[int, ...]) -> tuple:
    """tr_n(T_w) as tr_{n-1} of an element of H_{n-1}, as (v, terms) pairs.

    If w fixes the last strand, T_w lies in H_{n-1} and the strand closes
    to a loop. Otherwise w = c u with c = s_{j+1} ... s_{n-1} reduced,
    j = w[n-1] and u fixing the last strand, so
    tr_n(T_w) = tr_n(T_{j+1} ... T_{n-1} T_u) = tr_{n-1}(T_u T_{j+1} ... T_{n-2})
    by cyclicity and tr_n(x T_{n-1}) = tr_{n-1}(x), which holds because J
    does not depend on framing.
    """
    n = len(w)
    j = w[-1]
    u = tuple(x - (x > j) for x in w[:-1])
    if j == n - 1:
        return ((u, _LOOP_TERMS),)
    elem = {u: {0: 1}}
    for g in range(j + 1, n - 1):
        elem = _times_letter(elem, g)
    return tuple((v, tuple(c.items())) for v, c in elem.items())


def _trace(elem: dict, n: int) -> dict:
    """The Markov trace of an element of H_n, one strand at a time."""
    for _ in range(n):
        out: dict = {}
        for w, c in elem.items():
            for v, terms in _markov(w):
                _add_scaled(out.setdefault(v, {}), c, terms)
        elem = {}
        for v, acc in out.items():
            acc = {e: x for e, x in acc.items() if x}
            if acc:
                elem[v] = acc
        _within_budget(elem)
    return elem.get((), {})


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
    """
    if b.strands > _STRAND_BUDGET:
        raise RecursionBudgetExceeded(
            f"braid has {b.strands} strands, budget is {_STRAND_BUDGET}"
        )
    elem = {tuple(range(b.strands)): {0: 1}}
    for g in b.word:
        elem = _times_letter(elem, g)
    return LaurentPoly(_trace(elem, b.strands))


# Oracle: the skein recursion, switching crossings toward a descending
# diagram in a strand sweep. Exponential in crossings; the tests check
# j_invariant against it.

_NODE_BUDGET = 500_000


def _canonical(n: int, word: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # closure-preserving word shrinking: free reduction, cancellation
    # across the closure seam, and removal of a lone top generator
    changed = True
    while changed:
        changed = False
        stack: list[int] = []
        for g in word:
            if stack and stack[-1] == -g:
                stack.pop()
                changed = True
            else:
                stack.append(g)
        word = tuple(stack)
        while len(word) >= 2 and word[0] == -word[-1]:
            word = word[1:-1]
            changed = True
        while n >= 2:
            hits = [t for t, g in enumerate(word) if abs(g) == n - 1]
            if len(hits) != 1:
                break
            t = hits[0]
            word = word[:t] + word[t + 1 :]
            n -= 1
            changed = True
    return n, word


def _first_bad_crossing(
    n: int, word: tuple[int, ...], priority: Sequence[int]
) -> tuple[int, int] | None:
    # walk every component downward from its basepoint; the first
    # crossing met on its under-strand breaks descending order
    comps = closure_components(BraidWord(n, word))
    order = sorted(comps, key=lambda c: min(priority[s] for s in c))
    seen: set[int] = set()
    for comp in order:
        start = min(comp, key=lambda s: priority[s])
        pos = start
        while True:
            for t, g in enumerate(word):
                i = abs(g)
                if pos == i - 1 or pos == i:
                    over = (g > 0) == (pos == i - 1)
                    if t not in seen:
                        seen.add(t)
                        if not over:
                            return t, g
                    pos = i if pos == i - 1 else i - 1
            if pos == start:
                break
    return None


def _analyze(n: int, word: tuple[int, ...], priority: Sequence[int]):
    if not word:
        return ("leaf", _LOOP**n)
    used = {abs(g) for g in word}
    for j in range(1, n):
        if j not in used:
            low = tuple(g for g in word if abs(g) < j)
            high = tuple(
                (abs(g) - j) * (1 if g > 0 else -1) for g in word if abs(g) > j
            )
            return ("prod", _canonical(j, low), _canonical(n - j, high))
    bad = _first_bad_crossing(n, word, priority)
    if bad is None:
        n_comps = len(closure_components(BraidWord(n, word)))
        return ("leaf", _LOOP**n_comps)
    t, g = bad
    switched = _canonical(n, word[:t] + (-g,) + word[t + 1 :])
    smoothed = _canonical(n, word[:t] + word[t + 1 :])
    if g > 0:
        return ("sum", _SWITCH_POS, switched, _SMOOTH_POS, smoothed)
    return ("sum", _SWITCH_NEG, switched, _SMOOTH_NEG, smoothed)


def j_skein(
    b: BraidWord, *, traversal_seed: int | None = None, max_crossings: int = 64
) -> LaurentPoly:
    """J of the closure of b by the skein recursion; the test oracle.

    traversal_seed shuffles the strand sweep used to pick crossings;
    any seed yields the same value. max_crossings caps the input word
    (and a generous internal expansion budget guards the recursion);
    both raise RecursionBudgetExceeded.
    """
    if len(b.word) > max_crossings:
        raise RecursionBudgetExceeded(
            f"word has {len(b.word)} crossings, cap is {max_crossings}"
        )
    priority = list(range(b.strands))
    if traversal_seed is not None:
        random.Random(traversal_seed).shuffle(priority)

    memo: dict[tuple[int, tuple[int, ...]], LaurentPoly] = {}
    plans: dict[tuple[int, tuple[int, ...]], tuple] = {}
    root = _canonical(b.strands, b.word)
    stack = [root]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        plan = plans.get(key)
        if plan is None:
            if len(plans) >= _NODE_BUDGET:
                raise RecursionBudgetExceeded("skein expansion budget exhausted")
            plan = _analyze(key[0], key[1], priority)
            plans[key] = plan
        if plan[0] == "leaf":
            memo[key] = plan[1]
            stack.pop()
            continue
        kids = (plan[1], plan[2]) if plan[0] == "prod" else (plan[2], plan[4])
        missing = [k for k in kids if k not in memo]
        if missing:
            stack.extend(missing)
            continue
        if plan[0] == "prod":
            memo[key] = memo[kids[0]] * memo[kids[1]]
        else:
            memo[key] = plan[1] * memo[kids[0]] + plan[3] * memo[kids[1]]
        stack.pop()
    return memo[root]


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


@dataclasses.dataclass(frozen=True)
class StrongPeriodicityResult:
    satisfied: bool
    lift: FramedBraidLink


def strong_periodicity_check(
    b: BraidWord, p: int, framings: Sequence[int]
) -> StrongPeriodicityResult:
    """Test whether the p-fold lift of the closure is strongly periodic.

    Builds the lift and checks that every lifted component's linking
    number with the braid axis (its strand count) is divisible by p.
    Lift components inherit the framing of the quotient component they
    cover. Note that in the braid model every component links the axis
    at least once, so a quotient made of split unknotted strands never
    passes for p >= 2.
    """
    if p < 2:
        raise ValueError("periodicity order must be >= 2")
    quotient_comps = closure_components(b)
    if len(framings) != len(quotient_comps):
        raise ValueError("framing vector length must match quotient components")
    q_comp_of = _component_of(quotient_comps)
    lift = periodic_lift(b, p)
    lift_comps = closure_components(lift)
    lifted_framings = tuple(framings[q_comp_of[cycle[0]]] for cycle in lift_comps)
    ok = all(len(cycle) % p == 0 for cycle in lift_comps)
    return StrongPeriodicityResult(ok, FramedBraidLink(lift, lifted_framings))

