"""Oracles and seeded random inputs shared by the test modules.

j_skein (J by the skein recursion), j_hecke_dicts (J in the Hecke
algebra on {exponent: coefficient} dicts) and _float_invariant (Z_N as a
complex-double sum) are plain definitions the package's fast paths are
checked against; production code never calls them.
"""

import cmath
import functools
import itertools
import random
from typing import Sequence

from cycloquant.links import BraidWord, LinkingMatrix, closure_components, signature_counts
from cycloquant.rings import LaurentPoly, RecursionBudgetExceeded

# the skein relation A^9 J(L+) - A^-9 J(L-) = (A^3 - A^-3) J(L0) at one
# crossing, solved for the positive and for the negative crossing, and a loop
_LOOP = LaurentPoly({-6: 1, 0: 1, 6: 1})
_SWITCH_POS = LaurentPoly.monomial(-18)
_SMOOTH_POS = LaurentPoly({-6: 1, -12: -1})
_SWITCH_NEG = LaurentPoly.monomial(18)
_SMOOTH_NEG = LaurentPoly({6: 1, 12: -1})

# the fifteen reduced powers of A in the level-5 quotient, frozen byte-exact
REDUCED_POWERS_LEVEL_5 = (
    "1",
    "A",
    "A^2",
    "A^3",
    "A^4",
    "A^5",
    "A^6",
    "A^7",
    "-1 + A - A^3 + A^4 - A^5 + A^7",
    "-1 + A^2 - A^3 - A^6 + A^7",
    "-1 - A^5",
    "-A - A^6",
    "-A^2 - A^7",
    "1 - A - A^4 + A^5 - A^7",
    "1 - A^2 + A^3 - A^4 + A^6 - A^7",
)


# ---------------------------------------------------------------------------
# random inputs


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
        out[i][:ma] = a[i]
    for i in range(mb):
        for j in range(mb):
            out[ma + i][ma + j] = b[i][j]
    return out


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


def _random_braid(rng: random.Random, max_strands: int = 4, max_len: int = 8) -> BraidWord:
    n = rng.randint(1, max_strands)
    if n == 1:
        return BraidWord(1)
    length = rng.randint(0, max_len)
    word = []
    for _ in range(length):
        g = rng.randint(1, n - 1)
        word.append(g if rng.random() < 0.5 else -g)
    return BraidWord(n, tuple(word))


# ---------------------------------------------------------------------------
# Z_N as a complex-double sum


def _float_invariant(rows: list[list[int]], n: int) -> complex:
    m = len(rows)
    w = cmath.exp(2j * cmath.pi / n)
    bracket = sum(
        w ** (sum(rows[i][j] * l[i] * l[j] for i in range(m) for j in range(m)) % n)
        for l in itertools.product(range(n), repeat=m)
    )
    g = sum(w ** (k * k % n) for k in range(n))
    sig = signature_counts(LinkingMatrix(rows))
    return (
        n ** (-sig.nullity / 2)
        * bracket
        * g ** (-sig.sigma_plus)
        * g.conjugate() ** (-sig.sigma_minus)
    )


# ---------------------------------------------------------------------------
# J by the skein recursion, switching crossings toward a descending
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
# J as the Markov trace on the Hecke algebra H_n, with every coefficient an
# {exponent: integer} dict in A; the same algebra as j_invariant without
# packed coefficients or budgets. Linear in word length, so it reaches the
# long words j_skein cannot.

_HECKE_STEP = {  # letter sign -> (smoothing terms, switch exponent)
    1: (_SMOOTH_POS.terms(), _SWITCH_POS.min_exp),
    -1: (_SMOOTH_NEG.terms(), _SWITCH_NEG.min_exp),
}


def _add_scaled(acc: dict, c: dict, terms) -> None:
    """acc += c * sum(f A^d for d, f in terms)."""
    for d, f in terms:
        for e, x in c.items():
            acc[e + d] = acc.get(e + d, 0) + f * x


def _times_letter_dicts(elem: dict, g: int) -> dict:
    """elem * T_g for g > 0, elem * T_{-g}^-1 for g < 0."""
    i = abs(g)
    smooth, switch = _HECKE_STEP[1 if g > 0 else -1]
    out = {}
    for w, c in elem.items():
        ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
        if (w[i - 1] < w[i]) == (g > 0):
            if ws not in elem:
                out[ws] = c
            continue
        acc = dict(elem.get(ws, ()))
        _add_scaled(acc, c, smooth)
        acc = {e: x for e, x in acc.items() if x}
        if acc:
            out[w] = acc
        out[ws] = {e + switch: x for e, x in c.items()}
    return out


@functools.lru_cache(maxsize=1 << 15)
def _markov_dicts(w: tuple[int, ...]) -> tuple:
    """tr_n(T_w) as tr_{n-1} of an element of H_{n-1}, as (v, terms) pairs."""
    n = len(w)
    j = w[-1]
    u = tuple(x - (x > j) for x in w[:-1])
    if j == n - 1:
        return ((u, _LOOP.terms()),)
    elem = {u: {0: 1}}
    for g in range(j + 1, n - 1):
        elem = _times_letter_dicts(elem, g)
    return tuple((v, tuple(c.items())) for v, c in elem.items())


def j_hecke_dicts(b: BraidWord) -> LaurentPoly:
    """J of the closure of b: T_g one letter at a time, then the Markov trace."""
    elem = {tuple(range(b.strands)): {0: 1}}
    for g in b.word:
        elem = _times_letter_dicts(elem, g)
    for _ in range(b.strands):
        out: dict = {}
        for w, c in elem.items():
            for v, terms in _markov_dicts(w):
                _add_scaled(out.setdefault(v, {}), c, terms)
        elem = {}
        for v, acc in out.items():
            acc = {e: x for e, x in acc.items() if x}
            if acc:
                elem[v] = acc
    return LaurentPoly(elem.get((), {}))
