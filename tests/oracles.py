"""Oracles and seeded random inputs shared by the test modules.

j_skein (J by the skein recursion) and _float_invariant (Z_N as a
complex-double sum) are brute-force definitions the package's fast
paths are checked against; production code never calls them.
"""

import cmath
import itertools
import random
from typing import Sequence

from cycloquant.links import _LOOP, _SMOOTH_NEG, _SMOOTH_POS, _SWITCH_NEG, _SWITCH_POS, BraidWord
from cycloquant.links import LinkingMatrix, closure_components, signature_counts
from cycloquant.rings import LaurentPoly, RecursionBudgetExceeded

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
    sig = signature_counts(LinkingMatrix.from_rows(rows))
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
