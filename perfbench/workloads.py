"""Seeded inputs, timed operations and result oracles for each workload.

A workload hands out its inputs in passes. Every pass has the same
composition of input classes (levels, primes, strand counts, matrix
sizes and tags), drawn afresh from the workload seed and the pass index,
so runs with different seeds do comparable work and a pass never repeats
the inputs of another. Fixed anchor cases reproduce rows of the ROADMAP
baseline table and run in every pass.

The oracles run outside the timed region. They use arithmetic of their
own (dense polynomials over F_p, a skein recurrence for 2-strand torus
closures) or the package's brute-force definitions, never the code path
being timed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import cycloquant as cq
from cycloquant import cli
from cycloquant.links import RecursionBudgetExceeded

LEVELS = (5, 7, 9, 11, 13, 15, 17, 19, 21, 23)
HEADLINE_PRIMES = (11, 19, 29, 31)
SKEIN_CAP = 64  # j_invariant's default max_crossings

REFUSED = ("refused",)


@dataclasses.dataclass
class Op:
    kind: str
    args: tuple
    tag: str
    order: int = 0  # ring order the op works in; 0 for Laurent-only work
    crossings: int = 0  # crossings of the largest braid word
    expect: object = None  # known answer, where the generator has one
    files: tuple = ()  # JSON texts of the input files a CLI op names


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def phi(k: int) -> int:
    return len(cq.CycloElem.one(k).coeffs)


def _canon(x):
    """A stable text form of an input, for the input digest."""
    if isinstance(x, (cq.CycloFraction, cq.CycloElem)):
        return str(x)
    if isinstance(x, cq.BraidWord):
        return [x.strands, list(x.word)]
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    return x


def digest(ops: list[Op]) -> str:
    text = json.dumps([[op.kind, _canon(op.args), op.tag, list(op.files)] for op in ops])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _verdict(v) -> tuple:
    w = v.witness
    return ("verdict", v.satisfied, None if w is None else (w.epsilon, w.s, w.alpha))


# ---------------------------------------------------------------------------
# dense polynomials over F_p (ascending coefficient lists), for the oracles


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_rem(a: list[int], d: list[int], p: int) -> list[int]:
    a = [c % p for c in a]
    inv = pow(d[-1], -1, p)
    for i in range(len(a) - 1, len(d) - 2, -1):
        c = a[i] * inv % p
        if c:
            for j, dj in enumerate(d):
                a[i - len(d) + 1 + j] = (a[i - len(d) + 1 + j] - c * dj) % p
    return _fp_trim(a[: len(d) - 1])


def _fp_mulmod(a: list[int], b: list[int], d: list[int], p: int) -> list[int]:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _fp_rem(out, d, p)


def _fp_powmod(a: list[int], e: int, d: list[int], p: int) -> list[int]:
    out = _fp_rem([1], d, p)
    while e:
        if e & 1:
            out = _fp_mulmod(out, a, d, p)
        a = _fp_mulmod(a, a, d, p)
        e >>= 1
    return out


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _fp_trim([c % p for c in a]), _fp_trim([c % p for c in b])
    while b:
        a, b = b, _fp_rem(a, b, p)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _phi_fp(k: int, p: int) -> list[int]:
    terms = dict(cq.cyclotomic_poly(k).terms())
    return [terms.get(e, 0) % p for e in range(max(terms) + 1)]


def _fp_of(x, p: int) -> list[int]:
    """A CycloFraction or CycloElem mod p, as a coefficient list."""
    num, den = (x.num, x.den) if isinstance(x, cq.CycloFraction) else (x, 1)
    inv = pow(den, -1, p)
    return _fp_trim([c * inv % p for c in num.coeffs])


def _laurent_cleared(terms: dict[int, int], p: int) -> list[int]:
    """Laurent polynomial mod p with its power-of-A content removed."""
    nz = {e: c % p for e, c in terms.items() if c % p}
    if not nz:
        return []
    low = min(nz)
    out = [0] * (max(nz) - low + 1)
    for e, c in nz.items():
        out[e - low] = c
    return out


def _lp_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _lp_add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _lp_pow(a: dict[int, int], n: int) -> dict[int, int]:
    out = {0: 1}
    for _ in range(n):
        out = _lp_mul(out, a)
    return out


def _periodicity_ideal(p: int) -> dict[int, int]:
    """[3]^p - [3] with [3] = A^-6 + 1 + A^6."""
    three = {-6: 1, 0: 1, 6: 1}
    return _lp_add(_lp_pow(three, p), {e: -c for e, c in three.items()})


def torus_j(k: int) -> dict[int, int]:
    """J of the closure of sigma_1^k from the skein relation alone.

    A^9 J(k) - A^-9 J(k-2) = (A^3 - A^-3) J(k-1), J(0) = [3]^2, J(1) = [3].
    """
    loop = {-6: 1, 0: 1, 6: 1}
    prev, cur = _lp_mul(loop, loop), loop
    if k == 0:
        return prev
    for _ in range(k - 1):
        step = _lp_add(_lp_mul({-9: 1}, prev), _lp_mul({3: 1, -3: -1}, cur))
        prev, cur = cur, _lp_mul({-9: 1}, step)
    return cur


def torus_thm41(a: int, b: int, p: int) -> bool:
    """Theorem 4.1's congruence for lift sigma_1^a over quotient sigma_1^b."""
    f = _lp_add(torus_j(a), {e: -c for e, c in _lp_pow(torus_j(b), p).items()})
    f_bar = _laurent_cleared(f, p)
    if not f_bar:
        return True
    g_bar = _laurent_cleared(_periodicity_ideal(p), p)
    return bool(g_bar) and not _fp_rem(f_bar, g_bar, p)


# ---------------------------------------------------------------------------
# shared machinery


class Workload:
    """Inputs, the timed operation and the oracle of one workload."""

    name = ""
    trace_passes = 1  # passes a traced run measures

    def __init__(self, seed: int, root: str, tiny: bool = False):
        self.seed = seed
        self.root = root
        self.tiny = tiny

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def make_pass(self, index: int) -> list[Op]:
        raise NotImplementedError

    def warm_ops(self, ops: list[Op]) -> list[Op]:
        """The ops of a warm-up pass, run before the first timed op."""
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, pairs: list[tuple[Op, object]]) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# covers: the level-r congruences of Theorem 1.1 and Corollary 1.2


def _primes(r: int) -> list[int]:
    """The three smallest primes p = +-1 mod r.

    They serve both criteria: none divides 3r, and for them the
    periodicity ideal of Theorem 1.1 is proper (for any other p prime to
    3r it is the unit ideal, and every value is consistent).
    """
    out, p = [], 5
    while len(out) < 3:
        if is_prime(p) and p % r in (1, r - 1):
            out.append(p)
        p += 2
    return out


def random_value(rng, k: int, spread: int) -> cq.CycloFraction:
    return cq.CycloFraction(
        cq.CycloElem(k, tuple(rng.randint(-spread, spread) for _ in range(phi(k))))
    )


def noise(rng, k: int) -> cq.CycloElem:
    return cq.CycloElem(k, tuple(rng.randint(-3, 3) for _ in range(phi(k))))


class Covers(Workload):
    """check_cor_1_2 and check_thm_1_1 at levels 5-23 (ring orders 15-69).

    Half the values are planted consistent ones (eps A^s G_r^alpha plus p
    times noise, or its Theorem 1.1 analogue), half are random; the L(2,1)
    headline runs at its four primes in every pass. At each level the four
    ops take the three primes of _primes(r) in turn, shifted by the pass
    index, so every three passes run each (level, prime) alike.
    """

    name = "covers"
    trace_passes = 2

    def __init__(self, seed, root, tiny=False):
        super().__init__(seed, root, tiny)
        self._cands: dict[tuple[int, int], set] = {}

    def make_pass(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = []
        for r in LEVELS[:3] if self.tiny else LEVELS:
            k = 3 * r
            g = cq.g_r(r).value
            primes = _primes(r)
            p = primes[index % 3]
            eps, s, alpha = rng.choice((1, -1)), rng.randrange(k), rng.randrange(6)
            v = cq.CycloFraction(cq.CycloElem.a_power(k, s)) * g**alpha * eps
            ops.append(Op("cor12", (v + noise(rng, k) * p, r, p), "planted", k))
            p = primes[(index + 1) % 3]
            ops.append(Op("cor12", (random_value(rng, k, 4), r, p), "random", k))
            p = primes[(index + 2) % 3]
            vmbar = random_value(rng, k, 2)
            eps, alpha = rng.choice((1, -1)), rng.randrange(6)
            vm = vmbar**p * (g * eps) ** alpha + noise(rng, k) * p
            ops.append(Op("thm11", (vm, vmbar, r, p), "planted", k))
            p = primes[index % 3]
            vm, vmbar = random_value(rng, k, 4), random_value(rng, k, 4)
            ops.append(Op("thm11", (vm, vmbar, r, p), "random", k))
        for p in HEADLINE_PRIMES:
            ops.append(Op("cor12", (cq.LENS_SPACE_2_1_LEVEL_5, 5, p), "headline", 15, False))
        rng.shuffle(ops)
        return ops

    def warm_ops(self, ops):
        # one op per (level, prime) fills g_r and _phi_mod; a planted
        # check_cor_1_2 op does so at least cost
        seen: dict = {}
        for op in sorted(ops, key=lambda op: (op.kind != "cor12", op.tag != "planted")):
            seen.setdefault((op.order, op.args[-1]), op)
        return list(seen.values())

    def run(self, op: Op):
        if op.kind == "cor12":
            return _verdict(cq.check_cor_1_2(*op.args))
        return _verdict(cq.check_thm_1_1(*op.args))

    def unit_ideal(self, op: Op) -> bool:
        """Is the periodicity ideal of a check_thm_1_1 op the unit ideal?"""
        _, _, r, p = op.args
        return len(_thm11_ideal(r, p)) == 1

    def check(self, pairs):
        errors = []
        thm11 = proper = 0
        for op, res in pairs:
            _, satisfied, wit = res
            if op.kind == "cor12":
                v, r, p = op.args
                k = 3 * r
                if (r, p) not in self._cands:
                    self._cands[(r, p)] = _cor12_candidates(r, p)
                v_p = tuple(_fp_of(v, p))
                if satisfied != (v_p in self._cands[(r, p)]):
                    errors.append(f"cor12 r={r} p={p}: verdict disagrees with candidate set")
                if wit is not None:
                    eps, s, alpha = wit
                    phi_k = _phi_fp(k, p)
                    g = _fp_of(cq.g_r(r).value, p)
                    x = _fp_rem([0] * (s % k) + [eps % p], phi_k, p)
                    for _ in range(alpha):
                        x = _fp_mulmod(x, g, phi_k, p)
                    if tuple(x) != v_p:
                        errors.append(f"cor12 r={r} p={p}: witness {wit} does not rebuild v")
            else:
                vm, vmbar, r, p = op.args
                thm11 += 1
                proper += not self.unit_ideal(op)
                expected = _thm11_expected(vm, vmbar, r, p, wit)
                if satisfied != expected:
                    errors.append(f"thm11 r={r} p={p}: verdict {satisfied}, oracle {expected}")
            if op.tag == "planted" and not satisfied:
                errors.append(f"{op.kind} r={op.args[-2]} p={op.args[-1]}: planted value obstructed")
            if op.tag == "headline" and satisfied:
                errors.append(f"L(2,1) at p={op.args[-1]} is not obstructed")
        if thm11 and not proper:
            errors.append("no check_thm_1_1 op reaches a proper periodicity ideal")
        return errors


def _cor12_candidates(r: int, p: int) -> set:
    """Every eps * A^s * G_r^alpha mod p, as coefficient tuples."""
    k = 3 * r
    phi_k = _phi_fp(k, p)
    g = _fp_of(cq.g_r(r).value, p)
    out = set()
    x = [1]
    for _ in range(100 * k):
        for sign in (1, p - 1):
            y = [c * sign % p for c in x]
            for _ in range(k):
                out.add(tuple(y))
                y = _fp_rem([0] + y, phi_k, p)
        x = _fp_mulmod(x, g, phi_k, p)
        if x == [1]:
            return out
    raise ArithmeticError(f"G_{r} mod {p} has no finite order")


@functools.cache
def _thm11_ideal(r: int, p: int) -> list[int]:
    """d = gcd(Phi_3r, [3]^p - [3]) over F_p, monic; [1] for the unit ideal."""
    phi_k = _phi_fp(3 * r, p)
    g_bar = _laurent_cleared(_periodicity_ideal(p), p)
    return _fp_gcd(phi_k, g_bar, p) if g_bar else phi_k


def _thm11_expected(vm, vmbar, r: int, p: int, wit) -> bool:
    """Decide vm = vmbar^p (eps G_r)^alpha for some eps = +-1 and alpha,
    modulo d = gcd(Phi_3r, [3]^p - [3]) over F_p.

    A satisfied verdict's witness (eps, 0, alpha) must also rebuild vm.
    """
    k = 3 * r
    d = _thm11_ideal(r, p)
    if len(d) == 1:
        return True
    target = _fp_rem(_fp_of(vm, p), d, p)
    pw = _fp_powmod(_fp_rem(_fp_of(vmbar, p), d, p), p, d, p)
    g = _fp_rem(_fp_of(cq.g_r(r).value, p), d, p)
    if wit is not None:
        eps, _, alpha = wit
        x = [c * pow(eps, alpha, p) % p for c in pw]
        for _ in range(alpha):
            x = _fp_mulmod(x, g, d, p)
        return _fp_trim(x) == target
    for eps in (1, p - 1):
        # y runs through pw * (eps G_r)^alpha; it is periodic, since G_r is a unit
        step = [c * eps % p for c in g]
        y = pw
        for _ in range(200 * k):
            if y == target:
                return True
            y = _fp_mulmod(y, step, d, p)
            if y == pw:
                break
        else:
            raise ArithmeticError(f"G_{r} mod ({p}, d) has no finite order")
    return False


# ---------------------------------------------------------------------------
# links: Theorem 4.1 on periodic lifts


def random_word(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    """A cyclically reduced word, so the lift does not shrink under free reduction."""
    letters = [g for i in range(1, strands) for g in (i, -i)]
    while True:
        word: list[int] = []
        while len(word) < length:
            g = rng.choice(letters)
            if not word or word[-1] != -g:
                word.append(g)
        if length < 2 or word[0] != -word[-1]:
            return tuple(word)


# (strands, quotient length, p). The seeded lifts span 6 to 33 crossings,
# where the skein cost starts to climb steeply; the anchors below carry it
# to 44. Classes whose cost swings by 100x with the word drawn ((3, 4, 7),
# (3, 2, 11), (3, 10, 3), (3, 5, 5)) are left out, so the latency
# percentiles depend on the seed less than on the code. The last three
# classes exceed the 64-crossing cap.
LIFT_CLASSES = (
    (2, 3, 3), (2, 5, 5), (2, 4, 7), (2, 3, 11),
    (3, 4, 3), (3, 6, 3), (3, 8, 3), (3, 3, 5), (3, 4, 5), (3, 2, 7), (3, 3, 7),
    (4, 3, 3), (4, 4, 3), (4, 5, 3), (4, 2, 5), (4, 3, 5), (4, 2, 7),
    (3, 8, 11), (2, 7, 11), (4, 6, 11),
)

# ROADMAP baseline rows "j_invariant, 3-strand periodic lift, 28 / 36 / 44
# crossings" and "4-strand periodic lift, 20 / 25 crossings"
LINK_ANCHORS = (
    (3, (1, -2, 1, -2), 7),
    (3, (1, -2) * 6, 3),
    (3, (1, -2, 1, -2), 11),
    (4, (1, -2, 3, -2), 5),
    (4, (1, -2, 3, -2, 1), 5),
)


class Links(Workload):
    """check_thm_4_1 on periodic lifts, non-lift controls and the anchors."""

    name = "links"
    rounds = 22

    def make_pass(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = []
        for _ in range(1 if self.tiny else self.rounds):
            for strands, length, p in LIFT_CLASSES:
                q = cq.BraidWord(strands, random_word(rng, strands, length))
                lift = cq.periodic_lift(q, p)
                tag = "overcap" if len(lift.word) > SKEIN_CAP else "lift"
                ops.append(Op("thm41", (lift, q, p), tag, crossings=len(lift.word)))
        for _ in range(6):
            # non-lift controls: sigma_1^a over sigma_1^b with a != b * p
            p = rng.choice((3, 5, 7))
            b = rng.randint(1, 3)
            a = rng.choice([x for x in range(1, 13) if x != b * p])
            sign = rng.choice((1, -1))
            args = (cq.BraidWord(2, (sign,) * a), cq.BraidWord(2, (sign,) * b), p)
            ops.append(Op("thm41", args, "control", crossings=a, expect=(sign, a, b, p)))
        if not self.tiny:
            for strands, word, p in LINK_ANCHORS:
                q = cq.BraidWord(strands, word)
                ops.append(Op("thm41", (cq.periodic_lift(q, p), q, p), "anchor",
                              crossings=len(word) * p))
        rng.shuffle(ops)
        return ops

    def warm_ops(self, ops):
        return [op for op in ops if op.tag == "control"][:2]

    def run(self, op: Op):
        try:
            return ("holds", cq.check_thm_4_1(*op.args))
        except RecursionBudgetExceeded:
            return REFUSED

    def check(self, pairs):
        errors = []
        for op, res in pairs:
            lift, q, p = op.args
            if op.tag == "control":
                sign, a, b, p = op.expect
                # mirroring maps A to A^-1 and preserves ideal membership
                if res != ("holds", torus_thm41(a, b, p)):
                    errors.append(f"control sigma^{sign * a} over sigma^{sign * b}, p={p}: got {res}")
            elif res == REFUSED:
                if op.tag != "overcap":
                    errors.append(f"lift with {op.crossings} crossings was refused")
            elif res != ("holds", True):
                errors.append(f"true {p}-fold lift {q.word} on {q.strands} strands is obstructed")
        return errors


# ---------------------------------------------------------------------------
# surgery: Z_N by moo_fast and Theorem 5.1 on periodic pairs


def det(rows: list[list[int]]) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n, out = len(m), Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i]), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            out = -out
        out *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            for c in range(i, n):
                m[r][c] -= f * m[i][c]
    return out


def random_symmetric(rng, size: int, spread: int, n: int, scale: int = 1) -> list[list[int]]:
    """scale * M for a random symmetric M with det(M) a unit mod n.

    With scale 1 moo_fast finds a unit pivot at every step; with scale a
    prime dividing n the whole form vanishes mod that prime, which forces
    one residual enumeration of scale^size vectors and no other.
    """
    while True:
        rows = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                rows[i][j] = rows[j][i] = rng.randint(-spread, spread)
        d = det(rows)
        if d and math.gcd(int(d), n) == 1:
            return [[scale * x for x in row] for row in rows]


def periodic_pair(rng, p: int, size: int, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """B = P^T (Bbar + ... + Bbar) P with p diagonal copies and P unimodular.

    Z_N is multiplicative under block sums and unchanged by a change of
    basis, so Z_N(B) = Z_N(Bbar)^p holds exactly.
    """
    bbar = random_symmetric(rng, size, 3, n)
    m = p * size
    block = [[0] * m for _ in range(m)]
    for c in range(p):
        for i in range(size):
            for j in range(size):
                block[c * size + i][c * size + j] = bbar[i][j]
    basis = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(m):
        i, j = rng.sample(range(m), 2)
        sign = rng.choice((1, -1))
        basis[i] = [x + sign * y for x, y in zip(basis[i], basis[j])]
    bt_b = [[sum(basis[l][i] * block[l][j] for l in range(m)) for j in range(m)]
            for i in range(m)]
    rows = [[sum(bt_b[i][l] * basis[l][j] for l in range(m)) for j in range(m)]
            for i in range(m)]
    return rows, bbar


# (N, size, prime dividing every entry or 1, count per pass). The counts
# put the 90th latency percentile well inside the N = 315 classes, below
# the few slow cases (the anchors, N = 1001 and the larger periodic pairs
# make up under 6% of a pass), so it does not flip between cost groups.
MOO_CLASSES = (
    (105, 2, 1, 9), (105, 3, 1, 9), (105, 4, 1, 9), (105, 5, 1, 9), (105, 6, 1, 9),
    (105, 2, 3, 5), (105, 3, 3, 5), (105, 4, 3, 5), (105, 5, 3, 5), (105, 6, 3, 5),
    (315, 2, 1, 7), (315, 3, 1, 7), (315, 4, 1, 7), (315, 2, 5, 6), (315, 3, 5, 6),
    (1001, 2, 1, 1),
    (15, 2, 1, 2), (21, 2, 1, 2), (35, 2, 1, 2), (33, 2, 1, 2), (15, 2, 3, 2),
)
# (N, p, quotient size): B has p * size rows
PAIR_CLASSES = ((105, 11, 1), (105, 13, 1), (105, 11, 2), (315, 11, 1), (35, 3, 2), (21, 5, 1))

# ROADMAP baseline rows "moo_fast, 3x3, N = 1001" and "3x3 with every entry
# = 0 mod 3, N = 81", with their values as printed
MOO_ANCHORS = (
    ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], 1001, "1"),
    ([[3, 6, 0], [6, 9, 3], [0, 3, 6]], 81, "9"),
)
ORACLE_VECTORS = 40_000  # moo_invariant enumerates N^m vectors


class Surgery(Workload):
    """moo_fast on seeded matrices and check_thm_5_1(fast=True) on periodic pairs."""

    name = "surgery"
    trace_passes = 2

    def make_pass(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = []
        for n, size, q, count in MOO_CLASSES:
            if self.tiny and n > 105:
                continue
            for _ in range(count):
                rows = random_symmetric(rng, size, 4 if q == 1 else 2, n, q)
                ops.append(Op("moo", (rows, n), "residual" if q > 1 else "unit", n))
        for n, p, size in PAIR_CLASSES:
            b, bbar = periodic_pair(rng, p, size, n)
            ops.append(Op("thm51", (b, bbar, p, n), "pair", n))
        if not self.tiny:
            for rows, n, want in MOO_ANCHORS:
                ops.append(Op("moo", (rows, n), "anchor", n, expect=want))
        rng.shuffle(ops)
        return ops

    def warm_ops(self, ops):
        # the identity form at each order of the pass fills the order's
        # caches; a drawn matrix would too, but its cost (0.35-0.7 s at
        # N = 1001) would make set-up time depend on the seed
        orders = sorted({op.order for op in ops if op.tag != "anchor"})
        return [Op("moo", ([[1, 0], [0, 1]], n), "warm", n) for n in orders]

    def run(self, op: Op):
        if op.kind == "moo":
            z = cq.moo_fast(*op.args)
            return ("moo", z.order, z.value.num.coeffs, z.value.den, z.half_power)
        b, bbar, p, n = op.args
        return _verdict(cq.check_thm_5_1(b, bbar, p, n, fast=True))

    def check(self, pairs):
        errors = []
        for op, res in pairs:
            if op.kind == "thm51":
                if not res[1]:
                    errors.append(f"periodic pair at N={op.args[3]}, p={op.args[2]} is obstructed")
                continue
            rows, n = op.args
            value = cq.MooValue(cq.CycloFraction(cq.CycloElem(n, res[2]), res[3]), res[4])
            if op.tag == "anchor":
                if str(value) != op.expect:
                    errors.append(f"anchor at N={n} changed value")
            elif n ** len(rows) <= ORACLE_VECTORS and value != cq.moo_invariant(rows, n):
                errors.append(f"moo_fast != moo_invariant for {rows} at N={n}")
        return errors


# ---------------------------------------------------------------------------
# cli_cold: fresh `python -m cycloquant` processes, one at a time


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], cwd: str, env: dict) -> tuple[int, bytes, float, int]:
    """Run one process to completion; return (exit code, stdout, seconds, peak RSS in KiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # reaps it and gives its own peak RSS
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    seconds = time.perf_counter() - t0
    return proc.returncode, out, seconds, usage.ru_maxrss


class CliCold(Workload):
    """Fresh ``python -m cycloquant`` processes, run one at a time.

    A pass holds repro-remark13, check-cor12, check-thm11, check-thm41,
    check-thm51 --fast and moo --fast. Braid and matrix inputs are JSON
    files in a work directory under .perfbench_work in the checkout, and
    the processes run there, so the arguments name the files alone.
    """

    name = "cli_cold"
    trace_passes = 3

    def __init__(self, seed, root, tiny=False):
        super().__init__(seed, root, tiny)
        self.env = child_env(root)
        self.workdir = os.path.join(root, ".perfbench_work", f"{os.getpid()}-{seed}")
        os.makedirs(self.workdir, exist_ok=True)
        self.peak_kib = 0

    def _file(self, index: int, slot: int, data: dict) -> tuple[str, str]:
        """Write an input file into the work directory; return its name and text."""
        name, text = f"{index}-{slot}.json", json.dumps(data)
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return name, text

    def make_pass(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = [Op("cli", ("repro-remark13",), "repro", 15)]
        for slot in range(2):
            r = rng.choice((5, 7, 11))
            k = 3 * r
            g = cq.g_r(r).value
            p = rng.choice(_primes(r))
            if slot == 0:
                v = cq.CycloFraction(cq.CycloElem.a_power(k, rng.randrange(k))) * g ** rng.randrange(4)
                v = v + noise(rng, k) * p
            else:
                v = random_value(rng, k, 3)
            # "--v=VALUE", so that a value with a leading minus is not read as an option
            ops.append(Op("cli", ("check-cor12", f"--v={v}", "--r", str(r), "--p", str(p)),
                          "cor12", k))
            p = rng.choice(_primes(r))
            vmbar = random_value(rng, k, 1)
            vm = vmbar**p * g ** rng.randrange(4) if slot == 0 else random_value(rng, k, 3)
            ops.append(Op("cli", ("check-thm11", f"--vm={vm}", f"--vmbar={vmbar}",
                                  "--r", str(r), "--p", str(p)), "thm11", k))
        for slot in range(2):
            strands, length, p = rng.choice(((3, 4, 3), (3, 3, 5), (4, 3, 3), (2, 5, 5)))
            q = cq.BraidWord(strands, random_word(rng, strands, length))
            lift = cq.periodic_lift(q, p)
            (lift_f, lift_t), (quot_f, quot_t) = (
                self._file(index, 10 + 2 * slot + i, {"strands": b.strands, "word": list(b.word)})
                for i, b in enumerate((lift, q)))
            ops.append(Op("cli", ("check-thm41", "--lift", lift_f, "--quotient", quot_f,
                                  "--p", str(p)), "thm41", crossings=len(lift.word),
                          files=(lift_t, quot_t)))
        n, p = rng.choice(((105, 11), (35, 3), (21, 5)))
        b, bbar = periodic_pair(rng, p, 1, n)
        (b_f, b_t), (bbar_f, bbar_t) = (self._file(index, 20 + i, {"matrix": m})
                                        for i, m in enumerate((b, bbar)))
        ops.append(Op("cli", ("check-thm51", "--b", b_f, "--bbar", bbar_f, "--p", str(p),
                              "--n", str(n), "--fast"), "thm51", n, files=(b_t, bbar_t)))
        for slot in range(2):
            n = rng.choice((105, 315))
            rows = random_symmetric(rng, rng.randint(2, 4), 4, n)
            name, text = self._file(index, 30 + slot, {"matrix": rows})
            ops.append(Op("cli", ("moo", "--n", str(n), "--matrix", name, "--fast"), "moo", n,
                          files=(text,)))
        rng.shuffle(ops)
        return ops

    def warm_ops(self, ops):
        return [op for op in ops if op.tag == "repro"][:1]

    def command(self, op: Op) -> list[str]:
        return [sys.executable, "-m", "cycloquant", *op.args]

    def run(self, op: Op):
        code, out, _, kib = run_child(self.command(op), self.workdir, self.env)
        self.peak_kib = max(self.peak_kib, kib)
        return REFUSED if code == 2 else ("exit", code, out.decode())

    def in_process(self, op: Op):
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(op.args))
        finally:
            os.chdir(cwd)
        return ("exit", code, buf.getvalue())

    def check(self, pairs):
        errors = []
        for op, res in pairs:
            expected = self.in_process(op)
            if res == REFUSED:
                if expected[1] != 2:
                    errors.append(f"{op.args[0]}: refused in a fresh process only")
            elif res != expected:
                errors.append(f"{op.args[0]}: subprocess result differs from in-process result")
            elif op.tag == "repro" and res[1] != 0:
                errors.append("repro-remark13 did not obstruct all four primes")
        return errors

    def close(self) -> None:
        if os.path.isdir(self.workdir):
            for name in os.listdir(self.workdir):
                os.remove(os.path.join(self.workdir, name))
            os.rmdir(self.workdir)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.workdir))


WORKLOADS = {w.name: w for w in (Covers, Links, Surgery, CliCold)}
