"""Braid closure, linking matrix, signature, and J invariant tests."""

from __future__ import annotations

import cmath
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycloquant.links import (
    BraidWord,
    FramedBraidLink,
    LinkingMatrix,
    RecursionBudgetExceeded,
    SigTriple,
    closure_components,
    j_invariant,
    j_skein,
    lift_component_rotation,
    linking_matrix,
    periodic_lift,
    signature_counts,
    strong_periodicity_check,
)
from cycloquant.rings import LaurentPoly

LOOP = LaurentPoly({-6: 1, 0: 1, 6: 1})


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
# components and validation


def test_closure_components_examples():
    assert len(closure_components(BraidWord(2, (1, 1)))) == 2
    assert len(closure_components(BraidWord(2, (1, 1, 1)))) == 1
    assert closure_components(BraidWord(3)) == ((0,), (1,), (2,))


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(2, (0,))
    with pytest.raises(ValueError):
        BraidWord(0)


def test_framing_length_validation():
    with pytest.raises(ValueError):
        FramedBraidLink(BraidWord(2, (1, 1)), (0,))


def test_braid_json_roundtrip():
    link = FramedBraidLink(BraidWord(3, (1, -2, 1)), (2, -1))
    assert FramedBraidLink.from_dict(link.to_dict()) == link
    bare = FramedBraidLink.from_dict({"strands": 2, "word": [1, 1]})
    assert bare.framings == (0, 0)
    with pytest.raises(ValueError):
        FramedBraidLink.from_dict({"word": [1]})


# ---------------------------------------------------------------------------
# linking matrices


def test_linking_matrix_examples():
    hopf = FramedBraidLink(BraidWord(2, (1, 1)), (0, 0))
    assert linking_matrix(hopf).rows() == [[0, 1], [1, 0]]
    unknot = FramedBraidLink(BraidWord(1), (7,))
    assert linking_matrix(unknot).rows() == [[7]]
    unlink = FramedBraidLink(BraidWord(2), (3, -4))
    assert linking_matrix(unlink).rows() == [[3, 0], [0, -4]]
    neg_hopf = FramedBraidLink(BraidWord(2, (-1, -1)), (1, 1))
    assert linking_matrix(neg_hopf).rows() == [[1, -1], [-1, 1]]


def test_linking_matrix_validation():
    with pytest.raises(ValueError):
        LinkingMatrix.from_rows([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        LinkingMatrix.from_rows([[0, 1]])
    with pytest.raises(ValueError):
        LinkingMatrix.from_dict({"rows": [[1]]})
    m = LinkingMatrix.from_dict({"matrix": [[0, 1], [1, 0]]})
    assert LinkingMatrix.from_dict(m.to_dict()) == m


# ---------------------------------------------------------------------------
# signatures


def test_signature_examples():
    assert signature_counts([[2, 0], [0, -3]]) == SigTriple(1, 1, 0)
    assert signature_counts([[0, 1], [1, 0]]) == SigTriple(1, 1, 0)
    assert signature_counts([[0]]) == SigTriple(0, 0, 1)
    assert signature_counts([]) == SigTriple(0, 0, 0)


def _random_symmetric(rng: random.Random, m: int) -> list[list[int]]:
    # sparse entries and, every other draw, a zero diagonal, so that
    # singular forms and the off-diagonal pivot both come up
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            if rng.random() < 0.5:
                rows[i][j] = rows[j][i] = rng.randint(-6, 6)
    if rng.random() < 0.5:
        for i in range(m):
            rows[i][i] = 0
    return rows


def test_signature_matches_sympy_inertia():
    # an independent oracle: the characteristic polynomial from sympy; its
    # roots are real, so Descartes' rule counts them exactly
    sympy = pytest.importorskip("sympy")

    def changes(seq):
        signs = [c > 0 for c in seq if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    rng = random.Random(109)
    for _ in range(150):
        rows = _random_symmetric(rng, rng.randint(1, 7))
        coeffs = sympy.Matrix(rows).charpoly().all_coeffs()[::-1]  # ascending
        nullity = next(i for i, c in enumerate(coeffs) if c != 0)
        core = coeffs[nullity:]
        flipped = [c if i % 2 == 0 else -c for i, c in enumerate(core)]
        expected = SigTriple(changes(core), changes(flipped), nullity)
        assert signature_counts(rows) == expected, rows


def _random_unimodular(rng: random.Random, m: int) -> list[list[int]]:
    e = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for _ in range(rng.randint(1, 6) if m >= 2 else 0):
        i, j = rng.sample(range(m), 2)
        c = rng.randint(-2, 2)
        for col in range(m):
            e[j][col] += c * e[i][col]
    return e


def _congruence(e: list[list[int]], d: list[list[int]]) -> list[list[int]]:
    m = len(d)
    de = [[sum(d[i][k] * e[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    return [[sum(e[k][i] * de[k][j] for k in range(m)) for j in range(m)] for i in range(m)]


def test_signature_sylvester_invariance():
    # inertia of E^T D E equals the diagonal sign counts of D
    rng = random.Random(101)
    for _ in range(60):
        m = rng.randint(1, 4)
        diag = [rng.choice([-3, -1, 0, 2, 5]) for _ in range(m)]
        d = [[diag[i] if i == j else 0 for j in range(m)] for i in range(m)]
        e = _random_unimodular(rng, m)
        expected = SigTriple(
            sum(1 for x in diag if x > 0),
            sum(1 for x in diag if x < 0),
            sum(1 for x in diag if x == 0),
        )
        assert signature_counts(_congruence(e, d)) == expected


# ---------------------------------------------------------------------------
# the J invariant


def test_j_unknot_and_unlinks():
    assert j_invariant(BraidWord(1)) == LOOP
    assert j_invariant(BraidWord(2)) == LOOP**2
    assert j_invariant(BraidWord(3)) == LOOP**3


def test_j_hopf_golden():
    # single skein expansion: A^-18 [3]^2 + (A^-6 - A^-12) [3]
    expected = LaurentPoly.monomial(-18) * LOOP**2 + LaurentPoly(
        {-6: 1, -12: -1}
    ) * LOOP
    assert j_invariant(BraidWord(2, (1, 1))) == expected


def test_j_hopf_satisfies_skein_axiom_numerically():
    # A^9 J(L+) - A^-9 J(L-) = (A^3 - A^-3) J(L0) at roots of unity,
    # with L+ the Hopf link, L- the 2-unlink, L0 the unknot
    j_plus = j_invariant(BraidWord(2, (1, 1)))
    rng = random.Random(113)
    for _ in range(3):
        z = cmath.exp(2j * cmath.pi * rng.random())
        lhs = z**9 * j_plus.evaluate(z) - z**-9 * (LOOP**2).evaluate(z)
        rhs = (z**3 - z**-3) * LOOP.evaluate(z)
        assert abs(lhs - rhs) < 1e-9


def test_j_torus_words_match_independent_recurrence():
    # J_k for the closure of sigma_1^k obeys a two-term recurrence
    # straight from the skein relation
    j0, j1 = LOOP**2, LOOP
    values = {0: j0, 1: j1}
    for k in range(2, 7):
        j0, j1 = j1, LaurentPoly.monomial(-18) * j0 + LaurentPoly({-6: 1, -12: -1}) * j1
        values[k] = j1
    for k in range(7):
        assert j_invariant(BraidWord(2, (1,) * k)) == values[k], k


def test_j_well_defined_under_resolution_order():
    words = [
        BraidWord(2, (1, 1, 1)),
        BraidWord(3, (1, 1, 2, -1, 2)),
        BraidWord(4, (1, 2, 3, 1, 2, 3)),
    ]
    for b in words:
        base = j_skein(b)
        assert j_invariant(b) == base
        for seed in range(50):
            assert j_skein(b, traversal_seed=seed) == base


def test_j_well_defined_on_random_words():
    rng = random.Random(127)
    for _ in range(10):
        b = _random_braid(rng)
        base = j_skein(b)
        assert j_invariant(b) == base
        for seed in rng.sample(range(10_000), 5):
            assert j_skein(b, traversal_seed=seed) == base


def test_j_matches_skein_oracle_on_random_braids():
    rng = random.Random(151)
    for _ in range(240):
        b = _random_braid(rng, max_strands=5, max_len=12)
        assert j_invariant(b) == j_skein(b), b


def test_j_matches_skein_oracle_on_anchor_lifts():
    # the 28-crossing 3-strand and 20-crossing 4-strand periodic lifts
    for b in (
        periodic_lift(BraidWord(3, (1, -2, 1, -2)), 7),
        periodic_lift(BraidWord(4, (1, -2, 3, -2)), 5),
    ):
        assert j_invariant(b) == j_skein(b)


def test_j_anchor_lifts_are_fast():
    # 44 crossings on 3 strands and 25 on 4 took seconds by the skein
    # recursion; the Hecke evaluation is linear in word length
    for b in (
        periodic_lift(BraidWord(3, (1, -2, 1, -2)), 11),
        periodic_lift(BraidWord(4, (1, -2, 3, -2, 1)), 5),
    ):
        start = time.perf_counter()
        j_invariant(b)
        assert time.perf_counter() - start < 0.1


def test_j_mirror_symmetry():
    rng = random.Random(131)
    for _ in range(30):
        b = _random_braid(rng)
        assert j_invariant(b.mirror()) == j_invariant(b).conjugate()


def test_j_braid_relations():
    rng = random.Random(137)
    for _ in range(12):
        n = rng.randint(3, 4)
        base = _random_braid(rng, max_strands=n, max_len=6)
        base = BraidWord(n, base.word)
        t = rng.randint(0, len(base.word))
        i = rng.randint(1, n - 2)
        w1 = base.word[:t] + (i, i + 1, i) + base.word[t:]
        w2 = base.word[:t] + (i + 1, i, i + 1) + base.word[t:]
        assert j_invariant(BraidWord(n, w1)) == j_invariant(BraidWord(n, w2))
    for _ in range(12):
        base = _random_braid(rng, max_strands=4, max_len=6)
        b = BraidWord(5, base.word)
        t = rng.randint(0, len(b.word))
        i, j = 1, 3
        w1 = b.word[:t] + (i, j) + b.word[t:]
        w2 = b.word[:t] + (j, i) + b.word[t:]
        assert j_invariant(BraidWord(5, w1)) == j_invariant(BraidWord(5, w2))


def test_j_distant_union():
    rng = random.Random(139)
    for _ in range(10):
        b = _random_braid(rng)
        widened = BraidWord(b.strands + 1, b.word)
        assert j_invariant(widened) == j_invariant(b) * LOOP


def test_j_split_words_factor():
    # generators 1 and 3 on 4 strands never interact
    b = BraidWord(4, (1, 3, 1, -3, 1))
    low = j_invariant(BraidWord(2, (1, 1, 1)))
    high = j_invariant(BraidWord(2, (1, -1)))
    assert j_invariant(b) == low * high


def test_j_budget():
    with pytest.raises(RecursionBudgetExceeded):
        j_skein(BraidWord(2, (1,) * 5), max_crossings=4)


# the full twist on 8 strands spreads over more basis terms than 7! = 5040
OVER_BUDGET = BraidWord(8, tuple(range(1, 8)) * 8)
# 64-strand words whose Hecke terms times strands^2 reach millions; they
# took 5.7 s and 8.2 s under a bare term budget
CHAIN_64 = tuple(range(1, 64))
WIDE_OVER_BUDGET = (
    BraidWord(64, CHAIN_64 * 3),
    BraidWord(64, tuple(range(1, 6)) * 6 + CHAIN_64 * 2),
)


def test_j_term_budget_fails_fast():
    for b in (OVER_BUDGET, *WIDE_OVER_BUDGET):
        start = time.perf_counter()
        with pytest.raises(RecursionBudgetExceeded):
            j_invariant(b)
        assert time.perf_counter() - start < 1.0


def test_j_strand_budget():
    # 64 strands are answered; one more is refused before any work
    assert j_invariant(BraidWord(64, tuple(range(1, 64)))) == j_invariant(BraidWord(1, ()))
    start = time.perf_counter()
    with pytest.raises(RecursionBudgetExceeded):
        j_invariant(BraidWord(65, ()))
    assert time.perf_counter() - start < 1.0


def test_j_answers_seven_strands():
    # the full twist on 7 strands reaches all 7! basis terms
    b = BraidWord(7, tuple(range(1, 7)) * 7)
    assert j_invariant(b.mirror()) == j_invariant(b).conjugate()


# ---------------------------------------------------------------------------
# properties of J as a link invariant


def letters(n):
    return st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))


@st.composite
def braids(draw, min_strands=1, max_strands=5, max_len=8):
    n = draw(st.integers(min_strands, max_strands))
    if n == 1:
        return BraidWord(1)
    return BraidWord(n, tuple(draw(st.lists(letters(n), max_size=max_len))))


@given(b=braids(min_strands=3), data=st.data())
def test_j_braid_relation_property(b, data):
    i = data.draw(st.integers(1, b.strands - 2))
    e = data.draw(st.sampled_from((1, -1)))
    t = data.draw(st.integers(0, len(b.word)))
    w1 = b.word[:t] + (e * i, e * (i + 1), e * i) + b.word[t:]
    w2 = b.word[:t] + (e * (i + 1), e * i, e * (i + 1)) + b.word[t:]
    assert j_invariant(BraidWord(b.strands, w1)) == j_invariant(BraidWord(b.strands, w2))


@given(b=braids(min_strands=4), data=st.data())
def test_j_far_commutation_property(b, data):
    n = b.strands
    i = data.draw(st.integers(1, n - 3))
    j = data.draw(st.integers(i + 2, n - 1))
    gi = i * data.draw(st.sampled_from((1, -1)))
    gj = j * data.draw(st.sampled_from((1, -1)))
    t = data.draw(st.integers(0, len(b.word)))
    w1 = b.word[:t] + (gi, gj) + b.word[t:]
    w2 = b.word[:t] + (gj, gi) + b.word[t:]
    assert j_invariant(BraidWord(n, w1)) == j_invariant(BraidWord(n, w2))


@given(b=braids(min_strands=2), data=st.data())
def test_j_conjugation_property(b, data):
    n = b.strands
    g = tuple(data.draw(st.lists(letters(n), max_size=4)))
    inverse = tuple(-x for x in reversed(g))
    assert j_invariant(BraidWord(n, g + b.word + inverse)) == j_invariant(b)


@given(b=braids(max_strands=4), e=st.sampled_from((1, -1)))
def test_j_markov_stabilisation_property(b, e):
    n = b.strands
    assert j_invariant(BraidWord(n + 1, b.word + (e * n,))) == j_invariant(b)


@given(b=braids())
def test_j_mirror_is_conjugate_property(b):
    assert j_invariant(b.mirror()) == j_invariant(b).conjugate()


# ---------------------------------------------------------------------------
# periodic lifts


def test_periodic_lift_examples():
    assert periodic_lift(BraidWord(2, (1,)), 3) == BraidWord(2, (1, 1, 1))
    w = BraidWord(3, (1, -2))
    assert periodic_lift(w, 1) == w
    assert periodic_lift(BraidWord(2, (1, 1)), 2) == BraidWord(2, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        periodic_lift(w, 0)


def test_lift_rotation_is_permutation_preserving_linking():
    rng = random.Random(149)
    for _ in range(20):
        b = _random_braid(rng, max_strands=4, max_len=6)
        p = rng.choice([2, 3])
        framings = [rng.randint(-3, 3) for _ in closure_components(b)]
        result = strong_periodicity_check(b, p, framings)
        rho = lift_component_rotation(b, p)
        assert sorted(rho) == list(range(len(rho)))
        mat = linking_matrix(result.lift).rows()
        for i in range(len(rho)):
            for j in range(len(rho)):
                assert mat[rho[i]][rho[j]] == mat[i][j]


def test_strong_periodicity_examples():
    # the 3-fold lift of a 2-strand unknot closure is the trefoil,
    # one component on 2 strands: 2 is not divisible by 3
    res = strong_periodicity_check(BraidWord(2, (1,)), 3, (0,))
    assert not res.satisfied
    assert res.lift.braid == BraidWord(2, (1, 1, 1))

    # split unknotted strands always link the axis once each, so
    # they can never satisfy the criterion for p >= 2
    for p in (2, 3):
        res = strong_periodicity_check(BraidWord(p), p, (0,) * p)
        assert not res.satisfied

    # brute-force oracle for a 2-component quotient
    res = strong_periodicity_check(BraidWord(2, (1, 1)), 2, (0, 0))
    lift_comps = closure_components(periodic_lift(BraidWord(2, (1, 1)), 2))
    assert res.satisfied == all(len(c) % 2 == 0 for c in lift_comps)

    # a 4-strand unknot closure whose 2-fold lift splits into two
    # 2-strand components passes
    res = strong_periodicity_check(BraidWord(4, (1, 2, 3)), 2, (5,))
    assert res.satisfied
    assert res.lift.framings == (5, 5)


def test_strong_periodicity_validation():
    with pytest.raises(ValueError):
        strong_periodicity_check(BraidWord(2, (1,)), 1, (0,))
    with pytest.raises(ValueError):
        strong_periodicity_check(BraidWord(2, (1,)), 2, (0, 0))
    # a framing is an integer; 0.7 and True are refused, not cast to 0 and 1
    for framing in (0.7, True):
        with pytest.raises(ValueError, match="integers"):
            strong_periodicity_check(BraidWord(2, (1,)), 3, [framing])
