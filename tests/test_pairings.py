"""Pairing enumeration and the closed-form correlator terms.

The four-point terms are frozen here in full, from a hand derivation:
the weighted phase of a pair is shifted only by pairs that strictly
enclose it, and each crossing pattern contributes one separate
unweighted oscillation.
"""

from __future__ import annotations

import itertools
import math

import pytest

from modwick.pairings import (
    annotated_pairing_terms, correlator_pairing_sum, crossing_count,
    crossing_patterns, enclosing_pairs, enumerate_pairings, pairing_term,
)
from modwick.limits import noncrossing_match
from modwick.scalars import (
    C_ONE, Dot, Energy, EXPR_ZERO, PDot, ScalarExpr, ScalarTerm,
    canonicalize, canonically_equal, comb, momentum_delta, term_signature,
    time_difference,
)
from modwick.verify import MODES, _build, patterns_up_to
from modwick.words import (
    WordError, _raw_correlator_terms, correlator_recursive, word,
    word_from_pattern,
)

# the constant 1, canonical
EXPR_ONE = canonicalize(ScalarExpr((ScalarTerm(),)))


def weighted_phase(t_from, t_to, arg_dict):
    return (time_difference(t_from, t_to), comb(arg_dict), True)


# ---------------------------------------------------------------------------
# combinatorics

def test_enumerate_pairings_counts():
    counts = {"a+": 1, "aa++": 2, "a+a+": 1, "aaa+++": 6, "aa+a++": 4}
    for pattern, expected in counts.items():
        assert len(enumerate_pairings(word_from_pattern(pattern))) == expected
    assert enumerate_pairings(word_from_pattern("+a")) == []
    assert enumerate_pairings(word_from_pattern("aa+")) == []


def test_block_word_factorial_counts():
    for n in range(1, 6):
        w = word_from_pattern("a" * n + "+" * n)
        assert len(enumerate_pairings(w)) == math.factorial(n)


def test_pairing_sorted_and_deterministic():
    ps = enumerate_pairings(word_from_pattern("aa++"))
    assert ps == [((1, 3), (2, 4)), ((1, 4), (2, 3))]
    # the enumeration comes out strictly increasing without a sort
    for pattern in [*patterns_up_to(8), "aaaaaa++++++"]:
        pairs = enumerate_pairings(word_from_pattern(pattern))
        assert all(a < b for a, b in zip(pairs, pairs[1:])), pattern


def _is_sorted_pairing(p) -> bool:
    """A plain tuple of (int, int) position pairs, strictly ascending."""
    return (type(p) is tuple
            and all(type(h) is tuple and len(h) == 2
                    and all(type(i) is int for i in h) for h in p)
            and all(a < b for a, b in zip(p, p[1:])))


def test_pairings_are_sorted_plain_tuples():
    # nothing sorts a pairing after it is built, and the CLI's "pairs"
    # lists print it in the order the routes return it
    for pattern in patterns_up_to(8):
        for mode in MODES:
            w = _build(pattern, mode)
            for p in enumerate_pairings(w):
                assert _is_sorted_pairing(p), (pattern, mode, p)
            match = noncrossing_match(w)
            assert match is None or _is_sorted_pairing(match), (pattern, mode)


def test_enumeration_forms_only_polarization_matched_pairs():
    # the scalar word's pairings, filtered to pairs of one polarization,
    # in the same order: the polarized enumeration skips the rest unformed
    for pattern in patterns_up_to(8):
        every = enumerate_pairings(_build(pattern, "scalar"))
        for mode in ("uniform", "cyclic"):
            w = _build(pattern, mode)
            matched = [p for p in every
                       if all(w.gens[m - 1][3] == w.gens[m2 - 1][3]
                              for m, m2 in p)]  # equal polarizations
            assert enumerate_pairings(w) == matched, (pattern, mode)


def test_crossing_predicates():
    nested = ((1, 6), (2, 5), (3, 4))
    assert crossing_count(nested) == 0
    assert enclosing_pairs(nested, (3, 4)) == [(1, 6), (2, 5)]
    assert enclosing_pairs(nested, (2, 5)) == [(1, 6)]
    assert enclosing_pairs(nested, (1, 6)) == []

    twisted = ((1, 4), (2, 6), (3, 5))
    assert crossing_count(twisted) == 2
    assert crossing_patterns(twisted) == [((1, 4), (2, 6)), ((1, 4), (3, 5))]
    # (1,4) straddles position 3 but crosses (3,5) instead of enclosing it
    assert enclosing_pairs(twisted, (3, 5)) == [(2, 6)]


def _touchard_riordan(n: int) -> list:
    """Coefficients of sum over perfect matchings of [2n] of q^crossings.

    (1-q)^-n sum_k (-1)^k q^(k(k+1)/2) [C(2n, n-k) - C(2n, n-k-1)], in
    integers: each division by 1-q is a prefix sum.
    """
    def binom(j):
        return math.comb(2 * n, j) if j >= 0 else 0

    poly = [0] * (n * (n + 1) // 2 + 1)
    for k in range(n + 1):
        poly[k * (k + 1) // 2] += (-1) ** k * (binom(n - k) - binom(n - k - 1))
    for _ in range(n):
        poly = list(itertools.accumulate(poly))
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def test_crossing_histogram_is_touchard_riordan():
    # over every pattern of length 2n each perfect matching of [2n] shows
    # up once, its left ends annihilators and its right ends creators
    for n in range(1, 7):
        hist = [0] * (n * (n - 1) // 2 + 1)
        for pattern in patterns_up_to(2 * n):
            if len(pattern) == 2 * n:
                for p in enumerate_pairings(word_from_pattern(pattern)):
                    hist[crossing_count(p)] += 1
        assert sum(hist) == math.prod(range(1, 2 * n, 2)), n
        assert hist == _touchard_riordan(n), n


# ---------------------------------------------------------------------------
# frozen four-point terms

def test_nested_four_point_term():
    w = word_from_pattern("aa++")
    term = pairing_term(w, ((1, 4), (2, 3)))
    expected = ScalarTerm(
        C_ONE, 0, -4,
        (
            weighted_phase("t1", "t4", {Energy("k1"): 1, PDot("k1"): 1}),
            weighted_phase("t2", "t3", {Energy("k2"): 1, PDot("k2"): 1,
                                        Dot("k1", "k2"): 1}),
        ),
        (momentum_delta("k1", "k4"), momentum_delta("k2", "k3")),
    )
    assert term == expected


def test_crossing_four_point_term():
    w = word_from_pattern("aa++")
    term = pairing_term(w, ((1, 3), (2, 4)))
    expected = ScalarTerm(
        C_ONE, 0, -4,
        (
            weighted_phase("t1", "t3", {Energy("k1"): 1, PDot("k1"): 1}),
            weighted_phase("t2", "t4", {Energy("k2"): 1, PDot("k2"): 1}),
            (time_difference("t2", "t3"), comb({Dot("k1", "k2"): 1}), False),
        ),
        (momentum_delta("k1", "k3"), momentum_delta("k2", "k4")),
    )
    assert term == expected


def test_pairing_term_polarization():
    # a pair of two polarizations is not a pairing of the word
    w = word_from_pattern("aa++", pols=[1, 2, 2, 1])
    nested = pairing_term(w, ((1, 4), (2, 3)))
    assert nested[0] == C_ONE
    with pytest.raises(WordError, match=r"^pair \(1, 3\) joins two polarizations$"):
        pairing_term(w, ((1, 3), (2, 4)))


def test_pairing_term_validation():
    positions = "pairing must use every position of the word once"
    for pattern, pairs, message in [
        ("aa++", ((1, 4),), positions),
        ("aa++", ((3, 1), (2, 4)),
         r"pair \(3, 1\) is not an annihilator before a creator"),
        # a creator standing before its annihilator
        ("a+a+", ((3, 2), (1, 4)),
         r"pair \(3, 2\) is not an annihilator before a creator"),
        ("a+a+", ((1, 3), (2, 4)),
         r"pair \(1, 3\) is not an annihilator before a creator"),
        # out of range, and positions 1 and 2 used twice, 3 and 4 never
        ("a+a+", ((0, 2), (3, 4)), positions),
        ("a+a+", ((1, 2), (3, 5)), positions),
        ("a+a+", ((1, 2), (1, 2)), positions),
        ("a+a+", ((1, 2), (1, 4)), positions),
    ]:
        with pytest.raises(WordError, match=f"^{message}$"):
            pairing_term(word_from_pattern(pattern), pairs)


# ---------------------------------------------------------------------------
# against the recursion

def test_closed_form_matches_recursion_spot():
    for pattern in ("a+", "aa++", "a+a+", "aaa+++", "aa+a++", "a+aa++"):
        w = word_from_pattern(pattern)
        assert canonically_equal(correlator_pairing_sum(w),
                                 correlator_recursive(w)), pattern


def test_recursion_builds_one_term_per_pairing_and_none_merge():
    # the sum over pairings has no cancellation at finite coupling: each
    # pairing is one raw recursion term, and no two are like terms
    words = [_build(p, m) for p in patterns_up_to(8) for m in MODES]
    words.append(word_from_pattern("aaaaaa++++++"))
    memo: dict = {}
    for w in words:
        raw = _raw_correlator_terms(w.gens, memo)
        assert len(raw) == len(enumerate_pairings(w)), w
        assert len(canonicalize(ScalarExpr(raw)).terms) == len(raw), w


def test_crossing_term_same_signature_different_factoring():
    """Both routes produce the crossing content, factored differently.

    The recursion carries swap phases and a shifted weighted argument;
    the closed form keeps the bare weighted phases plus one crossing
    factor.  Their merged exponents coincide, which is exactly what the
    term signature is built to detect.
    """
    w = word_from_pattern("aa++")
    delta = momentum_delta("k1", "k3")
    rec = [t for t in canonicalize(correlator_recursive(w)).terms
           if delta in t[4]]
    closed = [t for t in canonicalize(correlator_pairing_sum(w)).terms
              if delta in t[4]]
    assert len(rec) == len(closed) == 1
    assert term_signature(rec[0]) == term_signature(closed[0])
    assert rec[0][3] != closed[0][3]  # the phases


def test_annotated_terms_tags():
    anns = annotated_pairing_terms(word_from_pattern("aa++"))
    assert [(a.pairing, a.crossings) for a in anns] == [
        (((1, 3), (2, 4)), 1), (((1, 4), (2, 3)), 0)]

    # polarization mismatch drops a pairing from the annotated list
    polarized = annotated_pairing_terms(
        word_from_pattern("aa++", pols=[1, 2, 2, 1]))
    assert [a.pairing for a in polarized] == [((1, 4), (2, 3))]


def test_unbalanced_word_is_zero():
    # the empty word is the empty product; a word without a surviving
    # pairing sums to zero
    empty = correlator_pairing_sum(word())
    assert empty == EXPR_ONE and empty.canonical
    for w in (word_from_pattern("aaa+"), word_from_pattern("+a"),
              word_from_pattern("a++a"), word_from_pattern("a+", pols=[1, 2])):
        got = correlator_pairing_sum(w)
        assert got == EXPR_ZERO and got.canonical
