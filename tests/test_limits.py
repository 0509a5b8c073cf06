"""The weak-coupling limit: three routes, one answer.

Frozen limit terms for the four- and six-point words pin down the
enclosure-shifted delta arguments; the agreement tests then confirm the
structural limit map, the direct non-crossing construction, and the
free-algebra rewrite engine coincide canonically.
"""

from __future__ import annotations

import pytest

from modwick.limits import (
    correlator_limit_rewrite, correlator_wick_limit, limit_of_pairing_sum,
    noncrossing_match,
)
from modwick.pairings import correlator_pairing_sum, pairing_term
from modwick.scalars import (
    C_ONE, ContractionPhase, Dot, Energy, EXPR_ONE, EXPR_ZERO, MomentumDelta,
    PDot, PhaseDelta, ScalarExpr, ScalarTerm, TimeDelta, canonicalize,
    canonically_equal, comb, contraction_phases, time_difference,
)
from modwick.words import word, word_from_pattern


def phase_delta(arg_dict):
    return PhaseDelta(comb(arg_dict))


def time_delta(t_from, t_to):
    return TimeDelta(time_difference(t_from, t_to))


# ---------------------------------------------------------------------------
# the non-crossing match

def test_noncrossing_match_cases():
    cases = {
        "a+": ((1, 2),),
        "aa++": ((1, 4), (2, 3)),
        "a+a+": ((1, 2), (3, 4)),
        "aaa+++": ((1, 6), (2, 5), (3, 4)),
        "aa+a++": ((1, 6), (2, 3), (4, 5)),
    }
    for pattern, pairs in cases.items():
        assert noncrossing_match(word_from_pattern(pattern)) == pairs, pattern
    for pattern in ("+a", "aa+", "a", "+", "+a+a"):
        assert noncrossing_match(word_from_pattern(pattern)) is None, pattern
    assert noncrossing_match(word()) is not None


# ---------------------------------------------------------------------------
# frozen limit terms

def test_two_point_limit_term():
    e = correlator_wick_limit(word_from_pattern("a+"))
    expected = ScalarTerm(C_ONE, 1, 0, (), (
        MomentumDelta("k1", "k2"),
        time_delta("t1", "t2"),
        phase_delta({Energy("k1"): 1, PDot("k1"): 1}),
    ))
    assert e.terms == (expected,)


def test_nested_four_point_limit_has_shifted_argument():
    e = correlator_wick_limit(word_from_pattern("aa++"))
    expected = ScalarTerm(C_ONE, 2, 0, (), (
        MomentumDelta("k1", "k4"),
        MomentumDelta("k2", "k3"),
        time_delta("t1", "t4"),
        time_delta("t2", "t3"),
        phase_delta({Energy("k1"): 1, PDot("k1"): 1}),
        phase_delta({Energy("k2"): 1, PDot("k2"): 1, Dot("k1", "k2"): 1}),
    ))
    assert e.terms == (expected,)


def test_six_point_block_limit_accumulates_shifts():
    e = correlator_wick_limit(word_from_pattern("aaa+++"))
    expected = ScalarTerm(C_ONE, 3, 0, (), (
        MomentumDelta("k1", "k6"),
        MomentumDelta("k2", "k5"),
        MomentumDelta("k3", "k4"),
        time_delta("t1", "t6"),
        time_delta("t2", "t5"),
        time_delta("t3", "t4"),
        phase_delta({Energy("k1"): 1, PDot("k1"): 1}),
        phase_delta({Energy("k2"): 1, PDot("k2"): 1, Dot("k1", "k2"): 1}),
        phase_delta({Energy("k3"): 1, PDot("k3"): 1,
                     Dot("k1", "k3"): 1, Dot("k2", "k3"): 1}),
    ))
    assert e.terms == (expected,)


def test_rewrite_engine_reproduces_the_same_canonical_terms():
    # independent route: adjacent contractions with migrating scalars
    for pattern in ("a+", "aa++", "aaa+++", "a+a+", "aa+a++"):
        direct = correlator_wick_limit(word_from_pattern(pattern))
        rewritten = correlator_limit_rewrite(word_from_pattern(pattern))
        assert rewritten == direct, pattern


def test_adjacent_blocks_do_not_shift_each_other():
    # in a+a+ the first contraction migrates through the second block
    # and the two momentum shifts cancel exactly
    e = correlator_limit_rewrite(word_from_pattern("a+a+"))
    (term,) = e.terms
    assert phase_delta({Energy("k1"): 1, PDot("k1"): 1}) in term.deltas
    assert phase_delta({Energy("k3"): 1, PDot("k3"): 1}) in term.deltas


# ---------------------------------------------------------------------------
# the structural limit map

def test_limit_map_drops_crossing_terms():
    w = word_from_pattern("aa++")
    crossing = pairing_term(w, ((1, 3), (2, 4)))
    assert limit_of_pairing_sum(ScalarExpr((crossing,))) == EXPR_ZERO
    nested = pairing_term(w, ((1, 4), (2, 3)))
    assert limit_of_pairing_sum(ScalarExpr((nested,))) \
        == correlator_wick_limit(w)


def test_limit_map_keeps_cancelled_oscillations():
    # an unweighted phase whose times are identified by the same pair
    # contributes q(0, x) = 1 and must not kill the term
    term = ScalarTerm(
        C_ONE, 0, -2,
        (
            ContractionPhase(time_difference("t1", "t2"),
                             comb({Energy("k1"): 1, PDot("k1"): 1}),
                             weighted=True),
            ContractionPhase(time_difference("t1", "t2"),
                             comb({Dot("k1", "k2"): 1})),
        ),
        (MomentumDelta("k1", "k2"),))
    out = limit_of_pairing_sum(ScalarExpr((term,)))
    expected = ScalarTerm(C_ONE, 1, 0, (), (
        MomentumDelta("k1", "k2"),
        time_delta("t1", "t2"),
        phase_delta({Energy("k1"): 1, PDot("k1"): 1}),
    ))
    assert out.terms == (expected,)


def test_limit_map_weight_mismatch_raises():
    bad = ScalarTerm(
        C_ONE, 0, 0,
        (ContractionPhase(time_difference("t1", "t2"),
                          comb({Energy("k1"): 1}), weighted=True),),
        ())
    with pytest.raises(ValueError):
        limit_of_pairing_sum(ScalarExpr((bad,)))


def test_limit_map_rejects_a_weighted_phase_the_identification_cancels():
    # delta(k1 - k4) cancels E(k1) - E(k4): canonicalize keeps the weighted
    # factor with its 1/lambda^2, and lambda^-2 q(t, 0) has no limit
    term = ScalarTerm(
        C_ONE, 0, -2,
        (ContractionPhase(time_difference("t1", "t2"),
                          comb({Energy("k1"): 1, Energy("k4"): -1}),
                          weighted=True),),
        (MomentumDelta("k1", "k4"),))
    (canon,) = canonicalize(ScalarExpr((term,))).terms
    (ph,) = contraction_phases(canon)
    assert ph.arg == () and ph.time == time_difference("t1", "t2")
    with pytest.raises(ValueError, match="zero argument"):
        limit_of_pairing_sum(ScalarExpr((term,)))


# ---------------------------------------------------------------------------
# agreement and vanishing

def test_triple_agreement_spot():
    patterns = ("a+", "aa++", "a+a+", "aaa+++", "aa+a++", "a+aa++", "aa++a+")
    for pattern in patterns:
        for pols in (None, [1] * len(pattern),
                     [i % 3 + 1 for i in range(len(pattern))]):
            w = word_from_pattern(pattern, pols)
            mapped = limit_of_pairing_sum(correlator_pairing_sum(w))
            direct = correlator_wick_limit(w)
            rewritten = correlator_limit_rewrite(w)
            assert canonically_equal(mapped, direct), (pattern, pols)
            assert canonically_equal(direct, rewritten), (pattern, pols)


def test_wick_limit_does_not_borrow_the_enclosure_rule(monkeypatch):
    # the closed form's enclosing pairs are the formula the Wick route
    # checks: with them gone, the Wick limit must still give the right shifts
    monkeypatch.setattr("modwick.pairings.enclosing_pairs",
                        lambda pairing, h: [])
    monkeypatch.setattr("modwick.limits.enclosing_pairs",
                        lambda pairing, h: [], raising=False)
    for pattern in ("aa++", "aaa+++"):
        w = word_from_pattern(pattern)
        assert canonically_equal(correlator_wick_limit(w),
                                 correlator_limit_rewrite(w)), pattern


def test_polarization_mismatch_kills_limit():
    w = word_from_pattern("aa++", pols=[1, 2, 3, 1])
    assert correlator_wick_limit(w) == EXPR_ZERO
    assert correlator_limit_rewrite(w) == EXPR_ZERO
    uniform = word_from_pattern("aa++", pols=[2, 2, 2, 2])
    assert correlator_wick_limit(uniform) \
        == correlator_wick_limit(word_from_pattern("aa++"))


def test_rewrite_limit_kills_polarization_mismatch():
    # the contracted pair itself mismatches: no Kronecker delta is kept
    assert correlator_limit_rewrite(
        word_from_pattern("a+", pols=[1, 2])) == EXPR_ZERO
    matched = word_from_pattern("a+", pols=[2, 2])
    assert correlator_limit_rewrite(matched) == correlator_wick_limit(matched)
    assert correlator_limit_rewrite(matched) != EXPR_ZERO


def test_empty_and_unbalanced_words():
    assert correlator_wick_limit(word()) == EXPR_ONE
    assert correlator_limit_rewrite(word()) == EXPR_ONE
    assert correlator_wick_limit(word_from_pattern("a+a")) == EXPR_ZERO
    assert correlator_limit_rewrite(word_from_pattern("a+a")) == EXPR_ZERO
    assert correlator_wick_limit(word_from_pattern("+a")) == EXPR_ZERO

    routes = (lambda w: limit_of_pairing_sum(correlator_pairing_sum(w)),
              correlator_wick_limit, correlator_limit_rewrite)
    edge = {word(): EXPR_ONE}
    for w in (word_from_pattern("aaa+"), word_from_pattern("+a"),
              word_from_pattern("a++a"), word_from_pattern("a+", pols=[1, 2])):
        edge[w] = EXPR_ZERO
    for w, expected in edge.items():
        for route in routes:
            got = route(w)
            assert got == expected and got.canonical, (w, route)


def test_catalan_counts_small():
    catalan = (1, 2, 5, 14)
    for n in range(1, 5):
        live = 0
        for mask in range(1 << (2 * n)):
            pattern = "".join(
                "+" if (mask >> (2 * n - 1 - i)) & 1 else "a"
                for i in range(2 * n))
            if not correlator_wick_limit(word_from_pattern(pattern)).is_zero():
                live += 1
        assert live == catalan[n - 1], n
