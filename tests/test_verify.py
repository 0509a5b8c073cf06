"""Self-check suites: coverage counts, report format, mutation sensitivity."""

from __future__ import annotations

from modwick.pairings import crossing_count, enumerate_pairings, pairing_term
from modwick.scalars import (
    EXPR_ONE, EXPR_ZERO, RationalComplex, ScalarExpr, ScalarTerm, canonicalize,
)
from modwick.verify import (
    CATALAN, MODES, SuiteResult, all_passed, patterns_up_to, report, run_all,
    suite_adjoint_symmetry, suite_catalan_count, suite_closed_form_vs_recursion,
    suite_limit_triple_agreement, suite_swap_consistency, _bracket_balanced,
)
from modwick.words import Word, correlator_recursive, word_from_pattern

import pytest


def test_patterns_up_to_counts_and_order():
    pats = list(patterns_up_to(3))
    assert len(pats) == 2 + 4 + 8
    assert pats[:6] == ["a", "+", "aa", "a+", "+a", "++"]
    assert len(list(patterns_up_to(4))) == 30


def test_bracket_balanced():
    balanced = {"a+": True, "aa+a++": True, "+a": False,
                "aa+": False, "a++a": False}
    for pattern, expect in balanced.items():
        assert _bracket_balanced(word_from_pattern(pattern)) is expect, pattern


def test_run_all_small_and_report_shape():
    results = run_all(2)
    assert len(results) == 8
    assert all_passed(results)
    text = report(results)
    assert text.startswith("suite ")
    assert text.endswith("\n")
    lines = text.rstrip("\n").split("\n")
    assert lines[-1].startswith("RESULT pass: 8 suites,")
    assert all(" ok" in line for line in lines[:-1])
    # deterministic output, same run
    assert report(results) == text


def test_run_all_rejects_bad_depth():
    with pytest.raises(ValueError):
        run_all(0)
    with pytest.raises(ValueError):
        run_all(7)


def test_modes_cover_polarization_space():
    assert MODES == ("scalar", "uniform", "cyclic")


def test_catalan_table_matches_suite():
    res = suite_catalan_count(4)
    assert res.passed()
    assert CATALAN[:4] == (1, 2, 5, 14)


def test_equivalence_suite_detects_a_corrupted_route():
    def corrupted(w):
        return EXPR_ZERO

    res = suite_closed_form_vs_recursion(2, closed=corrupted)
    assert not res.passed()
    assert res.failures
    text = report([res])
    assert "FAIL" in text
    assert "FAILURE" in text
    assert text.rstrip("\n").split("\n")[-1].startswith("RESULT fail")


def test_equivalence_suite_detects_a_dropped_crossing_phase():
    # a closed form one factor short on crossing pairings, still canonical:
    # the comparison must not trust the mark, only the terms
    def dropped(w):
        terms = []
        for p in enumerate_pairings(w):
            t = pairing_term(w, p)
            if crossing_count(p):
                t = ScalarTerm(t.coeff, t.two_pi_power, t.lambda_power,
                               t.phases[:-1], t.deltas)
            terms.append(t)
        e = canonicalize(ScalarExpr(tuple(terms)))
        assert e.canonical
        return e

    res = suite_closed_form_vs_recursion(2, closed=dropped)
    # aa++ has the only crossing pairing; cyclic polarizations kill it
    assert [f.split(":")[0] for f in res.failures] == [
        "pattern=aa++ mode=scalar", "pattern=aa++ mode=uniform"]


def test_triple_agreement_suite_detects_a_corrupted_route():
    def corrupted(w):
        return EXPR_ZERO

    res = suite_limit_triple_agreement(2, wick=corrupted)
    assert not res.passed()


def _failed_links(res) -> set:
    return {f.split("\n")[0].split(": ", 1)[1] for f in res.failures}


def test_triple_agreement_suite_detects_a_corrupted_rewrite():
    res = suite_limit_triple_agreement(2, rewrite=lambda w: EXPR_ONE)
    assert _failed_links(res) == {"direct-wick != rewrite"}


def test_catalan_suite_detects_a_limit_that_never_vanishes():
    res = suite_catalan_count(2, wick=lambda w: EXPR_ONE)
    assert res.failures == [
        "n=1: 4 patterns with nonzero limit, expected 1",
        "n=2: 16 patterns with nonzero limit, expected 2"]


def test_adjoint_suite_detects_a_recursion_scaled_by_i():
    def scaled(w):
        i = ScalarTerm(RationalComplex.of(0, 1))
        return ScalarExpr(tuple(t.times(i) for t in correlator_recursive(w).terms))

    res = suite_adjoint_symmetry(2, recursive=scaled)
    assert _failed_links(res) == {"adjoint != conjugate"}


def test_swap_suite_detects_a_recursion_blind_to_the_swap():
    # sorting the generators gives a word and its swapped copy one value
    def blind(w):
        return correlator_recursive(Word(tuple(sorted(w.gens))))

    res = suite_swap_consistency(2, recursive=blind)
    assert _failed_links(res) == {"direct != swapped*factor"}


def test_suite_result_passed_flag():
    ok = SuiteResult("demo", 3, [])
    bad = SuiteResult("demo", 3, ["case x"])
    assert ok.passed() and not bad.passed()
    assert not all_passed([ok, bad])
