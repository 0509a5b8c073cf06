"""Self-check suites: coverage counts, report format, mutation sensitivity."""

from __future__ import annotations

import hashlib
from collections import Counter

from modwick import verify, words
from modwick.limits import correlator_wick_limit
from modwick.pairings import (
    correlator_pairing_sum, crossing_count, enumerate_pairings, pairing_term,
)
from modwick.scalars import (
    EXPR_ZERO, ScalarExpr, ScalarTerm, canonicalize, times,
)
from modwick.verify import (
    CATALAN, MODES, SuiteResult, all_passed, patterns_up_to, report, run_all,
    suite_adjoint_symmetry, suite_catalan_count, suite_closed_form_vs_recursion,
    suite_limit_triple_agreement, suite_swap_consistency, _bracket_balanced,
    _cases,
)
from modwick.words import (
    Word, correlator_recursive, expand_leading_annihilator, word_from_pattern,
)

import pytest

# the constant 1, canonical
EXPR_ONE = canonicalize(ScalarExpr((ScalarTerm(),)))


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


def _live(max_n: int) -> Counter:
    """Per length, the scalar patterns with nonzero Wick limit, as run_all counts them."""
    return Counter(len(c.key[0]) for c in _cases(max_n)
                   if c.key[1] == "scalar" and not c.wick_limit.is_zero())


def test_catalan_table_matches_suite():
    res = suite_catalan_count(4, _live(4))
    assert res.passed()
    assert CATALAN[:4] == (1, 2, 5, 14)


# Each corruption below replaces a route in `modwick.verify`, where the
# suites look it up when they run.

def test_equivalence_suite_detects_a_corrupted_route(monkeypatch):
    def corrupted(w):
        return EXPR_ZERO

    monkeypatch.setattr(verify, "correlator_pairing_sum", corrupted)
    res = suite_closed_form_vs_recursion(_cases(2))
    assert not res.passed()
    assert res.failures
    text = report([res])
    assert "FAIL" in text
    assert "FAILURE" in text
    assert text.rstrip("\n").split("\n")[-1].startswith("RESULT fail")


def test_equivalence_suite_detects_a_dropped_crossing_phase(monkeypatch):
    # a closed form one factor short on crossing pairings, still canonical:
    # the comparison must not trust the mark, only the terms
    def dropped(w):
        terms = []
        for p in enumerate_pairings(w):
            t = pairing_term(w, p)
            if crossing_count(p):
                coeff, two_pi_power, lambda_power, phases, deltas = t
                t = ScalarTerm(coeff, two_pi_power, lambda_power, phases[:-1], deltas)
            terms.append(t)
        e = canonicalize(ScalarExpr(tuple(terms)))
        assert e.canonical
        return e

    monkeypatch.setattr(verify, "correlator_pairing_sum", dropped)
    res = suite_closed_form_vs_recursion(_cases(2))
    # aa++ has the only crossing pairing; cyclic polarizations kill it
    assert [f.split(":")[0] for f in res.failures] == [
        "pattern=aa++ mode=scalar", "pattern=aa++ mode=uniform"]


def test_triple_agreement_suite_detects_a_corrupted_route(monkeypatch):
    def corrupted(w):
        return EXPR_ZERO

    monkeypatch.setattr(verify, "correlator_wick_limit", corrupted)
    res = suite_limit_triple_agreement(_cases(2))
    assert not res.passed()


def _failed_links(res) -> set:
    return {f.split("\n")[0].split(": ", 1)[1] for f in res.failures}


def test_triple_agreement_suite_detects_a_corrupted_rewrite(monkeypatch):
    monkeypatch.setattr(verify, "correlator_limit_rewrite", lambda w: EXPR_ONE)
    res = suite_limit_triple_agreement(_cases(2))
    assert _failed_links(res) == {"direct-wick != rewrite"}


def test_catalan_suite_detects_a_limit_that_never_vanishes(monkeypatch):
    monkeypatch.setattr(verify, "correlator_wick_limit", lambda w: EXPR_ONE)
    res = suite_catalan_count(2, _live(2))
    assert res.failures == [
        "n=1: 4 patterns with nonzero limit, expected 1",
        "n=2: 16 patterns with nonzero limit, expected 2"]


def test_adjoint_suite_detects_a_recursion_scaled_by_i(monkeypatch):
    def scaled(w):
        i = ScalarTerm((0, 1))
        return ScalarExpr(tuple(times(t, i) for t in correlator_recursive(w).terms))

    monkeypatch.setattr(verify, "correlator_recursive", scaled)
    res = suite_adjoint_symmetry(_cases(2))
    assert _failed_links(res) == {"adjoint != conjugate"}


def test_swap_suite_detects_a_recursion_blind_to_the_swap(monkeypatch):
    # sorting the generators gives a word and its swapped copy one value
    def blind(w):
        return correlator_recursive(Word(tuple(sorted(w.gens))))

    monkeypatch.setattr(verify, "correlator_recursive", blind)
    res = suite_swap_consistency(_cases(2))
    assert _failed_links(res) == {"direct != swapped*factor"}


def test_suite_result_passed_flag():
    ok = SuiteResult("demo", 3, [])
    bad = SuiteResult("demo", 3, ["case x"])
    assert ok.passed() and not bad.passed()
    assert not all_passed([ok, bad])


def test_run_all_computes_each_route_once_per_word(monkeypatch):
    # the suites that share the walk share each word's routes: one pairing
    # sum and one direct Wick limit per word, one enumeration of pairings
    # per scalar word, which block-word-count reads too, and one recursion
    # per word plus the adjoint word of each adjoint case and the swapped
    # word of each swap case
    calls = {"recursion": 0, "pairing sum": 0, "wick limit": 0, "pairings": 0}

    def counted(name, route):
        def wrapper(*args):
            calls[name] += 1
            return route(*args)
        return wrapper

    monkeypatch.setattr(verify, "correlator_recursive",
                        counted("recursion", correlator_recursive))
    monkeypatch.setattr(verify, "correlator_pairing_sum",
                        counted("pairing sum", correlator_pairing_sum))
    monkeypatch.setattr(verify, "correlator_wick_limit",
                        counted("wick limit", correlator_wick_limit))
    monkeypatch.setattr(verify, "enumerate_pairings",
                        counted("pairings", enumerate_pairings))
    results = {r.name: r for r in run_all(3)}
    table = sum(1 for _ in _cases(3))
    assert table == 378
    assert calls["pairing sum"] == calls["wick limit"] == table
    assert calls["pairings"] == results["pairing-existence"].cases == table // 3
    assert calls["recursion"] == (table + results["adjoint-symmetry"].cases
                                  + results["swap-consistency"].cases)


def test_each_recursion_memo_holds_one_entry_per_expansion(monkeypatch):
    # every recursion starts its own memo, and the vacuum rule and
    # `_pairable` answer before it: no sub-word that starts with a creator
    # or ends with an annihilator, nor one that no pairing closes, nor the
    # empty word, gets an entry, so no entry is empty, and every entry is
    # the one expansion of its sub-word within that call
    memos, starts, expansions = [], [], []
    raw_terms = words._raw_correlator_terms

    def raw(gens, memo):
        if not memos or memos[-1] is not memo:
            memos.append(memo)
            starts.append(len(expansions))
        return raw_terms(gens, memo)

    def expand(gens):
        expansions.append(gens)
        return expand_leading_annihilator(gens)

    monkeypatch.setattr(words, "_raw_correlator_terms", raw)
    monkeypatch.setattr(words, "expand_leading_annihilator", expand)
    assert all_passed(run_all(4))
    assert len(expansions) == 584
    for memo, start, end in zip(memos, starts, starts[1:] + [len(expansions)]):
        expanded = expansions[start:end]
        assert all(gens and not gens[0][0] and gens[-1][0] for gens in memo)
        assert all(memo.values())
        assert set(memo) == set(expanded) and len(memo) == len(expanded)


def test_run_all_builds_each_word_when_the_walk_reaches_it(monkeypatch):
    # the first word's routes run before the second word is built, so the
    # run never holds more than the word it is checking
    log, build_word = [], verify._build

    def build(pattern, mode):
        log.append("build")
        return build_word(pattern, mode)

    def closed_form(w):
        log.append("closed-form")
        return correlator_pairing_sum(w)

    monkeypatch.setattr(verify, "_build", build)
    monkeypatch.setattr(verify, "correlator_pairing_sum", closed_form)
    assert all_passed(run_all(1))
    assert log.index("closed-form") < log.index("build", 1)
    # six patterns of length <= 2, three modes each, every word checked
    # before the next is built
    assert log == ["build", "closed-form"] * 18


def _recursion_times_i(w):
    i = ScalarTerm((0, 1))
    return ScalarExpr(tuple(times(t, i) for t in correlator_recursive(w).terms))


def _pairing_sum_times_2(w):
    two = ScalarTerm((2, 0))
    return ScalarExpr(tuple(times(t, two) for t in correlator_pairing_sum(w).terms))


# sha256 of report(run_all(3)) under each corruption, recorded when each
# suite still walked the whole table on its own: failure order, labels and
# the first link that differs must not depend on the order of the work
@pytest.mark.parametrize("route, corrupted, digest", [
    ("correlator_recursive", _recursion_times_i,
     "c77060e1f944084f69d95038993911a5b5dc07d3aadf0d5490912da0d65f00db"),
    ("correlator_pairing_sum", _pairing_sum_times_2,
     "ca7a73509588c360fd9fa01edb0b2eb944e08b928429538c64583d928cad75a6"),
], ids=["recursion-times-i", "pairing-sum-times-2"])
def test_failure_report_is_byte_identical(monkeypatch, route, corrupted, digest):
    monkeypatch.setattr(verify, route, corrupted)
    text = report(run_all(3))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
