"""JSON round trips and LaTeX rendering."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from modwick.limits import correlator_wick_limit
from modwick.scalars import (
    Dot, EXPR_ZERO, PhaseArg, RationalComplex, ScalarExpr, ScalarTerm,
    TERM_ONE, TimeComb, TimeDelta, oscillation,
)
from modwick.serialize import (
    from_json_dict, from_json_str, term_to_latex, to_json_dict, to_json_str,
    to_latex,
)
from modwick.words import correlator_recursive, word_from_pattern


SAMPLE_EXPRS = [
    EXPR_ZERO,
    ScalarExpr((TERM_ONE,)),
    correlator_recursive(word_from_pattern("a+")),
    correlator_recursive(word_from_pattern("aa++")),
    correlator_wick_limit(word_from_pattern("aaa+++")),
    # raw unnormalized content with a rational coefficient
    ScalarExpr((ScalarTerm(
        RationalComplex.of(Fraction(-3, 7), Fraction(1, 2)), 2, -4,
        (oscillation("t2", "t1", PhaseArg.of({Dot("k1", "k2"): 2}), power=-1),),
        (TimeDelta(TimeComb.difference("t1", "t3")),)),)),
]


@pytest.mark.parametrize("e", SAMPLE_EXPRS)
def test_json_round_trip_exact(e):
    assert from_json_dict(to_json_dict(e)) == e
    assert from_json_str(to_json_str(e)) == e


def test_json_is_plain_data():
    e = correlator_recursive(word_from_pattern("aa++"))
    blob = to_json_str(e)
    data = json.loads(blob)
    assert isinstance(data["terms"], list)
    assert json.dumps(data, indent=2) == blob  # stable re-serialization
    term = data["terms"][0]
    assert set(term) == {"coeff", "two_pi_power", "lambda_power",
                         "phases", "deltas"}


def test_json_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        from_json_dict({"terms": [{
            "coeff": [[1, 1], [0, 1]], "two_pi_power": 0, "lambda_power": 0,
            "phases": [], "deltas": [{"kind": "mystery"}]}]})
    with pytest.raises(ValueError):
        from_json_dict({"terms": [{
            "coeff": [[1, 1], [0, 1]], "two_pi_power": 0, "lambda_power": 0,
            "phases": [{"time": [["t1", 1]], "arg": [[{"kind": "odd"}, 1]],
                        "weighted": False}],
            "deltas": []}]})


def test_latex_two_point():
    tex = to_latex(correlator_recursive(word_from_pattern("a+")))
    assert r"\tfrac{1}{\lambda^{2}}" in tex
    assert r"q_{\lambda}\left(t_{1} - t_{2},\, " in tex
    assert r"\tilde{\omega}(k_{1}) + k_{1} \cdot p" in tex
    assert r"\delta(k_{1} - k_{2})" in tex


def test_latex_marks_inverse_oscillations():
    term = ScalarTerm(phases=(
        oscillation("t1", "t2", PhaseArg.of({Dot("k1", "k2"): 1}), power=-1),))
    assert "q_{\\lambda}^{-1}" in term_to_latex(term)


def test_latex_limit_expression():
    tex = to_latex(correlator_wick_limit(word_from_pattern("aa++")))
    assert r"(2\pi)^{2}" in tex
    assert r"\delta(t_{1} - t_{4})" in tex
    assert r"k_{1} \cdot k_{2}" in tex
    assert "\\lambda" not in tex  # the limit carries no coupling factors


def test_latex_edge_cases():
    assert to_latex(EXPR_ZERO) == "0"
    assert term_to_latex(TERM_ONE) == "1"
    assert term_to_latex(ScalarTerm(two_pi_power=1)) == r"2\pi"
    coeff = RationalComplex.of(Fraction(1, 2), Fraction(-1, 3))
    rendered = term_to_latex(ScalarTerm(coeff=coeff))
    assert r"\tfrac{1}{2}" in rendered and r"\tfrac{-1}{3}i" in rendered


def test_latex_sum_joins_terms():
    e = correlator_recursive(word_from_pattern("aa++"))
    assert len(e.terms) == 2
    assert to_latex(e).count("\n+ ") == 1
