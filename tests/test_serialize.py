"""JSON round trips and LaTeX rendering."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modwick.limits import correlator_wick_limit
from modwick.scalars import (
    ContractionPhase, Dot, EXPR_ZERO, Energy, MomentumDelta, PDot, PhaseDelta,
    RationalComplex, ScalarExpr, ScalarTerm, TERM_ONE, TimeDelta, comb,
    oscillation, time_difference,
)
from modwick.serialize import (
    from_json_dict, from_json_str, indented_json, term_to_json_dict,
    term_to_latex, to_json_dict, to_json_str, to_latex,
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
        (oscillation("t2", "t1", comb({Dot("k1", "k2"): 2}), power=-1),),
        (TimeDelta(time_difference("t1", "t3")),)),)),
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


# labels with quotes, backslashes, control characters and non-ASCII
labels = st.text(
    st.sampled_from('ak1"\\/\n\t\x00\x1f\x7fé€\U0001d70b') | st.characters(),
    max_size=4)
big = st.integers(-10**30, 10**30)
nonzero = big.filter(bool)
atoms = st.one_of(st.builds(Energy, labels), st.builds(Dot, labels, labels),
                  st.builds(PDot, labels))
args = st.dictionaries(atoms, nonzero, max_size=3).map(comb)
times = st.dictionaries(labels, nonzero, max_size=3).map(comb)
phases = st.builds(ContractionPhase, times, args, st.booleans())
deltas = st.one_of(
    st.tuples(labels, labels).filter(lambda ab: ab[0] != ab[1])
    .map(lambda ab: MomentumDelta(*ab)),
    times.filter(bool).map(TimeDelta),
    args.filter(bool).map(PhaseDelta))
fractions = st.builds(Fraction, big, nonzero)


@st.composite
def exprs(draw):
    # terms draw from small pools, so one phase or delta recurs across terms
    phase_pool = draw(st.lists(phases, min_size=1, max_size=3))
    delta_pool = draw(st.lists(deltas, min_size=1, max_size=3))
    term = st.builds(
        ScalarTerm, st.builds(RationalComplex, fractions, fractions), big, big,
        st.lists(st.sampled_from(phase_pool), max_size=4).map(tuple),
        st.lists(st.sampled_from(delta_pool), max_size=3).map(tuple))
    return ScalarExpr(tuple(draw(st.lists(term, max_size=4))))


@settings(max_examples=200, deadline=None)
@given(e=exprs(), with_term=st.booleans())
def test_indented_writer_matches_json_dumps(e, with_term):
    assert to_json_str(e) == json.dumps(to_json_dict(e), indent=2)
    entries = [{"pairs": [[1, 2 + i]], "crossings": i, "tag": "crossing",
                **({"term": t} if with_term else {})}
               for i, t in enumerate(e.terms)]
    doc = {"count": len(entries), "pairings": entries}
    assert indented_json(doc) == json.dumps(doc, indent=2, default=term_to_json_dict)


def test_indented_writer_refuses_other_types():
    for bad in (1.5, None, (1, 2), {1: 2}):
        with pytest.raises(TypeError):
            indented_json({"x": [bad]})


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
        oscillation("t1", "t2", comb({Dot("k1", "k2"): 1}), power=-1),))
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
