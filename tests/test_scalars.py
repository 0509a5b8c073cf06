"""Exact scalar layer: normalization, canonicalization, semantic equality.

The property tests draw random terms over a small label pool and check
the invariants the rest of the package leans on: canonicalization is
idempotent and insensitive to input ordering, and term signatures see
through different factorizations of the same oscillation content.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from modwick.scalars import (
    C_ONE, C_ZERO, ContractionPhase, Dot, Energy, EXPR_ZERO, MomentumDelta,
    PDot, PhaseArg, PhaseDelta, RationalComplex, ScalarExpr, ScalarTerm,
    TimeComb, TimeDelta, add, canonicalize, canonically_equal, conjugate,
    delta_key, label_classes, merged_exponent, multiply, negate, oscillation,
    term_signature,
)


# ---------------------------------------------------------------------------
# coefficients and atoms

def test_rational_complex_arithmetic():
    a = RationalComplex.of(Fraction(1, 2), 3)
    b = RationalComplex.of(2, Fraction(-1, 3))
    assert a + b == RationalComplex.of(Fraction(5, 2), Fraction(8, 3))
    # (1/2 + 3i)(2 - i/3) = 1 + 1 + (6 - 1/6)i
    assert a * b == RationalComplex.of(2, Fraction(35, 6))
    assert (-a) == RationalComplex.of(Fraction(-1, 2), -3)
    assert a.conjugate() == RationalComplex.of(Fraction(1, 2), -3)
    assert C_ZERO.is_zero() and not C_ONE.is_zero()


def test_dot_orders_labels():
    assert Dot("k3", "k1") == Dot("k1", "k3")
    assert str(Dot("k3", "k1")) == "D(k1,k3)"
    assert str(Energy("k2")) == "E(k2)"
    assert str(PDot("k2")) == "P(k2)"
    assert str(Dot("k1", "k1")) == "D(k1,k1)"
    # atoms order by kind first, then by label, inside every argument
    assert Energy("k9") < Dot("k1", "k2") < Dot("k1", "k3") < PDot("k1")


def test_time_comb_normalization():
    assert TimeComb.of({"t1": 1, "t2": 0}).items == (("t1", 1),)
    assert TimeComb.difference("t1", "t1").is_zero()
    d = TimeComb.difference("t2", "t1")
    assert d.negated() == TimeComb.of({"t2": -1, "t1": 1})
    assert d.substituted({"t2": "t1"}).is_zero()
    assert d.labels() == {"t1", "t2"}


def test_phase_arg_merging_and_shift():
    arg = PhaseArg.of({Energy("k1"): 1, PDot("k1"): 1})
    assert arg.plus(arg.negated()).is_zero()
    shift = PhaseArg.of({Dot("k3", "k1"): 1})
    assert arg.plus(shift) == PhaseArg.of(
        {Energy("k1"): 1, PDot("k1"): 1, Dot("k1", "k3"): 1})
    # subtracting the shift again undoes it
    assert arg.plus(shift).plus(shift.negated()) == arg


def test_oscillation_power_negates():
    arg = PhaseArg.of({Dot("k1", "k2"): 1})
    ph = oscillation("t1", "t2", arg, power=-1)
    assert ph.arg == arg.negated()
    assert ph.time == TimeComb.difference("t1", "t2")
    assert not ph.weighted
    with pytest.raises(ValueError):
        oscillation("t1", "t2", arg, power=2)


def test_delta_sign_fixing():
    assert MomentumDelta("k4", "k2") == MomentumDelta("k2", "k4")
    td = TimeDelta(TimeComb.of({"t1": -1, "t2": 1}))
    assert td.comb.items[0][1] > 0
    pd = PhaseDelta(PhaseArg.of({Energy("k1"): -1, PDot("k1"): -1}))
    assert pd.arg.items[0][1] > 0
    with pytest.raises(ValueError):
        MomentumDelta("k1", "k1")
    with pytest.raises(ValueError):
        TimeDelta(TimeComb())
    assert delta_key(MomentumDelta("k1", "k2"))[0] == 0
    assert delta_key(td)[0] == 1


# ---------------------------------------------------------------------------
# merged exponent and signatures

def test_merged_exponent_accumulates_across_phases():
    x = PhaseArg.of({Energy("k1"): 1})
    y = PhaseArg.of({Dot("k1", "k2"): 1})
    split = ScalarTerm(phases=(
        ContractionPhase(TimeComb.difference("t1", "t2"), x),
        ContractionPhase(TimeComb.difference("t1", "t2"), y),
    ))
    joint = ScalarTerm(phases=(
        ContractionPhase(TimeComb.difference("t1", "t2"), x.plus(y)),
    ))
    assert merged_exponent(split) == merged_exponent(joint)
    assert term_signature(split) == term_signature(joint)
    assert merged_exponent(joint) == {
        ("t1", Energy("k1")): 1, ("t1", Dot("k1", "k2")): 1,
        ("t2", Energy("k1")): -1, ("t2", Dot("k1", "k2")): -1,
    }


def test_signature_sees_through_inverse_factor():
    # q(t1 - t2, x) q^{-1}(t1 - t2, x) carries no oscillation at all
    x = PhaseArg.of({Energy("k1"): 1})
    term = ScalarTerm(phases=(
        oscillation("t1", "t2", x, power=1),
        oscillation("t1", "t2", x, power=-1),
    ))
    assert merged_exponent(term) == {}
    assert term_signature(term) == term_signature(ScalarTerm())


# ---------------------------------------------------------------------------
# canonicalization, targeted cases

def test_canonicalize_merges_like_terms_to_zero():
    term = ScalarTerm(C_ONE, 0, -2,
                      (oscillation("t1", "t2", PhaseArg.of({Energy("k1"): 1})),),
                      (MomentumDelta("k1", "k2"),))
    e = ScalarExpr((term, term.scaled(RationalComplex.of(-1))))
    assert canonicalize(e) == EXPR_ZERO
    assert canonicalize(ScalarExpr((term, term))).terms[0].coeff \
        == RationalComplex.of(2)


def test_canonicalize_star_normalizes_delta_chains():
    chain = (MomentumDelta("k2", "k3"), MomentumDelta("k1", "k2"))
    term = ScalarTerm(
        phases=(ContractionPhase(TimeComb.difference("t1", "t2"),
                                 PhaseArg.of({Energy("k3"): 1})),),
        deltas=chain)
    out = canonicalize(ScalarExpr((term,))).terms[0]
    assert out.deltas == (MomentumDelta("k1", "k2"), MomentumDelta("k1", "k3"))
    # phases rewritten onto the class representative
    assert out.phases[0].arg == PhaseArg.of({Energy("k1"): 1})


def test_canonicalize_merges_unweighted_oscillations():
    x = PhaseArg.of({Dot("k1", "k2"): 1})
    term = ScalarTerm(phases=(
        oscillation("t1", "t2", x),
        oscillation("t2", "t1", x),  # cancels the first
        oscillation("t1", "t3", x),
    ))
    out = canonicalize(ScalarExpr((term,))).terms[0]
    assert out.phases == (
        ContractionPhase(TimeComb.difference("t1", "t3"), x),)


def test_label_classes_map_to_the_smallest_label():
    reps = label_classes([("k3", "k2"), ("k5", "k4"), ("k4", "k3"), ("k7",)])
    assert reps == {"k2": "k2", "k3": "k2", "k4": "k2", "k5": "k2", "k7": "k7"}
    # an edge may join more than two labels; edge order does not matter
    assert label_classes([("t3", "t1", "t2")]) == label_classes(
        [("t2", "t1"), ("t3", "t2")])
    assert label_classes([]) == {}


# ---------------------------------------------------------------------------
# property tests

T_LABELS = ("t1", "t2", "t3", "t4")
K_LABELS = ("k1", "k2", "k3", "k4")

atoms = st.one_of(
    st.sampled_from(K_LABELS).map(Energy),
    st.tuples(st.sampled_from(K_LABELS), st.sampled_from(K_LABELS))
      .map(lambda ab: Dot(*ab)),
    st.sampled_from(K_LABELS).map(PDot),
)
args = st.dictionaries(atoms, st.sampled_from((-2, -1, 1, 2)),
                       min_size=1, max_size=3).map(PhaseArg.of)
time_combs = (
    st.tuples(st.sampled_from(T_LABELS), st.sampled_from(T_LABELS))
      .filter(lambda ab: ab[0] != ab[1])
      .map(lambda ab: TimeComb.difference(*ab))
)
phases = st.builds(ContractionPhase, time_combs, args, st.booleans())
deltas = st.one_of(
    st.tuples(st.sampled_from(K_LABELS), st.sampled_from(K_LABELS))
      .filter(lambda ab: ab[0] != ab[1])
      .map(lambda ab: MomentumDelta(*ab)),
    time_combs.map(TimeDelta),
    args.map(PhaseDelta),
)
coeffs = st.builds(
    RationalComplex.of,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
terms = st.builds(
    ScalarTerm, coeffs, st.integers(-2, 3), st.integers(-4, 2),
    st.lists(phases, max_size=3).map(tuple),
    st.lists(deltas, max_size=3).map(tuple),
)
exprs = st.lists(terms, max_size=3).map(tuple).map(ScalarExpr)
# identifying k1 with k4 cancels the phase delta's argument entirely
COLLAPSING = ScalarExpr((ScalarTerm(deltas=(
    MomentumDelta("k1", "k4"),
    PhaseDelta(PhaseArg.of({Energy("k1"): 2, Energy("k4"): -2})))),))


def _scrambled(e: ScalarExpr) -> ScalarExpr:
    return ScalarExpr(tuple(
        ScalarTerm(t.coeff, t.two_pi_power, t.lambda_power,
                   tuple(reversed(t.phases)), tuple(reversed(t.deltas)))
        for t in reversed(e.terms)
    ))


@settings(max_examples=80, deadline=None)
@given(exprs)
@example(COLLAPSING)
def test_canonicalize_idempotent(e):
    once = canonicalize(e)
    assert canonicalize(once) == once


@settings(max_examples=80, deadline=None)
@given(exprs)
@example(COLLAPSING)
def test_canonicalize_order_insensitive(e):
    assert canonicalize(_scrambled(e)) == canonicalize(e)
    assert canonically_equal(e, _scrambled(e))


@settings(max_examples=80, deadline=None)
@given(exprs)
@example(COLLAPSING)
def test_conjugate_involution(e):
    assert conjugate(conjugate(e)) == canonicalize(e)


@settings(max_examples=80, deadline=None)
@given(exprs)
def test_add_negate_cancels(e):
    assert add(e, negate(e)) == EXPR_ZERO


@settings(max_examples=60, deadline=None)
@given(exprs, exprs)
def test_multiply_commutes_canonically(a, b):
    assert canonically_equal(multiply(a, b), multiply(b, a))


@settings(max_examples=60, deadline=None)
@given(exprs, exprs)
def test_equality_is_a_congruence_for_multiply(a, c):
    b = _scrambled(a)
    assert canonically_equal(multiply(a, c), multiply(b, c))


@settings(max_examples=80, deadline=None)
@given(terms, terms)
def test_merged_exponent_additive_under_times(t1, t2):
    prod = merged_exponent(t1.times(t2))
    acc = dict(merged_exponent(t1))
    for key, c in merged_exponent(t2).items():
        acc[key] = acc.get(key, 0) + c
    assert prod == {k: v for k, v in acc.items() if v != 0}
