"""Exact scalar layer: normalization, canonicalization, semantic equality.

The property tests draw random terms over a small label pool and check
the invariants the rest of the package leans on: canonicalization is
idempotent and insensitive to input ordering, and term signatures see
through different factorizations of the same oscillation content.
"""

from __future__ import annotations

import gc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from modwick.scalars import (
    C_ONE, Dot, Energy, EXPR_ZERO, MOMENTUM, PHASE, PDot, TIME,
    ScalarExpr, ScalarTerm, TERM_ONE, atom_text, canonicalize,
    canonically_equal, comb, conjugate, delta_key, label_classes,
    merged_exponent, momentum_delta, multiply, negated, oscillation,
    phase_delta, substituted, term_signature, time_delta, time_difference,
    times, _canonical_deltas_and_subst, _star_normal,
)
from modwick.limits import (
    correlator_limit_rewrite, correlator_wick_limit, limit_of_pairing_sum,
)
from modwick.pairings import (
    annotated_pairing_terms, correlator_pairing_sum, enumerate_pairings, pairing_term,
)
from modwick.serialize import from_json_str, to_json_str
from modwick.verify import MODES, _build, _cases, patterns_up_to
from modwick.words import (
    _raw_correlator_terms, correlator_recursive, word_from_pattern,
)

# the constant 1, canonical
EXPR_ONE = canonicalize(ScalarExpr((ScalarTerm(),)))


# ---------------------------------------------------------------------------
# coefficients and atoms

def _constant(re, im=0) -> tuple:
    """The term that is this coefficient alone."""
    return ScalarTerm((re, im))


def test_rational_complex_arithmetic():
    a, b = _constant(Fraction(1, 2), 3), _constant(2, Fraction(-1, 3))
    # (1/2 + 3i)(2 - i/3) = 1 + 1 + (6 - 1/6)i
    assert times(a, b) == _constant(2, Fraction(35, 6))
    assert times(a, _constant(-1)) == _constant(Fraction(-1, 2), -3)
    # like terms add their coefficients, and a sum of zero drops the term
    (total,) = canonicalize(ScalarExpr((a, b))).terms
    assert total == _constant(Fraction(5, 2), Fraction(8, 3))
    assert canonicalize(ScalarExpr((a, times(a, _constant(-1))))) == EXPR_ZERO
    assert conjugate(ScalarExpr((a,))).terms == (_constant(Fraction(1, 2), -3),)
    # ints stay ints: the unit coefficient, its products and its sums
    assert C_ONE == (1, 0) and TERM_ONE == (C_ONE, 0, 0, (), ())
    (two,) = canonicalize(ScalarExpr((times(TERM_ONE, TERM_ONE), TERM_ONE))).terms
    assert two[0] == (2, 0) and all(type(x) is int for x in two[0])


def test_dot_orders_labels():
    assert Dot("k3", "k1") == Dot("k1", "k3")
    assert atom_text(Dot("k3", "k1")) == "D(k1,k3)"
    assert atom_text(Energy("k2")) == "E(k2)"
    assert atom_text(PDot("k2")) == "P(k2)"
    assert atom_text(Dot("k1", "k1")) == "D(k1,k1)"
    # atoms order by kind first, then by label, inside every argument
    assert Energy("k9") < Dot("k1", "k2") < Dot("k1", "k3") < PDot("k1")


def test_time_comb_normalization():
    assert comb({"t1": 1, "t2": 0}) == (("t1", 1),)
    assert comb({"t2": 1, "t1": -1}) == (("t1", -1), ("t2", 1))
    assert time_difference("t1", "t1") == ()
    d = time_difference("t2", "t1")
    assert d == comb({"t2": 1, "t1": -1})
    assert negated(d) == comb({"t2": -1, "t1": 1})
    assert substituted(d, {"t2": "t1"}) == ()
    assert substituted(d, {"t2": "t0"}) == (("t0", 1), ("t1", -1))
    assert {t for t, _ in d} == {"t1", "t2"}


def test_phase_arg_merging_and_shift():
    # unweighted factors over one time combination merge atom by atom
    t12 = time_difference("t1", "t2")
    arg = comb({Energy("k1"): 1, PDot("k1"): 1})
    shift = comb({Dot("k3", "k1"): 1})

    def merged(*factors):
        term = ScalarTerm(phases=tuple((t12, a, False) for a in factors))
        return canonicalize(ScalarExpr((term,))).terms[0][3]

    assert merged(arg, negated(arg)) == ()
    assert merged(arg, shift) == ((t12, comb(
        {Energy("k1"): 1, PDot("k1"): 1, Dot("k1", "k3"): 1}), False),)
    # subtracting the shift again undoes it
    assert merged(arg, shift, negated(shift)) == ((t12, arg, False),)
    # renaming an atom's labels sums the entries that coincide
    assert substituted(comb({Dot("k1", "k3"): 1, Dot("k1", "k2"): 2}),
                       {"k3": "k2"}) == comb({Dot("k1", "k2"): 3})
    assert substituted(shift, {"k1": "k3"}) == comb({Dot("k3", "k3"): 1})


def _factors(e: ScalarExpr):
    for _, _, _, phases, deltas in e.terms:
        yield from phases
        yield from deltas


def _combinations(e: ScalarExpr):
    for _, _, _, phases, deltas in e.terms:
        for time, arg, _ in phases:
            yield time
            yield arg
        for d in deltas:
            if d[0] != MOMENTUM:
                yield d[1]


def _atoms(e: ScalarExpr):
    for _, _, _, phases, deltas in e.terms:
        for _, arg, _ in phases:
            yield from (a for a, _ in arg)
        for d in deltas:
            if d[0] == PHASE:
                yield from (a for a, _ in d[1])


def _route_outputs():
    """Every symbolic route's expression on every pattern of length <= 6 in
    all three verify modes, with its key and its JSON round trip."""
    for pattern in patterns_up_to(6):
        for mode in MODES:
            w = _build(pattern, mode)
            recursion = correlator_recursive(w)
            routes = {
                "recursion": recursion,
                "pairing sum": correlator_pairing_sum(w),
                "annotated": ScalarExpr(tuple(
                    at.term for at in annotated_pairing_terms(w))),
                "limit map": limit_of_pairing_sum(recursion),
                "wick limit": correlator_wick_limit(w),
                "rewrite limit": correlator_limit_rewrite(w),
            }
            for name, e in routes.items():
                yield (pattern, mode, name), e, from_json_str(to_json_str(e))


def test_every_route_holds_combinations_as_sorted_tuples():
    seen = atoms = factors = 0
    for key, e, read in _route_outputs():
        for it in (*_combinations(e), *_combinations(read)):
            assert type(it) is tuple and it == comb(dict(it)), (key, it)
            seen += 1
        # an atom is an exact (kind, a, b) tuple, no subclass
        for atom in (*_atoms(e), *_atoms(read)):
            assert type(atom) is tuple and len(atom) == 3, (key, atom)
            atoms += 1
        # so is a phase (time, arg, weighted) and a delta, tag first
        for x in (*_factors(e), *_factors(read)):
            assert type(x) is tuple, (key, x)
            factors += 1
        # and a term and its (re, im) coefficient, of ints on every route
        for t in (*e.terms, *read.terms):
            assert type(t) is tuple and len(t) == 5, (key, t)
            assert type(t[0]) is tuple and [type(x) for x in t[0]] == [int, int], key
    assert seen > 0 and atoms > 0 and factors > 0


def test_block_word_factors_and_atoms_are_untracked_after_a_collection():
    # the collector untracks an exact tuple of strings, ints and bools, so
    # the terms, coefficients, phases, deltas and atoms of big outputs, a
    # recursion memo and the generators of words cost later collections
    # nothing; a Fraction coefficient would stay tracked, so this also pins
    # every route coefficient to a pair of ints
    w = word_from_pattern("aaaaaa++++++")
    memo: dict = {}
    recursion = canonicalize(ScalarExpr(_raw_correlator_terms(w.gens, memo)))
    exprs = (recursion, correlator_pairing_sum(w),
             limit_of_pairing_sum(recursion))
    held = [x for e in exprs for t in e.terms for x in (t, t[0], t[3], t[4])]
    factors = [x for e in exprs for x in _factors(e)]
    atoms = [a for e in exprs for a in _atoms(e)]
    memo_items = [x for item in memo.items() for x in item]
    gens = [g for c in _cases(3) for g in c.word.gens]
    assert factors and atoms and len(memo) > 1 and gens
    gc.collect()
    assert not any(gc.is_tracked(a) for a in atoms)
    # a collection untracks a tuple once all it holds is untracked, and a
    # memo value holds terms that hold phases, so an atom, an (atom,
    # coefficient) entry, a combination, a phase, a term's phases, the term
    # and the value nest seven deep: seven collections untrack them all
    for _ in range(6):
        gc.collect()
    tracked = [x for x in (*held, *factors, *memo_items, *gens) if gc.is_tracked(x)]
    assert not tracked, tracked[:3]


def test_every_route_carries_its_signatures():
    for key, e, read in _route_outputs():
        assert not read.canonical, key
        # the annotated terms are canonicalized one by one, then gathered
        if key[2] == "annotated":
            assert not e.canonical
            e = canonicalize(e)
        sigs = tuple(term_signature(t) for t in e.terms)
        assert e.signatures == sigs, key
        assert all(s < t for s, t in zip(sigs, sigs[1:])), key
        assert canonicalize(read).signatures == sigs, key


def test_oscillation_power_negates():
    arg = comb({Dot("k1", "k2"): 1})
    ph = oscillation("t1", "t2", arg, power=-1)
    assert ph == (time_difference("t1", "t2"), negated(arg), False)
    with pytest.raises(ValueError):
        oscillation("t1", "t2", arg, power=2)


def test_delta_sign_fixing():
    assert momentum_delta("k4", "k2") == momentum_delta("k2", "k4") \
        == (MOMENTUM, "k2", "k4")
    td = time_delta(comb({"t1": -1, "t2": 1}))
    assert td == (TIME, comb({"t1": 1, "t2": -1}))
    pd = phase_delta(comb({Energy("k1"): -1, PDot("k1"): -1}))
    assert pd == (PHASE, comb({Energy("k1"): 1, PDot("k1"): 1}))
    with pytest.raises(ValueError, match="degenerate momentum delta"):
        momentum_delta("k1", "k1")
    with pytest.raises(ValueError, match="degenerate time delta"):
        time_delta(())
    with pytest.raises(ValueError, match="degenerate phase delta"):
        phase_delta(())
    # a momentum delta is its own key
    assert delta_key(momentum_delta("k1", "k2")) == (MOMENTUM, "k1", "k2")
    assert delta_key(td)[0] == TIME and delta_key(pd)[0] == PHASE


# ---------------------------------------------------------------------------
# merged exponent and signatures

def test_merged_exponent_accumulates_across_phases():
    x = comb({Energy("k1"): 1})
    y = comb({Dot("k1", "k2"): 1})
    split = ScalarTerm(phases=(
        (time_difference("t1", "t2"), x, False),
        (time_difference("t1", "t2"), y, False),
    ))
    joint = ScalarTerm(phases=(
        (time_difference("t1", "t2"),
         comb({Energy("k1"): 1, Dot("k1", "k2"): 1}), False),
    ))
    assert merged_exponent(split) == merged_exponent(joint)
    assert term_signature(split) == term_signature(joint)
    assert merged_exponent(joint) == {
        ("t1", Energy("k1")): 1, ("t1", Dot("k1", "k2")): 1,
        ("t2", Energy("k1")): -1, ("t2", Dot("k1", "k2")): -1,
    }


def test_signature_sees_through_inverse_factor():
    # q(t1 - t2, x) q^{-1}(t1 - t2, x) carries no oscillation at all
    x = comb({Energy("k1"): 1})
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
                      (oscillation("t1", "t2", comb({Energy("k1"): 1})),),
                      (momentum_delta("k1", "k2"),))
    e = ScalarExpr((term, times(term, ScalarTerm((-1, 0)))))
    assert canonicalize(e) == EXPR_ZERO
    assert canonicalize(ScalarExpr((term, term))).terms[0][0] == (2, 0)


def test_canonicalize_star_normalizes_delta_chains():
    chain = (momentum_delta("k2", "k3"), momentum_delta("k1", "k2"))
    term = ScalarTerm(
        phases=((time_difference("t1", "t2"), comb({Energy("k3"): 1}), False),),
        deltas=chain)
    out = canonicalize(ScalarExpr((term,))).terms[0]
    assert out[4] == (momentum_delta("k1", "k2"), momentum_delta("k1", "k3"))
    # phases rewritten onto the class representative
    assert out[3][0][1] == comb({Energy("k1"): 1})


def test_canonicalize_merges_unweighted_oscillations():
    x = comb({Dot("k1", "k2"): 1})
    term = ScalarTerm(phases=(
        oscillation("t1", "t2", x),
        oscillation("t2", "t1", x),  # cancels the first
        oscillation("t1", "t3", x),
    ))
    out = canonicalize(ScalarExpr((term,))).terms[0]
    assert out[3] == (
        (time_difference("t1", "t3"), x, False),)


def _two_factorizations():
    """q(t1 - t2, x) q(t2 - t3, x) and q(t1 - t3, x): one exponent, two phase lists.

    No time combination repeats, so `_clean_phases` merges neither, and
    the first one's phases sort first.
    """
    x = comb({Dot("k1", "k2"): 1})
    split = ScalarTerm(phases=(oscillation("t1", "t2", x),
                               oscillation("t2", "t3", x)))
    joint = ScalarTerm(phases=(oscillation("t1", "t3", x),))
    assert term_signature(split) == term_signature(joint)
    return split, joint


def test_merged_term_keeps_the_phases_that_sort_first():
    split, joint = _two_factorizations()
    for terms in ((split, joint), (joint, split)):
        (merged,) = canonicalize(ScalarExpr(terms)).terms
        assert merged[0] == (2, 0)
        assert merged[3] == split[3]


def test_repeated_momentum_deltas_stay_repeated():
    d12 = momentum_delta("k1", "k2")
    (squared,) = canonicalize(ScalarExpr((ScalarTerm(deltas=(d12, d12)),))).terms
    assert squared[4] == (d12, d12)
    # a closed loop of three deltas is the star of its class and one more
    loop = (momentum_delta("k2", "k3"), momentum_delta("k1", "k3"), d12)
    (star,) = canonicalize(ScalarExpr((ScalarTerm(deltas=loop),))).terms
    assert star[4] == (d12, d12, momentum_delta("k1", "k3"))


def test_a_zero_term_leaves_the_canonical_form_alone():
    # the zero term is like the live one and its phases sort first: were it
    # merged, the live coefficient would come out with the zero term's phases
    split, joint = _two_factorizations()
    zero = times(split, ScalarTerm((0, 0)))
    live = canonicalize(ScalarExpr((joint,)))
    for terms in ((joint, zero), (zero, joint)):
        assert to_json_str(canonicalize(ScalarExpr(terms))) == to_json_str(live)
    assert canonicalize(ScalarExpr((zero,))) == EXPR_ZERO


def test_a_shared_phase_renames_by_each_terms_deltas():
    # canonicalize renames a phase once per call and per representatives of
    # the labels it names: the two identifications below rename the shared
    # phases apart, and the third term's deltas name none of their labels
    shared = (((("t1", 1), ("t2", -1)), ((Dot("k2", "k3"), 1),), True),
              (time_difference("t3", "t2"), ((Energy("k3"), 1),), False))
    terms = tuple(ScalarTerm(C_ONE, 0, -2, shared, (momentum_delta(*pair),))
                  for pair in (("k1", "k2"), ("k1", "k3"), ("k5", "k6")))
    together = canonicalize(ScalarExpr(terms)).terms
    alone = sorted((ct for t in terms for ct in canonicalize(ScalarExpr((t,))).terms),
                   key=term_signature)
    assert together == tuple(alone)
    args = {ct[4]: [arg for _, arg, _ in ct[3]] for ct in together}
    assert args == {
        (momentum_delta("k1", "k2"),): [((Dot("k1", "k3"), 1),), ((Energy("k3"), -1),)],
        (momentum_delta("k1", "k3"),): [((Dot("k1", "k2"), 1),), ((Energy("k1"), -1),)],
        (momentum_delta("k5", "k6"),): [((Dot("k2", "k3"), 1),), ((Energy("k3"), -1),)],
    }


def test_label_classes_map_to_the_smallest_label():
    reps = label_classes([("k3", "k2"), ("k5", "k4"), ("k4", "k3"), ("k7",)])
    assert reps == {"k2": "k2", "k3": "k2", "k4": "k2", "k5": "k2", "k7": "k7"}
    # an edge may join more than two labels; edge order does not matter
    assert label_classes([("t3", "t1", "t2")]) == label_classes(
        [("t2", "t1"), ("t3", "t2")])
    assert label_classes([]) == {}


def _union_find_path(deltas) -> tuple:
    """The union-find path's deltas and map, its momentum deltas sorted."""
    momentum, subst = _star_normal([d for d in deltas if d[0] == MOMENTUM])
    return sorted(momentum), [d for d in deltas if d[0] != MOMENTUM], subst


def test_disjoint_momentum_pairs_give_the_union_find_result():
    # every raw recursion and pairing term of the n <= 4 words has disjoint
    # pairs, and so has every Wick limit term, next to its other deltas
    renamed = 0
    for w in (c.word for c in _cases(4)):
        for t in (*_raw_correlator_terms(w.gens, {}),
                  *(pairing_term(w, p) for p in enumerate_pairings(w)),
                  *correlator_wick_limit(w).terms):
            momentum, others, subst = _canonical_deltas_and_subst(t[4])
            assert (sorted(momentum), others, subst) == _union_find_path(t[4]), t
            renamed += bool(subst)
    assert renamed > 0
    # a shared label, a repeat and a chain take the union-find path
    d12, d13, d23 = (momentum_delta(*ab) for ab in (("k1", "k2"), ("k1", "k3"),
                                                    ("k2", "k3")))
    for deltas in ((d12, d13), (d12, d12), (d23, d12)):
        momentum, subst = _star_normal(list(deltas))
        assert _canonical_deltas_and_subst(deltas) == (momentum, [], subst)
    assert _canonical_deltas_and_subst((d23, d12))[2] == {"k2": "k1", "k3": "k1"}


def _assert_conjugate(got: ScalarExpr, e: ScalarExpr) -> None:
    """Each term of `got` has one like term in canonical `e`: the coefficient
    conjugated, the same powers and deltas, the merged exponent negated."""
    def like(term: tuple, sign: int) -> tuple:
        (re, im), two_pi_power, lambda_power, _, deltas = term
        exponent = frozenset((key, sign * c) for key, c in merged_exponent(term).items())
        return (re, sign * im), two_pi_power, lambda_power, deltas, exponent

    assert Counter(like(t, -1) for t in got.terms) \
        == Counter(like(t, 1) for t in canonicalize(e).terms)


# two weighted phases over one time whose arguments differ in the sign of
# one entry, so conjugation swaps their order; no route puts two phases of
# one weight on one time, so route outputs keep their order either way
SAME_TIME = canonicalize(ScalarExpr((ScalarTerm(C_ONE, 0, -4, tuple(
    (time_difference("t1", "t2"), comb({Energy("k1"): 1, Dot("k1", "k2"): s}), True)
    for s in (1, -1))),)))


def test_conjugate_keeps_a_canonical_input_canonical():
    memo: dict = {}
    exprs = [SAME_TIME, correlator_recursive(word_from_pattern("aaaaaa++++++")),
             *(canonicalize(ScalarExpr(_raw_correlator_terms(c.word.gens, memo)))
               for c in _cases(4))]
    for e in exprs:
        if e.terms:
            got = conjugate(e)
            assert got.canonical
            _assert_conjugate(got, e)
    (swapped,) = conjugate(SAME_TIME).terms
    assert [arg for _, arg, _ in swapped[3]] == [
        negated(arg) for _, arg, _ in reversed(SAME_TIME.terms[0][3])]


# ---------------------------------------------------------------------------
# the canonical mark

def test_only_canonicalize_marks_an_expression():
    term = ScalarTerm(C_ONE, 0, -2,
                      (oscillation("t1", "t2", comb({Energy("k2"): 1})),),
                      (momentum_delta("k2", "k1"),))
    raw = ScalarExpr((term, term))
    assert not raw.canonical
    with pytest.raises(TypeError):
        ScalarExpr((term,), canonical=True)
    canon = canonicalize(raw)
    assert canon.canonical and canon.terms[0][0] == (2, 0)
    assert canon == ScalarExpr(canon.terms)  # the mark takes no part in ==
    assert canonicalize(canon) is canon
    assert EXPR_ZERO.canonical and EXPR_ONE.canonical
    # what did not come out of canonicalize is canonicalized again
    for unmarked in (from_json_str(to_json_str(raw)),
                     ScalarExpr((times(term, ScalarTerm((2, 0))),))):
        assert not unmarked.canonical
        assert canonicalize(unmarked) == canon
        assert canonically_equal(unmarked, canon)


def test_canonically_equal_sees_one_changed_coefficient():
    e = correlator_recursive(word_from_pattern("aa++"))
    assert e.canonical and len(e.terms) == 2
    for i in range(len(e.terms)):
        terms = list(e.terms)
        terms[i] = times(terms[i], ScalarTerm((1, 1)))
        bumped = canonicalize(ScalarExpr(tuple(terms)))
        assert bumped.canonical
        assert not canonically_equal(e, bumped)
        assert not canonically_equal(bumped, e)
    assert canonically_equal(e, canonicalize(ScalarExpr(e.terms[::-1])))
    # the same terms and the same coefficients, paired the other way round
    a, b = e.terms
    two, three = (ScalarTerm((c, 0)) for c in (2, 3))
    one = canonicalize(ScalarExpr((times(a, two), times(b, three))))
    swapped = canonicalize(ScalarExpr((times(a, three), times(b, two))))
    assert not canonically_equal(one, swapped)
    assert not canonically_equal(swapped, one)


def test_canonically_equal_reads_the_stored_signatures(monkeypatch):
    a = correlator_recursive(word_from_pattern("aa++"))
    b = correlator_pairing_sum(word_from_pattern("aa++"))

    def forbidden(term):
        raise AssertionError("merged exponent rebuilt for a canonical input")

    monkeypatch.setattr("modwick.scalars.merged_exponent", forbidden)
    assert canonically_equal(a, b)
    assert not canonically_equal(a, EXPR_ZERO)


def _identity(term: tuple) -> tuple:
    """Reference key of a canonical term, built without any string: its
    powers, its deltas and the set of its merged exponent's entries."""
    _, two_pi_power, lambda_power, _, deltas = term
    return (lambda_power, two_pi_power, deltas,
            frozenset(merged_exponent(term).items()))


# two weighted factors against one with the same merged exponent and a
# weighted factor whose argument is zero: one identity, two phase lists
T12 = time_difference("t1", "t2")
FACTORINGS = (
    ScalarTerm(C_ONE, 0, -4, (
        (T12, comb({Energy("k1"): 1}), True),
        (T12, comb({Dot("k1", "k2"): 1}), True))),
    ScalarTerm(C_ONE, 0, -4, (
        (T12, comb({Energy("k1"): 1, Dot("k1", "k2"): 1}), True),
        (time_difference("t3", "t4"), (), True))),
)


def test_identity_equates_factorizations_the_signature_equates():
    a, b = (canonicalize(ScalarExpr((t,))) for t in FACTORINGS)
    assert a != b
    assert term_signature(a.terms[0]) == term_signature(b.terms[0])
    assert _identity(a.terms[0]) == _identity(b.terms[0])
    assert canonically_equal(a, b)


# ---------------------------------------------------------------------------
# labels whose strings collide

# k_{x,y}.k_z and k_x.k_{y,z}: two distinct atoms that both print "D(x,y,z)"
COLLIDING_ARGS = tuple(comb({Dot(a, b): 1})
                       for a, b in (("x,y", "z"), ("x", "y,z")))
COLLIDING = tuple(ScalarTerm(phases=((T12, x, False),))
                  for x in COLLIDING_ARGS)
# both atoms in one term as weighted phases over one time and as phase
# deltas, next to two time deltas that both print "x:1;y:1": only the
# structural tail of the order keys sorts them
COLLIDING_FACTORS = ScalarTerm(
    C_ONE, 0, -4, tuple((T12, x, True) for x in COLLIDING_ARGS),
    tuple(phase_delta(x) for x in COLLIDING_ARGS)
    + (time_delta(comb({"x": 1, "y": 1})),
       time_delta(comb({"x:1;y": 1}))))


def test_colliding_label_strings_stay_two_terms():
    a, b = COLLIDING
    assert atom_text(COLLIDING_ARGS[0][0][0]) == atom_text(COLLIDING_ARGS[1][0][0])
    out = canonicalize(ScalarExpr((a, b)))
    assert [t[0] for t in out.terms] == [C_ONE, C_ONE]
    assert canonicalize(ScalarExpr((b, a))) == out


# E(k1) < D(k1,k2) as tuples but not as text, and so are E(k) < E(k():
# the canonical order follows `atom_text`
E1, D12 = comb({Energy("k1"): 1}), comb({Dot("k1", "k2"): 1})
EK, EK_OPEN = comb({Energy("k"): 1}), comb({Energy("k("): 1})


@pytest.mark.parametrize("flip", [False, True])
def test_canonical_order_is_text_first(flip):
    def ordered(pair):
        return pair[::-1] if flip else pair

    # (a) weighted phases of one term over one time
    term = ScalarTerm(C_ONE, 0, -4, tuple(
        (T12, x, True) for x in ordered((E1, D12))))
    (out,) = canonicalize(ScalarExpr((term,))).terms
    assert [arg for _, arg, _ in out[3]] == [D12, E1]
    # (b) terms that differ in one unweighted phase
    terms = tuple(ScalarTerm(phases=((T12, x, False),))
                  for x in ordered((E1, D12)))
    out = canonicalize(ScalarExpr(terms)).terms
    assert [t[3][0][1] for t in out] == [D12, E1]
    # (c) phase deltas of one term
    term = ScalarTerm(deltas=tuple(phase_delta(x) for x in ordered((EK, EK_OPEN))))
    (out,) = canonicalize(ScalarExpr((term,))).terms
    assert out[4] == (phase_delta(EK_OPEN), phase_delta(EK))


def test_canonically_equal_tells_colliding_label_strings_apart():
    a, b = COLLIDING
    assert not canonically_equal(ScalarExpr((a, a)), ScalarExpr((a, b)))


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
                       min_size=1, max_size=3).map(comb)
time_combs = (
    st.tuples(st.sampled_from(T_LABELS), st.sampled_from(T_LABELS))
      .filter(lambda ab: ab[0] != ab[1])
      .map(lambda ab: time_difference(*ab))
)
phases = st.tuples(time_combs, args, st.booleans())


def _twins(time: tuple, arg: tuple, i: int) -> tuple:
    """Two weighted phases over `time`, the second with the sign of one
    entry of `arg` flipped: negation flips their order, as in SAME_TIME."""
    i %= len(arg)
    flipped = arg[:i] + ((arg[i][0], -arg[i][1]),) + arg[i + 1:]
    return (time, arg, True), (time, flipped, True)


twins = st.builds(_twins, time_combs, args, st.integers(0, 2))
deltas = st.one_of(
    st.tuples(st.sampled_from(K_LABELS), st.sampled_from(K_LABELS))
      .filter(lambda ab: ab[0] != ab[1])
      .map(lambda ab: momentum_delta(*ab)),
    time_combs.map(time_delta),
    args.map(phase_delta),
)
coeffs = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
terms = st.builds(
    ScalarTerm, coeffs, st.integers(-2, 3), st.integers(-4, 2),
    st.tuples(st.lists(phases, max_size=3), st.lists(twins, max_size=1))
      .map(lambda ps: tuple(ps[0]) + sum(ps[1], ())),
    st.lists(deltas, max_size=3).map(tuple),
)
exprs = st.lists(terms, max_size=3).map(tuple).map(ScalarExpr)
# identifying k1 with k4 cancels the phase delta's argument entirely
COLLAPSING = ScalarExpr((ScalarTerm(deltas=(
    momentum_delta("k1", "k4"),
    phase_delta(comb({Energy("k1"): 2, Energy("k4"): -2})))),))


def _scrambled(e: ScalarExpr) -> ScalarExpr:
    return ScalarExpr(tuple(
        ScalarTerm(coeff, two_pi_power, lambda_power,
                   tuple(reversed(phases)), tuple(reversed(deltas)))
        for coeff, two_pi_power, lambda_power, phases, deltas in reversed(e.terms)
    ))


@settings(max_examples=80, deadline=None)
@given(exprs)
@example(COLLAPSING)
def test_canonicalize_idempotent(e):
    once = canonicalize(e)
    # an unmarked copy takes the full second pass
    assert canonicalize(ScalarExpr(once.terms)) == once


@settings(max_examples=80, deadline=None)
@given(exprs)
@example(COLLAPSING)
@example(ScalarExpr(COLLIDING))
@example(ScalarExpr((COLLIDING_FACTORS,)))
@example(ScalarExpr(FACTORINGS))
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
@example(COLLAPSING)
@example(SAME_TIME)
def test_conjugate_of_a_canonical_input_is_its_canonical_conjugate(e):
    e = canonicalize(e)
    got = conjugate(e)
    assert got.canonical
    _assert_conjugate(got, e)


@settings(max_examples=80, deadline=None)
@given(exprs)
def test_add_negate_cancels(e):
    minus_one = ScalarTerm((-1, 0))
    opposite = tuple(times(t, minus_one) for t in e.terms)
    assert canonicalize(ScalarExpr(e.terms + opposite)) == EXPR_ZERO


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
    prod = merged_exponent(times(t1, t2))
    acc = dict(merged_exponent(t1))
    for key, c in merged_exponent(t2).items():
        acc[key] = acc.get(key, 0) + c
    assert prod == {k: v for k, v in acc.items() if v != 0}


@settings(max_examples=80, deadline=None)
@given(st.lists(terms, min_size=2, max_size=4))
@example(list(COLLIDING))
def test_identity_agrees_with_signature(ts):
    # powers, phases and deltas taken from different terms give pairs that
    # agree in some parts of the signature and differ in others
    mixed = ScalarExpr(tuple(
        ScalarTerm(*a[:3], b[3], c[4])  # a's coefficient and powers
        for a in ts for b in ts for c in ts))
    keys = [(_identity(t), term_signature(t))
            for term in mixed.terms
            for t in canonicalize(ScalarExpr((term,))).terms]
    for ident_s, sig_s in keys:
        for ident_t, sig_t in keys:
            assert (ident_s == ident_t) == (sig_s == sig_t)
