"""Operator words, rewrite rules, and the normal-ordering recursion."""

from __future__ import annotations

import pytest

from modwick.scalars import (
    C_ONE, PDOT, ContractionPhase, Dot, Energy, EXPR_ONE, EXPR_ZERO,
    MomentumDelta, PDot, PhaseDelta, RationalComplex, ScalarExpr, ScalarTerm,
    TERM_ONE, _canonical_term, canonically_equal, comb, oscillation,
    term_signature, time_difference,
)
from modwick.serialize import to_json_str
from modwick.verify import MODES, _build, patterns_up_to
from modwick.words import (
    Generator, Word, WordError, adjoint, annihilate,
    contraction_arg, correlator_recursive, create, expand_leading_annihilator,
    word, word_from_json_dict, word_from_pattern, word_to_json_dict,
)


def pattern_of(w: Word) -> str:
    """The creator/annihilator pattern of a word, inverse of word_from_pattern."""
    return "".join("+" if g.dagger else "a" for g in w.gens)


def weighted_phase(t_from, t_to, arg_dict):
    return ContractionPhase(time_difference(t_from, t_to),
                            comb(arg_dict), weighted=True)


# ---------------------------------------------------------------------------
# word structure

def test_word_label_validation():
    with pytest.raises(WordError):
        word(annihilate("t1", "k1"), create("t1", "k2"))
    with pytest.raises(WordError):
        word(annihilate("t1", "k1"), create("t2", "k1"))
    with pytest.raises(WordError):
        word(annihilate("t1", "k1", 1), create("t2", "k2"))
    with pytest.raises(WordError):
        word(annihilate("t1", "k1", 4), create("t2", "k2", 4))


def _one_line_word_error(build, match: str) -> None:
    with pytest.raises(WordError, match=match) as err:
        build()
    assert "\n" not in str(err.value)


def test_word_rejects_polarizations_no_word_file_can_hold():
    # True == 1.0 == 1, yet a word file holds only an integer "pol"
    for pol in (True, 1.0):
        _one_line_word_error(
            lambda: word(Generator(False, "t1", "k1", pol),
                         Generator(True, "t2", "k2", pol)),
            f"^polarization index must be an integer, got {pol!r}$")
    w = word_from_pattern("a+", pols=[1, 1])
    assert word_from_json_dict(word_to_json_dict(w)) == w


def test_word_rejects_non_string_labels():
    _one_line_word_error(lambda: word(Generator(False, 1, "k1")),
                         "^labels must be strings, got 1 and 'k1'$")
    _one_line_word_error(
        lambda: word(annihilate("t1", "k1"), create("t2", ("k", 2))),
        r"^labels must be strings, got 't2' and \('k', 2\)$")


def test_pattern_polarizations_match_its_length():
    _one_line_word_error(lambda: word_from_pattern("aa++", pols=[1, 2]),
                         "^pattern has 4 generators but 2 polarizations$")
    _one_line_word_error(lambda: word_from_pattern("a+", pols=[1, 1, 3]),
                         "^pattern has 2 generators but 3 polarizations$")


def test_word_generator_cap():
    assert len(word_from_pattern("a" * 6 + "+" * 6)) == 12
    with pytest.raises(WordError, match="^word has 13 generators, limit is 12$"):
        word_from_pattern("a" * 6 + "+" * 7)
    with pytest.raises(WordError, match="word has 14 generators"):
        word(*(create(f"t{i}", f"k{i}") for i in range(14)))


def test_expansion_sub_words_equal_checked_words():
    w = word_from_pattern("aa+a++", pols=[1, 2, 1, 2, 2, 1])
    subs = [rest for _, rest in expand_leading_annihilator(w.gens)]
    assert len(subs) == 2  # the two creators of the lead's polarization
    for rest in subs:
        checked = Word(rest)  # raises WordError on an invalid sub-word
        assert checked.polarized() and len(checked) == 4


def test_pattern_round_trip():
    w = word_from_pattern("aa+a++")
    assert pattern_of(w) == "aa+a++"
    assert [g.t for g in w.gens] == [f"t{i}" for i in range(1, 7)]
    assert [g.k for g in w.gens] == [f"k{i}" for i in range(1, 7)]
    with pytest.raises(WordError):
        word_from_pattern("ab+")


def test_polarized_pattern():
    w = word_from_pattern("a+", pols=[2, 2])
    assert w.polarized()
    assert [g.pol for g in w.gens] == [2, 2]
    assert not word_from_pattern("a+").polarized()


def test_adjoint_reverses_and_flips():
    w = word_from_pattern("aa+")
    aw = adjoint(w)
    assert pattern_of(aw) == "a++"
    assert [g.t for g in aw.gens] == ["t3", "t2", "t1"]
    assert adjoint(aw) == w


def test_word_json_round_trip():
    for pattern, pols in (("aa++", None), ("a+", [3, 3])):
        w = word_from_pattern(pattern, pols)
        assert word_from_json_dict(word_to_json_dict(w)) == w


def test_word_json_validation():
    with pytest.raises(WordError):
        word_from_json_dict({"mode": "scalar"})
    with pytest.raises(WordError):
        word_from_json_dict({"word": [{"op": "x", "t": "t1", "k": "k1"}]})
    with pytest.raises(WordError):
        word_from_json_dict({"mode": "polarized",
                             "word": [{"op": "a", "t": "t1", "k": "k1"}]})
    with pytest.raises(WordError):
        word_from_json_dict({"mode": "scalar",
                             "word": [{"op": "a", "t": "t1", "k": "k1", "pol": 1}]})
    with pytest.raises(WordError):
        word_from_json_dict({"mode": "other", "word": []})


# ---------------------------------------------------------------------------
# rewrite rules

def test_contraction_arg_moves_past_creators_and_annihilators():
    x = annihilate("t1", "k1")
    assert contraction_arg(x, ()) == comb({Energy("k1"): 1, PDot("k1"): 1})
    # a(t,k) f(p) = f(p + k) a(t,k): +k.g past a creator, -k.g past an annihilator
    right = (create("t3", "k3"), annihilate("t4", "k4"), create("t5", "k5"))
    assert contraction_arg(x, right) == comb({
        Energy("k1"): 1, PDot("k1"): 1,
        Dot("k1", "k3"): 1, Dot("k1", "k4"): -1, Dot("k1", "k5"): 1})
    # passing a creator and an annihilator of the same momentum cancels
    assert contraction_arg(x, (create("t3", "k3"), annihilate("t4", "k3"))) \
        == contraction_arg(x, ())


def test_expand_leading_annihilator_two_creators():
    w = word_from_pattern("a++")
    (first, first_rest), (second, second_rest) = expand_leading_annihilator(w.gens)

    # contraction with the nearer creator feels the far creator's momentum
    assert first_rest == (create("t3", "k3"),)
    assert first.phases == (
        weighted_phase("t1", "t2",
                       {Energy("k1"): 1, PDot("k1"): 1, Dot("k1", "k3"): 1}),)
    assert first.deltas == (MomentumDelta("k1", "k2"),)

    # contraction with the far creator picks up a swap phase instead
    assert second_rest == (create("t2", "k2"),)
    assert len(second.phases) == 2
    assert second.phases[0] == weighted_phase(
        "t1", "t3", {Energy("k1"): 1, PDot("k1"): 1})
    assert second.phases[1] == ContractionPhase(
        time_difference("t1", "t2"), comb({Dot("k1", "k2"): 1}))
    assert second.deltas == (MomentumDelta("k1", "k3"),)

    with pytest.raises(WordError):
        expand_leading_annihilator(word_from_pattern("+a").gens)
    with pytest.raises(WordError):
        expand_leading_annihilator(())


def test_rewrite_a_adag_polarization():
    # the a a^dag exchange: a polarization mismatch gives no term at all,
    # a match only the momentum delta
    assert expand_leading_annihilator(
        (annihilate("t1", "k1", 1), create("t2", "k2", 2))) == []
    ((kept, kept_rest),) = expand_leading_annihilator(
        (annihilate("t1", "k1", 2), create("t2", "k2", 2)))
    assert kept.coeff == C_ONE
    assert kept.deltas == (MomentumDelta("k1", "k2"),)
    assert kept_rest == ()

    # the mismatched creator forms no term but still passes by: it stays
    # in the remaining word and its swap phase reaches the matched term
    ((matched, rest),) = expand_leading_annihilator(
        word_from_pattern("a++", pols=[2, 1, 2]).gens)
    assert matched.coeff == C_ONE
    assert matched.deltas == (MomentumDelta("k1", "k3"),)
    assert rest == (create("t2", "k2", 1),)
    assert matched.phases[1] == ContractionPhase(
        time_difference("t1", "t2"), comb({Dot("k1", "k2"): 1}))


# ---------------------------------------------------------------------------
# the recursion

def test_recursion_base_cases():
    assert correlator_recursive(word()) == EXPR_ONE
    assert correlator_recursive(word_from_pattern("a")) == EXPR_ZERO
    assert correlator_recursive(word_from_pattern("+")) == EXPR_ZERO
    assert correlator_recursive(word_from_pattern("+a")) == EXPR_ZERO
    assert correlator_recursive(word_from_pattern("aa+")) == EXPR_ZERO
    assert correlator_recursive(word()).canonical
    # no pairing, or none that survives a polarization mismatch
    for w in (word_from_pattern("aaa+"), word_from_pattern("+a"),
              word_from_pattern("a++a"), word_from_pattern("a+", pols=[1, 2])):
        got = correlator_recursive(w)
        assert got == EXPR_ZERO and got.canonical


def test_recursion_two_point():
    e = correlator_recursive(word_from_pattern("a+"))
    (term,) = e.terms
    assert term.coeff == C_ONE
    assert term.lambda_power == -2
    assert term.two_pi_power == 0
    assert term.phases == (
        weighted_phase("t1", "t2", {Energy("k1"): 1, PDot("k1"): 1}),)
    assert term.deltas == (MomentumDelta("k1", "k2"),)


def test_recursion_term_counts_match_pairings():
    # one canonical term per pairing
    for pattern, count in (("aa++", 2), ("a+a+", 1), ("aaa+++", 6),
                           ("aa+a++", 4), ("a+aa++", 2)):
        e = correlator_recursive(word_from_pattern(pattern))
        assert len(e.terms) == count, pattern


def test_recursion_polarization_kill():
    # cyclic polarizations force a mismatch in every pairing of aa++
    w = word_from_pattern("aa++", pols=[1, 2, 3, 1])
    assert correlator_recursive(w) == EXPR_ZERO
    # uniform polarizations reproduce the scalar correlator
    uniform = correlator_recursive(word_from_pattern("aa++", pols=[1] * 4))
    scalar = correlator_recursive(word_from_pattern("aa++"))
    assert canonically_equal(uniform, scalar)


def test_recursion_respects_generator_identity():
    # same structure, different labels: relabeling is a bijection on terms
    w1 = word(annihilate("s1", "q1"), create("s2", "q2"))
    e = correlator_recursive(w1)
    (term,) = e.terms
    assert term.deltas == (MomentumDelta("q1", "q2"),)
    assert term.phases[0].time == time_difference("s1", "s2")


# ---------------------------------------------------------------------------
# byte identity with the plain expansion-tree walk

def _reference_shifted(arg: tuple, momentum: str, sign: int) -> tuple:
    """Shift every particle-momentum atom k.p by sign * k.momentum."""
    acc = dict(arg)
    for (kind, k, _), c in arg:
        if kind == PDOT:
            d = Dot(k, momentum)
            acc[d] = acc.get(d, 0) + sign * c
    return comb(acc)


def _reference_shift_p(s: ScalarTerm, g: Generator) -> ScalarTerm:
    """Move a p-dependent scalar rightward past one generator."""
    sign = 1 if g.dagger else -1
    phases = tuple(
        ContractionPhase(ph.time, _reference_shifted(ph.arg, g.k, sign),
                         ph.weighted)
        for ph in s.phases
    )
    deltas = tuple(
        PhaseDelta(_reference_shifted(d.arg, g.k, sign))
        if isinstance(d, PhaseDelta) else d
        for d in s.deltas
    )
    return ScalarTerm(s.coeff, s.two_pi_power, s.lambda_power, phases, deltas)


def _reference_contraction(x: Generator, y: Generator) -> ScalarTerm:
    """Contract annihilator x against creator y, in place."""
    if x.pol != y.pol:
        return ScalarTerm(RationalComplex.of(0))
    arg = comb({Energy(x.k): 1, PDot(x.k): 1})
    phase = ContractionPhase(time_difference(x.t, y.t), arg, weighted=True)
    return ScalarTerm(C_ONE, 0, -2, (phase,), (MomentumDelta(x.k, y.k),))


def _reference_expand(gens: tuple) -> list:
    """One p-shift per generator to the right, one times() per swap."""
    lead, tail = gens[0], gens[1:]
    out = []
    for j, g in enumerate(tail):
        if not g.dagger:
            continue
        scalar = _reference_contraction(lead, g)
        if not scalar.coeff.is_zero():
            for other in tail[j + 1:]:
                scalar = _reference_shift_p(scalar, other)
            for other in tail[:j]:
                swap = oscillation(lead.t, other.t,
                                   comb({Dot(lead.k, other.k): 1}),
                                   power=1 if other.dagger else -1)
                scalar = scalar.times(ScalarTerm(C_ONE, 0, 0, (swap,), ()))
        out.append((scalar, tail[:j] + tail[j + 1:]))
    return out


def _term_sort_key(term: ScalarTerm) -> tuple:
    """The full sort key canonicalize used before it merged on the identity."""
    return (
        term_signature(term),
        tuple(ph.key() for ph in term.phases),
        (str(term.coeff.re), str(term.coeff.im)),
    )


def _reference_canonicalize(terms) -> ScalarExpr:
    """Sort by the full key, merge neighbours whose signatures agree."""
    cleaned = sorted((ct for ct in map(_canonical_term, terms) if ct is not None),
                     key=_term_sort_key)
    combined = []
    for term in cleaned:
        if combined and term_signature(combined[-1]) == term_signature(term):
            prev = combined[-1]
            combined[-1] = ScalarTerm(prev.coeff + term.coeff, prev.two_pi_power,
                                      prev.lambda_power, prev.phases, prev.deltas)
        else:
            combined.append(term)
    return ScalarExpr(tuple(t for t in combined if not t.coeff.is_zero()))


def _reference_recursive(w: Word) -> ScalarExpr:
    """Depth-first walk of the expansion tree, no memo."""
    collected = []

    def descend(prefix, rest):
        if not rest:
            collected.append(prefix)
        elif not rest[0].dagger:
            for scalar, sub in _reference_expand(rest):
                if not scalar.coeff.is_zero():
                    descend(prefix.times(scalar), sub)

    descend(TERM_ONE, w.gens)
    return _reference_canonicalize(collected) if collected else EXPR_ZERO


def test_recursion_is_byte_identical_to_the_tree_walk():
    words = [_build(p, m) for p in patterns_up_to(8) for m in MODES]
    words.append(word_from_pattern("aaaaaa++++++"))
    shared: dict = {}
    for w in words:
        expected = to_json_str(_reference_recursive(w))
        assert to_json_str(correlator_recursive(w)) == expected, pattern_of(w)
        # one memo across every pattern and mode: the key must tell
        # polarizations and labels apart
        assert to_json_str(correlator_recursive(w, shared)) == expected, \
            (pattern_of(w), w.gens[0].pol)
