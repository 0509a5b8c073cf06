"""Operator words, rewrite rules, and the normal-ordering recursion."""

from __future__ import annotations

import pytest

from modwick.scalars import (
    C_ONE, PDOT, PHASE, Dot, Energy, EXPR_ZERO, PDot, ScalarExpr,
    ScalarTerm, TERM_ONE, canonicalize, canonically_equal, comb,
    momentum_delta, oscillation, phase_delta, phase_key, term_signature,
    time_difference, times,
)
from modwick import words as words_module
from modwick.limits import contraction_arg
from modwick.serialize import to_json_str
from modwick.verify import MODES, _build, _cases, patterns_up_to
from modwick.words import (
    Word, WordError, _pairable, _raw_correlator_terms, adjoint, annihilate,
    correlator_recursive, create, expand_leading_annihilator,
    word, word_from_json_dict, word_from_pattern, word_to_json_dict,
)

# the constant 1, canonical
EXPR_ONE = canonicalize(ScalarExpr((ScalarTerm(),)))


def pattern_of(w: Word) -> str:
    """The creator/annihilator pattern of a word, inverse of word_from_pattern."""
    return "".join("+" if dagger else "a" for dagger, _, _, _ in w.gens)


def weighted_phase(t_from, t_to, arg_dict):
    return (time_difference(t_from, t_to), comb(arg_dict), True)


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
            lambda: word((False, "t1", "k1", pol), (True, "t2", "k2", pol)),
            f"^polarization index must be an integer, got {pol!r}$")
    w = word_from_pattern("a+", pols=[1, 1])
    assert word_from_json_dict(word_to_json_dict(w)) == w


def test_word_rejects_non_string_labels():
    _one_line_word_error(lambda: word((False, 1, "k1", None)),
                         "^labels must be strings, got 1 and 'k1'$")
    _one_line_word_error(
        lambda: word(annihilate("t1", "k1"), create("t2", ("k", 2))),
        r"^labels must be strings, got 't2' and \('k', 2\)$")


def test_word_checks_the_shape_of_each_generator():
    # a generator is the plain tuple (dagger, t, k, pol), checked in order
    assert Word(((False, "t1", "k1", None),)).gens == (annihilate("t1", "k1"),)
    _one_line_word_error(lambda: Word(((False, "t1", "k1"),)),
                         r"^generator must be \(dagger, t, k, pol\), got 3 entries$")
    _one_line_word_error(lambda: Word((("yes", "t1", "k1", None),)),
                         "^generator dagger must be a bool, got 'yes'$")
    _one_line_word_error(lambda: Word(([False, "t1", "k1", None],)),
                         "^generator must be a tuple, got list$")
    _one_line_word_error(lambda: word(annihilate("t1", "k1"), (1, "t2", "k2", None)),
                         "^generator dagger must be a bool, got 1$")


def _gens(pols, t_labels=None, k_labels=None) -> tuple:
    """Annihilators with these polarizations, labelled t_i and k_i unless given."""
    n = len(pols)
    return tuple(zip([False] * n, t_labels or [f"t{i}" for i in range(n)],
                     k_labels or [f"k{i}" for i in range(n)], pols))


@pytest.mark.parametrize("gens, match", [
    # a word with two faults names the one checked first: each generator's
    # shape left to right, repeated time labels, repeated momentum labels,
    # mixed polarizations, each polarization left to right, the length
    ((("yes", "t1", "k1", None), [False, "t2", "k2", None]),
     "^generator dagger must be a bool, got 'yes'$"),
    (((False, 1, "k1", None), (False, "t2", "k2")),
     "^labels must be strings, got 1 and 'k1'$"),
    (((False, "t1", "k1", None), (1, "t1", "k2", None)),
     "^generator dagger must be a bool, got 1$"),
    (_gens([7, 7], t_labels=["t1", "t1"]), "^repeated time label in word$"),
    (_gens([None, None], t_labels=["t1", "t1"], k_labels=["k1", "k1"]),
     "^repeated time label in word$"),
    (_gens([None, 1], k_labels=["k1", "k1"]), "^repeated momentum label in word$"),
    (_gens([None] * 13, k_labels=["k1"] * 13), "^repeated momentum label in word$"),
    (_gens([None, 5]), "^mixed polarized and unpolarized generators$"),
    (_gens([1.0, None]), "^mixed polarized and unpolarized generators$"),
    (_gens([4, 1.0]), "^polarization index out of range: 4$"),
    (_gens([True, 4]), "^polarization index must be an integer, got True$"),
    (_gens([0] * 13), "^polarization index out of range: 0$"),
])
def test_word_names_its_first_fault(gens, match):
    _one_line_word_error(lambda: Word(gens), match)


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
    assert [t for _, t, _, _ in w.gens] == [f"t{i}" for i in range(1, 7)]
    assert [k for _, _, k, _ in w.gens] == [f"k{i}" for i in range(1, 7)]
    with pytest.raises(WordError):
        word_from_pattern("ab+")


def test_polarized_pattern():
    w = word_from_pattern("a+", pols=[2, 2])
    assert w.polarized()
    assert [pol for _, _, _, pol in w.gens] == [2, 2]
    assert not word_from_pattern("a+").polarized()


def test_adjoint_reverses_and_flips():
    w = word_from_pattern("aa+")
    aw = adjoint(w)
    assert pattern_of(aw) == "a++"
    assert [t for _, t, _, _ in aw.gens] == ["t3", "t2", "t1"]
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
    assert first == ScalarTerm(C_ONE, 0, -2, (
        weighted_phase("t1", "t2",
                       {Energy("k1"): 1, PDot("k1"): 1, Dot("k1", "k3"): 1}),),
        (momentum_delta("k1", "k2"),))

    # contraction with the far creator picks up a swap phase instead
    assert second_rest == (create("t2", "k2"),)
    assert second == ScalarTerm(C_ONE, 0, -2, (
        weighted_phase("t1", "t3", {Energy("k1"): 1, PDot("k1"): 1}),
        (time_difference("t1", "t2"), comb({Dot("k1", "k2"): 1}), False)),
        (momentum_delta("k1", "k3"),))

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
    coeff, _, _, _, deltas = kept
    assert coeff == C_ONE
    assert deltas == (momentum_delta("k1", "k2"),)
    assert kept_rest == ()

    # the mismatched creator forms no term but still passes by: it stays
    # in the remaining word and its swap phase reaches the matched term
    ((matched, rest),) = expand_leading_annihilator(
        word_from_pattern("a++", pols=[2, 1, 2]).gens)
    coeff, _, _, phases, deltas = matched
    assert coeff == C_ONE
    assert deltas == (momentum_delta("k1", "k3"),)
    assert rest == (create("t2", "k2", 1),)
    assert phases[1] == (
        time_difference("t1", "t2"), comb({Dot("k1", "k2"): 1}), False)


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
    coeff, two_pi_power, lambda_power, phases, deltas = term
    assert coeff == C_ONE
    assert lambda_power == -2
    assert two_pi_power == 0
    assert phases == (
        weighted_phase("t1", "t2", {Energy("k1"): 1, PDot("k1"): 1}),)
    assert deltas == (momentum_delta("k1", "k2"),)


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
    ((_, _, _, phases, deltas),) = e.terms
    assert deltas == (momentum_delta("q1", "q2"),)
    assert phases[0][0] == time_difference("s1", "s2")


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


def _reference_shift_p(s: tuple, g: tuple) -> tuple:
    """Move a p-dependent scalar rightward past one generator."""
    coeff, two_pi_power, lambda_power, phases, deltas = s
    dagger, _, k, _ = g
    sign = 1 if dagger else -1
    phases = tuple(
        (time, _reference_shifted(arg, k, sign), weighted)
        for time, arg, weighted in phases
    )
    deltas = tuple(
        phase_delta(_reference_shifted(d[1], k, sign))
        if d[0] == PHASE else d
        for d in deltas
    )
    return ScalarTerm(coeff, two_pi_power, lambda_power, phases, deltas)


def _reference_contraction(x: tuple, y: tuple) -> tuple:
    """Contract annihilator x against creator y, in place."""
    (_, x_t, x_k, x_pol), (_, y_t, y_k, y_pol) = x, y
    if x_pol != y_pol:
        return ScalarTerm((0, 0))
    arg = comb({Energy(x_k): 1, PDot(x_k): 1})
    phase = (time_difference(x_t, y_t), arg, True)
    return ScalarTerm(C_ONE, 0, -2, (phase,), (momentum_delta(x_k, y_k),))


def _reference_expand(gens: tuple) -> list:
    """One p-shift per generator to the right, one times() per swap."""
    lead, tail = gens[0], gens[1:]
    _, lead_t, lead_k, _ = lead
    out = []
    for j, g in enumerate(tail):
        if not g[0]:
            continue
        scalar = _reference_contraction(lead, g)
        if scalar[0] != (0, 0):
            for other in tail[j + 1:]:
                scalar = _reference_shift_p(scalar, other)
            for other_dagger, other_t, other_k, _ in tail[:j]:
                swap = oscillation(lead_t, other_t,
                                   comb({Dot(lead_k, other_k): 1}),
                                   power=1 if other_dagger else -1)
                scalar = times(scalar, ScalarTerm(C_ONE, 0, 0, (swap,), ()))
        out.append((scalar, tail[:j] + tail[j + 1:]))
    return out


def _term_sort_key(term: tuple) -> tuple:
    """The full sort key canonicalize used before it merged on the identity."""
    (re, im), _, _, phases, _ = term
    return (
        term_signature(term),
        tuple(phase_key(ph) for ph in phases),
        (str(re), str(im)),
    )


def _reference_canonicalize(terms) -> ScalarExpr:
    """Canonicalize each term alone, sort by the full key, merge neighbours
    whose signatures agree."""
    cleaned = sorted((ct for t in terms for ct in canonicalize(ScalarExpr((t,))).terms),
                     key=_term_sort_key)
    combined = []
    for term in cleaned:
        if combined and term_signature(combined[-1]) == term_signature(term):
            (prev_re, prev_im), *rest = combined[-1]
            (re, im), *_ = term
            combined[-1] = ScalarTerm((prev_re + re, prev_im + im), *rest)
        else:
            combined.append(term)
    return ScalarExpr(tuple(t for t in combined if t[0] != (0, 0)))


def _reference_recursive(w: Word) -> ScalarExpr:
    """Depth-first walk of the expansion tree, no memo."""
    collected = []

    def descend(prefix, rest):
        if not rest:
            collected.append(prefix)
        elif not rest[0][0]:
            for scalar, sub in _reference_expand(rest):
                if scalar[0] != (0, 0):
                    descend(times(prefix, scalar), sub)

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
        shared_terms = _raw_correlator_terms(w.gens, shared)
        assert to_json_str(canonicalize(ScalarExpr(shared_terms))) == expected, \
            (pattern_of(w), w.gens[0][3])


def test_expansion_raw_terms_equal_the_reference(monkeypatch):
    # the raw terms tuple for tuple: canonicalize can hide a change in the
    # order of a term's factors, so the output tests do not pin it
    words = [c.word for c in _cases(4)]
    words += [word_from_pattern("aaaaaa++++++"), _build("aaaa+a+a++++", "cyclic")]
    expanded = []

    def recorded(gens):
        expanded.append(gens)
        return expand_leading_annihilator(gens)

    monkeypatch.setattr(words_module, "expand_leading_annihilator", recorded)
    for w in words:
        _raw_correlator_terms(w.gens, {})
    assert len(expanded) == 372  # every expansion of the walk, repeats included
    for gens in expanded:
        want = [(s, rest) for s, rest in _reference_expand(gens) if s[0] != (0, 0)]
        assert expand_leading_annihilator(gens) == want, gens


def test_pairable_holds_exactly_where_the_tree_walk_reaches_the_empty_word():
    # a rule that refuses too much changes the recursion's output, which
    # the closed form sees; one that accepts too much only costs
    # expansions, so it is held here against every sub-word the walk
    # without the vacuum rule or `_pairable` reaches
    words = [c.word for c in _cases(4)]
    words += [word_from_pattern("aaaaaa++++++"), _build("aaaa+a+a++++", "cyclic")]
    closes: dict = {}

    def reaches_empty(gens):
        if gens not in closes:
            # a list, not any(): every branch is walked and recorded
            closes[gens] = not gens or not gens[0][0] and any([
                reaches_empty(rest) for scalar, rest in _reference_expand(gens)
                if scalar[0] != (0, 0)])
        return closes[gens]

    for w in words:
        reaches_empty(w.gens)
    assert sum(closes.values()) < len(closes)
    for gens, closed in closes.items():
        assert _pairable(gens) is closed, gens
