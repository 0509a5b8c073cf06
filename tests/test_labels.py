"""Every route on arbitrary label strings, not only t<i> and k<i>.

Word files accept any distinct label strings, and the canonical order
reads label text.  Labels holding `,;:()`, digits or a non-ASCII letter
can print alike ("x,y" next to "z" and "x" next to "y,z" both give
"D(x,y,z)"), so the route equalities and the canonical bytes must rest
on the structural identity, not on those strings.  Polarization values
are labels too: permuting {1,2,3} must change no correlator byte.  The
adjoint word's correlator is the conjugate one on such labels too.
At 10-12 generators the routes still agree, and over any pattern, not
only Dyck words, the limit is nonzero exactly on the bracket-balanced
ones, and renaming the labels of a word renames its correlators.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from modwick.limits import (
    correlator_limit_rewrite, correlator_wick_limit, limit_of_pairing_sum,
)
from modwick.pairings import correlator_pairing_sum
from modwick.scalars import (
    MOMENTUM, TIME, ScalarExpr, ScalarTerm, canonicalize, canonically_equal,
    conjugate, momentum_delta, phase_delta, substituted, time_delta,
)
from modwick.serialize import to_json_str
from modwick.verify import MODES, _bracket_balanced
from modwick.words import (
    Word, _raw_correlator_terms, adjoint, correlator_recursive, word_from_pattern,
)

LABEL_CHARS = "tkxyz,;:()019é"


@st.composite
def dyck_patterns(draw, pairs=(1, 4)) -> str:
    # a Dyck word with 'a' opening, so pairings exist and the routes have
    # terms to compare; words of odd length or without pairings are zero
    pairs = draw(st.integers(*pairs))
    pattern, depth = "", 0
    for _ in range(2 * pairs):
        if pattern.count("a") < pairs and (depth == 0 or draw(st.booleans())):
            pattern, depth = pattern + "a", depth + 1
        else:
            pattern, depth = pattern + "+", depth - 1
    return pattern


@st.composite
def words(draw, patterns=dyck_patterns(), modes=MODES) -> Word:
    pattern = draw(patterns)
    n = len(pattern)
    labels = draw(st.lists(st.text(LABEL_CHARS, min_size=1, max_size=4),
                           min_size=2 * n, max_size=2 * n, unique=True))
    pols = {"scalar": [None] * n, "uniform": [1] * n,
            "cyclic": [i % 3 + 1 for i in range(n)]}[draw(st.sampled_from(modes))]
    return Word(tuple((ch == "+", t, k, p) for ch, t, k, p
                      in zip(pattern, labels[:n], labels[n:], pols)))


def assert_routes_agree(w):
    recursive = correlator_recursive(w)
    closed = correlator_pairing_sum(w)
    assert canonically_equal(recursive, closed)
    wick = correlator_wick_limit(w)
    assert canonically_equal(limit_of_pairing_sum(closed), wick)
    assert canonically_equal(wick, correlator_limit_rewrite(w))

    # the raw terms in reverse give the same terms, so the same bytes
    raw = _raw_correlator_terms(w.gens, {})
    assert canonicalize(ScalarExpr(raw[::-1])) == recursive


@settings(max_examples=200, deadline=None)
@given(words())
def test_routes_agree_on_arbitrary_labels(w):
    assert_routes_agree(w)


@settings(max_examples=30, deadline=None)
@given(words(dyck_patterns((5, 6))))
def test_routes_agree_on_long_words(w):
    assert_routes_agree(w)


@settings(max_examples=40, deadline=None)
@given(words(st.one_of(st.text("a+", min_size=10, max_size=12),
                       dyck_patterns((5, 6))),
             modes=("scalar", "uniform")))
def test_only_dyck_words_have_a_limit(w):
    # few patterns drawn as text are balanced, so Dyck words are mixed in;
    # without a polarization mismatch, a word with any pairing keeps the
    # non-crossing one, and only that one survives the limit
    wick = correlator_wick_limit(w)
    assert len(wick.terms) == (1 if _bracket_balanced(w) else 0)
    assert correlator_pairing_sum(w).is_zero() == wick.is_zero()
    assert correlator_limit_rewrite(w).is_zero() == wick.is_zero()


@settings(max_examples=30, deadline=None)
@given(words(dyck_patterns((5, 6)), modes=("scalar", "cyclic")))
def test_adjoint_equals_conjugate_on_arbitrary_labels(w):
    assert canonically_equal(correlator_recursive(adjoint(w)),
                             conjugate(correlator_recursive(w)))


@st.composite
def relabelled_polarizations(draw) -> tuple:
    pattern = draw(dyck_patterns((5, 6)))
    # each '+' takes the polarization of the 'a' it closes, so at least the
    # crossing-free pairing survives and the correlator is nonzero
    pols, open_pols = [], []
    for ch in pattern:
        if ch == "a":
            open_pols.append(draw(st.integers(1, 3)))
            pols.append(open_pols[-1])
        else:
            pols.append(open_pols.pop())
    sigma = draw(st.permutations((1, 2, 3)))
    return (word_from_pattern(pattern, pols=pols),
            word_from_pattern(pattern, pols=[sigma[p - 1] for p in pols]))


@settings(max_examples=60, deadline=None)
@given(relabelled_polarizations())
def test_permuting_polarization_values_changes_no_correlator(pair):
    w, v = pair
    for route in (correlator_recursive, correlator_wick_limit):
        assert to_json_str(route(v)) == to_json_str(route(w))


def renamed(e: ScalarExpr, sigma: dict) -> ScalarExpr:
    """Rename every time and momentum label in the phases and deltas."""
    def delta(d):
        if d[0] == MOMENTUM:
            return momentum_delta(sigma[d[1]], sigma[d[2]])
        tag, items = d
        if tag == TIME:
            return time_delta(substituted(items, sigma))
        return phase_delta(substituted(items, sigma))

    return ScalarExpr(tuple(ScalarTerm(
        coeff, two_pi_power, lambda_power,
        tuple((substituted(time, sigma), substituted(arg, sigma), weighted)
              for time, arg, weighted in phases),
        tuple(delta(d) for d in deltas))
        for coeff, two_pi_power, lambda_power, phases, deltas in e.terms))


@st.composite
def relabelled_words(draw) -> tuple:
    w = draw(words(dyck_patterns((5, 6))))
    labels = [x for _, t, k, _ in w.gens for x in (t, k)]
    sigma = dict(zip(labels, draw(st.permutations(labels))))
    return w, sigma, Word(tuple((dagger, sigma[t], sigma[k], pol)
                                for dagger, t, k, pol in w.gens))


@settings(max_examples=12, deadline=None)
@given(relabelled_words())
def test_renaming_the_labels_renames_every_route(case):
    # sigma may send a time label to a former momentum label and back
    w, sigma, v = case

    def routes(u):
        closed = correlator_pairing_sum(u)
        return (correlator_recursive(u), closed, limit_of_pairing_sum(closed),
                correlator_wick_limit(u), correlator_limit_rewrite(u))

    for got, expect in zip(routes(v), routes(w)):
        assert canonically_equal(got, renamed(expect, sigma))
