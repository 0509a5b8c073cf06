"""Every route on arbitrary label strings, not only t<i> and k<i>.

Word files accept any distinct label strings, and the canonical order
reads label text.  Labels holding `,;:()`, digits or a non-ASCII letter
can print alike ("x,y" next to "z" and "x" next to "y,z" both give
"D(x,y,z)"), so the route equalities and the canonical bytes must rest
on the structural identity, not on those strings.  Polarization values
are labels too: permuting {1,2,3} must change no correlator byte.  The
adjoint word's correlator is the conjugate one on such labels too.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from modwick.limits import (
    correlator_limit_rewrite, correlator_wick_limit, limit_of_pairing_sum,
)
from modwick.pairings import correlator_pairing_sum
from modwick.scalars import (
    ScalarExpr, canonicalize, canonically_equal, conjugate,
)
from modwick.serialize import to_json_str
from modwick.verify import MODES
from modwick.words import (
    Generator, Word, _raw_correlator_terms, adjoint, correlator_recursive,
    word_from_pattern,
)

LABEL_CHARS = "tkxyz,;:()019é"


def dyck(draw, pairs: int) -> str:
    # a Dyck word with 'a' opening, so pairings exist and the routes have
    # terms to compare; words of odd length or without pairings are zero
    pattern, depth = "", 0
    for _ in range(2 * pairs):
        if pattern.count("a") < pairs and (depth == 0 or draw(st.booleans())):
            pattern, depth = pattern + "a", depth + 1
        else:
            pattern, depth = pattern + "+", depth - 1
    return pattern


@st.composite
def words(draw, pairs=(1, 4), modes=MODES) -> Word:
    pattern = dyck(draw, draw(st.integers(*pairs)))
    n = len(pattern)
    labels = draw(st.lists(st.text(LABEL_CHARS, min_size=1, max_size=4),
                           min_size=2 * n, max_size=2 * n, unique=True))
    pols = {"scalar": [None] * n, "uniform": [1] * n,
            "cyclic": [i % 3 + 1 for i in range(n)]}[draw(st.sampled_from(modes))]
    return Word(tuple(Generator(ch == "+", t, k, p) for ch, t, k, p
                      in zip(pattern, labels[:n], labels[n:], pols)))


@settings(max_examples=200, deadline=None)
@given(words())
def test_routes_agree_on_arbitrary_labels(w):
    closed = correlator_pairing_sum(w)
    assert canonically_equal(correlator_recursive(w), closed)
    wick = correlator_wick_limit(w)
    assert canonically_equal(limit_of_pairing_sum(closed), wick)
    assert canonically_equal(wick, correlator_limit_rewrite(w))

    raw = _raw_correlator_terms(w, {})
    forward = to_json_str(canonicalize(ScalarExpr(raw)))
    assert to_json_str(canonicalize(ScalarExpr(raw[::-1]))) == forward


@settings(max_examples=30, deadline=None)
@given(words(pairs=(5, 6), modes=("scalar", "cyclic")))
def test_adjoint_equals_conjugate_on_arbitrary_labels(w):
    assert canonically_equal(correlator_recursive(adjoint(w)),
                             conjugate(correlator_recursive(w)))


@st.composite
def relabelled_polarizations(draw) -> tuple:
    pattern = dyck(draw, draw(st.integers(5, 6)))
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
