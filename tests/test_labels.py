"""Every route on arbitrary label strings, not only t<i> and k<i>.

Word files accept any distinct label strings, and the canonical order
reads label text.  Labels holding `,;:()`, digits or a non-ASCII letter
can print alike ("x,y" next to "z" and "x" next to "y,z" both give
"D(x,y,z)"), so the route equalities and the canonical bytes must rest
on the structural identity, not on those strings.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from modwick.limits import (
    correlator_limit_rewrite, correlator_wick_limit, limit_of_pairing_sum,
)
from modwick.pairings import correlator_pairing_sum
from modwick.scalars import ScalarExpr, canonicalize, canonically_equal
from modwick.serialize import to_json_str
from modwick.verify import MODES
from modwick.words import (
    Generator, Word, _raw_correlator_terms, correlator_recursive,
)

LABEL_CHARS = "tkxyz,;:()019é"


@st.composite
def words(draw) -> Word:
    pairs = draw(st.integers(1, 4))
    # a Dyck word with 'a' opening, so pairings exist and the routes have
    # terms to compare; words of odd length or without pairings are zero
    pattern, depth = "", 0
    for _ in range(2 * pairs):
        if pattern.count("a") < pairs and (depth == 0 or draw(st.booleans())):
            pattern, depth = pattern + "a", depth + 1
        else:
            pattern, depth = pattern + "+", depth - 1
    n = len(pattern)
    labels = draw(st.lists(st.text(LABEL_CHARS, min_size=1, max_size=4),
                           min_size=2 * n, max_size=2 * n, unique=True))
    pols = {"scalar": [None] * n, "uniform": [1] * n,
            "cyclic": [i % 3 + 1 for i in range(n)]}[draw(st.sampled_from(MODES))]
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
