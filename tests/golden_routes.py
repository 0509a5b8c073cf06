"""The five symbolic routes and two of the golden digests over them.

Neither digest needs numpy, so `tests/test_golden.py` computes them in
process and again under every other interpreter it finds, importing this
module there with only `src/` and `tests/` on the path.
"""

from __future__ import annotations

import hashlib

from modwick.limits import (
    correlator_limit_rewrite, correlator_wick_limit, limit_of_pairing_sum,
)
from modwick.pairings import correlator_pairing_sum
from modwick.serialize import to_json_str, to_latex
from modwick.verify import _build
from modwick.words import Word, correlator_recursive

# "E(k()" sorts before "E(k)" as text although "k" < "k(": the canonical
# order of atoms, phases and deltas follows the text, so these labels
# tell it from the structural order
ODD_LABEL_WORDS = [("aa++", ("k", "k(", "m1", "m2")),
                   ("aaa+++", ("k", "k(", "k,", "m1", "m2", "m3"))]


def routes(w) -> list:
    closed = correlator_pairing_sum(w)
    return [correlator_recursive(w), closed, limit_of_pairing_sum(closed),
            correlator_wick_limit(w), correlator_limit_rewrite(w)]


def block_word_sha256() -> str:
    """The five routes on aaaaaa++++++ (720 pairings), as JSON and LaTeX."""
    h = hashlib.sha256()
    for e in routes(_build("aaaaaa++++++", "scalar")):
        h.update(f"{to_json_str(e)}\n{to_latex(e)}\n".encode())
    return h.hexdigest()


def odd_label_sha256() -> str:
    """The five routes on the words of `ODD_LABEL_WORDS`, as JSON and LaTeX."""
    h = hashlib.sha256()
    for pattern, momenta in ODD_LABEL_WORDS:
        w = Word(tuple((ch == "+", f"t{i + 1}", k, None)
                       for i, (ch, k) in enumerate(zip(pattern, momenta))))
        for e in routes(w):
            h.update(f"{pattern} {' '.join(momenta)}\n{to_json_str(e)}\n"
                     f"{to_latex(e)}\n".encode())
    return h.hexdigest()
