"""The five symbolic routes and four of the golden digests over them.

None of these digests needs numpy, so `tests/test_golden.py` computes them
in process and again under every other interpreter it finds, importing
this module there with only `src/` and `tests/` on the path.
"""

from __future__ import annotations

import hashlib
import json

from modwick.cli import _pairing_entry
from modwick.limits import (
    correlator_limit_rewrite, correlator_wick_limit, limit_of_pairing_sum,
)
from modwick.pairings import annotated_pairing_terms, correlator_pairing_sum
from modwick.serialize import term_to_json_dict, to_json_str, to_latex
from modwick.verify import MODES, _build, patterns_up_to, report, run_all
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


def routes_sha256() -> str:
    """The routes on every word up to n = 3 and one more, then `verify --max-n 3`.

    Every pattern of length <= 6 in every mode and one 12-generator word,
    as JSON and LaTeX.
    """
    h = hashlib.sha256()
    # the 12-generator word brings labels t10-t12, which sort before t2
    for pattern in [*patterns_up_to(6), "aa+a+a+a+a++"]:
        for mode in MODES:
            for e in routes(_build(pattern, mode)):
                h.update(f"{pattern} {mode}\n{to_json_str(e)}\n{to_latex(e)}\n"
                         .encode())
    h.update(report(run_all(3)).encode())
    return h.hexdigest()


def annotated_pairings_sha256() -> str:
    """Each annotated pairing entry of the same words and of aaaaaa++++++."""
    h = hashlib.sha256()
    for pattern in [*patterns_up_to(6), "aa+a+a+a+a++", "aaaaaa++++++"]:
        for mode in MODES:
            h.update(f"{pattern} {mode}\n".encode())
            for at in annotated_pairing_terms(_build(pattern, mode)):
                entry = json.dumps(
                    _pairing_entry(at.pairing, at.crossings,
                                   term_to_json_dict(at.term)),
                    separators=(",", ":"))
                h.update(entry.encode() + b"\n")
    return h.hexdigest()


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
