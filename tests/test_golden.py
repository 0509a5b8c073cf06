"""Golden bytes: one sha256 over the serialized output of every route.

The digest covers JSON and LaTeX of the recursion, the pairing sum and
the three limit routes for every pattern of length <= 6 in all modes and
one 12-generator word, plus the `verify --max-n 3` report.  It was
computed before canonical expressions were marked and compared without a
second pass, so any later change to the term representation, the
canonical order or a route's formula that moves one output byte fails
here.  A second digest covers the same five routes on the 12-generator
block word aaaaaa++++++ (720 pairings); it was computed before like terms
merged on the structural identity.  A third digest covers `converge`
stdout, the numeric CSV, on two assignments and two ladders each; it was
computed before the four smeared-term evaluators shared their integrand
builders and integrators.  A fourth digest covers the annotated pairing
entries, which pin the enumeration order and the pairings a polarization
mismatch drops; it was computed before the symbolic routes lost their
early returns and the enumeration its sort.  A fifth digest covers the
indented documents of `pairings`, `pairings --annotate` and `correlate
--annotate` as the CLI prints them; it was computed before those
documents and `to_json_str` shared one JSON writer.  A sixth digest
covers the five routes on two words whose momentum labels carry
punctuation ("k(" and "k,"), where the text order of phase atoms and
their structural order disagree; it was computed before phase atoms
became plain tuples.  When a change is meant to move output, recompute
the digest and say why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from modwick.limits import (
    correlator_limit_rewrite, correlator_wick_limit, limit_of_pairing_sum,
)
from modwick.cli import _pairing_entry
from modwick.pairings import annotated_pairing_terms, correlator_pairing_sum
from modwick.serialize import term_to_json_dict, to_json_str, to_latex
from modwick.verify import MODES, _build, patterns_up_to, report, run_all
from modwick.words import (
    Generator, Word, correlator_recursive, word_to_json_dict,
)

GOLDEN_SHA256 = "6463b8402cc833d0aead8bb40e626c080a2eeec1b74ac4ce3ea72ecce234a41e"
BLOCK_WORD_SHA256 = "6cec35b100310050d488edca57d121ea09baba87c892b4001fcc399a2e8980f3"
CONVERGE_SHA256 = "42019040a0e1a6fe09bdaa5ab85853d28f4c0f41b1d6ba77a22b96dd17cdad38"
ANNOTATED_SHA256 = "275e83dbabb265b2cf10afa91072f160374d20e7a9dd82e7cce4ad9830243189"
CLI_DOCUMENTS_SHA256 = "80c7215db499e47e5ec0e450e482e0ca34aa7ba3ab67fc3bf94bf6778200a05a"
ODD_LABEL_SHA256 = "eb5cb971283d06c4bdbbed411d399edce98ccac22014a2ae5a8a94db5aee8718"

# "E(k()" sorts before "E(k)" as text although "k" < "k(": the canonical
# order of atoms, phases and deltas follows the text, so these labels
# tell it from the structural order
ODD_LABEL_WORDS = [("aa++", ("k", "k(", "m1", "m2")),
                   ("aaa+++", ("k", "k(", "k,", "m1", "m2", "m3"))]

# the README assignment, and one with every vector off the axes, a nonzero
# p and its own vanishing_x, so every phase atom kind evaluates nonzero
CONVERGE_ASSIGNMENTS = [
    {"momenta": {"k1": [1, 0, 0], "k2": [1, 1, 0]}, "p": [0, 0, 0]},
    {"momenta": {"k1": [0.3, -0.7, 0.2], "k2": [-0.4, 0.5, 1.1]},
     "p": [0.2, 0.1, -0.3], "vanishing_x": 2.5},
]


def _routes(w) -> list:
    closed = correlator_pairing_sum(w)
    return [correlator_recursive(w), closed, limit_of_pairing_sum(closed),
            correlator_wick_limit(w), correlator_limit_rewrite(w)]


def test_outputs_match_the_golden_digest():
    h = hashlib.sha256()
    # the 12-generator word brings labels t10-t12, which sort before t2
    for pattern in [*patterns_up_to(6), "aa+a+a+a+a++"]:
        for mode in MODES:
            for e in _routes(_build(pattern, mode)):
                h.update(f"{pattern} {mode}\n{to_json_str(e)}\n{to_latex(e)}\n"
                         .encode())
    h.update(report(run_all(3)).encode())
    assert h.hexdigest() == GOLDEN_SHA256


def test_block_word_matches_its_golden_digest():
    h = hashlib.sha256()
    for e in _routes(_build("aaaaaa++++++", "scalar")):
        h.update(f"{to_json_str(e)}\n{to_latex(e)}\n".encode())
    assert h.hexdigest() == BLOCK_WORD_SHA256


def test_odd_labels_match_their_golden_digest():
    h = hashlib.sha256()
    for pattern, momenta in ODD_LABEL_WORDS:
        w = Word(tuple(Generator(ch == "+", f"t{i + 1}", k)
                       for i, (ch, k) in enumerate(zip(pattern, momenta))))
        for e in _routes(w):
            h.update(f"{pattern} {' '.join(momenta)}\n{to_json_str(e)}\n"
                     f"{to_latex(e)}\n".encode())
    assert h.hexdigest() == ODD_LABEL_SHA256


def test_annotated_pairings_match_their_golden_digest():
    h = hashlib.sha256()
    for pattern in [*patterns_up_to(6), "aa+a+a+a+a++", "aaaaaa++++++"]:
        for mode in MODES:
            h.update(f"{pattern} {mode}\n".encode())
            for at in annotated_pairing_terms(_build(pattern, mode)):
                entry = json.dumps(
                    _pairing_entry(at.pairing, at.crossings, at.term),
                    separators=(",", ":"), default=term_to_json_dict)
                h.update(entry.encode() + b"\n")
    assert h.hexdigest() == ANNOTATED_SHA256


def test_cli_documents_match_their_golden_digest(cli_run, write_json):
    h = hashlib.sha256()
    cases = [(p, m) for p in [*patterns_up_to(6), "aa+a+a+a+a++"] for m in MODES]
    for pattern, mode in [*cases, ("aaaaaa++++++", "scalar")]:
        path = write_json("word.json", word_to_json_dict(_build(pattern, mode)))
        for request in (["pairings"], ["pairings", "--annotate"],
                        ["correlate", "--annotate"]):
            code, out, err = cli_run([*request, path])
            assert (code, err) == (0, ""), (pattern, mode, request)
            h.update(f"{pattern} {mode} {' '.join(request)}\n{out}".encode())
    assert h.hexdigest() == CLI_DOCUMENTS_SHA256


def test_converge_matches_its_golden_digest(cli_run, write_json):
    h = hashlib.sha256()
    for i, data in enumerate(CONVERGE_ASSIGNMENTS):
        path = write_json(f"assignment{i}.json", data)
        for ladder in ([], ["--lambdas", "1.0,0.7,0.45,0.3"]):
            code, out, err = cli_run(["converge", path, *ladder])
            assert (code, err) == (0, "")
            h.update(out.encode())
    assert h.hexdigest() == CONVERGE_SHA256


@pytest.mark.parametrize("seed", ["0", "4242"])
def test_digests_hold_under_other_hash_seeds(seed):
    # the JSON writer memoizes fragments in a dict keyed by value, and
    # canonicalize merges terms in one; neither may leak hash order
    tests = [f"{__file__}::test_outputs_match_the_golden_digest",
             f"{__file__}::test_cli_documents_match_their_golden_digest",
             f"{__file__}::test_odd_labels_match_their_golden_digest"]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=os.path.dirname(os.path.dirname(__file__)),
        env=dict(os.environ, PYTHONHASHSEED=seed), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
