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
builders and integrators.  When a change is meant to move output,
recompute the digest and say why.
"""

from __future__ import annotations

import hashlib

from modwick.limits import (
    correlator_limit_rewrite, correlator_wick_limit, limit_of_pairing_sum,
)
from modwick.pairings import correlator_pairing_sum
from modwick.serialize import to_json_str, to_latex
from modwick.verify import MODES, _build, patterns_up_to, report, run_all
from modwick.words import correlator_recursive

GOLDEN_SHA256 = "6463b8402cc833d0aead8bb40e626c080a2eeec1b74ac4ce3ea72ecce234a41e"
BLOCK_WORD_SHA256 = "6cec35b100310050d488edca57d121ea09baba87c892b4001fcc399a2e8980f3"
CONVERGE_SHA256 = "42019040a0e1a6fe09bdaa5ab85853d28f4c0f41b1d6ba77a22b96dd17cdad38"

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


def test_converge_matches_its_golden_digest(cli_run, write_json):
    h = hashlib.sha256()
    for i, data in enumerate(CONVERGE_ASSIGNMENTS):
        path = write_json(f"assignment{i}.json", data)
        for ladder in ([], ["--lambdas", "1.0,0.7,0.45,0.3"]):
            code, out, err = cli_run(["converge", path, *ladder])
            assert (code, err) == (0, "")
            h.update(out.encode())
    assert h.hexdigest() == CONVERGE_SHA256
