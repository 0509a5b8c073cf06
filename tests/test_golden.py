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
became plain tuples.  A seventh digest covers the whole `verify --max-n
4` report as the CLI prints it, the run the benchmark times; it was
computed before the equivalence suites walked the word table together.
An eighth digest covers the `verify --max-n 5` report, computed in
process, where canonicalize, conjugate and the recursion meet the most
term shapes; it was recorded before momentum deltas over distinct labels
skipped the union-find, before `conjugate` kept a canonical input
canonical on a path of its own (since folded back into `canonicalize`),
before the recursion stopped expanding sub-words that end with an
annihilator, and before each recursion kept its sub-word memo to itself.
The first, second, fourth, sixth and seventh digests need no numpy, and
they are checked again under every other pyenv Python 3.10 or later that
the host has: the interpreter running the tests checks them in process.
When a change is meant to move output, recompute the digest and say why.
"""

from __future__ import annotations

import glob
import hashlib
import os
import subprocess
import sys

import pytest

import modwick
from golden_routes import (
    annotated_pairings_sha256, block_word_sha256, odd_label_sha256, routes_sha256,
)
from modwick.verify import MODES, _build, patterns_up_to, report, run_all
from modwick.words import word_to_json_dict

GOLDEN_SHA256 = "6463b8402cc833d0aead8bb40e626c080a2eeec1b74ac4ce3ea72ecce234a41e"
BLOCK_WORD_SHA256 = "6cec35b100310050d488edca57d121ea09baba87c892b4001fcc399a2e8980f3"
CONVERGE_SHA256 = "42019040a0e1a6fe09bdaa5ab85853d28f4c0f41b1d6ba77a22b96dd17cdad38"
ANNOTATED_SHA256 = "275e83dbabb265b2cf10afa91072f160374d20e7a9dd82e7cce4ad9830243189"
CLI_DOCUMENTS_SHA256 = "80c7215db499e47e5ec0e450e482e0ca34aa7ba3ab67fc3bf94bf6778200a05a"
ODD_LABEL_SHA256 = "eb5cb971283d06c4bdbbed411d399edce98ccac22014a2ae5a8a94db5aee8718"
VERIFY_4_SHA256 = "0d7fc3c8e57927448b6ea8004ecb96e698db0df9095f34a0569f294e6e3e6741"
VERIFY_5_SHA256 = "52d9432a6647d578b1e98250e66006ed89b84c76711d35be221903cc9d80f5af"

# the README assignment, and one with every vector off the axes, a nonzero
# p and its own vanishing_x, so every phase atom kind evaluates nonzero
CONVERGE_ASSIGNMENTS = [
    {"momenta": {"k1": [1, 0, 0], "k2": [1, 1, 0]}, "p": [0, 0, 0]},
    {"momenta": {"k1": [0.3, -0.7, 0.2], "k2": [-0.4, 0.5, 1.1]},
     "p": [0.2, 0.1, -0.3], "vanishing_x": 2.5},
]


def test_outputs_match_the_golden_digest():
    assert routes_sha256() == GOLDEN_SHA256


def test_block_word_matches_its_golden_digest():
    assert block_word_sha256() == BLOCK_WORD_SHA256


def test_odd_labels_match_their_golden_digest():
    assert odd_label_sha256() == ODD_LABEL_SHA256


def test_annotated_pairings_match_their_golden_digest():
    assert annotated_pairings_sha256() == ANNOTATED_SHA256


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


def test_verify_report_matches_its_golden_digest(cli_run):
    code, out, err = cli_run(["verify", "--max-n", "4"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_4_SHA256


def test_verify_5_report_matches_its_golden_digest():
    text = report(run_all(5))
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_5_SHA256


def _interpreters() -> list:
    """(path, version) of each pyenv Python at 3.10 or later, by path, but
    for the interpreter running the tests, which checks the digests in process."""
    found, here = [], os.path.realpath(sys.executable)
    for exe in sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/*/bin/python"))):
        if os.path.realpath(exe) == here:
            continue
        proc = subprocess.run(
            [exe, "-c", "import sys; print('%d.%d.%d' % sys.version_info[:3])"],
            capture_output=True, text=True)
        if proc.returncode == 0 and tuple(map(int, proc.stdout.split("."))) >= (3, 10):
            found.append((exe, proc.stdout.strip()))
    return found


# run under each interpreter: the four route digests, one line each, then
# the verify --max-n 4 report as the CLI prints it
_ON_EACH_INTERPRETER = """\
import sys
from golden_routes import (
    annotated_pairings_sha256, block_word_sha256, odd_label_sha256, routes_sha256,
)
from modwick.cli import main
print(routes_sha256())
print(annotated_pairings_sha256())
print(block_word_sha256())
print(odd_label_sha256())
sys.exit(main(["verify", "--max-n", "4"]))
"""


def test_verify_report_is_the_same_on_every_interpreter(record_property):
    # the symbolic core needs no numpy, so every interpreter here imports
    # it; the documents' bytes must not depend on the Python version
    found = _interpreters()
    if not found:
        pytest.skip("no other Python 3.10 or later under ~/.pyenv/versions")
    used = ", ".join(version for _, version in found)
    record_property("interpreters", used)
    print(f"golden documents under Python {used}")
    src = os.path.dirname(os.path.dirname(modwick.__file__))
    path = os.pathsep.join([src, os.path.dirname(__file__)])
    for exe, version in found:
        proc = subprocess.run([exe, "-c", _ON_EACH_INTERPRETER],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b""), version
        full, annotated, block, odd, verify_4 = proc.stdout.split(b"\n", 4)
        assert full.decode() == GOLDEN_SHA256, version
        assert annotated.decode() == ANNOTATED_SHA256, version
        assert block.decode() == BLOCK_WORD_SHA256, version
        assert odd.decode() == ODD_LABEL_SHA256, version
        assert hashlib.sha256(verify_4).hexdigest() == VERIFY_4_SHA256, version


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
    # the JSON writer memoizes fragments in a dict keyed by object id,
    # and canonicalize merges terms in one; neither may leak hash order
    tests = [f"{__file__}::test_outputs_match_the_golden_digest",
             f"{__file__}::test_cli_documents_match_their_golden_digest",
             f"{__file__}::test_odd_labels_match_their_golden_digest"]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=os.path.dirname(os.path.dirname(__file__)),
        env=dict(os.environ, PYTHONHASHSEED=seed), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
