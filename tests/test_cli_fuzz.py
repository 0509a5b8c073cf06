"""Fuzz the CLI input files: every malformed file gets an exit code, no traceback.

Each example takes a valid input file, replaces or deletes one or two of
its nodes (any depth, leaves included) with arbitrary JSON, and runs the
command on it; some examples are not JSON at all.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from modwick.cli import main
from modwick.limits import correlator_wick_limit
from modwick.serialize import to_json_dict
from modwick.words import correlator_recursive, word_from_pattern, word_to_json_dict

EXIT_CODES = {0, 2, 3, 4, 5}
FUZZ = settings(max_examples=150, deadline=None)

junk = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(1e150, 1e308) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)

_rational_term = {"coeff": [[-3, 7], [1, 2]], "two_pi_power": 1,
                  "lambda_power": 0, "phases": [],
                  "deltas": [{"kind": "time", "comb": [["t1", 1], ["t2", -1]]}]}
EXPRESSIONS = [
    to_json_dict(correlator_recursive(word_from_pattern("aa++"))),
    to_json_dict(correlator_wick_limit(word_from_pattern("aa++"))),
    {"terms": [_rational_term]},
]
WORDS = [word_to_json_dict(word_from_pattern(p, pols))
         for p, pols in (("aa++", None), ("a+a+", None), ("aa+a++", None),
                         ("a++", None), ("aa++", [1, 2, 1, 2]))]
ASSIGNMENTS = [
    {"momenta": {"k1": [1.0, 0.0, 0.0], "k2": [1.0, 1.0, 0.0]},
     "p": [0.0, 0.0, 0.0]},
    {"momenta": {"k1": [0.5, 0.0, 0.0], "k2": [0.0, 1.0, 0.0],
                 "k3": [1, 2, 3]}, "p": [0.1, 0.0, 0.0], "vanishing_x": 2.5},
]


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, bases):
    """JSON text of a base file with one or two nodes replaced or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(junk)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.integers(0, 4)) == 0:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(junk)
    return json.dumps(doc)


def file_text(bases):
    return mutated(bases) | st.text(max_size=20)


@pytest.fixture(scope="module")
def run_on_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"

    def run(text, argv):
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main([argv[0], str(path)] + argv[1:])
            except Exception as e:  # the property under test
                pytest.fail(f"{type(e).__name__} escaped main: {e}\n{text}")
        assert code in EXIT_CODES, (code, text)
        # outside the test harness a warning prints to stderr as well
        lines = err.getvalue().count("\n") + len(caught)
        assert lines <= 1, (err.getvalue(), [str(w.message) for w in caught])
        return code, out.getvalue()

    return run


@FUZZ
@given(text=file_text(EXPRESSIONS), fmt=st.sampled_from(["latex", "json"]))
def test_render_fuzz(run_on_file, text, fmt):
    run_on_file(text, ["render", "--format", fmt])


@FUZZ
@given(text=file_text(WORDS),
       argv=st.sampled_from([["correlate"], ["correlate", "--annotate"],
                             ["limit", "--check-all"], ["pairings"]]))
def test_word_file_fuzz(run_on_file, text, argv):
    run_on_file(text, argv)


@FUZZ
@given(text=file_text(ASSIGNMENTS))
def test_converge_fuzz(run_on_file, text):
    _, out = run_on_file(text, ["converge", "--lambdas", "1.0,0.5"])
    assert "nan" not in out.lower() and "inf" not in out.lower(), out
