"""The benchmark's tracer still reaches the names it rebinds.

`perfbench/tracing.py` wraps module attributes by name, so a rename, or
a route bound as a default argument when its `def` runs, would silently
drop spans from every traced benchmark run.  This reads `perfbench/`
and changes nothing in it.
"""

from __future__ import annotations

import importlib
import os

import modwick.cli  # the tracer wraps cli.main
from modwick import kernels, limits, serialize, verify
from modwick.words import correlator_recursive, word_from_pattern

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def test_tracer_names_exist_and_reach_the_verify_routes(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")

    for module, fn, _ in tracing.TRACED:
        assert callable(getattr(getattr(modwick, module), fn)), (module, fn)
    assert callable(limits._limit_term)
    assert callable(kernels._tensor_quadrature)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        verify.run_all(1)
    finally:
        tracer.uninstall()

    names = [span[1] for span in tracer.spans]

    def parents(name):
        return {names[span[0]] for span in tracer.spans
                if span[1] == name and span[0] >= 0}

    # each word's pairing sum is computed once, by the first suite that
    # reads it, and the limit suite maps the shared value
    assert parents("pairings.correlator_pairing_sum") == {
        "verify.closed_form_vs_recursion"}
    assert "verify.limit_triple_agreement" in parents(
        "limits.limit_of_pairing_sum")

    # the recursion on generator tuples still calls the expansion through
    # the module attribute the tracer rebinds, so every call is counted
    expansions = [span for span in tracer.spans
                  if span[1] == "words.expand_leading_annihilator"]
    assert expansions
    assert {names[span[0]] for span in expansions} == {"words.correlator_recursive"}
    calls = tracer.metrics(1)["words.expand_leading_annihilator.calls"]
    assert calls == len(expansions)


def test_traced_serializers_write_the_same_json(monkeypatch):
    # the tracer rebinds `serialize.term_to_json_dict`, so the JSON writer
    # must not recognise a term by that public function's identity
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    w = word_from_pattern("aa++")
    e = correlator_recursive(w)

    def documents():
        return (serialize.to_json_str(e),
                serialize.indented_json(modwick.cli._pairing_entries(w, True)))

    untraced = documents()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = documents()
    finally:
        tracer.uninstall()
    assert traced == untraced
