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
from modwick import kernels, limits, verify

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
    parents = {names[span[0]] for span in tracer.spans
               if span[1] == "pairings.correlator_pairing_sum" and span[0] >= 0}
    assert {"verify.closed_form_vs_recursion",
            "verify.limit_triple_agreement"} <= parents

    # the recursion on generator tuples still calls the expansion through
    # the module attribute the tracer rebinds, so every call is counted
    expansions = [span for span in tracer.spans
                  if span[1] == "words.expand_leading_annihilator"]
    assert expansions
    assert {names[span[0]] for span in expansions} == {"words.correlator_recursive"}
    calls = tracer.metrics(1)["words.expand_leading_annihilator.calls"]
    assert calls == len(expansions)
