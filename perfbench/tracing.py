"""Outside-in tracing of the modwick layers, and the import-time breakdown.

The tracer rebinds every ``modwick.*`` module attribute that refers to a
listed function, so calls through a copied reference (``from .scalars
import canonicalize`` in ``words``, ``pairings``, ``limits`` and
``verify``) are seen too.  Each call records a span: name, start, end,
parent span and op id.  Spans stay in memory and are written out when the
run ends.  A span's self time is its duration minus its child spans; the
harness's own ``harness.op`` span encloses every op, so the layers' self
times plus the harness self time add up to the traced op time.

``term_signature`` and the ``PhaseArg`` helpers are left alone: they are
called about a million times per op.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

import modwick
from modwick import kernels

LAYERS = ("cli", "verify", "words", "pairings", "limits", "scalars",
          "serialize", "kernels")

# (module, function, metrics reported besides self_s and errors)
TRACED = (
    ("cli", "main", ()),
    ("verify", "run_all", ()),
    ("verify", "suite_closed_form_vs_recursion", ("s",)),
    ("verify", "suite_limit_triple_agreement", ("s",)),
    ("verify", "suite_adjoint_symmetry", ("s",)),
    ("verify", "suite_swap_consistency", ("s",)),
    ("words", "correlator_recursive", ("calls",)),
    ("words", "expand_leading_annihilator", ("calls",)),
    ("pairings", "enumerate_pairings", ()),
    ("pairings", "pairing_term", ()),
    ("pairings", "correlator_pairing_sum", ()),
    ("pairings", "annotated_pairing_terms", ()),
    ("limits", "limit_of_pairing_sum", ()),
    ("limits", "correlator_wick_limit", ()),
    ("limits", "correlator_limit_rewrite", ()),
    ("scalars", "canonicalize", ("calls",)),
    ("scalars", "canonically_equal", ()),
    ("scalars", "multiply", ()),
    ("scalars", "conjugate", ()),
    ("serialize", "to_json_str", ()),
    ("serialize", "term_to_json_dict", ()),
    ("serialize", "from_json_dict", ()),
    ("serialize", "to_latex", ()),
    ("kernels", "delta_kernel_quadrature", ("calls",)),
    ("kernels", "term_value_quadrature", ("calls",)),
    ("kernels", "term_convergence_quadrature", ("calls",)),
    ("kernels", "delta_kernel", ()),
    ("kernels", "term_value", ()),
    ("kernels", "term_convergence", ()),
    ("kernels", "vanishing_kernel", ()),
)
CLOSED_FORMS = ("delta_kernel", "term_value", "term_convergence",
                "vanishing_kernel")
QUADRATURES = ("delta_kernel_quadrature", "term_value_quadrature",
               "term_convergence_quadrature")
COUNTERS = (
    ("cli.out_bytes", "B"),
    ("verify.cases", "count"),
    ("pairings.pairings_enumerated", "count"),
    ("limits.terms_dropped", "count"),
    ("scalars.canonicalize.terms_in", "count"),
    ("scalars.canonicalize.terms_out", "count"),
    ("serialize.json_bytes_out", "B"),
    ("kernels.grid_evals", "count"),
    ("kernels.grid_bytes_computed", "B"),
    ("kernels.quadrature_errors", "count"),
)
GRID_VALUE_BYTES = 16  # one complex128 integrand value per grid node


def _span_name(module: str, fn: str) -> str:
    return f"{module}.{fn[len('suite_'):] if fn.startswith('suite_') else fn}"


def metric_units() -> dict:
    """Every per-layer metric name, in report order, with its unit."""
    units = {
        "import.numpy_s": "s", "import.scipy_s": "s", "import.modwick_s": "s",
        "trace.ops_per_ref_s_untraced": "1/ref_s",
        "trace.ops_per_ref_s_traced": "1/ref_s",
        "trace.overhead_frac": "ratio", "trace.op_s": "s",
        "trace.layers_self_s": "s", "trace.spans": "count",
        "harness.self_s": "s",
    }
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for module, fn, extra in TRACED:
        name = _span_name(module, fn)
        if module == "kernels" and fn in CLOSED_FORMS:
            units["kernels.closed_form.self_s"] = "s"
        else:
            units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
        for e in extra:
            units[f"{name}.{e}"] = "s" if e == "s" else "count"
    for name, unit in COUNTERS:
        units[name] = unit
    units["scalars.merge_ratio"] = "ratio"
    return units


class Tracer:
    """Spans and counters for calls into the modwick layers."""

    def __init__(self):
        self.spans = []  # (parent index, name, start ns, end ns, op id)
        self.stack = []
        self.counts = Counter()
        self.op_id = -1
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        hooks = {
            "cli.main": self._count_cli_out,
            "verify.run_all": lambda a, r: self.counts.update(
                {"verify.cases": sum(s.cases for s in r)}),
            "pairings.enumerate_pairings": lambda a, r: self.counts.update(
                {"pairings.pairings_enumerated": len(r)}),
            "scalars.canonicalize": lambda a, r: self.counts.update(
                {"scalars.canonicalize.terms_in": len(a[0].terms),
                 "scalars.canonicalize.terms_out": len(r.terms)}),
            "serialize.to_json_str": lambda a, r: self.counts.update(
                {"serialize.json_bytes_out": len(r.encode())}),
        }
        for module, fn, _ in TRACED:
            name = _span_name(module, fn)
            original = getattr(getattr(modwick, module), fn)
            self._rebind(original, self._spanned(original, name, hooks.get(name)))
        # counted, not spanned: the per-term limit map and the grid kernel
        self._rebind(modwick.limits._limit_term, self._counted(
            modwick.limits._limit_term,
            lambda a, r: r is None and self.counts.update({"limits.terms_dropped": 1})))
        self._rebind(kernels._tensor_quadrature, self._counted(
            kernels._tensor_quadrature, self._count_grid))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def _rebind(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "modwick" and not modname.startswith("modwick."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, original, name, hook):
        spans, stack, counts = self.spans, self.stack, self.counts
        quadrature = name.split(".", 1)[1] in QUADRATURES

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException as e:
                counts[f"{name}.errors"] += 1
                if quadrature and isinstance(e, kernels.QuadratureError):
                    counts["kernels.quadrature_errors"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (stack[-1] if stack else -1, name, start, end,
                              self.op_id)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    @staticmethod
    def _counted(fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, result)
            return result
        return wrapper

    def _count_cli_out(self, args, result):
        argv = args[0] if args else []
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                self.counts["cli.out_bytes"] += os.path.getsize(path)

    def _count_grid(self, args, result):
        bounds, _integrand, points = args[:3]
        evals = points ** len(bounds)
        self.counts["kernels.grid_evals"] += evals
        self.counts["kernels.grid_bytes_computed"] += evals * GRID_VALUE_BYTES

    # -- the harness's own spans ------------------------------------------

    def op_begin(self, op_id: int):
        self.op_id = op_id
        self.stack.append(len(self.spans))
        self.spans.append(None)
        return perf_counter_ns()

    def op_end(self, start: int):
        end = perf_counter_ns()
        idx = self.stack.pop()
        self.spans[idx] = (-1, "harness.op", start, end, self.op_id)

    # -- results ----------------------------------------------------------

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_ns,end_ns,op\n")
            for i, (parent, name, start, end, op) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end},{op}\n")

    def metrics(self, n_ops: int) -> dict:
        """Per-op averages of every span and counter metric."""
        child = defaultdict(int)
        for parent, _name, start, end, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = Counter()
        total_ns = Counter()
        calls = Counter()
        for i, (_parent, name, start, end, _op) in enumerate(self.spans):
            self_ns[name] += end - start - child[i]
            total_ns[name] += end - start
            calls[name] += 1

        per = 1.0 / max(n_ops, 1)
        out = {}
        for module, fn, extra in TRACED:
            name = _span_name(module, fn)
            if not (module == "kernels" and fn in CLOSED_FORMS):
                out[f"{name}.self_s"] = self_ns[name] * 1e-9 * per
            out[f"{name}.errors"] = self.counts[f"{name}.errors"] * per
            for e in extra:
                out[f"{name}.{e}"] = (total_ns[name] * 1e-9 if e == "s"
                                      else calls[name]) * per
        out["kernels.closed_form.self_s"] = sum(
            self_ns[f"kernels.{fn}"] for fn in CLOSED_FORMS) * 1e-9 * per
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_ns.items()
                if k.startswith(layer + ".")) * 1e-9 * per
        for name, _unit in COUNTERS:
            out[name] = self.counts[name] * per
        terms_in = self.counts["scalars.canonicalize.terms_in"]
        out["scalars.merge_ratio"] = (
            1.0 - self.counts["scalars.canonicalize.terms_out"] / terms_in
            if terms_in else 0.0)
        out["trace.op_s"] = total_ns["harness.op"] * 1e-9 * per
        out["harness.self_s"] = self_ns["harness.op"] * 1e-9 * per
        out["trace.layers_self_s"] = sum(out[f"{la}.self_s"] for la in LAYERS)
        out["trace.spans"] = len(self.spans) * per
        return out


# ---------------------------------------------------------------------------
# import time


def import_breakdown(root: str) -> dict:
    """Import cost of ``modwick.cli`` split into numpy, scipy and the rest.

    Runs ``python -X importtime -c "import modwick.cli"`` in a fresh
    interpreter and charges every module's self time to its nearest
    enclosing numpy or scipy import, else to modwick.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import modwick.cli"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    roots = []  # post-order lines: children come before their parent
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        self_us = int(self_us)
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = (name.strip(), self_us, [])
        while roots and roots[-1][0] > depth:
            node[2].insert(0, roots.pop()[1])
        roots.append((depth, node))

    totals = Counter()

    def charge(node, group):
        mod, self_us, children = node
        top = mod.split(".", 1)[0]
        if top in ("numpy", "scipy"):
            group = top
        elif group is None and top == "modwick":
            group = "modwick"
        if group is not None:
            totals[group] += self_us
        for c in children:
            charge(c, group)

    for _depth, node in roots:
        charge(node, None)
    return {f"import.{g}_s": totals[g] * 1e-6 for g in ("numpy", "scipy", "modwick")}
