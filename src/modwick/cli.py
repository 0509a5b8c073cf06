"""Command-line front end.

Subcommands:
    correlate  finite-coupling vacuum correlator of a word file
    limit      limit correlator by any of the three routes
    pairings   pairing enumeration with crossing counts
    verify     cross-method suites over all patterns up to a bound
    converge   numeric convergence ladders as CSV
    render     re-render a serialized expression (JSON or LaTeX)

Exit codes: 0 success, 2 parse error or unwritable --out, 3 invalid word,
4 numeric configuration error, 5 verification failure.  All output is
fully deterministic: the same invocation produces the same bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .kernels import (
    ConvergenceRow, GaussianTest, STANDARD_GAUSSIAN, UnassignedLabelError,
    arg_value, assignment_from_json_dict, delta_kernel, delta_kernel_target,
    strip_momentum_deltas, term_convergence, vanishing_kernel,
)
from .limits import (
    correlator_limit_rewrite, correlator_wick_limit, limit_of_pairing_sum,
)
from .pairings import (
    annotated_pairing_terms, correlator_pairing_sum, crossing_count,
    enumerate_pairings,
)
from .scalars import canonically_equal
from .serialize import from_json_dict, indented_json, to_json_str, to_latex
from .verify import MAX_N, all_passed, report, run_all
from .words import (
    WordError, correlator_recursive, word_from_json_dict, word_from_pattern,
)

EXIT_PARSE = 2
EXIT_WORD = 3
EXIT_NUMERIC = 4
EXIT_VERIFY = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise CliError(
            EXIT_PARSE,
            f"{path}: parse error at line {e.lineno} column {e.colno}: {e.msg}",
        ) from None
    except (ValueError, RecursionError) as e:  # bad bytes, huge ints, deep nesting
        raise CliError(EXIT_PARSE, f"{path}: {e}") from None


def _load_word(path: str, expect_mode=None):
    data = _load_json(path)
    try:
        w = word_from_json_dict(data)
    except WordError as e:
        raise CliError(EXIT_WORD, f"{path}: {e}") from None
    if expect_mode is not None:
        actual = "polarized" if w.polarized() else "scalar"
        if actual != expect_mode:
            raise CliError(
                EXIT_WORD, f"{path}: word is {actual}, --mode asked {expect_mode}")
    return w


def _parse_lambdas(text: str) -> list:
    try:
        lams = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise CliError(EXIT_NUMERIC, f"bad lambda ladder {text!r}") from None
    if not lams or any(not 0 < x < math.inf for x in lams):
        raise CliError(EXIT_NUMERIC, "lambda ladder must be finite positive reals")
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise CliError(EXIT_NUMERIC, "lambda ladder must be strictly decreasing")
    return lams


def _check_max_n(n: int) -> int:
    if not 1 <= n <= MAX_N:
        raise CliError(EXIT_NUMERIC, f"max-n must be between 1 and {MAX_N}, got {n}")
    return n


def _render_expr(e, fmt: str) -> str:
    return (to_latex(e) if fmt == "latex" else to_json_str(e)) + "\n"


def _pairing_entry(pairing, crossings: int, term=None) -> dict:
    return {
        "pairs": [list(p) for p in pairing],
        "crossings": crossings,
        "tag": "crossing" if crossings else "noncrossing",
        **({} if term is None else {"term": term}),
    }


def _pairing_entries(w, annotate: bool) -> list:
    """One entry per pairing; only `annotate` builds the pairing's term."""
    if annotate:
        return [_pairing_entry(at.pairing, at.crossings, at.term)
                for at in annotated_pairing_terms(w)]
    return [_pairing_entry(p, crossing_count(p)) for p in enumerate_pairings(w)]


# ---------------------------------------------------------------------------
# subcommands

def cmd_correlate(args) -> tuple:
    if args.annotate and args.format == "latex":
        raise CliError(EXIT_PARSE, "--annotate writes JSON only, not latex")
    w = _load_word(args.word, args.mode)
    if args.annotate:
        return indented_json({"terms": _pairing_entries(w, True)}) + "\n", 0
    if args.method == "recursion":
        e = correlator_recursive(w)
    else:
        e = correlator_pairing_sum(w)
    return _render_expr(e, args.format), 0


def cmd_limit(args) -> tuple:
    w = _load_word(args.word, args.mode)
    routes = {
        "wick": correlator_wick_limit,
        "rewrite": correlator_limit_rewrite,
        "limit-of-theorem1": lambda v: limit_of_pairing_sum(correlator_pairing_sum(v)),
    }
    e = routes[args.method](w)
    if args.check_all:
        for name, fn in routes.items():
            if name != args.method and not canonically_equal(e, fn(w)):
                raise CliError(
                    EXIT_VERIFY,
                    f"limit routes disagree: {args.method} vs {name}")
        print("all limit routes agree", file=sys.stderr)
    return _render_expr(e, args.format), 0


def cmd_pairings(args) -> tuple:
    w = _load_word(args.word, args.mode)
    out = _pairing_entries(w, args.annotate)
    return indented_json({"count": len(out), "pairings": out}) + "\n", 0


def cmd_verify(args) -> tuple:
    results = run_all(_check_max_n(args.max_n))
    text = report(results)
    return text, 0 if all_passed(results) else EXIT_VERIFY


def _csv_rows(rows) -> list:
    lines = ["lambda,re_value,im_value,re_target,im_target,abs_err"]
    for r in rows:
        values = (r.lam, r.value.real, r.value.imag,
                  r.target.real, r.target.imag, r.abs_err)
        if not all(map(math.isfinite, values)):
            raise CliError(EXIT_NUMERIC,
                           f"out of numeric range: non-finite value at "
                           f"lambda {r.lam!r}")
        lines.append(",".join("%.11e" % v for v in values))
    return lines


def cmd_converge(args) -> tuple:
    data = _load_json(args.assignment)
    try:
        # an overflow becomes inf or an exception here, never a warning
        with np.errstate(all="ignore"):
            return _converge_csv(data, args.lambdas), 0
    except UnassignedLabelError as e:
        raise CliError(EXIT_NUMERIC, str(e)) from None
    except (OverflowError, ZeroDivisionError) as e:
        raise CliError(EXIT_NUMERIC, f"out of numeric range: {e}") from None


def _converge_csv(data, lambdas: str) -> str:
    try:
        assignment = assignment_from_json_dict(data)
    except ValueError as e:
        raise CliError(EXIT_NUMERIC, str(e)) from None
    lams = _parse_lambdas(lambdas)

    x = data.get("vanishing_x", 1.0)
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        raise CliError(EXIT_NUMERIC, "vanishing_x must be a finite number")
    if x == 0:
        raise CliError(
            EXIT_NUMERIC, "vanishing_x = 0: the kernel does not vanish there")

    f = g = h = STANDARD_GAUSSIAN
    lines = ["# study=delta_kernel"]
    target = delta_kernel_target(f, g, h)
    rows = [ConvergenceRow(lam, delta_kernel(f, g, h, lam), target)
            for lam in lams]
    lines.extend(_csv_rows(rows))

    lines.append("# study=vanishing_kernel x=%.11e" % float(x))
    rows = [ConvergenceRow(lam, vanishing_kernel(float(x), f, lam), 0.0)
            for lam in lams]
    lines.extend(_csv_rows(rows))

    tests = {f"t{i}": GaussianTest(0.0, 1.0) for i in range(1, 5)}
    for at in annotated_pairing_terms(word_from_pattern("aa++")):
        tag = "crossing" if at.crossings else "noncrossing"
        term = strip_momentum_deltas(at.term)
        lines.append(f"# study={tag}_4pt")
        if at.crossings:
            osc = [abs(arg_value(ph.arg, assignment))
                   for ph in term.unweighted_phases()]
            flag = "active" if any(v > 1e-12 for v in osc) \
                else "none (zero phase)"
            lines.append(f"# suppression={flag}")
        lines.extend(_csv_rows(term_convergence(term, tests, assignment, lams)))
    return "\n".join(lines) + "\n"


def cmd_render(args) -> tuple:
    data = _load_json(args.expr)
    try:
        e = from_json_dict(data)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliError(EXIT_PARSE, f"{args.expr}: bad expression data: {exc}") from None
    return _render_expr(e, args.format), 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modwick",
        description="Correlators and limits for the deformed field-atom algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_word_flags(p):
        p.add_argument("word", help="word file (JSON)")
        p.add_argument("--mode", choices=("scalar", "polarized"),
                       help="assert the word file's mode")
        p.add_argument("--out", help="write output to this path")

    p = sub.add_parser("correlate", help="finite-coupling correlator")
    add_word_flags(p)
    p.add_argument("--method", choices=("recursion", "theorem1"),
                   default="recursion")
    p.add_argument("--format", choices=("json", "latex"), default="json")
    p.add_argument("--annotate", action="store_true",
                   help="emit per-pairing terms with crossing tags")
    p.set_defaults(fn=cmd_correlate)

    p = sub.add_parser("limit", help="limit correlator")
    add_word_flags(p)
    p.add_argument("--method",
                   choices=("wick", "rewrite", "limit-of-theorem1"),
                   default="wick")
    p.add_argument("--format", choices=("json", "latex"), default="json")
    p.add_argument("--check-all", action="store_true",
                   help="also run the other routes and demand agreement")
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("pairings", help="enumerate pairings of a word")
    add_word_flags(p)
    p.add_argument("--annotate", action="store_true",
                   help="include the closed-form term of each pairing")
    p.set_defaults(fn=cmd_pairings)

    p = sub.add_parser("verify", help="run the cross-method suites")
    p.add_argument("--max-n", type=int, default=4,
                   help=f"pattern length bound 2n (n between 1 and {MAX_N})")
    p.add_argument("--out", help="write report to this path")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("converge", help="numeric convergence ladders (CSV)")
    p.add_argument("assignment", help="assignment file (JSON)")
    p.add_argument("--lambdas", default="1.0,0.4,0.2,0.1,0.05",
                   help="comma-separated strictly decreasing ladder")
    p.add_argument("--out", help="write CSV to this path")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("render", help="re-render a serialized expression")
    p.add_argument("expr", help="expression file (JSON)")
    p.add_argument("--format", choices=("json", "latex"), default="latex")
    p.add_argument("--out", help="write output to this path")
    p.set_defaults(fn=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    if not getattr(args, "out", None):
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
