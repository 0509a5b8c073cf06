"""Cross-method verification suites.

The four equivalence suites compute one object by routes that share no
formula and demand canonical equality.  The other four check counts
against closed formulas (catalan count, block-word count), a stack scan
against a filter (noncrossing uniqueness) and pairings against bracket
balance (pairing existence).  The suites enumerate every
creator/annihilator pattern up to a length bound, in scalar mode and in
two polarized modes (uniform polarizations, which must reproduce the
scalar structure, and cycling polarizations, which leave each route
fewer contractions to form).

All iteration orders are fixed, so the text report is byte-identical
across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from .limits import (
    correlator_limit_rewrite, correlator_wick_limit, limit_of_pairing_sum,
    noncrossing_match,
)
from .pairings import correlator_pairing_sum, crossing_count, enumerate_pairings
from .scalars import (
    Dot, ScalarExpr, ScalarTerm, canonically_equal, comb, multiply,
    conjugate, oscillation,
)
from .serialize import to_json_dict
from .words import Word, adjoint, correlator_recursive, word_from_pattern


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list

    def passed(self) -> bool:
        return not self.failures


def patterns_up_to(max_len: int):
    """Every creator/annihilator pattern of length 1..max_len.

    Bit i of the mask decides character i, most significant bit first,
    so the order is total and reproducible.
    """
    for length in range(1, max_len + 1):
        for mask in range(1 << length):
            yield "".join(
                "+" if (mask >> (length - 1 - i)) & 1 else "a"
                for i in range(length)
            )


MODES = ("scalar", "uniform", "cyclic")


def _build(pattern: str, mode: str) -> Word:
    if mode == "scalar":
        return word_from_pattern(pattern)
    if mode == "uniform":
        return word_from_pattern(pattern, pols=[1] * len(pattern))
    if mode == "cyclic":
        return word_from_pattern(pattern, pols=[i % 3 + 1 for i in range(len(pattern))])
    raise ValueError(f"unknown mode {mode!r}")


def _dump(e: ScalarExpr) -> str:
    return json.dumps(to_json_dict(e), separators=(",", ":"))


def _mismatch(pattern: str, mode: str, left_name: str, left: ScalarExpr,
              right_name: str, right: ScalarExpr) -> str:
    return (f"pattern={pattern} mode={mode}: {left_name} != {right_name}\n"
            f"  {left_name}: {_dump(left)}\n"
            f"  {right_name}: {_dump(right)}")


def _run(name: str, cases, check) -> SuiteResult:
    """Count the cases; each message `check` returns for one is a failure."""
    messages = [check(case) for case in cases]
    return SuiteResult(name, len(messages), [m for m in messages if m])


class _Case:
    """A (pattern, mode) word and the route values its suites share, each computed once."""

    def __init__(self, key: tuple, word: Word):
        self.key, self.word = key, word

    @cached_property
    def recursion(self) -> ScalarExpr:
        return correlator_recursive(self.word)

    @cached_property
    def closed_form(self) -> ScalarExpr:
        return correlator_pairing_sum(self.word)

    @cached_property
    def wick_limit(self) -> ScalarExpr:
        return correlator_wick_limit(self.word)

    @cached_property
    def pairings(self) -> list:
        return enumerate_pairings(self.word)


def _cases(max_n: int):
    """A case for every (pattern, mode) up to length 2 * max_n, patterns
    outermost; each word is built when the walk reaches it."""
    return (_Case((p, mode), _build(p, mode))
            for p in patterns_up_to(2 * max_n) for mode in MODES)


def _chain(*routes):
    """A check that each (label, route) canonically equals the one before: a
    case fails on the first link that differs, reported by `_mismatch`."""
    def check(case):
        prev_label = prev = None
        for label, route in routes:
            value = route(case)
            if prev_label is not None and not canonically_equal(prev, value):
                return _mismatch(*case.key, prev_label, prev, label, value)
            prev_label, prev = label, value

    return check


# built once; a route looks its functions up here when a case runs
_CLOSED_FORM_VS_RECURSION = _chain(("recursion", lambda c: c.recursion),
                                   ("closed-form", lambda c: c.closed_form))
_LIMIT_TRIPLE = _chain(("mapped-limit", lambda c: limit_of_pairing_sum(c.closed_form)),
                       ("direct-wick", lambda c: c.wick_limit),
                       ("rewrite", lambda c: correlator_limit_rewrite(c.word)))
_ADJOINT_SYMMETRY = _chain(
    ("adjoint", lambda c: correlator_recursive(adjoint(c.word))),
    ("conjugate", lambda c: conjugate(c.recursion)))
_SWAP_CONSISTENCY = _chain(("direct", lambda c: c.recursion),
                           ("swapped*factor", lambda c: _swapped_times_factor(c)))


def suite_closed_form_vs_recursion(cases) -> SuiteResult:
    """The pairing-sum closed form must reproduce the rewrite recursion."""
    return _run("closed-form-vs-recursion", cases, _CLOSED_FORM_VS_RECURSION)


def suite_limit_triple_agreement(cases) -> SuiteResult:
    """Three independent limit routes must coincide on every pattern."""
    return _run("limit-triple-agreement", cases, _LIMIT_TRIPLE)


CATALAN = (1, 2, 5, 14, 42, 132)


def suite_catalan_count(max_n: int, live: dict) -> SuiteResult:
    """`live` maps a length to the number of scalar patterns of that length
    with nonzero limit; length 2n must give the n-th Catalan number."""
    def check(n):
        got, expect = live.get(2 * n, 0), CATALAN[n - 1]
        if got != expect:
            return f"n={n}: {got} patterns with nonzero limit, expected {expect}"

    return _run("catalan-count", range(1, max_n + 1), check)


def suite_noncrossing_uniqueness(cases) -> SuiteResult:
    """Each scalar pattern admits at most one crossing-free pairing.

    The stack-scan match must agree with brute-force filtering, and a
    pairing set is nonempty exactly when a crossing-free pairing exists.
    """
    def check(case):
        pattern, all_pairings = case.key[0], case.pairings
        flat = [p for p in all_pairings if crossing_count(p) == 0]
        match = noncrossing_match(case.word)
        if len(flat) > 1:
            return f"pattern={pattern}: {len(flat)} crossing-free pairings"
        if bool(all_pairings) != bool(flat):
            return (f"pattern={pattern}: {len(all_pairings)} pairings but "
                    f"{len(flat)} crossing-free")
        if (match is not None) != bool(flat):
            return f"pattern={pattern}: stack scan disagrees with filter"
        if flat and match != flat[0]:
            return f"pattern={pattern}: stack scan {match}, filter {flat[0]}"

    return _run("noncrossing-uniqueness", (c for c in cases if c.key[1] == "scalar"),
                check)


def _bracket_balanced(w: Word) -> bool:
    # reversed reading: creators open, annihilators close
    depth = 0
    for dagger, _, _, _ in reversed(w.gens):
        depth += 1 if dagger else -1
        if depth < 0:
            return False
    return depth == 0


def suite_pairing_existence(cases) -> SuiteResult:
    """Pairings exist exactly for bracket-balanced reversed scalar words."""
    def check(case):
        has = bool(case.pairings)
        ok = _bracket_balanced(case.word)
        if has != ok:
            return (f"pattern={case.key[0]}: pairings={'yes' if has else 'no'} "
                    f"balanced={'yes' if ok else 'no'}")

    return _run("pairing-existence", (c for c in cases if c.key[1] == "scalar"), check)


def suite_block_word_count(max_n: int, counts: dict) -> SuiteResult:
    """The all-annihilators-then-all-creators word has n! pairings; `counts`
    maps each scalar pattern to the number of pairings enumerated for it."""
    def check(n):
        got = counts["a" * n + "+" * n]
        if got != math.factorial(n):
            return f"n={n}: {got} pairings, expected {math.factorial(n)}"

    return _run("block-word-count", range(1, max_n + 1), check)


def suite_adjoint_symmetry(cases) -> SuiteResult:
    """Vacuum expectation of the adjoint word = complex conjugate (scalar, cyclic)."""
    return _run("adjoint-symmetry", (c for c in cases if c.key[1] != "uniform"),
                _ADJOINT_SYMMETRY)


def _swapped_times_factor(c: _Case) -> ScalarExpr:
    """q^-1 times the correlator of the case's word with its first "aa" swapped."""
    site, gens = c.key[0].index("aa"), c.word.gens
    x, y = gens[site:site + 2]
    (_, x_t, x_k, _), (_, y_t, y_k, _) = x, y
    phase = oscillation(x_t, y_t, comb({Dot(x_k, y_k): 1}), power=-1)
    factor = ScalarExpr((ScalarTerm(phases=(phase,)),))
    swapped = Word(gens[:site] + (y, x) + gens[site + 2:])
    return multiply(factor, correlator_recursive(swapped))


def suite_swap_consistency(cases) -> SuiteResult:
    """Swapping adjacent annihilators costs exactly one inverse oscillation.

    The state is only well defined on the quotient by the exchange
    relation, so the correlator of a word and of its first-adjacent-swap
    must differ by the explicit scalar factor and nothing else.
    """
    cases = (c for c in cases if c.key[1] == "scalar" and "aa" in c.key[0])
    return _run("swap-consistency", cases, _SWAP_CONSISTENCY)


MAX_N = 6  # largest size bound run_all accepts; the smallest is 1


def run_all(max_n: int) -> list:
    """All suites at the given size bound, in fixed order.

    One walk of the words serves every suite.  Each word is built when the
    walk reaches it, and its case goes to each case suite in turn, so its
    routes are computed once and dropped with it before the next word.
    The walk keeps only ints for the two count suites: per length, the
    scalar patterns with nonzero Wick limit, and per scalar pattern, its
    number of pairings.
    """
    if not 1 <= max_n <= MAX_N:
        raise ValueError(f"max_n must be between 1 and {MAX_N}")
    suites = (suite_closed_form_vs_recursion, suite_limit_triple_agreement,
              suite_noncrossing_uniqueness, suite_pairing_existence,
              suite_adjoint_symmetry, suite_swap_consistency)
    # a suite's total starts as its run on no case, then adds each word's run
    totals = [s(()) for s in suites]
    live, counts = {}, {}
    for case in _cases(max_n):
        for total, r in zip(totals, [s((case,)) for s in suites]):
            total.cases += r.cases
            total.failures += r.failures
        pattern, mode = case.key
        if mode == "scalar":
            counts[pattern] = len(case.pairings)
            if not case.wick_limit.is_zero():
                live[len(pattern)] = live.get(len(pattern), 0) + 1
    closed_form, limit_triple, noncrossing, existence, adjoint_symmetry, swap = totals
    return [closed_form, limit_triple, suite_catalan_count(max_n, live),
            noncrossing, existence, suite_block_word_count(max_n, counts),
            adjoint_symmetry, swap]


def report(results) -> str:
    """Deterministic plain-text summary, failures spelled out in full."""
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok" if r.passed() else f"FAIL ({len(r.failures)})"
        lines.append(f"suite {r.name:<{width}}  cases={r.cases:<5d} {status}")
    for r in results:
        for f in r.failures:
            lines.append(f"FAILURE [{r.name}] {f}")
    total = sum(r.cases for r in results)
    bad = sum(len(r.failures) for r in results)
    verdict = "pass" if bad == 0 else f"fail ({bad} failures)"
    lines.append(f"RESULT {verdict}: {len(results)} suites, {total} cases")
    return "\n".join(lines) + "\n"


def all_passed(results) -> bool:
    return all(r.passed() for r in results)
