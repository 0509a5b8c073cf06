"""Cross-method verification suites.

Every suite runs the same idea from a different angle: compute one
object by two routes that share no code path and demand canonical
equality.  The suites enumerate every creator/annihilator pattern up to
a length bound, in scalar mode and in two polarized modes (uniform
polarizations, which must reproduce the scalar structure, and cycling
polarizations, which exercise the mismatch-kill paths).

All iteration orders are fixed, so the text report is byte-identical
across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .limits import (
    correlator_limit_rewrite, correlator_wick_limit, limit_of_pairing_sum,
    noncrossing_match,
)
from .pairings import correlator_pairing_sum, crossing_count, enumerate_pairings
from .scalars import (
    Dot, PhaseArg, ScalarExpr, ScalarTerm, canonically_equal, multiply,
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


def suite_closed_form_vs_recursion(max_n: int, recursive=None,
                                   closed=None) -> SuiteResult:
    """The pairing-sum closed form must reproduce the rewrite recursion."""
    recursive = recursive or correlator_recursive
    closed = closed or correlator_pairing_sum
    cases = 0
    failures = []
    for pattern in patterns_up_to(2 * max_n):
        for mode in MODES:
            cases += 1
            w = _build(pattern, mode)
            a = recursive(w)
            b = closed(w)
            if not canonically_equal(a, b):
                failures.append(_mismatch(pattern, mode, "recursion", a,
                                          "closed-form", b))
    return SuiteResult("closed-form-vs-recursion", cases, failures)


def suite_limit_triple_agreement(max_n: int, closed=None, limit_map=None,
                                 wick=None, rewrite=None) -> SuiteResult:
    """Three independent limit routes must coincide on every pattern."""
    closed = closed or correlator_pairing_sum
    limit_map = limit_map or limit_of_pairing_sum
    wick = wick or correlator_wick_limit
    rewrite = rewrite or correlator_limit_rewrite
    cases = 0
    failures = []
    for pattern in patterns_up_to(2 * max_n):
        for mode in MODES:
            cases += 1
            w = _build(pattern, mode)
            a = limit_map(closed(w))
            b = wick(w)
            c = rewrite(w)
            if not canonically_equal(a, b):
                failures.append(_mismatch(pattern, mode, "mapped-limit", a,
                                          "direct-wick", b))
            elif not canonically_equal(b, c):
                failures.append(_mismatch(pattern, mode, "direct-wick", b,
                                          "rewrite", c))
    return SuiteResult("limit-triple-agreement", cases, failures)


CATALAN = (1, 2, 5, 14, 42, 132)


def suite_catalan_count(max_n: int, wick=None) -> SuiteResult:
    """Counts of patterns with nonzero limit, against the Catalan numbers."""
    wick = wick or correlator_wick_limit
    cases = 0
    failures = []
    for n in range(1, max_n + 1):
        cases += 1
        live = [p for p in patterns_up_to(2 * n)
                if len(p) == 2 * n and not wick(_build(p, "scalar")).is_zero()]
        expect = CATALAN[n - 1]
        if len(live) != expect:
            failures.append(
                f"n={n}: {len(live)} patterns with nonzero limit, expected {expect}")
    return SuiteResult("catalan-count", cases, failures)


def suite_noncrossing_uniqueness(max_n: int) -> SuiteResult:
    """Each pattern admits at most one crossing-free pairing.

    The stack-scan match must agree with brute-force filtering, and a
    pairing set is nonempty exactly when a crossing-free pairing exists.
    """
    cases = 0
    failures = []
    for pattern in patterns_up_to(2 * max_n):
        cases += 1
        w = _build(pattern, "scalar")
        all_pairings = enumerate_pairings(w)
        flat = [p for p in all_pairings if crossing_count(p) == 0]
        match = noncrossing_match(w)
        if len(flat) > 1:
            failures.append(f"pattern={pattern}: {len(flat)} crossing-free pairings")
        elif bool(all_pairings) != bool(flat):
            failures.append(
                f"pattern={pattern}: {len(all_pairings)} pairings but "
                f"{len(flat)} crossing-free")
        elif (match is not None) != bool(flat):
            failures.append(f"pattern={pattern}: stack scan disagrees with filter")
        elif flat and match.pairs != flat[0].pairs:
            failures.append(
                f"pattern={pattern}: stack scan {match.pairs}, filter {flat[0].pairs}")
    return SuiteResult("noncrossing-uniqueness", cases, failures)


def _bracket_balanced(w: Word) -> bool:
    # reversed reading: creators open, annihilators close
    depth = 0
    for g in reversed(w.gens):
        depth += 1 if g.dagger else -1
        if depth < 0:
            return False
    return depth == 0


def suite_pairing_existence(max_n: int) -> SuiteResult:
    """Pairings exist exactly for bracket-balanced reversed words."""
    cases = 0
    failures = []
    for pattern in patterns_up_to(2 * max_n):
        cases += 1
        w = _build(pattern, "scalar")
        has = bool(enumerate_pairings(w))
        ok = _bracket_balanced(w)
        if has != ok:
            failures.append(
                f"pattern={pattern}: pairings={'yes' if has else 'no'} "
                f"balanced={'yes' if ok else 'no'}")
    return SuiteResult("pairing-existence", cases, failures)


def suite_block_word_count(max_n: int) -> SuiteResult:
    """The all-annihilators-then-all-creators word has n! pairings."""
    cases = 0
    failures = []
    for n in range(1, max_n + 1):
        cases += 1
        w = _build("a" * n + "+" * n, "scalar")
        got = len(enumerate_pairings(w))
        if got != math.factorial(n):
            failures.append(f"n={n}: {got} pairings, expected {math.factorial(n)}")
    return SuiteResult("block-word-count", cases, failures)


def suite_adjoint_symmetry(max_n: int, recursive=None) -> SuiteResult:
    """Vacuum expectation of the adjoint word = complex conjugate."""
    recursive = recursive or correlator_recursive
    cases = 0
    failures = []
    for pattern in patterns_up_to(2 * max_n):
        for mode in ("scalar", "cyclic"):
            cases += 1
            w = _build(pattern, mode)
            a = recursive(adjoint(w))
            b = conjugate(recursive(w))
            if not canonically_equal(a, b):
                failures.append(_mismatch(pattern, mode, "adjoint", a,
                                          "conjugate", b))
    return SuiteResult("adjoint-symmetry", cases, failures)


def suite_swap_consistency(max_n: int, recursive=None) -> SuiteResult:
    """Swapping adjacent annihilators costs exactly one inverse oscillation.

    The state is only well defined on the quotient by the exchange
    relation, so the correlator of a word and of its first-adjacent-swap
    must differ by the explicit scalar factor and nothing else.
    """
    recursive = recursive or correlator_recursive
    cases = 0
    failures = []
    for pattern in patterns_up_to(2 * max_n):
        site = pattern.find("aa")
        if site < 0:
            continue
        cases += 1
        w = _build(pattern, "scalar")
        gens = list(w.gens)
        x, y = gens[site], gens[site + 1]
        gens[site], gens[site + 1] = y, x
        swapped = Word(tuple(gens))
        arg = PhaseArg.of({Dot(x.k, y.k): 1})
        factor = ScalarExpr((ScalarTerm(
            phases=(oscillation(x.t, y.t, arg, power=-1),)
        ),))
        left = recursive(w)
        right = multiply(factor, recursive(swapped))
        if not canonically_equal(left, right):
            failures.append(_mismatch(pattern, "scalar", "direct", left,
                                      "swapped*factor", right))
    return SuiteResult("swap-consistency", cases, failures)


MAX_N = 6  # largest size bound run_all accepts; the smallest is 1


def run_all(max_n: int) -> list:
    """All suites at the given size bound, in fixed order."""
    if not 1 <= max_n <= MAX_N:
        raise ValueError(f"max_n must be between 1 and {MAX_N}")
    # one sub-word memo for every recursion of this run; the closed form
    # and the limit routes never see it
    memo: dict = {}

    def recursive(w: Word) -> ScalarExpr:
        return correlator_recursive(w, memo)

    return [
        suite_closed_form_vs_recursion(max_n, recursive=recursive),
        suite_limit_triple_agreement(max_n),
        suite_catalan_count(max_n),
        suite_noncrossing_uniqueness(max_n),
        suite_pairing_existence(max_n),
        suite_block_word_count(max_n),
        suite_adjoint_symmetry(max_n, recursive=recursive),
        suite_swap_consistency(max_n, recursive=recursive),
    ]


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
