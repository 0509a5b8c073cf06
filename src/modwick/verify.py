"""Cross-method verification suites.

Every suite runs the same idea from a different angle: compute one
object by two routes that share no code path and demand canonical
equality.  The suites enumerate every creator/annihilator pattern up to
a length bound, in scalar mode and in two polarized modes (uniform
polarizations, which must reproduce the scalar structure, and cycling
polarizations, which leave each route fewer contractions to form).

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


def _keys(max_n: int, modes=MODES):
    """Every (pattern, mode) of this size bound, patterns outermost."""
    for pattern in patterns_up_to(2 * max_n):
        for mode in modes:
            yield pattern, mode


def _build(pattern: str, mode: str) -> Word:
    if mode == "scalar":
        return word_from_pattern(pattern)
    if mode == "uniform":
        return word_from_pattern(pattern, pols=[1] * len(pattern))
    if mode == "cyclic":
        return word_from_pattern(pattern, pols=[i % 3 + 1 for i in range(len(pattern))])
    raise ValueError(f"unknown mode {mode!r}")


def _words(max_n: int) -> dict:
    """Every (pattern, mode) word a suite of this size bound reads."""
    return {key: _build(*key) for key in _keys(max_n)}


def _dump(e: ScalarExpr) -> str:
    return json.dumps(to_json_dict(e), separators=(",", ":"))


def _mismatch(pattern: str, mode: str, left_name: str, left: ScalarExpr,
              right_name: str, right: ScalarExpr) -> str:
    return (f"pattern={pattern} mode={mode}: {left_name} != {right_name}\n"
            f"  {left_name}: {_dump(left)}\n"
            f"  {right_name}: {_dump(right)}")


def _run(name: str, cases, check) -> SuiteResult:
    """Count the cases; each message `check` returns for one is a failure."""
    count = 0
    failures = []
    for case in cases:
        count += 1
        message = check(case)
        if message:
            failures.append(message)
    return SuiteResult(name, count, failures)


def _agree(name: str, cases, words: dict, routes) -> SuiteResult:
    """Each (label, route) of the chain must canonically equal the one before.

    A case fails on the first link that differs, reported by `_mismatch`.
    """
    def check(key):
        w = words[key]
        prev_label = prev = None
        for label, route in routes:
            value = route(w)
            if prev_label is not None and not canonically_equal(prev, value):
                return _mismatch(*key, prev_label, prev, label, value)
            prev_label, prev = label, value

    return _run(name, cases, check)


def suite_closed_form_vs_recursion(max_n: int, words: dict,
                                   memo: dict) -> SuiteResult:
    """The pairing-sum closed form must reproduce the rewrite recursion."""
    routes = (("recursion", lambda w: correlator_recursive(w, memo)),
              ("closed-form", correlator_pairing_sum))
    return _agree("closed-form-vs-recursion", _keys(max_n), words, routes)


def suite_limit_triple_agreement(max_n: int, words: dict) -> SuiteResult:
    """Three independent limit routes must coincide on every pattern."""
    routes = (
        ("mapped-limit", lambda w: limit_of_pairing_sum(correlator_pairing_sum(w))),
        ("direct-wick", correlator_wick_limit),
        ("rewrite", correlator_limit_rewrite),
    )
    return _agree("limit-triple-agreement", _keys(max_n), words, routes)


CATALAN = (1, 2, 5, 14, 42, 132)


def suite_catalan_count(max_n: int, words: dict) -> SuiteResult:
    """Counts of patterns with nonzero limit, against the Catalan numbers."""
    def check(n):
        live = [p for p in patterns_up_to(2 * n) if len(p) == 2 * n
                and not correlator_wick_limit(words[p, "scalar"]).is_zero()]
        expect = CATALAN[n - 1]
        if len(live) != expect:
            return f"n={n}: {len(live)} patterns with nonzero limit, expected {expect}"

    return _run("catalan-count", range(1, max_n + 1), check)


def suite_noncrossing_uniqueness(max_n: int, words: dict) -> SuiteResult:
    """Each pattern admits at most one crossing-free pairing.

    The stack-scan match must agree with brute-force filtering, and a
    pairing set is nonempty exactly when a crossing-free pairing exists.
    """
    def check(pattern):
        w = words[pattern, "scalar"]
        all_pairings = enumerate_pairings(w)
        flat = [p for p in all_pairings if crossing_count(p) == 0]
        match = noncrossing_match(w)
        if len(flat) > 1:
            return f"pattern={pattern}: {len(flat)} crossing-free pairings"
        if bool(all_pairings) != bool(flat):
            return (f"pattern={pattern}: {len(all_pairings)} pairings but "
                    f"{len(flat)} crossing-free")
        if (match is not None) != bool(flat):
            return f"pattern={pattern}: stack scan disagrees with filter"
        if flat and match != flat[0]:
            return f"pattern={pattern}: stack scan {match}, filter {flat[0]}"

    return _run("noncrossing-uniqueness", patterns_up_to(2 * max_n), check)


def _bracket_balanced(w: Word) -> bool:
    # reversed reading: creators open, annihilators close
    depth = 0
    for g in reversed(w.gens):
        depth += 1 if g.dagger else -1
        if depth < 0:
            return False
    return depth == 0


def suite_pairing_existence(max_n: int, words: dict) -> SuiteResult:
    """Pairings exist exactly for bracket-balanced reversed words."""
    def check(pattern):
        w = words[pattern, "scalar"]
        has = bool(enumerate_pairings(w))
        ok = _bracket_balanced(w)
        if has != ok:
            return (f"pattern={pattern}: pairings={'yes' if has else 'no'} "
                    f"balanced={'yes' if ok else 'no'}")

    return _run("pairing-existence", patterns_up_to(2 * max_n), check)


def suite_block_word_count(max_n: int, words: dict) -> SuiteResult:
    """The all-annihilators-then-all-creators word has n! pairings."""
    def check(n):
        got = len(enumerate_pairings(words["a" * n + "+" * n, "scalar"]))
        if got != math.factorial(n):
            return f"n={n}: {got} pairings, expected {math.factorial(n)}"

    return _run("block-word-count", range(1, max_n + 1), check)


def suite_adjoint_symmetry(max_n: int, words: dict, memo: dict) -> SuiteResult:
    """Vacuum expectation of the adjoint word = complex conjugate."""
    routes = (("adjoint", lambda w: correlator_recursive(adjoint(w), memo)),
              ("conjugate", lambda w: conjugate(correlator_recursive(w, memo))))
    return _agree("adjoint-symmetry", _keys(max_n, ("scalar", "cyclic")),
                  words, routes)


def _swapped_times_factor(w: Word, memo: dict) -> ScalarExpr:
    """q^-1 times the correlator of `w` with its first adjacent annihilators swapped."""
    site = next(i for i in range(len(w.gens) - 1)
                if not (w.gens[i].dagger or w.gens[i + 1].dagger))
    gens = list(w.gens)
    x, y = gens[site], gens[site + 1]
    gens[site], gens[site + 1] = y, x
    phase = oscillation(x.t, y.t, comb({Dot(x.k, y.k): 1}), power=-1)
    factor = ScalarExpr((ScalarTerm(phases=(phase,)),))
    return multiply(factor, correlator_recursive(Word(tuple(gens)), memo))


def suite_swap_consistency(max_n: int, words: dict, memo: dict) -> SuiteResult:
    """Swapping adjacent annihilators costs exactly one inverse oscillation.

    The state is only well defined on the quotient by the exchange
    relation, so the correlator of a word and of its first-adjacent-swap
    must differ by the explicit scalar factor and nothing else.
    """
    routes = (("direct", lambda w: correlator_recursive(w, memo)),
              ("swapped*factor", lambda w: _swapped_times_factor(w, memo)))
    cases = (key for key in _keys(max_n, ("scalar",)) if "aa" in key[0])
    return _agree("swap-consistency", cases, words, routes)


MAX_N = 6  # largest size bound run_all accepts; the smallest is 1


def run_all(max_n: int) -> list:
    """All suites at the given size bound, in fixed order.

    The suites share one word table and one sub-word memo for every
    recursion of the run; the closed form and the limit routes never see
    the memo.
    """
    if not 1 <= max_n <= MAX_N:
        raise ValueError(f"max_n must be between 1 and {MAX_N}")
    memo: dict = {}
    words = _words(max_n)
    return [
        suite_closed_form_vs_recursion(max_n, words, memo),
        suite_limit_triple_agreement(max_n, words),
        suite_catalan_count(max_n, words),
        suite_noncrossing_uniqueness(max_n, words),
        suite_pairing_existence(max_n, words),
        suite_block_word_count(max_n, words),
        suite_adjoint_symmetry(max_n, words, memo),
        suite_swap_consistency(max_n, words, memo),
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
