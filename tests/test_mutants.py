"""Every gate can fail: a matrix of one-line mutants of the formulas under test.

Each row names one formula, a mutant of it and the cheap gate that must
catch it.  A gate is a `verify` suite at n <= 3, an identity of the limit,
a fast path of `scalars` against the general path it stands in for, or a
closed form against an independent quadrature, as in
`tests/test_kernels.py`.  The mutant is installed with monkeypatch where
the caller looks the formula up, so a function imported by name into a
second module is mutated there alone.  A row either replaces the function
outright or edits one snippet of its source, compiled in its own module's
namespace; the snippet must occur exactly once, so a row whose formula
was rewritten fails loudly instead of testing nothing.

The control row runs every gate unpatched and demands that each passes.
Mutation testing after DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import math
import textwrap
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate
from scipy.special import roots_legendre

from modwick import kernels, limits, pairings, scalars, verify, words
from modwick.kernels import Assignment, GaussianTest, STANDARD_GAUSSIAN
from modwick.scalars import (
    EXPR_ZERO, ScalarExpr, ScalarTerm, canonicalize, canonically_equal,
    conjugate, times,
)
from modwick.words import Word, adjoint, correlator_recursive, word_from_pattern

# the constant 1, canonical
EXPR_ONE = canonicalize(ScalarExpr((ScalarTerm(),)))

MAX_N = 3


def _all_words():
    """Every (pattern, mode) word of the n <= MAX_N walk, in its order."""
    return (c.word for c in verify._cases(MAX_N))


# off-center and of unequal widths, so no centre or width cancels
OFF = GaussianTest(0.3, 0.8)
KERNEL_TESTS = (GaussianTest(0.4, 1.0), GaussianTest(0.0, 0.8),
                GaussianTest(0.7, 1.2))


def _rel_err(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def _limit_is_real() -> bool:
    """The weak-coupling limit is a real distribution, even in every delta.

    So the limit of the adjoint word and the limit of the conjugated
    pairing sum both equal the limit of the word.  Adjoint words pair a
    later time label with an earlier one, and conjugation negates every
    phase argument: only the delta sign-fixes make the three agree.
    """
    for pattern in verify.patterns_up_to(2 * MAX_N):
        w = verify._build(pattern, "scalar")
        expect = limits.correlator_wick_limit(w)
        via_adjoint = limits.correlator_wick_limit(adjoint(w))
        via_conjugate = limits.limit_of_pairing_sum(
            conjugate(pairings.correlator_pairing_sum(w)))
        if not (canonically_equal(via_adjoint, expect)
                and canonically_equal(via_conjugate, expect)):
            return False
    return True


def _gauss_fourier_against_quad() -> bool:
    for xi in (1.7, -2.4):
        re, _ = integrate.quad(lambda t: OFF(t) * math.cos(xi * t), *OFF.support())
        im, _ = integrate.quad(lambda t: -OFF(t) * math.sin(xi * t), *OFF.support())
        if abs(kernels.gauss_fourier(OFF, xi) - complex(re, im)) > 1e-10:
            return False
    return True


def _two_point_term_against_grid() -> bool:
    """The a+ term in both readings, closed form against the tensor grid.

    The literal reading transforms each test function alone at a nonzero
    frequency; the contracted one merges the two into a product Gaussian.
    Both run at lambda = 1 and at 0.7: at 1 alone, lambda^2 = lambda and
    a wrong coupling power in either integrator goes unseen.
    """
    (ann,) = pairings.annotated_pairing_terms(word_from_pattern("a+"))
    term = kernels.strip_momentum_deltas(ann.term)
    a = Assignment({"k1": (1.0, 0.0, 0.0)}, (0.0, 0.0, 0.0))
    tests = {"t1": STANDARD_GAUSSIAN, "t2": OFF}
    for lam in (1.0, 0.7):
        value = kernels.term_value(term, tests, a, lam)
        (row,) = kernels.term_convergence(term, tests, a, [lam])
        if not (_rel_err(value, kernels.term_value_quadrature(term, tests, a, lam)) < 1e-9
                and _rel_err(row.value, kernels.term_convergence_quadrature(
                    term, tests, a, lam)) < 1e-9):
            return False
    return True


# (axes, points, integrand) on [-1, 1]^axes: oscillations on (t, s) and
# (t, u), and the crossing aaa+++ structure on (s, v), (t, s) and (t, u);
# each has several factors varying along its first axis, its weights among
# them, and factors on the other axes alone
PAIR_GRIDS = [
    (3, 97, lambda t, s, u: [np.exp(-(t - 0.3) ** 2), np.cos(2.0 * s) + 1.5,
                             np.exp(1.7j * (t - s)), np.exp(0.8j * t * u)]),
    (4, 26, lambda t, s, u, v: [np.exp(-(s - 0.4) ** 2), np.cos(v) + 1.2,
                                np.exp(1.3j * (s - v)), np.exp(-0.9j * (t - s)),
                                np.exp(0.6j * (t + 2.0 * u))]),
]


def _grid_against_direct_sum() -> bool:
    """The tensor grid against one sum over the whole grid.

    The a+ grids of the term gates merge into one factor per axis, so they
    cannot see a factor dropped from the product along the first axis:
    these grids, with several factors varying along it, do.
    """
    for dim, points, integrand in PAIR_GRIDS:
        x, w = roots_legendre(points)
        grid = kernels._tensor_quadrature([(-1.0, 1.0)] * dim, integrand, points)
        direct = np.sum(functools.reduce(
            np.multiply, [*np.ix_(*[w] * dim), *integrand(*np.ix_(*[x] * dim))]))
        if not _rel_err(grid, direct) < 1e-13:
            return False
    return True


def _delta_kernel_against_cubature() -> bool:
    closed = kernels.delta_kernel(*KERNEL_TESTS, 1.0)
    quad = kernels.delta_kernel_quadrature(*KERNEL_TESTS, 1.0)
    return abs(closed - quad) <= 1e-8 * max(1.0, abs(closed))


def _fast_path_against_union_find() -> bool:
    """Disjoint momentum pairs give what the union-find gives.

    Recursion and pairing sum name their representatives through the same
    map, so no suite sees a fast path that picks the larger label.
    """
    for w in _all_words():
        for _, _, _, _, deltas in (
                *words._raw_correlator_terms(w.gens, {}),
                *(pairings.pairing_term(w, p) for p in pairings.enumerate_pairings(w))):
            momentum, _, subst = scalars._canonical_deltas_and_subst(deltas)
            if (sorted(momentum), subst) != scalars._star_normal(list(deltas)):
                return False
    return True


# every gate returns True when it passes; the suites look their routes up
# in `modwick.verify` when they run, and each gets fresh cases
GATES = {
    "closed-form-vs-recursion":
        lambda: verify.suite_closed_form_vs_recursion(verify._cases(MAX_N)).passed(),
    "limit-triple-agreement":
        lambda: verify.suite_limit_triple_agreement(verify._cases(MAX_N)).passed(),
    "catalan-count": lambda: verify.suite_catalan_count(MAX_N, collections.Counter(
        len(c.key[0]) for c in verify._cases(MAX_N)
        if c.key[1] == "scalar" and not c.wick_limit.is_zero())).passed(),
    "noncrossing-uniqueness":
        lambda: verify.suite_noncrossing_uniqueness(verify._cases(MAX_N)).passed(),
    "pairing-existence":
        lambda: verify.suite_pairing_existence(verify._cases(MAX_N)).passed(),
    "block-word-count": lambda: verify.suite_block_word_count(MAX_N, {
        c.key[0]: len(c.pairings) for c in verify._cases(MAX_N)
        if c.key[1] == "scalar"}).passed(),
    "adjoint-symmetry":
        lambda: verify.suite_adjoint_symmetry(verify._cases(MAX_N)).passed(),
    "swap-consistency":
        lambda: verify.suite_swap_consistency(verify._cases(MAX_N)).passed(),
    "limit-is-real": _limit_is_real,
    "gauss-fourier-vs-quad": _gauss_fourier_against_quad,
    "two-point-term-vs-grid": _two_point_term_against_grid,
    "grid-vs-direct-sum": _grid_against_direct_sum,
    "delta-kernel-vs-cubature": _delta_kernel_against_cubature,
    "fast-path-vs-union-find": _fast_path_against_union_find,
}


def _recursion_times_i(w):
    i = ScalarTerm((0, 1))
    return ScalarExpr(tuple(times(t, i) for t in correlator_recursive(w).terms))


def _recursion_blind_to_order(w):
    return correlator_recursive(Word(tuple(sorted(w.gens))))


@dataclass(frozen=True)
class Mutant:
    """Mutate `target` ("module.name" or "module.Class.name" in modwick).

    Either `stub` replaces the function, or `old` is replaced by `new` in
    its source.
    """

    target: str
    gate: str
    old: str = ""
    new: str = ""
    stub: object = None


MUTANTS = [
    # the closed form's two formulas
    Mutant("pairings.enclosing_pairs", "closed-form-vs-recursion",
           stub=lambda pairing, h: []),
    Mutant("pairings.crossing_patterns", "closed-form-vs-recursion",
           stub=lambda pairing: []),
    Mutant("verify.enumerate_pairings", "pairing-existence",
           "c > m and ", ""),
    Mutant("verify.enumerate_pairings", "block-word-count",
           "taken.remove(c)", "pass"),
    # the recursion: the p-shift of the contraction, the swap phases and
    # the vacuum
    Mutant("words.expand_leading_annihilator", "closed-form-vs-recursion",
           "in tail[j + 1:]:", "in ():"),
    Mutant("words.expand_leading_annihilator", "closed-form-vs-recursion",
           "(phase,) + swaps", "(phase,)"),
    Mutant("words.expand_leading_annihilator", "closed-form-vs-recursion",
           "((d, c),)", "((d, -c),)"),
    Mutant("words._raw_correlator_terms", "closed-form-vs-recursion",
           "not gens[-1][0]", "gens[-1][0]"),
    # the pairability rule refusing every word with an annihilator
    Mutant("words._pairable", "closed-form-vs-recursion", "d < 0", "d < 1"),
    # the three limit routes
    Mutant("limits.contraction_arg", "limit-triple-agreement",
           "for dagger, _, other_k, _ in right:", "for dagger, _, other_k, _ in ():"),
    Mutant("limits._limit_term", "limit-triple-agreement",
           "if merged_exponent(residual):", "if False:"),
    Mutant("limits._limit_term", "limit-triple-agreement",
           "two_pi_power + len(weighted)", "two_pi_power"),
    Mutant("verify.correlator_wick_limit", "limit-triple-agreement",
           "for c in stack:", "for c in ():"),
    Mutant("verify.correlator_wick_limit", "limit-triple-agreement",
           "y_pol = stack.pop()", "y_pol = stack.pop(0)"),
    Mutant("verify.noncrossing_match", "noncrossing-uniqueness",
           "stack.pop()", "stack.pop(0)"),
    # canonical forms
    Mutant("limits.time_delta", "limit-is-real",
           "if time[0][1] < 0 else", "if False else"),
    Mutant("limits.phase_delta", "limit-is-real",
           "if arg[0][1] < 0 else", "if False else"),
    Mutant("scalars._PhaseMemo.rename", "swap-consistency",
           "negated(time), negated(arg)", "negated(time), arg"),
    # the disjoint-pair fast path naming the larger label of each pair
    Mutant("scalars._canonical_deltas_and_subst", "fast-path-vs-union-find",
           "{b: a for _, a, b in momentum}", "{a: b for _, a, b in momentum}"),
    # canonicalize's per-call memo: a phase renamed without its labels'
    # representatives in the key reuses another term's renaming
    Mutant("scalars._PhaseMemo.rename", "closed-form-vs-recursion",
           "tuple(map(subst.get, labels, labels))", "tuple(labels)"),
    # the smeared-kernel closed forms
    Mutant("kernels._gauss_product", "two-point-term-vs-grid",
           "amp = math.exp(-0.5 * (sq - center ** 2 * inv_var))", "amp = 1.0"),
    Mutant("kernels._gauss_product", "two-point-term-vs-grid",
           "center = width ** 2 * sum(", "center = sum("),
    Mutant("kernels._closed_integral", "two-point-term-vs-grid",
           "freq[v] / lam ** 2", "freq[v] / lam"),
    Mutant("kernels.gauss_fourier", "gauss-fourier-vs-quad",
           "-math.sin(f.center * xi)", "math.sin(f.center * xi)"),
    Mutant("kernels.delta_kernel", "delta-kernel-vs-cubature",
           "complex(lam ** 2 * d / var, -h.center)",
           "complex(lam ** 2 * d / var, h.center)"),
    # the oracle itself, so the gate is shown to see damage on either side
    Mutant("kernels.delta_kernel_quadrature", "delta-kernel-vs-cubature",
           "- 1j * h.center * tau", "+ 1j * h.center * tau"),
    Mutant("kernels.delta_kernel_quadrature", "delta-kernel-vs-cubature",
           "f.support()", "(f.center - 3 * f.width, f.center + 3 * f.width)"),
    Mutant("kernels._tensor_quadrature", "two-point-term-vs-grid",
           "np.einsum(subscripts, tail, first)",
           "np.einsum(subscripts, np.ones_like(tail), first)"),
    Mutant("kernels._tensor_quadrature", "grid-vs-direct-sum",
           "merged[key] * factor if key in merged else factor", "factor"),
    Mutant("kernels._tensor_quadrature", "grid-vs-direct-sum",
           "first = first * factor", "first = factor"),
    # the grid's oscillation, one factor per time variable: its coupling
    # power and its coefficient
    Mutant("kernels._grid_integral", "two-point-term-vs-grid",
           "/ lam ** 2", "/ lam"),
    Mutant("kernels._grid_integral", "two-point-term-vs-grid",
           "(c * ts[index[t]])", "ts[index[t]]"),
    # the routes as the verify suites call them
    Mutant("verify.correlator_pairing_sum", "closed-form-vs-recursion",
           stub=lambda w: EXPR_ZERO),
    Mutant("verify.correlator_wick_limit", "catalan-count",
           stub=lambda w: EXPR_ONE),
    Mutant("verify.correlator_limit_rewrite", "limit-triple-agreement",
           stub=lambda w: EXPR_ONE),
    Mutant("verify.correlator_recursive", "adjoint-symmetry",
           stub=_recursion_times_i),
    Mutant("verify.correlator_recursive", "swap-consistency",
           stub=_recursion_blind_to_order),
]


def _owner(target: str):
    """The module or class holding the target, and the target's name."""
    path, name = target.rsplit(".", 1)
    module, *cls = path.split(".")
    owner = importlib.import_module(f"modwick.{module}")
    for c in cls:
        owner = getattr(owner, c)
    return owner, name


def _source_mutant(fn, old: str, new: str):
    """`fn` with `old` replaced by `new` in its source, in fn's module namespace."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, f"{fn.__qualname__} holds {old!r} {src.count(old)} times"
    namespace: dict = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"),
         fn.__globals__, namespace)
    return namespace[fn.__name__]


def _install(monkeypatch, m: Mutant) -> None:
    owner, name = _owner(m.target)
    mutant = m.stub or _source_mutant(getattr(owner, name), m.old, m.new)
    monkeypatch.setattr(owner, name, mutant)


def test_every_gate_passes_unpatched():
    assert {m.gate for m in MUTANTS} == set(GATES)
    failing = [name for name, gate in GATES.items() if not gate()]
    assert failing == []


@pytest.mark.parametrize(
    "m", MUTANTS, ids=[f"{m.target}[{(m.old or m.stub.__name__).strip()}]" for m in MUTANTS])
def test_the_gate_catches_the_mutant(monkeypatch, m):
    _install(monkeypatch, m)
    assert not GATES[m.gate](), f"{m.gate} passed with {m.target} mutated"
