"""Top-level acceptance gates, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Criterion 5's
slope gate is expected to fail: with every Gaussian centered at zero
the quadratic error term cancels identically and the measured decay is
quartic.  See test_kernels for the closed form and for an off-center
configuration that does decay quadratically.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import pytest

import modwick
from modwick.kernels import (
    STANDARD_GAUSSIAN, delta_kernel, delta_kernel_target, fit_loglog_slope,
    term_convergence,
)
from modwick.limits import (
    correlator_limit_rewrite, correlator_wick_limit, noncrossing_match,
)
from modwick.pairings import crossing_count, enumerate_pairings
from modwick.scalars import PHASE, Dot, Energy, PDot, comb
from modwick.verify import (
    CATALAN, suite_closed_form_vs_recursion, suite_limit_triple_agreement,
    _cases,
)
from modwick.words import word_from_pattern


def test_criterion_1_pairing_sum_matches_recursion_for_all_short_words():
    t0 = time.perf_counter()
    res = suite_closed_form_vs_recursion(_cases(4))
    elapsed = time.perf_counter() - t0
    assert res.cases == 1530  # 510 patterns of length <= 8, three modes
    assert res.passed(), res.failures[:3]
    assert elapsed < 60.0


def test_criterion_2_three_limit_routes_agree_for_all_short_words():
    t0 = time.perf_counter()
    res = suite_limit_triple_agreement(_cases(4))
    elapsed = time.perf_counter() - t0
    assert res.cases == 1530
    assert res.passed(), res.failures[:3]
    assert elapsed < 60.0


def test_criterion_3_catalan_counts_and_noncrossing_uniqueness():
    t0 = time.perf_counter()
    for n in range(1, 7):
        live = 0
        for bits in range(2 ** (2 * n)):
            pattern = "".join(
                "+" if bits >> i & 1 else "a" for i in range(2 * n))
            w = word_from_pattern(pattern)
            if correlator_wick_limit(w).is_zero():
                continue
            live += 1
            flat = [p for p in enumerate_pairings(w) if crossing_count(p) == 0]
            assert flat == [noncrossing_match(w)], pattern
        assert live == CATALAN[n - 1], (n, live)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_4_straddle_phase_shifts_are_exact():
    def frequency_args(e):
        ((_, _, _, _, deltas),) = e.terms
        return {d[1] for d in deltas if d[0] == PHASE}

    nested_inner = comb(
        {Energy("k2"): 1, PDot("k2"): 1, Dot("k1", "k2"): 1})
    w4 = word_from_pattern("aa++")
    assert nested_inner in frequency_args(correlator_wick_limit(w4))
    assert nested_inner in frequency_args(correlator_limit_rewrite(w4))

    shift_2 = comb({Energy("k2"): 1, PDot("k2"): 1, Dot("k1", "k2"): 1})
    shift_3 = comb({Energy("k3"): 1, PDot("k3"): 1,
                    Dot("k1", "k3"): 1, Dot("k2", "k3"): 1})
    w6 = word_from_pattern("aaa+++")
    for route in (correlator_wick_limit, correlator_limit_rewrite):
        args = frequency_args(route(w6))
        assert shift_2 in args
        assert shift_3 in args


def test_criterion_5_kernel_convergence_ladder_and_slope():
    t0 = time.perf_counter()
    f = g = h = STANDARD_GAUSSIAN
    target = delta_kernel_target(f, g, h)
    lams = [0.4, 0.2, 0.1, 0.05]
    errs = [abs(delta_kernel(f, g, h, lam) - target) for lam in lams]

    assert errs[0] > errs[1] > errs[2] > errs[3]
    rel_at_01 = errs[2] / abs(target)
    assert rel_at_01 <= 0.05
    assert time.perf_counter() - t0 < 30.0

    slope = fit_loglog_slope(lams, errs)
    assert 1.7 <= slope <= 2.3, (
        "measured log-log slope %.6f: centered Gaussians cancel the "
        "quadratic error term, leaving quartic decay" % slope)


def test_criterion_6_crossing_term_is_suppressed_noncrossing_survives(
        study_setup):
    t0 = time.perf_counter()
    terms, tests, assignment = study_setup
    lams = [1.0, 0.4, 0.2, 0.1]

    crossing = term_convergence(terms["crossing"], tests, assignment, lams)
    assert abs(crossing[-1].value) <= 0.1 * abs(crossing[0].value)

    noncrossing = term_convergence(
        terms["noncrossing"], tests, assignment, lams)
    mags = [abs(r.value) for r in noncrossing]
    assert max(mags) - min(mags) <= 0.5 * max(mags)
    limit = noncrossing[-1].target
    assert abs(limit) > 0.0
    assert limit.real == pytest.approx(4.0 * math.pi ** 3, rel=1e-12)
    assert abs(noncrossing[-1].value - limit) <= 0.5 * abs(limit)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_7_cli_outputs_are_byte_identical_across_runs(tmp_path):
    assignment = tmp_path / "assignment.json"
    assignment.write_text(
        '{"momenta": {"k1": [1.0, 0.0, 0.0], "k2": [1.0, 1.0, 0.0]},'
        ' "p": [0.0, 0.0, 0.0]}\n', encoding="utf-8")

    src = os.path.dirname(os.path.dirname(modwick.__file__))

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "modwick.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            check=True)
        return proc.stdout

    verify_runs = {run(["verify", "--max-n", "2"]) for _ in range(2)}
    assert len(verify_runs) == 1
    converge_runs = {run(["converge", str(assignment)]) for _ in range(2)}
    assert len(converge_runs) == 1
