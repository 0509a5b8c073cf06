"""Numeric layer: Gaussian closed forms, kernel ladders, smeared terms.

Every closed form is checked against an independent quadrature route,
and the headline ladder values are frozen as literals so a regression
in any layer shows up as a number, not just a relative drift.
"""

from __future__ import annotations

import functools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate
from scipy.special import roots_legendre

import modwick
from modwick import kernels
from modwick.kernels import (
    Assignment, GaussianTest, QuadratureError, STANDARD_GAUSSIAN,
    UnassignedLabelError, arg_value, assignment_from_json_dict, delta_kernel,
    delta_kernel_quadrature, delta_kernel_target, fit_loglog_slope,
    gauss_fourier, overlap, phase_value, strip_momentum_deltas,
    term_convergence, term_convergence_quadrature, term_value,
    term_value_quadrature, vanishing_kernel,
)
from modwick.pairings import annotated_pairing_terms
from modwick.scalars import (
    Dot, Energy, PDot, ScalarTerm, comb, momentum_delta, time_delta,
    time_difference,
)
from modwick.words import word_from_pattern

STD = STANDARD_GAUSSIAN
TWO_PI = 2.0 * math.pi


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# assignments

def test_assignment_basics():
    a = Assignment({"k1": (1.0, 0.0, 0.0), "k2": (1.0, 1.0, 0.0)},
                   (0.0, 0.5, 0.0))
    assert np.allclose(a.vector("k1"), [1.0, 0.0, 0.0])
    with pytest.raises(UnassignedLabelError):
        a.vector("k9")
    with pytest.raises(ValueError):
        Assignment({"k1": (1.0, 0.0)}, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        assignment_from_json_dict({"momenta": {}})
    with pytest.raises(ValueError):
        assignment_from_json_dict({"momenta": [], "p": [0, 0, 0]})


def test_phase_values():
    a = Assignment({"k1": (1.0, 1.0, 0.0), "k2": (0.0, 2.0, 0.0)},
                   (0.0, 1.0, 0.0))
    # default dispersion |k|, shifted by |k|^2 / 2
    assert phase_value(Energy("k1"), a) == pytest.approx(math.sqrt(2.0) + 1.0)
    assert phase_value(Dot("k1", "k2"), a) == pytest.approx(2.0)
    assert phase_value(PDot("k2"), a) == pytest.approx(2.0)
    arg = comb({Energy("k1"): 1, PDot("k2"): -2})
    assert arg_value(arg, a) == pytest.approx(math.sqrt(2.0) + 1.0 - 4.0)


def test_custom_dispersion():
    a = Assignment({"k1": (2.0, 0.0, 0.0)}, (0.0, 0.0, 0.0),
                   dispersion=lambda k: float(k @ k))
    assert phase_value(Energy("k1"), a) == pytest.approx(4.0 + 2.0)


# ---------------------------------------------------------------------------
# Gaussian closed forms against adaptive quadrature

def test_gaussian_test_shape():
    f = GaussianTest(0.3, 0.8)
    assert f(0.3) == pytest.approx(1.0)
    lo, hi = f.support()
    assert lo < 0.3 < hi
    with pytest.raises(ValueError):
        GaussianTest(0.0, 0.0)


@pytest.mark.parametrize("center, width", [
    (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
    (0.0, math.inf), (0.0, math.nan), (0.0, -1.0)])
def test_gaussian_test_rejects_a_non_finite_center_or_width(center, width):
    # every evaluator used to return nan or raise ZeroDivisionError or
    # "math domain error" on such a test function
    with pytest.raises(ValueError, match="finite center and a positive finite"):
        GaussianTest(center, width)


@pytest.mark.parametrize("xi", [0.0, 1.7, -2.4])
def test_gauss_fourier_against_quadrature(xi):
    f = GaussianTest(0.3, 0.8)
    re, _ = integrate.quad(lambda t: f(t) * math.cos(xi * t), *f.support())
    im, _ = integrate.quad(lambda t: -f(t) * math.sin(xi * t), *f.support())
    assert abs(gauss_fourier(f, xi) - complex(re, im)) < 1e-10


def test_overlap_against_quadrature():
    f, g = GaussianTest(0.4, 1.0), GaussianTest(-0.2, 0.7)
    for s in (0.0, 0.9):
        direct, _ = integrate.quad(lambda t: f(t) * g(t - s), -12.0, 12.0)
        assert abs(overlap(f, g, s) - direct) < 1e-10


def test_vanishing_kernel_decays():
    f = GaussianTest(0.0, 1.0)
    lams = [1.0, 0.5, 0.25]
    vals = [abs(vanishing_kernel(2.0, f, lam)) for lam in lams]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-100  # super-polynomial decay
    with pytest.raises(ValueError):
        vanishing_kernel(0.0, f, 1.0)
    with pytest.raises(ValueError):
        vanishing_kernel(1.0, f, -1.0)


# ---------------------------------------------------------------------------
# the triply smeared kernel

def test_delta_kernel_frozen_values():
    assert delta_kernel(STD, STD, STD, 1.0).real \
        == pytest.approx(9.093041541794445, rel=1e-12)
    assert delta_kernel(STD, STD, STD, 0.5).real \
        == pytest.approx(10.966620726271618, rel=1e-12)
    assert delta_kernel_target(STD, STD, STD).real \
        == pytest.approx(2.0 * math.pi ** 1.5, rel=1e-12)


@pytest.mark.parametrize("lam", [1.0, 0.5])
def test_delta_kernel_against_quadrature(lam):
    configs = [
        (STD, STD, STD),
        (GaussianTest(0.4, 1.0), GaussianTest(0.0, 0.8), GaussianTest(0.7, 1.2)),
    ]
    for f, g, h in configs:
        closed = delta_kernel(f, g, h, lam)
        quad = delta_kernel_quadrature(f, g, h, lam)
        assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed))


def test_delta_kernel_quadrature_sweep():
    # the benchmark's ranges, then a small coupling and a wide off-centre h;
    # the bar is the benchmark's, relative to the kernel at lambda = 1
    rng = random.Random(17)
    draw = lambda: GaussianTest(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.2))
    configs = [(draw(), draw(), draw(), rng.uniform(0.5, 1.0)) for _ in range(10)]
    configs.append((draw(), draw(), draw(), 0.3))
    configs.append((draw(), draw(), GaussianTest(0.9, 1.6), rng.uniform(0.5, 1.0)))
    for f, g, h, lam in configs:
        scale = abs(delta_kernel(f, g, h, 1.0))
        assert abs(delta_kernel(f, g, h, lam)
                   - delta_kernel_quadrature(f, g, h, lam)) <= 1e-9 * scale, (f, g, h, lam)


def test_delta_kernel_quadrature_on_far_apart_tests():
    # where g's support shifted by lambda^2 tau reaches furthest past f's:
    # centres 3 and 5 apart, one narrow and one wide test, an off-centre h
    h = GaussianTest(0.9, 1.3)
    for c in (1.5, -2.5):
        for fw, gw in ((0.5, 2.0), (2.0, 0.5)):
            f, g = GaussianTest(c, fw), GaussianTest(-c, gw)
            scale = abs(delta_kernel(f, g, h, 1.0))
            for lam in (0.2, 0.5, 1.0):
                assert abs(delta_kernel(f, g, h, lam) - delta_kernel_quadrature(
                    f, g, h, lam)) <= 1e-9 * scale, (f, g, lam)


def test_delta_kernel_quadrature_integrates_t_over_f_support(monkeypatch):
    f, g, h = GaussianTest(1.5, 0.5), GaussianTest(-1.5, 2.0), GaussianTest(0.9, 1.3)
    plain = delta_kernel_quadrature(f, g, h, 0.7)
    boxes = []

    def recorder(fn, a, b, **kwargs):
        boxes.append((list(a), list(b)))
        return cubature(fn, a, b, **kwargs)

    cubature = integrate.cubature
    monkeypatch.setattr(integrate, "cubature", recorder)
    assert delta_kernel_quadrature(f, g, h, 0.7) == plain
    f_lo, f_hi = f.support()
    assert boxes == [([-8.0 / h.width, f_lo], [8.0 / h.width, f_hi])]


def test_delta_kernel_quadrature_borrows_no_closed_form(monkeypatch):
    f, g, h = GaussianTest(0.4, 1.0), GaussianTest(-0.3, 0.8), GaussianTest(0.7, 1.2)
    closed = delta_kernel(f, g, h, 0.6)

    def forbidden(*args):
        raise AssertionError("the oracle called a closed form")

    for name in ("delta_kernel", "gauss_fourier", "overlap", "_gauss_product"):
        monkeypatch.setattr(kernels, name, forbidden)
    assert abs(delta_kernel_quadrature(f, g, h, 0.6) - closed) <= 1e-9


@pytest.mark.parametrize("status, estimate, error", [
    ("not_converged", [9.0, 0.1], [1e-11, 1e-11]),
    ("converged", [9.0, 0.1], [1e-11, 1e-5]),
    ("converged", [math.nan, 0.1], [1e-11, 1e-11]),
])
def test_delta_kernel_quadrature_rejects_an_unconverged_result(
        monkeypatch, status, estimate, error):
    result = SimpleNamespace(status=status, estimate=np.array(estimate),
                             error=np.array(error))
    monkeypatch.setattr(integrate, "cubature", lambda *a, **k: result)
    with pytest.raises(QuadratureError) as info:
        delta_kernel_quadrature(STD, STD, STD, 1.0)
    message = str(info.value)
    assert status in message and "\n" not in message


def test_delta_kernel_error_ladder():
    target = delta_kernel_target(STD, STD, STD)
    lams = [0.4, 0.2, 0.1, 0.05]
    errs = [abs(delta_kernel(STD, STD, STD, lam) - target) for lam in lams]
    assert errs[0] > errs[1] > errs[2] > errs[3]
    rel = errs[2] / abs(target)
    assert rel == pytest.approx(2.4999062538947195e-05, rel=1e-9)
    assert rel <= 0.05


def test_symmetric_configuration_error_is_quartic():
    """With coinciding centers the quadratic error term cancels.

    The exact closed form is J(lam) = 2 pi^{3/2} / sqrt(1 + lam^4 / 2),
    so the error is Theta(lam^4); the fitted slope sits at 4, not 2.
    The quadratic term carries a factor h_center * (f_center - g_center)
    and needs an asymmetric configuration to show up.
    """
    lams = [0.4, 0.2, 0.1, 0.05]
    target = delta_kernel_target(STD, STD, STD)
    for lam in lams:
        exact = 2.0 * math.pi ** 1.5 / math.sqrt(1.0 + lam ** 4 / 2.0)
        assert delta_kernel(STD, STD, STD, lam).real \
            == pytest.approx(exact, rel=1e-12)
    errs = [abs(delta_kernel(STD, STD, STD, lam) - target) for lam in lams]
    assert fit_loglog_slope(lams, errs) \
        == pytest.approx(3.9957891117590023, rel=1e-9)


def test_off_center_configuration_error_is_quadratic():
    f, g, h = GaussianTest(0.4, 1.0), GaussianTest(0.0, 1.0), GaussianTest(0.7, 1.0)
    target = delta_kernel_target(f, g, h)
    lams = [0.4, 0.2, 0.1, 0.05]
    errs = [abs(delta_kernel(f, g, h, lam) - target) for lam in lams]
    slope = fit_loglog_slope(lams, errs)
    assert slope == pytest.approx(1.997172456403579, rel=1e-9)
    assert 1.7 <= slope <= 2.3


def test_quadratic_error_term_carries_the_center_asymmetry():
    """Series of the delta_kernel closed form in lambda, done by sympy.

    The expression is checked against the code first, so the expansion
    is one of delta_kernel itself.  Its lambda^2 coefficient is
    c0 * (-i) h_center (f_center - g_center) / ((w_f^2 + w_g^2) w_h^2):
    zero whenever h is centered or f and g share a center, which is why
    the all-centered gate 5 configuration converges at rate lambda^4.
    """
    sp = pytest.importorskip("sympy")
    mu, wf, wg, wh = sp.symbols("mu w_f w_g w_h", positive=True)  # mu = lambda^2
    cf, cg, ch = sp.symbols("c_f c_g c_h", real=True)
    var = wf ** 2 + wg ** 2
    d = cf - cg
    quad = (wh ** 2 + mu ** 2 / var) / 2
    lin = mu * d / var - sp.I * ch
    closed = (2 * sp.pi * wh * wf * wg / sp.sqrt(var) * sp.sqrt(sp.pi / quad)
              * sp.exp(lin ** 2 / (4 * quad) - d ** 2 / (2 * var)))

    numeric = sp.lambdify((mu, cf, wf, cg, wg, ch, wh), closed, "mpmath")
    for f, g, h in ((GaussianTest(0.4, 1.0), GaussianTest(0.0, 1.0),
                     GaussianTest(0.7, 1.0)),
                    (GaussianTest(-0.3, 0.8), GaussianTest(0.5, 1.3),
                     GaussianTest(-1.1, 0.6))):
        for lam in (0.1, 0.5, 1.0, 1.7):
            expect = complex(numeric(lam ** 2, f.center, f.width, g.center,
                                     g.width, h.center, h.width))
            assert rel_err(delta_kernel(f, g, h, lam), expect) <= 1e-12

    # a function of lambda^2: the lambda^2 coefficient is d/dmu at mu = 0
    c0 = closed.subs(mu, 0)
    c2 = sp.diff(closed, mu).subs(mu, 0)
    assert sp.simplify(c2.subs(ch, 0)) == 0
    assert sp.simplify(c2.subs(cf, cg)) == 0
    ratio = sp.simplify(c2 / (c0 * ch * d))
    assert sp.simplify(ratio + sp.I / (var * wh ** 2)) == 0
    # the limit itself: c0 = 2 pi h(0) * integral of f g
    point = {cf: 0.4, cg: 0.0, ch: 0.7, wf: 1.0, wg: 1.0, wh: 1.0}
    target = delta_kernel_target(GaussianTest(0.4, 1.0), GaussianTest(0.0, 1.0),
                                 GaussianTest(0.7, 1.0))
    assert rel_err(complex(c0.subs(point).evalf()), target) <= 1e-12


def test_fit_loglog_slope_on_synthetic_data():
    lams = [0.8, 0.4, 0.2, 0.1]
    errs = [2.5 * lam ** 3 for lam in lams]
    assert fit_loglog_slope(lams, errs) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("lams, errs, message", [
    ([0.5, 0.25], [0.1, 0.0], "every error must be finite and positive"),
    ([0.5, 0.25], [0.1, -0.02], "every error must be finite and positive"),
    ([0.5, 0.25], [0.1, math.nan], "every error must be finite and positive"),
    ([0.5, 0.0], [0.1, 0.02], "every lambda must be finite and positive"),
    ([0.5, math.inf], [0.1, 0.02], "every lambda must be finite and positive"),
    ([0.5, 0.5], [0.1, 0.02], "at least two distinct lambdas"),
    ([0.5], [0.1], "at least two distinct lambdas"),
])
def test_fit_loglog_slope_rejects_what_has_no_slope(lams, errs, message):
    # each used to give nan, a meaningless slope or a bare LinAlgError
    with pytest.raises(ValueError, match=message):
        fit_loglog_slope(lams, errs)


# ---------------------------------------------------------------------------
# smeared correlator terms

def two_point_term_and_assignment():
    (ann,) = annotated_pairing_terms(word_from_pattern("a+"))
    term = strip_momentum_deltas(ann.term)
    a = Assignment({"k1": (1.0, 0.0, 0.0)}, (0.0, 0.0, 0.0))
    return term, a


def test_strip_momentum_deltas_only_touches_momenta():
    term = ScalarTerm(deltas=(
        momentum_delta("k1", "k2"),
        time_delta(time_difference("t1", "t2"))))
    assert strip_momentum_deltas(term) \
        == ScalarTerm(deltas=(time_delta(time_difference("t1", "t2")),))


def test_term_value_two_point_closed_form():
    # omega_tilde = |k| + |k|^2/2 = 3/2 at k = (1,0,0), p = 0; the two
    # transforms give 2 pi exp(-(3/2)^2) = 2 pi exp(-9/4) at lam = 1
    term, a = two_point_term_and_assignment()
    tests = {"t1": STD, "t2": STD}
    v = term_value(term, tests, a, 1.0)
    assert v == pytest.approx(TWO_PI * math.exp(-2.25), rel=1e-12)
    assert v.imag == pytest.approx(0.0, abs=1e-15)


def test_term_value_validation():
    term, a = two_point_term_and_assignment()
    with pytest.raises(UnassignedLabelError):
        term_value(term, {"t1": STD}, a, 1.0)
    with pytest.raises(UnassignedLabelError):
        term_value(term, {"t1": STD, "t2": STD},
                   Assignment({}, (0.0, 0.0, 0.0)), 1.0)
    with pytest.raises(ValueError):
        term_value(term, {"t1": STD, "t2": STD}, a, 0.0)
    (ann,) = annotated_pairing_terms(word_from_pattern("a+"))
    with pytest.raises(ValueError):
        term_value(ann.term, {"t1": STD, "t2": STD}, a, 1.0)  # deltas left


@pytest.mark.parametrize("lam", [1.0, 0.7])
def test_term_value_two_point_against_grid(lam):
    term, a = two_point_term_and_assignment()
    tests = {"t1": STD, "t2": STD}
    closed = term_value(term, tests, a, lam)
    grid = term_value_quadrature(term, tests, a, lam)
    assert rel_err(closed, grid) < 1e-10


def test_term_value_grid_with_a_cancelled_time_combination():
    # t1 - t1 cancels, so its oscillation is a constant, a 0-d grid factor
    term = ScalarTerm(phases=(
        (time_difference("t1", "t1"), comb({Energy("k1"): 1}), False),
        (time_difference("t1", "t2"), comb({Dot("k1", "k1"): 1}), False)))
    a = Assignment({"k1": (0.6, 0.0, 0.0)}, (0.0, 0.0, 0.0))
    tests = {"t1": STD, "t2": GaussianTest(0.3, 0.8)}
    for lam in (1.0, 0.7):
        closed = term_value(term, tests, a, lam)
        assert rel_err(closed, term_value_quadrature(term, tests, a, lam)) <= 1e-9


def test_term_convergence_grid_on_one_variable():
    # the a+ term's one weighted phase pins t1 and t2 together: a 1-D grid
    term, a = two_point_term_and_assignment()
    tests = {"t1": STD, "t2": GaussianTest(0.3, 0.8)}
    for lam in (1.0, 0.5):
        (row,) = term_convergence(term, tests, a, [lam])
        grid = term_convergence_quadrature(term, tests, a, lam)
        assert rel_err(row.value, grid) <= 1e-9


def test_grid_oracles_on_a_term_without_time_variables():
    # the bare term 1, the empty word's correlator, used to raise IndexError
    a = Assignment({}, (0.0, 0.0, 0.0))
    assert term_value_quadrature(ScalarTerm(), {}, a, 1.0) \
        == term_value(ScalarTerm(), {}, a, 1.0) == 1.0
    assert term_convergence_quadrature(ScalarTerm(), {}, a, 0.5) == 1.0


def test_grid_oracles_borrow_no_closed_form(monkeypatch, study_setup):
    terms, tests, a = study_setup
    tests = {**tests, "t2": GaussianTest(0.3, 0.8), "t3": GaussianTest(-0.2, 1.1)}
    two_point, a2 = two_point_term_and_assignment()
    two_tests = {"t1": STD, "t2": GaussianTest(0.3, 0.8)}
    value = term_value(two_point, two_tests, a2, 0.8)
    rows = term_convergence(terms["crossing"], tests, a, [1.0, 0.6])

    def forbidden(*args):
        raise AssertionError("the oracle called a closed form")

    for name in ("_gauss_product", "gauss_fourier", "overlap", "_closed_integral"):
        monkeypatch.setattr(kernels, name, forbidden)
    assert rel_err(value, term_value_quadrature(two_point, two_tests, a2, 0.8)) <= 1e-9
    for row in rows:
        grid = term_convergence_quadrature(terms["crossing"], tests, a, row.lam)
        assert rel_err(row.value, grid) <= 1e-9, row.lam


def _crossing_aaa():
    """The five crossing aaa+++ terms, six test functions and an assignment."""
    terms = [strip_momentum_deltas(ann.term)
             for ann in annotated_pairing_terms(word_from_pattern("aaa+++"))
             if ann.crossings]
    a = Assignment({f"k{i}": (0.3 * i, -0.2, 0.1 * i) for i in range(1, 7)},
                   (0.1, 0.0, -0.2))
    tests = {f"t{i}": GaussianTest(0.1 * i - 0.3, 0.9 + 0.05 * i)
             for i in range(1, 7)}
    return terms, tests, a


def test_term_oracles_hand_the_grid_one_axis_per_factor(monkeypatch):
    # each oscillation enters as one factor per time variable, so no factor
    # of the crossing aaa+++ grids spans two axes
    terms, tests, a = _crossing_aaa()
    quadrature, factors = kernels._tensor_quadrature, []

    def recording_quadrature(bounds, integrand, points):
        def recorded(*axes):
            out = integrand(*axes)
            factors.extend(out)
            return out
        return quadrature(bounds, recorded, points)

    monkeypatch.setattr(kernels, "_tensor_quadrature", recording_quadrature)
    for term in terms:
        term_value_quadrature(term, tests, a, 0.8, points=4)
        term_convergence_quadrature(term, tests, a, 0.8, points=6)
    assert len(terms) == 5 and any(np.iscomplexobj(f) for f in factors)
    assert max(sum(n > 1 for n in np.shape(f)) for f in factors) == 1


# the literal reading has six axes, the contracted one three: at 8 and at 96
# points each grid holds 2**18 nodes or more, and one einsum sums them all
@pytest.mark.parametrize("quadrature, points", [
    (term_value_quadrature, 8), (term_convergence_quadrature, 96)])
def test_tensor_quadrature_sums_each_term_grid_in_one_einsum(
        monkeypatch, quadrature, points):
    terms, tests, a = _crossing_aaa()
    grid, einsum, calls = kernels._tensor_quadrature, np.einsum, []

    def counting_einsum(*args, **kwargs):
        calls[-1] += 1
        return einsum(*args, **kwargs)

    def checked_grid(bounds, integrand, points):
        calls.append(0)
        value = grid(bounds, integrand, points)
        assert rel_err(value, _direct_grid_sum(bounds, integrand, points)) <= 1e-13
        return value

    monkeypatch.setattr(np, "einsum", counting_einsum)
    monkeypatch.setattr(kernels, "_tensor_quadrature", checked_grid)
    for term in terms:
        quadrature(term, tests, a, 0.8, points=points)
    assert calls == [1] * len(terms)


def test_term_value_four_point_against_grid(study_setup):
    terms, tests, a = study_setup
    for tag in ("crossing", "noncrossing"):
        closed = term_value(terms[tag], tests, a, 1.0)
        grid = term_value_quadrature(terms[tag], tests, a, 1.0)
        assert rel_err(closed, grid) < 1e-9, tag
        # at smaller lam both routes agree the value is numerically gone
        assert abs(term_value(terms[tag], tests, a, 0.7)) < 1e-20


def test_term_convergence_noncrossing_is_constant(study_setup):
    terms, tests, a = study_setup
    rows = term_convergence(terms["noncrossing"], tests, a, [1.0, 0.5, 0.1])
    assert rows[0].target.real == pytest.approx(4.0 * math.pi ** 3, rel=1e-12)
    for row in rows:
        assert row.value == rows[0].target
        assert row.abs_err == 0.0


def test_term_convergence_crossing_decays(study_setup):
    """The crossing factor survives as exp(-c^2 / (2 lam^4)) with c = k1.k2."""
    terms, tests, a = study_setup
    rows = term_convergence(terms["crossing"], tests, a, [1.0, 0.5, 0.1])
    assert rows[0].target == 0.0
    assert rows[0].value.real \
        == pytest.approx(4.0 * math.pi ** 3 * math.exp(-0.5), rel=1e-12)
    assert rows[1].value.real \
        == pytest.approx(4.0 * math.pi ** 3 * math.exp(-8.0), rel=1e-12)
    assert abs(rows[2].value) < 1e-300


def test_term_convergence_against_grid(study_setup):
    terms, tests, a = study_setup
    for tag in ("crossing", "noncrossing"):
        for lam in (1.0, 0.5):
            rows = term_convergence(terms[tag], tests, a, [lam])
            grid = term_convergence_quadrature(terms[tag], tests, a, lam)
            err = abs(rows[0].value - grid)
            assert err <= 1e-10 * max(1.0, abs(rows[0].value)), (tag, lam)


def test_term_convergence_validation(study_setup):
    terms, tests, a = study_setup
    term = terms["noncrossing"]
    with pytest.raises(ValueError):
        term_convergence(term, tests, a, [1.0, -0.5])
    short = {k: v for k, v in tests.items() if k != "t4"}
    with pytest.raises(UnassignedLabelError):
        term_convergence(term, short, a, [1.0])
    with pytest.raises(UnassignedLabelError):
        term_convergence(term, tests, Assignment({}, (0.0, 0.0, 0.0)), [1.0])
    bad_weight = ScalarTerm(
        phases=((time_difference("t1", "t2"), comb({Energy("k1"): 1}), True),))
    with pytest.raises(ValueError):
        term_convergence(bad_weight, {"t1": STD, "t2": STD}, a, [1.0])
    # a term with deltas left: the grid companion smeared it anyway
    (ann,) = annotated_pairing_terms(word_from_pattern("a+"))
    with pytest.raises(ValueError, match="delta factors"):
        term_convergence(ann.term, {"t1": STD, "t2": STD}, a, [1.0])
    with pytest.raises(ValueError, match="delta factors"):
        term_convergence_quadrature(ann.term, {"t1": STD, "t2": STD}, a, 1.0)


TERM_EVALUATORS = {
    "term_convergence":
        lambda term, t, a, lam: term_convergence(term, t, a, [lam]),
    "term_value": term_value,
    "term_convergence_quadrature": lambda term, t, a, lam:
        term_convergence_quadrature(term, t, a, lam, points=8),
    "term_value_quadrature": lambda term, t, a, lam:
        term_value_quadrature(term, t, a, lam, points=8),
}


def test_every_term_evaluator_rejects_unassigned_labels(study_setup):
    # the grid oracles used to drop t4's Gaussian or fail on a bare KeyError
    terms, tests, a = study_setup
    term = terms["crossing"]
    short = {k: v for k, v in tests.items() if k != "t4"}
    for evaluate in TERM_EVALUATORS.values():
        with pytest.raises(UnassignedLabelError,
                           match="time label 't4' has no test function"):
            evaluate(term, short, a, 1.0)
        with pytest.raises(UnassignedLabelError, match="momentum label"):
            evaluate(term, tests, Assignment({}, (0.0, 0.0, 0.0)), 1.0)


@pytest.mark.parametrize("name", TERM_EVALUATORS)
@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_every_term_evaluator_rejects_a_nonpositive_lambda(lam, name):
    # the grid oracles used to return the lambda = 1 value at lambda = -1
    # and nan or a ZeroDivisionError at lambda = 0
    term, a = two_point_term_and_assignment()
    with pytest.raises(ValueError, match="lambda must be positive"):
        TERM_EVALUATORS[name](term, {"t1": STD, "t2": STD}, a, lam)


def test_orthogonal_momenta_turn_off_the_crossing_suppression():
    # k1.k2 = 0 makes the crossing oscillation exponent vanish, so the
    # crossing term converges to the same nonzero backbone instead
    terms = {}
    for ann in annotated_pairing_terms(word_from_pattern("aa++")):
        tag = "crossing" if ann.crossings else "noncrossing"
        terms[tag] = strip_momentum_deltas(ann.term)
    a = Assignment({"k1": (1.0, 0.0, 0.0), "k2": (0.0, 1.0, 0.0)},
                   (0.0, 0.0, 0.0))
    tests = {f"t{i}": STD for i in range(1, 5)}
    rows = term_convergence(terms["crossing"], tests, a, [1.0, 0.1])
    assert rows[0].target.real == pytest.approx(4.0 * math.pi ** 3, rel=1e-12)
    assert rows[0].abs_err == 0.0 and rows[1].abs_err == 0.0


# ---------------------------------------------------------------------------
# the tensor grid against a direct sum over the whole grid

def _direct_grid_sum(bounds, integrand, points):
    """Every factor broadcast to the full grid, multiplied, summed at once."""
    x, w = roots_legendre(points)
    dim = len(bounds)
    axes, weights = [], []
    for i, (lo, hi) in enumerate(bounds):
        shape = (1,) * i + (-1,) + (1,) * (dim - 1 - i)
        axes.append((0.5 * (lo + hi) + 0.5 * (hi - lo) * x).reshape(shape))
        weights.append((0.5 * (hi - lo) * w).reshape(shape))
    full = np.broadcast_arrays(*weights, *integrand(*axes))
    return complex(np.sum(functools.reduce(np.multiply, full, 1.0)))


# each factor spans the axes it depends on, of length 1 on the rest, and
# may span several: a term's grid has one axis per factor, these need not
GRID_CASES = {
    "no axes": ([], lambda: [2.5, 1.0 - 0.5j]),
    "one axis": ([(-1.0, 2.0)], lambda t: [np.exp(-t * t), np.exp(1.3j * t), 0.5]),
    "two real axes": ([(-1.0, 1.5), (0.0, 2.0)], lambda t, s: [
        np.cos(s), np.exp(-(t - 0.7 * s) ** 2), -2.0]),
    "three axes": ([(-0.5, 1.0), (-2.0, 0.0), (0.3, 1.2)], lambda t, s, u: [
        np.exp(-(s - u) ** 2), np.exp(0.9j * (t + u)), np.sin(t) + 2.0, 1j]),
    "four axes": ([(-1.0, 1.0), (0.0, 1.0), (-0.5, 0.5), (1.0, 2.0)],
                  lambda t, s, u, v: [
                      np.exp(-s * s - v), np.exp(1j * (t - s + u - v)),
                      np.cos(u * t), 0.3 + 0.1j]),
    # a test function per axis and oscillations over pairs of axes, some
    # varying along the first axis and some not
    "oscillations on (t,s) and (t,u)": ([(-2.0, 1.5), (-1.0, 2.5), (-3.0, 1.0)],
                                        lambda t, s, u: [
        np.exp(-(t - 0.2) ** 2), np.cos(s) + 1.5, np.exp(-u * u),
        np.exp(1.1j * (t - s)), np.exp(0.7j * (t + u))]),
    "oscillation on (t,s) only": ([(-2.0, 1.5), (-1.0, 2.5), (-3.0, 1.0)],
                                  lambda t, s, u: [
        np.exp(-t * t), np.exp(-(s - 0.5) ** 2), np.sin(u) + 2.0,
        np.exp(1.3j * (t + 2.0 * s))]),
    "oscillations on every pair": ([(-2.0, 1.5), (-1.0, 2.5), (-3.0, 1.0)],
                                   lambda t, s, u: [
        np.exp(-t * t), np.exp(-s * s), np.exp(-(u + 1.0) ** 2),
        np.exp(0.9j * (t - s)), np.exp(-0.6j * (t - u)), np.exp(1.2j * (s + u))]),
    # two factors on the pair (t,s) and two on u alone, merged before the sum
    "same-axis factors": ([(-2.0, 1.5), (-1.0, 2.5), (-3.0, 1.0)],
                          lambda t, s, u: [
        np.exp(1.1j * (t - s)), np.cos(t + 0.5 * s) + 1.5, np.exp(-u * u),
        np.sin(u) + 2.0, np.exp(-t * t), np.exp(0.7j * u)]),
    # the crossing aaa+++ grid, (b,d), (b,c) and (a,c), with a and c swapped
    "four axes crossing": ([(-1.0, 1.0), (0.0, 2.0), (-1.5, 0.5), (-0.5, 1.5)],
                           lambda t, s, u, v: [
        np.exp(-t * t), np.exp(-(s - 1.0) ** 2), np.exp(-u * u), np.cos(v),
        np.exp(1.4j * (s - v)), np.exp(-0.8j * (t - s)), np.exp(0.5j * (t + u))]),
}


@pytest.mark.parametrize("points", [5, 6, 7])
@pytest.mark.parametrize("case", GRID_CASES)
def test_tensor_quadrature_against_a_direct_sum(case, points):
    bounds, integrand = GRID_CASES[case]
    direct = _direct_grid_sum(bounds, integrand, points)
    assert rel_err(kernels._tensor_quadrature(bounds, integrand, points),
                   direct) <= 1e-13


def test_legendre_rule_is_built_once_and_read_only():
    rule = kernels._legendre_rule(7)
    assert kernels._legendre_rule(7) is rule
    for arr in rule:
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_the_package_exports_each_kernel_name_lazily():
    # `delta_kernel_quadrature` raises QuadratureError, so the package
    # must name it too
    assert "QuadratureError" in modwick._KERNEL_NAMES
    for name in sorted(modwick._KERNEL_NAMES):
        assert getattr(modwick, name) is getattr(kernels, name), name
    with pytest.raises(AttributeError, match="no attribute 'Quadrature'"):
        modwick.Quadrature
