"""Numeric checks of the singular limit with Gaussian smearing.

Everything here is built on one fact: the Fourier transform of a
Gaussian is known in closed form, so smearing the oscillation
exp(-i t x / lambda^2) against Gaussian test functions never requires
oscillatory quadrature.  The two model statements

    q(t, x)                -> 0           (x fixed, nonzero),
    (1/lambda^2) q(t, x)   -> 2 pi delta(t) delta(x),

become concrete decay and convergence claims about smeared integrals,
and symbolic correlator terms are evaluated on a ladder of coupling
values to exhibit the suppression of crossing contributions.

Quadrature policy: adaptive integration only ever meets non-oscillatory
(or mildly oscillatory) integrands, absolute tolerance 1e-10, each variable
cut at eight standard deviations of the test functions that are its factors;
so the delta-kernel cubature's t spans f's support alone, as past it the
integrand is below e^-32 whatever g does.  Brute-force tensor-grid
quadrature is kept around as an independent oracle for the closed forms:
one einsum sums every node's full product over the whole grid, one factor
per time variable for each oscillation, with no Gaussian transform and no
factorized sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .scalars import (
    DOT, ENERGY, MOMENTUM, ScalarTerm, contraction_phases, label_classes,
)

TWO_PI = 2.0 * math.pi
SIGMA_CUTOFF = 8.0  # truncation radius, in standard deviations
QUAD_ABS_TOL = 1e-10


class UnassignedLabelError(ValueError):
    """A momentum or time label with no numeric assignment."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature did not reach the requested tolerance."""


# ---------------------------------------------------------------------------
# assignments

def _as_vec3(value, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{what} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has a non-finite component")
    return arr


@dataclass
class Assignment:
    """Numeric instantiation: 3-vectors for each momentum label and for p.

    The dispersion defaults to omega(k) = |k|; the shifted dispersion
    used in phase arguments is omega(k) + |k|^2 / 2.
    """

    momenta: dict
    p: np.ndarray
    dispersion: object = None

    def __post_init__(self):
        self.momenta = {str(k): _as_vec3(v, f"momentum {k!r}")
                        for k, v in self.momenta.items()}
        self.p = _as_vec3(self.p, "p")
        if self.dispersion is None:
            self.dispersion = lambda k: float(np.linalg.norm(k))

    def vector(self, label: str) -> np.ndarray:
        try:
            return self.momenta[label]
        except KeyError:
            raise UnassignedLabelError(
                f"momentum label {label!r} has no assigned vector") from None


def _json_vec3(value, what: str) -> list:
    # bool is an int subclass, and numpy reads strings and null as floats
    if not isinstance(value, list) or any(
            isinstance(c, bool) or not isinstance(c, (int, float)) for c in value):
        raise ValueError(f"{what} must be a list of three numbers")
    return value


def assignment_from_json_dict(data: dict) -> Assignment:
    if not isinstance(data, dict) or "momenta" not in data or "p" not in data:
        raise ValueError('assignment needs "momenta" and "p" entries')
    if not isinstance(data["momenta"], dict):
        raise ValueError('"momenta" must map labels to 3-vectors')
    momenta = {k: _json_vec3(v, f"momentum {k!r}")
               for k, v in data["momenta"].items()}
    return Assignment(momenta=momenta, p=_json_vec3(data["p"], "p"))


def phase_value(atom: tuple, a: Assignment) -> float:
    """Numeric value of one phase atom (kind, x, y) under an assignment."""
    kind, x, y = atom
    if kind == ENERGY:
        k = a.vector(x)
        return float(a.dispersion(k)) + 0.5 * float(k @ k)
    if kind == DOT:
        return float(a.vector(x) @ a.vector(y))
    return float(a.vector(x) @ a.p)


def arg_value(arg: tuple, a: Assignment) -> float:
    return sum(c * phase_value(atom, a) for atom, c in arg)


# ---------------------------------------------------------------------------
# Gaussian test functions

@dataclass(frozen=True)
class GaussianTest:
    """Test function f(t) = exp(-(t - center)^2 / (2 width^2))."""

    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.center) and 0 < self.width < math.inf):
            raise ValueError("a Gaussian needs a finite center and a positive finite"
                             f" width, got center {self.center} and width {self.width}")

    def __call__(self, t):
        u = (np.asarray(t, dtype=float) - self.center) / self.width
        return np.exp(-0.5 * u * u)

    def support(self) -> tuple:
        r = SIGMA_CUTOFF * self.width
        return (self.center - r, self.center + r)


STANDARD_GAUSSIAN = GaussianTest(0.0, 1.0)


def gauss_fourier(f: GaussianTest, xi: float) -> complex:
    """Closed-form transform: integral of f(t) exp(-i xi t) dt."""
    amp = math.sqrt(TWO_PI) * f.width * math.exp(-0.5 * (f.width * xi) ** 2)
    return amp * complex(math.cos(f.center * xi), -math.sin(f.center * xi))


def overlap(f: GaussianTest, g: GaussianTest, s: float = 0.0) -> float:
    """Cross-correlation integral of f(t) g(t - s) dt, in closed form."""
    var = f.width ** 2 + g.width ** 2
    d = f.center - g.center - s
    return (math.sqrt(TWO_PI) * f.width * g.width / math.sqrt(var)
            * math.exp(-0.5 * d * d / var))


def _gauss_product(tests) -> tuple:
    """Rewrite a product of Gaussians as (amplitude, single Gaussian)."""
    inv_var = sum(1.0 / t.width ** 2 for t in tests)
    width = 1.0 / math.sqrt(inv_var)
    center = width ** 2 * sum(t.center / t.width ** 2 for t in tests)
    sq = sum(t.center ** 2 / t.width ** 2 for t in tests)
    amp = math.exp(-0.5 * (sq - center ** 2 * inv_var))
    return amp, GaussianTest(center, width)


# ---------------------------------------------------------------------------
# the two kernel limits

def _require_positive(lam: float) -> None:
    """Entry check of every evaluator that takes a coupling."""
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")


def vanishing_kernel(x: float, f: GaussianTest, lam: float) -> complex:
    """Smeared plain oscillation: integral of f(t) exp(-i t x / lambda^2) dt.

    Decays super-polynomially as lambda -> 0 for any fixed x != 0; the
    x = 0 case is excluded since there the integral is just the mass of
    f and nothing vanishes.
    """
    if x == 0:
        raise ValueError("x must be nonzero; at x = 0 the kernel does not vanish")
    _require_positive(lam)
    return gauss_fourier(f, x / lam ** 2)


def delta_kernel(f: GaussianTest, g: GaussianTest, h: GaussianTest,
                 lam: float) -> complex:
    """Triply smeared weighted oscillation, in closed form.

    J(lambda) = (1/lambda^2) * integral of
        f(t) g(t') h(x) exp(-i (t - t') x / lambda^2)  dt dt' dx.

    Substituting tau = (t - t') / lambda^2 and integrating x against h
    first turns this into integral of h_hat(tau) * O(lambda^2 tau) dtau
    with O the f-g cross-correlation, a Gaussian integral with a complex
    linear term.  The limit is 2 pi h(0) * integral of f g.
    """
    _require_positive(lam)
    var = f.width ** 2 + g.width ** 2
    d = f.center - g.center
    quad = 0.5 * (h.width ** 2 + lam ** 4 / var)
    lin = complex(lam ** 2 * d / var, -h.center)
    pref = TWO_PI * h.width * f.width * g.width / math.sqrt(var)
    return complex(pref * math.sqrt(math.pi / quad)
                   * np.exp(lin * lin / (4.0 * quad) - 0.5 * d * d / var))


def delta_kernel_target(f: GaussianTest, g: GaussianTest,
                        h: GaussianTest) -> complex:
    """Limit value 2 pi h(0) * integral of f(t) g(t) dt."""
    return complex(TWO_PI * h(0.0) * overlap(f, g, 0.0))


def delta_kernel_quadrature(f: GaussianTest, g: GaussianTest, h: GaussianTest,
                            lam: float) -> complex:
    """Independent adaptive-cubature route for delta_kernel.

    Integrates f(t) g(t - lambda^2 tau) h_hat(tau) over (tau, t)
    directly, with no use of the closed-form Gaussian integral, in one
    adaptive Gauss-Kronrod pass whose integrand returns its real and
    imaginary parts as a real 2-vector.  t spans f's support alone, as f is
    a factor: the rest adds at most 2 pi f's tail mass, 2e-14 * f.width.
    """
    # imported here, its only use: scipy.integrate costs every symbolic
    # command about half a second and 50 MB when imported with the module
    from scipy import integrate

    _require_positive(lam)
    tau_max = SIGMA_CUTOFF / h.width
    t_lo, t_hi = f.support()

    def integrand(x):
        tau, t = x[:, 0], x[:, 1]
        h_hat = math.sqrt(TWO_PI) * h.width * np.exp(
            -0.5 * (h.width * tau) ** 2 - 1j * h.center * tau)
        val = f(t) * g(t - lam ** 2 * tau) * h_hat
        return val.view(np.float64).reshape(-1, 2)

    res = integrate.cubature(integrand, [-tau_max, t_lo], [tau_max, t_hi],
                             rule="gauss-kronrod", rtol=0, atol=QUAD_ABS_TOL)
    if not (res.status == "converged" and np.all(np.isfinite(res.estimate))
            and np.all(res.error <= 1e-6)):
        raise QuadratureError(
            f"cubature returned {res.status} with estimate "
            f"{complex(*res.estimate)} and estimated error {np.max(res.error):.3e}")
    return complex(*res.estimate)


# ---------------------------------------------------------------------------
# smeared correlator terms

@dataclass(frozen=True)
class ConvergenceRow:
    lam: float
    value: complex
    target: complex

    @property
    def abs_err(self) -> float:
        return abs(self.value - self.target)


def strip_momentum_deltas(term: tuple) -> tuple:
    """Drop momentum delta factors once an assignment has honored them.

    Canonicalization already rewrote every phase in terms of class
    representatives, so for numeric work the deltas carry no further
    information beyond "these labels denote equal vectors".
    """
    coeff, two_pi_power, lambda_power, phases, deltas = term
    kept = tuple(d for d in deltas if d[0] != MOMENTUM)
    return ScalarTerm(coeff, two_pi_power, lambda_power, phases, kept)


def _require_smearable(term: tuple, tests: dict, a: Assignment) -> None:
    """Entry check of every term evaluator, closed form and grid oracle alike.

    The term carries no deltas, every time label has a test function and
    every momentum label has a vector.
    """
    _, _, _, phases, deltas = term
    if deltas:
        raise ValueError(
            "term still carries delta factors; apply them before smearing")
    for time, arg, _ in phases:
        for t, _ in time:
            if t not in tests:
                raise UnassignedLabelError(
                    f"time label {t!r} has no test function")
        arg_value(arg, a)  # raises on an unassigned momentum label


def _coeff_complex(term: tuple) -> complex:
    re, im = term[0]
    return complex(float(re), float(im))


# The two readings of a term.  Each builder returns the integrand as
# (groups, phase_data, prefactor): the integration variables and the kept
# oscillations in the shape both integrators take, and the constant in front.

def _literal(term: tuple, tests: dict, a: Assignment) -> tuple:
    """The term as written: each time label its own variable, each phase kept."""
    _require_smearable(term, tests, a)
    _, two_pi_power, _, phases, _ = term
    phase_data = [(time, arg_value(arg, a)) for time, arg, _ in phases]
    return ({label: [label] for label in tests}, phase_data,
            _coeff_complex(term) * TWO_PI ** two_pi_power)


def _contracted(term: tuple, tests: dict, a: Assignment) -> tuple:
    """The term read as its contraction.

    Each weighted phase applies its time delta exactly: it pins its two
    time labels to the smaller one and contributes a factor 2 pi.  Only
    the unweighted phases remain.
    """
    _require_smearable(term, tests, a)
    weighted = contraction_phases(term)
    for time, _, _ in weighted:
        if len(time) != 2 or {c for _, c in time} != {1, -1}:
            raise ValueError(
                "weighted phase time combination must be a simple difference")
    time_map = label_classes({t for t, _ in time} for time, _, _ in weighted)
    groups: dict = {}
    for label in sorted(tests):
        groups.setdefault(time_map.get(label, label), []).append(label)
    _, two_pi_power, _, phases, _ = term
    phase_data = [
        (tuple((time_map.get(t, t), c) for t, c in time), arg_value(arg, a))
        for time, arg, is_weighted in phases if not is_weighted
    ]
    return (groups, phase_data,
            _coeff_complex(term) * TWO_PI ** (two_pi_power + len(weighted)))


def _closed_integral(groups: dict, tests: dict, phase_data: list,
                     lam: float | None, scale: complex) -> complex:
    """Closed-form integral of a smeared product of oscillations, times `scale`.

    Each variable's test functions merge into one product Gaussian, taken
    at the variable's summed frequency over lambda^2; the factors multiply
    into `scale` one by one, in variable order.  lam=None gives the
    lambda -> 0 limit, where a factor with a nonzero frequency vanishes.
    """
    freq: dict = {v: 0.0 for v in groups}
    for items, x in phase_data:
        for t, c in items:
            freq[t] += c * x
    for v in sorted(groups):
        amp, gauss = _gauss_product([tests[m] for m in groups[v]])
        if lam is not None:
            scale *= amp * gauss_fourier(gauss, freq[v] / lam ** 2)
        elif abs(freq[v]) < 1e-12:
            scale *= amp * gauss_fourier(gauss, 0.0)
        else:
            scale *= 0.0
    return scale


def term_convergence(term: tuple, tests: dict, a: Assignment,
                     lambdas) -> list:
    """Ladder of smeared values for one finite-coupling correlator term.

    The term is read as its contraction; the delta accompanying each
    weighted phase in the phase argument is a formal factor common to
    value and target and is left out of both.  The unweighted
    oscillations are what remains lambda-dependent, and any with a
    nonzero evaluated argument drives the value to zero as lambda -> 0.
    The target is therefore the smeared kernel backbone with all
    surviving oscillations sent to their limit.
    """
    groups, phase_data, prefactor = _contracted(term, tests, a)
    target = _closed_integral(groups, tests, phase_data, None, prefactor)
    rows = []
    for lam in lambdas:
        _require_positive(lam)
        value = _closed_integral(groups, tests, phase_data, lam, prefactor)
        rows.append(ConvergenceRow(float(lam), value, target))
    return rows


def term_value(term: tuple, tests: dict, a: Assignment,
               lam: float) -> complex:
    """Literal smeared value of a term at one finite coupling.

    Every time label integrates against its own test function and every
    oscillation is kept as written, so the weighted phases contribute
    their full 1/lambda^2-weighted oscillatory integrals; for generic
    phase arguments this vanishes super-polynomially as lambda -> 0.
    """
    groups, phase_data, prefactor = _literal(term, tests, a)
    _require_positive(lam)
    _, _, lambda_power, _, _ = term
    return _closed_integral(groups, tests, phase_data, lam,
                            prefactor * lam ** lambda_power)


# ---------------------------------------------------------------------------
# brute-force oracles

@functools.cache
def _legendre_rule(points: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only per size."""
    from scipy.special import roots_legendre  # no threads, unlike leggauss
    nodes, weights = roots_legendre(points)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _tensor_quadrature(bounds, integrand, points: int) -> complex:
    """Tensor-grid Gauss-Legendre quadrature over a box, on `_legendre_rule`.

    `integrand` receives one node array per variable, along its own axis,
    and returns the integrand's factors, each over the axes it depends on,
    of length 1 on the rest (0-d for none); those on one set of axes, the
    weights included, first multiply into one.  The factors varying along
    the first axis multiply into `first`, the rest into `tail`, and one
    two-operand `einsum` sums their product over the whole grid without
    storing it.  So each node's value is the product of all its factors,
    summed node by node: no factorized shortcut is taken, an independent
    check of closed forms.
    """
    base_x, base_w = _legendre_rule(points)
    dim = len(bounds)
    axes, weights = [], []
    for i, (lo, hi) in enumerate(bounds):
        shape = (1,) * i + (-1,) + (1,) * (dim - 1 - i)
        half = 0.5 * (hi - lo)
        axes.append((0.5 * (lo + hi) + half * base_x).reshape(shape))
        weights.append((half * base_w).reshape(shape))

    merged: dict = {}  # one factor per set of axes it varies along
    for factor in weights + integrand(*axes):
        key = tuple(i for i, n in enumerate(np.shape(factor)) if n > 1)
        merged[key] = merged[key] * factor if key in merged else factor
    first = tail = np.ones((1,) * dim)
    for key, factor in merged.items():
        if 0 in key:
            first = first * factor
        else:
            tail = tail * factor
    subscripts = "{0},{0}->".format("abcdefghijklmnopqrstuvwxyz"[:dim])
    return complex(np.einsum(subscripts, tail, first))


def _grid_integral(groups: dict, tests: dict, phase_data: list, lam: float,
                   points: int) -> complex:
    """Tensor-grid integral of a smeared product of oscillations.

    `groups` maps each integration variable to the time labels whose
    test functions it carries; `phase_data` holds, per oscillation, its
    time items over those variables and its evaluated argument x.  The
    integrand returns its factors, each on one variable's axis: every test
    function, and per oscillation one factor exp(-i x c t / lambda^2) for
    each of its items (t, c), their product by exp(a + b) = exp(a) exp(b).
    """
    reps = sorted(groups)
    index = {r: i for i, r in enumerate(reps)}

    def integrand(*ts):
        factors = [tests[m](t) for r, t in zip(reps, ts) for m in groups[r]]
        for items, x in phase_data:
            factors += [np.exp(-1j * x / lam ** 2 * (c * ts[index[t]]))
                        for t, c in items]
        return factors

    bounds = []
    for r in reps:
        supports = [tests[m].support() for m in groups[r]]
        bounds.append((min(s[0] for s in supports), max(s[1] for s in supports)))
    return _tensor_quadrature(bounds, integrand, points)


def term_value_quadrature(term: tuple, tests: dict, a: Assignment,
                          lam: float, points: int = 96) -> complex:
    """Brute-force grid quadrature of the literal smeared term.

    Every time label is its own integration variable.  Intended for
    lambda >= 0.5, where the oscillation frequencies stay resolvable on
    a moderate grid.
    """
    groups, phase_data, prefactor = _literal(term, tests, a)
    _require_positive(lam)
    _, _, lambda_power, _, _ = term
    return (prefactor * lam ** lambda_power
            * _grid_integral(groups, tests, phase_data, lam, points))


def term_convergence_quadrature(term: tuple, tests: dict, a: Assignment,
                                lam: float, points: int = 96) -> complex:
    """Brute-force companion to one term_convergence ladder entry.

    Rebuilds the reduced integrand from the raw test functions on the
    surviving time variables, without the product-Gaussian rewrite.
    """
    groups, phase_data, prefactor = _contracted(term, tests, a)
    _require_positive(lam)
    return prefactor * _grid_integral(groups, tests, phase_data, lam, points)


def fit_loglog_slope(lams, errs) -> float:
    """Least-squares slope of log(err) against log(lambda).

    ValueError, never nan, unless all are finite and positive and two lambdas differ.
    """
    x, y = np.asarray(lams, dtype=float), np.asarray(errs, dtype=float)
    for name, v in (("lambda", x), ("error", y)):
        if not np.all(np.isfinite(v) & (v > 0)):
            raise ValueError(f"every {name} must be finite and positive")
    if np.unique(x).size < 2:
        raise ValueError("a slope needs at least two distinct lambdas")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
