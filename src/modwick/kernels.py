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

Quadrature policy: adaptive integration is only ever applied to
non-oscillatory (or mildly oscillatory) integrands, absolute tolerance
1e-10, domains truncated at eight standard deviations.  Brute-force
tensor-grid quadrature is kept around as an independent oracle for the
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scalars import (
    DOT, ENERGY, Atom, MomentumDelta, PhaseArg, ScalarTerm, contraction_phases,
    label_classes,
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


def phase_value(atom: Atom, a: Assignment) -> float:
    """Numeric value of one phase atom under an assignment."""
    if atom.kind == ENERGY:
        k = a.vector(atom.a)
        return float(a.dispersion(k)) + 0.5 * float(k @ k)
    if atom.kind == DOT:
        return float(a.vector(atom.a) @ a.vector(atom.b))
    return float(a.vector(atom.a) @ a.p)


def arg_value(arg: PhaseArg, a: Assignment) -> float:
    return sum(c * phase_value(atom, a) for atom, c in arg.items)


# ---------------------------------------------------------------------------
# Gaussian test functions

@dataclass(frozen=True)
class GaussianTest:
    """Test function f(t) = exp(-(t - center)^2 / (2 width^2))."""

    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"width must be positive, got {self.width}")

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

def vanishing_kernel(x: float, f: GaussianTest, lam: float) -> complex:
    """Smeared plain oscillation: integral of f(t) exp(-i t x / lambda^2) dt.

    Decays super-polynomially as lambda -> 0 for any fixed x != 0; the
    x = 0 case is excluded since there the integral is just the mass of
    f and nothing vanishes.
    """
    if x == 0:
        raise ValueError("x must be nonzero; at x = 0 the kernel does not vanish")
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
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
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
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
    """Independent adaptive-quadrature route for delta_kernel.

    Integrates f(t) g(t - lambda^2 tau) h_hat(tau) over (t, tau)
    directly, with no use of the closed-form Gaussian integral.
    """
    # imported here, its only use: scipy.integrate costs every symbolic
    # command about half a second and 50 MB when imported with the module
    from scipy import integrate

    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    tau_max = SIGMA_CUTOFF / h.width
    shift = lam ** 2 * tau_max
    t_lo = min(f.support()[0], g.support()[0] - shift)
    t_hi = max(f.support()[1], g.support()[1] + shift)

    def integrand(tau, t, part):
        val = f(t) * g(t - lam ** 2 * tau) * gauss_fourier(h, tau)
        return val.real if part == "re" else val.imag

    out = {}
    for part in ("re", "im"):
        val, err = integrate.dblquad(
            integrand, t_lo, t_hi, -tau_max, tau_max,
            args=(part,), epsabs=QUAD_ABS_TOL)
        if not math.isfinite(val) or err > 1e-6:
            raise QuadratureError(
                f"{part} part did not converge: estimated error {err:.3e}")
        out[part] = val
    return complex(out["re"], out["im"])


# ---------------------------------------------------------------------------
# smeared correlator terms

@dataclass(frozen=True)
class ConvergenceRow:
    lam: float
    value: complex
    target: complex
    abs_err: float

    @staticmethod
    def of(lam: float, value: complex, target: complex) -> "ConvergenceRow":
        return ConvergenceRow(lam, value, target, abs(value - target))


def strip_momentum_deltas(term: ScalarTerm) -> ScalarTerm:
    """Drop momentum delta factors once an assignment has honored them.

    Canonicalization already rewrote every phase in terms of class
    representatives, so for numeric work the deltas carry no further
    information beyond "these labels denote equal vectors".
    """
    kept = tuple(d for d in term.deltas if not isinstance(d, MomentumDelta))
    return ScalarTerm(term.coeff, term.two_pi_power, term.lambda_power,
                      term.phases, kept)


def _require_smearable(term: ScalarTerm, tests: dict, a: Assignment) -> None:
    """Entry check of every term evaluator, closed form and grid oracle alike.

    The term carries no deltas, every time label has a test function and
    every momentum label has a vector.
    """
    if term.deltas:
        raise ValueError(
            "term still carries delta factors; apply them before smearing")
    for ph in term.phases:
        for t in ph.time.labels():
            if t not in tests:
                raise UnassignedLabelError(
                    f"time label {t!r} has no test function")
        arg_value(ph.arg, a)  # raises on an unassigned momentum label


def _coeff_complex(term: ScalarTerm) -> complex:
    return complex(float(term.coeff.re), float(term.coeff.im))


def _time_classes(term: ScalarTerm, labels) -> tuple:
    """Map time labels to their contraction representatives; group `labels`.

    Each weighted phase pins its two time labels together; the
    representative is the smallest label of the class.  Returns the map
    and the representatives' member lists, in the order of `labels`.
    """
    weighted = term.weighted_phases()
    for ph in weighted:
        items = ph.time.items
        if len(items) != 2 or {c for _, c in items} != {1, -1}:
            raise ValueError(
                "weighted phase time combination must be a simple difference")
    time_map = label_classes(ph.time.labels() for ph in weighted)
    groups: dict = {}
    for label in labels:
        groups.setdefault(time_map.get(label, label), []).append(label)
    return time_map, groups


def term_convergence(term: ScalarTerm, tests: dict, a: Assignment,
                     lambdas) -> list:
    """Ladder of smeared values for one finite-coupling correlator term.

    Each weighted phase is read as its own contraction: the time delta
    is applied exactly (the paired test functions merge into a product
    Gaussian) and contributes a factor 2 pi, while the accompanying
    delta in the phase argument is a formal factor common to value and
    target and is left out of both.  The unweighted oscillations are
    what remains lambda-dependent: they evaluate on the surviving time
    variables, and any with a nonzero evaluated argument drives the
    value to zero as lambda -> 0.  The target is therefore the smeared
    kernel backbone with all surviving oscillations sent to their limit.
    """
    _require_smearable(term, tests, a)
    weighted = contraction_phases(term)
    time_map, groups = _time_classes(term, tests)

    freq: dict = {r: 0.0 for r in groups}
    for ph in term.unweighted_phases():
        x = arg_value(ph.arg, a)
        for t, c in ph.time.items:
            freq[time_map.get(t, t)] += c * x

    backbone = []
    for r in sorted(groups):
        amp, gauss = _gauss_product([tests[m] for m in groups[r]])
        backbone.append((amp, gauss, freq[r]))

    pi_pow = TWO_PI ** (term.two_pi_power + len(weighted))
    coeff = _coeff_complex(term)

    def limit_factor(amp, gauss, c):
        if abs(c) < 1e-12:
            return amp * gauss_fourier(gauss, 0.0)
        return 0.0

    target = coeff * pi_pow
    for amp, gauss, c in backbone:
        target *= limit_factor(amp, gauss, c)

    rows = []
    for lam in lambdas:
        if not lam > 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        value = coeff * pi_pow
        for amp, gauss, c in backbone:
            value *= amp * gauss_fourier(gauss, c / lam ** 2)
        rows.append(ConvergenceRow.of(float(lam), value, target))
    return rows


def term_value(term: ScalarTerm, tests: dict, a: Assignment,
               lam: float) -> complex:
    """Literal smeared value of a term at one finite coupling.

    Every time label integrates against its own test function and every
    oscillation is kept as written, so the weighted phases contribute
    their full 1/lambda^2-weighted oscillatory integrals; for generic
    phase arguments this vanishes super-polynomially as lambda -> 0.
    """
    _require_smearable(term, tests, a)
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")

    freq: dict = {label: 0.0 for label in tests}
    for ph in term.phases:
        x = arg_value(ph.arg, a)
        for t, c in ph.time.items:
            freq[t] += c * x

    value = (_coeff_complex(term) * TWO_PI ** term.two_pi_power
             * lam ** term.lambda_power)
    for label in sorted(tests):
        value *= gauss_fourier(tests[label], freq[label] / lam ** 2)
    return value


# ---------------------------------------------------------------------------
# brute-force oracles

def _tensor_quadrature(bounds, integrand, points: int) -> complex:
    """Tensor-grid Gauss-Legendre quadrature over a box.

    `integrand` receives one broadcastable array per variable and must
    return the full integrand values; no factorized shortcut is taken,
    so this is a genuinely independent check of the closed forms.
    """
    nodes, weights = [], []
    base_x, base_w = np.polynomial.legendre.leggauss(points)
    for lo, hi in bounds:
        half = 0.5 * (hi - lo)
        nodes.append(0.5 * (lo + hi) + half * base_x)
        weights.append(half * base_w)

    dim = len(nodes)
    if dim == 1:
        return complex(np.sum(weights[0] * integrand(nodes[0])))

    # block over the first axis to bound memory
    tail_axes = [n.reshape((1,) * i + (-1,) + (1,) * (dim - 2 - i))
                 for i, n in enumerate(nodes[1:])]
    tail_w = weights[1]
    for w in weights[2:]:
        tail_w = np.multiply.outer(tail_w, w)
    acc = 0.0 + 0.0j
    for i, t0 in enumerate(nodes[0]):
        vals = integrand(t0, *tail_axes)
        acc += weights[0][i] * np.sum(tail_w * vals)
    return complex(acc)


def _grid_integral(groups: dict, tests: dict, phase_data: list, lam: float,
                   points: int) -> complex:
    """Tensor-grid integral of a smeared product of oscillations.

    `groups` maps each integration variable to the time labels whose
    test functions it carries; `phase_data` holds, per oscillation, its
    time items over those variables and its evaluated argument.  The
    integrand is evaluated structurally, factor by factor, at every node.
    """
    reps = sorted(groups)
    index = {r: i for i, r in enumerate(reps)}

    def integrand(*ts):
        shape = np.broadcast_shapes(*(np.shape(t) for t in ts))
        mag = np.ones(shape)
        for r, t in zip(reps, ts):
            for member in groups[r]:
                mag = mag * tests[member](t)
        expo = np.zeros(shape)
        for items, x in phase_data:
            delta = sum(c * ts[index[t]] for t, c in items)
            expo = expo + x * delta
        return mag * np.exp(-1j * expo / lam ** 2)

    bounds = []
    for r in reps:
        supports = [tests[m].support() for m in groups[r]]
        bounds.append((min(s[0] for s in supports), max(s[1] for s in supports)))
    return _tensor_quadrature(bounds, integrand, points)


def term_value_quadrature(term: ScalarTerm, tests: dict, a: Assignment,
                          lam: float, points: int = 96) -> complex:
    """Brute-force grid quadrature of the literal smeared term.

    Every time label is its own integration variable.  Intended for
    lambda >= 0.5, where the oscillation frequencies stay resolvable on
    a moderate grid.
    """
    _require_smearable(term, tests, a)
    phase_data = [(ph.time.items, arg_value(ph.arg, a)) for ph in term.phases]
    raw = _grid_integral({label: [label] for label in tests}, tests,
                         phase_data, lam, points)
    return (_coeff_complex(term) * TWO_PI ** term.two_pi_power
            * lam ** term.lambda_power * raw)


def term_convergence_quadrature(term: ScalarTerm, tests: dict, a: Assignment,
                                lam: float, points: int = 96) -> complex:
    """Brute-force companion to one term_convergence ladder entry.

    Rebuilds the reduced integrand from the raw test functions on the
    surviving time variables, without the product-Gaussian rewrite.
    """
    _require_smearable(term, tests, a)
    weighted = contraction_phases(term)
    time_map, groups = _time_classes(term, sorted(tests))
    phase_data = [
        (tuple((time_map.get(t, t), c) for t, c in ph.time.items),
         arg_value(ph.arg, a))
        for ph in term.unweighted_phases()
    ]
    raw = _grid_integral(groups, tests, phase_data, lam, points)
    return (_coeff_complex(term)
            * TWO_PI ** (term.two_pi_power + len(weighted)) * raw)


def fit_loglog_slope(lams, errs) -> float:
    """Least-squares slope of log(err) against log(lambda)."""
    x = np.log(np.asarray(lams, dtype=float))
    y = np.log(np.asarray(errs, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
