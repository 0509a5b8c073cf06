"""Exact scalar arithmetic for oscillation phases and delta factors.

Scalars produced by normal ordering are finite products of a rational
complex coefficient, integer powers of 2*pi and of the coupling constant
lambda, oscillating exponential factors, and distributional delta factors.
A phase factor

    q(t - t', x) = exp(-i ((t - t') / lambda^2) x)

is stored structurally as a :class:`ContractionPhase`: an integer
combination of time labels paired with an integer combination of momentum
atoms, plus a flag marking the 1/lambda^2 weight that accompanies a
contraction.  A combination is a plain tuple of (label or atom,
coefficient) pairs, sorted, with zero entries dropped; `comb` builds one
from a mapping.  Equality of terms is decided through the merged
exponent, a sparse bilinear form over (time label, atom) pairs, so that
two phase lists multiplying to the same exponential compare equal even
when they factor differently.

Momentum atoms never evaluate here; they stay symbolic until the numeric
layer assigns concrete vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple


# ---------------------------------------------------------------------------
# coefficients

@dataclass(frozen=True)
class RationalComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "RationalComplex":
        return RationalComplex(Fraction(re), Fraction(im))

    def __add__(self, other: "RationalComplex") -> "RationalComplex":
        return RationalComplex(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "RationalComplex") -> "RationalComplex":
        # every rewrite coefficient is C_ONE, so skip the Fraction arithmetic
        if other is C_ONE:
            return self
        if self is C_ONE:
            return other
        return RationalComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


C_ONE = RationalComplex.of(1)


# ---------------------------------------------------------------------------
# phase atoms

ENERGY, DOT, PDOT = 0, 1, 2


class Atom(NamedTuple):
    """One momentum atom of a phase argument.

    ENERGY(a) is the shifted dispersion omega(k_a) + |k_a|^2 / 2, DOT(a, b)
    the dot product k_a.k_b stored with a <= b, and PDOT(a) the dot
    product k_a.p with the particle momentum.  The tuple order is the
    order of atoms inside an argument, and str() is the stable text key.
    """

    kind: int
    a: str
    b: str = ""

    def __str__(self) -> str:
        if self.kind == ENERGY:
            return f"E({self.a})"
        if self.kind == DOT:
            return f"D({self.a},{self.b})"
        return f"P({self.a})"

    def renamed(self, mapping: dict) -> "Atom":
        a = mapping.get(self.a, self.a)
        if self.kind == DOT:
            return Dot(a, mapping.get(self.b, self.b))
        return Atom(self.kind, a)


def Energy(k: str) -> Atom:
    return Atom(ENERGY, k)


def Dot(a: str, b: str) -> Atom:
    return Atom(DOT, a, b) if a <= b else Atom(DOT, b, a)


def PDot(k: str) -> Atom:
    return Atom(PDOT, k)


# ---------------------------------------------------------------------------
# integer combinations: sorted tuples of (label or atom, coefficient)

def comb(mapping: dict) -> tuple:
    """The combination with these coefficients, sorted, zero entries dropped."""
    return tuple(sorted((x, c) for x, c in mapping.items() if c != 0))


def negated(items: tuple) -> tuple:
    return tuple((x, -c) for x, c in items)


def substituted(items: tuple, mapping: dict) -> tuple:
    """Rename momentum or time labels, summing entries that coincide."""
    acc: dict = {}
    for x, c in items:
        x = x.renamed(mapping) if isinstance(x, Atom) else mapping.get(x, x)
        acc[x] = acc.get(x, 0) + c
    return comb(acc)


def time_difference(t_plus: str, t_minus: str) -> tuple:
    """The time combination t_plus - t_minus; equal labels cancel."""
    if t_plus == t_minus:
        return ()
    items = ((t_plus, 1), (t_minus, -1))
    return items if t_plus < t_minus else items[::-1]


# ---------------------------------------------------------------------------
# phases

@dataclass(frozen=True)
class ContractionPhase:
    """One oscillating factor q(time, arg), weighted when it carries 1/lambda^2."""

    time: tuple
    arg: tuple
    weighted: bool = False

    def key(self) -> tuple:
        # the atoms after their strings: labels whose strings collide never tie
        return (0 if self.weighted else 1, self.time,
                tuple((str(a), c) for a, c in self.arg), self.arg)


def oscillation(t_from: str, t_to: str, arg: tuple, power: int = 1,
                weighted: bool = False) -> ContractionPhase:
    """Build q(t_from - t_to, arg)^power; power -1 negates the argument."""
    if power not in (1, -1):
        raise ValueError("oscillation power must be +1 or -1")
    a = arg if power == 1 else negated(arg)
    return ContractionPhase(time_difference(t_from, t_to), a, weighted)


# ---------------------------------------------------------------------------
# delta factors

@dataclass(frozen=True)
class MomentumDelta:
    """delta(a - b) identifying two momentum labels, stored with a <= b."""

    a: str
    b: str

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"degenerate momentum delta on {self.a!r}")
        if self.b < self.a:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)


@dataclass(frozen=True)
class TimeDelta:
    """delta(time combination), sign-fixed so its first coefficient is positive."""

    comb: tuple

    def __post_init__(self):
        if not self.comb:
            raise ValueError("degenerate time delta")
        if self.comb[0][1] < 0:
            object.__setattr__(self, "comb", negated(self.comb))


@dataclass(frozen=True)
class PhaseDelta:
    """delta(phase argument), sign-fixed so its first coefficient is positive."""

    arg: tuple

    def __post_init__(self):
        if not self.arg:
            raise ValueError("degenerate phase delta")
        if self.arg[0][1] < 0:
            object.__setattr__(self, "arg", negated(self.arg))


Delta = MomentumDelta | TimeDelta | PhaseDelta


def delta_key(d: Delta) -> tuple:
    """Sort key of a delta: its text, then its entries, so no two deltas tie."""
    if isinstance(d, MomentumDelta):
        return (0, d.a, d.b)
    if isinstance(d, TimeDelta):
        return (1, ";".join(f"{t}:{c}" for t, c in d.comb), d.comb)
    return (2, ";".join(f"{a}:{c}" for a, c in d.arg), d.arg)


# ---------------------------------------------------------------------------
# terms and expressions

@dataclass(frozen=True)
class ScalarTerm:
    coeff: RationalComplex = C_ONE
    two_pi_power: int = 0
    lambda_power: int = 0
    phases: tuple = ()
    deltas: tuple = ()

    def times(self, other: "ScalarTerm") -> "ScalarTerm":
        return ScalarTerm(
            self.coeff * other.coeff,
            self.two_pi_power + other.two_pi_power,
            self.lambda_power + other.lambda_power,
            self.phases + other.phases,
            self.deltas + other.deltas,
        )

    def conjugated(self) -> "ScalarTerm":
        phases = tuple(
            ContractionPhase(ph.time, negated(ph.arg), ph.weighted)
            for ph in self.phases
        )
        return ScalarTerm(self.coeff.conjugate(), self.two_pi_power,
                          self.lambda_power, phases, self.deltas)

    def weighted_phases(self) -> tuple:
        return tuple(ph for ph in self.phases if ph.weighted)

    def unweighted_phases(self) -> tuple:
        return tuple(ph for ph in self.phases if not ph.weighted)


TERM_ONE = ScalarTerm()


def contraction_phases(term: ScalarTerm) -> tuple:
    """The weighted phases of a term, each carrying one 1/lambda^2."""
    weighted = term.weighted_phases()
    if term.lambda_power != -2 * len(weighted):
        raise ValueError(
            "term weight mismatch: lambda power "
            f"{term.lambda_power} with {len(weighted)} weighted phases")
    return weighted


def merged_exponent(term: ScalarTerm) -> dict:
    """Sparse bilinear exponent over (time label, atom), summed over phases.

    q(t1 - t2, x) contributes +1 at (t1, x) and -1 at (t2, x); products of
    phases accumulate entrywise, so the merged exponent is the complete
    oscillation content of the term regardless of how it factors.
    """
    acc: dict = {}
    for ph in term.phases:
        for t, ct in ph.time:
            for a, ca in ph.arg:
                key = (t, a)
                acc[key] = acc.get(key, 0) + ct * ca
    return {k: v for k, v in acc.items() if v != 0}


def term_signature(term: ScalarTerm) -> tuple:
    """Key of a term up to its coefficient, text first ("t10" before "t2").

    Like terms share it: structural phase lists that multiply to the same
    exponential share a signature, and the structural value after each
    string keeps terms whose label strings collide apart.
    `canonicalize` merges and sorts on it; `canonically_equal` compares it.
    """
    return (term.lambda_power, term.two_pi_power,
            tuple(sorted(delta_key(d) for d in term.deltas)),
            tuple(sorted(((t, str(a), a), c)
                         for (t, a), c in merged_exponent(term).items())))


@dataclass(frozen=True)
class ScalarExpr:
    terms: tuple = ()
    # the terms' signatures: set by canonicalize alone, so no constructor
    # can claim it
    signatures: tuple | None = field(
        default=None, init=False, compare=False, repr=False)

    @property
    def canonical(self) -> bool:
        return self.signatures is not None

    def is_zero(self) -> bool:
        return not self.terms


# ---------------------------------------------------------------------------
# canonicalization

def label_classes(edges) -> dict:
    """Union-find over labels; map each label to the smallest in its class.

    Every edge is an iterable of labels identified with one another.
    """
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for edge in edges:
        roots = sorted({find(x) for x in edge})
        for r in roots[1:]:
            parent[r] = roots[0]
    return {x: find(x) for x in parent}


def _canonical_deltas_and_subst(deltas):
    """Star-normalize momentum deltas and build the label substitution map."""
    reps = label_classes((d.a, d.b) for d in deltas
                         if isinstance(d, MomentumDelta))
    classes: dict = {}
    counts: dict = {}
    for label, rep in reps.items():
        classes.setdefault(rep, set()).add(label)
    for d in deltas:
        if isinstance(d, MomentumDelta):
            rep = reps[d.a]
            counts[rep] = counts.get(rep, 0) + 1

    new_momentum = []
    for rep in sorted(classes):
        members = sorted(classes[rep])
        edges = [MomentumDelta(rep, m) for m in members[1:]]
        new_momentum.extend(edges)
        for _ in range(counts.get(rep, 0) - len(edges)):
            new_momentum.append(edges[0])

    subst = {label: rep for label, rep in reps.items() if label != rep}
    others = [d for d in deltas if not isinstance(d, MomentumDelta)]
    return new_momentum, others, subst


def _clean_phases(phases, subst) -> tuple:
    """Apply momentum substitutions, drop trivial factors, merge oscillations.

    Unweighted phases over the same (sign-fixed) time combination multiply
    into a single factor, summed atom by atom in one map; weighted phases
    keep their produced shape, even when their argument cancels, since the
    limit map reads them structurally and each carries a 1/lambda^2.
    """
    weighted = []
    merged: dict = {}  # sign-fixed time -> {renamed atom: coefficient}
    for ph in phases:
        if ph.weighted:
            arg = substituted(ph.arg, subst) if subst else ph.arg
            weighted.append(ContractionPhase(ph.time, arg, True))
        elif ph.time:
            time, sign = ph.time, 1
            if time[0][1] < 0:
                time, sign = negated(time), -1
            acc = merged.setdefault(time, {})
            for a, c in ph.arg:
                a = a.renamed(subst) if subst else a
                acc[a] = acc.get(a, 0) + sign * c

    out = weighted
    for time, acc in merged.items():
        arg = comb(acc)
        if arg:
            out.append(ContractionPhase(time, arg, False))
    out.sort(key=lambda ph: ph.key())
    return tuple(out)


def _canonical_term(term: ScalarTerm):
    """Return the canonical form of one term, or None if the term is zero."""
    if term.coeff.is_zero():
        return None

    momentum, others, subst = _canonical_deltas_and_subst(term.deltas)
    for i, d in enumerate(others if subst else ()):
        if isinstance(d, PhaseDelta):
            arg = substituted(d.arg, subst)
            # an argument the identification cancels leaves delta(0), which
            # has no value to normalize to: that factor is kept as written
            if arg:
                others[i] = PhaseDelta(arg)
    all_deltas = tuple(sorted(momentum + others, key=delta_key))
    phases = _clean_phases(term.phases, subst)
    return ScalarTerm(term.coeff, term.two_pi_power, term.lambda_power,
                      phases, all_deltas)


def canonicalize(expr: ScalarExpr) -> ScalarExpr:
    """Canonical form: substitutions applied, like terms combined, sorted.

    Idempotent, and insensitive to the order in which terms and momentum
    deltas were recorded: label identification runs through a union-find
    with the smallest label as representative, like terms merge on
    `term_signature` and keep the phases that sort first, and the
    survivors sort by it.  A zero term is dropped before it can merge, so
    it never lends its phases to a like term.  The result carries the
    survivors' signatures, which mark it canonical, and a marked input is
    returned as it is.
    """
    if expr.canonical:
        return expr
    merged: dict = {}
    for term in expr.terms:
        ct = _canonical_term(term)
        if ct is None:
            continue
        sig = term_signature(ct)
        prev = merged.get(sig)
        if prev is not None:
            first = min(prev, ct, key=lambda t: [ph.key() for ph in t.phases])
            ct = ScalarTerm(prev.coeff + ct.coeff, first.two_pi_power,
                            first.lambda_power, first.phases, first.deltas)
        merged[sig] = ct
    survivors = sorted(((s, t) for s, t in merged.items() if not t.coeff.is_zero()),
                       key=lambda item: item[0])
    out = ScalarExpr(tuple(t for _, t in survivors))
    object.__setattr__(out, "signatures", tuple(s for s, _ in survivors))
    return out


EXPR_ZERO = canonicalize(ScalarExpr(()))
EXPR_ONE = canonicalize(ScalarExpr((TERM_ONE,)))


def multiply(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    terms = tuple(ta.times(tb) for ta in a.terms for tb in b.terms)
    return canonicalize(ScalarExpr(terms))


def conjugate(e: ScalarExpr) -> ScalarExpr:
    return canonicalize(ScalarExpr(tuple(t.conjugated() for t in e.terms)))


def canonically_equal(a: ScalarExpr, b: ScalarExpr) -> bool:
    """Semantic equality: same canonical terms with the same coefficients."""
    # both sides are sorted by signatures that do not repeat, so equal
    # signature tuples pair each term with its like term
    a, b = canonicalize(a), canonicalize(b)
    return a.signatures == b.signatures and all(
        s.coeff == t.coeff for s, t in zip(a.terms, b.terms))
