"""Exact scalar arithmetic for oscillation phases and delta factors.

Scalars produced by normal ordering are finite products of a rational
complex coefficient, integer powers of 2*pi and of the coupling constant
lambda, oscillating exponential factors, and distributional delta factors.
A phase factor

    q(t - t', x) = exp(-i ((t - t') / lambda^2) x)

is stored structurally as a :class:`ContractionPhase`: an integer
combination of time labels paired with an integer combination of momentum
atoms, plus a flag marking the 1/lambda^2 weight that accompanies a
contraction.  Equality of terms is decided through the merged exponent, a
sparse bilinear form over (time label, atom) pairs, so that two phase
lists multiplying to the same exponential compare equal even when they
factor differently.

Momentum atoms never evaluate here; they stay symbolic until the numeric
layer assigns concrete vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def __neg__(self) -> "RationalComplex":
        return RationalComplex(-self.re, -self.im)

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


C_ZERO = RationalComplex.of(0)
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
# integer combinations

@dataclass(frozen=True)
class _Comb:
    """Integer combination of labels or atoms, sorted, zero entries dropped."""

    items: tuple = ()

    @staticmethod
    def _norm_items(acc: dict) -> tuple:
        return tuple(sorted((x, c) for x, c in acc.items() if c != 0))

    @staticmethod
    def _renamed(x, mapping: dict):
        return mapping.get(x, x)

    @classmethod
    def of(cls, mapping: dict):
        return cls(cls._norm_items(dict(mapping)))

    def plus(self, other):
        acc = dict(self.items)
        for x, c in other.items:
            acc[x] = acc.get(x, 0) + c
        return type(self)(self._norm_items(acc))

    def negated(self):
        return type(self)(tuple((x, -c) for x, c in self.items))

    def is_zero(self) -> bool:
        return not self.items

    def substituted(self, mapping: dict):
        """Rename momentum or time labels, summing entries that coincide."""
        acc: dict = {}
        for x, c in self.items:
            x = self._renamed(x, mapping)
            acc[x] = acc.get(x, 0) + c
        return type(self)(self._norm_items(acc))


class TimeComb(_Comb):
    """Integer combination of time labels, e.g. t1 - t2."""

    @staticmethod
    def difference(t_plus: str, t_minus: str) -> "TimeComb":
        # not a dict literal: equal labels must cancel, not overwrite
        acc = {t_plus: 1}
        acc[t_minus] = acc.get(t_minus, 0) - 1
        return TimeComb.of(acc)

    def labels(self) -> set:
        return {t for t, _ in self.items}


class PhaseArg(_Comb):
    """Integer combination of momentum atoms, e.g. E(k1) + P(k1) + D(k1,k2)."""

    _renamed = staticmethod(Atom.renamed)


# ---------------------------------------------------------------------------
# phases

@dataclass(frozen=True)
class ContractionPhase:
    """One oscillating factor q(time, arg), weighted when it carries 1/lambda^2."""

    time: TimeComb
    arg: PhaseArg
    weighted: bool = False

    def key(self) -> tuple:
        return (0 if self.weighted else 1, self.time.items,
                tuple((str(a), c) for a, c in self.arg.items))


def oscillation(t_from: str, t_to: str, arg: PhaseArg, power: int = 1,
                weighted: bool = False) -> ContractionPhase:
    """Build q(t_from - t_to, arg)^power; power -1 negates the argument."""
    if power not in (1, -1):
        raise ValueError("oscillation power must be +1 or -1")
    a = arg if power == 1 else arg.negated()
    return ContractionPhase(TimeComb.difference(t_from, t_to), a, weighted)


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

    comb: TimeComb

    def __post_init__(self):
        if self.comb.is_zero():
            raise ValueError("degenerate time delta")
        if self.comb.items[0][1] < 0:
            object.__setattr__(self, "comb", self.comb.negated())


@dataclass(frozen=True)
class PhaseDelta:
    """delta(phase argument), sign-fixed so its first coefficient is positive."""

    arg: PhaseArg

    def __post_init__(self):
        if self.arg.is_zero():
            raise ValueError("degenerate phase delta")
        if self.arg.items[0][1] < 0:
            object.__setattr__(self, "arg", self.arg.negated())


Delta = MomentumDelta | TimeDelta | PhaseDelta


def delta_key(d: Delta) -> tuple:
    if isinstance(d, MomentumDelta):
        return (0, d.a, d.b)
    if isinstance(d, TimeDelta):
        return (1, ";".join(f"{t}:{c}" for t, c in d.comb.items), "")
    return (2, ";".join(f"{a}:{c}" for a, c in d.arg.items), "")


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

    def scaled(self, coeff: RationalComplex) -> "ScalarTerm":
        return ScalarTerm(self.coeff * coeff, self.two_pi_power,
                          self.lambda_power, self.phases, self.deltas)

    def conjugated(self) -> "ScalarTerm":
        phases = tuple(
            ContractionPhase(ph.time, ph.arg.negated(), ph.weighted)
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
        for t, ct in ph.time.items:
            for a, ca in ph.arg.items:
                key = (t, a)
                acc[key] = acc.get(key, 0) + ct * ca
    return {k: v for k, v in acc.items() if v != 0}


def _merged_key(term: ScalarTerm) -> tuple:
    items = [((t, str(a)), c) for (t, a), c in merged_exponent(term).items()]
    items.sort()
    return tuple(items)


def term_signature(term: ScalarTerm) -> tuple:
    """Canonical identity of a term up to its coefficient.

    Structural phase lists that multiply to the same exponential share a
    signature, which is what lets independently derived normal forms
    compare equal term by term.
    """
    dkeys = tuple(sorted(delta_key(d) for d in term.deltas))
    return (term.lambda_power, term.two_pi_power, dkeys, _merged_key(term))


def _term_sort_key(term: ScalarTerm) -> tuple:
    return (
        term_signature(term),
        tuple(ph.key() for ph in term.phases),
        (str(term.coeff.re), str(term.coeff.im)),
    )


@dataclass(frozen=True)
class ScalarExpr:
    terms: tuple = ()

    def is_zero(self) -> bool:
        return not self.terms


EXPR_ZERO = ScalarExpr(())
EXPR_ONE = ScalarExpr((TERM_ONE,))


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
    into a single factor; weighted phases keep their produced shape since
    the limit map reads them structurally.
    """
    weighted = []
    merged: dict = {}
    for ph in phases:
        arg = ph.arg.substituted(subst) if subst else ph.arg
        if ph.time.is_zero() or arg.is_zero():
            continue
        if ph.weighted:
            weighted.append(ContractionPhase(ph.time, arg, True))
            continue
        time = ph.time
        if time.items[0][1] < 0:
            time = time.negated()
            arg = arg.negated()
        merged[time] = merged.get(time, PhaseArg()).plus(arg)

    unweighted = [
        ContractionPhase(time, arg, False)
        for time, arg in merged.items()
        if not arg.is_zero()
    ]
    out = weighted + unweighted
    out.sort(key=lambda ph: ph.key())
    return tuple(out)


def _canonical_term(term: ScalarTerm):
    """Return the canonical form of one term, or None if the term is zero."""
    if term.coeff.is_zero():
        return None

    momentum, others, subst = _canonical_deltas_and_subst(term.deltas)
    for i, d in enumerate(others if subst else ()):
        if isinstance(d, PhaseDelta):
            arg = d.arg.substituted(subst)
            # an argument the identification cancels leaves delta(0), which
            # has no value to normalize to: that factor is kept as written
            if not arg.is_zero():
                others[i] = PhaseDelta(arg)
    all_deltas = tuple(sorted(momentum + others, key=delta_key))
    phases = _clean_phases(term.phases, subst)
    return ScalarTerm(term.coeff, term.two_pi_power, term.lambda_power,
                      phases, all_deltas)


def _keyed_canonical(expr: ScalarExpr) -> list:
    """Canonical terms, sorted and merged, each paired with its signature.

    Every term is keyed once: the sort key is computed per canonical term
    and like terms merge by comparing the signature stored with the head
    of their run, which a merge leaves unchanged.
    """
    keyed = []
    for term in expr.terms:
        ct = _canonical_term(term)
        if ct is not None:
            keyed.append((_term_sort_key(ct), ct))
    keyed.sort(key=lambda kt: kt[0])  # stable: ties keep their input order

    combined: list = []
    for key, term in keyed:
        sig = key[0]
        if combined and combined[-1][0] == sig:
            prev = combined[-1][1]
            combined[-1] = (sig, ScalarTerm(prev.coeff + term.coeff,
                                            prev.two_pi_power, prev.lambda_power,
                                            prev.phases, prev.deltas))
        else:
            combined.append((sig, term))
    return [(sig, t) for sig, t in combined if not t.coeff.is_zero()]


def canonicalize(expr: ScalarExpr) -> ScalarExpr:
    """Canonical form: substitutions applied, like terms combined, sorted.

    Idempotent, and insensitive to the order in which momentum deltas were
    recorded since label identification runs through a union-find with the
    smallest label as representative.  Each term's sort key, signature
    included, is computed once.
    """
    return ScalarExpr(tuple(t for _, t in _keyed_canonical(expr)))


def add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    return canonicalize(ScalarExpr(a.terms + b.terms))


def multiply(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    terms = tuple(ta.times(tb) for ta in a.terms for tb in b.terms)
    return canonicalize(ScalarExpr(terms))


def negate(e: ScalarExpr) -> ScalarExpr:
    return ScalarExpr(tuple(t.scaled(RationalComplex.of(-1)) for t in e.terms))


def conjugate(e: ScalarExpr) -> ScalarExpr:
    return canonicalize(ScalarExpr(tuple(t.conjugated() for t in e.terms)))


def canonically_equal(a: ScalarExpr, b: ScalarExpr) -> bool:
    """Semantic equality: same canonical terms with the same coefficients."""
    # canonical terms come out in signature order with distinct signatures
    def keys(e):
        return [(sig, t.coeff) for sig, t in _keyed_canonical(e)]

    return keys(a) == keys(b)
