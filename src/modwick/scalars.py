"""Exact scalar arithmetic for oscillation phases and delta factors.

Scalars produced by normal ordering are finite products of a rational
complex coefficient, integer powers of 2*pi and of the coupling constant
lambda, oscillating exponential factors, and distributional delta factors.
A term is the plain tuple (coeff, two_pi_power, lambda_power, phases,
deltas) that `ScalarTerm` builds, and `times` multiplies two of them.
Its coefficient is the plain pair (re, im) of Python rationals: ints on
every route, since each pairing contributes with unit weight, and a
Fraction only for a non-integral part that `serialize.from_json_dict`
reads.  A phase factor

    q(t - t', x) = exp(-i ((t - t') / lambda^2) x)

is stored structurally as the plain tuple (time, arg, weighted): an
integer combination of time labels, an integer combination of momentum
atoms, and a flag marking the 1/lambda^2 weight that accompanies a
contraction.  A delta factor is the plain tuple (MOMENTUM, a, b) for
delta(k_a - k_b) with a < b, (TIME, comb) for delta of a time combination
or (PHASE, arg) for delta of a phase argument, the last two sign-fixed
so their first coefficient is positive; only `momentum_delta`,
`time_delta` and `phase_delta` build one.  A combination is a plain
tuple of (label or atom, coefficient) pairs, sorted, with zero entries
dropped; `comb` builds one from a mapping.  Equality of terms is decided
through the merged exponent, a sparse bilinear form over (time label,
atom) pairs, so that two phase lists multiplying to the same exponential
compare equal even when they factor differently.

A momentum atom is the plain tuple (kind, a, b) that `Energy`, `Dot` or
`PDot` builds; `atom_text` is its stable text key, E(k), D(a,b) or P(k),
on which phases, deltas and terms sort first.  Atoms stay symbolic until
the numeric layer assigns concrete vectors.  Terms, coefficients,
phases, deltas and atoms hold only strings, ints, bools and such
tuples, so full collections of the cyclic collector untrack them,
innermost first, for good.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# phase atoms

# (ENERGY, k, "") is omega(k) + |k|^2 / 2, (DOT, a, b) with a <= b is k_a.k_b
# and (PDOT, k, "") is k.p; E < D < P is the order of atoms in an argument
ENERGY, DOT, PDOT = 0, 1, 2


def Energy(k: str) -> tuple:
    return (ENERGY, k, "")


def Dot(a: str, b: str) -> tuple:
    return (DOT, a, b) if a <= b else (DOT, b, a)


def PDot(k: str) -> tuple:
    return (PDOT, k, "")


def atom_text(atom: tuple) -> str:
    """The stable text key of an atom: E(k), D(a,b) or P(k)."""
    kind, a, b = atom
    if kind == ENERGY:
        return f"E({a})"
    if kind == DOT:
        return f"D({a},{b})"
    return f"P({a})"


def renamed_atom(atom: tuple, mapping: dict) -> tuple:
    kind, a, b = atom
    if kind == DOT:
        return Dot(mapping.get(a, a), mapping.get(b, b))
    return (Energy if kind == ENERGY else PDot)(mapping.get(a, a))


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
        x = renamed_atom(x, mapping) if isinstance(x, tuple) else mapping.get(x, x)
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

def phase_key(ph: tuple) -> tuple:
    """Sort key of a phase: weighted first, then its time, then its argument."""
    time, arg, weighted = ph
    # each atom's `atom_text`, then its plain (kind, a, b) tuple: labels
    # whose texts collide never tie
    return (0 if weighted else 1, time,
            tuple((atom_text(a), c) for a, c in arg), arg)


def oscillation(t_from: str, t_to: str, arg: tuple, power: int = 1) -> tuple:
    """Build q(t_from - t_to, arg)^power; power -1 negates the argument."""
    if power not in (1, -1):
        raise ValueError("oscillation power must be +1 or -1")
    a = arg if power == 1 else negated(arg)
    return (time_difference(t_from, t_to), a, False)


# ---------------------------------------------------------------------------
# delta factors

# the leading rank of every delta, and of its `delta_key`
MOMENTUM, TIME, PHASE = 0, 1, 2


def momentum_delta(a: str, b: str) -> tuple:
    """delta(a - b) identifying two momentum labels, stored with a < b."""
    if a == b:
        raise ValueError(f"degenerate momentum delta on {a!r}")
    return (MOMENTUM, a, b) if a < b else (MOMENTUM, b, a)


def time_delta(time: tuple) -> tuple:
    """delta(time combination), sign-fixed so its first coefficient is positive."""
    if not time:
        raise ValueError("degenerate time delta")
    return (TIME, negated(time) if time[0][1] < 0 else time)


def phase_delta(arg: tuple) -> tuple:
    """delta(phase argument), sign-fixed so its first coefficient is positive."""
    if not arg:
        raise ValueError("degenerate phase delta")
    return (PHASE, negated(arg) if arg[0][1] < 0 else arg)


def delta_key(d: tuple) -> tuple:
    """Sort key of a delta: its text, then its entries, so no two deltas tie."""
    if d[0] == MOMENTUM:
        return d
    tag, items = d
    if tag == TIME:
        return (TIME, ";".join(f"{t}:{c}" for t, c in items), items)
    return (PHASE, ";".join(f"{atom_text(a)}:{c}" for a, c in items), items)


# ---------------------------------------------------------------------------
# terms and expressions

C_ONE = (1, 0)


def ScalarTerm(coeff: tuple = C_ONE, two_pi_power: int = 0, lambda_power: int = 0,
               phases: tuple = (), deltas: tuple = ()) -> tuple:
    """The term tuple; by default the constant 1."""
    return (coeff, two_pi_power, lambda_power, phases, deltas)


TERM_ONE = ScalarTerm()


def times(s: tuple, t: tuple) -> tuple:
    """The product of two terms: coefficients multiply, powers add, factors join."""
    (s_re, s_im), s_two_pi, s_lambda, s_phases, s_deltas = s
    (t_re, t_im), t_two_pi, t_lambda, t_phases, t_deltas = t
    return ((s_re * t_re - s_im * t_im, s_re * t_im + s_im * t_re),
            s_two_pi + t_two_pi, s_lambda + t_lambda,
            s_phases + t_phases, s_deltas + t_deltas)


def contraction_phases(term: tuple) -> tuple:
    """The weighted phases of a term, each carrying one 1/lambda^2."""
    _, _, lambda_power, phases, _ = term
    weighted = tuple(ph for ph in phases if ph[2])
    if lambda_power != -2 * len(weighted):
        raise ValueError(
            "term weight mismatch: lambda power "
            f"{lambda_power} with {len(weighted)} weighted phases")
    return weighted


def merged_exponent(term: tuple) -> dict:
    """Sparse bilinear exponent over (time label, atom), summed over phases.

    q(t1 - t2, x) contributes +1 at (t1, x) and -1 at (t2, x); products of
    phases accumulate entrywise, so the merged exponent is the complete
    oscillation content of the term regardless of how it factors.
    """
    acc: dict = {}
    _, _, _, phases, _ = term
    for time, arg, _ in phases:
        for t, ct in time:
            for a, ca in arg:
                key = (t, a)
                acc[key] = acc.get(key, 0) + ct * ca
    return {k: v for k, v in acc.items() if v != 0}


def _exponent_entries(ph: tuple) -> tuple:
    """One phase's share of the merged exponent, each key led by its atom's text."""
    time, arg, _ = ph
    return tuple(((t, atom_text(a), a), ct * ca) for t, ct in time for a, ca in arg)


def _signature(term: tuple, delta_keys, entry_lists) -> tuple:
    acc: dict = {}
    for entries in entry_lists:
        for k, v in entries:
            acc[k] = acc.get(k, 0) + v
    # flat entries skip comparing a nested key; distinct keys leave v out of the order
    entries = sorted([(t, text, a, v) for (t, text, a), v in acc.items() if v])
    _, two_pi_power, lambda_power, _, _ = term
    return (lambda_power, two_pi_power, tuple(delta_keys), tuple(entries))


def term_signature(term: tuple) -> tuple:
    """Key of a term up to its coefficient, text first ("t10" before "t2").

    It is (lambda_power, two_pi_power, delta keys, entries): one flat entry
    (t, atom_text(atom), atom, v) per nonzero merged-exponent value, sorted.
    Like terms share it: structural phase lists that multiply to the same
    exponential share a signature, and the structural value after each
    string keeps terms whose label strings collide apart.
    `canonicalize` merges and sorts on it; `canonically_equal` compares it.
    """
    _, _, _, phases, deltas = term
    return _signature(term, sorted(map(delta_key, deltas)),
                      map(_exponent_entries, phases))


@dataclass(frozen=True)
class ScalarExpr:
    terms: tuple = ()
    # the terms' signatures: set by canonicalize and on EXPR_ZERO alone, so
    # no constructor can claim it
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


def _star_normal(momentum: list):
    """Star-normal momentum deltas of any shape, and the label substitution map."""
    reps = label_classes(d[1:] for d in momentum)
    classes: dict = {}
    counts: dict = {}
    for label, rep in reps.items():
        classes.setdefault(rep, set()).add(label)
    for d in momentum:
        rep = reps[d[1]]
        counts[rep] = counts.get(rep, 0) + 1

    new_momentum = []
    for rep in sorted(classes):
        members = sorted(classes[rep])
        edges = [momentum_delta(rep, m) for m in members[1:]]
        new_momentum.extend(edges)
        for _ in range(counts.get(rep, 0) - len(edges)):
            new_momentum.append(edges[0])
    return new_momentum, {label: rep for label, rep in reps.items() if label != rep}


def _canonical_deltas_and_subst(deltas):
    """Star-normalize momentum deltas and build the label substitution map;
    disjoint pairs are star-normal already, others go through `_star_normal`."""
    momentum = [d for d in deltas if d[0] == MOMENTUM]
    others = [d for d in deltas if d[0] != MOMENTUM]
    subst = {b: a for _, a, b in momentum}
    if len(subst.keys() | subst.values()) != 2 * len(momentum):
        momentum, subst = _star_normal(momentum)
    return momentum, others, subst


class _PhaseMemo(dict):
    """Per call, each canonical phase's facts: `phase_key`, phase, exponent entries."""

    def __init__(self):
        self.renamed = {}  # phase -> (its labels, {their representatives: facts})
        self.deltas = {}  # one object per distinct delta, which writers render once

    def __missing__(self, ph: tuple) -> tuple:
        facts = self[ph] = (phase_key(ph), ph, _exponent_entries(ph))
        return facts

    def rename(self, ph: tuple, subst: dict) -> tuple:
        """The facts of `ph` renamed by `subst`, sign-fixed if unweighted."""
        labels, by_reps = self.renamed.get(ph) or self.renamed.setdefault(
            ph, (tuple([x for a, _ in ph[1] for x in a[1:]]), {}))
        reps = tuple(map(subst.get, labels, labels))
        facts = by_reps.get(reps)
        if facts is None:
            time, arg, weighted = ph
            if not weighted and time[0][1] < 0:
                time, arg = negated(time), negated(arg)
            if reps != labels:  # a valid combination no label moves stays as it is
                arg = substituted(arg, subst)
            facts = by_reps[reps] = self[time, arg, weighted]
        return facts


def _clean_phases(phases, subst, memo: _PhaseMemo) -> list:
    """Apply momentum substitutions, drop trivial factors, merge oscillations.

    Unweighted phases over the same (sign-fixed) time combination multiply
    into a single factor, summed atom by atom; weighted phases keep their
    produced shape, even when their argument cancels, since the limit map
    reads them structurally and each carries a 1/lambda^2.  Returns sorted facts.
    """
    out = []
    merged: dict = {}  # sign-fixed time -> the facts of the phases over it
    for ph in phases:
        if ph[2]:
            out.append(memo.rename(ph, subst))
        elif ph[0]:
            facts = memo.rename(ph, subst)
            merged.setdefault(facts[1][0], []).append(facts)
    for time, group in merged.items():
        if len(group) > 1:  # one factor, the arguments summed
            arg = substituted([x for _, ph, _ in group for x in ph[1]], {})
            group = [memo[time, arg, False]]
        if group[0][1][1]:
            out.append(group[0])
    out.sort()
    return out


def _canonical_term(term: tuple, memo: _PhaseMemo):
    """The canonical form of one term and its signature, or None if it is zero."""
    coeff, two_pi_power, lambda_power, phases, deltas = term
    if coeff == (0, 0):
        return None

    momentum, others, subst = _canonical_deltas_and_subst(deltas)
    for i, d in enumerate(others if subst else ()):
        if d[0] == PHASE:
            arg = substituted(d[1], subst)
            # an argument the identification cancels leaves delta(0), which
            # has no value to normalize to, and one it leaves alone is
            # normalized already: those factors are kept as written
            if arg and arg != d[1]:
                others[i] = phase_delta(arg)
    deltas = sorted((delta_key(d), memo.deltas.setdefault(d, d))
                    for d in momentum + others)
    phases = _clean_phases(phases, subst, memo)
    ct = ScalarTerm(coeff, two_pi_power, lambda_power,
                    tuple(ph for _, ph, _ in phases), tuple(d for _, d in deltas))
    return ct, _signature(ct, (k for k, _ in deltas), (e for _, _, e in phases))


EXPR_ZERO = ScalarExpr(())
object.__setattr__(EXPR_ZERO, "signatures", ())  # the one marked zero


def _marked(survivors) -> ScalarExpr:
    """The terms of (signature, term) pairs, sorted by signature, marked canonical."""
    survivors = sorted(survivors, key=lambda item: item[0])
    out = ScalarExpr(tuple(t for _, t in survivors))
    object.__setattr__(out, "signatures", tuple(s for s, _ in survivors))
    return out


def canonicalize(expr: ScalarExpr) -> ScalarExpr:
    """Canonical form: substitutions applied, like terms combined, sorted.

    Idempotent, and insensitive to the order in which terms and momentum
    deltas were recorded: label identification takes the smallest label
    of each class, directly for disjoint pairs and through a union-find
    otherwise, like terms merge on `term_signature` and keep the phases
    that sort first, and the
    survivors sort by it.  A zero term is dropped before it can merge, so
    it never lends its phases to a like term.  The result carries the
    survivors' signatures, which mark it canonical, and a marked input is
    returned as it is; an unmarked one with no terms gives `EXPR_ZERO`.
    Each distinct phase is worked out once per call, and equal deltas of
    the result are one object.
    """
    if expr.canonical:
        return expr
    if not expr.terms:
        return EXPR_ZERO
    memo = _PhaseMemo()
    merged: dict = {}
    for term in expr.terms:
        done = _canonical_term(term, memo)
        if done is None:
            continue
        ct, sig = done
        prev = merged.get(sig)
        if prev is not None:
            (prev_re, prev_im), (re, im) = prev[0], ct[0]
            first = min(prev, ct, key=lambda t: [phase_key(ph) for ph in t[3]])
            ct = ScalarTerm((prev_re + re, prev_im + im), *first[1:])
        merged[sig] = ct
    return _marked((s, t) for s, t in merged.items() if t[0] != (0, 0))


def canonicalize_each(terms) -> list:
    """Each term canonicalized on its own, sharing one memo; None for a zero term."""
    memo = _PhaseMemo()
    return [done and done[0] for done in (_canonical_term(t, memo) for t in terms)]


def multiply(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    """The canonical form of the term-wise product."""
    terms = tuple(times(ta, tb) for ta in a.terms for tb in b.terms)
    return canonicalize(ScalarExpr(terms))


def conjugate(e: ScalarExpr) -> ScalarExpr:
    """The canonical form of each coefficient conjugated and each phase
    argument negated."""
    return canonicalize(ScalarExpr(tuple(
        ((re, -im), two_pi_power, lambda_power,
         tuple((time, negated(arg), weighted) for time, arg, weighted in phases),
         deltas)
        for (re, im), two_pi_power, lambda_power, phases, deltas in e.terms)))


def canonically_equal(a: ScalarExpr, b: ScalarExpr) -> bool:
    """Semantic equality: same canonical terms with the same coefficients."""
    # both sides are sorted by signatures that do not repeat, so equal
    # signature tuples pair each term with its like term
    a, b = canonicalize(a), canonicalize(b)
    return a.signatures == b.signatures and all(
        s[0] == t[0] for s, t in zip(a.terms, b.terms))
