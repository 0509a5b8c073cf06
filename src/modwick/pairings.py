"""Pair partitions and the closed-form finite-coupling correlator.

A 2n-point vacuum correlator is a sum over pairings that match every
annihilator with a creator standing to its right.  Each pairing
contributes one term:

  * per pair (m, m'): a momentum delta, a 1/lambda^2 weight, and a
    weighted phase q(t_m - t_m', E(k_m) + k_m.p + sum of k_a.k_m over
    pairs (a, a') whose span strictly encloses (m, m'));
  * per crossing pattern a < b < a' < b' between pairs (a, a') and
    (b, b'): an unweighted factor q(t_b - t_a', k_a.k_b).

The enclosure restriction on the phase shift is forced by the rewrite
recursion: a pair crossed by another receives no shift, the crossing
shows up only through the extra unweighted factor.  The two routes are
checked against each other term by term in the verification suites.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import (
    C_ONE, C_ZERO, ContractionPhase, Dot, Energy, EXPR_ONE, EXPR_ZERO,
    MomentumDelta, PDot, PhaseArg, ScalarExpr, ScalarTerm, TimeComb,
    canonicalize,
)
from .words import Word, WordError


@dataclass(frozen=True)
class Pairing:
    """Pairs of 1-based word positions (annihilator, creator), sorted."""

    pairs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))

    def __len__(self) -> int:
        return len(self.pairs)


def enumerate_pairings(w: Word) -> list:
    """All pairings matching each annihilator to a creator on its right."""
    anns = [i + 1 for i, g in enumerate(w.gens) if not g.dagger]
    cres = [i + 1 for i, g in enumerate(w.gens) if g.dagger]
    if len(anns) != len(cres):
        return []

    out = []

    def assign(idx: int, taken: set, acc: list):
        if idx == len(anns):
            out.append(Pairing(tuple(acc)))
            return
        m = anns[idx]
        for c in cres:
            if c > m and c not in taken:
                taken.add(c)
                acc.append((m, c))
                assign(idx + 1, taken, acc)
                acc.pop()
                taken.remove(c)

    assign(0, set(), [])
    out.sort(key=lambda p: p.pairs)
    return out


def enclosing_pairs(pairing: Pairing, h: tuple) -> list:
    """Pairs whose span strictly encloses the whole pair h."""
    m, m2 = tuple(h)
    return [p for p in pairing.pairs
            if p != (m, m2) and p[0] < m and m2 < p[1]]


def crossing_patterns(pairing: Pairing) -> list:
    """Ordered pairs ((a,a'), (b,b')) with a < b < a' < b'."""
    out = []
    for p in pairing.pairs:
        for q in pairing.pairs:
            if p[0] < q[0] < p[1] < q[1]:
                out.append((p, q))
    return out


def crossing_count(pairing: Pairing) -> int:
    return len(crossing_patterns(pairing))


def pairing_term(w: Word, pairing: Pairing) -> ScalarTerm:
    """Closed-form term of one pairing, built without running the recursion."""
    gens = w.gens
    n = len(pairing)
    if 2 * n != len(gens):
        raise WordError("pairing does not cover the word")
    for m, m2 in pairing.pairs:
        if gens[m - 1].dagger or not gens[m2 - 1].dagger:
            raise WordError("pairing must match annihilators to later creators")

    phases = []
    deltas = []
    for m, m2 in pairing.pairs:
        x, y = gens[m - 1], gens[m2 - 1]
        if x.pol is not None and x.pol != y.pol:
            return ScalarTerm(C_ZERO)
        arg = {Energy(x.k): 1, PDot(x.k): 1}
        for a, _ in enclosing_pairs(pairing, (m, m2)):
            d = Dot(gens[a - 1].k, x.k)
            arg[d] = arg.get(d, 0) + 1
        phases.append(ContractionPhase(TimeComb.difference(x.t, y.t),
                                       PhaseArg.of(arg), weighted=True))
        deltas.append(MomentumDelta(x.k, y.k))

    for (a, a2), (b, _b2) in crossing_patterns(pairing):
        ka, kb = gens[a - 1].k, gens[b - 1].k
        phases.append(ContractionPhase(
            TimeComb.difference(gens[b - 1].t, gens[a2 - 1].t),
            PhaseArg.of({Dot(ka, kb): 1}), weighted=False))

    return ScalarTerm(C_ONE, 0, -2 * n, tuple(phases), tuple(deltas))


def correlator_pairing_sum(w: Word) -> ScalarExpr:
    """Vacuum correlator as the sum of closed-form pairing terms."""
    if w.annihilator_count() != w.creator_count():
        return EXPR_ZERO
    if not w.gens:
        return EXPR_ONE
    terms = [pairing_term(w, p) for p in enumerate_pairings(w)]
    terms = [t for t in terms if not t.coeff.is_zero()]
    if not terms:
        return EXPR_ZERO
    return canonicalize(ScalarExpr(tuple(terms)))


@dataclass(frozen=True)
class AnnotatedTerm:
    pairing: Pairing
    crossings: int
    term: ScalarTerm


def annotated_pairing_terms(w: Word) -> list:
    """Per-pairing terms with crossing counts, canonicalized one by one."""
    out = []
    for p in enumerate_pairings(w):
        raw = pairing_term(w, p)
        if raw.coeff.is_zero():
            continue
        canon = canonicalize(ScalarExpr((raw,)))
        if canon.terms:
            out.append(AnnotatedTerm(p, crossing_count(p), canon.terms[0]))
    return out
