"""Pair partitions and the closed-form finite-coupling correlator.

A 2n-point vacuum correlator is a sum over pairings that match every
annihilator with a creator of its polarization standing to its right
(a contraction carries a polarization delta).  Each pairing contributes
one term:

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
    C_ONE, ContractionPhase, Dot, Energy, MomentumDelta, PDot, ScalarExpr,
    ScalarTerm, canonicalize, comb, time_difference,
)
from .words import Word, WordError


def enumerate_pairings(w: Word) -> list:
    """All pairings of each annihilator to a later creator of its polarization,
    each the sorted tuple of its 1-based (annihilator, creator) positions."""
    anns = [(i, g.pol) for i, g in enumerate(w.gens, 1) if not g.dagger]
    cres = [(i, g.pol) for i, g in enumerate(w.gens, 1) if g.dagger]
    if len(anns) != len(cres):
        return []

    out = []

    def assign(idx: int, taken: set, acc: list):
        if idx == len(anns):
            out.append(tuple(acc))
            return
        m, pol = anns[idx]
        for c, c_pol in cres:
            if c > m and c_pol == pol and c not in taken:
                taken.add(c)
                acc.append((m, c))
                assign(idx + 1, taken, acc)
                acc.pop()
                taken.remove(c)

    # annihilators in order, creators ascending: each pairing and `out` are sorted
    assign(0, set(), [])
    return out


def enclosing_pairs(pairing: tuple, h: tuple) -> list:
    """Pairs whose span strictly encloses the whole pair h."""
    m, m2 = h
    return [p for p in pairing if p[0] < m and m2 < p[1]]


def crossing_patterns(pairing: tuple) -> list:
    """Ordered pairs ((a,a'), (b,b')) with a < b < a' < b'."""
    out = []
    for p in pairing:
        for q in pairing:
            if p[0] < q[0] < p[1] < q[1]:
                out.append((p, q))
    return out


def crossing_count(pairing: tuple) -> int:
    return len(crossing_patterns(pairing))


def pairing_term(w: Word, pairing: tuple) -> ScalarTerm:
    """Closed-form term of one pairing, built without running the recursion."""
    gens = w.gens
    n = len(pairing)
    if sorted(i for p in pairing for i in p) != list(range(1, len(gens) + 1)):
        raise WordError("pairing must use every position of the word once")

    phases = []
    deltas = []
    for m, m2 in pairing:
        x, y = gens[m - 1], gens[m2 - 1]
        if m > m2 or x.dagger or not y.dagger:
            raise WordError(f"pair {(m, m2)} is not an annihilator before a creator")
        if x.pol != y.pol:
            raise WordError(f"pair {(m, m2)} joins two polarizations")
        arg = {Energy(x.k): 1, PDot(x.k): 1}
        for a, _ in enclosing_pairs(pairing, (m, m2)):
            d = Dot(gens[a - 1].k, x.k)
            arg[d] = arg.get(d, 0) + 1
        phases.append(ContractionPhase(time_difference(x.t, y.t),
                                       comb(arg), weighted=True))
        deltas.append(MomentumDelta(x.k, y.k))

    for (a, a2), (b, _b2) in crossing_patterns(pairing):
        ka, kb = gens[a - 1].k, gens[b - 1].k
        phases.append(ContractionPhase(
            time_difference(gens[b - 1].t, gens[a2 - 1].t),
            ((Dot(ka, kb), 1),), weighted=False))

    return ScalarTerm(C_ONE, 0, -2 * n, tuple(phases), tuple(deltas))


def correlator_pairing_sum(w: Word) -> ScalarExpr:
    """Vacuum correlator as the sum of closed-form pairing terms."""
    return canonicalize(ScalarExpr(tuple(
        pairing_term(w, p) for p in enumerate_pairings(w))))


@dataclass(frozen=True)
class AnnotatedTerm:
    pairing: tuple
    crossings: int
    term: ScalarTerm


def annotated_pairing_terms(w: Word) -> list:
    """Per-pairing terms with crossing counts, canonicalized one by one."""
    out = []
    for p in enumerate_pairings(w):
        (term,) = canonicalize(ScalarExpr((pairing_term(w, p),))).terms
        out.append(AnnotatedTerm(p, crossing_count(p), term))
    return out
