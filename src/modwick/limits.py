"""Weak-coupling limit of correlators, by three independent routes.

In the limit the rescaled oscillation turns singular,

    (1/lambda^2) q(t - t', x)  ->  2 pi delta(t - t') delta(x),
    q(t - t', x)               ->  0  (unless the exponent cancels),

so only pairings without crossings survive: every crossing pattern
leaves behind an unweighted oscillation whose exponent stays nonzero
after the time deltas identify paired times.  The surviving algebra is
free: an annihilator meeting a creator on its right contracts to

    2 pi delta(t - t') delta(E(k) + k.p) delta(k - k')

with no swap term, and p-dependent scalars still move through creators
by the same momentum shift as at finite coupling.

Routes implemented here: a structural limit map applied to the finite
coupling closed form, the direct non-crossing closed form, and a
rewrite engine that contracts adjacent pairs in the limit algebra.
"""

from __future__ import annotations

from .scalars import (
    C_ONE, ContractionPhase, Dot, Energy, EXPR_ZERO, MomentumDelta, PDot,
    PhaseDelta, ScalarExpr, ScalarTerm, TimeDelta, canonicalize, comb,
    contraction_phases, label_classes, merged_exponent, substituted,
    time_difference,
)
from .words import Word, contraction_arg


def noncrossing_match(w: Word):
    """The unique non-crossing pairing of a word, or None.

    Scanning right to left, creators are stacked and every annihilator
    pops its nearest enclosing creator; any leftover on either side
    means no pairing exists at all.  The scan meets the annihilators in
    descending order, so the reversed pairs come out sorted.
    """
    stack = []
    pairs = []
    for pos in range(len(w.gens), 0, -1):
        g = w.gens[pos - 1]
        if g.dagger:
            stack.append(pos)
        else:
            if not stack:
                return None
            pairs.append((pos, stack.pop()))
    if stack:
        return None
    return tuple(reversed(pairs))


def _limit_term(term: ScalarTerm):
    """Apply the singular-limit map to one canonicalized structural term."""
    weighted = contraction_phases(term)
    if any(not ph.arg for ph in weighted):
        raise ValueError("weighted phase with zero argument has no limit")
    time_map = label_classes({t for t, _ in ph.time} for ph in weighted)

    # a residual oscillation with nonzero exponent kills the term
    residual = ScalarTerm(phases=tuple(
        ContractionPhase(substituted(ph.time, time_map), ph.arg)
        for ph in term.unweighted_phases()))
    if merged_exponent(residual):
        return None

    new_deltas = list(term.deltas)
    for ph in weighted:
        new_deltas.append(TimeDelta(ph.time))
        new_deltas.append(PhaseDelta(ph.arg))
    return ScalarTerm(term.coeff, term.two_pi_power + len(weighted), 0,
                      (), tuple(new_deltas))


def limit_of_pairing_sum(e: ScalarExpr) -> ScalarExpr:
    """Structural limit of a finite-coupling correlator expression.

    Every weighted phase becomes 2 pi, a time delta, and a phase delta;
    terms whose unweighted oscillations survive the induced time
    identifications are dropped.
    """
    e = canonicalize(e)
    out = []
    for term in e.terms:
        lt = _limit_term(term)
        if lt is not None:
            out.append(lt)
    return canonicalize(ScalarExpr(tuple(out)))


def correlator_wick_limit(w: Word) -> ScalarExpr:
    """Limit correlator built directly on the non-crossing pairing.

    Scanning right to left, every annihilator pops the creator on top of
    the stack.  The creators left below it close the enclosing pairs, and
    each adds its k.k' (the momentum deltas identify it with its
    annihilator's) to the phase delta.
    """
    stack, deltas = [], []
    for x in reversed(w.gens):
        if x.dagger:
            stack.append(x)
            continue
        if not stack:
            return EXPR_ZERO
        y = stack.pop()
        if x.pol != y.pol:
            return EXPR_ZERO
        arg = {Energy(x.k): 1, PDot(x.k): 1}
        for c in stack:
            d = Dot(c.k, x.k)
            arg[d] = arg.get(d, 0) + 1
        deltas += (MomentumDelta(x.k, y.k),
                   TimeDelta(time_difference(x.t, y.t)),
                   PhaseDelta(comb(arg)))
    if stack:
        return EXPR_ZERO

    term = ScalarTerm(C_ONE, len(w.gens) // 2, 0, (), tuple(deltas))
    return canonicalize(ScalarExpr((term,)))


def correlator_limit_rewrite(w: Word) -> ScalarExpr:
    """Limit correlator by contracting adjacent pairs in the free algebra.

    Repeatedly contracts the leftmost annihilator-creator neighbors,
    migrating each produced p-dependent scalar to the far right through
    the remaining generators; whatever generators survive are killed by
    the vacuum.
    """
    gens = list(w.gens)
    acc = ScalarTerm()
    while True:
        site = None
        for i in range(len(gens) - 1):
            if not gens[i].dagger and gens[i + 1].dagger:
                site = i
                break
        if site is None:
            break
        x, y = gens[site], gens[site + 1]
        if x.pol != y.pol:
            return EXPR_ZERO
        del gens[site:site + 2]
        deltas = (
            MomentumDelta(x.k, y.k),
            TimeDelta(time_difference(x.t, y.t)),
            PhaseDelta(contraction_arg(x, gens[site:])),
        )
        acc = acc.times(ScalarTerm(C_ONE, 1, 0, (), deltas))
    if gens:
        return EXPR_ZERO
    return canonicalize(ScalarExpr((acc,)))
