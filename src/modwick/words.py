"""Operator words and the normal-ordering recursion.

A word is a finite product of time- and momentum-indexed generators
a(t, k) and adag(t, k), optionally carrying polarization indices.  The
module rewrite rules are

    a(t,k) a(t',k')    = q^{-1}(t - t', k.k') adag-free swap
    a(t,k) adag(t',k') = q(t - t', k.k') adag(t',k') a(t,k)
                         + (1/lambda^2) q(t - t', E(k) + k.p) delta(k - k')
    a(t,k) f(p)        = f(p + k) a(t,k)

with E(k) the shifted dispersion.  Contraction scalars depend on the
particle momentum p, so they are moved to the far right of the remaining
word before recursing; passing a creator with momentum g adds +k.g to
every k.p atom, passing an annihilator subtracts it.  The vacuum kills
words that begin with a creator or end with an annihilator, which closes
the recursion for vacuum correlators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .scalars import (
    C_ONE, ContractionPhase, Dot, Energy, MomentumDelta, PDot, ScalarExpr,
    ScalarTerm, TERM_ONE, canonicalize, comb, time_difference,
)

MAX_GENERATORS = 12  # pairings grow as n!, so longer words are refused


class WordError(ValueError):
    """Structurally invalid operator word."""


class Generator(NamedTuple):
    dagger: bool
    t: str
    k: str
    pol: int | None = None


def create(t: str, k: str, pol: int | None = None) -> Generator:
    return Generator(True, t, k, pol)


def annihilate(t: str, k: str, pol: int | None = None) -> Generator:
    return Generator(False, t, k, pol)


@dataclass(frozen=True)
class Word:
    gens: tuple = ()

    def __post_init__(self):
        for g in self.gens:
            if not (isinstance(g.t, str) and isinstance(g.k, str)):
                raise WordError(f"labels must be strings, got {g.t!r} and {g.k!r}")
        times = [g.t for g in self.gens]
        if len(set(times)) != len(times):
            raise WordError("repeated time label in word")
        momenta = [g.k for g in self.gens]
        if len(set(momenta)) != len(momenta):
            raise WordError("repeated momentum label in word")
        pols = [g.pol for g in self.gens]
        if any(p is not None for p in pols) and any(p is None for p in pols):
            raise WordError("mixed polarized and unpolarized generators")
        for p in pols:
            if p is None:
                continue
            # bool is an int subclass, and True == 1.0 == 1
            if isinstance(p, bool) or not isinstance(p, int):
                raise WordError(f"polarization index must be an integer, got {p!r}")
            if p not in (1, 2, 3):
                raise WordError(f"polarization index out of range: {p}")
        if len(self.gens) > MAX_GENERATORS:
            raise WordError(f"word has {len(self.gens)} generators, "
                            f"limit is {MAX_GENERATORS}")

    def __len__(self) -> int:
        return len(self.gens)

    def polarized(self) -> bool:
        return bool(self.gens) and self.gens[0].pol is not None


def word(*gens: Generator) -> Word:
    return Word(tuple(gens))


def adjoint(w: Word) -> Word:
    """Reverse the word and exchange creators with annihilators."""
    return Word(tuple(
        Generator(not g.dagger, g.t, g.k, g.pol) for g in reversed(w.gens)
    ))


def word_from_pattern(pattern: str, pols=None) -> Word:
    """Build a word from a pattern string, 'a' annihilator, '+' creator.

    Labels run t1.., k1.. left to right; `pols` optionally assigns
    polarization indices positionally, one per character.
    """
    if pols is not None and len(pols) != len(pattern):
        raise WordError(f"pattern has {len(pattern)} generators "
                        f"but {len(pols)} polarizations")
    gens = []
    for i, ch in enumerate(pattern):
        if ch not in "a+":
            raise WordError(f"bad pattern character {ch!r}")
        pol = None if pols is None else pols[i]
        gens.append(Generator(ch == "+", f"t{i + 1}", f"k{i + 1}", pol))
    return Word(tuple(gens))


# ---------------------------------------------------------------------------
# JSON word files

def word_to_json_dict(w: Word) -> dict:
    mode = "polarized" if w.polarized() else "scalar"
    out = []
    for g in w.gens:
        entry = {"op": "adag" if g.dagger else "a", "t": g.t, "k": g.k}
        if g.pol is not None:
            entry["pol"] = g.pol
        out.append(entry)
    return {"mode": mode, "word": out}


def word_from_json_dict(d: dict) -> Word:
    if not isinstance(d, dict) or "word" not in d:
        raise WordError("word file must be an object with a 'word' list")
    mode = d.get("mode", "scalar")
    if mode not in ("scalar", "polarized"):
        raise WordError(f"unknown mode {mode!r}")
    if not isinstance(d["word"], list):
        raise WordError("'word' must be a list of generators")
    gens = []
    for i, entry in enumerate(d["word"]):
        if not isinstance(entry, dict):
            raise WordError(f"word entry {i} is not an object")
        op = entry.get("op")
        if op not in ("a", "adag"):
            raise WordError(f"word entry {i}: op must be 'a' or 'adag'")
        t, k = entry.get("t"), entry.get("k")
        if not isinstance(t, str) or not isinstance(k, str):
            raise WordError(f"word entry {i}: t and k must be label strings")
        pol = entry.get("pol")
        if mode == "polarized":
            if pol is None:
                raise WordError(f"word entry {i}: polarized mode needs 'pol'")
            if isinstance(pol, bool) or not isinstance(pol, int):
                raise WordError(f"word entry {i}: 'pol' must be an integer")
        elif pol is not None:
            raise WordError(f"word entry {i}: 'pol' given in scalar mode")
        gens.append(Generator(op == "adag", t, k, pol))
    return Word(tuple(gens))


# ---------------------------------------------------------------------------
# rewrite rules

def contraction_arg(x: Generator, right) -> tuple:
    """Phase argument E(k) + k.p of annihilator x, moved past `right`.

    The contraction scalar depends on p and migrates to the far end of
    the word: a(t,k) f(p) = f(p + k) a(t,k), so passing a creator with
    momentum g adds +k.g and passing an annihilator subtracts it.
    """
    acc = {Energy(x.k): 1, PDot(x.k): 1}
    for g in right:
        d = Dot(x.k, g.k)
        acc[d] = acc.get(d, 0) + (1 if g.dagger else -1)
    return comb(acc)


# ---------------------------------------------------------------------------
# expansion of a leading annihilator

def expand_leading_annihilator(gens: tuple) -> list:
    """Commute the leading annihilator through the tail, one term per creator.

    Only creators of the annihilator's polarization get a term, since the
    contraction carries a polarization delta.  Term j contracts it with
    the creator tail[j].  Its scalar collects the swap phase of every tail
    generator left of that creator, and the contraction phase itself is
    shifted by the tail generators to its right because the p-dependent
    scalar migrates to the far end of the word.  Each term is a pair
    (scalar, rest), rest the remaining generators in their order.
    """
    if not gens or gens[0].dagger:
        raise WordError("word must start with an annihilator")
    lead, tail = gens[0], gens[1:]
    creators = [j for j, g in enumerate(tail) if g.dagger and g.pol == lead.pol]
    if not creators:
        return []
    # term j takes the swap phases of tail[:j] as a prefix of this one tuple
    swaps = tuple(
        ContractionPhase(time_difference(lead.t, other.t),
                         ((Dot(lead.k, other.k), 1 if other.dagger else -1),))
        for other in tail[:creators[-1]]
    )
    out = []
    for j in creators:
        y = tail[j]
        phase = ContractionPhase(time_difference(lead.t, y.t),
                                 contraction_arg(lead, tail[j + 1:]),
                                 weighted=True)
        scalar = ScalarTerm(C_ONE, 0, -2, (phase,) + swaps[:j],
                            (MomentumDelta(lead.k, y.k),))
        out.append((scalar, tail[:j] + tail[j + 1:]))
    return out


def _raw_correlator_terms(gens: tuple, memo: dict) -> tuple:
    """Raw terms C(gens) of the vacuum correlator of a sub-word, memoized."""
    terms = memo.get(gens)
    if terms is None:
        if not gens:
            terms = (TERM_ONE,)
        elif gens[0].dagger:
            terms = ()  # a leading creator has vanishing vacuum expectation
        else:
            terms = tuple(
                scalar.times(t)
                for scalar, rest in expand_leading_annihilator(gens)
                for t in _raw_correlator_terms(rest, memo)
            )
        memo[gens] = terms
    return terms


def correlator_recursive(w: Word, memo: dict | None = None) -> ScalarExpr:
    """Vacuum correlator by repeated expansion of the leftmost annihilator.

    Expanding the leading annihilator of a word gives terms s_j times a
    shorter word w_j, so the raw terms obey C(w) = [s_j * t for each j,
    for t in C(w_j)], and C(w_j) depends on w_j alone.  The recursion is
    therefore a dynamic program over sub-words, memoized by their
    generators.  The memo stores raw terms, not canonical ones: the final
    `canonicalize` then sees exactly the terms, with phases concatenated
    in the same order, that a plain walk of the expansion tree would
    collect, so the output is byte-identical to it.

    `memo` maps generator tuples to raw term tuples.  By default it lives
    for one call; `verify.run_all` passes one memo to all the suites of a
    run.  Entries are valid for any word, so a memo may be shared freely,
    but it grows with every distinct sub-word it sees.
    """
    terms = _raw_correlator_terms(w.gens, {} if memo is None else memo)
    return canonicalize(ScalarExpr(terms))
