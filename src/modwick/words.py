"""Operator words and the normal-ordering recursion.

A word is a finite product of time- and momentum-indexed generators
a(t, k) and adag(t, k), optionally carrying polarization indices.  A
generator is the plain tuple (dagger, t, k, pol) that `create` and
`annihilate` build: a bool that is True for adag, the time and momentum
labels, and a polarization index 1, 2 or 3 or None.  The module rewrite
rules are

    a(t,k) a(t',k')    = q^{-1}(t - t', k.k') adag-free swap
    a(t,k) adag(t',k') = q(t - t', k.k') adag(t',k') a(t,k)
                         + (1/lambda^2) q(t - t', E(k) + k.p) delta(k - k')
    a(t,k) f(p)        = f(p + k) a(t,k)

with E(k) the shifted dispersion.  Contraction scalars depend on the
particle momentum p, so they are moved to the far right of the remaining
word before recursing; passing a creator with momentum g adds +k.g to
every k.p atom, passing an annihilator subtracts it.  The rewrite limit
keeps its own copy of this p-shift.  The vacuum kills words that begin
with a creator or end with an annihilator, which closes the recursion
for vacuum correlators before its per-call memo is asked.  A sub-word in
which some annihilator has no creator of its polarization to pair with
on its right ends empty too, so the recursion refuses it before
expanding it.  Words built from patterns share one set of label strings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import (
    C_ONE, Dot, Energy, PDot, ScalarExpr, ScalarTerm, TERM_ONE, canonicalize,
    comb, momentum_delta, time_difference, times,
)

MAX_GENERATORS = 12  # pairings grow as n!, so longer words are refused
# the labels (t_i, k_i) of position i, shared by the words of every pattern
_LABELS = tuple((f"t{i}", f"k{i}") for i in range(1, MAX_GENERATORS + 1))


class WordError(ValueError):
    """Structurally invalid operator word."""


def create(t: str, k: str, pol: int | None = None) -> tuple:
    return (True, t, k, pol)


def annihilate(t: str, k: str, pol: int | None = None) -> tuple:
    return (False, t, k, pol)


@dataclass(frozen=True, slots=True)
class Word:
    gens: tuple = ()

    def __post_init__(self):
        gens = self.gens
        for g in gens:
            if type(g) is not tuple:
                raise WordError(f"generator must be a tuple, got {type(g).__name__}")
            if len(g) != 4:
                raise WordError("generator must be (dagger, t, k, pol), "
                                f"got {len(g)} entries")
            dagger, t, k, _ = g
            if type(dagger) is not bool:
                raise WordError(f"generator dagger must be a bool, got {dagger!r}")
            if not (isinstance(t, str) and isinstance(k, str)):
                raise WordError(f"labels must be strings, got {t!r} and {k!r}")
        if len({g[1] for g in gens}) != len(gens):
            raise WordError("repeated time label in word")
        if len({g[2] for g in gens}) != len(gens):
            raise WordError("repeated momentum label in word")
        pols = [g[3] for g in gens]
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
        if len(gens) > MAX_GENERATORS:
            raise WordError(f"word has {len(gens)} generators, "
                            f"limit is {MAX_GENERATORS}")

    def __len__(self) -> int:
        return len(self.gens)

    def polarized(self) -> bool:
        return bool(self.gens) and self.gens[0][3] is not None


def word(*gens: tuple) -> Word:
    return Word(tuple(gens))


def adjoint(w: Word) -> Word:
    """Reverse the word and exchange creators with annihilators."""
    return Word(tuple(
        (not dagger, t, k, pol) for dagger, t, k, pol in reversed(w.gens)
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
        t, k = _LABELS[i] if i < MAX_GENERATORS else (f"t{i + 1}", f"k{i + 1}")
        gens.append((ch == "+", t, k, pol))
    return Word(tuple(gens))


# ---------------------------------------------------------------------------
# JSON word files

def word_to_json_dict(w: Word) -> dict:
    """The word-file object of `w`, the inverse of `word_from_json_dict`.

    It is the public way to write a word file that the CLI reads.
    """
    mode = "polarized" if w.polarized() else "scalar"
    out = []
    for dagger, t, k, pol in w.gens:
        entry = {"op": "adag" if dagger else "a", "t": t, "k": k}
        if pol is not None:
            entry["pol"] = pol
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
        gens.append((op == "adag", t, k, pol))
    return Word(tuple(gens))


# ---------------------------------------------------------------------------
# expansion of a leading annihilator

def expand_leading_annihilator(gens: tuple) -> list:
    """Commute the leading annihilator through the tail, one term per creator.

    Only creators of the annihilator's polarization get a term, since the
    contraction carries a polarization delta.  Term j contracts it with
    the creator tail[j], in one pass over the tail.  Its contraction phase,
    shifted by the tail generators to its right as the p-dependent scalar
    migrates to the far end of the word, comes before the swap phases of
    the generators to its left.  Each term is a pair (scalar, rest), rest
    the remaining generators in their order.
    """
    if not gens or gens[0][0]:
        raise WordError("word must start with an annihilator")
    lead, tail = gens[0], gens[1:]
    _, t, k, pol = lead
    out, swaps = [], ()
    for j, (dagger, other_t, other_k, other_pol) in enumerate(tail):
        if dagger and other_pol == pol:
            # not limits.contraction_arg: routes that check each other share no formula
            acc = {Energy(k): 1, PDot(k): 1}
            for right_dagger, _, right_k, _ in tail[j + 1:]:
                acc[Dot(k, right_k)] = 1 if right_dagger else -1
            phase = (time_difference(t, other_t), comb(acc), True)
            scalar = ScalarTerm(C_ONE, 0, -2, (phase,) + swaps,
                                (momentum_delta(k, other_k),))
            out.append((scalar, tail[:j] + tail[j + 1:]))
        d, c = Dot(k, other_k), 1 if dagger else -1
        swaps += ((time_difference(t, other_t), ((d, c),), False),)
    return out


def _pairable(gens: tuple) -> bool:
    """Whether each annihilator can be paired with a creator of its
    polarization to its right.  Read right to left, a creator opens one
    depth of its polarization and an annihilator closes one; the word is
    pairable when no depth goes negative and none is left open."""
    depth = {}
    for dagger, _, _, pol in reversed(gens):
        d = depth.get(pol, 0) + (1 if dagger else -1)
        if d < 0:
            return False
        depth[pol] = d
    return not any(depth.values())


def _raw_correlator_terms(gens: tuple, memo: dict) -> tuple:
    """Raw terms C(gens) of the vacuum correlator of a sub-word, memoized;
    none, never stored, where the vacuum kills a leading creator or a
    trailing annihilator, or where no pairing closes the sub-word."""
    if not gens:
        return (TERM_ONE,)
    if gens[0][0] or not gens[-1][0]:
        return ()
    terms = memo.get(gens)
    if terms is None:
        if not _pairable(gens):
            return ()
        terms = memo[gens] = tuple(
            times(scalar, t)
            for scalar, rest in expand_leading_annihilator(gens)
            for t in _raw_correlator_terms(rest, memo)
        )
    return terms


def correlator_recursive(w: Word) -> ScalarExpr:
    """Vacuum correlator by repeated expansion of the leftmost annihilator.

    Expanding the leading annihilator of a word gives terms s_j times a
    shorter word w_j, so the raw terms obey C(w) = [s_j * t for each j,
    for t in C(w_j)], and C(w_j) depends on w_j alone.  The recursion is
    therefore a dynamic program over sub-words, memoized by their
    generators for the length of one call: one entry per expanded
    sub-word, none for the empty word, a sub-word the vacuum kills or one
    that no pairing closes (`_pairable`), so no entry is empty.
    The memo stores raw terms, not canonical ones: the final
    `canonicalize` then sees exactly the terms, with phases concatenated
    in the same order, that a plain walk of the expansion tree would
    collect, so the output is byte-identical to it.
    """
    return canonicalize(ScalarExpr(_raw_correlator_terms(w.gens, {})))
