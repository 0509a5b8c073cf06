"""Four-point word, three independent routes to the same answer.

The word a a a+ a+ admits two pairings: a nested one and a crossing
one.  At finite coupling both contribute; the recursion and the
pairing-sum closed form must agree canonically.  In the limit only the
nested pairing survives, and three different limit constructions
(direct stacking, limit of the closed form, iterated rewriting) must
coincide exactly.
"""

from modwick import (
    annotated_pairing_terms, canonically_equal, correlator_limit_rewrite,
    correlator_pairing_sum, correlator_recursive, correlator_wick_limit,
    limit_of_pairing_sum, to_latex, word_from_pattern,
)

w = word_from_pattern("aa++")
print("word: a(t1,k1) a(t2,k2) a+(t3,k3) a+(t4,k4)\n")

print("pairings:")
for at in annotated_pairing_terms(w):
    tag = "crossing" if at.crossings else "noncrossing"
    print("  pairs=%s  %s" % (list(at.pairing), tag))
print()

closed = correlator_pairing_sum(w)
recursive = correlator_recursive(w)
assert canonically_equal(closed, recursive)
print("recursion == pairing sum (canonical):  ok")
print("finite-coupling expectation, pairing-sum form:")
print(to_latex(closed), "\n")

routes = {
    "direct":        correlator_wick_limit(w),
    "limit of sum":  limit_of_pairing_sum(closed),
    "rewrite":       correlator_limit_rewrite(w),
}
reference = routes["direct"]
for name, e in routes.items():
    assert canonically_equal(e, reference), name
    print("limit route %-13s agrees" % name)
print("\nthe surviving (nested) limit term:")
print(to_latex(reference), "\n")

# with polarizations 1,2,2,1 the crossing pairing needs pol 1 == pol 2
# at its contraction and dies; only the nested term remains
pol = word_from_pattern("aa++", pols=[1, 2, 2, 1])
print("polarized word [1,2,2,1]: %d of 2 pairings survive"
      % len(annotated_pairing_terms(pol)))
