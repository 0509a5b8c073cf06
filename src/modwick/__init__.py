"""Correlators of a dynamically deformed field-atom operator algebra.

The package normal-orders words in rescaled creation/annihilation
operators whose exchange relations carry oscillating scalar factors and
an operator-valued momentum shift, computes vacuum expectation values by
independent symbolic routes, takes the weak-coupling limit three ways,
and checks the limit numerically with Gaussian-smeared kernels.
"""

from .scalars import (
    ContractionPhase, Dot, Energy, MomentumDelta, PDot, PhaseDelta,
    RationalComplex, ScalarExpr, ScalarTerm, TimeDelta, atom_text,
    canonicalize, canonically_equal, comb, conjugate, merged_exponent,
    multiply, oscillation, term_signature, time_difference,
)
from .serialize import (
    from_json_dict, from_json_str, to_json_dict, to_json_str, to_latex,
)
from .words import (
    Generator, Word, WordError, adjoint, annihilate, correlator_recursive,
    create, expand_leading_annihilator, word, word_from_json_dict,
    word_from_pattern, word_to_json_dict,
)
from .pairings import (
    annotated_pairing_terms, correlator_pairing_sum, crossing_count,
    crossing_patterns, enclosing_pairs, enumerate_pairings, pairing_term,
)
from .limits import (
    correlator_limit_rewrite, correlator_wick_limit, limit_of_pairing_sum,
    noncrossing_match,
)
from .kernels import (
    Assignment, ConvergenceRow, GaussianTest, STANDARD_GAUSSIAN,
    UnassignedLabelError, arg_value, delta_kernel, delta_kernel_quadrature,
    delta_kernel_target, fit_loglog_slope, gauss_fourier, overlap,
    phase_value, strip_momentum_deltas, term_convergence,
    term_convergence_quadrature, term_value, term_value_quadrature,
    vanishing_kernel,
)
from .verify import all_passed, report, run_all

__version__ = "0.1.0"
