"""Correlators of a dynamically deformed field-atom operator algebra.

The package normal-orders words in rescaled creation/annihilation
operators whose exchange relations carry oscillating scalar factors and
an operator-valued momentum shift, computes vacuum expectation values by
independent symbolic routes, takes the weak-coupling limit three ways,
and checks the limit numerically with Gaussian-smeared kernels.
"""

from .scalars import (
    Dot, Energy, PDot, ScalarExpr, ScalarTerm, atom_text, canonicalize,
    canonically_equal, comb, conjugate, merged_exponent, multiply,
    oscillation, term_signature, time_difference, times,
)
from .serialize import (
    from_json_dict, from_json_str, to_json_dict, to_json_str, to_latex,
)
from .words import (
    Word, WordError, adjoint, annihilate, correlator_recursive,
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
from .verify import all_passed, report, run_all

__version__ = "0.1.0"

# the numeric layer loads numpy, so its names load on first use (PEP 562)
_KERNEL_NAMES = frozenset("""Assignment ConvergenceRow GaussianTest QuadratureError
    STANDARD_GAUSSIAN UnassignedLabelError arg_value delta_kernel delta_kernel_quadrature
    delta_kernel_target fit_loglog_slope gauss_fourier overlap phase_value
    strip_momentum_deltas term_convergence term_convergence_quadrature
    term_value term_value_quadrature vanishing_kernel""".split())


def __getattr__(name: str):
    if name in _KERNEL_NAMES:
        from . import kernels
        return getattr(kernels, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
