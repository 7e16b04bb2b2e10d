"""Exact verification of gap-condition partition identities.

Sparse Laurent polynomials in integer half-steps of q^(1/2) (`qpoly`),
q-binomial and q-trinomial coefficient builders and the one kernel every
q-product is built on (`qcoeff`), brute-force partition enumeration as
the independent oracle (`partitions`), the identity side builders and
registry (`schur_sums`), the forward-motion bijection (`bijection`), and
a command line front end (`cli`).
"""

__version__ = "0.1.0"

from .bijection import (DecodeError, MotionData, MotionRuleError,
                        apply_motions, certify_range, decode,
                        enumerate_motion_data, max_motions,
                        minimal_configuration)
from .partitions import (Partition, distinct_pm1_counts, format_partition,
                         is_schur_admissible, parse_partition, schur_counts,
                         schur_gf_oracle)
from .qcoeff import gauss_binomial, t_trinomial
from .qpoly import QPoly, XSeries
from .schur_sums import (IdentityId, UsageError, VerificationReport,
                         ali_gf_truncated, bounded_gf, cor1_bounded_sum,
                         dual_sides, even_odd_split_lhs,
                         kursungoz_gf_truncated, lhs_schur, q1_quad_value,
                         q1_triple_value, qt_limit_sum, recurrence_residual,
                         rhs_schur, schur_product_truncated, schur_summand,
                         summation_formula_sides, summation_limit_sum,
                         t0_binomial_sides, t0_half_sum,
                         t0_half_sum_truncated, t0_limit_product, verify,
                         warnaar_sides, weight_a, weight_b_half, weight_k,
                         weight_q)

__all__ = [
    "DecodeError", "IdentityId", "MotionData", "MotionRuleError",
    "Partition", "QPoly", "UsageError", "VerificationReport", "XSeries",
    "ali_gf_truncated", "apply_motions", "bounded_gf", "certify_range",
    "cor1_bounded_sum", "decode", "distinct_pm1_counts", "dual_sides",
    "enumerate_motion_data", "even_odd_split_lhs", "format_partition",
    "gauss_binomial", "is_schur_admissible", "kursungoz_gf_truncated",
    "lhs_schur", "max_motions", "minimal_configuration",
    "parse_partition", "q1_quad_value", "q1_triple_value", "qt_limit_sum",
    "recurrence_residual", "rhs_schur", "schur_counts",
    "schur_gf_oracle", "schur_product_truncated", "schur_summand",
    "summation_formula_sides", "summation_limit_sum", "t0_binomial_sides",
    "t0_half_sum", "t0_half_sum_truncated", "t0_limit_product",
    "t_trinomial", "verify", "warnaar_sides", "weight_a", "weight_b_half",
    "weight_k", "weight_q",
]
