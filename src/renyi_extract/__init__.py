"""Renyi-divergence uniformity certification for k*-universal leftover hashing."""

from .bounds import (
    BoundInputs,
    BoundReport,
    bound_alpha_above_k,
    bound_infty,
    bound_integer_alpha,
    bound_real_alpha,
    bound_real_alpha_simplified,
    bucket_bound,
    dk_bound_sharp,
    dk_bound_simple,
    gamma_fn,
    m_threshold,
    stirling2,
)
from .errors import BudgetExceededError, ConfigError
from .extraction import (
    BucketEstimate,
    ExtractionResult,
    Source,
    empirical_divergences,
    expected_max_bucket,
    extract_joint,
)
from .families import (
    HashFamily,
    certify_k_star,
    evaluate,
    is_k_star_universal,
    verify_universality,
)
from .fields import FieldParams, find_irreducible, gf_add, gf_mul
from .measures import (
    Alpha,
    JointPmf,
    Pmf,
    conditional_divergence,
    conditional_renyi_entropy,
    joint_divergence_from_uniform,
    renyi_divergence,
    renyi_entropy,
    tilde_conditional_entropy,
    tv_distance,
)

__version__ = "0.1.0"
