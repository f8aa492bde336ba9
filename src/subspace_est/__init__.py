"""Structured principal subspace estimation: geometry, constraint sets,
synthetic models, projection estimators, metric-entropy tools, and a Monte
Carlo risk harness."""

from .constraints import (ConstraintSet, contains, nonneg, parse_constraint,
                          project, random_member, signs, sparse, subspace,
                          unconstrained)
from .entropy import (EntropyEstimate, PackingSet, covering_number_estimate,
                      dudley_estimate, greedy_local_packing,
                      sign_packing_construction, sparse_packing_construction,
                      vg_codebook)
from .errors import (BoundViolated, BudgetExhausted, ConstraintViolation,
                     DegenerateInput, DimensionMismatch, InfeasibleParameters,
                     NotPositiveDefinite, RankDeficient, SubspaceEstError,
                     TooFewRows, TooLarge)
from .estimators import (EstimatorConfig, IterationResult, estimate,
                         exhaustive_argmax, objective, objective_matrix,
                         spectral_estimate)
from .geometry import (OrthonormalFrame, SpectrumSpec, orthonormalize,
                       procrustes_align, quadratic_form_gap, subspace_distance)
from .harness import (PhaseTransitionFit, RateFit, RiskEstimate, SweepRow,
                      detect_phase_transition, fit_rate, monte_carlo_risk,
                      sweep, theory_rate)
from .matio import read_matrix, write_matrix
from .models import (ModelSpec, SampledInstance, kl_denoising_fixed,
                     kl_gaussian_generic, kl_spiked_wishart, sample_covariance,
                     sample_instance)

__version__ = "0.1.0"

__all__ = [
    "BoundViolated", "BudgetExhausted", "ConstraintSet", "ConstraintViolation",
    "DegenerateInput", "DimensionMismatch", "EntropyEstimate",
    "EstimatorConfig", "InfeasibleParameters", "IterationResult", "ModelSpec",
    "NotPositiveDefinite", "OrthonormalFrame", "PackingSet",
    "PhaseTransitionFit", "RankDeficient", "RateFit", "RiskEstimate",
    "SampledInstance", "SpectrumSpec", "SubspaceEstError", "SweepRow",
    "TooFewRows", "TooLarge", "contains", "covering_number_estimate",
    "detect_phase_transition", "dudley_estimate", "estimate",
    "exhaustive_argmax", "fit_rate", "greedy_local_packing",
    "kl_denoising_fixed", "kl_gaussian_generic", "kl_spiked_wishart",
    "monte_carlo_risk", "nonneg", "objective", "objective_matrix",
    "orthonormalize", "parse_constraint", "procrustes_align", "project",
    "quadratic_form_gap", "random_member", "read_matrix", "sample_covariance",
    "sample_instance", "sign_packing_construction", "signs", "sparse",
    "sparse_packing_construction", "spectral_estimate", "subspace",
    "subspace_distance", "sweep", "theory_rate", "unconstrained",
    "vg_codebook", "write_matrix",
]
