"""Recovery of complex Bernoulli-Gaussian signals from real underdetermined
measurements: AMP, Bayesian-optimal AMP and the likelihood-exchanging joint
solver, plus support detection and a Monte-Carlo sweep harness."""

from ._version import __version__
from .amp import AmpConfig, amp_recover, camp_recover, lambda_heuristic, soft_threshold
from .bamp import bamp_recover, cbamp_recover
from .bossamp import cbossamp_recover, likelihood_update, prior_update
from .denoiser import DenoiserParams, denoise, denoise_deriv, denoise_numeric, exact_mmse
from .experiments import (
    GridConfig,
    SweepResult,
    extract_contour,
    run_grids,
    run_nmse_sweep,
    run_phase_transition,
    run_support_phase_transition,
)
from .model import (
    BernoulliGaussianPrior,
    ComplexVector,
    InstanceFormatError,
    ProblemInstance,
    RecoveryError,
    RecoveryOutput,
    RecoverySettings,
    combine,
    gen_matrix,
    gen_signal_exact_k,
    load_instance,
    make_instance,
    nmse,
    save_instance,
)
from .support import (
    SupportEstimate,
    SupportMetrics,
    detect_em,
    detect_prior_based,
    support_metrics,
)

__all__ = [
    "__version__",
    "AmpConfig", "amp_recover", "camp_recover", "lambda_heuristic", "soft_threshold",
    "bamp_recover", "cbamp_recover",
    "cbossamp_recover", "likelihood_update", "prior_update",
    "DenoiserParams", "denoise", "denoise_deriv", "denoise_numeric", "exact_mmse",
    "GridConfig", "SweepResult", "extract_contour", "run_grids", "run_nmse_sweep",
    "run_phase_transition", "run_support_phase_transition",
    "BernoulliGaussianPrior", "ComplexVector", "InstanceFormatError",
    "ProblemInstance", "RecoveryError", "RecoveryOutput", "RecoverySettings",
    "combine", "gen_matrix", "gen_signal_exact_k", "load_instance", "make_instance",
    "nmse", "save_instance",
    "SupportEstimate", "SupportMetrics", "detect_em", "detect_prior_based",
    "support_metrics",
]
