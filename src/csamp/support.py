"""Post-convergence support detection and support-comparison metrics.

Two rules: a prior-based comparison of the final working zero-probabilities,
and a single EM E-step that classifies each component's (u_r, u_i) pair as
effective noise versus signal plus effective noise.  Both resolve ties to
ZERO.  The EM decision is built from each part's activity log-odds
(denoiser._activity_log_odds, slab sigma_x2/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import _activity_log_odds, _prior_log_odds
from .model import BETA_FLOOR, ComplexVector, _checked


@dataclass(frozen=True)
class SupportEstimate:
    """Boolean activity mask over the N components."""

    active: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.active, dtype=bool)
        if mask.ndim != 1:
            raise ValueError("active mask must be 1-D")
        object.__setattr__(self, "active", mask)


@dataclass(frozen=True)
class SupportMetrics:
    exact_match: bool
    false_positives: int
    false_negatives: int


def detect_prior_based(gamma_r, gamma_i) -> SupportEstimate:
    """Declare a component zero iff g_r g_i >= (1-g_r)(1-g_i)."""
    g_r = np.asarray(gamma_r, dtype=float)
    g_i = np.asarray(gamma_i, dtype=float)
    if g_r.shape != g_i.shape or g_r.ndim != 1:
        raise ValueError("gamma vectors must be 1-D with equal length")
    _checked(gamma_r=g_r, gamma_i=g_i)
    zero = g_r * g_i >= (1.0 - g_r) * (1.0 - g_i)
    return SupportEstimate(~zero)


def _part_log_odds(u, beta: float, gamma, sigma_x2: float):
    """One part's activity log-odds in the EM model; endpoint gammas give +-inf."""
    u, g = np.asarray(u, dtype=float), np.asarray(gamma, dtype=float)
    with np.errstate(divide="ignore"):
        return _activity_log_odds(u * u, max(float(beta), BETA_FLOOR), sigma_x2 / 2.0,
                                  _prior_log_odds(g, 0.0))[0]


def detect_em(
    u_r, u_i, beta_r: float, beta_i: float, gamma_r, gamma_i, sigma_x2: float
) -> SupportEstimate:
    """Single E-step decision: zero iff sigma_00 >= sigma_11.

    The all-zero weight uses N(u; 0, beta) per part, the all-active weight
    N(u; 0, beta + sigma_x2/2); the mixed-activity weights cancel from the
    comparison, which is a_r + a_i <= 0 in the parts' activity log-odds, so
    large |u| never underflows to a 0-vs-0 tie.  Opposite endpoint gammas
    (an undefined sum) stay zero.  Checks its arguments by their input
    rules (model.INPUT_RULES), as detect_prior_based does its gammas.
    """
    u_r = np.asarray(u_r, dtype=float)
    u_i = np.asarray(u_i, dtype=float)
    if not (u_r.shape == u_i.shape and u_r.ndim == 1):
        raise ValueError("u vectors must be 1-D with equal length")
    gamma_r = np.asarray(gamma_r, dtype=float)
    gamma_i = np.asarray(gamma_i, dtype=float)
    _checked(u_r=u_r, u_i=u_i, beta_r=beta_r, beta_i=beta_i, gamma_r=gamma_r, gamma_i=gamma_i,
             sigma_x2=sigma_x2)
    a_r = _part_log_odds(u_r, beta_r, gamma_r, sigma_x2)
    a_i = _part_log_odds(u_i, beta_i, gamma_i, sigma_x2)
    with np.errstate(invalid="ignore"):
        return SupportEstimate(a_r + a_i > 0.0)


def support_metrics(true_x: ComplexVector, s: SupportEstimate) -> SupportMetrics:
    """False alarms and misses of the detected support against supp(x)."""
    if len(true_x) != s.active.size:
        raise ValueError("length mismatch")
    truth = true_x.support()
    fp = int(np.sum(s.active & ~truth))
    fn = int(np.sum(~s.active & truth))
    return SupportMetrics(exact_match=(fp == 0 and fn == 0),
                          false_positives=fp, false_negatives=fn)
