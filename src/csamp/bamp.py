"""Bayesian-optimal AMP: the MMSE denoiser in the shared AMP loop.

The loop is amp._iterate; its denoiser here is the closed-form posterior
mean of denoiser.py under the per-part prior, gamma frozen at the prior and
its constants (s2, log-odds, endpoint masks) computed once per solve, one
row per problem, so the problems of one loop may have different priors.
bamp_recover runs one real part; cbamp_recover runs both parts together,
each stopping on its own rule, and _cbamp_batch the trials of a sweep chunk
in one loop.  bamp_step is one iteration of the same step and kernel, for
one part or for parts stacked along a leading axis.
"""

from __future__ import annotations

import numpy as np

from .amp import AmpPartResult, _iterate, _rows, _single, _solve, _sq_norms, _stack
from .denoiser import BETA_FLOOR, _endpoint_masks, _posterior_terms, _prior_log_odds, _uniform
from .model import (GAMMA_CLAMP, BernoulliGaussianPrior, ComplexVector, RecoveryOutput,
                    RecoverySettings)


def _mmse(u, beta, s2, log_odds, slab=None, spike=None):
    """The loop's denoiser: (x, summed derivative per part, pi, u^2, 1 - pi);
    s2, log_odds and the masks are scalars or rows of _prior_rows."""
    x, deriv, *rest = _posterior_terms(u, np.maximum(beta, BETA_FLOOR)[..., None], s2,
                                       log_odds, slab, spike)
    return x, deriv.sum(axis=-1), *rest


def _mmse_denoiser(gamma, s2: float, clamp: float = GAMMA_CLAMP):
    """_mmse's (x, summed derivative, pi) at zero probabilities gamma (one
    vector for every part), with the inputs validated and gamma's constants
    (its log-odds clamped by clamp, one if gamma is uniform) computed once."""
    if not np.all((gamma >= 0.0) & (gamma <= 1.0)):
        raise ValueError("gamma must lie in [0, 1]")
    if not s2 > 0.0:
        raise ValueError("s2 must be positive")
    log_odds, (slab, spike) = _prior_log_odds(_uniform(gamma), clamp), _endpoint_masks(gamma)
    return lambda u, beta: _mmse(u, beta, s2, log_odds, slab, spike)[:3]


def _prior_rows(problems, priors, clamp: float):
    """Each problem's gamma0 as a vector over its A's N components, and the
    loop's constants of its prior, one row per problem (amp._rows): s2, the
    log-odds of gamma0 clamped by clamp (one value if gamma0 is uniform) and
    the masks of the endpoint priors gamma0 = 0 and gamma0 = 1, each None if
    no problem has one."""
    gamma0s = [prior.gamma0_vector(np.shape(A)[-1]) for (A, _), prior in zip(problems, priors)]
    gammas = _rows([_uniform(gamma0) for gamma0 in gamma0s])
    return gamma0s, (_rows([prior.s2 for prior in priors]), _prior_log_odds(gammas, clamp),
                     *_endpoint_masks(gammas))


def bamp_step(A, y, x, z, gamma, s2, beta_floor):
    """One iteration: pseudo-data, noise estimate, denoise, Onsager residual.

    Returns (x_new, z_new, u, beta) with u and beta the pre-update values
    that the output contract and support detection consume.
    """
    beta = np.maximum(_sq_norms(z) / A.shape[0], beta_floor)
    u = x + z @ A
    x_new, deriv_sum, _ = _mmse_denoiser(np.asarray(gamma), s2)(u, beta)
    z_new = y - x_new @ A.T + (deriv_sum / A.shape[0])[..., None] * z
    return x_new, z_new, u, beta


def bamp_recover(A: np.ndarray, y_part: np.ndarray, gamma0, s2: float,
                 settings: RecoverySettings = RecoverySettings()) -> AmpPartResult:
    """BAMP on one real part with per-part prior (gamma0, s2).

    Stops when the relative residual change drops to eps_tol, at t_max, or
    on divergence (flagged, not raised).  Non-finite iterates raise
    RecoveryError.
    """
    A, Y = _stack(A, y_part)
    gamma = np.broadcast_to(np.asarray(gamma0, dtype=float), (A.shape[1],))
    denoise = _mmse_denoiser(gamma, s2, settings.gamma_clamp)
    return _single(_iterate([(A, Y)], denoise, settings, settings.beta_floor))[0]


def _cbamp_batch(problems, priors, settings: RecoverySettings) -> list:
    """cbamp_recover on each (A, y) of problems under its prior priors[j], in
    one loop: a RecoveryOutput per problem, or the RecoveryError of one whose
    iterate went non-finite."""
    gamma0s, consts = _prior_rows(problems, priors, settings.gamma_clamp)
    return _solve(problems, _mmse, settings, settings.beta_floor, consts, gamma0s=gamma0s)


def cbamp_recover(A: np.ndarray, y: ComplexVector, prior: BernoulliGaussianPrior,
                  settings: RecoverySettings = RecoverySettings()) -> RecoveryOutput:
    """BAMP on both parts with independent stopping; gamma is echoed, never
    updated."""
    return _single(_cbamp_batch([(A, y)], [prior], settings))
