"""Bayesian-optimal AMP: the MMSE denoiser in the shared AMP loop.

The loop is amp._iterate; its step here, _mmse_step, is the closed-form
posterior mean of denoiser.py under the per-part prior (_mmse, which also
returns 1 - pi and the channel's terms for the exchange), with no residual
term and no state: gamma is frozen at the prior and its constants
(s2, log-odds, endpoint masks) are computed once per solve by _mmse_rows,
one row per problem, so the problems of one loop may have different priors.
bamp_recover runs one real part; cbamp_recover runs both parts together,
each stopping on its own rule and echoing gamma0 as both working gammas,
and _cbamp_batch the trials of a sweep chunk in one loop.  bamp_step is one
iteration of the same denoiser, for one part or for parts stacked along a
leading axis.
"""

from __future__ import annotations

import numpy as np

from .amp import AmpPartResult, _iterate, _rows, _single, _solve, _sq_norms, _stack
from .denoiser import (BETA_FLOOR, DenoiserParams, _endpoint_masks, _posterior_terms,
                       _prior_log_odds, _uniform)
from .model import BernoulliGaussianPrior, ComplexVector, RecoveryOutput, RecoverySettings


def _mmse(u, beta, s2, log_odds, slab=None, spike=None):
    """The MMSE denoiser: (x, summed derivative per part, pi, 1 - pi, the
    channel's terms (u^2, h, t, c) of _posterior_terms); s2, log_odds and the
    masks are scalars or the rows of _mmse_rows."""
    x, deriv, *rest = _posterior_terms(u, np.maximum(beta, BETA_FLOOR)[..., None], s2,
                                       log_odds, slab, spike)
    return x, np.add.reduce(deriv, axis=-1), *rest


def _mmse_step(u, beta, z, consts, state):
    """The loop's step (amp._iterate): _mmse at the consts of _mmse_rows."""
    return *_mmse(u, beta, *consts)[:2], None, state


def _mmse_rows(gammas, s2s, clamp: float):
    """_mmse's constants, one row per problem (amp._rows): s2, the log-odds
    of gamma clamped by clamp (one value if gamma is uniform) and the masks
    of the endpoint priors gamma = 0 and gamma = 1, each None if no problem
    has one."""
    gammas = _rows([_uniform(gamma) for gamma in gammas])
    return _rows(s2s), _prior_log_odds(gammas, clamp), *_endpoint_masks(gammas)


def _prior_rows(problems, priors, clamp: float):
    """Each problem's gamma0 as a vector over its A's N components, and
    _mmse_rows of the priors."""
    gamma0s = [prior.gamma0_vector(np.shape(A)[-1]) for (A, _), prior in zip(problems, priors)]
    return gamma0s, _mmse_rows(gamma0s, [prior.s2 for prior in priors], clamp)


def bamp_step(A, y, x, z, gamma, s2, beta_floor):
    """One iteration: pseudo-data, noise estimate, denoise, Onsager residual.

    Returns (x_new, z_new, u, beta) with u and beta the pre-update values
    that the output contract and support detection consume.
    """
    p = DenoiserParams(BETA_FLOOR, np.asarray(gamma), s2)
    beta = np.maximum(_sq_norms(z) / A.shape[0], beta_floor)
    u = x + z @ A
    x_new, deriv_sum, *_ = _mmse(u, beta, p.s2, _prior_log_odds(_uniform(p.gamma)),
                                 *_endpoint_masks(p.gamma))
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
    p = DenoiserParams(BETA_FLOOR, gamma, s2)
    return _single(_iterate([(A, Y)], _mmse_step, settings, settings.beta_floor,
                            _mmse_rows([p.gamma], [p.s2], settings.gamma_clamp)))[0]


def _cbamp_batch(problems, priors, settings: RecoverySettings) -> list:
    """cbamp_recover on each (A, y) of problems under its prior priors[j], in
    one loop: a RecoveryOutput per problem, or the RecoveryError of one whose
    iterate went non-finite."""
    gamma0s, consts = _prior_rows(problems, priors, settings.gamma_clamp)
    return _solve(problems, _mmse_step, settings, settings.beta_floor, consts,
                  gammas=lambda j, r, i: (gamma0s[j].copy(), gamma0s[j].copy()))


def cbamp_recover(A: np.ndarray, y: ComplexVector, prior: BernoulliGaussianPrior,
                  settings: RecoverySettings = RecoverySettings()) -> RecoveryOutput:
    """BAMP on both parts with independent stopping; gamma is echoed, never
    updated."""
    return _single(_cbamp_batch([(A, y)], [prior], settings))
