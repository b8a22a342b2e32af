"""Joint recovery through a likelihood exchange between the parts.

cbossamp runs the shared AMP loop (amp._iterate) on the stacked parts with
the MMSE denoiser of bamp.py and a per-iteration hook, the exchange: each
component's evidence for being zero is extracted from one part
(likelihood_update), converted into a probability (prior_update) and
installed as the other part's working zero-probability for the next step.
This couples the two estimates through the shared support without ever
mixing their amplitudes.

Because a part's working gamma is a function of the other part's previous
pseudo-data u', its estimate depends on u' as well as on its own u, and
AMP with such a denoiser needs an Onsager term for that dependence too
(Javanmard-Montanari, arXiv:1211.5164).  Each residual therefore carries,
besides the usual own-part term, b * z' with

    b = (1/M) sum_n dx_n/du'_n
      = (1/M) sum_n g pi_n (1 - pi_n) u_n u'_n s/(beta (beta + s)),

where g = s2/(s2 + beta_own) is the Wiener gain, pi the posterior activity,
(beta, s) the variance pair of the other part's likelihood and z' the
residual that formed u'.  Since x = g u pi, b is one more reduction over
arrays the step already holds.  Without it the coupled chains can lock into
a period-2 oscillation of gamma on instances that cBAMP solves.

The exchange stops on the loop's joint rule (summed relative residual
change).  exchange=False is cbamp_recover itself, bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .amp import AmpPartResult, _complex_output, _iterate, _sq_norms, _stack
from .bamp import _mmse, cbamp_recover
from .denoiser import _endpoint_masks, _prior_log_odds
from .model import BernoulliGaussianPrior, ComplexVector, RecoveryOutput, RecoverySettings


def likelihood_update(u, beta: float, gamma0, s2: float, beta_floor: float = 1e-12,
                      gamma_clamp: float = 1e-12):
    """Log-likelihood ratio for a component being zero given pseudo-data u.

    l = log(g/(1-g)) + (log((beta+s2)/beta) - u^2 s2 / (beta (beta+s2))) / 2,
    with gamma0 clamped away from {0,1} so the log-odds stay finite.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite pseudo-data u")
    if not np.isfinite(beta):
        raise ValueError("non-finite beta")
    beta = max(float(beta), beta_floor)
    g = np.clip(np.asarray(gamma0, dtype=float), gamma_clamp, 1.0 - gamma_clamp)
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite gamma0")
    out = _zero_log_odds(u, beta, np.log(g / (1.0 - g)), s2)
    return out if out.ndim else float(out)


def _zero_log_odds(u, beta, log_prior_odds, s2):
    """likelihood_update's arithmetic on validated inputs; beta may hold one
    value per part, shaped to broadcast against u."""
    total = beta + s2
    return log_prior_odds + 0.5 * (np.log(total / beta) - u * u * (s2 / (beta * total)))


def prior_update(l, gamma_clamp: float = 1e-12):
    """Updated zero-probability 1/(1+exp(-l)), clamped into (0, 1)."""
    out = np.clip(expit(l), gamma_clamp, 1.0 - gamma_clamp)
    return out if np.ndim(out) else float(out)


class _Exchange:
    """The likelihood exchange: the loop's hook, and the denoiser at the
    working zero-probabilities it installs (starting at the prior)."""

    def __init__(self, gamma0, prior: BernoulliGaussianPrior, settings: RecoverySettings):
        self.s2 = prior.s2
        self.like_s2 = prior.s2 if settings.part_variance == "half" else prior.sigma_x2
        self.cross = settings.likelihood_variant == "printed-cross-beta"
        self.clamp = settings.gamma_clamp
        g = np.clip(gamma0, self.clamp, 1.0 - self.clamp)
        self.log_prior_odds = np.log(g / (1.0 - g))
        self.gamma = np.stack((gamma0, gamma0))
        self.log_odds, self.masks = _prior_log_odds(gamma0), _endpoint_masks(gamma0)
        self.memory = None  # (w, z'); the prior gamma depends on no data

    def denoise(self, u, beta):
        return _mmse(u, beta, self.s2, self.log_odds, *self.masks)

    def __call__(self, u, beta, x, pi, z):
        """The memory term b z' of this step; then each part's likelihood
        sets the other part's gamma, and w = u s/(beta (beta + s)) and the
        residual z that formed u are kept for the other part's next term."""
        term = 0.0
        if self.memory is not None:
            w, z_other = self.memory  # x (1 - pi) w = g pi (1 - pi) u w
            term = ((x * (1.0 - pi) * w).sum(axis=1) / z.shape[1])[:, None] * z_other
        beta_l = (beta[::-1] if self.cross else beta)[:, None]
        l = _zero_log_odds(u, beta_l, self.log_prior_odds, self.like_s2)
        self.gamma = prior_update(l, self.clamp)[::-1]
        # clamped into (0, 1), the working gammas have no endpoint priors
        self.log_odds, self.masks = _prior_log_odds(self.gamma), (None, None)
        slope = self.like_s2 / (beta_l * (beta_l + self.like_s2))
        self.memory = ((u * slope)[::-1], z[::-1])
        return term


def cbossamp_recover(
    A: np.ndarray,
    y: ComplexVector,
    prior: BernoulliGaussianPrior,
    settings: RecoverySettings = RecoverySettings(),
    exchange: bool = True,
) -> RecoveryOutput:
    """Joint recovery of a complex signal through the likelihood exchange.

    Per iteration both parts take a BAMP step with their per-component
    working gamma; then each part's likelihood (from its own u and, per
    settings.likelihood_variant, its own or the other part's beta) updates
    the *other* part's gamma, and each residual carries the memory term of
    that dependence (module docstring).  Stops on the summed relative
    residual criterion or t_max.  exchange=False freezes gamma at the prior
    and is cbamp_recover.
    """
    if not exchange:
        return cbamp_recover(A, y, prior, settings)
    A, Y = _stack(A, y.re, y.im)
    n = A.shape[1]
    gamma0 = prior.gamma0_vector(n)
    if not _sq_norms(Y).any():  # no data: the prior mean, gamma stays the prior
        parts = [AmpPartResult(np.zeros(n), np.zeros(n), settings.beta_floor, 1, True, False)
                 for _ in range(2)]
        return _complex_output(parts, gamma0.copy(), gamma0.copy())
    ex = _Exchange(gamma0, prior, settings)
    parts = _iterate(A, Y, ex.denoise, settings, settings.beta_floor, hook=ex)
    return _complex_output(parts, ex.gamma[0].copy(), ex.gamma[1].copy())
