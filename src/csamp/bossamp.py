"""Joint recovery through a likelihood exchange between the parts.

cbossamp runs the shared AMP loop (amp._iterate) on the stacked parts with
the MMSE denoiser of bamp.py and a per-iteration hook, the exchange: each
component's evidence for being zero is extracted from one part
(likelihood_update), converted into a probability (prior_update) and
installed as the other part's working zero-probability for the next step.
That evidence l is the negative of the denoiser's activity log-odds
(denoiser._activity_log_odds) at the likelihood's slab variance, installed
as the other part's log-odds clipped to those of the clamped gammas (gamma
itself is formed only as a row stops).  This couples the two estimates
through the shared support without ever mixing their amplitudes.

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
change).  In a batch each trial is a pair of rows, and the exchange swaps
the rows within each pair.  exchange=False is cbamp_recover itself, bit
for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .amp import _rows, _single, _solve, _sq_norms
from .bamp import _mmse, _prior_rows, cbamp_recover
from .denoiser import DenoiserParams, _activity_log_odds, _check_finite, _prior_log_odds
from .model import (BETA_FLOOR, GAMMA_CLAMP, BernoulliGaussianPrior, ComplexVector,
                    RecoveryOutput, RecoverySettings)


def likelihood_update(u, beta: float, gamma0, s2: float, beta_floor: float = BETA_FLOOR,
                      gamma_clamp: float = GAMMA_CLAMP):
    """Log-likelihood ratio for a component being zero given pseudo-data u.

    l = log(g/(1-g)) + (log((beta+s2)/beta) - u^2 s2 / (beta (beta+s2))) / 2,
    the negative of the activity log-odds, with beta floored at beta_floor
    and gamma0 in [0, 1] clamped away from {0,1} so l stays finite.
    """
    u = _check_finite(u)
    DenoiserParams(beta, gamma0, s2)  # the denoiser's checks of the same quantities
    out = -_activity_log_odds(u * u, max(float(beta), beta_floor), s2,
                              _prior_log_odds(gamma0, gamma_clamp))[0]
    return out if out.ndim else float(out)


def prior_update(l, gamma_clamp: float = GAMMA_CLAMP):
    """Updated zero-probability 1/(1+exp(-l)), clamped into (0, 1)."""
    out = np.clip(expit(l), gamma_clamp, 1.0 - gamma_clamp)
    return out if np.ndim(out) else float(out)


def _swap(a):
    """A (pairs, 2, ...) view of a, each (re, im) pair's rows exchanged."""
    return a.reshape(-1, 2, *a.shape[1:])[:, ::-1]


class _Exchange:
    """The likelihood exchange: the loop's hook over the (re, im) row pairs
    of a batch, and the denoiser at the working log-odds it installs (each
    row's prior log-odds, with its endpoint masks, until the first step
    installs them)."""

    def __init__(self, settings: RecoverySettings):
        self.cross = settings.likelihood_variant == "printed-cross-beta"
        self.clamp = settings.gamma_clamp
        self.bounds = _prior_log_odds(np.array([1.0 - self.clamp, self.clamp]), self.clamp)
        self.log_odds = None  # the installed log-odds, once the first step sets them
        self.a = None  # each row's own activity log-odds, once the first step sets it
        self.memory = None  # (w, z'); the prior gamma depends on no data

    def denoise(self, u, beta, s2, log_prior_odds, slab, spike, like_s2):
        """_mmse's terms at the working log-odds, then the rows' prior
        log-odds and likelihood slab variance (_exchange_rows) for the
        exchange of this step."""
        if self.log_odds is None:
            terms = _mmse(u, beta, s2, log_prior_odds, slab, spike)
        else:
            terms = _mmse(u, beta, s2, self.log_odds)
        return *terms, log_prior_odds, like_s2

    def __call__(self, u, beta, x, terms, z):
        """The memory term b z' of this step; then each part's likelihood
        sets the other part's log-odds, and w = u s/(beta (beta + s)) and the
        residual z that formed u are kept for the other part's next term.
        terms = (pi, u^2, 1 - pi, prior log-odds, likelihood slab variance)
        of the denoiser's step."""
        _, uu, q, log_prior_odds, like_s2 = terms
        term = 0.0
        if self.memory is not None:
            w, z_prev = self.memory  # x (1 - pi) w = g pi (1 - pi) u w
            b = (x * q * w).sum(axis=1) / z.shape[1]
            term = (b.reshape(-1, 2, 1) * _swap(z_prev)).reshape(z.shape)
        beta_l = (_swap(beta).reshape(-1) if self.cross else beta)[:, None]
        self.a, _, slope = _activity_log_odds(uu, beta_l, like_s2, log_prior_odds)
        # the other part's -l, clamped as its gamma is: no endpoint priors
        self.log_odds = np.clip(_swap(self.a), *self.bounds).reshape(u.shape)
        self.memory = ((_swap(u) * _swap(slope)).reshape(u.shape), z)
        return term

    def gamma(self, j):
        """Row j's working gamma, prior_update of the other part's l."""
        return prior_update(-self.a[j ^ 1], self.clamp)

    def keep(self, index):
        """Keep the rows of the pairs the loop keeps, index holding the old
        row of each."""
        w, z_prev = self.memory
        self.a, self.log_odds = self.a[index], self.log_odds[index]
        self.memory = (w[index], z_prev[index])


def _no_data(Y, gamma0, settings: RecoverySettings) -> RecoveryOutput | None:
    """The answer to a problem without data, the prior mean with gamma the
    prior; None if Y has data."""
    if _sq_norms(Y).any():
        return None
    n = gamma0.size
    return RecoveryOutput(ComplexVector.zeros(n), np.zeros(n), np.zeros(n), settings.beta_floor,
                          settings.beta_floor, gamma0.copy(), gamma0.copy(), 1, True)


def _exchange_rows(problems, priors, settings: RecoverySettings):
    """bamp._prior_rows, the slab variance of the likelihood added to the
    constants."""
    gamma0s, consts = _prior_rows(problems, priors, settings.gamma_clamp)
    like_s2 = consts[0] if settings.part_variance == "half" else _rows(
        [prior.sigma_x2 for prior in priors])
    return gamma0s, (*consts, like_s2)


def _cbossamp_batch(problems, priors, settings: RecoverySettings) -> list:
    """cbossamp_recover on each (A, y) of problems under its prior priors[j],
    in one loop: a RecoveryOutput per problem, or the RecoveryError of one
    whose iterate went non-finite.  A problem without data is answered
    before the loop."""
    gamma0s, consts = _exchange_rows(problems, priors, settings)
    ex = _Exchange(settings)
    return _solve(problems, ex.denoise, settings, settings.beta_floor, consts, hook=ex,
                  answer=lambda j, Y: _no_data(Y, gamma0s[j], settings))


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
    return _single(_cbossamp_batch([(A, y)], [prior], settings))
