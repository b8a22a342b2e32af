"""Joint recovery through a likelihood exchange between the parts.

cbossamp runs the shared AMP loop (amp._iterate) on the stacked parts with
the MMSE denoiser of bamp.py inside its own step, the exchange: each
component's evidence for being zero is extracted from one part
(likelihood_update), converted into a probability (prior_update) and
installed as the other part's working zero-probability for the next step.
That evidence l is the negative of the denoiser's activity log-odds
(denoiser._activity_log_odds) at the likelihood's slab variance; the step
keeps each row's activity log-odds a in the loop's state and installs the
other part's, clipped to the log-odds of the clamped gammas, at the next
step (gamma itself is formed, by prior_update, only for a stopped row).
At the default switches (own beta, slab variance s2, beta_floor at least
the denoiser's floor) the likelihood's channel is the denoiser's, so a is
formed from the denoiser's own channel terms h, t and c, with the same
bits as a kernel call of its own; any other setting makes that call, at
slab variance s2 or ("full") 2 s2 = sigma_x2, so the step runs on cbamp's
constants (bamp._prior_rows).
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
change).  In a batch each trial is a pair of rows, and the exchange swaps
the rows within each pair; w and z' are the rest of its state, which the
loop reorders with its other per-row arrays.  exchange=False is
cbamp_recover itself, bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .amp import _single, _solve
from .bamp import _mmse, _prior_rows, cbamp_recover
from .denoiser import _activity_log_odds, _check_finite, _prior_log_odds
from .model import (BETA_FLOOR, GAMMA_CLAMP, BernoulliGaussianPrior, ComplexVector,
                    RecoveryOutput, RecoverySettings, _checked)


def likelihood_update(u, beta: float, gamma0, s2: float):
    """Log-likelihood ratio for a component being zero given pseudo-data u.

    l = log(g/(1-g)) + (log((beta+s2)/beta) - u^2 s2 / (beta (beta+s2))) / 2,
    the negative of the activity log-odds, with beta floored at BETA_FLOOR
    and gamma0 in [0, 1] clamped by GAMMA_CLAMP away from {0,1} so l stays
    finite.
    """
    u = _check_finite(u)
    _checked(beta=beta, gamma0=gamma0, s2=s2)
    out = -_activity_log_odds(u * u, max(float(beta), BETA_FLOOR), s2,
                              _prior_log_odds(gamma0))[0]
    return out if out.ndim else float(out)


def prior_update(l, gamma_clamp: float = GAMMA_CLAMP):
    """Updated zero-probability 1/(1+exp(-l)), clamped into (0, 1)."""
    out = np.clip(expit(l), gamma_clamp, 1.0 - gamma_clamp)
    return out if np.ndim(out) else float(out)


def _swap(a):
    """A (pairs, 2, ...) view of a, each (re, im) pair's rows exchanged."""
    return a.reshape(-1, 2, *a.shape[1:])[:, ::-1]


def _exchange_step(settings: RecoverySettings):
    """The likelihood exchange as the loop's step over the (re, im) row pairs
    of a batch.  Its consts are cbamp's (bamp._prior_rows); its state is each
    row's own activity log-odds a, the other part's memory weights
    w = u' s/(beta (beta + s)) and the residual z that formed u.  The first
    step denoises at the prior log-odds with the endpoint masks, each later
    one at the other part's -l (its a) clipped to the log-odds of the
    clamped gammas, no endpoint priors, and adds the memory term b z'.
    Where the likelihood's channel is the denoiser's (shared), a is formed
    from the denoiser's channel terms, elsewhere from a kernel call of its
    own (module docstring); 2 s2 is sigma_x2 exactly, as s2 = sigma_x2/2."""
    cross = settings.likelihood_variant == "printed-cross-beta"
    half = settings.part_variance == "half"
    shared = not cross and half and settings.beta_floor >= BETA_FLOOR
    lo, hi = _prior_log_odds(np.array([1.0 - settings.gamma_clamp, settings.gamma_clamp]),
                             settings.gamma_clamp)

    def step(u, beta, z, consts, state):
        s2, log_prior_odds, slab, spike = consts
        if state is None:
            x, deriv_sum, _, q, channel = _mmse(u, beta, s2, log_prior_odds, slab, spike)
            term = 0.0
        else:
            a, w, z_prev = state
            # the module attribute, with the installed log-odds 4th, for tests to hook
            x, deriv_sum, _, q, channel = _mmse(
                u, beta, s2, np.minimum(np.maximum(_swap(a), lo), hi).reshape(u.shape))
            # x (1 - pi) w = g pi (1 - pi) u w
            b = np.add.reduce(x * q * w, axis=1) / z.shape[1]
            term = (b.reshape(-1, 2, 1) * _swap(z_prev)).reshape(z.shape)
        uu, h, t, slope = channel
        if shared:
            a = log_prior_odds + h + t
        else:
            beta_l = (_swap(beta).reshape(-1) if cross else beta)[:, None]
            a, *_, slope = _activity_log_odds(uu, beta_l, s2 if half else 2.0 * s2,
                                              log_prior_odds)
        return x, deriv_sum, term, (a, (_swap(u) * _swap(slope)).reshape(u.shape), z)

    return step


def _cbossamp_batch(problems, priors, settings: RecoverySettings) -> list:
    """cbossamp_recover on each (A, y) of problems under its prior priors[j],
    in one loop: a RecoveryOutput per problem, or the RecoveryError of one
    whose iterate went non-finite.  Each working gamma is prior_update of the
    other part's activity log-odds, except that a problem without data,
    |y|^2 = 0, keeps its gamma0 in both parts."""
    gamma0s, consts = _prior_rows(problems, priors, settings.gamma_clamp)
    clamp = settings.gamma_clamp

    def gammas(j, r, i):
        if not problems[j][1].norm_sq():
            return gamma0s[j].copy(), gamma0s[j].copy()
        return prior_update(-i.a, clamp), prior_update(-r.a, clamp)

    return _solve(problems, _exchange_step(settings), settings, settings.beta_floor, consts,
                  joint=True, gammas=gammas)


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
