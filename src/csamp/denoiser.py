"""Scalar MMSE denoiser for the per-part Bernoulli-Gaussian prior.

Under the decoupled channel u = x + v with v ~ N(0, beta) and
x ~ gamma * delta(x) + (1 - gamma) * N(0, s2), the posterior mean is a
Wiener gain s2/(s2+beta) times u, weighted by the posterior probability pi
that x is nonzero.  Its log-odds a, the latent activity, has one kernel,
_activity_log_odds: pi = expit(a), bossamp's exchange is -a and support's
EM detector reads a per part.  denoise/denoise_deriv are the validated
closed forms (denoise_terms returns both, and pi, from one evaluation of
pi).  They run the same kernel as the solver loop, _posterior_terms, which
takes its per-gamma constants precomputed, so the loop validates once per
solve, and hands u^2 and 1 - pi on to the exchange.  denoise_numeric
re-derives the same quantity by adaptive quadrature and exists purely to
validate them.  exact_mmse is the full-vector oracle: the exact posterior
mean over all 2^N supports, feasible only for small N, of one real part or
of parts stacked as rows, which share the enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import expit

from .model import BETA_FLOOR, GAMMA_CLAMP, BernoulliGaussianPrior


@dataclass(frozen=True)
class DenoiserParams:
    """Channel noise variance beta, zero probability gamma, slab variance s2.

    gamma may be a scalar or a per-component vector; beta is floored so the
    Wiener gain and log-odds stay finite at exact convergence.
    """

    beta: float
    gamma: float | np.ndarray
    s2: float

    def __post_init__(self):
        if not np.isfinite(self.beta) or self.beta < 0.0:
            raise ValueError("beta must be finite and nonnegative")
        object.__setattr__(self, "beta", max(float(self.beta), BETA_FLOOR))
        g = np.asarray(self.gamma, dtype=float)
        if not np.all((g >= 0.0) & (g <= 1.0)):
            raise ValueError("gamma must lie in [0, 1]")
        if not self.s2 > 0.0:
            raise ValueError("s2 must be positive")
        object.__setattr__(self, "s2", float(self.s2))


def _prior_log_odds(gamma, clamp=GAMMA_CLAMP):
    """log((1 - g)/g), the prior log-odds of being active, at gamma clamped
    away from {0, 1} so it stays finite (clamp=0 keeps the endpoints' +-inf)."""
    g = np.clip(gamma, clamp, 1.0 - clamp)
    return np.log((1.0 - g) / g)


def _activity_log_odds(uu, beta, s2, log_odds):
    """(a, gain, c): a = log_odds + log(beta/(beta + s2))/2 + uu c/2, the
    log-odds that x is active given uu = u^2, with c = s2/(beta (beta + s2))
    and the Wiener gain s2/(beta + s2); beta floored (or one per row)."""
    total = beta + s2
    c = s2 / (beta * total)
    return log_odds + 0.5 * np.log(beta / total) + uu * (0.5 * c), s2 / total, c


def _uniform(gamma):
    """gamma's one value if every component has it (a per-row add), else gamma."""
    return gamma.flat[0] if gamma.size and (gamma == gamma.flat[0]).all() else gamma


def _endpoint_masks(gamma):
    """Masks of the exact endpoint priors gamma = 0 and gamma = 1, each None
    when no component has it."""
    gamma = np.asarray(gamma)
    slab, spike = gamma <= 0.0, gamma >= 1.0
    return (slab if slab.any() else None), (spike if spike.any() else None)


def _posterior_terms(u, beta, s2, log_odds, slab=None, spike=None):
    """(estimate, derivative, pi, u^2, 1 - pi) of the closed form, each formed
    once, pi in the log domain; the kernel of denoise_terms and the solver loops.

    Takes validated inputs: beta floored (it may be an array broadcasting
    against u, one value per part), log_odds = _prior_log_odds(gamma), and
    the endpoint masks of gamma, which restore pi = 1 for gamma = 0 and
    pi = 0 for gamma = 1 whatever u is.
    """
    uu = u * u
    a, gain, c = _activity_log_odds(uu, beta, s2, log_odds)
    pi = expit(a)
    if slab is not None:
        pi = np.where(slab, 1.0, pi)
    if spike is not None:
        pi = np.where(spike, 0.0, pi)
    q = 1.0 - pi
    x = gain * u * pi
    deriv = gain * pi * (1.0 + uu * q * c)
    return x, deriv, pi, uu, q


def _check_finite(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite pseudo-data u")
    return u


def denoise_terms(u, p: DenoiserParams):
    """(denoise, denoise_deriv, pi) from one evaluation of pi."""
    return _posterior_terms(_check_finite(u), p.beta, p.s2,
                            _prior_log_odds(p.gamma), *_endpoint_masks(p.gamma))[:3]


def denoise(u, p: DenoiserParams):
    """Posterior mean E[x | u]; elementwise over u (and vector gamma)."""
    out = denoise_terms(u, p)[0]
    return out if out.ndim else float(out)


def denoise_deriv(u, p: DenoiserParams):
    """d/du of denoise; elementwise over u (and vector gamma)."""
    out = denoise_terms(u, p)[1]
    return out if out.ndim else float(out)


def denoise_numeric(u: float, p: DenoiserParams, rel_tol: float = 1e-12) -> float:
    """Posterior mean by adaptive quadrature of the continuous branch.

    Both the numerator integral of x * N(u-x; 0, beta) * N(x; 0, s2) and the
    continuous evidence integral are computed numerically (log-rescaled so
    the integrand peaks near 1); only the spike evidence gamma * N(u; 0, beta)
    uses a density formula.  Slow; validation only.
    """
    u = float(u)
    if not np.isfinite(u):
        raise ValueError("non-finite pseudo-data u")
    beta, s2 = p.beta, p.s2
    gamma = float(np.asarray(p.gamma))
    if gamma >= 1.0:
        return 0.0

    total = beta + s2
    mu = u * s2 / total                  # continuous-branch posterior mean
    sig_post = np.sqrt(beta * s2 / total)
    radius = max(10.0 * np.sqrt(s2), abs(mu) + 12.0 * sig_post)

    # the integrand's constants, once for every callback, as (cheaper) floats
    two_beta, two_s2 = 2.0 * beta, 2.0 * s2
    log_norm_beta = float(0.5 * np.log(2.0 * np.pi * beta))
    log_norm_s2 = float(0.5 * np.log(2.0 * np.pi * s2))
    # peak height of the joint density, used to rescale before integrating
    log_scale = -u * u / (2.0 * total) - log_norm_beta - log_norm_s2

    def scaled_joint(x):
        return np.exp(-((u - x) ** 2) / two_beta - x * x / two_s2
                      - log_norm_beta - log_norm_s2 - log_scale)

    eps = 1e-9 * radius
    breaks = sorted(set(np.clip([mu - 8 * sig_post, mu, mu + 8 * sig_post],
                                -radius + eps, radius - eps)))
    # the integrands are bounded by ~radius after rescaling, so this floor
    # lets quad terminate on integrals whose true value is (near) zero
    abs_floor = 1e-13 * radius

    def integrate(f, label):
        val, abserr, info, *rest = quad(
            f, -radius, radius, points=breaks,
            epsabs=abs_floor, epsrel=rel_tol, limit=200, full_output=1,
        )
        if rest:
            raise RuntimeError(f"quadrature for {label} did not converge: {rest[0]}")
        if abserr > max(5.0 * abs_floor, 1e-9 * abs(val)):
            raise RuntimeError(
                f"quadrature for {label} too inaccurate (abserr={abserr:.3e})"
            )
        return val

    evidence_cont = integrate(scaled_joint, "evidence")
    mean_cont = integrate(lambda x: x * scaled_joint(x), "conditional mean")

    # spike evidence, rescaled by the same factor as the integrals
    log_spike = -u * u / two_beta - log_norm_beta - log_scale
    spike = gamma * np.exp(log_spike)

    num = (1.0 - gamma) * mean_cont
    den = spike + (1.0 - gamma) * evidence_cont
    return float(num / den)


def exact_mmse(
    A: np.ndarray,
    y_part: np.ndarray,
    prior: BernoulliGaussianPrior,
    sigma_w2_part: float,
) -> np.ndarray:
    """Exact posterior mean by support enumeration, for one real part
    (y_part (M,) gives (N,)) or parts stacked as rows ((P, M) gives (P, N)).

    Sums over all supports S: the posterior weight of S combines the prior
    activity probabilities with the Gaussian evidence of y under
    x_S ~ N(0, s2 I), and the per-support conditional mean is the ridge
    solve (A_S^T A_S + (sigma_w2/s2) I)^{-1} A_S^T y.  Stacked parts share
    the enumeration, the evidence matrices and their log-determinants; each
    part has its own solve, so a row gets the bits of its one-part call.
    Cost is 2^N small solves per part, so N is capped at 14.  A zero noise
    variance is floored at BETA_FLOOR to keep the evidence proper.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y_part, dtype=float)
    m, n = A.shape
    if n > 14:
        raise ValueError(f"support enumeration infeasible for N={n} > 14")
    if y.ndim not in (1, 2) or y.shape[-1] != m:
        raise ValueError("y_part must be (M,) or parts stacked as rows (P, M)")
    s2 = prior.s2
    gamma = prior.gamma0_vector(n)
    sw2 = max(float(sigma_w2_part), BETA_FLOOR)

    # components with degenerate priors are fixed, not enumerated
    forced_on = np.flatnonzero(gamma == 0.0)
    free = np.flatnonzero((gamma > 0.0) & (gamma < 1.0))

    gram = A.T @ A
    log_g = np.log(np.where(gamma > 0.0, gamma, 1.0))       # excluded when 0
    log_1mg = np.log(np.where(gamma < 1.0, 1.0 - gamma, 1.0))
    base_prior = float(log_g[free].sum())                   # all free inactive
    prior_bonus = log_1mg - log_g                           # per activated component

    # per support size: the supports, their evidence matrices, log|Sigma_S|
    # and prior log-weights, shared by every part
    blocks = []
    for k_free in range(len(free) + 1):
        combos = list(itertools.combinations(free, k_free))
        idx = np.concatenate((
            np.tile(forced_on, (len(combos), 1)),
            np.array(combos, dtype=int).reshape(len(combos), k_free),
        ), axis=1)
        k = idx.shape[1]
        c_batch = gram[idx[:, :, None], idx[:, None, :]] + (sw2 / s2) * np.eye(k)
        sign, logdet_c = np.linalg.slogdet(c_batch)
        if np.any(sign <= 0):
            raise np.linalg.LinAlgError("non-positive-definite evidence matrix")
        # log N(y; 0, s2 A_S A_S^T + sw2 I) via determinant lemma + Woodbury
        logdet_sigma = m * np.log(sw2) + k * np.log(s2 / sw2) + logdet_c
        # prior_bonus is zero for forced-on components, so including them
        # in idx adds nothing
        blocks.append((idx, c_batch, logdet_sigma,
                       base_prior + prior_bonus[idx].sum(axis=1)))

    ends = np.cumsum([len(idx) for idx, *_ in blocks])
    x_hat = np.zeros(y.shape[:-1] + (n,))
    for y_p, x_p in zip(np.atleast_2d(y), np.atleast_2d(x_hat)):
        aty, yty = A.T @ y_p, float(y_p @ y_p)
        log_weights, means = [], []
        for idx, c_batch, logdet_sigma, log_prior in blocks:
            b_batch = aty[idx]
            sol = np.linalg.solve(c_batch, b_batch[:, :, None])[:, :, 0]
            quad_form = (yty - np.einsum("ij,ij->i", b_batch, sol)) / sw2
            log_ev = -0.5 * (m * np.log(2.0 * np.pi) + logdet_sigma + quad_form)
            log_weights.append(log_prior + log_ev)
            means.append(sol)
        all_lw = np.concatenate(log_weights)
        weights = np.exp(all_lw - all_lw.max())
        weights /= weights.sum()
        for (idx, *_), mean, w in zip(blocks, means, np.split(weights, ends[:-1])):
            np.add.at(x_p, idx.ravel(), (w[:, None] * mean).ravel())
    return x_hat
