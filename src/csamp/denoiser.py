"""Scalar MMSE denoiser for the per-part Bernoulli-Gaussian prior.

Under the decoupled channel u = x + v with v ~ N(0, beta) and
x ~ gamma * delta(x) + (1 - gamma) * N(0, s2), the posterior mean is a
Wiener gain s2/(s2+beta) times u, weighted by the posterior probability pi
that x is nonzero.  Its log-odds a, the latent activity, has one kernel,
_activity_log_odds: pi = expit(a), bossamp's exchange is -a and support's
EM detector reads a per part.  a is (log-odds of gamma + h) + t, where h
(one per row) and t = u^2 c/2 are the channel's terms, which the kernel
returns with a, the Wiener gain and c.
denoise/denoise_deriv are the validated closed forms (denoise_terms returns
both, and pi, from one evaluation of pi).  They run the same kernel as the
solver loop, _posterior_terms, which takes its per-gamma constants
precomputed, so the loop validates once per solve, forms x and the
derivative in place, and hands 1 - pi, u^2 and the channel's terms on to
the exchange.  denoise_numeric re-derives the same quantity by adaptive
quadrature and exists purely to validate them.  Its two integrals depend on
(u, beta, s2) only, so one pair serves a whole vector of gammas, and its
conditional-mean integral reuses the evidence integral's integrand values
at the nodes the two share.  exact_mmse is the full-vector oracle: the
exact posterior mean over all 2^N supports, feasible only for small N, of
one real part, of parts stacked as rows, or of trials stacked on a leading
axis.  The supports of each pattern of free and forced-on components are
enumerated once and cached (_supports); a call adds the ridge to each
trial's Gram matrix once, and per support size it gathers the evidence
matrices and makes one batched slogdet and one batched solve for a group of
trials.  Every row keeps the bits of a one-part call.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .model import BETA_FLOOR, CHUNK_BYTES, GAMMA_CLAMP, BernoulliGaussianPrior


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
    """(a, h, t, gain, c): a = (log_odds + h) + t, the log-odds that x is
    active given uu = u^2, with the channel's terms h = log(beta/(beta + s2))/2
    (one per row) and t = uu c/2, c = s2/(beta (beta + s2)) and the Wiener
    gain s2/(beta + s2); beta floored (or one per row)."""
    total = beta + s2
    c = s2 / (beta * total)
    h, t = 0.5 * np.log(beta / total), uu * (0.5 * c)
    return log_odds + h + t, h, t, s2 / total, c


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
    """(estimate, derivative, pi, 1 - pi, (u^2, h, t, c)) of the closed form,
    each formed once, pi = expit(a) of _activity_log_odds; the kernel of
    denoise_terms and the solver loops.  The last item is u^2 and the
    channel's terms of that call, which the exchange reuses where its channel
    is the denoiser's.

    Takes validated inputs: beta floored (it may be an array broadcasting
    against u, one value per part), log_odds = _prior_log_odds(gamma), and
    the endpoint masks of gamma, which restore pi = 1 for gamma = 0 and
    pi = 0 for gamma = 1 whatever u is.
    """
    uu = u * u
    a, h, t, gain, c = _activity_log_odds(uu, beta, s2, log_odds)
    pi = expit(a, out=a) if np.ndim(a) else expit(a)   # a is a fresh array
    if slab is not None:
        pi = np.where(slab, 1.0, pi)
    if spike is not None:
        pi = np.where(spike, 0.0, pi)
    q = 1.0 - pi
    # x = (gain u) pi and deriv = (gain pi) (uu q c + 1), in place
    x = gain * u
    x *= pi
    deriv = uu * q
    deriv *= c
    deriv += 1.0
    deriv *= gain * pi
    return x, deriv, pi, q, (uu, h, t, c)


def _check_finite(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite pseudo-data u")
    return u


def denoise_terms(u, p: DenoiserParams):
    """(denoise, denoise_deriv, pi) from one evaluation of pi."""
    u = _check_finite(u)
    if u.ndim:  # u as wide as a vector gamma, as the kernel's in-place x needs
        u = np.broadcast_to(u, np.broadcast_shapes(u.shape, np.shape(p.gamma)))
    return _posterior_terms(u, p.beta, p.s2,
                            _prior_log_odds(p.gamma), *_endpoint_masks(p.gamma))[:3]


def denoise(u, p: DenoiserParams):
    """Posterior mean E[x | u]; elementwise over u (and vector gamma)."""
    out = denoise_terms(u, p)[0]
    return out if out.ndim else float(out)


def denoise_deriv(u, p: DenoiserParams):
    """d/du of denoise; elementwise over u (and vector gamma)."""
    out = denoise_terms(u, p)[1]
    return out if out.ndim else float(out)


def denoise_numeric(u: float, p: DenoiserParams):
    """Posterior mean by adaptive quadrature of the continuous branch, to a
    relative tolerance of 1e-12; elementwise over a vector gamma, scalar u.

    Both the numerator integral of x * N(u-x; 0, beta) * N(x; 0, s2) and the
    continuous evidence integral are computed numerically (log-rescaled so
    the integrand peaks near 1); only the spike evidence gamma * N(u; 0, beta)
    uses a density formula.  The integrals depend on (u, beta, s2) only, so
    one pair serves every gamma: gamma just weighs the spike against them.
    Entries with gamma >= 1 are 0, and no quadrature runs if all are.
    Slow; validation only.
    """
    from scipy.integrate import quad  # here, so that `import csamp` does not load it

    u = float(u)
    if not np.isfinite(u):
        raise ValueError("non-finite pseudo-data u")
    beta, s2 = p.beta, p.s2
    gamma = np.asarray(p.gamma, dtype=float)
    out = np.zeros(gamma.shape)
    live = gamma < 1.0
    if not live.any():
        return out if out.ndim else float(out)

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

    # the two integrals share most of their nodes: each value is kept by its
    # node, and the second integral reuses it (same node, same expression)
    joint_at: dict = {}

    def scaled_joint(x):
        joint_at[x] = value = np.exp(-((u - x) ** 2) / two_beta - x * x / two_s2
                                     - log_norm_beta - log_norm_s2 - log_scale)
        return value

    def x_scaled_joint(x):
        try:
            return x * joint_at[x]
        except KeyError:
            return x * scaled_joint(x)

    eps = 1e-9 * radius
    breaks = sorted(set(np.clip([mu - 8 * sig_post, mu, mu + 8 * sig_post],
                                -radius + eps, radius - eps)))
    # the integrands are bounded by ~radius after rescaling, so this floor
    # lets quad terminate on integrals whose true value is (near) zero
    abs_floor = 1e-13 * radius

    def integrate(f, label):
        val, abserr, info, *rest = quad(
            f, -radius, radius, points=breaks,
            epsabs=abs_floor, epsrel=1e-12, limit=200, full_output=1,
        )
        if rest:
            raise RuntimeError(f"quadrature for {label} did not converge: {rest[0]}")
        if abserr > max(5.0 * abs_floor, 1e-9 * abs(val)):
            raise RuntimeError(
                f"quadrature for {label} too inaccurate (abserr={abserr:.3e})"
            )
        return val

    evidence_cont = integrate(scaled_joint, "evidence")
    mean_cont = integrate(x_scaled_joint, "conditional mean")

    # spike evidence, rescaled by the same factor as the integrals
    log_spike = -u * u / two_beta - log_norm_beta - log_scale
    g = gamma[live]
    spike = g * np.exp(log_spike)

    num = (1.0 - g) * mean_cont
    den = spike + (1.0 - g) * evidence_cont
    out[live] = num / den
    return out if out.ndim else float(out)


def exact_mmse(
    A: np.ndarray,
    y_part: np.ndarray,
    prior: BernoulliGaussianPrior,
    sigma_w2_part: float | np.ndarray,
) -> np.ndarray:
    """Exact posterior mean by support enumeration, for one real part
    (y_part (M,) gives (N,)), parts stacked as rows ((P, M) gives (P, N)), or
    trials stacked on a leading axis: A (T, M, N), y_part (T, P, M) and
    sigma_w2_part (T,) give (T, P, N).

    Sums over all supports S: the posterior weight of S combines the prior
    activity probabilities with the Gaussian evidence of y under
    x_S ~ N(0, s2 I), and the per-support conditional mean is the ridge
    solve (A_S^T A_S + (sigma_w2/s2) I)^{-1} A_S^T y.  The supports come
    from a cache, one enumeration per pattern of free and forced-on
    components; per support size, the trials of a group (as
    many as fit CHUNK_BYTES of evidence matrices) share one batched slogdet
    and one batched solve, and a trial's parts share its evidence matrices
    and their log-determinants.  Each part keeps its own right-hand side and
    every reduction runs on contiguous operands, so a row gets the bits of a
    one-part call of its trial alone.  Cost is 2^N small solves per part, so
    N is capped at 14.  A zero noise variance is floored at BETA_FLOOR to
    keep the evidence proper; a negative or non-finite one, and a
    non-finite A or y_part, raise ValueError.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y_part, dtype=float)
    if A.ndim == 2:
        if y.ndim not in (1, 2) or y.shape[-1] != A.shape[0]:
            raise ValueError("y_part must be (M,) or parts stacked as rows (P, M)")
        shape = y.shape[:-1] + A.shape[1:]
        A, y = A[None], y.reshape(1, -1, A.shape[0])
        sw2 = np.array([float(sigma_w2_part)])
    else:
        shape = None
        sw2 = np.asarray(sigma_w2_part, dtype=float)
        if (A.ndim != 3 or y.ndim != 3 or y.shape[0] != len(A)
                or y.shape[2] != A.shape[1] or sw2.shape != (len(A),)):
            raise ValueError("stacked trials take A (T, M, N), y_part (T, P, M) "
                             "and sigma_w2_part (T,)")
    if not np.all(np.isfinite(sw2) & (sw2 >= 0.0)):
        raise ValueError("sigma_w2_part must be finite and nonnegative")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite entries in A")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite entries in y_part")
    m, n = A.shape[1:]
    if n > 14:
        raise ValueError(f"support enumeration infeasible for N={n} > 14")
    s2 = prior.s2
    gamma = prior.gamma0_vector(n)
    sw2 = np.maximum(sw2, BETA_FLOOR)

    # components with degenerate priors are fixed, not enumerated
    forced_on = np.flatnonzero(gamma == 0.0)
    free = np.flatnonzero((gamma > 0.0) & (gamma < 1.0))
    supports = _supports(tuple(forced_on.tolist()), tuple(free.tolist()), n)

    log_g = np.log(np.where(gamma > 0.0, gamma, 1.0))       # excluded when 0
    log_1mg = np.log(np.where(gamma < 1.0, 1.0 - gamma, 1.0))
    base_prior = float(log_g[free].sum())                   # all free inactive
    prior_bonus = log_1mg - log_g                           # per activated component
    # each support's prior log-weight (prior_bonus is zero for forced-on
    # components, so including them adds nothing)
    log_priors = [base_prior + prior_bonus[idx].sum(axis=1) for idx, _ in supports]
    ends = np.cumsum([len(idx) for idx, _ in supports])
    group = max(1, CHUNK_BYTES // max(1, 8 * sum(flat.size for _, flat in supports)))

    x_hat = np.zeros(y.shape[:-1] + (n,))
    for first in range(0, len(A), group):
        At, yt = A[first:first + group], y[first:first + group]
        sw = sw2[first:first + group, None]                 # (G, 1), against (G, C)
        # per trial and part, the kernels (and bits) of the lone A.T @ A,
        # A.T @ y_p and y_p @ y_p
        gram = At.transpose(0, 2, 1) @ At
        aty = (At.transpose(0, 2, 1)[:, None] @ yt[..., None])[..., 0]
        yty = (yt[..., None, :] @ yt[..., :, None])[..., 0]  # (G, P, 1)
        # the ridge, once per trial: a support's components are distinct, so
        # each block entry gets the add it would get in its own k x k block
        gram += (sw / s2)[..., None] * np.eye(n)
        gram = gram.reshape(len(At), -1)
        log_sw, log_ratio = np.log(sw), np.log(s2 / sw)
        log_weights, means = [], []
        for (idx, flat), log_prior in zip(supports, log_priors):
            k = idx.shape[1]
            c_batch = np.take(gram, flat, axis=1)           # (G, C, k, k)
            sign, logdet_c = np.linalg.slogdet(c_batch)
            if np.any(sign <= 0):
                raise np.linalg.LinAlgError("non-positive-definite evidence matrix")
            # log N(y; 0, s2 A_S A_S^T + sw2 I) via determinant lemma + Woodbury
            logdet_sigma = m * log_sw + k * log_ratio + logdet_c
            # contiguous, as einsum reduces a strided gather in another order
            b_batch = np.take(aty, idx, axis=2)             # (G, P, C, k)
            # c_batch broadcast over the parts: one right-hand side per solve
            sol = np.ascontiguousarray(
                np.linalg.solve(c_batch[:, None], b_batch[..., None])[..., 0])
            quad_form = (yty - np.einsum("...ij,...ij->...i", b_batch, sol)) / sw[..., None]
            log_ev = -0.5 * (m * np.log(2.0 * np.pi) + logdet_sigma[:, None] + quad_form)
            log_weights.append(log_prior + log_ev)
            means.append(sol)
        all_lw = np.concatenate(log_weights, axis=-1)
        weights = np.exp(all_lw - all_lw.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        rows = x_hat[first:first + group].reshape(-1, n)
        for (idx, _), mean, w in zip(supports, means,
                                     np.split(weights, ends[:-1], axis=-1)):
            np.add.at(rows, (np.arange(len(rows))[:, None], idx.ravel()),
                      (w[..., None] * mean).reshape(len(rows), -1))
    return x_hat if shape is None else x_hat.reshape(shape)


@functools.lru_cache(maxsize=8)
def _supports(forced_on: tuple, free: tuple, n: int) -> tuple:
    """Per support size, the supports of exact_mmse as rows of component
    indices, forced-on components first, and their k x k blocks' indices
    row * n + col into a flattened n x n matrix; both read-only, as the
    cache hands the same arrays to every call."""
    out = []
    for k_free in range(len(free) + 1):
        combos = list(itertools.combinations(free, k_free))
        idx = np.concatenate((
            np.tile(np.array(forced_on, dtype=int), (len(combos), 1)),
            np.array(combos, dtype=int).reshape(len(combos), k_free),
        ), axis=1)
        flat = idx[:, :, None] * n + idx[:, None, :]
        idx.flags.writeable = flat.flags.writeable = False
        out.append((idx, flat))
    return tuple(out)
