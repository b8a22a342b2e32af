"""The AMP loop shared by every solver, and the soft-thresholding baseline.

_iterate runs AMP on a stacked (k, N) state, one row per part of the
problem: the real and imaginary parts share A, so each iteration makes one
Z @ A and one X @ A.T for all live parts:

    U = X + A^T Z,    X' = eta(U; beta),    Z' = Y - A X' + (sum eta'(U) / M) Z,

with beta = |z|^2 / M per part.  The denoiser returns X', the summed
derivative and, for the Bernoulli-Gaussian prior, the posterior activity pi
from one evaluation; an optional hook adds a term to Z' (cbossamp's
likelihood exchange, bossamp.py).  Without a hook each part stops on its own
rule, converged when |Z' - Z|^2 <= eps_tol |Z|^2 and diverged when |Z'|^2
exceeds divergence_factor |Y|^2, and a stopped part is dropped from the
state.  With the hook the rule is joint: all parts stop when the summed
relative change drops to eps_tol or any part diverges.  A non-finite
iterate raises RecoveryError; inputs are validated once, at entry.

Soft-thresholding AMP thresholds at lambda * sqrt(beta), beta unfloored; its
Onsager coefficient is the active-set size over M (the soft threshold's
derivative sums to |x_hat|_0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ComplexVector, RecoveryError, RecoveryOutput, RecoverySettings, combine


@dataclass(frozen=True)
class AmpConfig:
    lam: float
    settings: RecoverySettings = RecoverySettings()

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("lambda must be positive")


@dataclass(frozen=True)
class AmpPartResult:
    x_hat: np.ndarray
    u: np.ndarray
    beta: float
    iterations: int
    converged: bool
    diverged: bool


def _shrink(u, theta):
    return np.sign(u) * np.maximum(np.abs(u) - theta, 0.0)


def soft_threshold(u, theta):
    """sign(u) * max(|u| - theta, 0); theta must be nonnegative."""
    if np.any(np.asarray(theta) < 0.0):
        raise ValueError("threshold must be nonnegative")
    out = _shrink(np.asarray(u, dtype=float), theta)
    return out if out.ndim else float(out)


def lambda_heuristic(k: int) -> float:
    """MSE-minimizing threshold multiplier 2.678 * K^(-0.181)."""
    if k < 1:
        raise ValueError("K must be >= 1")
    return 2.678 * float(k) ** -0.181


def _sq_norms(v):
    """|v|^2 of a vector, or of each part of a stacked state."""
    return np.einsum("...i,...i->...", v, v)


def _step(A, y, x, z, beta, denoise):
    """One AMP iteration from (x, z) at noise variance beta: (u, x', z', pi)."""
    u = x + z @ A
    x_new, deriv_sum, pi = denoise(u, beta)
    z_new = y - x_new @ A.T + (deriv_sum / A.shape[0])[..., None] * z
    return u, x_new, z_new, pi


def _iterate(A, Y, denoise, settings: RecoverySettings, beta_floor: float,
             hook=None) -> list[AmpPartResult]:
    """AMP on the rows of Y (module docstring); one result per row.

    denoise(U, beta) -> (X, summed derivative per part, pi or None), beta
    holding the parts' noise variances.  hook(U, beta, X, pi, Z) returns the
    term added to the new residual, Z being the one that formed U, and
    selects the joint rule; without it the denoiser must treat all parts
    alike, because stopped parts are dropped.
    """
    m, n = A.shape
    initial = _sq_norms(Y)
    X, Z, energy = np.zeros((len(Y), n)), Y.copy(), initial
    parts = list(range(len(Y)))  # the original row of each live part
    results: list = [None] * len(parts)
    for t in range(1, settings.t_max + 1):
        beta = np.maximum(energy / m, beta_floor)
        U, X, Z_new, pi = _step(A, Y, X, Z, beta, denoise)
        if hook is not None:
            Z_new += hook(U, beta, X, pi, Z)
        if not (np.isfinite(X).all() and np.isfinite(Z_new).all()):
            raise RecoveryError(f"AMP produced a non-finite iterate at t={t}")
        change = _sq_norms(Z_new - Z)
        prev, Z, energy = energy, Z_new, _sq_norms(Z_new)
        diverged = energy > settings.divergence_factor * initial
        if hook is None:
            converged = (prev == 0.0) | (change <= settings.eps_tol * prev)
        else:  # joint rule on the summed relative change, 0/0 counting as 0
            ratio = sum(c / p if p else (0.0 if c == 0.0 else np.inf)
                        for c, p in zip(change.tolist(), prev.tolist()))
            converged = np.full(len(parts), ratio <= settings.eps_tol)
            diverged[:] = diverged.any()
        diverged &= ~converged
        stop = converged | diverged
        if t == settings.t_max:
            stop[:] = True
        if not stop.any():
            continue
        for j in np.flatnonzero(stop):
            results[parts[j]] = AmpPartResult(
                x_hat=X[j].copy(), u=U[j].copy(), beta=float(beta[j]),
                iterations=t, converged=bool(converged[j]),
                diverged=bool(diverged[j]))
        if stop.all():
            break
        live = ~stop
        X, Z, Y = X[live], Z[live], Y[live]
        energy, initial = energy[live], initial[live]
        parts = [p for p, keep in zip(parts, live) if keep]
    return results


def _stack(A, *parts):
    """A as a float matrix and the parts of y as the rows of Y."""
    A = np.asarray(A, dtype=float)
    Y = np.stack([np.asarray(p, dtype=float) for p in parts])
    if A.ndim != 2 or Y.shape != (len(parts), A.shape[0]):
        raise ValueError("y length must equal M")
    return A, Y


def _complex_output(parts, gamma_r=None, gamma_i=None) -> RecoveryOutput:
    """Join the real and imaginary parts' results into one RecoveryOutput."""
    r, i = parts
    return RecoveryOutput(
        x_hat=combine(r.x_hat, i.x_hat), u_r=r.u, u_i=i.u, beta_r=r.beta,
        beta_i=i.beta, gamma_r=gamma_r, gamma_i=gamma_i,
        iterations=max(r.iterations, i.iterations),
        converged=r.converged and i.converged, diverged=r.diverged or i.diverged)


def _soft_denoiser(lam: float):
    def soft(u, beta):
        x = _shrink(u, lam * np.sqrt(beta)[..., None])
        return x, (x != 0.0).sum(axis=-1), None
    return soft


def amp_recover(A: np.ndarray, y_part: np.ndarray, cfg: AmpConfig) -> AmpPartResult:
    """Soft-thresholding AMP on one real part."""
    A, Y = _stack(A, y_part)
    return _iterate(A, Y, _soft_denoiser(cfg.lam), cfg.settings, 0.0)[0]


def camp_recover(A: np.ndarray, y: ComplexVector, cfg: AmpConfig) -> RecoveryOutput:
    """AMP on the real and imaginary parts, each stopping on its own rule."""
    A, Y = _stack(A, y.re, y.im)
    return _complex_output(_iterate(A, Y, _soft_denoiser(cfg.lam), cfg.settings, 0.0))
