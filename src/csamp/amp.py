"""The AMP loop shared by every solver, and the soft-thresholding baseline.

_iterate runs AMP on a batch of problems (A_t, y_t) that share (M, N) and
the prior: the live rows of all of them, one per (trial, part), form one
stacked (R, N) state.  Each iteration makes, per trial, one Z @ A_t and one
X @ A_t.T on that trial's live rows, at the shape a lone solve of the trial
would use, and runs everything else once over all rows:

    U = X + A^T Z,    X' = eta(U; beta),    Z' = Y - A X' + (sum eta'(U) / M) Z,

with beta = |z|^2 / M per row.  The denoiser returns X', the summed
derivative and, for the Bernoulli-Gaussian prior, the posterior activity pi
from one evaluation; an optional hook adds a term to Z' (cbossamp's
likelihood exchange, bossamp.py).  Without a hook each row stops on its own
rule, converged when |Z' - Z|^2 <= eps_tol |Z|^2 and diverged when |Z'|^2
exceeds divergence_factor |Y|^2.  With the hook the rule is joint per
trial: both parts stop when their summed relative change drops to eps_tol
or either part diverges.  A stopped row is dropped from the state; as every
operation but the matmuls is row by row, and those keep each trial's shape,
a batched solve gives each trial the bits of its lone solve.  A non-finite
iterate fails its whole trial with a RecoveryError, while the other trials
run on; a lone solve raises it.  Inputs are validated once, at entry.

Soft-thresholding AMP thresholds at lambda * sqrt(beta), beta unfloored; its
Onsager coefficient is the active-set size over M (the soft threshold's
derivative sums to |x_hat|_0).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

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
    gamma: np.ndarray | None = None  # the hook's working gamma, if any


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


def _spans(rows, problems):
    """[(start, stop, A)] per trial over the live rows, rows holding the
    (trial, part) of each: a trial's rows are consecutive."""
    spans, start = [], 0
    for trial, group in groupby(trial for trial, _ in rows):
        stop = start + len(list(group))
        spans.append((start, stop, problems[trial][0]))
        start = stop
    return spans


def _times(spans, V, transpose=False):
    """Each trial's rows of V times its A (or A.T), at the trial's own shape:
    row 0 of a (2, M) @ A differs in bits from a (1, M) @ A."""
    if len(spans) == 1:
        A = spans[0][2]
        return V @ (A.T if transpose else A)
    out = np.empty((len(V), spans[0][2].shape[0 if transpose else 1]))
    for start, stop, A in spans:
        np.matmul(V[start:stop], A.T if transpose else A, out=out[start:stop])
    return out


def _iterate(problems, denoise, settings: RecoverySettings, beta_floor: float,
             hook=None) -> list:
    """AMP on the rows of every (A, Y) of problems (module docstring); per
    problem, one AmpPartResult per row of its Y or the RecoveryError of a
    non-finite iterate.  The problems share (M, N).

    denoise(U, beta) -> (X, summed derivative per row, pi or None), beta
    holding the rows' noise variances.  hook(U, beta, X, pi, Z) returns the
    term added to the new residual, Z being the one that formed U, and
    selects the joint rule over each problem's (re, im) pair of rows; the
    hook's working gammas are hook.gamma, one row per live row, and
    hook.keep(live) drops its rows with the loop's.  Without a hook the
    denoiser must treat all rows alike, because stopped rows are dropped.
    """
    m, n = problems[0][0].shape
    if any(A.shape != (m, n) for A, _ in problems):
        raise ValueError("the problems of one solve must share (M, N)")
    Y = np.concatenate([Y for _, Y in problems])
    rows = [(trial, part) for trial, (_, Yt) in enumerate(problems)
            for part in range(len(Yt))]
    spans = _spans(rows, problems)
    results: list = [[None] * len(Yt) for _, Yt in problems]
    initial = _sq_norms(Y)
    X, Z, energy = np.zeros((len(Y), n)), Y.copy(), initial
    for t in range(1, settings.t_max + 1):
        beta = np.maximum(energy / m, beta_floor)
        U = X + _times(spans, Z)
        X, deriv_sum, pi = denoise(U, beta)
        Z_new = Y - _times(spans, X, transpose=True) + (deriv_sum / m)[:, None] * Z
        if hook is not None:
            Z_new += hook(U, beta, X, pi, Z)
        change = _sq_norms(Z_new - Z)
        prev, Z, energy = energy, Z_new, _sq_norms(Z_new)
        diverged = energy > settings.divergence_factor * initial
        if hook is None:
            converged = (prev == 0.0) | (change <= settings.eps_tol * prev)
        else:  # joint rule on each pair's summed relative change, 0/0 as 0
            ratio = change / prev if prev.all() else np.divide(
                change, prev, where=prev != 0.0, out=np.where(change == 0.0, 0.0, np.inf))
            converged = (ratio[0::2] + ratio[1::2] <= settings.eps_tol).repeat(2)
            diverged = (diverged[0::2] | diverged[1::2]).repeat(2)
        diverged &= ~converged
        stop = converged | diverged
        if t == settings.t_max:
            stop[:] = True
        if not (np.isfinite(X).all() and np.isfinite(Z_new).all()):
            # the whole trial fails, a part that stopped before included
            bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(Z_new).all(axis=1))
            for trial in {rows[j][0] for j in np.flatnonzero(bad)}:
                results[trial] = RecoveryError(
                    f"AMP produced a non-finite iterate at t={t}")
            stop |= [isinstance(results[trial], RecoveryError) for trial, _ in rows]
        if not stop.any():
            continue
        gamma = None if hook is None else hook.gamma
        for j in np.flatnonzero(stop):
            trial, part = rows[j]
            if isinstance(results[trial], RecoveryError):
                continue
            results[trial][part] = AmpPartResult(
                x_hat=X[j].copy(), u=U[j].copy(), beta=float(beta[j]),
                iterations=t, converged=bool(converged[j]),
                diverged=bool(diverged[j]),
                gamma=None if gamma is None else gamma[j].copy())
        if stop.all():
            break
        live = ~stop
        X, Z, Y = X[live], Z[live], Y[live]
        energy, initial = energy[live], initial[live]
        rows = [row for row, keep in zip(rows, live) if keep]
        spans = _spans(rows, problems)
        if hook is not None:
            hook.keep(live)
    return results


def _stack(A, *parts):
    """A as a float matrix and the parts of y as the rows of Y."""
    A = np.asarray(A, dtype=float)
    Y = np.stack([np.asarray(p, dtype=float) for p in parts])
    if A.ndim != 2 or Y.shape != (len(parts), A.shape[0]):
        raise ValueError("y length must equal M")
    return A, Y


def _complex_outputs(results, gamma0=None) -> list:
    """Per problem of _iterate, its RecoveryOutput (or its RecoveryError):
    the parts joined, with gamma0 echoed as both working gammas if given."""
    outputs = []
    for parts in results:
        if not isinstance(parts, RecoveryError):
            r, i = parts
            gammas = (r.gamma, i.gamma) if gamma0 is None else (gamma0.copy(), gamma0.copy())
            parts = RecoveryOutput(
                x_hat=combine(r.x_hat, i.x_hat), u_r=r.u, u_i=i.u, beta_r=r.beta,
                beta_i=i.beta, gamma_r=gammas[0], gamma_i=gammas[1],
                iterations=max(r.iterations, i.iterations),
                converged=r.converged and i.converged, diverged=r.diverged or i.diverged)
        outputs.append(parts)
    return outputs


def _single(results):
    """The result of a batch of one, raising its RecoveryError."""
    (result,) = results
    if isinstance(result, RecoveryError):
        raise result
    return result


def _soft_denoiser(lam: float):
    def soft(u, beta):
        x = _shrink(u, lam * np.sqrt(beta)[..., None])
        return x, (x != 0.0).sum(axis=-1), None
    return soft


def amp_recover(A: np.ndarray, y_part: np.ndarray, cfg: AmpConfig) -> AmpPartResult:
    """Soft-thresholding AMP on one real part."""
    return _single(_iterate([_stack(A, y_part)], _soft_denoiser(cfg.lam), cfg.settings,
                            0.0))[0]


def _camp_batch(problems, cfg: AmpConfig) -> list:
    """camp_recover on each (A, y) of problems, in one loop: a RecoveryOutput
    per problem, or the RecoveryError of one whose iterate went non-finite."""
    stacked = [_stack(A, y.re, y.im) for A, y in problems]
    return _complex_outputs(_iterate(stacked, _soft_denoiser(cfg.lam), cfg.settings, 0.0))


def camp_recover(A: np.ndarray, y: ComplexVector, cfg: AmpConfig) -> RecoveryOutput:
    """AMP on the real and imaginary parts, each stopping on its own rule."""
    return _single(_camp_batch([(A, y)], cfg))
