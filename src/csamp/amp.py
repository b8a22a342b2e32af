"""The AMP loop shared by every solver, and the soft-thresholding baseline.

_iterate runs AMP on a batch of problems (A_t, y_t) that share (M, N) and
the prior: the live rows of all of them, one per (trial, part), form one
stacked (R, N) state.  Each iteration makes, per trial, one Z @ A_t and one
X @ A_t.T on that trial's live rows, at the shape a lone solve of the trial
would use, and runs everything else once over all rows:

    U = X + A^T Z,    X' = eta(U; beta),    Z' = Y - A X' + (sum eta'(U) / M) Z,

with beta = |z|^2 / M per row.  The denoiser returns X', the summed
derivative and the terms of its step that an optional hook reuses to add a
term to Z' (cbossamp's likelihood exchange, bossamp.py).  Without a hook
each row stops on its own rule, converged when |Z' - Z|^2 <= eps_tol |Z|^2
and diverged when |Z'|^2 exceeds divergence_factor |Y|^2.  With the hook the
rule is joint per trial: both parts stop when their summed relative change
drops to eps_tol or either part diverges.  A stopped row is dropped from the
state; as every operation but the matmuls is row by row, and those keep each
trial's shape, a batched solve gives each trial the bits of its lone solve.
A non-finite iterate fails its whole trial with a RecoveryError, while the
other trials run on; a lone solve raises it.  A non-finite X' reaches Z'
through A, so X' and Z' are checked entry by entry only when some |Z'|^2 is
not finite.  Inputs are validated once, at entry.  _solve is every complex
solver's way into and out of the loop: it stacks each y's (re, im) parts as
two rows, checked against its A, and joins the two rows' results.

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

    denoise(U, beta) -> (X, summed derivative per row, *terms), beta holding
    the rows' noise variances.  hook(U, beta, X, terms, Z) returns the term
    added to the new residual, Z being the one that formed U, and selects the
    joint rule over each problem's (re, im) pair of rows; hook.gamma(j) is
    stopping row j's working gamma, and hook.keep(live) drops its rows with
    the loop's.  Without a hook the denoiser must treat all rows alike,
    because stopped rows are dropped.
    """
    m, n = problems[0][0].shape
    if any(A.shape != (m, n) for A, _ in problems):
        raise ValueError("the problems of one solve must share (M, N)")
    Y = np.concatenate([Y for _, Y in problems])
    rows = [(trial, part) for trial, (_, Yt) in enumerate(problems)
            for part in range(len(Yt))]
    spans = _spans(rows, problems)
    results: list = [[None] * len(Yt) for _, Yt in problems]
    X, Z, energy = np.zeros((len(Y), n)), Y.copy(), _sq_norms(Y)
    limit = settings.divergence_factor * energy
    for t in range(1, settings.t_max + 1):
        beta = np.maximum(energy / m, beta_floor)
        U = X + _times(spans, Z)
        X, deriv_sum, *terms = denoise(U, beta)
        Z_new = Y - _times(spans, X, transpose=True) + (deriv_sum / m)[:, None] * Z
        if hook is not None:
            Z_new += hook(U, beta, X, terms, Z)
        change = _sq_norms(Z_new - Z)
        prev, Z, energy = energy, Z_new, _sq_norms(Z_new)
        diverged = energy > limit
        if hook is None:
            converged = (prev == 0.0) | (change <= settings.eps_tol * prev)
        else:  # joint rule on each pair's summed relative change, 0/0 as 0
            ratio = change / prev if prev.all() else np.divide(
                change, prev, where=prev != 0.0, out=np.where(change == 0.0, 0.0, np.inf))
            converged = (ratio[0::2] + ratio[1::2] <= settings.eps_tol).repeat(2)
            diverged = (diverged[0::2] | diverged[1::2]).repeat(2)
        stop = converged | diverged
        if t == settings.t_max:
            stop[:] = True
        # X reaches Z through A (a zero column keeps X at 0): |Z|^2 flags both
        if not np.isfinite(energy).all():
            # the whole trial fails, a part that stopped before included
            bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(Z).all(axis=1))
            for trial in {rows[j][0] for j in np.flatnonzero(bad)}:
                results[trial] = RecoveryError(
                    f"AMP produced a non-finite iterate at t={t}")
            stop |= [isinstance(results[trial], RecoveryError) for trial, _ in rows]
        if not stop.any():
            continue
        diverged &= ~converged
        for j in np.flatnonzero(stop):
            trial, part = rows[j]
            if isinstance(results[trial], RecoveryError):
                continue
            results[trial][part] = AmpPartResult(
                x_hat=X[j].copy(), u=U[j].copy(), beta=float(beta[j]),
                iterations=t, converged=bool(converged[j]),
                diverged=bool(diverged[j]),
                gamma=None if hook is None else hook.gamma(j))
        if stop.all():
            break
        live = ~stop
        X, Z, Y = X[live], Z[live], Y[live]
        energy, limit = energy[live], limit[live]
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


def _solve(problems, denoise, settings: RecoverySettings, beta_floor: float, hook=None,
           gamma0=None, answer=lambda Y: None) -> list:
    """Per (A, y) of problems, its RecoveryOutput or the RecoveryError of its
    non-finite iterate; gamma0, if given, is echoed as both working gammas,
    and a problem that answer(Y) answers (not None) skips the loop."""
    stacked = [_stack(A, y.re, y.im) for A, y in problems]
    answers = [answer(Y) for _, Y in stacked]
    live = [problem for problem, out in zip(stacked, answers) if out is None]
    solved = iter(_iterate(live, denoise, settings, beta_floor, hook) if live else [])
    outputs = []
    for out in answers:
        if out is None:
            out = next(solved)
        if isinstance(out, list):  # a solve's (re, im) results
            r, i = out
            gammas = (r.gamma, i.gamma) if gamma0 is None else (gamma0.copy(), gamma0.copy())
            out = RecoveryOutput(
                x_hat=combine(r.x_hat, i.x_hat), u_r=r.u, u_i=i.u, beta_r=r.beta,
                beta_i=i.beta, gamma_r=gammas[0], gamma_i=gammas[1],
                iterations=max(r.iterations, i.iterations),
                converged=r.converged and i.converged, diverged=r.diverged or i.diverged)
        outputs.append(out)
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
    return _solve(problems, _soft_denoiser(cfg.lam), cfg.settings, 0.0)


def camp_recover(A: np.ndarray, y: ComplexVector, cfg: AmpConfig) -> RecoveryOutput:
    """AMP on the real and imaginary parts, each stopping on its own rule."""
    return _single(_camp_batch([(A, y)], cfg))
