"""The AMP loop shared by every solver, and the soft-thresholding baseline.

_iterate runs AMP on a batch of problems (A_t, y_t) that share (M, N): the
live rows of all of them, one per (trial, part), form one stacked (R, N)
state, the trials with two live rows ahead of those with one.  Each
problem keeps its own denoiser constants (amp's lambda, a prior's s2 and
log-odds), held as one row per state row: a column when they are scalars,
which gives the bits of the scalar in every elementwise operation.
Each iteration makes one stacked matmul per live-row count r (1 or 2): the
Z rows of the T trials with r live rows, as a (T, r, M) view, times those
trials' A stacked (T, M, N), and the same with X and A.T.  numpy runs each
matrix of a stack through the kernel of the lone (r, M) @ A_t, so every
trial's product has the shape and bits of its lone solve's.  _StackedA
keeps that row order (its keep) and rebuilds the A stack only when the live
trials or their order change; a lone trial's is a view.
Everything else runs once over all rows:

    U = X + A^T Z,    X' = eta(U; beta),    Z' = Y - A X' + (sum eta'(U) / M) Z,

with beta = |z|^2 / M per row and eta's constants those of each row's
problem.  eta is the solver's step, which returns X', the summed
derivative, a term to add to Z' (or None) and its own per-row state for
the next step: cbossamp's likelihood exchange (bossamp.py) keeps its
log-odds and memory there and adds its memory term.  Each row stops on its
own rule, converged when |Z' - Z|^2 <= eps_tol |Z|^2 and diverged when
|Z'|^2 exceeds divergence_factor |Y|^2, or, under cbossamp's joint rule,
both parts of a trial stop when their summed relative change drops to
eps_tol or either part diverges.  A stopped row is dropped from every
per-row array at once, the step's state included; as every operation but
the matmuls is row by row, and those keep each trial's bits, a batched
solve gives each trial the bits of its lone solve.
A non-finite iterate fails its whole trial with a RecoveryError, while the
other trials run on; a lone solve raises it.  A non-finite X' reaches Z'
through A, so X' and Z' are checked entry by entry only when some |Z'|^2 is
not finite.  Inputs are validated once, at entry.  _solve is how every
complex solve enters and leaves the loop: it stacks each y's (re, im) parts
as two rows, checked against its A, runs every problem through the loop,
with data or without, and is the one place where a problem's two rows
become its RecoveryOutput.

Soft-thresholding AMP thresholds at lambda * sqrt(beta), beta unfloored; its
Onsager coefficient is the active-set size over M (the soft threshold's
derivative sums to |x_hat|_0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ComplexVector, RecoveryError, RecoveryOutput, RecoverySettings


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
    a: np.ndarray | None = None  # its row of the step state's first array, if any


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


def _rows(values):
    """Per-problem constants (each a scalar or a length-N vector) stacked one
    row per problem: (P, 1) if all are scalars, else (P, N)."""
    shape = max((np.shape(v) for v in values), key=len) or (1,)
    return np.stack([np.broadcast_to(v, shape) for v in values])


def _sq_norms(v):
    """|v|^2 of a vector, or of each part of a stacked state."""
    return np.einsum("...i,...i->...", v, v)


class _StackedA:
    """The live trials' A stacked (T, M, N) in state order, a lone trial's as
    a view, and the runs of trials with r live rows, as (r, row slice, trial
    slice).  The stack is rebuilt only when the live trials or their order
    change, the old one freed first."""

    def __init__(self, problems, trial):
        self.problems, self.trials = problems, None
        self.update(trial)

    @staticmethod
    def keep(trial, live):
        """The indices of the live rows in their new order: the trials with
        two live rows first, a stable order otherwise, so each trial's rows
        stay consecutive and the trials with r live rows are one run."""
        live = np.flatnonzero(live)
        two = np.bincount(trial[live])[trial[live]] == 2
        return np.concatenate([live[two], live[~two]])

    def update(self, trial):
        """Follow the live rows, the trial of each in state order (keep's)."""
        trials = trial[np.r_[True, trial[1:] != trial[:-1]]]
        pairs = len(trial) - len(trials)  # the trials with two live rows, ahead
        self.runs = [(2, slice(0, 2 * pairs), slice(0, pairs))] if pairs else []
        if len(trials) > pairs:
            self.runs.append((1, slice(2 * pairs, None), slice(pairs, None)))
        if not np.array_equal(trials, self.trials):
            self.trials, self.A = trials, None
            self.A = (self.problems[trials[0]][0][None] if len(trials) == 1
                      else np.stack([self.problems[j][0] for j in trials]))

    def times(self, V, transpose=False):
        """Each trial's rows of V times its A (or A.T), one stacked matmul
        (T, r, M) @ (T, M, N) per run: numpy runs each matrix of a stack
        through the kernel of the lone product, so a trial keeps the bits of
        its lone solve, while row 0 of a (2, M) @ A differs in bits from a
        (1, M) @ A."""
        B = self.A.transpose(0, 2, 1) if transpose else self.A
        if len(self.runs) == 1:
            return (V.reshape(len(B), self.runs[0][0], -1) @ B).reshape(len(V), -1)
        out = np.empty((len(V), B.shape[2]))
        for r, rows, trials in self.runs:
            np.matmul(V[rows].reshape(-1, r, V.shape[1]), B[trials],
                      out=out[rows].reshape(-1, r, B.shape[2]))
        return out


def _take(rows, index):
    """The rows index of each per-row array of rows, through nested lists
    and tuples (None stays None)."""
    if isinstance(rows, (list, tuple)):
        return [_take(v, index) for v in rows]
    return None if rows is None else rows[index]


def _iterate(problems, step, settings: RecoverySettings, beta_floor: float,
             consts=(), joint=False) -> list:
    """AMP on the rows of every (A, Y) of problems (module docstring); per
    problem, one AmpPartResult per row of its Y or the RecoveryError of a
    non-finite iterate.  The problems share (M, N).

    step(U, beta, Z, consts, state) -> (X, summed derivative per row,
    term or None, state) is the solver's step: beta holds the rows' noise
    variances, Z the residuals that formed U and consts the constants of the
    rows' problems (each entry one row per problem, or None, repeated for
    each of the problem's rows).  The term, if any, is added to the new
    residual.  state is None at the first step and then what the last step
    returned: None, or a sequence of per-row arrays whose first a stopping
    row's result keeps as its a.  The loop holds every per-row array (X, Z,
    Y, the energies and limits, consts, state, and each row's trial and
    part) in one row order and reindexes them all at one site when rows
    stop.  joint selects the joint rule over each problem's (re, im) pair
    of rows; it stops pairs, so each pair stays adjacent, re first, and a
    step may pair rows 2p and 2p + 1.
    """
    m, n = problems[0][0].shape
    if any(A.shape != (m, n) for A, _ in problems):
        raise ValueError("the problems of one solve must share (M, N)")
    Y = np.concatenate([Y for _, Y in problems])
    trial = np.concatenate([np.full(len(Yt), j) for j, (_, Yt) in enumerate(problems)])
    part = np.concatenate([np.arange(len(Yt)) for _, Yt in problems])
    stacked = _StackedA(problems, trial)
    consts = _take(consts, trial)
    results: list = [[None] * len(Yt) for _, Yt in problems]
    X, Z, energy, state = np.zeros((len(Y), n)), Y.copy(), _sq_norms(Y), None
    limit = settings.divergence_factor * energy
    for t in range(1, settings.t_max + 1):
        beta = np.maximum(energy / m, beta_floor)
        U = X + stacked.times(Z)
        X, deriv_sum, term, state = step(U, beta, Z, consts, state)
        Z_new = Y - stacked.times(X, transpose=True) + (deriv_sum / m)[:, None] * Z
        if term is not None:
            Z_new += term
        change = _sq_norms(Z_new - Z)
        prev, Z, energy = energy, Z_new, _sq_norms(Z_new)
        diverged = energy > limit
        if not joint:
            converged = (prev == 0.0) | (change <= settings.eps_tol * prev)
        else:  # summed relative change of each pair, 0/0 as 0
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
            for j in np.unique(trial[bad]):
                results[j] = RecoveryError(f"AMP produced a non-finite iterate at t={t}")
            stop |= np.isin(trial, trial[bad])
        if not stop.any():
            continue
        diverged &= ~converged
        for j in np.flatnonzero(stop):
            if isinstance(results[trial[j]], RecoveryError):
                continue
            results[trial[j]][part[j]] = AmpPartResult(
                x_hat=X[j].copy(), u=U[j].copy(), beta=float(beta[j]),
                iterations=t, converged=bool(converged[j]),
                diverged=bool(diverged[j]), a=None if state is None else state[0][j].copy())
        if stop.all():
            break
        X, Z, Y, energy, limit, consts, state, trial, part = _take(
            [X, Z, Y, energy, limit, consts, state, trial, part], stacked.keep(trial, ~stop))
        stacked.update(trial)
    return results


def _stack(A, *parts):
    """A as a float matrix and the parts of y as the rows of Y."""
    A = np.asarray(A, dtype=float)
    Y = np.stack([np.asarray(p, dtype=float) for p in parts])
    if A.ndim != 2 or Y.shape != (len(parts), A.shape[0]):
        raise ValueError("y length must equal M")
    return A, Y


def _solve(problems, step, settings: RecoverySettings, beta_floor: float, consts=(),
           joint=False, gammas=lambda j, r, i: (None, None)) -> list:
    """Per (A, y) of problems, its RecoveryOutput or the RecoveryError of its
    non-finite iterate: every problem, with data or without, runs the loop
    on its (re, im) rows.  step, consts and joint are _iterate's, consts one
    row per problem each; gammas(j, r, i) gives problem j's working gammas
    from its (re, im) results."""
    outputs = _iterate([_stack(A, y.re, y.im) for A, y in problems], step, settings,
                       beta_floor, consts, joint)
    for j, out in enumerate(outputs):
        if not isinstance(out, RecoveryError):
            r, i = out
            gamma_r, gamma_i = gammas(j, r, i)
            outputs[j] = RecoveryOutput(
                x_hat=ComplexVector(r.x_hat, i.x_hat), u_r=r.u, u_i=i.u, beta_r=r.beta,
                beta_i=i.beta, gamma_r=gamma_r, gamma_i=gamma_i,
                iterations=max(r.iterations, i.iterations),
                converged=r.converged and i.converged, diverged=r.diverged or i.diverged)
    return outputs


def _single(results):
    """The result of a batch of one, raising its RecoveryError."""
    (result,) = results
    if isinstance(result, RecoveryError):
        raise result
    return result


def _soft(u, beta, z, consts, state):
    """The loop's soft-thresholding step at each row's multiplier, consts
    (lam,)."""
    x = _shrink(u, consts[0] * np.sqrt(beta)[..., None])
    return x, (x != 0.0).sum(axis=-1), None, state


def amp_recover(A: np.ndarray, y_part: np.ndarray, cfg: AmpConfig) -> AmpPartResult:
    """Soft-thresholding AMP on one real part."""
    return _single(_iterate([_stack(A, y_part)], _soft, cfg.settings, 0.0,
                            (_rows([cfg.lam]),)))[0]


def _camp_batch(problems, lams, settings: RecoverySettings) -> list:
    """camp_recover on each (A, y) of problems at its threshold multiplier
    lams[j], in one loop: a RecoveryOutput per problem, or the RecoveryError
    of one whose iterate went non-finite."""
    lams = _rows(lams)
    if not (lams > 0.0).all():
        raise ValueError("lambda must be positive")
    return _solve(problems, _soft, settings, 0.0, (lams,))


def camp_recover(A: np.ndarray, y: ComplexVector, cfg: AmpConfig) -> RecoveryOutput:
    """AMP on the real and imaginary parts, each stopping on its own rule."""
    return _single(_camp_batch([(A, y)], [cfg.lam], cfg.settings))
