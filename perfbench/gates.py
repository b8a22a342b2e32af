"""Output-correctness gates built on csamp's own invariants.

Each gate reports how many operations it checked; a failed gate counts all
of them as failed.  The known-red acceptance criteria 6 and 7 are not gated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import csamp.bamp as bamp
import csamp.bossamp as bossamp
import csamp.denoiser as denoiser

DENOISER_TOL = 1e-8
# chunk-pooled oracle margins may fall this many standard errors below zero
# before a solver counts as beating the oracle (sampling noise, not a defect)
ORACLE_Z = 6.0


@dataclass(frozen=True)
class Gate:
    name: str
    ops: int
    passed: bool
    detail: str


def exchange_off_bitwise(instances) -> Gate:
    """cbossamp_recover(exchange=False) reproduces cbamp_recover bit for bit."""
    mismatches = 0
    for inst in instances:
        a = bamp.cbamp_recover(inst.A, inst.y, inst.prior)
        b = bossamp.cbossamp_recover(inst.A, inst.y, inst.prior, exchange=False)
        same = (
            np.array_equal(a.x_hat.re, b.x_hat.re)
            and np.array_equal(a.x_hat.im, b.x_hat.im)
            and np.array_equal(a.u_r, b.u_r)
            and np.array_equal(a.u_i, b.u_i)
            and a.beta_r == b.beta_r
            and a.beta_i == b.beta_i
            and np.array_equal(a.gamma_r, b.gamma_r)
            and np.array_equal(a.gamma_i, b.gamma_i)
            and (a.iterations, a.converged, a.diverged)
            == (b.iterations, b.converged, b.diverged)
        )
        mismatches += not same
    return Gate("cbossamp exchange-off bitwise equals cbamp", len(instances),
                mismatches == 0, f"{len(instances) - mismatches}/{len(instances)} identical")


def denoiser_on_pseudo_data(instances, points: int = 7) -> Gate:
    """Closed form vs quadrature at the first-iteration pseudo-data
    u = A^T y, beta = |y|^2 / M of each instance's real part, under its prior."""
    worst = 0.0
    checked = 0
    for inst in instances:
        y = inst.y.re
        u = inst.A.T @ y
        params = denoiser.DenoiserParams(beta=float(y @ y) / inst.m,
                                         gamma=float(inst.prior.gamma0[0]),
                                         s2=inst.prior.s2)
        for value in np.quantile(u, np.linspace(0.0, 1.0, points)):
            closed = float(denoiser.denoise(value, params))
            worst = max(worst, abs(closed - denoiser.denoise_numeric(value, params)))
            checked += 1
    return Gate("closed-form denoiser vs quadrature on workload pseudo-data", checked,
                worst <= DENOISER_TOL, f"max |diff| = {worst:.3e}")


def oracle_bound(table) -> Gate:
    """No solver beats the exact-MMSE oracle: for every (condition, algorithm,
    part) the chunk-pooled mean MSE margin (solver minus oracle) may not lie
    below zero by more than ORACLE_Z standard errors of the chunk margins."""
    worst_z = math.inf
    violations = []
    for key, pairs in table.items():
        margins = np.array([a - o for a, o in pairs])
        mean = float(margins.mean())
        se = float(margins.std(ddof=1)) / math.sqrt(len(margins)) if len(margins) > 1 else 0.0
        z = mean / se if se > 0 else (math.inf if mean >= 0 else -math.inf)
        worst_z = min(worst_z, z)
        if not np.isfinite(mean) or mean < -1e-9 - ORACLE_Z * se:
            violations.append("/".join(key))
    return Gate("no solver beats the exact-MMSE oracle", len(table), not violations,
                f"worst margin z = {worst_z:+.2f}"
                + (f"; violated by {', '.join(violations)}" if violations else ""))


def repeatable(results_per_rep) -> Gate:
    """Every rep reproduced the first rep's full result exactly."""
    first = results_per_rep[0]
    differing = sum(r != first for r in results_per_rep[1:])
    return Gate("reps reproduce the same result", len(results_per_rep),
                differing == 0, f"{differing} of {len(results_per_rep)} reps differ")
