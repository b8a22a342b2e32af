"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The two grid studies (recovery and support-detection phase transitions at
N=256, 19x19 cells, 50 trials) and the N=500 SNR sweep are the expensive
parts.  They run once as module fixtures; the two grids share one pass, so
each grid instance is solved once per algorithm.
"""

import os
import time

import numpy as np
import pytest

from csamp.amp import soft_threshold
from csamp.bamp import bamp_step, cbamp_recover
from csamp.bossamp import cbossamp_recover
from csamp.cli import (
    VALIDATION_BETAS,
    VALIDATION_GAMMAS,
    VALIDATION_S2,
    VALIDATION_U_GRID,
    denoiser_validation_rows,
    oracle_validation_rows,
)
from csamp.denoiser import DenoiserParams, denoise, denoise_deriv
from csamp.experiments import (
    GridConfig,
    run_grids,
    run_nmse_sweep,
    run_phase_transition,
    trial_rng,
)
from csamp.model import (
    ComplexVector,
    RecoverySettings,
    gen_matrix,
    make_instance,
    nmse,
)
from csamp.support import detect_em, detect_prior_based

WORKERS = max(1, os.cpu_count() or 1)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if passed else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def grids():
    """The recovery and support grids from one pass over shared instances."""
    cfg = GridConfig(n=256, trials=50, base_seed=2026, workers=WORKERS)
    start = time.time()
    result = run_grids(cfg)
    print(f"\n[recovery and support grids: {time.time() - start:.0f}s "
          f"on {WORKERS} workers]")
    return result


@pytest.fixture(scope="module")
def recovery_grid(grids):
    return grids[0]


@pytest.fixture(scope="module")
def support_grid(grids):
    return grids[1]


def grid_average(result, **match):
    cols = result.columns
    idx = {name: cols.index(name) for name in match}
    rate_idx = cols.index("success_rate")
    rates = [
        row[rate_idx]
        for row in result.rows
        if all(row[idx[name]] == value for name, value in match.items())
    ]
    assert rates, f"no rows match {match}"
    return float(np.mean(rates))


def test_criterion_1_denoiser_oracle_equivalence():
    start = time.time()
    rows, max_diff = denoiser_validation_rows()
    elapsed = time.time() - start
    passed = max_diff <= 1e-8 and elapsed < 10.0
    report(1, passed, f"max |closed-quadrature| = {max_diff:.3e} "
                      f"over {len(rows)} points in {elapsed:.1f}s")
    assert max_diff <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_derivative_matches_finite_differences():
    worst = 0.0
    for beta in VALIDATION_BETAS:
        for gamma in VALIDATION_GAMMAS:
            p = DenoiserParams(beta=beta, gamma=gamma, s2=VALIDATION_S2)
            for u in VALIDATION_U_GRID:
                h = 1e-5 * max(1.0, abs(u))
                fd = (denoise(u + h, p) - denoise(u - h, p)) / (2 * h)
                an = denoise_deriv(u, p)
                rel = abs(fd - an) / max(abs(an), abs(fd), 1e-12)
                worst = max(worst, rel)
    passed = worst <= 1e-5
    report(2, passed, f"worst relative FD mismatch = {worst:.3e}")
    assert worst <= 1e-5


def test_criterion_3_exchange_disabled_is_bitwise_cbamp():
    mismatches = 0
    for j in range(20):
        inst, _ = make_instance(32, 64, 6, trial_rng(303, 0, j))
        a = cbamp_recover(inst.A, inst.y, inst.prior)
        b = cbossamp_recover(inst.A, inst.y, inst.prior, exchange=False)
        same = (
            np.array_equal(a.x_hat.re, b.x_hat.re)
            and np.array_equal(a.x_hat.im, b.x_hat.im)
            and np.array_equal(a.u_r, b.u_r)
            and np.array_equal(a.u_i, b.u_i)
            and a.beta_r == b.beta_r
            and a.beta_i == b.beta_i
            and np.array_equal(a.gamma_r, b.gamma_r)
            and a.iterations == b.iterations
            and a.converged == b.converged
            and a.diverged == b.diverged
        )
        mismatches += not same
    report(3, mismatches == 0, f"{20 - mismatches}/20 instances bitwise identical")
    assert mismatches == 0


def test_criterion_4_no_algorithm_beats_exact_mmse():
    start = time.time()
    all_violations = []
    details = []
    for label, kwargs in (
        ("noiseless", dict(noiseless=True)),
        ("snr20dB", dict(snr_db=20.0)),
    ):
        rows, violations = oracle_validation_rows(trials=500, seed=404, **kwargs)
        all_violations += violations
        margin = min(row[4] for row in rows)
        details.append(f"{label} min margin {margin:+.2e}")
    elapsed = time.time() - start
    passed = not all_violations and elapsed < 120.0
    report(4, passed, "; ".join(details) + f"; {elapsed:.0f}s")
    assert all_violations == []
    assert elapsed < 120.0


def test_criterion_5_recovery_ordering_at_desk_scale(recovery_grid):
    avg = {
        algo: grid_average(recovery_grid, algorithm=algo)
        for algo in ("amp", "cbamp", "cbossamp")
    }
    passed = (
        avg["cbossamp"] >= avg["cbamp"] - 0.02
        and avg["cbamp"] >= avg["amp"] - 0.02
    )
    report(5, passed, f"grid-averaged success: cbossamp={avg['cbossamp']:.4f} "
                      f">= cbamp={avg['cbamp']:.4f} >= amp={avg['amp']:.4f}")
    assert avg["cbossamp"] >= avg["cbamp"] - 0.02
    assert avg["cbamp"] >= avg["amp"] - 0.02


def test_criterion_6_exchange_gap_at_stated_point():
    # As stated: N=256, M=77, K=20, noiseless, 100 paired trials; requires
    # the cbossamp-cbamp success gap >= 0.15 at this point.  Both solvers
    # operate deep inside their success regions here (the measured gap
    # region at K=20 lies at M ~ 42..60), so the stated gap does not exist;
    # the test states the criterion faithfully and is expected to fail.
    hits = {"cbamp": 0, "cbossamp": 0}
    for j in range(100):
        inst, _ = make_instance(77, 256, 20, trial_rng(606, 0, j))
        for algo, solver in (("cbamp", cbamp_recover), ("cbossamp", cbossamp_recover)):
            out = solver(inst.A, inst.y, inst.prior)
            hits[algo] += nmse(out.x_hat, inst.x_true) < 1e-4
    gap = (hits["cbossamp"] - hits["cbamp"]) / 100.0
    passed = gap >= 0.15
    report(6, passed, f"success gap at (N=256, M=77, K=20) = {gap:+.2f} "
                      f"(cbossamp {hits['cbossamp']}/100, cbamp {hits['cbamp']}/100)")
    assert gap >= 0.15


def test_criterion_6b_exchange_gap_inside_measured_transition_band():
    # The underlying claim (a wide M-range where independent chains fail
    # and the exchange succeeds) holds strongly at M=48 on the same axes.
    hits = {"cbamp": 0, "cbossamp": 0}
    for j in range(100):
        inst, _ = make_instance(48, 256, 20, trial_rng(606, 0, j))
        for algo, solver in (("cbamp", cbamp_recover), ("cbossamp", cbossamp_recover)):
            out = solver(inst.A, inst.y, inst.prior)
            hits[algo] += nmse(out.x_hat, inst.x_true) < 1e-4
    gap = (hits["cbossamp"] - hits["cbamp"]) / 100.0
    report(6, gap >= 0.15, f"[supplement] gap at (N=256, M=48, K=20) = {gap:+.2f}")
    assert gap >= 0.15


@pytest.fixture(scope="module")
def snr_sweep():
    start = time.time()
    result = run_nmse_sweep(
        n=500, k=20, m_list=[70, 140], snr_db_list=[10.0, 20.0, 30.0, 40.0],
        trials=200, base_seed=707, workers=WORKERS,
    )
    print(f"\n[snr sweep: {time.time() - start:.0f}s on {WORKERS} workers]")
    return result


def _sweep_cell(snr_sweep, m, snr, algo):
    for row in snr_sweep.rows:
        if row[0] == m and row[1] == snr and row[2] == algo:
            return row
    raise AssertionError(f"missing row {(m, snr, algo)}")


def test_criterion_7_snr_sweep_claims(snr_sweep):
    # As stated.  Sub-claim (a)'s cbossamp clause requires the 200-trial
    # MEAN at (M=70, 40dB) to keep improving.  It holds only if cbossamp
    # recovers every draw there: a single lost draw (NMSE ~0.7) dominates
    # the mean.  Without the exchange's memory term 3 of the 200 draws were
    # lost to an oscillation of the coupled chains, although cbamp solves
    # them; test_bossamp pins those draws.
    def mean_db(m, snr, algo):
        return 10.0 * np.log10(_sweep_cell(snr_sweep, m, snr, algo)[4])

    cbamp_gain = mean_db(70, 30.0, "cbamp") - mean_db(70, 40.0, "cbamp")
    cboss_gain = mean_db(70, 30.0, "cbossamp") - mean_db(70, 40.0, "cbossamp")
    cboss_med = _sweep_cell(snr_sweep, 70, 40.0, "cbossamp")[5]
    amp_med = _sweep_cell(snr_sweep, 140, 40.0, "amp")[5]

    ok_floor = cbamp_gain < 3.0
    ok_gain = cboss_gain > 3.0
    ok_median = cboss_med < amp_med
    report(7, ok_floor and ok_gain and ok_median,
           f"cbamp@70 floor {cbamp_gain:+.2f}dB<3 [{'ok' if ok_floor else 'FAIL'}]; "
           f"cbossamp@70 gain {cboss_gain:+.2f}dB>3 [{'ok' if ok_gain else 'FAIL'}]; "
           f"median@40dB cbossamp@70 {cboss_med:.2e} < amp@140 {amp_med:.2e} "
           f"[{'ok' if ok_median else 'FAIL'}]")
    assert ok_floor
    assert ok_gain
    assert ok_median


def test_criterion_7b_supplementary_robust_claims(snr_sweep):
    # The reproducible form of the same comparison: cbamp@70's mean is
    # failure-dominated and flat while cbossamp@70 stays strictly better at
    # every SNR, and with half the measurements its median still beats AMP.
    def mean(m, snr, algo):
        return _sweep_cell(snr_sweep, m, snr, algo)[4]

    cbamp_gain = 10.0 * np.log10(mean(70, 30.0, "cbamp") / mean(70, 40.0, "cbamp"))
    superior = all(
        mean(70, snr, "cbossamp") < mean(70, snr, "cbamp")
        for snr in (10.0, 20.0, 30.0, 40.0)
    )
    cboss_med_gain = 10.0 * np.log10(
        _sweep_cell(snr_sweep, 70, 30.0, "cbossamp")[5]
        / _sweep_cell(snr_sweep, 70, 40.0, "cbossamp")[5]
    )
    cboss_med = _sweep_cell(snr_sweep, 70, 40.0, "cbossamp")[5]
    amp_med = _sweep_cell(snr_sweep, 140, 40.0, "amp")[5]
    passed = cbamp_gain < 3.0 and superior and cboss_med_gain > 3.0 and cboss_med < amp_med
    report(7, passed, f"[supplement] cbamp@70 mean flat ({cbamp_gain:+.2f}dB), "
                      f"cbossamp@70 mean below cbamp at all SNRs: {superior}, "
                      f"median gain 30->40dB {cboss_med_gain:+.2f}dB, "
                      f"median@40dB beats amp@140: {cboss_med < amp_med}")
    assert cbamp_gain < 3.0
    assert superior
    assert cboss_med_gain > 3.0
    assert cboss_med < amp_med


def test_snr_sweep_monotone_for_cbossamp_at_m140(snr_sweep):
    # mean NMSE nonincreasing in SNR up to one adjacent inversion
    means = [_sweep_cell(snr_sweep, 140, snr, "cbossamp")[4]
             for snr in (10.0, 20.0, 30.0, 40.0)]
    inversions = sum(b > a for a, b in zip(means, means[1:]))
    assert inversions <= 1


def test_criterion_8_support_detection_orderings(support_grid):
    boss_em = grid_average(support_grid, algorithm="cbossamp", detector="em")
    boss_prior = grid_average(support_grid, algorithm="cbossamp", detector="prior")
    bamp_em = grid_average(support_grid, algorithm="cbamp", detector="em")
    close = abs(boss_em - boss_prior) <= 0.05
    better = boss_em >= bamp_em + 0.02 and boss_prior >= bamp_em + 0.02
    report(8, close and better,
           f"grid averages: cbossamp+em={boss_em:.4f}, cbossamp+prior={boss_prior:.4f} "
           f"(|diff|={abs(boss_em - boss_prior):.4f} <= 0.05), cbamp+em={bamp_em:.4f}")
    assert close
    assert better


def test_criterion_9_sweeps_byte_identical_across_workers(tmp_path):
    cfg = dict(n=64, m_ratios=(0.2, 0.5, 0.8), k_ratios=(0.2, 0.6), trials=5,
               base_seed=909, settings=RecoverySettings(t_max=50))
    paths = []
    for run, workers in (("a", 1), ("b", 2), ("c", 1)):
        result = run_phase_transition(GridConfig(workers=workers, **cfg))
        path = tmp_path / f"{run}.csv"
        result.to_csv(path)
        paths.append(path.read_bytes())
    passed = paths[0] == paths[1] == paths[2]
    report(9, passed, f"3 runs (workers 1/2/1), {len(paths[0])} bytes each, identical")
    assert passed


def test_criterion_10_property_suites():
    rng = np.random.default_rng(1010)
    failures = []

    # denoiser: odd, shrinking, monotone
    for _ in range(200):
        p = DenoiserParams(beta=float(rng.uniform(0.01, 5)),
                           gamma=float(rng.uniform(0, 1)),
                           s2=float(rng.uniform(0.1, 2)))
        u = float(rng.uniform(-6, 6))
        if abs(denoise(-u, p) + denoise(u, p)) > 1e-12:
            failures.append("oddness")
        gain = p.s2 / (p.s2 + p.beta)
        if abs(denoise(u, p)) > gain * abs(u) + 1e-12:
            failures.append("shrinkage")
        if denoise_deriv(u, p) < 0:
            failures.append("monotonicity")

    # Onsager coefficient equals (1/M) sum F'
    A = gen_matrix(12, 30, rng)
    y = rng.standard_normal(12)
    gamma = np.full(30, 0.85)
    x_new, z_new, u_vec, beta = bamp_step(A, y, np.zeros(30), y.copy(), gamma, 0.5, 1e-12)
    coeff = float(np.sum(denoise_deriv(
        u_vec, DenoiserParams(beta=beta, gamma=gamma, s2=0.5)))) / 12
    if not np.allclose(z_new - (y - A @ x_new), coeff * y, atol=1e-12):
        failures.append("onsager")

    # soft threshold scale covariance
    for _ in range(100):
        u = float(rng.uniform(-5, 5))
        theta = float(rng.uniform(0, 2))
        c = float(rng.uniform(0.1, 10))
        if abs(soft_threshold(c * u, c * theta) - c * soft_threshold(u, theta)) > 1e-12:
            failures.append("soft-threshold-scale")

    # detector tie-break and symmetry
    tie = detect_prior_based(np.array([0.9]), np.array([0.1]))
    if tie.active[0]:
        failures.append("prior-tie-break")
    g_r, g_i = rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)
    if not np.array_equal(detect_prior_based(g_r, g_i).active,
                          detect_prior_based(g_i, g_r).active):
        failures.append("prior-symmetry")
    u_eq = np.zeros(1)
    em_tie = detect_em(u_eq, u_eq, 0.5, 0.5, np.array([0.5]), np.array([0.5]), 1.0)
    if em_tie.active[0]:  # sigma_00 > sigma_11 at u=0, and ties go to zero
        failures.append("em-zero-side")

    # NMSE identities
    x = ComplexVector(rng.standard_normal(25), rng.standard_normal(25))
    zero = ComplexVector.zeros(25)
    double = ComplexVector(2 * x.re, 2 * x.im)
    if nmse(x, x) != 0.0:
        failures.append("nmse-self")
    if abs(nmse(zero, x) - 1.0) > 1e-14 or abs(nmse(double, x) - 1.0) > 1e-14:
        failures.append("nmse-unit")

    unique = sorted(set(failures))
    report(10, not unique, "all property suites hold" if not unique
           else f"violated: {', '.join(unique)}")
    assert unique == []
