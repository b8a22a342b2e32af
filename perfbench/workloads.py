"""The benchmark's workloads: named, seeded calls into csamp's public API.

A workload is a fixed list of pieces (top-level public calls) built from the
seed.  One rep runs every piece once; the pieces' results together are the
workload's full result, which every rep must reproduce exactly.  Functions
are looked up on their modules at call time, so a trace installed around a
rep sees the top-level calls too.

Every workload runs with workers=1: on a small shared machine a process pool
would mostly measure the scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

import csamp.cli as cli
import csamp.experiments as experiments
import csamp.model as model

import gates


@dataclass(frozen=True)
class Summary:
    """What one full result says: its quality figure (higher is better), the
    solves it ran and how many of those failed, plus named figures that are
    printed but not part of the metric set."""

    quality: float
    solves: int
    failed: int
    named: dict


# --- desk-grids ---------------------------------------------------------------

# M = 38, 48, 64, 77 and K/M from 0.2 to 0.55 at N = 256: the cells straddle
# the transition and hold (256, 48, 20) and (256, 77, 20)
DESK_M_RATIOS = (0.15, 0.1875, 0.25, 0.3)
DESK_K_RATIOS = (0.2, 0.26, 0.35, 0.4167, 0.55)


class DeskGrids:
    name = "desk-grids"

    def __init__(self, seed: int, smoke: bool):
        self.cfg = experiments.GridConfig(
            n=256,
            m_ratios=DESK_M_RATIOS[-2:] if smoke else DESK_M_RATIOS,
            k_ratios=DESK_K_RATIOS[1:3] if smoke else DESK_K_RATIOS,
            trials=1 if smoke else 3,
            base_seed=seed,
            workers=1,
        )

    def pieces(self):
        cfg = self.cfg
        return [
            ("recovery-grid", lambda: experiments.run_phase_transition(cfg)),
            ("support-grid", lambda: experiments.run_support_phase_transition(cfg)),
        ]

    def sample_instances(self):
        cfg = self.cfg
        cells = list(product(cfg.m_ratios, cfg.k_ratios))
        picks = sorted({0, len(cells) // 3, 2 * len(cells) // 3, len(cells) - 1})
        out = []
        for idx in picks:
            m, k = cfg.cell_dims(*cells[idx])
            inst, _ = model.make_instance(
                m, cfg.n, k, experiments.trial_rng(cfg.base_seed, idx, 0),
                sigma_x2=cfg.sigma_x2, snr=cfg.snr, noiseless=cfg.noiseless,
            )
            out.append(inst)
        return out

    def summarize(self, results) -> Summary:
        recovery, support = results
        rates = recovery.column("success_rate") + support.column("success_rate")
        solves = sum(recovery.column("trials"))
        failed = sum(recovery.column("diverged"))
        # detectors of one algorithm share its solve: count it once per cell
        shared: dict = {}
        cols = support.columns
        i_m, i_k, i_a = cols.index("m"), cols.index("k"), cols.index("algorithm")
        i_t, i_d = cols.index("trials"), cols.index("diverged")
        for row in support.rows:
            key = (row[i_m], row[i_k], row[i_a])
            _, diverged = shared.get(key, (0, 0))
            shared[key] = (row[i_t], max(diverged, row[i_d]))
        solves += sum(t for t, _ in shared.values())
        failed += sum(d for _, d in shared.values())
        success = float(np.mean(rates))
        return Summary(success, solves, failed, {"success_rate": (success, "share")})

    def gates(self, results):
        return []


# --- paper-snr -----------------------------------------------------------------

SNR_N, SNR_K, SNR_M_LIST, SNR_DB_LIST = 1000, 60, (150, 300), (10.0, 20.0, 30.0)


class PaperSnr:
    name = "paper-snr"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.snr_db = SNR_DB_LIST[:1] if smoke else SNR_DB_LIST
        self.trials = 1 if smoke else 8

    def pieces(self):
        return [(
            "nmse-sweep",
            lambda: experiments.run_nmse_sweep(
                SNR_N, SNR_K, SNR_M_LIST, self.snr_db, self.trials,
                base_seed=self.seed, workers=1,
            ),
        )]

    def sample_instances(self):
        points = list(product(SNR_M_LIST, self.snr_db))
        out = []
        for idx in (0, len(self.snr_db)):  # lowest SNR at each M
            m, snr_db = points[idx]
            inst, _ = model.make_instance(
                m, SNR_N, SNR_K, experiments.trial_rng(self.seed, idx, 0),
                snr=10.0 ** (snr_db / 10.0), noiseless=False,
            )
            out.append(inst)
        return out

    def summarize(self, results) -> Summary:
        (sweep,) = results
        nmse_db = float(np.mean([10.0 * math.log10(v) for v in sweep.column("nmse_median")]))
        return Summary(
            -nmse_db, sum(sweep.column("trials")), sum(sweep.column("diverged")),
            {"nmse_db": (nmse_db, "dB")},
        )

    def gates(self, results):
        return []


# --- validate ------------------------------------------------------------------

ORACLE_CONDITIONS = (("noiseless", True), ("snr20dB", False))
ALGORITHMS = ("amp", "cbamp", "cbossamp")


class Validate:
    name = "validate"

    def __init__(self, seed: int, smoke: bool):
        # the oracle trials come in chunks with their own seeds, so the
        # oracle gate can estimate its sampling error from the chunk spread
        self.chunks = 2 if smoke else 6
        self.chunk_trials = 2 if smoke else 12
        self.seeds = [seed * self.chunks + c for c in range(self.chunks)]
        self.u_grid = cli.VALIDATION_U_GRID[::10] if smoke else cli.VALIDATION_U_GRID

    def pieces(self):
        pieces = [(
            "denoiser-grid",
            # denoise_fn is looked up here so a trace sees the closed form
            lambda: cli.denoiser_validation_rows(denoise_fn=cli.denoise,
                                                 u_grid=self.u_grid),
        )]
        for label, noiseless in ORACLE_CONDITIONS:
            for c, s in enumerate(self.seeds):
                pieces.append((
                    f"oracle-{label}-{c}",
                    lambda s=s, noiseless=noiseless: cli.oracle_validation_rows(
                        trials=self.chunk_trials, seed=s, noiseless=noiseless),
                ))
        return pieces

    def sample_instances(self):
        out = []
        for _label, noiseless in ORACLE_CONDITIONS:
            for j in range(min(5, self.chunk_trials)):
                # as oracle_validation_rows draws them: N=10, M=6, K=2, 20 dB
                inst, _ = model.make_instance(
                    6, 10, 2, experiments.trial_rng(self.seeds[0], 0, j),
                    snr=None if noiseless else 100.0, noiseless=noiseless,
                )
                out.append(inst)
        return out

    def _oracle_rows(self, results):
        """{(condition, algorithm, part): [(alg_mse, oracle_mse) per chunk]}"""
        table: dict = {}
        chunk_results = iter(results[1:])
        for label, _ in ORACLE_CONDITIONS:
            for _ in self.seeds:
                rows, _violations = next(chunk_results)
                for algo, part, alg_mse, oracle_mse, _margin in rows:
                    table.setdefault((label, algo, part), []).append((alg_mse, oracle_mse))
        return table

    def summarize(self, results) -> Summary:
        _rows, max_diff = results[0]
        table = self._oracle_rows(results)
        efficiency = []
        failed = set()  # (condition, algorithm, chunk) with a non-finite mean
        for (label, algo, _part), pairs in table.items():
            failed.update((label, algo, c) for c, (a, o) in enumerate(pairs)
                          if not (math.isfinite(a) and math.isfinite(o)))
            efficiency.append(np.mean([o for _, o in pairs]) / np.mean([a for a, _ in pairs]))
        # the oracle MSEs of ~70 trials scatter by tens of percent from seed
        # to seed, so the quality figure is the grid's digits of agreement
        digits = -math.log10(max(max_diff, 1e-16))
        solves = len(ORACLE_CONDITIONS) * self.chunks * self.chunk_trials * len(ALGORITHMS)
        return Summary(digits, solves, len(failed) * self.chunk_trials, {
            "denoiser_max_diff": (max_diff, "abs"),
            "oracle_efficiency": (float(np.mean(efficiency)), "share"),
        })

    def gates(self, results):
        rows, max_diff = results[0]
        return [
            gates.Gate("denoiser grid closed form vs quadrature",
                       len(rows), max_diff <= gates.DENOISER_TOL,
                       f"max |diff| = {max_diff:.3e}"),
            gates.oracle_bound(self._oracle_rows(results)),
        ]


WORKLOADS = {w.name: w for w in (DeskGrids, PaperSnr, Validate)}
