"""Monte-Carlo sweep harness: phase transitions, NMSE-vs-SNR curves, contours.

Seeding: the instance for trial j of cell c is drawn from
SeedSequence((base_seed, c, j)) and shared by every algorithm and detector,
so comparisons are paired and any worker count reproduces the same bytes.
Per-trial divergence (including non-finite aborts) is recorded as failure
and never aborts a sweep.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from itertools import product
from multiprocessing import Pool

import numpy as np

from ._version import __version__
from .amp import AmpConfig, camp_recover, lambda_heuristic
from .bamp import cbamp_recover
from .bossamp import cbossamp_recover
from .model import (
    BernoulliGaussianPrior,
    ComplexVector,
    ProblemInstance,
    RecoveryError,
    RecoveryOutput,
    RecoverySettings,
    make_instance,
    nmse,
)
from .support import SupportEstimate, detect_em, detect_prior_based, support_metrics

DEFAULT_RATIOS = tuple(float(v) for v in np.linspace(0.05, 0.95, 19))
KNOWN_ALGORITHMS = ("amp", "cbamp", "cbossamp")
DEFAULT_DETECTOR_CONFIGS = (("cbamp", "em"), ("cbossamp", "em"), ("cbossamp", "prior"))


@dataclass(frozen=True)
class GridConfig:
    """Phase-transition grid over (M/N, K/M) ratio axes."""

    n: int = 256
    m_ratios: tuple[float, ...] = DEFAULT_RATIOS
    k_ratios: tuple[float, ...] = DEFAULT_RATIOS
    trials: int = 50
    base_seed: int = 0
    algorithms: tuple[str, ...] = KNOWN_ALGORITHMS
    success_threshold: float = 1e-4
    noiseless: bool = True
    snr: float | None = None
    sigma_x2: float = 1.0
    settings: RecoverySettings = RecoverySettings()
    workers: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for r in tuple(self.m_ratios) + tuple(self.k_ratios):
            if not 0.0 < r <= 1.0:
                raise ValueError(f"grid ratio {r} outside (0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be nonnegative")
        for a in self.algorithms:
            if a not in KNOWN_ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")
        if not self.success_threshold > 0.0:
            raise ValueError("success_threshold must be positive")
        if not self.noiseless and (self.snr is None or self.snr <= 0.0):
            raise ValueError("noisy grids need a positive linear snr")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def cell_dims(self, m_ratio: float, k_ratio: float) -> tuple[int, int]:
        m = max(1, int(round(m_ratio * self.n)))
        k = min(self.n, int(round(k_ratio * m)))
        return m, k


@dataclass
class SweepResult:
    kind: str
    columns: list[str]
    rows: list[tuple]
    meta: dict

    def column(self, name: str) -> list:
        j = self.columns.index(name)
        return [row[j] for row in self.rows]

    def to_csv(self, path) -> None:
        write_csv(path, self.columns, self.rows, self.meta)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, columns, rows, meta) -> None:
    """Write '#'-prefixed metadata, a header line, then the rows; the file
    appears atomically via a same-directory rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            for key in meta:
                fh.write(f"# {key} = {_fmt(meta[key])}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_csv(path) -> tuple[list[str], list[list[str]], dict]:
    """Inverse of write_csv, values kept as strings."""
    meta: dict = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif not columns:
                columns = line.split(",")
            elif line:
                rows.append(line.split(","))
    return columns, rows, meta


def trial_rng(base_seed: int, cell_index: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((base_seed, cell_index, trial)))


def run_algorithm(
    name: str,
    inst: ProblemInstance,
    k: int,
    settings: RecoverySettings,
    lam: float | None = None,
) -> RecoveryOutput:
    """Dispatch one recovery; AMP's threshold multiplier is lam, or else the
    heuristic at the true K."""
    if name == "amp":
        if lam is None:
            lam = lambda_heuristic(max(k, 1))
        return camp_recover(inst.A, inst.y, AmpConfig(lam=lam, settings=settings))
    if name == "cbamp":
        return cbamp_recover(inst.A, inst.y, inst.prior, settings)
    if name == "cbossamp":
        return cbossamp_recover(inst.A, inst.y, inst.prior, settings)
    raise ValueError(f"unknown algorithm {name!r}")


def detect_support(detector: str, out: RecoveryOutput,
                   prior: BernoulliGaussianPrior) -> SupportEstimate:
    """Support estimate of one recovery by the named detector ("em" or
    "prior"); solvers without working gammas (amp) fall back to the prior."""
    gamma0 = prior.gamma0_vector(out.u_r.size)
    g_r = out.gamma_r if out.gamma_r is not None else gamma0
    g_i = out.gamma_i if out.gamma_i is not None else gamma0
    if detector == "em":
        return detect_em(out.u_r, out.u_i, out.beta_r, out.beta_i, g_r, g_i,
                         prior.sigma_x2)
    if detector == "prior":
        return detect_prior_based(g_r, g_i)
    raise ValueError(f"unknown detector {detector!r}")


def _trial_success(x_hat: ComplexVector, x_true: ComplexVector, threshold: float) -> bool:
    if x_true.norm_sq() == 0.0:
        return x_hat.norm_sq() < threshold
    return nmse(x_hat, x_true) < threshold


def _settings_meta(settings: RecoverySettings) -> dict:
    return {
        "t_max": settings.t_max,
        "eps_tol": settings.eps_tol,
        "beta_floor": settings.beta_floor,
        "gamma_clamp": settings.gamma_clamp,
        "divergence_factor": settings.divergence_factor,
        "likelihood_variant": settings.likelihood_variant,
        "part_variance": settings.part_variance,
    }


def _grid_meta(cfg: GridConfig, kind: str) -> dict:
    meta = {
        "kind": kind,
        "version": __version__,
        "n": cfg.n,
        "trials": cfg.trials,
        "base_seed": cfg.base_seed,
        "algorithms": " ".join(cfg.algorithms),
        "m_ratios": " ".join(repr(r) for r in cfg.m_ratios),
        "k_ratios": " ".join(repr(r) for r in cfg.k_ratios),
        "success_threshold": cfg.success_threshold,
        "noiseless": cfg.noiseless,
        "snr": "none" if cfg.snr is None else cfg.snr,
        "sigma_x2": cfg.sigma_x2,
    }
    meta.update(_settings_meta(cfg.settings))
    return meta


def _map_cells(worker, tasks, workers: int):
    if workers > 1:
        with Pool(processes=workers) as pool:
            return pool.map(worker, tasks, chunksize=1)
    return [worker(t) for t in tasks]


# --- recovery phase transition ---------------------------------------------

def _pt_cell(task):
    cfg, cell_index, m_ratio, k_ratio = task
    m, k = cfg.cell_dims(m_ratio, k_ratio)
    stats = {a: [0, 0, 0] for a in cfg.algorithms}  # successes, iter sum, diverged
    for j in range(cfg.trials):
        rng = trial_rng(cfg.base_seed, cell_index, j)
        inst, _ = make_instance(
            m, cfg.n, k, rng, sigma_x2=cfg.sigma_x2,
            snr=cfg.snr, noiseless=cfg.noiseless,
        )
        for algo in cfg.algorithms:
            try:
                out = run_algorithm(algo, inst, k, cfg.settings)
            except RecoveryError:
                stats[algo][2] += 1
                stats[algo][1] += cfg.settings.t_max
                continue
            if out.diverged:
                stats[algo][2] += 1
            if _trial_success(out.x_hat, inst.x_true, cfg.success_threshold):
                stats[algo][0] += 1
            stats[algo][1] += out.iterations
    rows = []
    for algo in cfg.algorithms:
        successes, iter_sum, diverged = stats[algo]
        rows.append((
            m_ratio, k_ratio, m, k, algo, cfg.trials, successes,
            successes / cfg.trials, iter_sum / cfg.trials, diverged,
            cfg.base_seed,
        ))
    return rows


PT_COLUMNS = [
    "m_ratio", "k_ratio", "m", "k", "algorithm", "trials", "successes",
    "success_rate", "mean_iterations", "diverged", "base_seed",
]


def run_phase_transition(cfg: GridConfig) -> SweepResult:
    """Recovery success rates over the ratio grid (noiseless by default);
    success is NMSE below the configured threshold at the final iterate."""
    tasks = [
        (cfg, idx, mr, kr)
        for idx, (mr, kr) in enumerate(product(cfg.m_ratios, cfg.k_ratios))
    ]
    rows = [row for cell in _map_cells(_pt_cell, tasks, cfg.workers) for row in cell]
    return SweepResult("phase-transition", PT_COLUMNS, rows,
                       _grid_meta(cfg, "phase-transition"))


# --- support-detection phase transition -------------------------------------

def _spt_cell(task):
    cfg, detector_configs, cell_index, m_ratio, k_ratio = task
    m, k = cfg.cell_dims(m_ratio, k_ratio)
    algorithms = tuple(dict.fromkeys(algo for algo, _ in detector_configs))
    stats = {pair: [0, 0, 0] for pair in detector_configs}
    for j in range(cfg.trials):
        rng = trial_rng(cfg.base_seed, cell_index, j)
        inst, _ = make_instance(
            m, cfg.n, k, rng, sigma_x2=cfg.sigma_x2,
            snr=cfg.snr, noiseless=cfg.noiseless,
        )
        outs = {}
        for algo in algorithms:
            try:
                outs[algo] = run_algorithm(algo, inst, k, cfg.settings)
            except RecoveryError:
                outs[algo] = None
        for pair in detector_configs:
            algo, detector = pair
            out = outs[algo]
            if out is None:
                stats[pair][2] += 1
                stats[pair][1] += cfg.settings.t_max
                continue
            est = detect_support(detector, out, inst.prior)
            if out.diverged:
                stats[pair][2] += 1
            if support_metrics(inst.x_true, est).exact_match:
                stats[pair][0] += 1
            stats[pair][1] += out.iterations
    rows = []
    for pair in detector_configs:
        successes, iter_sum, diverged = stats[pair]
        rows.append((
            m_ratio, k_ratio, m, k, pair[0], pair[1], cfg.trials, successes,
            successes / cfg.trials, iter_sum / cfg.trials, diverged,
            cfg.base_seed,
        ))
    return rows


SPT_COLUMNS = [
    "m_ratio", "k_ratio", "m", "k", "algorithm", "detector", "trials",
    "successes", "success_rate", "mean_iterations", "diverged", "base_seed",
]


def run_support_phase_transition(
    cfg: GridConfig, detectors=DEFAULT_DETECTOR_CONFIGS
) -> SweepResult:
    """Exact-support-match rates for (algorithm, detector) pairs."""
    detector_configs = tuple((str(a), str(d)) for a, d in detectors)
    if not detector_configs:
        raise ValueError("need at least one (algorithm, detector) pair")
    tasks = [
        (cfg, detector_configs, idx, mr, kr)
        for idx, (mr, kr) in enumerate(product(cfg.m_ratios, cfg.k_ratios))
    ]
    rows = [row for cell in _map_cells(_spt_cell, tasks, cfg.workers) for row in cell]
    meta = _grid_meta(cfg, "support-pt")
    meta["detectors"] = " ".join(f"{a}+{d}" for a, d in detector_configs)
    return SweepResult("support-pt", SPT_COLUMNS, rows, meta)


# --- NMSE over SNR -----------------------------------------------------------

NMSE_COLUMNS = [
    "m", "snr_db", "algorithm", "trials", "nmse_mean", "nmse_median",
    "mean_iterations", "diverged", "base_seed",
]


def _nmse_point(task):
    (n, k, m, snr_db, trials, base_seed, algorithms, sigma_x2, settings,
     point_index) = task
    snr_linear = 10.0 ** (snr_db / 10.0)
    values = {a: [] for a in algorithms}
    iters = {a: 0 for a in algorithms}
    diverged = {a: 0 for a in algorithms}
    for j in range(trials):
        rng = trial_rng(base_seed, point_index, j)
        inst, _ = make_instance(m, n, k, rng, sigma_x2=sigma_x2,
                                snr=snr_linear, noiseless=False)
        for algo in algorithms:
            try:
                out = run_algorithm(algo, inst, k, settings)
            except RecoveryError:
                values[algo].append(1.0)
                diverged[algo] += 1
                iters[algo] += settings.t_max
                continue
            values[algo].append(nmse(out.x_hat, inst.x_true))
            iters[algo] += out.iterations
            if out.diverged:
                diverged[algo] += 1
    rows = []
    for algo in algorithms:
        v = np.array(values[algo])
        rows.append((
            m, snr_db, algo, trials, float(v.mean()), float(np.median(v)),
            iters[algo] / trials, diverged[algo], base_seed,
        ))
    return rows


def run_nmse_sweep(
    n: int,
    k: int,
    m_list,
    snr_db_list,
    trials: int,
    base_seed: int = 0,
    algorithms=KNOWN_ALGORITHMS,
    sigma_x2: float = 1.0,
    settings: RecoverySettings = RecoverySettings(),
    workers: int = 1,
) -> SweepResult:
    """Mean/median NMSE per (M, SNR) point with paired instances; a
    non-finite abort contributes NMSE 1 (the all-zero estimate)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= K <= N")
    algorithms = tuple(algorithms)
    for a in algorithms:
        if a not in KNOWN_ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
    tasks = [
        (n, k, int(m), float(snr_db), trials, base_seed, algorithms,
         sigma_x2, settings, idx)
        for idx, (m, snr_db) in enumerate(product(m_list, snr_db_list))
    ]
    rows = [row for point in _map_cells(_nmse_point, tasks, workers)
            for row in point]
    meta = {
        "kind": "nmse-sweep", "version": __version__, "n": n, "k": k,
        "m_list": " ".join(str(int(m)) for m in m_list),
        "snr_db_list": " ".join(repr(float(s)) for s in snr_db_list),
        "trials": trials, "base_seed": base_seed,
        "algorithms": " ".join(algorithms), "sigma_x2": sigma_x2,
    }
    meta.update(_settings_meta(settings))
    return SweepResult("nmse-sweep", NMSE_COLUMNS, rows, meta)


# --- contour extraction ------------------------------------------------------

def extract_contour(result: SweepResult, level: float = 0.5) -> SweepResult:
    """Per identity and M/N column, the K/M where the success rate first
    crosses `level` going down, linearly interpolated; columns that never
    cross are omitted."""
    if not result.rows:
        raise ValueError("empty sweep result")
    cols = result.columns
    id_names = [c for c in ("algorithm", "detector") if c in cols]
    i_m = cols.index("m_ratio")
    i_k = cols.index("k_ratio")
    i_rate = cols.index("success_rate")
    id_idx = [cols.index(c) for c in id_names]

    curves: dict = {}
    for row in result.rows:
        key = tuple(row[i] for i in id_idx)
        curves.setdefault(key, {}).setdefault(row[i_m], []).append(
            (row[i_k], row[i_rate])
        )

    out_rows = []
    for key in curves:
        for m_ratio in sorted(curves[key]):
            pts = sorted(curves[key][m_ratio])
            for (k0, r0), (k1, r1) in zip(pts, pts[1:]):
                if r0 >= level > r1:
                    k_cross = k0 + (r0 - level) / (r0 - r1) * (k1 - k0)
                    out_rows.append(key + (m_ratio, k_cross))
                    break
    meta = dict(result.meta)
    meta["kind"] = "contour"
    meta["level"] = level
    return SweepResult("contour", id_names + ["m_ratio", "k_ratio"], out_rows, meta)
