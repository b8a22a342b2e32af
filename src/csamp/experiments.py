"""Monte-Carlo sweep harness: phase transitions, NMSE-vs-SNR curves, contours.

Every sweep runs one trial loop, `_run_cells`: the instance for trial j of
cell c is drawn once from SeedSequence((base_seed, c, j)), solved once by
each algorithm, and each solve is scored by its NMSE and by the requested
support detectors.  The loop's unit is a chunk (`_chunks`): consecutive
(cell, trial) draws that share M, across the cells of that M, as many as
fit CHUNK_BYTES of A (at least one).  Each algorithm solves a chunk in one
batched AMP loop (amp.py) in which every trial keeps its own prior and the
bits of its lone solve, so the chunking changes no result.  The chunks are
solved and scored by the workers, and each solve's TrialRecord (score,
iterations, diverged flag, {detector: SupportMetrics}) routed back to its
cell in trial order.  The exact-MMSE oracle check (cli) draws and solves
through the same chunks.  Comparisons are paired and any worker count
reproduces the same bytes.  The public runners reduce the loop's records
to rows; `run_grids` takes the recovery and support grids from one pass,
the support grid scoring the (algorithm, detector) pairs of
DEFAULT_DETECTOR_CONFIGS whose algorithm the grid runs.  A trial whose
iterate goes non-finite fails alone, as a RecoveryError, while the rest of
its chunk runs on: it counts as diverged at t_max iterations, scores NMSE 1
and is never a success; it never aborts a sweep.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import asdict, dataclass, replace
from itertools import product
from multiprocessing import Pool
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .amp import _camp_batch, _single, lambda_heuristic
from .bamp import _cbamp_batch
from .bossamp import _cbossamp_batch
from .model import (
    CHUNK_BYTES,
    BernoulliGaussianPrior,
    ProblemInstance,
    RecoveryError,
    RecoveryOutput,
    RecoverySettings,
    _checked_sigma_x2,
    make_instance,
    nmse,
)
from .support import SupportEstimate, detect_em, detect_prior_based, support_metrics

DEFAULT_RATIOS = tuple(float(v) for v in np.linspace(0.05, 0.95, 19))
KNOWN_ALGORITHMS = ("amp", "cbamp", "cbossamp")
KNOWN_DETECTORS = ("em", "prior")
DEFAULT_DETECTOR_CONFIGS = (("cbamp", "em"), ("cbossamp", "em"), ("cbossamp", "prior"))


@dataclass(frozen=True)
class GridConfig:
    """Phase-transition grid over (M/N, K/M) ratio axes; the fields besides
    the axes and success_threshold are the settings every sweep shares."""

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
        for name in self.algorithms:
            if name not in KNOWN_ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}")
            if self.algorithms.count(name) > 1:
                raise ValueError(f"algorithm {name!r} given more than once")
        if not self.success_threshold > 0.0:
            raise ValueError("success_threshold must be positive")
        if self.noiseless and self.snr is not None:
            raise ValueError("a noiseless grid takes no snr")
        if not self.noiseless and (self.snr is None or not self.snr > 0.0):
            raise ValueError("noisy grids need a positive linear snr")
        _checked_sigma_x2(self.sigma_x2)
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


def _solve_chunk(name: str, instances, k, settings: RecoverySettings,
                 lam: float | None = None) -> list:
    """Solve instances (sharing M and N, each under its own prior) in one
    loop of the named algorithm: per instance, its RecoveryOutput or the
    RecoveryError of its non-finite iterate.  k is the true K, one for all
    instances or one each; AMP's threshold multiplier is lam, or else the
    heuristic at max(K, 1) of the instance's K."""
    problems = [(inst.A, inst.y) for inst in instances]
    if name == "amp":
        return _camp_batch(problems, [lambda_heuristic(max(int(kj), 1)) if lam is None else lam
                                      for kj in np.broadcast_to(k, len(instances))], settings)
    priors = [inst.prior for inst in instances]
    if name == "cbamp":
        return _cbamp_batch(problems, priors, settings)
    if name == "cbossamp":
        return _cbossamp_batch(problems, priors, settings)
    raise ValueError(f"unknown algorithm {name!r}")


def run_algorithm(
    name: str,
    inst: ProblemInstance,
    k: int,
    settings: RecoverySettings,
    lam: float | None = None,
) -> RecoveryOutput:
    """Dispatch one recovery; AMP's threshold multiplier is lam, or else the
    heuristic at max(K, 1), and lam for any other algorithm is a ValueError.
    A non-finite iterate raises RecoveryError."""
    if lam is not None and name != "amp":
        raise ValueError(f"lam is amp's threshold multiplier; {name} takes none")
    return _single(_solve_chunk(name, [inst], k, settings, lam))


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
    meta.update(asdict(cfg.settings))
    return meta


def _map_chunks(worker, tasks, workers: int):
    if workers > 1:
        with Pool(processes=workers) as pool:
            return pool.map(worker, tasks, chunksize=1)
    return [worker(t) for t in tasks]


# --- the trial loop ------------------------------------------------------------

class TrialRecord(NamedTuple):
    """One algorithm's solve of one trial: its score (None where the solve
    raised), iterations, diverged flag and {detector: SupportMetrics} (empty
    where the solve raised)."""

    score: float | None
    iterations: int
    diverged: bool
    support: dict


def _chunks(cfg: GridConfig, cells):
    """The trial loop's chunks: runs of consecutive (cell, trial) draws that
    share M, each as many as fit CHUNK_BYTES of A, CHUNK_BYTES // (8 M N)
    (at least one).  cells holds (index, m, k, snr) per cell in order, snr
    the linear SNR (None: noiseless); a draw is (index, m, k, snr, trial)."""
    chunk: list = []
    for index, m, k, snr in cells:
        size = max(1, CHUNK_BYTES // (8 * m * cfg.n))
        for trial in range(cfg.trials):
            if chunk and (len(chunk) >= size or chunk[-1][1] != m):
                yield chunk
                chunk = []
            chunk.append((index, m, k, snr, trial))
    if chunk:
        yield chunk


def _solve_draws(cfg: GridConfig, chunk):
    """Draw a chunk's instances (trial j of cell c from trial_rng(base_seed,
    c, j)) and solve them: the (instance, sigma_w2) pairs and {algorithm:
    the chunk's outputs}."""
    draws = [make_instance(m, cfg.n, k, trial_rng(cfg.base_seed, index, trial),
                           sigma_x2=cfg.sigma_x2, snr=snr, noiseless=snr is None)
             for index, m, k, snr, trial in chunk]
    instances = [inst for inst, _ in draws]
    ks = [k for _, _, k, _, _ in chunk]
    return draws, {algo: _solve_chunk(algo, instances, ks, cfg.settings)
                   for algo in cfg.algorithms}


def _score_chunk(task) -> list:
    """The trial loop's worker.  task = (cfg, chunk, detectors): the
    settings, a chunk of _chunks and the detectors to score per algorithm.
    Per draw, {algorithm: _score of its solve}."""
    cfg, chunk, detectors = task
    draws, outs = _solve_draws(cfg, chunk)
    return [{algo: _score(inst, outs[algo][j], cfg.settings, detectors[algo])
             for algo in cfg.algorithms} for j, (inst, _) in enumerate(draws)]


def _score(inst: ProblemInstance, out, settings: RecoverySettings, detectors) -> TrialRecord:
    """One trial's solve, out, as its TrialRecord: a RecoveryError counts as
    diverged at t_max iterations, with score None."""
    if isinstance(out, RecoveryError):
        return TrialRecord(None, settings.t_max, True, {})
    # NMSE, or the estimate's energy where the truth is all zero
    zero = inst.x_true.norm_sq() == 0.0
    score = out.x_hat.norm_sq() if zero else nmse(out.x_hat, inst.x_true)
    return TrialRecord(score, out.iterations, out.diverged, {
        d: support_metrics(inst.x_true, detect_support(d, out, inst.prior)) for d in detectors})


def _run_cells(cfg: GridConfig, cells, pairs=()) -> list:
    """The trial loop over cells ((index, m, k, snr) each, as _chunks takes
    them), scoring the (algorithm, detector) pairs: per cell, {algorithm:
    [TrialRecord per trial, in trial order]}."""
    detectors = {algo: tuple(d for a, d in pairs if a == algo) for algo in cfg.algorithms}
    records = {index: {algo: [] for algo in cfg.algorithms} for index, *_ in cells}
    chunks = list(_chunks(cfg, cells))
    scored = _map_chunks(_score_chunk, [(cfg, chunk, detectors) for chunk in chunks],
                         cfg.workers)
    for chunk, by_draw in zip(chunks, scored):
        for (index, *_), by_algo in zip(chunk, by_draw):
            for algo, record in by_algo.items():
                records[index][algo].append(record)
    return [records[index] for index, *_ in cells]


def _effort(records) -> tuple:
    """(mean iterations, diverged count) of one algorithm's records."""
    return sum(r.iterations for r in records) / len(records), sum(r.diverged for r in records)


# --- recovery and support-detection phase transitions -----------------------

PT_COLUMNS = [
    "m_ratio", "k_ratio", "m", "k", "algorithm", "trials", "successes",
    "success_rate", "mean_iterations", "diverged", "base_seed",
]

SPT_COLUMNS = [
    "m_ratio", "k_ratio", "m", "k", "algorithm", "detector", "trials",
    "successes", "success_rate", "mean_iterations", "diverged", "base_seed",
]


def _support_pairs(cfg: GridConfig) -> tuple[tuple[str, str], ...]:
    """The (algorithm, detector) pairs of DEFAULT_DETECTOR_CONFIGS whose
    algorithm the grid runs."""
    pairs = tuple(p for p in DEFAULT_DETECTOR_CONFIGS if p[0] in cfg.algorithms)
    if not pairs:
        raise ValueError("need at least one (algorithm, detector) pair "
                         "with an algorithm of the grid")
    return pairs


def _grid_pass(cfg: GridConfig, pairs=()) -> list:
    """[((m_ratio, k_ratio), (m, k), records)] per cell, in row order."""
    ratios = list(product(cfg.m_ratios, cfg.k_ratios))
    dims = [cfg.cell_dims(mr, kr) for mr, kr in ratios]
    snr = None if cfg.noiseless else cfg.snr
    cells = [(idx, m, k, snr) for idx, (m, k) in enumerate(dims)]
    return list(zip(ratios, dims, _run_cells(cfg, cells, pairs)))


def _grid_result(cfg: GridConfig, kind: str, labels, passes) -> SweepResult:
    """Per cell, one row per label: (algorithm,) counts recoveries below the
    success threshold, (algorithm, detector) exact support matches."""
    rows = []
    for (m_ratio, k_ratio), (m, k), records in passes:
        for label in labels:
            trials = records[label[0]]
            if len(label) == 2:
                successes = sum(r.support[label[1]].exact_match for r in trials if r.support)
            else:
                successes = sum(1 for r in trials
                                if r.score is not None and r.score < cfg.success_threshold)
            rows.append((m_ratio, k_ratio, m, k, *label, cfg.trials, successes,
                         successes / cfg.trials, *_effort(trials), cfg.base_seed))
    meta = _grid_meta(cfg, kind)
    if kind == "phase-transition":
        return SweepResult(kind, PT_COLUMNS, rows, meta)
    meta["detectors"] = " ".join(f"{a}+{d}" for a, d in labels)
    return SweepResult(kind, SPT_COLUMNS, rows, meta)


def run_phase_transition(cfg: GridConfig) -> SweepResult:
    """Recovery success rates over the ratio grid (noiseless by default);
    success is NMSE below the configured threshold at the final iterate."""
    labels = [(algo,) for algo in cfg.algorithms]
    return _grid_result(cfg, "phase-transition", labels, _grid_pass(cfg))


def run_support_phase_transition(cfg: GridConfig) -> SweepResult:
    """Exact-support-match rates for the (algorithm, detector) pairs of
    DEFAULT_DETECTOR_CONFIGS whose algorithm is in cfg.algorithms; only those
    algorithms are solved."""
    pairs = _support_pairs(cfg)
    solved = replace(cfg, algorithms=tuple(dict.fromkeys(a for a, _ in pairs)))
    return _grid_result(cfg, "support-pt", pairs, _grid_pass(solved, pairs))


def run_grids(cfg: GridConfig) -> tuple[SweepResult, SweepResult]:
    """run_phase_transition(cfg) and run_support_phase_transition(cfg) from
    one pass, solving each instance once per algorithm."""
    pairs = _support_pairs(cfg)
    passes = _grid_pass(cfg, pairs)
    labels = [(algo,) for algo in cfg.algorithms]
    return (_grid_result(cfg, "phase-transition", labels, passes),
            _grid_result(cfg, "support-pt", pairs, passes))


# --- NMSE over SNR -----------------------------------------------------------

NMSE_COLUMNS = [
    "m", "snr_db", "algorithm", "trials", "nmse_mean", "nmse_median",
    "mean_iterations", "diverged", "base_seed",
]


def run_nmse_sweep(
    n: int,
    k: int,
    m_list,
    snr_db_list,
    trials: int,
    base_seed: int = 0,
    algorithms=KNOWN_ALGORITHMS,
    settings: RecoverySettings = RecoverySettings(),
    workers: int = 1,
) -> SweepResult:
    """Mean/median NMSE per (M, SNR) point with paired instances at slab
    variance 1; a non-finite abort contributes NMSE 1 (the all-zero
    estimate)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= K <= N")
    if not len(m_list) or not len(snr_db_list):
        raise ValueError("m_list and snr_db_list must be non-empty")
    if any(int(m) < 1 for m in m_list):
        raise ValueError("every M must be >= 1")
    if not all(np.isfinite(float(s)) for s in snr_db_list):
        raise ValueError("every SNR must be finite")
    cfg = GridConfig(n=n, trials=trials, base_seed=base_seed,
                     algorithms=tuple(algorithms), settings=settings, workers=workers)
    points = [(int(m), float(snr_db)) for m, snr_db in product(m_list, snr_db_list)]
    cells = [(idx, m, k, 10.0 ** (snr_db / 10.0)) for idx, (m, snr_db) in enumerate(points)]
    rows = []
    for (m, snr_db), records in zip(points, _run_cells(cfg, cells)):
        for algo in cfg.algorithms:
            v = np.array([1.0 if r.score is None else r.score for r in records[algo]])
            rows.append((m, snr_db, algo, trials, float(v.mean()), float(np.median(v)),
                         *_effort(records[algo]), base_seed))
    meta = {
        "kind": "nmse-sweep", "version": __version__, "n": n, "k": k,
        "m_list": " ".join(str(int(m)) for m in m_list),
        "snr_db_list": " ".join(repr(float(s)) for s in snr_db_list),
        "trials": trials, "base_seed": base_seed,
        "algorithms": " ".join(cfg.algorithms), "sigma_x2": cfg.sigma_x2,
    }
    meta.update(asdict(settings))
    return SweepResult("nmse-sweep", NMSE_COLUMNS, rows, meta)


# --- contour extraction ------------------------------------------------------

def extract_contour(result: SweepResult, level: float = 0.5) -> SweepResult:
    """Per identity and M/N column, the K/M where the success rate first
    crosses `level` going down, linearly interpolated; columns that never
    cross are omitted.  A level outside (0, 1] is a ValueError."""
    if not 0.0 < level <= 1.0:
        raise ValueError(f"contour level {level} outside (0, 1]")
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
