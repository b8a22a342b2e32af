"""Monte-Carlo sweep harness: phase transitions, NMSE-vs-SNR curves, contours.

Every sweep runs one trial loop, `_run_cells`: the instance for trial j of
cell c is drawn once from SeedSequence((base_seed, c, j)), solved once by
each algorithm, and each solve is scored by its NMSE and by the requested
support detectors.  The loop's unit is a chunk (`_chunks`): consecutive
(cell, trial) draws that share M, across the cells of that M, as many as
fit CHUNK_BYTES of A (at least one).  Each algorithm solves a chunk in one
batched AMP loop (amp.py) in which every trial keeps its own prior and the
bits of its lone solve, so the chunking changes no result.  The chunks are
solved and scored by the workers and read back in task order, each solve's
TrialRecord (score, iterations, diverged flag, {detector: SupportMetrics})
joining its cell's records in trial order.  The loop yields a cell as soon
as the chunk holding its last trial is scored, so a sweep holds one cell's
records at a time.  The exact-MMSE oracle check (cli) draws and solves
through the same chunks.  Comparisons are paired and any worker count
reproduces the same bytes.  The public runners reduce each cell to its
rows as it arrives; `run_grids` forms the recovery and support grids in
one pass, the support grid scoring the (algorithm, detector) pairs of
DEFAULT_DETECTOR_CONFIGS whose algorithm the grid runs.  A trial whose
iterate goes non-finite fails alone, as a RecoveryError, while the rest of
its chunk runs on: it counts as diverged at t_max iterations, scores NMSE 1
and is never a success; it never aborts a sweep.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import nullcontext
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
    KNOWN_ALGORITHMS,
    KNOWN_DETECTORS,
    BernoulliGaussianPrior,
    ProblemInstance,
    RecoveryError,
    RecoveryOutput,
    RecoverySettings,
    _check_support_size,
    _checked,
    make_instance,
    nmse,
)
from .support import SupportEstimate, detect_em, detect_prior_based, support_metrics

DEFAULT_RATIOS = tuple(float(v) for v in np.linspace(0.05, 0.95, 19))
DEFAULT_DETECTOR_CONFIGS = (("cbamp", "em"), ("cbossamp", "em"), ("cbossamp", "prior"))


@dataclass(frozen=True)
class GridConfig:
    """Phase-transition grid over (M/N, K/M) ratio axes; the fields besides
    the axes and success_threshold are the settings every sweep shares.  snr
    is the linear SNR of a noisy grid, None (the default) a noiseless one."""

    n: int = 256
    m_ratios: tuple[float, ...] = DEFAULT_RATIOS
    k_ratios: tuple[float, ...] = DEFAULT_RATIOS
    trials: int = 50
    base_seed: int = 0
    algorithms: tuple[str, ...] = KNOWN_ALGORITHMS
    success_threshold: float = 1e-4
    snr: float | None = None
    sigma_x2: float = 1.0
    settings: RecoverySettings = RecoverySettings()
    workers: int = 1

    def __post_init__(self):
        _checked(n=self.n, m_ratios=tuple(self.m_ratios), k_ratios=tuple(self.k_ratios),
                 trials=self.trials, base_seed=self.base_seed,
                 success_threshold=self.success_threshold, snr=self.snr,
                 sigma_x2=self.sigma_x2, workers=self.workers, algorithms=self.algorithms)
        for name in self.algorithms:
            _checked(algorithm=name)
            if self.algorithms.count(name) > 1:
                raise ValueError(f"algorithm {name!r} given more than once")
        # every cell's K, before any draw: a noisy cell needs K >= 1
        for m_ratio, k_ratio in product(self.m_ratios, self.k_ratios):
            m, k = self.cell_dims(m_ratio, k_ratio)
            _check_support_size(k, self.n, self.noiseless,
                                f"cell M/N={m_ratio:g}, K/M={k_ratio:g} (M={m}, K={k}): ")

    @property
    def noiseless(self) -> bool:
        """Whether the grid's draws are noiseless: it has no snr."""
        return self.snr is None

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
    heuristic at max(K, 1) of the instance's K.  The callers check name and
    lam (check_solver, or the sweeps' GridConfig)."""
    problems = [(inst.A, inst.y) for inst in instances]
    if name == "amp":
        return _camp_batch(problems, [lambda_heuristic(max(int(kj), 1)) if lam is None else lam
                                      for kj in np.broadcast_to(k, len(instances))], settings)
    priors = [inst.prior for inst in instances]
    if name == "cbamp":
        return _cbamp_batch(problems, priors, settings)
    return _cbossamp_batch(problems, priors, settings)


def check_solver(name: str, lam: float | None) -> None:
    """Check a solve's algorithm and lam, AMP's threshold multiplier: lam for
    any other algorithm is a ValueError.  run_algorithm checks through it,
    and `csamp recover` does before it loads or draws an instance."""
    if lam is not None and name != "amp":
        raise ValueError(f"lam is amp's threshold multiplier; {name} takes none")
    _checked(algorithm=name, lam=lam)


def run_algorithm(
    name: str,
    inst: ProblemInstance,
    k: int,
    settings: RecoverySettings,
    lam: float | None = None,
) -> RecoveryOutput:
    """Dispatch one recovery; AMP's threshold multiplier is lam, or else the
    heuristic at max(K, 1), both checked by check_solver.  A non-finite
    iterate raises RecoveryError."""
    check_solver(name, lam)
    return _single(_solve_chunk(name, [inst], k, settings, lam))


def detect_support(detector: str, out: RecoveryOutput,
                   prior: BernoulliGaussianPrior) -> SupportEstimate:
    """Support estimate of one recovery by the named detector ("em" or
    "prior"); solvers without working gammas (amp) fall back to the prior."""
    _checked(detector=detector)
    gamma0 = prior.gamma0_vector(out.u_r.size)
    g_r = out.gamma_r if out.gamma_r is not None else gamma0
    g_i = out.gamma_i if out.gamma_i is not None else gamma0
    if detector == "em":
        return detect_em(out.u_r, out.u_i, out.beta_r, out.beta_i, g_r, g_i,
                         prior.sigma_x2)
    return detect_prior_based(g_r, g_i)


def _grid_meta(cfg: GridConfig, kind: str, pairs) -> dict:
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
    if kind == "support-pt":
        meta["detectors"] = " ".join(f"{a}+{d}" for a, d in pairs)
    return meta


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
    Per draw, (whether it is its cell's last trial, {algorithm: _score of
    its solve})."""
    cfg, chunk, detectors = task
    draws, outs = _solve_draws(cfg, chunk)
    return [(trial == cfg.trials - 1,
             {algo: _score(inst, outs[algo][j], cfg.settings, detectors[algo])
              for algo in cfg.algorithms})
            for j, ((inst, _), (*_, trial)) in enumerate(zip(draws, chunk))]


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


def _run_cells(cfg: GridConfig, cells, pairs=()):
    """The trial loop over cells ((index, m, k, snr) each, as _chunks takes
    them), scoring the (algorithm, detector) pairs.  A generator: per cell,
    in cell order, {algorithm: [TrialRecord per trial, in trial order]},
    yielded as soon as the chunk holding the cell's last trial is scored,
    so a sweep holds one cell's records at a time.  With workers > 1 the
    chunks are scored by a pool, read back in task order; the pool ends
    when the generator does, by exhaustion, an exception or close()."""
    detectors = {algo: tuple(d for a, d in pairs if a == algo) for algo in cfg.algorithms}
    tasks = ((cfg, chunk, detectors) for chunk in _chunks(cfg, cells))
    cell = []  # {algorithm: TrialRecord} per trial of the cell so far
    with (Pool(cfg.workers) if cfg.workers > 1 else nullcontext()) as pool:
        for by_draw in pool.imap(_score_chunk, tasks) if pool else map(_score_chunk, tasks):
            for last, by_algo in by_draw:
                cell.append(by_algo)
                if last:
                    yield {algo: [trial[algo] for trial in cell] for algo in cfg.algorithms}
                    cell = []


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


def _support_pairs(cfg: GridConfig) -> list[tuple[str, str]]:
    """The (algorithm, detector) pairs of DEFAULT_DETECTOR_CONFIGS whose
    algorithm the grid runs."""
    pairs = [p for p in DEFAULT_DETECTOR_CONFIGS if p[0] in cfg.algorithms]
    if not pairs:
        raise ValueError("need at least one (algorithm, detector) pair "
                         "with an algorithm of the grid")
    return pairs


def _grids(cfg: GridConfig, labels) -> list[SweepResult]:
    """One pass over the grid, solving only the labels' algorithms, each
    cell reduced to its rows as it arrives: per cell, one row per label, an
    (algorithm,) label counting recoveries below the success threshold and
    an (algorithm, detector) label exact support matches.  The recovery
    sweep if a label is an algorithm, then the support sweep if one is a
    pair, each with cfg's meta."""
    pairs = [label for label in labels if len(label) == 2]
    solved = replace(cfg, algorithms=tuple(dict.fromkeys(label[0] for label in labels)))
    ratios = list(product(cfg.m_ratios, cfg.k_ratios))
    cells = [(idx, *cfg.cell_dims(mr, kr), cfg.snr) for idx, (mr, kr) in enumerate(ratios)]
    rows = {len(label): [] for label in labels}  # 1: recovery rows, 2: support rows
    for records, (m_ratio, k_ratio), (_, m, k, _) in zip(_run_cells(solved, cells, pairs),
                                                         ratios, cells):
        for label in labels:
            trials = records[label[0]]
            if len(label) == 2:
                successes = sum(r.support[label[1]].exact_match for r in trials if r.support)
            else:
                successes = sum(1 for r in trials
                                if r.score is not None and r.score < cfg.success_threshold)
            rows[len(label)].append((m_ratio, k_ratio, m, k, *label, cfg.trials, successes,
                                     successes / cfg.trials, *_effort(trials), cfg.base_seed))
    return [SweepResult(kind, columns, rows[size], _grid_meta(cfg, kind, pairs))
            for size, kind, columns in ((1, "phase-transition", PT_COLUMNS),
                                        (2, "support-pt", SPT_COLUMNS)) if size in rows]


def run_phase_transition(cfg: GridConfig) -> SweepResult:
    """Recovery success rates over the ratio grid (noiseless by default);
    success is NMSE below the configured threshold at the final iterate."""
    return _grids(cfg, [(algo,) for algo in cfg.algorithms])[0]


def run_support_phase_transition(cfg: GridConfig) -> SweepResult:
    """Exact-support-match rates for the (algorithm, detector) pairs of
    DEFAULT_DETECTOR_CONFIGS whose algorithm is in cfg.algorithms; only those
    algorithms are solved."""
    return _grids(cfg, _support_pairs(cfg))[0]


def run_grids(cfg: GridConfig) -> tuple[SweepResult, SweepResult]:
    """run_phase_transition(cfg) and run_support_phase_transition(cfg) from
    one pass, solving each instance once per algorithm."""
    return tuple(_grids(cfg, [(algo,) for algo in cfg.algorithms] + _support_pairs(cfg)))


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
    _checked(k=k, m_list=list(m_list), snr_db_list=list(snr_db_list))
    cfg = GridConfig(n=n, trials=trials, base_seed=base_seed,
                     algorithms=tuple(algorithms), settings=settings, workers=workers)
    _check_support_size(k, n, noiseless=False)
    points = [(int(m), float(snr_db)) for m, snr_db in product(m_list, snr_db_list)]
    cells = [(idx, m, k, 10.0 ** (snr_db / 10.0)) for idx, (m, snr_db) in enumerate(points)]
    rows = []
    for records, (m, snr_db) in zip(_run_cells(cfg, cells), points):
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
    _checked(level=level)
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
