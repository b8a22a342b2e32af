"""Monte-Carlo sweep harness: phase transitions, NMSE-vs-SNR curves, contours.

Every sweep runs one trial loop, `_run_cell`: the instance for trial j of
cell c is drawn once from SeedSequence((base_seed, c, j)), solved once by
each algorithm, and each solve is scored by its NMSE and by the requested
support detectors.  The exact-MMSE oracle check (cli) draws and solves
through the same `_trial_chunks`.  The loop draws a cell's trials in chunks of consecutive
trials (as many as fit CHUNK_BYTES of A, at least one), and each algorithm
solves a chunk in one batched AMP loop (amp.py) that gives every trial the
bits of its lone solve, so the chunk size changes no result.  Comparisons
are paired and any worker count reproduces the same bytes.  The public
runners reduce the loop's tallies to rows; `run_grids` takes the recovery
and support grids from one pass.  A trial whose iterate goes non-finite
fails alone, as a RecoveryError, while the rest of its chunk runs on: it
counts as diverged at t_max iterations, scores NMSE 1 and is never a
success; it never aborts a sweep.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import asdict, dataclass, field, replace
from itertools import product
from multiprocessing import Pool

import numpy as np

from ._version import __version__
from .amp import AmpConfig, _camp_batch, _single, lambda_heuristic
from .bamp import _cbamp_batch
from .bossamp import _cbossamp_batch
from .model import (
    CHUNK_BYTES,
    BernoulliGaussianPrior,
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
KNOWN_DETECTORS = ("em", "prior")
DEFAULT_DETECTOR_CONFIGS = (("cbamp", "em"), ("cbossamp", "em"), ("cbossamp", "prior"))


def _check_names(names, known, what: str) -> None:
    for name in names:
        if name not in known:
            raise ValueError(f"unknown {what} {name!r}")


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
        _check_names(self.algorithms, KNOWN_ALGORITHMS, "algorithm")
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


def _solve_chunk(name: str, instances, k: int, settings: RecoverySettings,
                 lam: float | None = None) -> list:
    """Solve instances (sharing M, N and the prior) in one loop of the named
    algorithm: per instance, its RecoveryOutput or the RecoveryError of its
    non-finite iterate.  AMP's threshold multiplier is lam, or else the
    heuristic at the true K."""
    problems = [(inst.A, inst.y) for inst in instances]
    if name == "amp":
        if lam is None:
            lam = lambda_heuristic(max(k, 1))
        return _camp_batch(problems, AmpConfig(lam=lam, settings=settings))
    if name == "cbamp":
        return _cbamp_batch(problems, instances[0].prior, settings)
    if name == "cbossamp":
        return _cbossamp_batch(problems, instances[0].prior, settings)
    raise ValueError(f"unknown algorithm {name!r}")


def run_algorithm(
    name: str,
    inst: ProblemInstance,
    k: int,
    settings: RecoverySettings,
    lam: float | None = None,
) -> RecoveryOutput:
    """Dispatch one recovery; AMP's threshold multiplier is lam, or else the
    heuristic at the true K.  A non-finite iterate raises RecoveryError."""
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


def _map_cells(worker, tasks, workers: int):
    if workers > 1:
        with Pool(processes=workers) as pool:
            return pool.map(worker, tasks, chunksize=1)
    return [worker(t) for t in tasks]


# --- the trial loop ------------------------------------------------------------

@dataclass
class _Tally:
    """One algorithm's trials in a cell: each trial's score (None where the
    solve raised), summed iterations, the diverged count and the exact
    support matches of each detector."""

    scores: list = field(default_factory=list)
    iterations: int = 0
    diverged: int = 0
    exact: dict = field(default_factory=dict)


def _trial_chunks(cfg: GridConfig, index: int, m: int, k: int, snr):
    """The trial loop's draws and solves: per chunk of consecutive trials of
    cell `index` (M=m, K=k, linear SNR snr, None: noiseless), the drawn
    (instance, sigma_w2) pairs and {algorithm: the chunk's outputs}."""
    chunk = max(1, CHUNK_BYTES // (8 * m * cfg.n))
    for first in range(0, cfg.trials, chunk):
        draws = [make_instance(
            m, cfg.n, k, trial_rng(cfg.base_seed, index, j),
            sigma_x2=cfg.sigma_x2, snr=snr, noiseless=snr is None,
        ) for j in range(first, min(first + chunk, cfg.trials))]
        instances = [inst for inst, _ in draws]
        yield draws, {algo: _solve_chunk(algo, instances, k, cfg.settings)
                      for algo in cfg.algorithms}


def _run_cell(task) -> dict:
    """The trial loop.  task = (cfg, index, m, k, snr, pairs): cell `index`
    of a sweep with settings cfg, M=m, K=k, linear SNR snr (None: noiseless)
    and the (algorithm, detector) pairs to score.  Scores every solve of
    _trial_chunks; returns {algorithm: _Tally}."""
    cfg, index, m, k, snr, pairs = task
    tallies = {algo: _Tally() for algo in cfg.algorithms}
    for algo, detector in pairs:
        tallies[algo].exact[detector] = 0
    for draws, outs in _trial_chunks(cfg, index, m, k, snr):
        for algo, tally in tallies.items():
            for (inst, _), out in zip(draws, outs[algo]):
                _score(tally, inst, out, cfg.settings)
    return tallies


def _score(tally: _Tally, inst: ProblemInstance, out, settings: RecoverySettings) -> None:
    """Book one trial's solve, out, in tally: a RecoveryError counts as
    diverged at t_max iterations, with score None."""
    if isinstance(out, RecoveryError):
        tally.scores.append(None)
        tally.iterations += settings.t_max
        tally.diverged += 1
        return
    # NMSE, or the estimate's energy where the truth is all zero
    zero = inst.x_true.norm_sq() == 0.0
    tally.scores.append(out.x_hat.norm_sq() if zero else nmse(out.x_hat, inst.x_true))
    tally.iterations += out.iterations
    if out.diverged:
        tally.diverged += 1
    for detector in tally.exact:
        est = detect_support(detector, out, inst.prior)
        if support_metrics(inst.x_true, est).exact_match:
            tally.exact[detector] += 1


# --- recovery and support-detection phase transitions -----------------------

PT_COLUMNS = [
    "m_ratio", "k_ratio", "m", "k", "algorithm", "trials", "successes",
    "success_rate", "mean_iterations", "diverged", "base_seed",
]

SPT_COLUMNS = [
    "m_ratio", "k_ratio", "m", "k", "algorithm", "detector", "trials",
    "successes", "success_rate", "mean_iterations", "diverged", "base_seed",
]


def _support_pairs(cfg: GridConfig, detectors) -> tuple[tuple[str, str], ...]:
    """The (algorithm, detector) pairs whose algorithm the grid runs."""
    pairs = tuple((str(a), str(d)) for a, d in detectors)
    _check_names((a for a, _ in pairs), KNOWN_ALGORITHMS, "algorithm")
    _check_names((d for _, d in pairs), KNOWN_DETECTORS, "detector")
    pairs = tuple(p for p in pairs if p[0] in cfg.algorithms)
    if not pairs:
        raise ValueError("need at least one (algorithm, detector) pair "
                         "with an algorithm of the grid")
    return pairs


def _grid_pass(cfg: GridConfig, pairs=()) -> list:
    """[((m_ratio, k_ratio), (m, k), tallies)] per cell, in row order."""
    ratios = list(product(cfg.m_ratios, cfg.k_ratios))
    dims = [cfg.cell_dims(mr, kr) for mr, kr in ratios]
    snr = None if cfg.noiseless else cfg.snr
    tasks = [(cfg, idx, m, k, snr, pairs) for idx, (m, k) in enumerate(dims)]
    return list(zip(ratios, dims, _map_cells(_run_cell, tasks, cfg.workers)))


def _grid_result(cfg: GridConfig, kind: str, labels, passes) -> SweepResult:
    """Per cell, one row per label: (algorithm,) counts recoveries below the
    success threshold, (algorithm, detector) exact support matches."""
    rows = []
    for (m_ratio, k_ratio), (m, k), tallies in passes:
        for label in labels:
            tally = tallies[label[0]]
            if len(label) == 2:
                successes = tally.exact[label[1]]
            else:
                successes = sum(1 for s in tally.scores
                                if s is not None and s < cfg.success_threshold)
            rows.append((
                m_ratio, k_ratio, m, k, *label, cfg.trials, successes,
                successes / cfg.trials, tally.iterations / cfg.trials,
                tally.diverged, cfg.base_seed,
            ))
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


def run_support_phase_transition(
    cfg: GridConfig, detectors=DEFAULT_DETECTOR_CONFIGS
) -> SweepResult:
    """Exact-support-match rates for the (algorithm, detector) pairs whose
    algorithm is in cfg.algorithms; only those algorithms are solved."""
    pairs = _support_pairs(cfg, detectors)
    solved = replace(cfg, algorithms=tuple(dict.fromkeys(a for a, _ in pairs)))
    return _grid_result(cfg, "support-pt", pairs, _grid_pass(solved, pairs))


def run_grids(
    cfg: GridConfig, detectors=DEFAULT_DETECTOR_CONFIGS
) -> tuple[SweepResult, SweepResult]:
    """run_phase_transition(cfg) and run_support_phase_transition(cfg,
    detectors) from one pass, solving each instance once per algorithm."""
    pairs = _support_pairs(cfg, detectors)
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
    sigma_x2: float = 1.0,
    settings: RecoverySettings = RecoverySettings(),
    workers: int = 1,
) -> SweepResult:
    """Mean/median NMSE per (M, SNR) point with paired instances; a
    non-finite abort contributes NMSE 1 (the all-zero estimate)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= K <= N")
    if not len(m_list) or not len(snr_db_list):
        raise ValueError("m_list and snr_db_list must be non-empty")
    if any(int(m) < 1 for m in m_list):
        raise ValueError("every M must be >= 1")
    if not all(np.isfinite(float(s)) for s in snr_db_list):
        raise ValueError("every SNR must be finite")
    cfg = GridConfig(n=n, trials=trials, base_seed=base_seed,
                     algorithms=tuple(algorithms), sigma_x2=sigma_x2,
                     settings=settings, workers=workers)
    points = [(int(m), float(snr_db)) for m, snr_db in product(m_list, snr_db_list)]
    tasks = [(cfg, idx, m, k, 10.0 ** (snr_db / 10.0), ())
             for idx, (m, snr_db) in enumerate(points)]
    rows = []
    for (m, snr_db), tallies in zip(points, _map_cells(_run_cell, tasks, workers)):
        for algo in cfg.algorithms:
            tally = tallies[algo]
            v = np.array([1.0 if s is None else s for s in tally.scores])
            rows.append((
                m, snr_db, algo, trials, float(v.mean()), float(np.median(v)),
                tally.iterations / trials, tally.diverged, base_seed,
            ))
    meta = {
        "kind": "nmse-sweep", "version": __version__, "n": n, "k": k,
        "m_list": " ".join(str(int(m)) for m in m_list),
        "snr_db_list": " ".join(repr(float(s)) for s in snr_db_list),
        "trials": trials, "base_seed": base_seed,
        "algorithms": " ".join(cfg.algorithms), "sigma_x2": sigma_x2,
    }
    meta.update(asdict(settings))
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
