"""Command-line front door.

Subcommands: recover, phase-transition, support-pt, nmse-sweep,
validate-denoiser.  Options may come from a '--config' INI file (one flat
section per subcommand, keys named like the long flags with underscores);
explicit flags override the file, which overrides the scale presets.

Exit codes: 0 success, 1 usage/config error or a solve whose iterate went
non-finite, 2 validation failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import fields

import numpy as np

from ._version import __version__
from .denoiser import DenoiserParams, denoise, denoise_numeric, exact_mmse
from .experiments import (
    KNOWN_ALGORITHMS,
    KNOWN_DETECTORS,
    GridConfig,
    _chunks,
    _fmt,
    _solve_draws,
    detect_support,
    extract_contour,
    run_algorithm,
    run_nmse_sweep,
    run_phase_transition,
    run_support_phase_transition,
    trial_rng,
    write_csv,
)
from .model import (
    LIKELIHOOD_VARIANTS,
    PART_VARIANCES,
    InstanceFormatError,
    RecoveryError,
    RecoverySettings,
    load_instance,
    make_instance,
    nmse,
    save_instance,
)
from .support import support_metrics


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# --- denoiser / oracle validation (importable for tests) --------------------

VALIDATION_U_GRID = tuple(float(u) for u in np.linspace(-7.0, 7.0, 50))
VALIDATION_BETAS = (1e-3, 1e-1, 1.0, 10.0)
VALIDATION_GAMMAS = (0.01, 0.5, 0.9, 0.99)
VALIDATION_S2 = 0.5


def denoiser_validation_rows(denoise_fn=denoise, u_grid=VALIDATION_U_GRID,
                             betas=VALIDATION_BETAS, gammas=VALIDATION_GAMMAS,
                             s2=VALIDATION_S2):
    """Closed form vs quadrature on the full grid; returns (rows, max_diff).

    Rows come in (beta, gamma, u) order.  The closed form is called once per
    point at scalar gamma; the quadrature once per (beta, u) over the gamma
    vector, since its integrals do not depend on gamma.
    """
    rows = []
    max_diff = 0.0
    for beta in betas:
        every_gamma = DenoiserParams(beta=beta, gamma=np.array(gammas), s2=s2)
        references = [denoise_numeric(u, every_gamma) for u in u_grid]
        for j, gamma in enumerate(gammas):
            params = DenoiserParams(beta=beta, gamma=gamma, s2=s2)
            for u, at_u in zip(u_grid, references):
                closed = float(denoise_fn(u, params))
                reference = float(at_u[j])
                diff = abs(closed - reference)
                max_diff = max(max_diff, diff)
                rows.append((u, beta, gamma, closed, reference, diff))
    return rows, max_diff


def oracle_validation_rows(trials=200, seed=0, n=10, m=6, k=2, snr_db=20.0,
                           noiseless=False, settings=RecoverySettings(),
                           algorithms=KNOWN_ALGORITHMS):
    """Mean per-part MSE of each algorithm against the enumeration oracle.

    The trials run through the sweeps' trial loop as its one cell, cell 0
    (trial j drawn from trial_rng(seed, 0, j)), each algorithm solving a
    chunk in one batched loop, and exact_mmse takes the trials of a chunk,
    both parts each, in one call (they share the cell's prior).  A solve
    that fails with RecoveryError raises it.

    Returns (rows, violations): one row per (algorithm, part) with the
    paired-mean MSEs, and the list of rows where the algorithm beats the
    oracle by more than 1e-9.
    """
    if n > 14:
        raise ValueError(f"support enumeration infeasible for N={n} > 14")
    cfg = GridConfig(n=n, trials=trials, base_seed=seed,
                     algorithms=tuple(algorithms), settings=settings)
    snr = None if noiseless else 10.0 ** (snr_db / 10.0)
    alg_sums = {(a, p): 0.0 for a in algorithms for p in ("re", "im")}
    oracle_sums = {"re": 0.0, "im": 0.0}
    for chunk in _chunks(cfg, [(0, m, k, snr)]):
        draws, outs = _solve_draws(cfg, chunk)
        x_stars = exact_mmse(np.stack([inst.A for inst, _ in draws]),
                             np.stack([(inst.y.re, inst.y.im) for inst, _ in draws]),
                             draws[0][0].prior, np.array([s for _, s in draws]) / 2.0)
        for (inst, _), x_star in zip(draws, x_stars):
            for part, x_part in zip(("re", "im"), x_star):
                oracle_sums[part] += float(
                    np.sum((x_part - getattr(inst.x_true, part)) ** 2)) / n
        for algo in algorithms:
            for (inst, _), out in zip(draws, outs[algo]):
                if isinstance(out, RecoveryError):
                    raise out
                for part in ("re", "im"):
                    err = getattr(out.x_hat, part) - getattr(inst.x_true, part)
                    alg_sums[(algo, part)] += float(err @ err) / n
    rows = []
    violations = []
    for algo in algorithms:
        for part in ("re", "im"):
            alg_mse = alg_sums[(algo, part)] / trials
            oracle_mse = oracle_sums[part] / trials
            row = (algo, part, alg_mse, oracle_mse, alg_mse - oracle_mse)
            rows.append(row)
            if alg_mse < oracle_mse - 1e-9:
                violations.append(row)
    return rows, violations


# --- option plumbing ---------------------------------------------------------

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"bad boolean value {text!r}")


def _load_config_section(path, section):
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise UsageError(f"bad config file {path}: {exc}")
    if not parser.has_section(section):
        return {}
    return dict(parser.items(section))


class _Options:
    """Flag > config file > preset > built-in default."""

    def __init__(self, args, section: str, presets: dict | None = None):
        self.args = vars(args)
        self.config = (
            _load_config_section(args.config, section)
            if getattr(args, "config", None) else {}
        )
        self.presets = presets or {}

    def get(self, name, default, convert):
        value = self.args.get(name)
        if value is not None:
            return value
        if name in self.config:
            return (_parse_bool if convert is bool else convert)(self.config[name])
        if name in self.presets:
            return self.presets[name]
        return default


def _settings_from(opts: _Options) -> RecoverySettings:
    """RecoverySettings from the options that are set; the rest keep the
    dataclass defaults."""
    values = {f.name: opts.get(f.name, None, type(f.default))
              for f in fields(RecoverySettings)}
    return RecoverySettings(**{k: v for k, v in values.items() if v is not None})


def _number_list(text: str, kind) -> list:
    try:
        return [kind(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"bad {kind.__name__} list {text!r}")


def _add_common(parser):
    parser.add_argument("--config", help="INI file with per-subcommand sections")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output CSV path")
    parser.add_argument("--t-max", type=int, default=None, dest="t_max")
    parser.add_argument("--eps-tol", type=float, default=None, dest="eps_tol")
    parser.add_argument("--beta-floor", type=float, default=None, dest="beta_floor")
    parser.add_argument("--gamma-clamp", type=float, default=None, dest="gamma_clamp")
    parser.add_argument("--divergence-factor", type=float, default=None,
                        dest="divergence_factor")
    parser.add_argument("--likelihood-variant", default=None, choices=LIKELIHOOD_VARIANTS,
                        dest="likelihood_variant")
    parser.add_argument("--part-variance", default=None, choices=PART_VARIANCES,
                        dest="part_variance")


def _add_sweep_common(parser):
    _add_common(parser)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--algos", default=None,
                        help="space/comma separated subset of " + " ".join(KNOWN_ALGORITHMS))


def build_parser() -> _Parser:
    parser = _Parser(prog="csamp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"csamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("recover", help="solve one instance")
    _add_common(p_rec)
    p_rec.add_argument("--instance", default=None, help="instance file to load")
    p_rec.add_argument("--save-instance", default=None, dest="save_instance",
                       help="write the generated instance to this path")
    p_rec.add_argument("--cell", type=int, default=None,
                       help="draw the instance of this sweep cell (default 0)")
    p_rec.add_argument("--trial", type=int, default=None,
                       help="draw the instance of this trial (default 0)")
    p_rec.add_argument("--n", type=int, default=None)
    p_rec.add_argument("--m", type=int, default=None)
    p_rec.add_argument("--k", type=int, default=None)
    p_rec.add_argument("--sigma-x2", type=float, default=None, dest="sigma_x2")
    p_rec.add_argument("--gamma0", type=float, default=None)
    p_rec.add_argument("--snr-db", type=float, default=None, dest="snr_db",
                       help="omit for a noiseless instance")
    p_rec.add_argument("--algo", default=None, choices=KNOWN_ALGORITHMS)
    p_rec.add_argument("--lam", type=float, default=None,
                       help="AMP threshold multiplier (default: heuristic from K)")
    p_rec.add_argument("--detect", default=None, choices=(*KNOWN_DETECTORS, "none"))

    for name, text in (("phase-transition", "recovery success-rate grid"),
                       ("support-pt", "support-detection success grid")):
        p_grid = sub.add_parser(name, help=text)
        _add_sweep_common(p_grid)
        p_grid.add_argument("--paper-scale", action="store_true",
                            help="N=1000, 200 trials per cell")
        p_grid.add_argument("--desk-scale", action="store_true",
                            help="N=256, 50 trials per cell")
        p_grid.add_argument("--grid-points", type=int, default=None, dest="grid_points")
        p_grid.add_argument("--grid-min", type=float, default=None, dest="grid_min")
        p_grid.add_argument("--grid-max", type=float, default=None, dest="grid_max")
        p_grid.add_argument("--contour-out", default=None, dest="contour_out")
        p_grid.add_argument("--level", type=float, default=None,
                            help="contour success level")

    p_nmse = sub.add_parser("nmse-sweep", help="NMSE over SNR points")
    _add_sweep_common(p_nmse)
    p_nmse.add_argument("--k", type=int, default=None)
    p_nmse.add_argument("--m-list", default=None, dest="m_list")
    p_nmse.add_argument("--snr-db-list", default=None, dest="snr_db_list")

    p_val = sub.add_parser("validate-denoiser",
                           help="closed form vs quadrature, solvers vs exact MMSE")
    _add_common(p_val)
    p_val.add_argument("--trials", type=int, default=None,
                       help="instances for the exact-MMSE comparison")
    p_val.add_argument("--tol", type=float, default=None,
                       help="max allowed |closed - quadrature|")
    p_val.add_argument("--skip-oracle", action="store_true", default=None, dest="skip_oracle")
    return parser


# --- subcommands -------------------------------------------------------------

def _algorithms_from(opts) -> tuple[str, ...]:
    raw = opts.get("algos", None, str)
    if raw is None:
        return KNOWN_ALGORITHMS
    algos = tuple(raw.replace(",", " ").split())
    if not algos:
        raise UsageError("empty --algos")
    return algos


def _nonnegative(flag: str, value: int) -> int:
    """value, checked as --flag's (a seed, cell or trial number)."""
    if value < 0:
        raise UsageError(f"--{flag} must be nonnegative")
    return value


def cmd_recover(args) -> int:
    opts = _Options(args, "recover")
    settings = _settings_from(opts)
    seed = _nonnegative("seed", opts.get("seed", 0, int))
    algo = opts.get("algo", None, str)
    if algo is None:
        raise UsageError("--algo is required")

    if opts.get("instance", None, str):
        inst, sigma_w2, _ = load_instance(opts.get("instance", None, str))
        k = int(np.count_nonzero(inst.x_true.support()))
        snr_db = cell = trial = None
    else:
        n = opts.get("n", None, int)
        m = opts.get("m", None, int)
        k = opts.get("k", None, int)
        if n is None or m is None or k is None:
            raise UsageError("generation needs --n, --m and --k (or --instance)")
        snr_db = opts.get("snr_db", None, float)
        cell = _nonnegative("cell", opts.get("cell", 0, int))
        trial = _nonnegative("trial", opts.get("trial", 0, int))
        rng = trial_rng(seed, cell, trial)
        inst, sigma_w2 = make_instance(
            m, n, k, rng,
            sigma_x2=opts.get("sigma_x2", 1.0, float),
            snr=None if snr_db is None else 10.0 ** (snr_db / 10.0),
            noiseless=snr_db is None,
            gamma0=opts.get("gamma0", None, float),
        )
        save_path = opts.get("save_instance", None, str)
        if save_path:
            save_instance(save_path, inst, sigma_w2, seed)

    lam = opts.get("lam", None, float)
    if algo == "amp" and lam is None and k < 1:
        raise UsageError("amp needs --lam or an instance with K >= 1")
    out = run_algorithm(algo, inst, k, settings, lam)

    detector = opts.get("detect", "none", str)
    exact = fp = fn = ""
    if detector != "none":
        metrics = support_metrics(inst.x_true, detect_support(detector, out, inst.prior))
        exact, fp, fn = metrics.exact_match, metrics.false_positives, metrics.false_negatives

    columns = ["algorithm", "n", "m", "k", "seed", "cell", "trial", "snr_db", "nmse",
               "iterations", "converged", "diverged", "detector", "exact_support",
               "false_positives", "false_negatives"]
    row = (algo, inst.n, inst.m, k, seed,
           *("" if v is None else v for v in (cell, trial, snr_db)),
           nmse(out.x_hat, inst.x_true) if inst.x_true.norm_sq() > 0 else "",
           out.iterations, out.converged, out.diverged, detector, exact, fp, fn)
    print(",".join(columns))
    print(",".join(_fmt(v) for v in row))
    out = opts.get("out", None, str)
    if out:
        write_csv(out, columns, [row], {"kind": "recover", "version": __version__})
    return 0


def cmd_grid(args) -> int:
    """phase-transition and support-pt: one grid, the runner named by the
    subcommand."""
    opts = _Options(args, args.command)
    if args.paper_scale and args.desk_scale:
        raise UsageError("--paper-scale and --desk-scale are mutually exclusive")
    if args.paper_scale:
        opts.presets = {"n": 1000, "trials": 200, "t_max": 100, "eps_tol": 1e-4}
    elif args.desk_scale:
        opts.presets = {"n": 256, "trials": 50}
    points = opts.get("grid_points", 19, int)
    lo = opts.get("grid_min", 0.05, float)
    hi = opts.get("grid_max", 0.95, float)
    if points < 1 or not 0.0 < lo <= hi <= 1.0:
        raise UsageError("bad grid specification")
    ratios = tuple(float(v) for v in np.linspace(lo, hi, points))
    settings = _settings_from(opts)
    cfg = GridConfig(
        n=opts.get("n", 256, int),
        m_ratios=ratios,
        k_ratios=ratios,
        trials=opts.get("trials", 50, int),
        base_seed=opts.get("seed", 0, int),
        algorithms=_algorithms_from(opts),
        success_threshold=settings.eps_tol,
        noiseless=True,
        sigma_x2=opts.get("sigma_x2", 1.0, float),
        settings=settings,
        workers=opts.get("workers", 1, int),
    )
    level = opts.get("level", 0.5, float)
    contour_out = opts.get("contour_out", None, str)
    out = opts.get("out", None, str)
    if out is None:
        raise UsageError("--out is required for sweeps")
    if args.command == "phase-transition":
        result = run_phase_transition(cfg)
    else:
        result = run_support_phase_transition(cfg)
    result.to_csv(out)
    if contour_out:
        extract_contour(result, level).to_csv(contour_out)
    print(f"wrote {len(result.rows)} rows to {out}")
    return 0


def cmd_nmse_sweep(args) -> int:
    opts = _Options(args, "nmse-sweep")
    out = opts.get("out", None, str)
    if out is None:
        raise UsageError("--out is required for sweeps")
    n = opts.get("n", 500, int)
    k = opts.get("k", 20, int)
    m_list = opts.get("m_list", "70 140", str)
    snr_list = opts.get("snr_db_list", "10 20 30 40", str)
    result = run_nmse_sweep(
        n=n, k=k,
        m_list=_number_list(m_list, int),
        snr_db_list=_number_list(snr_list, float),
        trials=opts.get("trials", 200, int),
        base_seed=opts.get("seed", 0, int),
        algorithms=_algorithms_from(opts),
        settings=_settings_from(opts),
        workers=opts.get("workers", 1, int),
    )
    result.to_csv(out)
    print(f"wrote {len(result.rows)} rows to {out}")
    return 0


def cmd_validate(args) -> int:
    opts = _Options(args, "validate-denoiser")
    tol = opts.get("tol", 1e-8, float)
    # the oracle runs first, so bad oracle options fail before any grid point
    oracle = None if opts.get("skip_oracle", False, bool) else oracle_validation_rows(
        trials=opts.get("trials", 200, int),
        seed=opts.get("seed", 0, int),
        settings=_settings_from(opts),
    )
    rows, max_diff = denoiser_validation_rows()
    out = opts.get("out", None, str)
    if out:
        write_csv(out, ["u", "beta", "gamma", "closed_form", "quadrature", "abs_diff"],
                  rows, {"kind": "validate-denoiser", "version": __version__,
                         "s2": VALIDATION_S2, "tol": tol})
    status = 0
    if max_diff > tol:
        worst = sorted(rows, key=lambda r: -r[5])[:5]
        print(f"FAIL denoiser grid: max |closed - quadrature| = {max_diff:.3e} > {tol:.1e}",
              file=sys.stderr)
        for u, beta, gamma, closed, reference, diff in worst:
            print(f"  u={u:+.4f} beta={beta:g} gamma={gamma:g} "
                  f"closed={closed:+.10e} quad={reference:+.10e} |diff|={diff:.3e}",
                  file=sys.stderr)
        status = 2
    else:
        print(f"denoiser grid ok: {len(rows)} points, max |diff| = {max_diff:.3e}")

    if oracle is not None:
        oracle_rows, violations = oracle
        for algo, part, alg_mse, oracle_mse, margin in oracle_rows:
            print(f"{algo:9s} {part}: mse={alg_mse:.6e} oracle={oracle_mse:.6e} "
                  f"margin={margin:+.3e}")
        if violations:
            print("FAIL exact-MMSE bound violated:", file=sys.stderr)
            for algo, part, alg_mse, oracle_mse, margin in violations:
                print(f"  {algo} {part}: {alg_mse:.6e} < {oracle_mse:.6e} - 1e-9",
                      file=sys.stderr)
            status = 2
    return status


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "recover": cmd_recover,
            "phase-transition": cmd_grid,
            "support-pt": cmd_grid,
            "nmse-sweep": cmd_nmse_sweep,
            "validate-denoiser": cmd_validate,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InstanceFormatError as exc:
        print(f"error: bad instance file: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RecoveryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
