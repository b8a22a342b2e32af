"""Command-line front door.

Subcommands: recover, phase-transition, support-pt, nmse-sweep,
validate-denoiser.  Options may come from a '--config' INI file (one flat
section per subcommand, keys named like the long flags with underscores); a
key that is not an option of its subcommand is an error.  Explicit flags
override the file, which overrides the --paper-scale preset (which the file
may set too), which overrides the defaults.

Exit codes: 0 success, 1 usage/config error or a solve whose iterate went
non-finite, 2 validation failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import os
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
    check_solver,
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
    _check_noise,
    _checked,
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
ORACLE_N, ORACLE_M, ORACLE_K = 10, 6, 2


def denoiser_validation_rows(denoise_fn=denoise, u_grid=VALIDATION_U_GRID):
    """Closed form vs quadrature over VALIDATION_BETAS x VALIDATION_GAMMAS x
    u_grid at s2 = VALIDATION_S2; returns (rows, max_diff).

    Rows come in (beta, gamma, u) order.  denoise_fn is called once per
    (beta, gamma) at scalar gamma, with the u grid as a vector; the
    quadrature once per (beta, u) over the gamma vector, since its integrals
    do not depend on gamma.
    """
    rows = []
    max_diff = 0.0
    for beta in VALIDATION_BETAS:
        every_gamma = DenoiserParams(beta=beta, gamma=np.array(VALIDATION_GAMMAS),
                                     s2=VALIDATION_S2)
        references = [denoise_numeric(u, every_gamma) for u in u_grid]
        for j, gamma in enumerate(VALIDATION_GAMMAS):
            params = DenoiserParams(beta=beta, gamma=gamma, s2=VALIDATION_S2)
            closed_forms = denoise_fn(np.array(u_grid), params).tolist()
            for u, closed, at_u in zip(u_grid, closed_forms, references):
                reference = float(at_u[j])
                diff = abs(closed - reference)
                max_diff = max(max_diff, diff)
                rows.append((u, beta, gamma, closed, reference, diff))
    return rows, max_diff


def oracle_validation_rows(trials=200, seed=0, snr_db=None, noiseless=False,
                           settings=RecoverySettings()):
    """Mean per-part MSE of each algorithm against the enumeration oracle, at
    (N, M, K) = (ORACLE_N, ORACLE_M, ORACLE_K), its draws noisy at snr_db
    (20 dB where None) or noiseless, which takes no snr_db.

    The trials run through the sweeps' trial loop as its one cell, cell 0
    (trial j drawn from trial_rng(seed, 0, j)), each algorithm solving a
    chunk in one batched loop, and exact_mmse takes the trials of a chunk,
    both parts each, in one call (they share the cell's prior).  A solve
    that fails with RecoveryError raises it.

    Returns (rows, violations): one row per (algorithm, part) with the
    paired-mean MSEs, and the list of rows where the algorithm beats the
    oracle by more than 1e-9.
    """
    if snr_db is None and not noiseless:
        snr_db = 20.0
    _check_noise(snr_db, noiseless)  # make_instance's rule, before any draw
    cfg = GridConfig(n=ORACLE_N, trials=trials, base_seed=seed, settings=settings)
    snr = None if noiseless else 10.0 ** (snr_db / 10.0)
    alg_sums = {(a, p): 0.0 for a in KNOWN_ALGORITHMS for p in ("re", "im")}
    oracle_sums = {"re": 0.0, "im": 0.0}
    for chunk in _chunks(cfg, [(0, ORACLE_M, ORACLE_K, snr)]):
        draws, outs = _solve_draws(cfg, chunk)
        x_stars = exact_mmse(np.stack([inst.A for inst, _ in draws]),
                             np.stack([(inst.y.re, inst.y.im) for inst, _ in draws]),
                             draws[0][0].prior, np.array([s for _, s in draws]) / 2.0)
        for (inst, _), x_star in zip(draws, x_stars):
            for part, x_part in zip(("re", "im"), x_star):
                oracle_sums[part] += float(
                    np.sum((x_part - getattr(inst.x_true, part)) ** 2)) / ORACLE_N
        for algo in KNOWN_ALGORITHMS:
            for (inst, _), out in zip(draws, outs[algo]):
                if isinstance(out, RecoveryError):
                    raise out
                for part in ("re", "im"):
                    err = getattr(out.x_hat, part) - getattr(inst.x_true, part)
                    alg_sums[(algo, part)] += float(err @ err) / ORACLE_N
    rows = []
    violations = []
    for algo in KNOWN_ALGORITHMS:
        for part in ("re", "im"):
            alg_mse = alg_sums[(algo, part)] / trials
            oracle_mse = oracle_sums[part] / trials
            row = (algo, part, alg_mse, oracle_mse, alg_mse - oracle_mse)
            rows.append(row)
            if alg_mse < oracle_mse - 1e-9:
                violations.append(row)
    return rows, violations


# --- option plumbing ---------------------------------------------------------

class _Options:
    """The subcommand's options, each resolved flag > config file > preset >
    its table default.  The config section is read and checked when the
    options are built; a scale switch that is set picks its preset."""

    def __init__(self, args):
        self.command = args.command
        self.rows = {row[0]: row for row in _COMMANDS[args.command][1]}
        self.args = vars(args)
        self.config = _config_section(args.config, args.command, self.rows) if args.config else {}
        self.presets = {}  # get reads it, for the scale switch too
        for name, preset in _PRESETS.items():
            if name in self.rows and self.get(name):
                self.presets = preset

    def get(self, name):
        if self.args[name] is not None:
            return self.args[name]
        if name in self.config:
            return self.config[name]
        return self.presets.get(name, self.rows[name][2])

    def given(self, name) -> bool:
        """Whether a flag or the config file sets name."""
        return self.args[name] is not None or name in self.config


def _config_section(path, section, rows) -> dict:
    """The file's [section], each value converted by its row.  A key that is
    not a row, or a value that its type or choices reject, is a UsageError
    naming the key, the section and the file."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
        items = parser.items(section) if parser.has_section(section) else []
    except configparser.Error as exc:
        raise UsageError(f"bad config file {path}: {exc}")
    values = {}
    for key, text in items:
        where = f"key {key!r} in section [{section}] of {path}"
        if key not in rows:
            raise UsageError(f"unknown {where}")
        _, kind, _, choices, _ = rows[key]
        try:
            value = parser.BOOLEAN_STATES[text.lower()] if kind is bool else kind(text)
        except (KeyError, ValueError):
            raise UsageError(f"bad value {text!r} for {where}")
        if choices and value not in choices:
            raise UsageError(f"bad value {text!r} for {where}: choose from {', '.join(choices)}")
        values[key] = value
    return values


def _settings_from(opts: _Options) -> RecoverySettings:
    return RecoverySettings(**{f.name: opts.get(f.name) for f in fields(RecoverySettings)})


def _number_list(text: str, kind) -> list:
    try:
        return [kind(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"bad {kind.__name__} list {text!r}")


def _algorithms_from(opts) -> tuple[str, ...]:
    raw = opts.get("algos")
    return KNOWN_ALGORITHMS if raw is None else tuple(raw.replace(",", " ").split())


def _check_outputs(opts: _Options) -> None:
    """An OSError naming the first output option whose directory does not
    exist, as given; raised before any work, where write_csv would fail only
    at the end, naming its temporary file."""
    for name in ("out", "contour_out", "save_instance"):
        path = name in opts.rows and opts.get(name)
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"--{name.replace('_', '-')} {path}: no such directory")


# --- subcommands -------------------------------------------------------------

# the options that draw (and save) an instance, which --instance replaces
_DRAW = ("n", "m", "k", "snr_db", "cell", "trial", "gamma0", "sigma_x2", "seed", "save_instance")


def cmd_recover(opts) -> int:
    settings = _settings_from(opts)
    algo = opts.get("algo")
    if algo is None:
        raise UsageError("--algo is required")
    check_solver(algo, opts.get("lam"))  # before the instance is loaded or drawn

    if opts.get("instance"):
        given = ["--" + name.replace("_", "-") for name in _DRAW if opts.given(name)]
        if given:
            raise UsageError(f"--instance excludes {', '.join(given)}")
        inst, sigma_w2, seed = load_instance(opts.get("instance"))
        k = int(np.count_nonzero(inst.x_true.support()))
        seed, snr_db, cell, trial = None if seed == -1 else seed, None, None, None
    else:
        seed, cell, trial = opts.get("seed"), opts.get("cell"), opts.get("trial")
        _checked(**{"--seed": seed, "--cell": cell, "--trial": trial})
        n, m, k = opts.get("n"), opts.get("m"), opts.get("k")
        if n is None or m is None or k is None:
            raise UsageError("generation needs --n, --m and --k (or --instance)")
        snr_db = opts.get("snr_db")
        rng = trial_rng(seed, cell, trial)
        inst, sigma_w2 = make_instance(
            m, n, k, rng,
            sigma_x2=opts.get("sigma_x2"),
            snr=None if snr_db is None else 10.0 ** (snr_db / 10.0),
            noiseless=snr_db is None,
            gamma0=opts.get("gamma0"),
        )
        if opts.get("save_instance"):  # as drawn, before the solve
            save_instance(opts.get("save_instance"), inst, sigma_w2, seed)

    out = run_algorithm(algo, inst, k, settings, opts.get("lam"))
    detector = opts.get("detect")
    exact = fp = fn = ""
    if detector != "none":
        metrics = support_metrics(inst.x_true, detect_support(detector, out, inst.prior))
        exact, fp, fn = metrics.exact_match, metrics.false_positives, metrics.false_negatives

    columns = ["algorithm", "n", "m", "k", "seed", "cell", "trial", "snr_db", "nmse",
               "iterations", "converged", "diverged", "detector", "exact_support",
               "false_positives", "false_negatives"]
    row = (algo, inst.n, inst.m, k,
           *("" if v is None else v for v in (seed, cell, trial, snr_db)),
           nmse(out.x_hat, inst.x_true) if inst.x_true.norm_sq() > 0 else "",
           out.iterations, out.converged, out.diverged, detector, exact, fp, fn)
    print(",".join(columns))
    print(",".join(_fmt(v) for v in row))
    out = opts.get("out")
    if out:
        write_csv(out, columns, [row], {"kind": "recover", "version": __version__})
    return 0


def cmd_sweep(opts) -> int:
    """phase-transition, support-pt and nmse-sweep: the subcommand picks the
    runner and its own inputs; every sweep takes the same shared keywords and
    writes its CSV (and a grid its contour) the same way."""
    out = opts.get("out")
    if out is None:
        raise UsageError("--out is required for sweeps")
    settings = _settings_from(opts)
    shared = dict(
        n=opts.get("n"),
        trials=opts.get("trials"),
        base_seed=opts.get("seed"),
        algorithms=_algorithms_from(opts),
        settings=settings,
        workers=opts.get("workers"),
    )
    if opts.command == "nmse-sweep":
        result = run_nmse_sweep(
            k=opts.get("k"),
            m_list=_number_list(opts.get("m_list"), int),
            snr_db_list=_number_list(opts.get("snr_db_list"), float),
            **shared,
        )
    else:
        points, lo, hi = opts.get("grid_points"), opts.get("grid_min"), opts.get("grid_max")
        if points < 1 or not 0.0 < lo <= hi <= 1.0:
            raise UsageError("bad grid specification")
        level = opts.get("level")
        _checked(**{"--level": level})
        ratios = tuple(float(v) for v in np.linspace(lo, hi, points))
        cfg = GridConfig(
            m_ratios=ratios,
            k_ratios=ratios,
            sigma_x2=opts.get("sigma_x2"),
            **shared,
        )
        result = (run_phase_transition if opts.command == "phase-transition"
                  else run_support_phase_transition)(cfg)
    result.to_csv(out)
    if opts.command != "nmse-sweep" and opts.get("contour_out"):
        extract_contour(result, level).to_csv(opts.get("contour_out"))
    print(f"wrote {len(result.rows)} rows to {out}")
    return 0


def cmd_validate(opts) -> int:
    tol = opts.get("tol")
    _checked(**{"--tol": tol})
    # the oracle runs first, so bad oracle options fail before any grid point
    oracle = None if opts.get("skip_oracle") else oracle_validation_rows(
        trials=opts.get("trials"),
        seed=opts.get("seed"),
        settings=_settings_from(opts),
    )
    rows, max_diff = denoiser_validation_rows()
    out = opts.get("out")
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


# --- the option tables -------------------------------------------------------
#
# Each option is declared once, as a row (name, type, default, choices, help)
# of its subcommand's table.  The row gives the flag (--name with dashes), the
# config key (name), the default and the converter; bool rows are switches.

_COMMON = (
    ("seed", int, 0, None, "base seed of the instance draws"),
    ("out", str, None, None, "output CSV path"),
    *((f.name, type(f.default), f.default,
       {"likelihood_variant": LIKELIHOOD_VARIANTS, "part_variance": PART_VARIANCES}.get(f.name),
       None) for f in fields(RecoverySettings)),
)


def _sweep_common(n: int, trials: int) -> tuple:
    return _COMMON + (
        ("n", int, n, None, "signal length N"),
        ("trials", int, trials, None, "trials per cell"),
        ("workers", int, 1, None, "worker processes; results do not depend on them"),
        ("algos", str, None, None,
         "space/comma separated subset of " + " ".join(KNOWN_ALGORITHMS)),
    )


_GRID = _sweep_common(256, 50) + (
    ("paper_scale", bool, False, None, "N=1000, 200 trials per cell"),
    ("sigma_x2", float, 1.0, None, "slab variance"),
    ("grid_points", int, 19, None, "points on each axis"),
    ("grid_min", float, 0.05, None, "smallest M/N and K/M"),
    ("grid_max", float, 0.95, None, "largest M/N and K/M"),
    ("contour_out", str, None, None, "contour CSV path"),
    ("level", float, 0.5, None, "contour success level"),
)

# what each scale switch sets; a flag or the config file overrides it
_PRESETS = {"paper_scale": {"n": 1000, "trials": 200}}

# subcommand -> (help, option table, handler)
_COMMANDS = {
    "recover": ("solve one instance", _COMMON + (
        ("instance", str, None, None, "instance file to load"),
        ("save_instance", str, None, None, "write the drawn instance here, before the solve"),
        ("cell", int, 0, None, "draw the instance of this sweep cell"),
        ("trial", int, 0, None, "draw the instance of this trial"),
        ("n", int, None, None, "signal length N"),
        ("m", int, None, None, "measurements M"),
        ("k", int, None, None, "nonzeros K"),
        ("sigma_x2", float, 1.0, None, "slab variance"),
        ("gamma0", float, None, None, "prior zero probability (default: 1 - K/N)"),
        ("snr_db", float, None, None, "omit for a noiseless instance"),
        ("algo", str, None, KNOWN_ALGORITHMS, None),
        ("lam", float, None, None, "AMP threshold multiplier (default: heuristic from K)"),
        ("detect", str, "none", (*KNOWN_DETECTORS, "none"), None),
    ), cmd_recover),
    "phase-transition": ("recovery success-rate grid", _GRID, cmd_sweep),
    "support-pt": ("support-detection success grid", _GRID, cmd_sweep),
    "nmse-sweep": ("NMSE over SNR points", _sweep_common(500, 200) + (
        ("k", int, 20, None, "nonzeros K"),
        ("m_list", str, "70 140", None, "space/comma separated M values"),
        ("snr_db_list", str, "10 20 30 40", None, "space/comma separated SNRs in dB"),
    ), cmd_sweep),
    "validate-denoiser": ("closed form vs quadrature, solvers vs exact MMSE", _COMMON + (
        ("trials", int, 200, None, "instances for the exact-MMSE comparison"),
        ("tol", float, 1e-8, None, "max allowed |closed - quadrature|"),
        ("skip_oracle", bool, False, None, "skip the exact-MMSE comparison"),
    ), cmd_validate),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="csamp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"csamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, rows, _) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=summary)
        p_cmd.add_argument("--config", help="INI file with per-subcommand sections")
        for name, kind, default, choices, text in rows:
            if default is not None:
                text = f"{text or ''} (default: {default})".lstrip()
            kwargs = (dict(action="store_const", const=True) if kind is bool
                      else dict(type=kind, choices=choices))
            p_cmd.add_argument("--" + name.replace("_", "-"), dest=name, help=text, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        opts = _Options(args)
        _check_outputs(opts)
        return _COMMANDS[args.command][2](opts)
    except InstanceFormatError as exc:
        print(f"error: bad instance file: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError, RecoveryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
