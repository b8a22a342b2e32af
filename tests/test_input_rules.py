"""One rule per input quantity (model.INPUT_RULES): each bad value is sent
through every entry point that takes the quantity, and each entry must
report it with the rule's one message, under the name it enters by, before
anything is drawn.  This is the one home of the input-fault tests: a new
quantity or entry point is one more line of QUANTITIES, and every rule has
a case in it."""

import math

import numpy as np
import pytest

from csamp import cli, model
from csamp.amp import AmpConfig
from csamp.bamp import bamp_recover, bamp_step
from csamp.bossamp import likelihood_update
from csamp.denoiser import DenoiserParams, denoise, denoise_deriv, denoise_numeric, exact_mmse
from csamp.experiments import (GridConfig, SweepResult, detect_support, extract_contour,
                               run_algorithm, run_nmse_sweep, run_phase_transition,
                               trial_rng)
from csamp.model import (INPUT_RULES, BernoulliGaussianPrior, InstanceFormatError,
                         RecoverySettings, gen_matrix, gen_signal_exact_k, load_instance,
                         make_instance, save_instance)
from csamp.support import detect_em, detect_prior_based

INF, NAN = math.inf, math.nan

# each kind of rule: bad value -> the message it reads, "{}" standing for the name
POSITIVE = {0.0: "{} must be positive", -1.0: "{} must be positive", NAN: "{} must be positive",
            -INF: "{} must be positive", INF: "{} must be finite"}
NONNEGATIVE = {v: "{} must be finite and >= 0" for v in (-1.0, NAN, INF)}
PROBABILITY = {v: "{} entries must lie in [0, 1]" for v in (1.5, -0.1, NAN)}
FRACTION = {v: "{} %r outside (0, 1]" % v for v in (0.0, -0.5, 1.5, NAN, INF)}
COUNT = {0: "{} must be >= 1", 2.5: "{} must be an integer, got 2.5"}
INDEX = {-1: "{} must be nonnegative", 1.5: "{} must be an integer, got 1.5"}
SNR = {**{v: "noisy grids need a positive linear {}" for v in (0.0, -1.0, NAN)},
       INF: "{} must be finite"}
DATA = {v: "non-finite pseudo-data {}" for v in (NAN, INF, -INF)}
EMPTY = {(): "{} must be non-empty"}


class NoDraws:
    """The generator the cases draw with: any draw from it fails the case."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name}) before rejecting")


def forbidden(*args, **kwargs):
    raise AssertionError("drew an instance before rejecting")


def vec(*values):
    return np.array(values, dtype=float)


SAVED = make_instance(3, 5, 2, np.random.default_rng(0))[0]


def file_fault(key, text):
    """A case: load_instance of SAVED, a (3, 5) instance, saved with its
    line starting with key reading `key text`; the message after its line's
    number."""
    def run(tmp_path, capsys):
        path = tmp_path / "inst.txt"
        save_instance(path, SAVED, 0.0, seed=0)
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.split()[0] == key)
        lines[at] = f"{key} {text}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceFormatError) as err:
            load_instance(path)
        assert err.value.line_no == at + 1
        return str(err.value)[len(f"line {at + 1}: "):]
    return run


def em(**kwargs):
    u, g = vec(0.1, 2.0, -3.0), np.full(3, 0.8)
    args = dict(u_r=u, u_i=u, beta_r=0.5, beta_i=0.5, gamma_r=g, gamma_i=g, sigma_x2=1.0)
    return detect_em(**{**args, **kwargs})


def contour(level):
    rows = [(0.5, k, 1, 1, "cbamp", 10, int(10 * r), r, 1.0, 0, 0)
            for k, r in ((0.1, 1.0), (0.3, 0.0))]
    columns = ["m_ratio", "k_ratio", "m", "k", "algorithm", "trials", "successes",
               "success_rate", "mean_iterations", "diverged", "base_seed"]
    return extract_contour(SweepResult("phase-transition", columns, rows, {}), level)


def cli_fault(*argv):
    """A case: main on argv, OUT and OUT2 standing for paths in a fresh
    directory; it must exit 1 and write nothing, and its message is what it
    prints after 'error: ', with nothing on stdout."""
    def run(tmp_path, capsys):
        code = cli.main([str(tmp_path / a) if a.startswith("OUT") else a for a in argv])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and err.startswith("error: ") and err.endswith("\n")
        assert list(tmp_path.iterdir()) == []
        return err[len("error: "):-1]
    return run


def cli_flag(command, flag, *argv):
    """cli_fault of command and argv with --flag=value."""
    return lambda v: cli_fault(command, *argv, f"{flag}={v!r}")


RECOVER = ("--n", "16", "--m", "8", "--k", "2", "--save-instance", "OUT", "--algo", "cbamp")
GRID = ("--n", "24", "--trials", "1", "--grid-points", "2", "--out", "OUT")
A4 = gen_matrix(4, 6, np.random.default_rng(0))
INSTANCE = make_instance(8, 16, 2, trial_rng(0, 0, 0))[0]
NO_DRAWS = NoDraws()


def step(gamma=0.5, s2=0.5):
    """bamp_step on A4 at gamma and s2."""
    return bamp_step(A4, np.ones(4), np.zeros(6), np.ones(4), gamma, s2, 1e-12)


# quantity -> (its bad values, {entry: (the name it enters by, a call of the value)})
QUANTITIES = {
    "sigma_x2": (POSITIVE, {
        "prior": ("sigma_x2", lambda v: BernoulliGaussianPrior(0.5, v)),
        "GridConfig": ("sigma_x2", lambda v: GridConfig(sigma_x2=v)),
        "make_instance": ("sigma_x2", lambda v: make_instance(6, 12, 3, NO_DRAWS, sigma_x2=v)),
        "gen_signal_exact_k": ("sigma_x2", lambda v: gen_signal_exact_k(12, 3, v, NO_DRAWS)),
        "detect_em": ("sigma_x2", lambda v: em(sigma_x2=v)),
        "DenoiserParams": ("s2", lambda v: DenoiserParams(0.5, 0.5, v)),
        "likelihood_update": ("s2", lambda v: likelihood_update(vec(1.0), 0.5, 0.5, v)),
        "bamp_recover": ("s2", lambda v: bamp_recover(A4, np.ones(4), 0.5, v)),
        "bamp_step": ("s2", lambda v: step(s2=v)),
        "instance file": ("sigma_x2", lambda v: file_fault("sigma_x2", repr(v))),
        "recover --sigma-x2": ("sigma_x2", cli_flag("recover", "--sigma-x2", *RECOVER)),
        "phase-transition --sigma-x2": ("sigma_x2", cli_flag("phase-transition", "--sigma-x2",
                                                              *GRID)),
    }),
    "eps_tol": (POSITIVE, {
        "RecoverySettings": ("eps_tol", lambda v: RecoverySettings(eps_tol=v)),
        "recover --eps-tol": ("eps_tol", cli_flag("recover", "--eps-tol", *RECOVER)),
    }),
    "beta_floor": (POSITIVE, {
        "RecoverySettings": ("beta_floor", lambda v: RecoverySettings(beta_floor=v)),
        "recover --beta-floor": ("beta_floor", cli_flag("recover", "--beta-floor", *RECOVER)),
    }),
    # a NaN factor made every limit NaN and switched divergence detection off
    "divergence_factor": ({**{v: "{} must exceed 1" for v in (1.0, -5.0, NAN)},
                           INF: "{} must be finite"}, {
        "RecoverySettings": ("divergence_factor",
                             lambda v: RecoverySettings(divergence_factor=v)),
        "recover --divergence-factor": ("divergence_factor", cli_flag(
            "recover", "--divergence-factor", *RECOVER)),
    }),
    "gamma_clamp": ({v: "{} must lie in (0, 0.5)" for v in (0.0, 0.6, NAN)}, {
        "RecoverySettings": ("gamma_clamp", lambda v: RecoverySettings(gamma_clamp=v)),
        "recover --gamma-clamp": ("gamma_clamp", cli_flag("recover", "--gamma-clamp",
                                                          *RECOVER)),
    }),
    # inf was accepted and counted every trial a success
    "success_threshold": (POSITIVE, {
        "GridConfig": ("success_threshold", lambda v: GridConfig(success_threshold=v)),
    }),
    # inf was accepted and zeroed every estimate (NaN where beta is 0)
    "lam": (POSITIVE, {
        "AmpConfig": ("lam", lambda v: AmpConfig(lam=v)),
        "run_algorithm": ("lam", lambda v: run_algorithm("amp", INSTANCE, 2,
                                                         RecoverySettings(), lam=v)),
        "recover --lam": ("lam", cli_flag("recover", "--lam", *RECOVER[:-1], "amp")),
    }),
    # inf was accepted and ran a noisy grid noiseless
    "snr": (SNR, {
        "GridConfig": ("snr", lambda v: GridConfig(snr=v)),
        "make_instance": ("snr", lambda v: make_instance(6, 12, 3, NO_DRAWS, snr=v,
                                                        noiseless=False)),
    }),
    "sigma_w2": (NONNEGATIVE, {
        "instance file": ("sigma_w2", lambda v: file_fault("sigma_w2", repr(v))),
        "exact_mmse": ("sigma_w2_part", lambda v: exact_mmse(A4, np.ones(4),
                                                             BernoulliGaussianPrior(0.8), v)),
        "exact_mmse stacked": ("sigma_w2_part", lambda v: exact_mmse(
            np.stack([A4, A4]), np.ones((2, 1, 4)), BernoulliGaussianPrior(0.8), vec(0.1, v))),
    }),
    "beta": (NONNEGATIVE, {
        "DenoiserParams": ("beta", lambda v: DenoiserParams(v, 0.5, 0.5)),
        "likelihood_update": ("beta", lambda v: likelihood_update(vec(1.0), v, 0.5, 0.5)),
        "detect_em re": ("beta_r", lambda v: em(beta_r=v)),
        "detect_em im": ("beta_i", lambda v: em(beta_i=v)),
    }),
    "gamma0": (PROBABILITY, {
        "prior": ("gamma0", lambda v: BernoulliGaussianPrior(v)),
        "prior list": ("gamma0", lambda v: BernoulliGaussianPrior([0.5, v])),
        "make_instance": ("gamma0", lambda v: make_instance(6, 12, 3, NO_DRAWS, gamma0=v)),
        # a vector given as a list is tested whole, not entry by entry
        "make_instance list": ("gamma0", lambda v: make_instance(
            6, 12, 3, NO_DRAWS, gamma0=[0.5] * 11 + [v])),
        "likelihood_update": ("gamma0", lambda v: likelihood_update(vec(1.0), 0.5, v, 0.5)),
        "DenoiserParams": ("gamma", lambda v: DenoiserParams(0.5, v, 0.5)),
        "DenoiserParams vector": ("gamma", lambda v: DenoiserParams(0.5, vec(0.5, v), 0.5)),
        "DenoiserParams list": ("gamma", lambda v: DenoiserParams(0.5, [0.5, v], 0.5)),
        "bamp_recover": ("gamma", lambda v: bamp_recover(A4, np.ones(4), v, 0.5)),
        "bamp_step": ("gamma", lambda v: step(gamma=vec(0.5, 0.5, v, 0.5, 0.5, 0.5))),
        "detect_em": ("gamma_r", lambda v: em(gamma_r=vec(0.8, v, 0.8))),
        "detect_em im": ("gamma_i", lambda v: em(gamma_i=vec(0.8, v, 0.8))),
        "detect_prior_based re": ("gamma_r", lambda v: detect_prior_based(vec(v), vec(0.5))),
        "detect_prior_based": ("gamma_i", lambda v: detect_prior_based(vec(0.5), vec(v))),
        "instance file": ("gamma0", lambda v: file_fault("gamma0", f"0.6 {v!r} 0.6 0.6 0.6")),
        "recover --gamma0": ("gamma0", cli_flag("recover", "--gamma0", *RECOVER)),
    }),
    "level": (FRACTION, {
        "extract_contour": ("level", contour),
        **{f"{command} --level": ("--level", cli_flag(command, "--level", *GRID,
                                                      "--contour-out", "OUT2"))
           for command in ("phase-transition", "support-pt")},
        "GridConfig m_ratios": ("m_ratios[1]", lambda v: GridConfig(m_ratios=(0.5, v))),
        "GridConfig k_ratios": ("k_ratios[0]", lambda v: GridConfig(k_ratios=(v,))),
    }),
    # inf was accepted and passed every grid
    "tol": ({NAN: "{} nan must be >= 0", -1e-8: "{} -1e-08 must be >= 0",
             INF: "{} must be finite"}, {
        "validate-denoiser --tol": ("--tol", cli_flag("validate-denoiser", "--tol")),
    }),
    "n": (COUNT, {
        "GridConfig": ("n", lambda v: GridConfig(n=v)),
        "gen_matrix": ("n", lambda v: gen_matrix(4, v, NO_DRAWS)),
        "make_instance": ("n", lambda v: make_instance(4, v, 0, NO_DRAWS)),
        # K <= N was checked first, so n = 0 read `need 1 <= K <= N`
        "run_nmse_sweep": ("n", lambda v: run_nmse_sweep(v, 2, [12], [10.0], 1)),
    }),
    "m": (COUNT, {
        "gen_matrix": ("m", lambda v: gen_matrix(v, 6, NO_DRAWS)),
        "make_instance": ("m", lambda v: make_instance(v, 6, 2, NO_DRAWS)),
        "run_nmse_sweep": ("m_list[1]", lambda v: run_nmse_sweep(24, 2, [12, v], [10.0], 1)),
    }),
    # a file's dimension reads as an integer first: 2.5 is a bad integer, not this rule
    "file dimensions": ({v: "{} must be >= 1" for v in (0, -2)}, {
        f"instance file {key}": (key, lambda v, key=key: file_fault(key, repr(v)))
        for key in ("M", "N")
    }),
    # and so does a flag's (argparse reads it)
    "flag dimensions": ({v: "{} must be >= 1" for v in (0, -2)}, {
        "nmse-sweep --n": ("n", cli_flag("nmse-sweep", "--n", "--out", "OUT")),
    }),
    "trials": (COUNT, {
        "GridConfig": ("trials", lambda v: GridConfig(trials=v)),
        "run_nmse_sweep": ("trials", lambda v: run_nmse_sweep(24, 2, [12], [10.0], v)),
        "oracle_validation_rows": ("trials", lambda v: cli.oracle_validation_rows(trials=v)),
    }),
    "workers": (COUNT, {
        "GridConfig": ("workers", lambda v: GridConfig(workers=v)),
        "run_nmse_sweep": ("workers", lambda v: run_nmse_sweep(24, 2, [12], [10.0], 1,
                                                               workers=v)),
    }),
    "t_max": (COUNT, {
        "RecoverySettings": ("t_max", lambda v: RecoverySettings(t_max=v)),
    }),
    "k": (INDEX, {
        "make_instance": ("k", lambda v: make_instance(6, 12, v, NO_DRAWS)),
        "gen_signal_exact_k": ("k", lambda v: gen_signal_exact_k(12, v, 1.0, NO_DRAWS)),
        "run_nmse_sweep": ("k", lambda v: run_nmse_sweep(24, v, [12], [10.0], 1)),
    }),
    "base_seed": (INDEX, {
        "GridConfig": ("base_seed", lambda v: GridConfig(base_seed=v)),
        "run_nmse_sweep": ("base_seed", lambda v: run_nmse_sweep(24, 2, [12], [10.0], 1,
                                                                 base_seed=v)),
    }),
    "draw numbers": ({-1: "{} must be nonnegative"}, {
        f"recover --{flag}": (f"--{flag}", cli_flag("recover", f"--{flag}", *RECOVER))
        for flag in ("seed", "cell", "trial")
    }),
    "snr_db_list": ({v: "{} must be finite" for v in (NAN, INF, -INF)}, {
        "run_nmse_sweep": ("snr_db_list[1]", lambda v: run_nmse_sweep(24, 2, [12], [10.0, v],
                                                                      1)),
    }),
    "u": (DATA, {
        "denoise": ("u", lambda v: denoise(vec(0.0, v), DenoiserParams(0.5, 0.5, 0.5))),
        "denoise_deriv": ("u", lambda v: denoise_deriv(v, DenoiserParams(0.5, 0.5, 0.5))),
        "denoise_numeric": ("u", lambda v: denoise_numeric(v, DenoiserParams(0.5, 0.5, 0.5))),
        "likelihood_update": ("u", lambda v: likelihood_update(vec(v), 0.5, 0.5, 0.5)),
        "detect_em re": ("u_r", lambda v: em(u_r=vec(v, 0.1, 0.1))),
        "detect_em": ("u_i", lambda v: em(u_i=vec(0.1, v, 0.1))),
    }),
    "algorithm": ({"magic": "unknown {} 'magic'"}, {
        "GridConfig": ("algorithm", lambda v: GridConfig(algorithms=("cbamp", v))),
        "run_algorithm": ("algorithm", lambda v: run_algorithm(v, INSTANCE, 2,
                                                               RecoverySettings())),
        "run_nmse_sweep": ("algorithm", lambda v: run_nmse_sweep(24, 2, [12], [10.0], 1,
                                                                 algorithms=(v,))),
    }),
    # an empty tuple drew every instance and returned no rows
    "algorithms": (EMPTY, {
        "GridConfig": ("algorithms", lambda v: GridConfig(algorithms=v)),
        "run_nmse_sweep": ("algorithms", lambda v: run_nmse_sweep(24, 2, [12], [10.0], 1,
                                                                  algorithms=v)),
        # `--algos ,` names none
        **{f"{command} --algos": ("algorithms", lambda v, command=command: cli_fault(
            command, "--algos", "," + ",".join(v), "--out", "OUT"))
           for command in ("nmse-sweep", "phase-transition")},
    }),
    # an empty grid axis gave an empty sweep; each list has its own message
    "lists": (EMPTY, {
        **{f"GridConfig {axis}": (axis, lambda v, axis=axis: GridConfig(**{axis: v}))
           for axis in ("m_ratios", "k_ratios")},
        "run_nmse_sweep m_list": ("m_list", lambda v: run_nmse_sweep(24, 2, v, [10.0], 1)),
        "run_nmse_sweep snr_db_list": ("snr_db_list", lambda v: run_nmse_sweep(24, 2, [12], v,
                                                                               1)),
        **{f"nmse-sweep --{flag}": (flag.replace("-", "_"), lambda v, flag=flag: cli_fault(
            "nmse-sweep", f"--{flag}=" + ",".join(v), "--out", "OUT"))
           for flag in ("m-list", "snr-db-list")},
    }),
    "detector": ({"magic": "unknown {} 'magic'"}, {
        "detect_support": ("detector", lambda v: detect_support(
            v, run_algorithm("cbamp", INSTANCE, 2, RecoverySettings()), INSTANCE.prior)),
    }),
    "likelihood_variant": ({"nope": "unknown {} 'nope'"}, {
        "RecoverySettings": ("likelihood_variant",
                             lambda v: RecoverySettings(likelihood_variant=v)),
    }),
    "part_variance": ({"quarter": "unknown {} 'quarter'"}, {
        "RecoverySettings": ("part_variance", lambda v: RecoverySettings(part_variance=v)),
    }),
    # a noisy grid whose cell has K = 0 (M = 1 at n = 16) solved a chunk, then
    # failed on that cell's draw; a relation of the cells, checked at entry
    "noisy cells": ({0.05: "cell M/N=0.05, K/M=0.5 (M=1, K=0): "
                           "Ax is zero; SNR calibration undefined"}, {
        "GridConfig": ("m_ratios", lambda v: run_phase_transition(GridConfig(
            n=16, snr=10.0, trials=2, m_ratios=(0.5, v), k_ratios=(0.5,)))),
    }),
}

CASES = [(quantity, entry, value) for quantity, (values, entries) in QUANTITIES.items()
         for entry in entries for value in values]


@pytest.mark.parametrize("quantity, entry, value", CASES,
                         ids=[f"{q}-{e}-{v!r}" for q, e, v in CASES])
def test_each_entry_reports_the_one_rule(tmp_path, capsys, monkeypatch, quantity, entry,
                                         value):
    monkeypatch.setattr(model, "gen_matrix", forbidden)  # every instance draw starts there
    values, entries = QUANTITIES[quantity]
    name, call = entries[entry]
    try:
        case = call(value)
    except ValueError as exc:
        message = str(exc)
    else:  # a file or CLI case, run in its own directory
        assert callable(case), f"{entry} accepted {value!r}"
        message = case(tmp_path, capsys)
    assert message == values[value].format(name)


def test_every_rule_has_a_case():
    # an entry's name is its rule's key, as _checked reads it
    covered = {name.lstrip("-").split("[")[0]
               for _, entries in QUANTITIES.values() for name, _ in entries.values()}
    assert sorted(set(INPUT_RULES) - covered) == []


def test_a_finite_snr_beyond_the_rounding_of_y_runs():
    # 400 dB is a finite SNR: its noise (variance ~1e-40 ||Ax||^2 / M) lies
    # below the rounding of y, so the draws are all but noiseless, as the SNR
    # says; the rule asks only that every SNR be finite
    result = run_nmse_sweep(24, 2, [12], [400.0], 2, algorithms=("cbamp",))
    (row,) = result.rows
    assert row[1] == 400.0 and 0.0 <= row[4] < 1.0
