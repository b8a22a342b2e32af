import argparse
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate

import csamp.cli as cli
import csamp.experiments as experiments
from csamp.cli import (
    denoiser_validation_rows,
    main,
    oracle_validation_rows,
)
from csamp.denoiser import DenoiserParams, denoise, denoise_numeric, exact_mmse
from csamp.experiments import GridConfig, read_csv, run_algorithm, trial_rng
from csamp.model import (LIKELIHOOD_VARIANTS, PART_VARIANCES, RecoveryError,
                         RecoverySettings, load_instance, make_instance, save_instance)


@pytest.fixture
def quad_calls(monkeypatch):
    """The number of quad calls the quadrature oracle makes, as a one-item list."""
    count = [0]
    original = scipy.integrate.quad

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counting)
    return count


def forbidden_solve(*args, **kwargs):
    raise AssertionError("solved an instance")


def forbidden_draw(*args, **kwargs):
    raise AssertionError("drew an instance")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_row(out):
    lines = [l for l in out.strip().splitlines() if l and "," in l]
    header = lines[0].split(",")
    values = lines[1].split(",")
    return dict(zip(header, values))


class TestRecover:
    def test_easy_instance_cbossamp(self, capsys):
        code, out, _ = run_cli(
            capsys, "recover", "--n", "128", "--m", "64", "--k", "6",
            "--algo", "cbossamp", "--detect", "em", "--seed", "3",
        )
        assert code == 0
        row = parse_row(out)
        assert float(row["nmse"]) < 1e-4
        assert row["converged"] == "true"
        assert row["exact_support"] == "true"

    def test_amp_without_k_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "recover", "--algo", "amp",
                               "--n", "64", "--m", "32")
        assert code == 1
        assert "needs" in err

    def test_amp_replays_a_sweeps_k0_trial(self, capsys, tmp_path):
        # the sweep solves K = 0 at the heuristic of K = 1, and so does recover
        out = tmp_path / "pt.csv"
        code, _, _ = run_cli(capsys, "phase-transition", "--n", "48", "--trials", "2",
                             "--grid-points", "3", "--grid-min", "0.05", "--grid-max", "0.5",
                             "--algos", "amp", "--seed", "4", "--out", str(out))
        assert code == 0
        columns, rows, _ = read_csv(out)
        cell = dict(zip(columns, rows[0]))
        assert (cell["m"], cell["k"], cell["mean_iterations"]) == ("2", "0", "1.0")
        for trial in ("0", "1"):
            code, printed, err = run_cli(capsys, "recover", "--n", "48", "--m", "2", "--k", "0",
                                         "--algo", "amp", "--seed", "4", "--cell", "0",
                                         "--trial", trial)
            assert code == 0, err
            row = parse_row(printed)
            assert (row["iterations"], row["converged"]) == ("1", "true")
            inst = make_instance(2, 48, 0, trial_rng(4, 0, int(trial)))[0]
            assert run_algorithm("amp", inst, 0, RecoverySettings()).x_hat.norm_sq() == 0.0

    @pytest.mark.parametrize("algo", ["cbamp", "cbossamp"])
    def test_lam_rejected_for_bayesian_solvers(self, capsys, algo):
        # lam is amp's threshold multiplier; the Bayesian solvers have none
        code, out, err = run_cli(capsys, "recover", "--n", "32", "--m", "16", "--k", "3",
                                 "--algo", algo, "--lam", "-3")
        assert code == 1
        assert out == "" and "lam" in err
        inst = make_instance(16, 32, 3, trial_rng(0, 0, 0))[0]
        with pytest.raises(ValueError, match="lam"):
            run_algorithm(algo, inst, 3, RecoverySettings(), lam=1.5)

    @pytest.mark.parametrize("algo", ["amp", "cbamp"])
    def test_rejected_lam_leaves_no_instance_file(self, capsys, tmp_path, algo):
        saved = tmp_path / "inst.txt"
        code, out, err = run_cli(capsys, "recover", "--n", "32", "--m", "16", "--k", "3",
                                 "--algo", algo, "--lam", "-3", "--save-instance", str(saved))
        assert (code, out) == (1, "") and err.startswith("error:")
        assert not saved.exists()

    def test_non_finite_solve_keeps_its_saved_instance(self, capsys, tmp_path, monkeypatch):
        def non_finite(name, instances, *args, **kwargs):
            return [RecoveryError("AMP produced a non-finite iterate at t=1")] * len(instances)

        monkeypatch.setattr(experiments, "_solve_chunk", non_finite)
        saved = tmp_path / "inst.txt"
        code, out, err = run_cli(capsys, "recover", "--n", "32", "--m", "16", "--k", "3",
                                 "--algo", "cbamp", "--seed", "4", "--save-instance", str(saved))
        assert (code, out) == (1, "")
        assert err == "error: AMP produced a non-finite iterate at t=1\n"
        inst, _, seed = load_instance(saved)
        assert seed == 4
        assert np.array_equal(inst.A, make_instance(16, 32, 3, trial_rng(4, 0, 0))[0].A)

    def test_same_seed_identical_rows(self, capsys):
        argv = ("recover", "--n", "96", "--m", "48", "--k", "5",
                "--algo", "cbamp", "--seed", "11")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_gamma_clamp_reaches_cbamp(self, capsys):
        argv = ("recover", "--n", "64", "--m", "24", "--k", "6", "--algo", "cbamp",
                "--seed", "4")
        _, default, _ = run_cli(capsys, *argv)
        _, clamped, _ = run_cli(capsys, *argv, "--gamma-clamp", "0.45")
        assert parse_row(clamped) != parse_row(default)

    def test_instance_file_round_trip(self, capsys, tmp_path):
        saved = tmp_path / "inst.txt"
        code, out1, _ = run_cli(
            capsys, "recover", "--n", "64", "--m", "32", "--k", "4",
            "--algo", "cbamp", "--seed", "2", "--snr-db", "25",
            "--save-instance", str(saved),
        )
        assert code == 0 and saved.exists()
        code, out2, _ = run_cli(
            capsys, "recover", "--instance", str(saved), "--algo", "cbamp",
        )
        assert code == 0
        assert parse_row(out1)["nmse"] == parse_row(out2)["nmse"]

    def test_malformed_instance_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("M 3\nN x\n")
        code, _, err = run_cli(capsys, "recover", "--instance", str(bad),
                               "--algo", "cbamp")
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("m_line", ["M 1e400", "M 4.9"])
    def test_non_integer_dimension_reports_line(self, capsys, tmp_path, m_line):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"# header\n{m_line}\nN 5\n")
        code, _, err = run_cli(capsys, "recover", "--instance", str(bad),
                               "--algo", "cbamp")
        assert code == 1
        assert "bad instance file: line 2" in err

    @pytest.mark.parametrize("algo", ["amp", "cbamp", "cbossamp"])
    def test_nan_gamma0_is_usage_error(self, capsys, algo):
        code, out, err = run_cli(capsys, "recover", "--n", "16", "--m", "8", "--k", "2",
                                 "--gamma0", "nan", "--algo", algo)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "gamma0" in err
        assert "Traceback" not in err

    def test_nan_gamma0_in_instance_file_is_usage_error(self, capsys, tmp_path):
        saved = tmp_path / "inst.txt"
        run_cli(capsys, "recover", "--n", "8", "--m", "4", "--k", "2", "--algo", "cbamp",
                "--save-instance", str(saved))
        lines = saved.read_text().splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("gamma0"))
        lines[at] = "gamma0 " + " ".join(["nan"] + ["0.75"] * 7)
        saved.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "recover", "--instance", str(saved),
                                 "--algo", "cbamp")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "gamma0" in err

    @pytest.mark.parametrize("factor", ["nan", "1", "-5"])
    def test_divergence_factor_not_above_one_is_usage_error(self, capsys, monkeypatch,
                                                            factor):
        # a NaN factor would switch divergence detection off and exit 0
        monkeypatch.setattr(cli, "make_instance", forbidden_draw)
        code, out, err = run_cli(capsys, "recover", "--n", "64", "--m", "20", "--k", "12",
                                 "--algo", "amp", "--divergence-factor", factor)
        assert (code, out, err) == (1, "", "error: divergence_factor must exceed 1\n")

    def test_nan_in_instance_matrix_names_its_line(self, capsys, tmp_path, monkeypatch):
        # it used to surface only as a non-finite AMP iterate at t=1
        saved = tmp_path / "inst.txt"
        run_cli(capsys, "recover", "--n", "8", "--m", "4", "--k", "2", "--algo", "cbamp",
                "--save-instance", str(saved))
        lines = saved.read_text().splitlines()
        at = lines.index("A") + 2
        lines[at] = " ".join(["nan"] + lines[at].split()[1:])
        saved.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(cli, "run_algorithm", forbidden_solve)
        code, out, err = run_cli(capsys, "recover", "--instance", str(saved), "--algo", "amp")
        assert (code, out) == (1, "")
        assert err == (f"error: bad instance file: line {at + 1}: "
                       "non-finite value in matrix row 1\n")

    @pytest.mark.parametrize("field, value, message", [
        ("gamma0", "nan " + " ".join(["0.75"] * 7), "gamma0 entries must lie in [0, 1]"),
        ("sigma_x2", "-1", "sigma_x2 must be positive"),
    ])
    def test_bad_prior_field_in_instance_file_names_its_line(self, capsys, tmp_path, field,
                                                             value, message):
        saved = tmp_path / "inst.txt"
        run_cli(capsys, "recover", "--n", "8", "--m", "4", "--k", "2", "--algo", "cbamp",
                "--save-instance", str(saved))
        lines = saved.read_text().splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith(field + " "))
        lines[at] = f"{field} {value}"
        saved.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "recover", "--instance", str(saved),
                                 "--algo", "cbamp")
        assert (code, out) == (1, "")
        assert err == f"error: bad instance file: line {at + 1}: {message}\n"

    def test_non_finite_iterate_is_an_error_line(self, capsys, tmp_path):
        # an instance whose A overflows the residual at t=1
        saved = tmp_path / "inst.txt"
        inst, sigma_w2 = make_instance(16, 32, 3, trial_rng(0, 0, 0))
        save_instance(saved, replace(inst, A=1e300 * inst.A), sigma_w2, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(capsys, "recover", "--instance", str(saved),
                                     "--algo", "cbamp")
        assert code == 1 and out == ""
        assert err == "error: AMP produced a non-finite iterate at t=1\n"

    @pytest.mark.parametrize("flag, value", [
        ("n", "99"), ("m", "8"), ("k", "2"), ("snr-db", "5"), ("cell", "3"), ("trial", "1"),
        ("gamma0", "0.5"), ("sigma-x2", "2"), ("seed", "0"), ("save-instance", "b.txt"),
    ])
    def test_instance_excludes_each_generation_option(self, capsys, tmp_path, monkeypatch,
                                                      flag, value):
        saved, cfg = tmp_path / "a.txt", tmp_path / "cfg.ini"
        run_cli(capsys, "recover", "--n", "16", "--m", "8", "--k", "2", "--algo", "cbamp",
                "--save-instance", str(saved))
        monkeypatch.setattr(cli, "run_algorithm", forbidden_solve)
        if flag == "save-instance":
            value = str(tmp_path / value)
        cfg.write_text(f"[recover]\n{flag.replace('-', '_')} = {value}\n")
        for source in ([f"--{flag}", value], ["--config", str(cfg)]):
            code, out, err = run_cli(capsys, "recover", "--instance", str(saved),
                                     "--algo", "cbamp", *source)
            assert (code, out, err) == (1, "", f"error: --instance excludes --{flag}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "cfg.ini"]

    def test_instance_names_every_excluded_option_and_saves_nothing(self, capsys, tmp_path,
                                                                    monkeypatch):
        saved, other = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli(capsys, "recover", "--n", "16", "--m", "8", "--k", "2", "--algo", "cbamp",
                "--save-instance", str(saved))
        monkeypatch.setattr(cli, "run_algorithm", forbidden_solve)
        code, out, err = run_cli(capsys, "recover", "--instance", str(saved), "--algo", "cbamp",
                                 "--n", "99", "--save-instance", str(other))
        assert (code, out) == (1, "")
        assert err == "error: --instance excludes --n, --save-instance\n"
        assert not other.exists()

    def test_instance_row_prints_the_files_seed(self, capsys, tmp_path):
        saved = tmp_path / "inst.txt"
        run_cli(capsys, "recover", "--n", "16", "--m", "8", "--k", "2", "--algo", "cbamp",
                "--seed", "7", "--save-instance", str(saved))
        _, printed, _ = run_cli(capsys, "recover", "--instance", str(saved), "--algo", "cbamp")
        assert parse_row(printed)["seed"] == "7"
        inst, sigma_w2, _ = load_instance(saved)
        save_instance(saved, inst, sigma_w2)  # a file without a seed says -1
        _, printed, _ = run_cli(capsys, "recover", "--instance", str(saved), "--algo", "cbamp")
        assert parse_row(printed)["seed"] == ""

    def test_unknown_algo_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "recover", "--algo", "magic")
        assert code == 1

    def test_cell_and_trial_draw_the_sweep_instance(self, capsys, tmp_path):
        saved = tmp_path / "inst.txt"
        code, _, _ = run_cli(
            capsys, "recover", "--n", "32", "--m", "16", "--k", "3", "--algo", "cbamp",
            "--seed", "5", "--cell", "4", "--trial", "2", "--save-instance", str(saved),
        )
        assert code == 0
        inst, sigma_w2, seed = load_instance(saved)
        # trial 2 of cell 4, as the sweep's trial loop draws it
        cfg = GridConfig(n=32, trials=3, base_seed=5, algorithms=())
        (chunk,) = experiments._chunks(cfg, [(4, 16, 3, None)])
        draws, _ = experiments._solve_draws(cfg, chunk)
        drawn, drawn_sigma_w2 = draws[2]
        assert seed == 5 and sigma_w2 == drawn_sigma_w2
        for name in ("x_true", "w", "y"):
            for part in ("re", "im"):
                assert np.array_equal(getattr(getattr(inst, name), part),
                                      getattr(getattr(drawn, name), part))
        assert np.array_equal(inst.A, drawn.A)

    @pytest.mark.parametrize("flag", ["seed", "cell", "trial"])
    def test_negative_draw_number_names_its_flag(self, capsys, tmp_path, flag):
        saved = tmp_path / "inst.txt"
        code, out, err = run_cli(capsys, "recover", "--n", "16", "--m", "8", "--k", "2",
                                 "--algo", "cbamp", f"--{flag}", "-1",
                                 "--save-instance", str(saved))
        assert code == 1 and out == "" and not saved.exists()
        assert err == f"error: --{flag} must be nonnegative\n"

    def test_cell_and_trial_default_to_zero(self, capsys, tmp_path):
        argv = ("recover", "--n", "48", "--m", "24", "--k", "3", "--algo", "cbamp",
                "--seed", "6")
        _, default, _ = run_cli(capsys, *argv)
        _, explicit, _ = run_cli(capsys, *argv, "--cell", "0", "--trial", "0")
        _, other, _ = run_cli(capsys, *argv, "--trial", "1")
        assert default == explicit
        assert other != default
        # the rows say which instance they solved, the --out CSV too
        assert (parse_row(default)["cell"], parse_row(default)["trial"]) == ("0", "0")
        out, saved = tmp_path / "row.csv", tmp_path / "inst.txt"
        _, printed, _ = run_cli(capsys, *argv, "--cell", "2", "--trial", "1",
                                "--out", str(out), "--save-instance", str(saved))
        assert (parse_row(printed)["cell"], parse_row(printed)["trial"]) == ("2", "1")
        columns, rows, _ = read_csv(out)
        assert (rows[0][columns.index("cell")], rows[0][columns.index("trial")]) == ("2", "1")
        # a file's instance belongs to no cell or trial
        _, loaded, _ = run_cli(capsys, "recover", "--instance", str(saved), "--algo", "cbamp",
                               "--out", str(out))
        assert (parse_row(loaded)["cell"], parse_row(loaded)["trial"]) == ("", "")
        columns, rows, _ = read_csv(out)
        assert (rows[0][columns.index("cell")], rows[0][columns.index("trial")]) == ("", "")


class TestSweeps:
    def test_phase_transition_row_count_and_workers(self, capsys, tmp_path):
        base = ("phase-transition", "--n", "48", "--trials", "2",
                "--grid-points", "3", "--t-max", "30", "--seed", "9")
        out1 = tmp_path / "w1.csv"
        out2 = tmp_path / "w2.csv"
        code, _, _ = run_cli(capsys, *base, "--out", str(out1), "--workers", "1")
        assert code == 0
        code, _, _ = run_cli(capsys, *base, "--out", str(out2), "--workers", "2")
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        _, rows, meta = read_csv(out1)
        assert len(rows) == 3 * 3 * 3
        assert meta["base_seed"] == "9"

    def test_contour_emitted(self, capsys, tmp_path):
        out = tmp_path / "pt.csv"
        contour = tmp_path / "c.csv"
        code, _, _ = run_cli(
            capsys, "phase-transition", "--n", "48", "--trials", "2",
            "--grid-points", "3", "--t-max", "30",
            "--out", str(out), "--contour-out", str(contour),
        )
        assert code == 0 and contour.exists()
        _, _, meta = read_csv(contour)
        assert meta["kind"] == "contour"

    @pytest.mark.parametrize("command", ["phase-transition", "support-pt"])
    @pytest.mark.parametrize("level", ["1.5", "nan", "0", "-0.5"])
    def test_level_outside_unit_interval_rejected_before_any_solve(
            self, capsys, tmp_path, monkeypatch, command, level):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew an instance")

        monkeypatch.setattr(experiments, "make_instance", no_draw)
        out, contour = tmp_path / "pt.csv", tmp_path / "c.csv"
        code, printed, err = run_cli(
            capsys, command, "--n", "24", "--trials", "1", "--grid-points", "2",
            "--out", str(out), "--contour-out", str(contour), "--level", level,
        )
        assert code == 1 and "--level" in err and printed == ""
        assert not out.exists() and not contour.exists()

    @pytest.mark.parametrize("command", ["phase-transition", "support-pt", "nmse-sweep"])
    def test_repeated_algo_is_usage_error_before_any_draw(self, capsys, tmp_path,
                                                          monkeypatch, command):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew an instance")

        monkeypatch.setattr(experiments, "make_instance", no_draw)
        out = tmp_path / "sweep.csv"
        code, printed, err = run_cli(capsys, command, "--n", "24", "--trials", "2",
                                     "--algos", "amp,cbamp amp", "--out", str(out))
        assert (code, printed) == (1, "")
        assert err == "error: algorithm 'amp' given more than once\n"
        assert not out.exists()

    def test_unwritable_out_is_io_error(self, capsys):
        code, _, err = run_cli(
            capsys, "phase-transition", "--n", "48", "--trials", "1",
            "--grid-points", "2", "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 3

    def test_support_pt_runs(self, capsys, tmp_path):
        out = tmp_path / "spt.csv"
        code, _, _ = run_cli(
            capsys, "support-pt", "--n", "48", "--trials", "2",
            "--grid-points", "2", "--t-max", "30", "--out", str(out),
        )
        assert code == 0
        _, rows, _ = read_csv(out)
        assert len(rows) == 2 * 2 * 3  # three (algorithm, detector) configs

    def test_support_pt_follows_algos(self, capsys, tmp_path):
        out = tmp_path / "spt.csv"
        base = ("support-pt", "--n", "32", "--trials", "1", "--grid-points", "2",
                "--t-max", "20", "--out", str(out))
        code, _, _ = run_cli(capsys, *base, "--algos", "cbamp")
        assert code == 0
        columns, rows, meta = read_csv(out)
        assert len(rows) == 2 * 2
        pairs = {(r[columns.index("algorithm")], r[columns.index("detector")])
                 for r in rows}
        assert pairs == {("cbamp", "em")}
        assert meta["algorithms"] == "cbamp" and meta["detectors"] == "cbamp+em"
        out.unlink()
        code, _, err = run_cli(capsys, *base, "--algos", "amp")
        assert code == 1
        assert "pair" in err
        assert not out.exists()

    def test_nmse_sweep_with_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[nmse-sweep]\nn = 48\nk = 4\ntrials = 2\nm_list = 24\n"
            "snr_db_list = 20\nt_max = 30\n"
        )
        out = tmp_path / "nm.csv"
        code, _, _ = run_cli(capsys, "nmse-sweep", "--config", str(cfg),
                             "--out", str(out))
        assert code == 0
        _, rows, meta = read_csv(out)
        assert meta["n"] == "48" and meta["t_max"] == "30"
        assert len(rows) == 3

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[nmse-sweep]\nn = 48\nk = 4\ntrials = 2\n"
                       "m_list = 24\nsnr_db_list = 20\n")
        out = tmp_path / "nm.csv"
        code, _, _ = run_cli(capsys, "nmse-sweep", "--config", str(cfg),
                             "--trials", "3", "--out", str(out))
        assert code == 0
        _, _, meta = read_csv(out)
        assert meta["trials"] == "3"

    def test_paper_scale_preset(self, capsys, tmp_path):
        out = tmp_path / "pt.csv"
        code, _, _ = run_cli(
            capsys, "phase-transition", "--paper-scale", "--trials", "1",
            "--grid-points", "1", "--out", str(out),
        )
        assert code == 0
        _, _, meta = read_csv(out)
        assert meta["n"] == "1000" and meta["t_max"] == "100"

    def test_missing_out_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "phase-transition", "--n", "48")
        assert code == 1


class TestUsageErrors:
    # OUT stands for the output path; nothing may be drawn or written
    @pytest.mark.parametrize("argv, message", [
        (("nmse-sweep", "--m-list", "70 x", "--out", "OUT"), "bad int list '70 x'"),
        (("nmse-sweep", "--algos", ",", "--out", "OUT"), "empty --algos"),
        (("phase-transition", "--algos", ",", "--out", "OUT"), "empty --algos"),
        (("recover", "--n", "16", "--m", "8", "--k", "2", "--out", "OUT"),
         "--algo is required"),
        (("phase-transition", "--grid-points", "0", "--out", "OUT"),
         "bad grid specification"),
        (("phase-transition", "--grid-min", "0.9", "--grid-max", "0.1", "--out", "OUT"),
         "bad grid specification"),
        (("nmse-sweep", "--n", "48"), "--out is required for sweeps"),
    ])
    def test_exits_1_with_its_message_and_writes_nothing(self, capsys, tmp_path, monkeypatch,
                                                         argv, message):
        monkeypatch.setattr(experiments, "make_instance", forbidden_draw)
        monkeypatch.setattr(cli, "make_instance", forbidden_draw)
        argv = [str(tmp_path / "out.csv") if a == "OUT" else a for a in argv]
        code, printed, err = run_cli(capsys, *argv)
        assert (code, printed, err) == (1, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []


def test_import_leaves_the_quadrature_unloaded():
    # scipy.integrate is loaded by denoise_numeric, its one user, on its first call
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, csamp.cli\n"
            "print('scipy.integrate' in sys.modules)\n"
            "csamp.cli.denoise_numeric(1.0, csamp.cli.DenoiserParams(0.5, 0.5, 1.0))\n"
            "print('scipy.integrate' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["False", "True"]


class TestValidate:
    def test_grid_passes_with_real_denoiser(self, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        code, printed, _ = run_cli(
            capsys, "validate-denoiser", "--skip-oracle", "--out", str(out),
        )
        assert code == 0
        assert "denoiser grid ok" in printed
        _, rows, _ = read_csv(out)
        assert len(rows) == 50 * 4 * 4

    def test_skip_oracle_from_config_file(self, capsys, tmp_path):
        # with the oracle skipped its options are never read: trials = 0 passes
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[validate-denoiser]\nskip_oracle = true\ntrials = 0\n")
        code, printed, _ = run_cli(capsys, "validate-denoiser", "--config", str(cfg))
        assert code == 0
        assert "denoiser grid ok" in printed
        cfg.write_text("[validate-denoiser]\nskip_oracle = false\ntrials = 0\n")
        code, _, err = run_cli(capsys, "validate-denoiser", "--config", str(cfg))
        assert code == 1
        assert "trials" in err

    @pytest.mark.parametrize("tol", ["nan", "-1e-8"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_tol_is_usage_error_before_any_check(self, capsys, tmp_path, monkeypatch,
                                                     quad_calls, tol, source):
        # a NaN tol passed every grid, since max_diff > nan is never true
        monkeypatch.setattr(cli, "oracle_validation_rows", forbidden_solve)
        monkeypatch.setattr(cli, "denoiser_validation_rows", forbidden_solve)
        out = tmp_path / "grid.csv"
        if source == "flag":
            argv = [f"--tol={tol}"]
        else:
            cfg = tmp_path / "cfg.ini"
            cfg.write_text(f"[validate-denoiser]\ntol = {tol}\n")
            argv = ["--config", str(cfg)]
        code, printed, err = run_cli(capsys, "validate-denoiser", "--out", str(out), *argv)
        assert (code, printed, err) == (1, "", f"error: --tol {float(tol)} must be >= 0\n")
        assert quad_calls[0] == 0 and not out.exists()

    def test_grid_failure_exits_2_with_worst_points(self, capsys):
        code, _, err = run_cli(capsys, "validate-denoiser", "--skip-oracle", "--tol", "1e-20")
        assert code == 2
        lines = err.splitlines()
        assert lines[0].startswith("FAIL denoiser grid")
        assert len(lines) == 6 and all(line.startswith("  u=") for line in lines[1:])

    def test_oracle_violation_exits_2_naming_the_algorithm(self, capsys, monkeypatch):
        # cbamp's estimate replaced by the truth beats the oracle in both parts
        solve = experiments._solve_chunk

        def cbamp_knows_the_truth(name, instances, *args, **kwargs):
            outs = solve(name, instances, *args, **kwargs)
            return [replace(out, x_hat=inst.x_true) if name == "cbamp" else out
                    for inst, out in zip(instances, outs)]

        monkeypatch.setattr(experiments, "_solve_chunk", cbamp_knows_the_truth)
        code, _, err = run_cli(capsys, "validate-denoiser", "--trials", "40", "--seed", "1")
        assert code == 2
        violated = err.split("FAIL exact-MMSE bound violated:\n")[1].splitlines()
        assert [line.split(":")[0] for line in violated] == ["  cbamp re", "  cbamp im"]

    def test_corrupted_closed_form_detected(self):
        def corrupted(u, params):
            return denoise(u, params) + 1e-6

        _, max_diff = denoiser_validation_rows(denoise_fn=corrupted)
        assert max_diff > 1e-8

    def test_grid_rows_equal_per_point_reference(self):
        rows, max_diff = denoiser_validation_rows()
        reference = []
        for beta in cli.VALIDATION_BETAS:
            for gamma in cli.VALIDATION_GAMMAS:
                params = DenoiserParams(beta=beta, gamma=gamma, s2=cli.VALIDATION_S2)
                for u in cli.VALIDATION_U_GRID:
                    closed, numeric = denoise(u, params), denoise_numeric(u, params)
                    reference.append((u, beta, gamma, closed, numeric, abs(closed - numeric)))
        assert rows == reference
        assert max_diff == max(row[5] for row in reference)

    def test_grid_makes_one_quadrature_pair_per_beta_and_u(self, quad_calls):
        denoiser_validation_rows()
        assert quad_calls[0] == 400          # two per (beta, u): 4 betas x 50 u
        quad_calls[0] = 0
        out = denoise_numeric(0.5, DenoiserParams(beta=0.1, gamma=np.ones(4), s2=0.5))
        assert quad_calls[0] == 0 and np.all(out == 0.0)

    def test_oracle_validation_margins_nonnegative(self):
        rows, violations = oracle_validation_rows(trials=40, seed=1)
        assert violations == []
        assert all(row[2] >= row[3] - 1e-9 for row in rows)

    @pytest.mark.parametrize("noiseless", [True, False])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_oracle_rows_equal_per_trial_reference(self, noiseless, seed):
        trials, n, m, k = 15, 10, 6, 2
        snr = None if noiseless else 100.0
        algorithms = ("amp", "cbamp", "cbossamp")
        alg_sums = {(a, p): 0.0 for a in algorithms for p in ("re", "im")}
        oracle_sums = {"re": 0.0, "im": 0.0}
        for j in range(trials):
            inst, sigma_w2 = make_instance(m, n, k, trial_rng(seed, 0, j), snr=snr,
                                           noiseless=noiseless)
            for part in ("re", "im"):
                x_star = exact_mmse(inst.A, getattr(inst.y, part), inst.prior,
                                    sigma_w2 / 2.0)
                oracle_sums[part] += float(
                    np.sum((x_star - getattr(inst.x_true, part)) ** 2)) / n
            for algo in algorithms:
                out = run_algorithm(algo, inst, k, RecoverySettings())
                for part in ("re", "im"):
                    err = getattr(out.x_hat, part) - getattr(inst.x_true, part)
                    alg_sums[(algo, part)] += float(err @ err) / n
        expected = []
        for algo in algorithms:
            for part in ("re", "im"):
                alg_mse = alg_sums[(algo, part)] / trials
                oracle_mse = oracle_sums[part] / trials
                expected.append((algo, part, alg_mse, oracle_mse, alg_mse - oracle_mse))
        rows, _ = oracle_validation_rows(trials=trials, seed=seed, noiseless=noiseless)
        assert rows == expected

    def test_oracle_raises_recovery_error(self, monkeypatch):
        target = make_instance(6, 10, 2, trial_rng(2, 0, 4), snr=100.0)[0]
        solve = experiments._solve_chunk

        def failing_trial_4(name, instances, *args, **kwargs):
            outs = solve(name, instances, *args, **kwargs)
            return [RecoveryError("non-finite iterate")
                    if name == "cbamp" and np.array_equal(inst.A, target.A) else out
                    for inst, out in zip(instances, outs)]

        monkeypatch.setattr(experiments, "_solve_chunk", failing_trial_4)
        with pytest.raises(RecoveryError):
            oracle_validation_rows(trials=6, seed=2)

    @pytest.mark.parametrize("kwargs", [dict(trials=0), dict(trials=-1)])
    def test_oracle_entry_checks(self, monkeypatch, kwargs):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew an instance")

        monkeypatch.setattr(cli, "make_instance", no_draw)
        monkeypatch.setattr(experiments, "make_instance", no_draw)
        with pytest.raises(ValueError):
            oracle_validation_rows(**kwargs)

    def test_zero_trials_is_usage_error_before_the_grid(self, capsys, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("ran the denoiser grid")

        monkeypatch.setattr(cli, "denoiser_validation_rows", no_grid)
        code, out, err = run_cli(capsys, "validate-denoiser", "--trials", "0")
        assert code == 1
        assert err.startswith("error:") and "trials" in err
        assert out == ""


@pytest.mark.parametrize("command", ["recover", "phase-transition", "support-pt",
                                     "nmse-sweep", "validate-denoiser"])
def test_switch_choices_are_the_settings_names(command):
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    choices = {action.dest: action.choices for action in commands.choices[command]._actions}
    assert choices["likelihood_variant"] == LIKELIHOOD_VARIANTS
    assert choices["part_variance"] == PART_VARIANCES


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


class TestConfigFile:
    def test_paper_scale_from_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[phase-transition]\npaper_scale = true\ntrials = 1\n"
                       "grid_points = 1\nalgos = amp\n")
        out = tmp_path / "pt.csv"
        code, _, _ = run_cli(capsys, "phase-transition", "--config", str(cfg),
                             "--out", str(out))
        assert code == 0
        _, _, meta = read_csv(out)
        assert (meta["n"], meta["trials"], meta["t_max"]) == ("1000", "1", "100")

    @pytest.mark.parametrize("lines, flags", [
        ("paper_scale = true\ndesk_scale = true\n", ()),
        ("desk_scale = true\n", ("--paper-scale",)),
        ("paper_scale = yes\n", ("--desk-scale",)),
        ("", ("--paper-scale", "--desk-scale")),
    ])
    def test_both_presets_are_usage_error(self, capsys, tmp_path, lines, flags):
        cfg = tmp_path / "cfg.ini"
        # sized so that a sweep run by mistake ends quickly
        cfg.write_text("[support-pt]\ntrials = 1\ngrid_points = 1\nalgos = cbamp\n" + lines)
        out = tmp_path / "spt.csv"
        code, printed, err = run_cli(capsys, "support-pt", "--config", str(cfg), *flags,
                                     "--out", str(out))
        assert (code, printed) == (1, "") and not out.exists()
        assert err == "error: --paper-scale and --desk-scale are mutually exclusive\n"

    @pytest.mark.parametrize("key", ["trails", "sigma_x2", "config"])
    def test_unknown_key_is_usage_error(self, capsys, tmp_path, key):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[nmse-sweep]\nn = 32\nk = 2\nm_list = 16\nsnr_db_list = 20\n"
                       f"{key} = 1\n")
        out = tmp_path / "nm.csv"
        code, printed, err = run_cli(capsys, "nmse-sweep", "--config", str(cfg),
                                     "--out", str(out))
        assert (code, printed) == (1, "") and not out.exists()
        assert err == f"error: unknown key {key!r} in section [nmse-sweep] of {cfg}\n"

    @pytest.mark.parametrize("command, key, text, reason", [
        ("phase-transition", "t_max", "1.5", ""),
        ("phase-transition", "paper_scale", "maybe", ""),
        ("recover", "algo", "magic", ": choose from amp, cbamp, cbossamp"),
        ("validate-denoiser", "part_variance", "quarter", ": choose from half, full"),
    ])
    def test_bad_value_names_key_and_section(self, capsys, tmp_path, command, key, text,
                                             reason):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[{command}]\n{key} = {text}\n")
        code, printed, err = run_cli(capsys, command, "--config", str(cfg),
                                     "--out", str(tmp_path / "x.csv"))
        assert (code, printed) == (1, "")
        assert err == (f"error: bad value {text!r} for key {key!r} in section [{command}] "
                       f"of {cfg}{reason}\n")

    def test_bad_interpolation_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[nmse-sweep]\nout = a%b.csv\n")
        code, printed, err = run_cli(capsys, "nmse-sweep", "--config", str(cfg))
        assert (code, printed) == (1, "")
        assert err.startswith(f"error: bad config file {cfg}: '%' must be followed by")


def _option_cases():
    """(command, row, value): every row of every table, at one value other
    than its default and at the value each preset gives it."""
    cases = []
    for command, (_, rows, _) in cli._COMMANDS.items():
        names = {row[0] for row in rows}
        for row in rows:
            name, kind, default, choices, _ = row
            other = (next(c for c in reversed(choices) if c != default) if choices
                     else {int: 7, float: 0.375, str: "x y", bool: True}[kind])
            values = {other} | {p[name] for scale, p in cli._PRESETS.items()
                                if scale in names and name in p}
            cases += [(command, row, value) for value in sorted(values)]
    return cases


@pytest.mark.parametrize("command, row, value", _option_cases(),
                         ids=lambda v: v[0] if isinstance(v, tuple) else str(v))
def test_flag_file_and_preset_resolve_alike(tmp_path, command, row, value):
    name, kind, default, _, _ = row
    flag = "--" + name.replace("_", "-")
    cfg = tmp_path / "cfg.ini"

    def resolved(*argv, config=""):
        cfg.write_text(f"[{command}]\n{config}")
        args = cli.build_parser().parse_args([command, "--config", str(cfg), *argv])
        return cli._Options(args).get(name)

    text = "true" if kind is bool else str(value)
    assert resolved(*(flag,) if kind is bool else (flag, text)) == value
    assert resolved(config=f"{name} = {text}\n") == value
    assert resolved() == default
    for scale, preset in cli._PRESETS.items():
        if preset.get(name) == value:
            assert resolved("--" + scale.replace("_", "-")) == value
            assert resolved(config=f"{scale} = true\n") == value
