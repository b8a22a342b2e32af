import pytest

from csamp.cli import (
    denoiser_validation_rows,
    main,
    oracle_validation_rows,
)
from csamp.denoiser import denoise
from csamp.experiments import read_csv


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

    def test_same_seed_identical_rows(self, capsys):
        argv = ("recover", "--n", "96", "--m", "48", "--k", "5",
                "--algo", "cbamp", "--seed", "11")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

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

    def test_unknown_algo_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "recover", "--algo", "magic")
        assert code == 1


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

    def test_corrupted_closed_form_detected(self):
        def corrupted(u, params):
            return denoise(u, params) + 1e-6

        _, max_diff = denoiser_validation_rows(denoise_fn=corrupted)
        assert max_diff > 1e-8

    def test_oracle_validation_margins_nonnegative(self):
        rows, violations = oracle_validation_rows(trials=40, seed=1)
        assert violations == []
        assert all(row[2] >= row[3] - 1e-9 for row in rows)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
