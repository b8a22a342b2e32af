import warnings

import numpy as np
import pytest

from csamp.model import (
    BernoulliGaussianPrior,
    ComplexVector,
    InstanceFormatError,
    ProblemInstance,
    RecoverySettings,
    SIGN_DRAWS,
    _noise_for,
    gen_matrix,
    gen_signal_exact_k,
    load_instance,
    make_instance,
    nmse,
    save_instance,
)


class TestGenMatrix:
    def test_entries_are_plus_minus_half_for_m4(self):
        A = gen_matrix(4, 8, np.random.default_rng(0))
        assert A.shape == (4, 8)
        assert set(np.unique(A)) <= {-0.5, 0.5}

    def test_column_norms_exactly_one(self):
        A = gen_matrix(37, 120, np.random.default_rng(1))
        np.testing.assert_allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-12)

    def test_deterministic_given_seed(self):
        a = gen_matrix(16, 40, np.random.default_rng(42))
        b = gen_matrix(16, 40, np.random.default_rng(42))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("m, n", [
        (4, 8),                                          # one block
        (2 * (SIGN_DRAWS // 1000), 1000),                # several full blocks
        (2 * (SIGN_DRAWS // 1000) + 11, 1000),           # a partial last block
        (3, SIGN_DRAWS + 1),                             # one row per block
        (7, 9),                                          # odd M*N, one block
        (SIGN_DRAWS // 1001 + 1, 1001),                  # odd M*N, a partial block
    ])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_blocks_draw_the_one_call_bits(self, m, n, seed):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        A = gen_matrix(m, n, ours)
        expected = (ref.integers(0, 2, (m, n)) * 2 - 1) / np.sqrt(m)
        assert A.tobytes() == expected.tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state
        assert ours.integers(0, 2, 5).tobytes() == ref.integers(0, 2, 5).tobytes()
        assert ours.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            gen_matrix(0, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gen_matrix(5, 0, np.random.default_rng(0))


class TestGenSignal:
    def test_exact_k_zero_support(self):
        x = gen_signal_exact_k(30, 0, 1.0, np.random.default_rng(0))
        assert x.norm_sq() == 0.0

    def test_exact_k_full_support_part_variance(self):
        n = 20000
        x = gen_signal_exact_k(n, n, 1.0, np.random.default_rng(3))
        assert np.all((x.re != 0) | (x.im != 0))
        # per-part variance sigma_x2/2; sample var of N=2e4 draws is tight
        assert abs(np.var(x.re) - 0.5) < 0.03
        assert abs(np.var(x.im) - 0.5) < 0.03

    def test_parts_share_support(self):
        x = gen_signal_exact_k(500, 60, 2.0, np.random.default_rng(5))
        assert np.array_equal(x.re != 0, x.im != 0)
        assert np.count_nonzero(x.re) == 60

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            gen_signal_exact_k(4, 5, 1.0, np.random.default_rng(0))


class TestCalibrateNoise:
    def test_noiseless_flag(self):
        inst, sw2 = make_instance(5, 9, 3, np.random.default_rng(0), snr=10.0,
                                  noiseless=True)
        assert inst.w.norm_sq() == 0.0 and sw2 == 0.0

    def test_unit_snr_power(self):
        # sigma_w2 = ||Ax||^2 / (M snr), from the drawn (A, x)
        for snr in (1.0, 5.0):
            inst, sw2 = make_instance(8, 16, 4, np.random.default_rng(1), snr=snr,
                                      noiseless=False)
            ax = inst.A @ inst.x_true.re, inst.A @ inst.x_true.im
            energy = float(ax[0] @ ax[0] + ax[1] @ ax[1])
            assert sw2 == pytest.approx(energy / (8 * snr), rel=1e-12)

    def test_noise_energy_concentrates(self):
        # 1e4 draws at the sigma_w2 fixed by (A, x): mean ||w||^2 / M within 5%
        rng = np.random.default_rng(2)
        A = gen_matrix(32, 64, rng)
        x = gen_signal_exact_k(64, 10, 1.0, rng)
        total = 0.0
        sw2 = None
        for _ in range(10_000):
            w, sw2 = _noise_for(A @ x.re, A @ x.im, 5.0, rng)
            total += w.norm_sq() / 32
        assert abs(total / 10_000 - sw2) < 0.05 * sw2

    def test_rejects_bad_inputs(self):
        for snr in (0.0, -1.0):
            with pytest.raises(ValueError, match="snr"):
                make_instance(5, 9, 3, np.random.default_rng(0), snr=snr, noiseless=False)
        with pytest.raises(ValueError, match="Ax is zero"):
            make_instance(5, 9, 0, np.random.default_rng(0), snr=1.0, noiseless=False)


class TestNmse:
    def test_trivial_identities(self):
        x = gen_signal_exact_k(20, 5, 1.0, np.random.default_rng(0))
        zero = ComplexVector.zeros(20)
        double = ComplexVector(2 * x.re, 2 * x.im)
        assert nmse(x, x) == 0.0
        assert nmse(zero, x) == pytest.approx(1.0, rel=1e-14)
        assert nmse(double, x) == pytest.approx(1.0, rel=1e-14)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            nmse(ComplexVector.zeros(5), ComplexVector.zeros(5))


class TestInstances:
    def test_self_consistency(self):
        inst, sw2 = make_instance(12, 30, 5, np.random.default_rng(8),
                                  snr=10.0, noiseless=False)
        assert inst.residual_norm() <= 1e-12
        assert sw2 > 0

    def test_default_gamma0_matches_activity(self):
        inst, _ = make_instance(10, 40, 8, np.random.default_rng(0))
        np.testing.assert_allclose(inst.prior.gamma0_vector(40), 1 - 8 / 40)

    def test_generation_reproducible(self):
        a, _ = make_instance(12, 30, 5, np.random.default_rng(8))
        b, _ = make_instance(12, 30, 5, np.random.default_rng(8))
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.x_true.re, b.x_true.re)
        assert np.array_equal(a.y.im, b.y.im)

    @pytest.mark.parametrize("sigma_x2", [0.0, -1.0, np.nan])
    def test_sigma_x2_checked_before_any_draw(self, sigma_x2):
        # rejected at entry: no warning from the signal draw, no draw at all
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sigma_x2"):
                make_instance(6, 12, 3, rng, sigma_x2=sigma_x2)
        assert rng.bit_generator.state == state

    def test_dimension_validation(self):
        A = gen_matrix(4, 6, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ProblemInstance(A=A, x_true=ComplexVector.zeros(5),
                            w=ComplexVector.zeros(4), y=ComplexVector.zeros(4),
                            prior=BernoulliGaussianPrior(gamma0=0.5))


class TestSettingsAndPrior:
    def test_settings_validation(self):
        with pytest.raises(ValueError):
            RecoverySettings(t_max=0)
        with pytest.raises(ValueError):
            RecoverySettings(eps_tol=0.0)
        with pytest.raises(ValueError):
            RecoverySettings(gamma_clamp=0.6)
        with pytest.raises(ValueError):
            RecoverySettings(likelihood_variant="nope")
        # a NaN factor would make every limit NaN and switch divergence off
        for factor in (1.0, np.nan):
            with pytest.raises(ValueError, match="divergence_factor must exceed 1"):
                RecoverySettings(divergence_factor=factor)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            BernoulliGaussianPrior(gamma0=1.5)
        for gamma0 in (np.nan, [0.2, np.nan]):
            with pytest.raises(ValueError, match="gamma0"):
                BernoulliGaussianPrior(gamma0=gamma0)
        with pytest.raises(ValueError):
            BernoulliGaussianPrior(gamma0=0.5, sigma_x2=0.0)

    def test_prior_broadcast(self):
        prior = BernoulliGaussianPrior(gamma0=0.25)
        np.testing.assert_array_equal(prior.gamma0_vector(3), [0.25, 0.25, 0.25])
        vec = BernoulliGaussianPrior(gamma0=[0.1, 0.9])
        with pytest.raises(ValueError):
            vec.gamma0_vector(3)


class TestInstanceFiles:
    def test_round_trip(self, tmp_path):
        inst, sw2 = make_instance(6, 10, 3, np.random.default_rng(5),
                                  snr=20.0, noiseless=False)
        path = tmp_path / "inst.txt"
        save_instance(path, inst, sw2, seed=5)
        loaded, loaded_sw2, seed = load_instance(path)
        assert seed == 5
        assert loaded_sw2 == sw2
        assert np.array_equal(loaded.A, inst.A)
        assert np.array_equal(loaded.x_true.re, inst.x_true.re)
        assert np.array_equal(loaded.w.im, inst.w.im)
        assert np.array_equal(loaded.y.re, inst.y.re)
        np.testing.assert_array_equal(loaded.prior.gamma0, inst.prior.gamma0_vector(10))

    def test_malformed_reports_line(self, tmp_path):
        inst, _ = make_instance(3, 5, 2, np.random.default_rng(0))
        path = tmp_path / "inst.txt"
        save_instance(path, inst, 0.0, seed=0)
        lines = path.read_text().splitlines()
        lines[9] = "0.5 not-a-number"  # inside the matrix block
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceFormatError) as err:
            load_instance(bad)
        assert err.value.line_no == 10

    @pytest.mark.parametrize("line", ["M 1e400", "M 4.9", "N 5.0", "seed 0.5", "N 0"])
    def test_integer_fields_must_be_integers(self, tmp_path, line):
        inst, _ = make_instance(3, 5, 2, np.random.default_rng(0))
        path = tmp_path / "inst.txt"
        save_instance(path, inst, 0.0, seed=0)
        lines = path.read_text().splitlines()
        at = next(i for i, l in enumerate(lines) if l.split()[0] == line.split()[0])
        lines[at] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceFormatError) as err:
            load_instance(path)
        assert err.value.line_no == at + 1

    def test_nan_gamma0_rejected(self, tmp_path):
        inst, _ = make_instance(3, 5, 2, np.random.default_rng(0))
        path = tmp_path / "inst.txt"
        save_instance(path, inst, 0.0, seed=0)
        lines = path.read_text().splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("gamma0"))
        lines[at] = "gamma0 0.6 nan 0.6 0.6 0.6"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="gamma0"):
            load_instance(path)

    @pytest.mark.parametrize("line, message", [
        ("gamma0 0.6 nan 0.6 0.6 0.6", "gamma0 entries must lie in"),
        ("gamma0 0.6 0.6 1.5 0.6 0.6", "gamma0 entries must lie in"),
        ("sigma_x2 -1", "sigma_x2 must be positive"),
        ("sigma_x2 nan", "sigma_x2 must be positive"),
    ])
    def test_bad_prior_field_reports_its_line(self, tmp_path, line, message):
        inst, _ = make_instance(3, 5, 2, np.random.default_rng(0))
        path = tmp_path / "inst.txt"
        save_instance(path, inst, 0.0, seed=0)
        lines = path.read_text().splitlines()
        at = next(i for i, l in enumerate(lines) if l.split()[0] == line.split()[0])
        lines[at] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceFormatError, match=message) as err:
            load_instance(path)
        assert err.value.line_no == at + 1

    # (the line to replace, by its first token and an offset; its
    # replacement; the message), in the file of a (3, 5) instance
    @pytest.mark.parametrize("first, line, message", [
        ("sigma_w2", "sigma_w2", "expected 'sigma_w2 <value>'"),
        ("sigma_w2", "sigma_w2 -1", "sigma_w2 must be finite and >= 0"),
        ("sigma_w2", "sigma_w2 nan", "sigma_w2 must be finite and >= 0"),
        ("sigma_w2", "sigma_w2 inf", "sigma_w2 must be finite and >= 0"),
        ("gamma0", "gamma0 0.6 0.6 0.6 0.6", "expected 'gamma0' with 5 values"),
        ("gamma0", "gamma0 0.6 0.6 x 0.6 0.6", "bad numeric value in gamma0"),
        ("x", "z", "expected section marker 'x'"),
        ("A", "0.5 0.5 0.5 0.5 0.5", "expected section marker 'A'"),
        ("A+1", "0.5 0.5 x 0.5 0.5", "bad numeric value in matrix row 0"),
        ("A+1", "0.5 0.5 nan 0.5 0.5", "non-finite value in matrix row 0"),
        ("A+3", "0.5 0.5 0.5 0.5 -inf", "non-finite value in matrix row 2"),
        ("x+2", "0.0 nan", "non-finite value in x[1]"),
        ("w+1", "inf 0.0", "non-finite value in w[0]"),
        ("y+3", "0.0 -inf", "non-finite value in y[2]"),
    ])
    def test_each_malformed_line_names_its_fault_and_number(self, tmp_path, first, line,
                                                            message):
        inst, _ = make_instance(3, 5, 2, np.random.default_rng(0), snr=10.0,
                                noiseless=False)
        path = tmp_path / "inst.txt"
        save_instance(path, inst, 0.1, seed=0)
        lines = path.read_text().splitlines()
        key, _, offset = first.partition("+")
        at = next(i for i, l in enumerate(lines) if l.split()[0] == key) + int(offset or 0)
        lines[at] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceFormatError) as err:
            load_instance(path)
        assert str(err.value) == f"line {at + 1}: {message}"
        assert err.value.line_no == at + 1

    def test_trailing_content_names_its_line(self, tmp_path):
        inst, _ = make_instance(3, 5, 2, np.random.default_rng(0))
        path = tmp_path / "inst.txt"
        save_instance(path, inst, 0.0, seed=0)
        lines = path.read_text().splitlines() + ["", "# a comment", "0.0 0.0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceFormatError) as err:
            load_instance(path)
        assert str(err.value) == f"line {len(lines)}: trailing content after sections"
        assert err.value.line_no == len(lines)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("M 3\nN 5\n")
        with pytest.raises(InstanceFormatError):
            load_instance(path)
