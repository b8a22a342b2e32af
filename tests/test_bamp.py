import numpy as np
import pytest

from csamp.bamp import bamp_recover, bamp_step, cbamp_recover
from csamp.denoiser import DenoiserParams, denoise, denoise_deriv
from csamp.experiments import trial_rng
from csamp.model import (
    ComplexVector,
    RecoveryError,
    RecoverySettings,
    gen_matrix,
    make_instance,
    nmse,
)


class TestBampRecover:
    def test_zero_measurement_fixed_point(self):
        A = gen_matrix(8, 16, np.random.default_rng(0))
        out = bamp_recover(A, np.zeros(8), 0.8, 0.5)
        assert np.all(out.x_hat == 0.0)
        assert out.converged and out.iterations == 1

    def test_dense_prior_matches_linear_mmse(self):
        # gamma=0 reduces the denoiser to the Wiener gain; in the
        # overdetermined noiseless regime the loop contracts geometrically
        # onto the least-squares = linear-MMSE solution
        rng = np.random.default_rng(0)
        A = gen_matrix(24, 12, rng)
        x = rng.standard_normal(12) * np.sqrt(0.5)
        y = A @ x
        out = bamp_recover(A, y, 0.0, 0.5, RecoverySettings(t_max=200, eps_tol=1e-12))
        direct, *_ = np.linalg.lstsq(A, y, rcond=None)
        err = float(np.sum((out.x_hat - direct) ** 2)) / float(direct @ direct)
        assert err < 1e-6

    def test_easy_regime_success_rate(self):
        # N=256, M=128, K=13, noiseless: at least 90% of 50 trials recover
        hits = 0
        for j in range(50):
            inst, _ = make_instance(128, 256, 13, trial_rng(21, 0, j))
            out = cbamp_recover(inst.A, inst.y, inst.prior)
            if nmse(out.x_hat, inst.x_true) < 1e-4:
                hits += 1
        assert hits >= 45

    def test_single_step_hand_computed(self):
        # 3x5 instance, one iteration against explicit formulas
        rng = np.random.default_rng(5)
        A = gen_matrix(3, 5, rng)
        y = rng.standard_normal(3)
        x = rng.standard_normal(5) * 0.2
        z = rng.standard_normal(3)
        gamma = np.full(5, 0.7)
        x_new, z_new, u, beta = bamp_step(A, y, x, z, gamma, 0.5, 1e-12)
        u_expected = x + A.T @ z
        np.testing.assert_allclose(u, u_expected, atol=1e-12)
        assert beta == pytest.approx(float(z @ z) / 3, abs=1e-15)
        params = DenoiserParams(beta=beta, gamma=gamma, s2=0.5)
        np.testing.assert_allclose(x_new, denoise(u_expected, params), atol=1e-12)
        onsager = float(np.sum(denoise_deriv(u_expected, params))) / 3
        np.testing.assert_allclose(z_new, y - A @ x_new + onsager * z, atol=1e-12)

    def test_onsager_coefficient_cross_module(self):
        # the residual correction equals (1/M) sum F'(u) exactly
        rng = np.random.default_rng(6)
        A = gen_matrix(10, 25, rng)
        y = rng.standard_normal(10)
        x = np.zeros(25)
        z = y.copy()
        gamma = np.full(25, 0.9)
        x_new, z_new, u, beta = bamp_step(A, y, x, z, gamma, 0.5, 1e-12)
        coeff = float(np.sum(denoise_deriv(u, DenoiserParams(beta=beta, gamma=gamma, s2=0.5)))) / 10
        np.testing.assert_allclose(z_new - (y - A @ x_new), coeff * z, atol=1e-13)

    def test_beta_monotone_on_convergent_noiseless_runs(self):
        for j in range(5):
            inst, _ = make_instance(128, 256, 13, trial_rng(31, 0, j))
            out = bamp_recover(inst.A, inst.y.re, 1 - 13 / 256, 0.5)
            initial_beta = float(inst.y.re @ inst.y.re) / 128
            assert out.converged
            assert out.beta <= initial_beta

    def test_beta_floor_respected(self):
        A = gen_matrix(8, 16, np.random.default_rng(1))
        out = bamp_recover(A, np.zeros(8), 0.5, 0.5)
        assert out.beta >= 1e-12

    @pytest.mark.parametrize("gamma0", [np.nan, 1.5, -0.1])
    def test_gamma_outside_unit_interval_rejected(self, gamma0):
        A = gen_matrix(8, 16, np.random.default_rng(1))
        with pytest.raises(ValueError, match="gamma"):
            bamp_recover(A, np.ones(8), gamma0, 0.5)


class TestComplexBamp:
    def test_purely_real_signal(self):
        rng = trial_rng(40, 0, 0)
        inst, _ = make_instance(128, 256, 13, rng)
        x_real = ComplexVector(inst.x_true.re, np.zeros(256))
        y = ComplexVector(inst.A @ x_real.re, inst.A @ x_real.im)
        out = cbamp_recover(inst.A, y, inst.prior)
        assert np.all(out.x_hat.im == 0.0)
        assert nmse(out.x_hat, x_real) < 1e-4

    def test_part_supports_can_differ(self):
        # the defect of independent per-part recovery: in a hard regime the
        # two parts settle on different supports (seed found by search)
        inst, _ = make_instance(40, 128, 14, trial_rng(7, 0, 0))
        out = cbamp_recover(inst.A, inst.y, inst.prior)
        supp_r = np.abs(out.x_hat.re) > 1e-3
        supp_i = np.abs(out.x_hat.im) > 1e-3
        assert not np.array_equal(supp_r, supp_i)

    def test_same_seed_identical_output(self):
        a_inst, _ = make_instance(32, 64, 5, trial_rng(3, 1, 4))
        b_inst, _ = make_instance(32, 64, 5, trial_rng(3, 1, 4))
        a = cbamp_recover(a_inst.A, a_inst.y, a_inst.prior)
        b = cbamp_recover(b_inst.A, b_inst.y, b_inst.prior)
        assert np.array_equal(a.x_hat.re, b.x_hat.re)
        assert np.array_equal(a.x_hat.im, b.x_hat.im)
        assert a.iterations == b.iterations

    def test_gamma_echoed_unchanged(self):
        inst, _ = make_instance(32, 64, 5, trial_rng(3, 1, 4))
        out = cbamp_recover(inst.A, inst.y, inst.prior)
        np.testing.assert_array_equal(out.gamma_r, inst.prior.gamma0_vector(64))
        np.testing.assert_array_equal(out.gamma_i, inst.prior.gamma0_vector(64))

    def test_output_shapes(self):
        inst, _ = make_instance(32, 64, 5, trial_rng(3, 1, 5))
        out = cbamp_recover(inst.A, inst.y, inst.prior)
        assert len(out.x_hat) == 64
        assert out.u_r.shape == (64,) and out.u_i.shape == (64,)
        assert out.beta_r > 0 and out.beta_i > 0

    def test_parts_match_single_part_runs(self):
        # the stacked loop gives each part what a single-part run gives it
        for j in range(10):
            inst, _ = make_instance(128, 256, 13, trial_rng(55, 0, j))
            out = cbamp_recover(inst.A, inst.y, inst.prior)
            gamma0 = inst.prior.gamma0_vector(256)
            part_r = bamp_recover(inst.A, inst.y.re, gamma0, inst.prior.s2)
            part_i = bamp_recover(inst.A, inst.y.im, gamma0, inst.prior.s2)
            assert out.iterations == max(part_r.iterations, part_i.iterations)
            assert out.converged == (part_r.converged and part_i.converged)
            assert out.diverged == (part_r.diverged or part_i.diverged)
            for got, part in ((out.x_hat.re, part_r), (out.x_hat.im, part_i)):
                np.testing.assert_allclose(got, part.x_hat, rtol=0, atol=1e-10)
            np.testing.assert_allclose(out.u_r, part_r.u, rtol=0, atol=1e-10)
            np.testing.assert_allclose(out.u_i, part_i.u, rtol=0, atol=1e-10)
            assert out.beta_r == pytest.approx(part_r.beta, rel=1e-10)
            assert out.beta_i == pytest.approx(part_i.beta, rel=1e-10)
            # each part's own count: one iteration fewer stops it unconverged
            for y_part, part in ((inst.y.re, part_r), (inst.y.im, part_i)):
                if part.iterations > 1:
                    short = bamp_recover(inst.A, y_part, gamma0, inst.prior.s2,
                                         RecoverySettings(t_max=part.iterations - 1))
                    assert not short.converged

    def test_zero_part_freezes_while_other_runs(self):
        inst, _ = make_instance(128, 256, 13, trial_rng(56, 0, 0))
        y = ComplexVector(inst.y.re, np.zeros(128))
        out = cbamp_recover(inst.A, y, inst.prior)
        part_r = bamp_recover(inst.A, inst.y.re, inst.prior.gamma0_vector(256),
                              inst.prior.s2)
        # the imaginary part stops at t=1 on the zero-data fixed point
        assert np.all(out.u_i == 0.0) and np.all(out.x_hat.im == 0.0)
        assert out.beta_i == RecoverySettings().beta_floor
        # the real part runs on and decides the joined flags
        assert part_r.iterations > 1
        assert out.iterations == part_r.iterations
        assert out.converged == part_r.converged
        assert out.diverged == part_r.diverged
        np.testing.assert_allclose(out.x_hat.re, part_r.x_hat, rtol=0, atol=1e-10)

    def test_non_finite_iterate_raises(self):
        # A large enough to overflow the residual at t=1, with data in both
        # parts and with data in the real part only
        inst, _ = make_instance(32, 64, 5, trial_rng(57, 0, 0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RecoveryError):
                cbamp_recover(1e300 * inst.A, inst.y, inst.prior)
            with pytest.raises(RecoveryError):
                cbamp_recover(1e300 * inst.A, ComplexVector(inst.y.re, np.zeros(32)),
                              inst.prior)
