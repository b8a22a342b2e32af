import math

import numpy as np
import pytest

from csamp.amp import AmpConfig, amp_recover, camp_recover, lambda_heuristic, soft_threshold
from csamp.experiments import trial_rng
from csamp.model import ComplexVector, RecoveryError, RecoverySettings, make_instance, nmse


class TestSoftThreshold:
    def test_basic_values(self):
        assert soft_threshold(2.0, 1.0) == 1.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(0.3, 0.0) == pytest.approx(0.3)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="^threshold must be nonnegative$"):
            soft_threshold(1.0, -0.1)

    def test_scale_covariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = float(rng.uniform(-5, 5))
            theta = float(rng.uniform(0, 3))
            c = float(rng.uniform(0.1, 10))
            assert soft_threshold(c * u, c * theta) == pytest.approx(
                c * soft_threshold(u, theta), abs=1e-12
            )

    def test_vectorized(self):
        u = np.array([-2.0, -0.5, 0.0, 0.4, 3.0])
        np.testing.assert_allclose(soft_threshold(u, 1.0), [-1.0, 0.0, 0.0, 0.0, 2.0])


class TestLambdaHeuristic:
    def test_k_one(self):
        assert lambda_heuristic(1) == pytest.approx(2.678)

    def test_k_twenty(self):
        expected = 2.678 * math.exp(-0.181 * math.log(20.0))
        assert lambda_heuristic(20) == pytest.approx(expected, rel=1e-12)
        assert lambda_heuristic(20) == pytest.approx(1.557, abs=5e-4)

    def test_monotone_decreasing(self):
        values = [lambda_heuristic(k) for k in (1, 2, 5, 20, 100)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="^K must be >= 1$"):
            lambda_heuristic(0)


class TestAmpRecover:
    def test_zero_measurement(self):
        rng = np.random.default_rng(0)
        inst, _ = make_instance(8, 16, 0, rng)
        out = amp_recover(inst.A, np.zeros(8), AmpConfig(lam=1.5))
        assert np.all(out.x_hat == 0.0)
        assert out.converged and out.iterations == 1

    def test_easy_regime_success_rate(self):
        # N=256, M=192, K=8, noiseless: recovery in at least 90% of 50 trials
        hits = 0
        for j in range(50):
            inst, _ = make_instance(192, 256, 8, trial_rng(123, 0, j))
            cfg = AmpConfig(lam=lambda_heuristic(8))
            out = camp_recover(inst.A, inst.y, cfg)
            if nmse(out.x_hat, inst.x_true) < 1e-4:
                hits += 1
        assert hits >= 45

    def test_deterministic(self):
        inst, _ = make_instance(20, 50, 5, trial_rng(9, 0, 0))
        cfg = AmpConfig(lam=lambda_heuristic(5))
        a = amp_recover(inst.A, inst.y.re, cfg)
        b = amp_recover(inst.A, inst.y.re, cfg)
        assert np.array_equal(a.x_hat, b.x_hat)
        assert a.iterations == b.iterations

    def test_huge_lambda_gives_zero(self):
        inst, _ = make_instance(20, 50, 5, trial_rng(9, 0, 1))
        out = amp_recover(inst.A, inst.y.re, AmpConfig(lam=1e12))
        assert np.all(out.x_hat == 0.0)
        assert out.iterations == 1

    def test_onsager_coefficient_is_active_set_fraction(self):
        # recompute one iteration by hand on a small instance
        inst, _ = make_instance(6, 12, 3, trial_rng(2, 0, 0))
        A, y = inst.A, inst.y.re
        lam = lambda_heuristic(3)
        x0 = np.zeros(12)
        z0 = y.copy()
        u = x0 + A.T @ z0
        theta = lam * np.sqrt(float(z0 @ z0) / 6)
        x1 = soft_threshold(u, theta)
        z1_expected = y - A @ x1 + (np.count_nonzero(x1) / 6) * z0
        out = amp_recover(A, y, AmpConfig(lam=lam, settings=RecoverySettings(t_max=1)))
        np.testing.assert_allclose(out.x_hat, x1, atol=1e-14)
        # one more step from (x1, z1) reproduces the returned u at t=2
        out2 = amp_recover(A, y, AmpConfig(lam=lam, settings=RecoverySettings(t_max=2)))
        np.testing.assert_allclose(out2.u, x1 + A.T @ z1_expected, atol=1e-12)

    def test_divergence_flagged_not_raised(self):
        inst, _ = make_instance(20, 80, 10, trial_rng(0, 0, 0))
        cfg = AmpConfig(lam=0.01, settings=RecoverySettings(divergence_factor=1e4))
        out = amp_recover(inst.A, inst.y.re, cfg)
        assert out.diverged and not out.converged


class TestComplexAmp:
    def test_purely_real_y_gives_zero_imaginary(self):
        rng = trial_rng(3, 0, 0)
        inst, _ = make_instance(64, 128, 6, rng)
        y = ComplexVector(inst.y.re, np.zeros(64))
        out = camp_recover(inst.A, y, AmpConfig(lam=lambda_heuristic(6)))
        assert np.all(out.x_hat.im == 0.0)

    def test_purely_imaginary_x_real_estimate_negligible(self):
        rng = trial_rng(4, 0, 0)
        inst, _ = make_instance(192, 256, 8, rng)
        y = ComplexVector(np.zeros(192), inst.y.im)
        x_true = ComplexVector(np.zeros(256), inst.x_true.im)
        out = camp_recover(inst.A, y, AmpConfig(lam=lambda_heuristic(8)))
        assert np.all(out.x_hat.re == 0.0)
        assert nmse(out.x_hat, x_true) < 1e-4

    def test_divergence_flag_propagates(self):
        inst, _ = make_instance(20, 80, 10, trial_rng(0, 0, 0))
        cfg = AmpConfig(lam=0.01, settings=RecoverySettings(divergence_factor=1e4))
        out = camp_recover(inst.A, inst.y, cfg)
        assert out.diverged and not out.converged

    def test_non_finite_iterate_raises(self):
        inst, _ = make_instance(20, 50, 5, trial_rng(9, 0, 2))
        cfg = AmpConfig(lam=lambda_heuristic(5))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RecoveryError):
                camp_recover(1e300 * inst.A, inst.y, cfg)
            with pytest.raises(RecoveryError):
                camp_recover(1e300 * inst.A, ComplexVector(np.zeros(20), inst.y.im), cfg)
