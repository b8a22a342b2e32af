import numpy as np
import pytest

from csamp.amp import _iterate, _stack
from csamp.bamp import _prior_rows, cbamp_recover
from csamp import bossamp
from csamp.bossamp import _exchange_step, cbossamp_recover, likelihood_update, prior_update
from csamp.denoiser import (DenoiserParams, _activity_log_odds, _prior_log_odds,
                             denoise_terms)
from csamp.experiments import _solve_chunk, trial_rng
from csamp.model import (
    GAMMA_CLAMP,
    ComplexVector,
    RecoveryError,
    RecoverySettings,
    make_instance,
    nmse,
)


class TestLikelihoodUpdate:
    def test_reference_value(self):
        # g=0.5, u=0, beta=1, s2=1: l = log(2)/2
        assert likelihood_update(0.0, 1.0, 0.5, 1.0) == pytest.approx(
            0.5 * np.log(2.0), rel=1e-12
        )

    def test_large_u_votes_active(self):
        values = [likelihood_update(u, 1.0, 0.5, 1.0) for u in (2.0, 5.0, 20.0, 100.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < -1000.0

    def test_even_in_u(self):
        for u in (0.3, 1.7, 4.0):
            assert likelihood_update(u, 0.7, 0.3, 0.5) == likelihood_update(
                -u, 0.7, 0.3, 0.5
            )

    def test_is_the_denoisers_zero_probability(self):
        # the exchange's gamma and the denoiser's 1 - pi are one quantity
        rng = np.random.default_rng(8)
        for beta in (1e-14, 1e-6, 0.01, 0.3, 1.0, 5.0):
            for gamma in (0.02, 0.5, 0.9, 0.999):
                s2 = float(rng.uniform(0.1, 2.0))
                u = rng.normal(0.0, 3.0 * np.sqrt(beta + s2), 50)
                pi = denoise_terms(u, DenoiserParams(beta=beta, gamma=gamma, s2=s2))[2]
                gamma_post = prior_update(likelihood_update(u, beta, gamma, s2))
                np.testing.assert_allclose(gamma_post, 1.0 - pi, rtol=0.0, atol=1e-12)

    def test_gamma_endpoints_clamped(self):
        # exact 0/1 priors stay finite through the clamp
        assert np.isfinite(likelihood_update(1.0, 1.0, 0.0, 1.0))
        assert np.isfinite(likelihood_update(1.0, 1.0, 1.0, 1.0))


class TestPriorUpdate:
    def test_midpoint(self):
        assert prior_update(0.0) == 0.5

    def test_inverts_log_odds(self):
        for g in (0.1, 0.5, 0.92):
            l = np.log(g / (1 - g))
            assert prior_update(l) == pytest.approx(g, rel=1e-12)

    def test_antisymmetry(self):
        for l in (0.0, 0.7, 3.0, 20.0):
            assert prior_update(-l) == pytest.approx(1.0 - prior_update(l), abs=1e-12)

    def test_clamped(self):
        assert prior_update(1000.0) == 1.0 - 1e-12
        assert prior_update(-1000.0) == 1e-12


class TestExchange:
    def test_loud_real_part_votes_imaginary_active(self):
        # |u| >= 5 sqrt(beta+s2) must push the other part's working gamma
        # below the prior
        beta, s2, gamma0 = 0.4, 0.5, 0.9
        u = 5.0 * np.sqrt(beta + s2)
        gamma_other = prior_update(likelihood_update(u, beta, gamma0, s2))
        assert gamma_other < gamma0

    def test_quiet_component_votes_zero(self):
        beta, s2, gamma0 = 0.4, 0.5, 0.5
        gamma_other = prior_update(likelihood_update(0.0, beta, gamma0, s2))
        assert gamma_other > gamma0


    @pytest.mark.parametrize("variant", ["own-beta", "printed-cross-beta"])
    def test_stopped_gamma_is_prior_update_of_the_other_part(self, variant):
        # a batch of three trials stopped at t=1: each part's working gamma
        # is, bit for bit, prior_update of the other part's likelihood
        settings = RecoverySettings(t_max=1, likelihood_variant=variant)
        instances = [make_instance(40, 80, 8, trial_rng(11, 0, j))[0] for j in range(3)]
        for inst, out in zip(instances, _solve_chunk("cbossamp", instances, 8, settings)):
            gamma0, s2 = inst.prior.gamma0_vector(80), inst.prior.s2
            cross = variant == "printed-cross-beta"
            beta_r, beta_i = (out.beta_i, out.beta_r) if cross else (out.beta_r, out.beta_i)
            assert np.array_equal(out.gamma_i,
                                  prior_update(likelihood_update(out.u_r, beta_r, gamma0, s2)))
            assert np.array_equal(out.gamma_r,
                                  prior_update(likelihood_update(out.u_i, beta_i, gamma0, s2)))

    @pytest.mark.parametrize("clamp", [GAMMA_CLAMP, 0.01])
    @pytest.mark.parametrize("t_max", [1, 3])
    def test_installed_log_odds_match_the_gamma_round_trip(self, clamp, t_max, monkeypatch):
        # the exchange installs the other part's -l clipped to the log-odds
        # of the clamped gammas: within 1e-9 of log((1 - g)/g) at
        # g = prior_update(l), and equal to it where the clamp binds.  The
        # a that step t_max keeps in its state reaches the denoiser at step
        # t_max + 1, whose log-odds argument is what the exchange installed.
        settings = RecoverySettings(t_max=t_max + 1, gamma_clamp=clamp)
        instances = [make_instance(40, 80, 8, trial_rng(12, 0, j))[0] for j in range(3)]
        problems = [_stack(inst.A, inst.y.re, inst.y.im) for inst in instances]
        _, consts = _prior_rows(problems, [inst.prior for inst in instances], clamp)
        step, mmse, states, installed = _exchange_step(settings), bossamp._mmse, [], []

        def recorded_step(u, beta, z, consts, state):
            out = step(u, beta, z, consts, state)
            states.append(out[3])
            return out

        def recorded_mmse(u, beta, s2, log_odds, *masks):
            installed.append(log_odds)
            return mmse(u, beta, s2, log_odds, *masks)

        monkeypatch.setattr(bossamp, "_mmse", recorded_mmse)
        _iterate(problems, recorded_step, settings, settings.beta_floor, consts, joint=True)
        a, log_odds = states[t_max - 1][0], installed[t_max]
        assert log_odds.shape == a.shape == (6, 80)  # every row still live
        round_trip = _prior_log_odds(prior_update(-a, clamp), clamp)
        round_trip = round_trip.reshape(-1, 2, 80)[:, ::-1].reshape(a.shape)
        lo, hi = _prior_log_odds(np.array([1.0 - clamp, clamp]), clamp)
        assert np.all((log_odds >= lo) & (log_odds <= hi))
        assert np.max(np.abs(log_odds - round_trip)) <= 1e-9
        bound = (log_odds == lo) | (log_odds == hi)
        assert bound.any() or clamp == GAMMA_CLAMP  # the wide clamp binds
        assert np.array_equal(log_odds[bound], round_trip[bound])

    @pytest.mark.parametrize("switches", [
        {},
        {"likelihood_variant": "printed-cross-beta"},
        {"part_variance": "full"},
        {"likelihood_variant": "printed-cross-beta", "part_variance": "full"},
        {"beta_floor": 1e-14},
    ])
    def test_state_log_odds_equal_their_own_kernel_call(self, switches):
        # at the default switches the exchange forms a from the denoiser's
        # channel terms; at any other setting from a call of its own.  Either
        # way a is, bit for bit, the kernel at the setting's own beta and
        # slab variance: the prior's sigma_x2 under "full", its s2 under
        # "half".  sigma_x2 = 0.3 makes s2 = 0.15, so "full" is checked at a
        # slab variance other than 2 * 0.5 = 1.
        settings = RecoverySettings(t_max=12, **switches)
        for sigma_x2 in (1.0, 0.3):
            instances = [make_instance(40, 80, 8, trial_rng(13, 0, j), sigma_x2=sigma_x2)[0]
                         for j in range(3)]
            problems = [_stack(inst.A, inst.y.re, inst.y.im) for inst in instances]
            _, consts = _prior_rows(problems, [inst.prior for inst in instances],
                                    settings.gamma_clamp)
            prior = instances[0].prior
            slab = prior.sigma_x2 if settings.part_variance == "full" else prior.s2
            step, steps = _exchange_step(settings), []

            def recorded_step(u, beta, z, consts, state):
                out = step(u, beta, z, consts, state)
                steps.append((u, beta, consts, out[3][0]))
                return out

            _iterate(problems, recorded_step, settings, settings.beta_floor, consts, joint=True)
            assert len(steps) > 2
            for u, beta, (_, log_prior_odds, _, _), a in steps:
                if settings.likelihood_variant == "printed-cross-beta":
                    beta = bossamp._swap(beta).reshape(-1)
                expected = _activity_log_odds(u * u, beta[:, None], slab, log_prior_odds)[0]
                assert np.array_equal(a, expected)


class TestCbossampRecover:
    def test_zero_measurement(self):
        inst, _ = make_instance(8, 16, 0, trial_rng(0, 0, 0))
        y = ComplexVector.zeros(8)
        out = cbossamp_recover(inst.A, y, inst.prior)
        assert out.x_hat.norm_sq() == 0.0
        assert out.converged and out.iterations == 1
        np.testing.assert_array_equal(out.gamma_r, inst.prior.gamma0_vector(16))

    @pytest.mark.parametrize("solve", [cbamp_recover, cbossamp_recover])
    def test_zero_data_with_wrong_y_length_rejected(self, solve):
        # a problem without data runs the loop like any other, shape check first
        inst, _ = make_instance(8, 16, 0, trial_rng(0, 0, 0))
        with pytest.raises(ValueError, match="y length must equal M"):
            solve(inst.A, ComplexVector.zeros(9), inst.prior)

    @pytest.mark.parametrize("solve", [cbamp_recover, cbossamp_recover])
    def test_zero_data_with_nan_in_a_raises(self, solve):
        # without data the loop still multiplies by A, so a NaN in A surfaces
        inst, _ = make_instance(8, 16, 2, trial_rng(0, 0, 0))
        A = inst.A.copy()
        A[3, 5] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(RecoveryError, match="t=1"):
            solve(A, ComplexVector.zeros(8), inst.prior)

    def test_easy_regime_and_iteration_parity(self):
        # N=256, M=128, K=13 noiseless: >=90% success; iteration count at or
        # below cbamp's on at least 60% of shared seeds
        hits = 0
        no_slower = 0
        for j in range(50):
            inst, _ = make_instance(128, 256, 13, trial_rng(77, 0, j))
            boss = cbossamp_recover(inst.A, inst.y, inst.prior)
            bamp = cbamp_recover(inst.A, inst.y, inst.prior)
            if nmse(boss.x_hat, inst.x_true) < 1e-4:
                hits += 1
            if boss.iterations <= bamp.iterations:
                no_slower += 1
        assert hits >= 45
        assert no_slower >= 30

    def test_exchange_extends_success_region(self):
        # the joint-sparsity coupling recovers where independent chains fail
        # (N=256, K=20: cbamp's transition sits near M~54, cbossamp's far lower)
        boss_hits = 0
        bamp_hits = 0
        for j in range(25):
            inst, _ = make_instance(48, 256, 20, trial_rng(13, 0, j))
            boss = cbossamp_recover(inst.A, inst.y, inst.prior)
            bamp = cbamp_recover(inst.A, inst.y, inst.prior)
            boss_hits += nmse(boss.x_hat, inst.x_true) < 1e-4
            bamp_hits += nmse(bamp.x_hat, inst.x_true) < 1e-4
        assert boss_hits >= bamp_hits + 10

    def test_exchange_disabled_reduces_to_cbamp(self):
        for j in range(5):
            inst, _ = make_instance(32, 64, 6, trial_rng(11, 0, j))
            a = cbamp_recover(inst.A, inst.y, inst.prior)
            b = cbossamp_recover(inst.A, inst.y, inst.prior, exchange=False)
            assert np.array_equal(a.x_hat.re, b.x_hat.re)
            assert np.array_equal(a.x_hat.im, b.x_hat.im)
            assert np.array_equal(a.u_r, b.u_r)
            assert np.array_equal(a.u_i, b.u_i)
            assert a.beta_r == b.beta_r and a.beta_i == b.beta_i
            assert a.iterations == b.iterations
            assert a.converged == b.converged and a.diverged == b.diverged

    def test_swap_symmetry(self):
        inst, _ = make_instance(40, 80, 8, trial_rng(5, 0, 0))
        out = cbossamp_recover(inst.A, inst.y, inst.prior)
        swapped = cbossamp_recover(
            inst.A, ComplexVector(inst.y.im, inst.y.re), inst.prior
        )
        assert np.array_equal(out.x_hat.re, swapped.x_hat.im)
        assert np.array_equal(out.x_hat.im, swapped.x_hat.re)
        assert np.array_equal(out.gamma_r, swapped.gamma_i)
        assert out.beta_r == swapped.beta_i

    def test_gamma_stays_clamped_every_iteration(self):
        inst, _ = make_instance(40, 80, 8, trial_rng(5, 0, 1))
        for t_cap in range(1, 6):
            st = RecoverySettings(t_max=t_cap)
            out = cbossamp_recover(inst.A, inst.y, inst.prior, st)
            for g in (out.gamma_r, out.gamma_i):
                assert np.all(g >= 1e-12) and np.all(g <= 1.0 - 1e-12)

    def test_variants_run_and_differ_only_in_gamma_path(self):
        inst, _ = make_instance(48, 96, 10, trial_rng(6, 0, 0))
        default = cbossamp_recover(inst.A, inst.y, inst.prior)
        crossed = cbossamp_recover(
            inst.A, inst.y, inst.prior,
            RecoverySettings(likelihood_variant="printed-cross-beta"),
        )
        full = cbossamp_recover(
            inst.A, inst.y, inst.prior, RecoverySettings(part_variance="full")
        )
        for out in (default, crossed, full):
            assert nmse(out.x_hat, inst.x_true) < 1e-3

    def test_same_seed_identical(self):
        a_inst, _ = make_instance(40, 80, 8, trial_rng(5, 0, 2))
        b_inst, _ = make_instance(40, 80, 8, trial_rng(5, 0, 2))
        a = cbossamp_recover(a_inst.A, a_inst.y, a_inst.prior)
        b = cbossamp_recover(b_inst.A, b_inst.y, b_inst.prior)
        assert np.array_equal(a.x_hat.re, b.x_hat.re)
        assert a.iterations == b.iterations

    @pytest.mark.parametrize("m, n, k, snr, seed, point, trial", [
        (70, 500, 20, 1e4, 707, 3, 95),
        (70, 500, 20, 1e4, 707, 3, 101),
        (70, 500, 20, 1e4, 707, 3, 136),
        (77, 256, 20, None, 606, 0, 52),
    ])
    def test_exchange_solves_what_cbamp_solves(self, m, n, k, snr, seed, point, trial):
        # draws of the criterion-7 SNR sweep (40 dB, M=70) and of criterion 6
        # on which the coupled chains once oscillated without converging
        # while the independent chains recovered the signal
        inst, _ = make_instance(m, n, k, trial_rng(seed, point, trial),
                                snr=snr, noiseless=snr is None)
        tol = 1e-4 if snr is None else 1e-2
        bamp = cbamp_recover(inst.A, inst.y, inst.prior)
        boss = cbossamp_recover(inst.A, inst.y, inst.prior)
        assert nmse(bamp.x_hat, inst.x_true) < tol
        assert nmse(boss.x_hat, inst.x_true) < tol

    def test_non_finite_iterate_raises(self):
        inst, _ = make_instance(32, 64, 5, trial_rng(58, 0, 0))
        for y in (inst.y, ComplexVector(inst.y.re, np.zeros(32))):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RecoveryError):
                cbossamp_recover(1e300 * inst.A, y, inst.prior)
