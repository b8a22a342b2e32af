import numpy as np
import pytest
from scipy.integrate import dblquad, quad

import csamp.denoiser as denoiser
from csamp.bamp import _mmse, _mmse_rows
from csamp.cli import VALIDATION_BETAS, VALIDATION_GAMMAS, VALIDATION_S2, VALIDATION_U_GRID
from csamp.denoiser import (
    DenoiserParams,
    denoise,
    denoise_deriv,
    denoise_numeric,
    denoise_terms,
    exact_mmse,
)
from csamp.model import GAMMA_CLAMP, BernoulliGaussianPrior, gen_matrix


def params_grid():
    return [
        DenoiserParams(beta=beta, gamma=gamma, s2=s2)
        for beta in (0.01, 0.1, 1.0, 5.0)
        for gamma in (0.05, 0.5, 0.95)
        for s2 in (0.5, 2.0)
    ]


class TestClosedForm:
    def test_all_mass_at_zero(self):
        p = DenoiserParams(beta=0.3, gamma=1.0, s2=0.5)
        for u in (-4.0, -0.5, 0.0, 2.0, 10.0):
            assert denoise(u, p) == 0.0

    def test_dense_prior_is_wiener_gain(self):
        p = DenoiserParams(beta=0.2, gamma=0.0, s2=0.5)
        gain = 0.5 / 0.7
        for u in (-3.0, 0.7, 5.0):
            assert denoise(u, p) == pytest.approx(gain * u, rel=1e-14)

    def test_zero_input(self):
        for p in params_grid():
            assert denoise(0.0, p) == 0.0

    def test_matches_quadrature_spot(self):
        p = DenoiserParams(beta=0.1, gamma=0.5, s2=0.5)
        assert abs(denoise(1.0, p) - denoise_numeric(1.0, p)) <= 1e-8

    def test_matches_quadrature_grid(self):
        for p in params_grid():
            for u in (-2.5, -0.8, 0.3, 1.9):
                assert abs(denoise(u, p) - denoise_numeric(u, p)) <= 1e-8

    def test_rejects_non_finite(self):
        p = DenoiserParams(beta=0.1, gamma=0.5, s2=0.5)
        with pytest.raises(ValueError):
            denoise(np.inf, p)
        with pytest.raises(ValueError):
            denoise_deriv(np.nan, p)

    def test_vectorized_matches_scalar(self):
        p = DenoiserParams(beta=0.2, gamma=0.7, s2=1.0)
        u = np.linspace(-3, 3, 11)
        vec = denoise(u, p)
        for i, ui in enumerate(u):
            assert vec[i] == denoise(float(ui), p)

    def test_per_component_gamma(self):
        u = np.array([1.0, 1.0])
        p = DenoiserParams(beta=0.2, gamma=np.array([0.1, 0.9]), s2=1.0)
        out = denoise(u, p)
        assert abs(out[0]) > abs(out[1])


class TestLoopKernel:
    def test_loop_denoiser_bitwise_equals_denoise_terms(self):
        # the solver loop's denoiser, on the constants _mmse_rows precomputes
        # once per solve, runs the same arithmetic as the validated closed form
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            gamma = rng.uniform(0.0, 1.0, n)
            gamma[rng.uniform(size=n) < 0.1] = 0.0
            gamma[rng.uniform(size=n) < 0.1] = 1.0
            beta = float(rng.choice([0.0, 1e-14, rng.uniform(1e-3, 5.0)]))
            s2 = float(rng.uniform(0.1, 2.0))
            u = rng.normal(0.0, 3.0, n)
            x, deriv, pi = denoise_terms(u, DenoiserParams(beta=beta, gamma=gamma, s2=s2))
            x_loop, deriv_sum, pi_loop = _mmse(u[None], np.array([beta]),
                                               *_mmse_rows([gamma], [s2], GAMMA_CLAMP))[:3]
            assert np.array_equal(x_loop[0], x)
            assert np.array_equal(pi_loop[0], pi)
            assert deriv_sum[0] == np.sum(deriv)


    @pytest.mark.parametrize("k", [0, 3, 24])
    def test_uniform_gamma_batch_bitwise_equals_denoise_terms(self, k):
        # a uniform gamma0 = 1 - K/N (K=0: all spike, K=N: all slab) has one
        # prior log-odds per row; each row keeps denoise_terms' bits
        rng = np.random.default_rng(k)
        n, s2 = 24, 0.5
        gamma = np.full(n, 1.0 - k / n)
        beta = np.array([0.0, 1e-14, 0.05, 0.8, 3.0])
        u = rng.normal(0.0, 2.0, (len(beta), n))
        consts = _mmse_rows([gamma] * len(beta), [s2] * len(beta), GAMMA_CLAMP)
        x_loop, deriv_sum, pi_loop = _mmse(u, beta, *consts)[:3]
        for row, b in enumerate(beta):
            x, deriv, pi = denoise_terms(u[row], DenoiserParams(beta=b, gamma=gamma, s2=s2))
            assert np.array_equal(x_loop[row], x)
            assert np.array_equal(pi_loop[row], pi)
            assert deriv_sum[row] == np.sum(deriv)


class TestDerivative:
    def test_dense_prior_constant(self):
        p = DenoiserParams(beta=0.4, gamma=0.0, s2=0.5)
        for u in (-2.0, 0.0, 3.0):
            assert denoise_deriv(u, p) == pytest.approx(0.5 / 0.9, rel=1e-14)

    def test_spike_prior_zero(self):
        p = DenoiserParams(beta=0.4, gamma=1.0, s2=0.5)
        assert denoise_deriv(1.3, p) == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for p in params_grid():
            for u in rng.uniform(-4, 4, size=5):
                h = 1e-5 * max(1.0, abs(u))
                fd = (denoise(u + h, p) - denoise(u - h, p)) / (2 * h)
                an = denoise_deriv(float(u), p)
                assert abs(fd - an) <= 1e-5 * max(abs(an), abs(fd), 1e-12)


class TestProperties:
    def test_odd(self):
        for p in params_grid():
            for u in (0.3, 1.1, 4.2):
                assert denoise(-u, p) == pytest.approx(-denoise(u, p), abs=1e-15)

    def test_shrinkage(self):
        for p in params_grid():
            gain = p.s2 / (p.s2 + p.beta)
            for u in (-5.0, -0.2, 0.9, 3.3):
                fu = denoise(u, p)
                assert abs(fu) <= gain * abs(u) + 1e-15
                assert abs(fu) <= abs(u) + 1e-15

    def test_monotone(self):
        for p in params_grid():
            u = np.linspace(-6, 6, 201)
            assert np.all(denoise_deriv(u, p) >= 0.0)
            assert np.all(np.diff(denoise(u, p)) >= -1e-12)

    def test_continuous_at_gamma_endpoints(self):
        for u in (-2.0, 0.5, 3.0):
            lo = DenoiserParams(beta=0.5, gamma=1e-12, s2=0.5)
            at0 = DenoiserParams(beta=0.5, gamma=0.0, s2=0.5)
            assert denoise(u, lo) == pytest.approx(denoise(u, at0), abs=1e-10)
            hi = DenoiserParams(beta=0.5, gamma=1.0 - 1e-12, s2=0.5)
            at1 = DenoiserParams(beta=0.5, gamma=1.0, s2=0.5)
            assert denoise(u, hi) == pytest.approx(denoise(u, at1), abs=1e-10)


class TestNumericOracle:
    def test_spike_prior(self):
        p = DenoiserParams(beta=0.2, gamma=1.0, s2=0.5)
        assert denoise_numeric(2.0, p) == 0.0

    def test_zero_input(self):
        p = DenoiserParams(beta=0.2, gamma=0.4, s2=0.5)
        assert denoise_numeric(0.0, p) == pytest.approx(0.0, abs=1e-12)

    def test_one_component_gamma_vector(self):
        # the shape BernoulliGaussianPrior.gamma0 has
        out = denoise_numeric(1.0, DenoiserParams(beta=0.1, gamma=np.array([0.5]), s2=0.5))
        assert out.shape == (1,)
        assert out[0] == denoise_numeric(1.0, DenoiserParams(beta=0.1, gamma=0.5, s2=0.5))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DenoiserParams(beta=-1.0, gamma=0.5, s2=0.5)
        with pytest.raises(ValueError):
            DenoiserParams(beta=0.1, gamma=1.5, s2=0.5)
        with pytest.raises(ValueError):
            DenoiserParams(beta=0.1, gamma=np.array([0.5, np.nan]), s2=0.5)
        with pytest.raises(ValueError):
            DenoiserParams(beta=0.1, gamma=0.5, s2=0.0)


def two_pass_quadrature(u, p, rel_tol=1e-12):
    """denoise_numeric with each integral evaluating its own integrand at
    every node: the reference for the reuse of the evidence's values."""
    beta, s2, gamma = p.beta, p.s2, float(np.asarray(p.gamma))
    if gamma >= 1.0:
        return 0.0
    total = beta + s2
    mu = u * s2 / total
    sig_post = np.sqrt(beta * s2 / total)
    radius = max(10.0 * np.sqrt(s2), abs(mu) + 12.0 * sig_post)
    two_beta, two_s2 = 2.0 * beta, 2.0 * s2
    log_norm_beta = float(0.5 * np.log(2.0 * np.pi * beta))
    log_norm_s2 = float(0.5 * np.log(2.0 * np.pi * s2))
    log_scale = -u * u / (2.0 * total) - log_norm_beta - log_norm_s2

    def scaled_joint(x):
        return np.exp(-((u - x) ** 2) / two_beta - x * x / two_s2
                      - log_norm_beta - log_norm_s2 - log_scale)

    eps = 1e-9 * radius
    breaks = sorted(set(np.clip([mu - 8 * sig_post, mu, mu + 8 * sig_post],
                                -radius + eps, radius - eps)))
    abs_floor = 1e-13 * radius

    def integrate(f):
        return quad(f, -radius, radius, points=breaks, epsabs=abs_floor,
                    epsrel=rel_tol, limit=200, full_output=1)[0]

    evidence_cont = integrate(scaled_joint)
    mean_cont = integrate(lambda x: x * scaled_joint(x))
    spike = gamma * np.exp(-u * u / two_beta - log_norm_beta - log_scale)
    return float((1.0 - gamma) * mean_cont / (spike + (1.0 - gamma) * evidence_cont))


@pytest.mark.parametrize("beta", VALIDATION_BETAS)
@pytest.mark.parametrize("gamma", VALIDATION_GAMMAS)
def test_numeric_oracle_bitwise_equals_two_pass_quadrature(beta, gamma):
    p = DenoiserParams(beta=beta, gamma=gamma, s2=VALIDATION_S2)
    for u in VALIDATION_U_GRID[::7]:
        assert denoise_numeric(u, p) == two_pass_quadrature(u, p)


@pytest.mark.parametrize("beta", VALIDATION_BETAS)
def test_numeric_oracle_gamma_vector_equals_scalar_calls(beta):
    gammas = VALIDATION_GAMMAS + (0.0, 1.0)
    every_gamma = DenoiserParams(beta=beta, gamma=np.array(gammas), s2=VALIDATION_S2)
    for u in VALIDATION_U_GRID:
        out = denoise_numeric(u, every_gamma)
        assert out.shape == (len(gammas),)
        for gamma, value in zip(gammas, out):
            p = DenoiserParams(beta=beta, gamma=gamma, s2=VALIDATION_S2)
            assert value == denoise_numeric(u, p) == two_pass_quadrature(u, p)


class TestExactMmse:
    def test_spike_prior_zero_estimate(self):
        rng = np.random.default_rng(0)
        A = gen_matrix(4, 8, rng)
        y = rng.standard_normal(4)
        prior = BernoulliGaussianPrior(gamma0=1.0)
        assert np.all(exact_mmse(A, y, prior, 0.1) == 0.0)

    def test_dense_prior_is_ridge(self):
        rng = np.random.default_rng(1)
        A = gen_matrix(6, 10, rng)
        y = rng.standard_normal(6)
        prior = BernoulliGaussianPrior(gamma0=0.0, sigma_x2=1.0)
        sw2 = 0.05
        ridge = np.linalg.solve(A.T @ A + (sw2 / prior.s2) * np.eye(10), A.T @ y)
        np.testing.assert_allclose(exact_mmse(A, y, prior, sw2), ridge, atol=1e-10)

    def test_matches_2d_quadrature(self):
        # independent oracle: integrate the posterior over the four support
        # branches of a 2-component problem with A = I
        A = np.eye(2)
        y = np.array([0.8, -0.3])
        g, s2, sw2 = 0.6, 0.5, 0.2
        prior = BernoulliGaussianPrior(gamma0=g, sigma_x2=2 * s2)

        def lik(x1, x2):
            r1, r2 = y[0] - x1, y[1] - x2
            return np.exp(-(r1 * r1 + r2 * r2) / (2 * sw2)) / (2 * np.pi * sw2)

        def slab(x):
            return np.exp(-x * x / (2 * s2)) / np.sqrt(2 * np.pi * s2)

        lim = 8.0
        w00 = g * g * lik(0, 0)
        w10 = g * (1 - g) * quad(lambda x: lik(x, 0) * slab(x), -lim, lim)[0]
        w01 = g * (1 - g) * quad(lambda x: lik(0, x) * slab(x), -lim, lim)[0]
        w11 = (1 - g) ** 2 * dblquad(
            lambda x2, x1: lik(x1, x2) * slab(x1) * slab(x2), -lim, lim, -lim, lim
        )[0]
        m10 = g * (1 - g) * quad(lambda x: x * lik(x, 0) * slab(x), -lim, lim)[0]
        m01 = g * (1 - g) * quad(lambda x: x * lik(0, x) * slab(x), -lim, lim)[0]
        m11x = (1 - g) ** 2 * dblquad(
            lambda x2, x1: x1 * lik(x1, x2) * slab(x1) * slab(x2), -lim, lim, -lim, lim
        )[0]
        m11y = (1 - g) ** 2 * dblquad(
            lambda x2, x1: x2 * lik(x1, x2) * slab(x1) * slab(x2), -lim, lim, -lim, lim
        )[0]
        total = w00 + w10 + w01 + w11
        expected = np.array([(m10 + m11x) / total, (m01 + m11y) / total])
        np.testing.assert_allclose(exact_mmse(A, y, prior, sw2), expected, atol=1e-6)

    def test_large_n_rejected(self):
        rng = np.random.default_rng(0)
        A = gen_matrix(4, 15, rng)
        with pytest.raises(ValueError):
            exact_mmse(A, rng.standard_normal(4), BernoulliGaussianPrior(gamma0=0.5), 0.1)

    def test_mixed_degenerate_gammas(self):
        # component 0 forced active, component 2 forced zero; orthonormal
        # columns so the evidence identifies the support unambiguously
        rng = np.random.default_rng(2)
        A = np.linalg.qr(rng.standard_normal((8, 4)))[0]
        x = np.array([1.2, 0.0, 0.0, 0.4])
        y = A @ x
        prior = BernoulliGaussianPrior(gamma0=[0.0, 0.5, 1.0, 0.5], sigma_x2=1.0)
        out = exact_mmse(A, y, prior, 1e-6)
        assert out[2] == 0.0
        assert abs(out[0] - 1.2) < 1e-2
        assert abs(out[3] - 0.4) < 2e-2

    @pytest.mark.parametrize("gamma0, n", [(0.5, 10), ([0.0, 0.5, 1.0, 0.5], 4), (1.0, 8)])
    @pytest.mark.parametrize("sw2", [0.0, 0.05])
    def test_stacked_parts_equal_one_part_calls(self, gamma0, n, sw2):
        rng = np.random.default_rng(7)
        A = gen_matrix(6, n, rng)
        y = rng.standard_normal((2, 6))
        prior = BernoulliGaussianPrior(gamma0=gamma0)
        stacked = exact_mmse(A, y, prior, sw2)
        assert stacked.shape == (2, n)
        assert np.array_equal(stacked, np.stack([exact_mmse(A, y[0], prior, sw2),
                                                 exact_mmse(A, y[1], prior, sw2)]))

    @pytest.mark.parametrize("budget", [1, 1 << 40])  # a trial per group; one group
    @pytest.mark.parametrize("gamma0, n", [(0.5, 10), ([0.0, 0.5, 1.0, 0.5], 4), (1.0, 8)])
    @pytest.mark.parametrize("sw2", [0.0, 0.05])
    def test_stacked_trials_equal_one_part_calls(self, monkeypatch, gamma0, n, sw2, budget):
        rng = np.random.default_rng(7)
        A = np.stack([gen_matrix(6, n, rng) for _ in range(5)])
        y = rng.standard_normal((5, 2, 6))
        sigma = sw2 * np.array([1.0, 2.0, 0.0, 0.5, 7.0])  # its own per trial
        prior = BernoulliGaussianPrior(gamma0=gamma0)
        monkeypatch.setattr(denoiser, "CHUNK_BYTES", budget)
        stacked = exact_mmse(A, y, prior, sigma)
        monkeypatch.undo()
        assert stacked.shape == (5, 2, n)
        for t in range(5):
            for p in range(2):
                assert np.array_equal(stacked[t, p], exact_mmse(A[t], y[t, p], prior, sigma[t]))

    @pytest.mark.parametrize("y_shape, sigma_shape",
                             [((3, 2, 5), (3,)), ((2, 2, 4), (3,)), ((3, 4), (3,)),
                              ((3, 2, 4), ()), ((3, 2, 4), (2,))])
    def test_bad_stacked_shapes_rejected(self, y_shape, sigma_shape):
        A = np.stack([gen_matrix(4, 6, np.random.default_rng(j)) for j in range(3)])
        with pytest.raises(ValueError):
            exact_mmse(A, np.ones(y_shape), BernoulliGaussianPrior(gamma0=0.5),
                       np.full(sigma_shape, 0.1))

    @pytest.mark.parametrize("shape", [(2, 5), (5,), (2, 2, 4)])
    def test_bad_y_shape_rejected(self, shape):
        A = gen_matrix(4, 6, np.random.default_rng(0))
        with pytest.raises(ValueError):
            exact_mmse(A, np.ones(shape), BernoulliGaussianPrior(gamma0=0.5), 0.1)

    @pytest.mark.parametrize("sw2", [-1.0, np.nan, np.inf])
    def test_bad_noise_variance_rejected(self, sw2):
        # -1 used to be floored to the noiseless posterior and NaN to fail
        # as a non-positive-definite evidence matrix
        rng = np.random.default_rng(3)
        A, y = gen_matrix(4, 6, rng), rng.standard_normal(4)
        prior = BernoulliGaussianPrior(gamma0=0.8)
        with pytest.raises(ValueError, match="sigma_w2_part"):
            exact_mmse(A, y, prior, sw2)
        with pytest.raises(ValueError, match="sigma_w2_part"):
            exact_mmse(np.stack([A, A]), np.stack([y, y])[:, None],
                       prior, np.array([0.1, sw2]))
        assert np.all(np.isfinite(exact_mmse(A, y, prior, 0.0)))  # noiseless is fine

    @pytest.mark.parametrize("where", ["A", "y_part"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, where, value):
        rng = np.random.default_rng(4)
        args = {"A": gen_matrix(4, 6, rng), "y_part": rng.standard_normal(4)}
        args[where][1] = value
        with pytest.raises(ValueError, match=where):
            exact_mmse(args["A"], args["y_part"], BernoulliGaussianPrior(gamma0=0.8), 0.1)

    def test_cached_supports_serve_other_priors_unchanged(self):
        # one A under two gamma0 vectors, the second calls served from the
        # support cache, equal fresh enumerations bit for bit
        rng = np.random.default_rng(5)
        A, y = gen_matrix(6, 8, rng), rng.standard_normal((2, 6))
        priors = [BernoulliGaussianPrior(gamma0=g, sigma_x2=1.5)
                  for g in (0.7, [0.0, 0.3, 1.0, 0.6, 0.9, 0.2, 0.5, 0.5])]
        denoiser._supports.cache_clear()
        fresh = []
        for prior in priors:
            fresh.append(exact_mmse(A, y, prior, 0.05))
            denoiser._supports.cache_clear()
        for _ in range(2):
            for prior, rows in zip(priors, fresh):
                assert np.array_equal(exact_mmse(A, y, prior, 0.05), rows)
        assert denoiser._supports.cache_info().hits >= 2

    def test_cached_supports_read_only(self):
        for idx, flat in denoiser._supports((0,), (1, 3, 4), 5):
            assert not idx.flags.writeable and not flat.flags.writeable
            assert flat.shape == idx.shape + idx.shape[1:]
            with pytest.raises(ValueError):
                idx[...] = 0
