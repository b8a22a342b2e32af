import numpy as np
import pytest
from scipy.stats import norm

from csamp.model import ComplexVector
from csamp.support import SupportEstimate, detect_em, detect_prior_based, support_metrics


def vec(*values):
    return np.array(values, dtype=float)


class TestPriorRule:
    def test_confident_zero(self):
        est = detect_prior_based(vec(0.9), vec(0.9))
        assert not est.active[0]

    def test_confident_active(self):
        est = detect_prior_based(vec(0.1), vec(0.1))
        assert est.active[0]

    def test_tie_resolves_to_zero(self):
        # 0.9 * 0.1 == 0.1 * 0.9: the >= comparison keeps the component zero
        est = detect_prior_based(vec(0.9), vec(0.1))
        assert not est.active[0]

    def test_swap_invariant(self):
        rng = np.random.default_rng(0)
        g_r = rng.uniform(0, 1, 50)
        g_i = rng.uniform(0, 1, 50)
        a = detect_prior_based(g_r, g_i)
        b = detect_prior_based(g_i, g_r)
        assert np.array_equal(a.active, b.active)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(1)
        g_r = rng.uniform(0, 1, 30)
        g_i = rng.uniform(0, 1, 30)
        perm = rng.permutation(30)
        direct = detect_prior_based(g_r[perm], g_i[perm])
        permuted = detect_prior_based(g_r, g_i)
        assert np.array_equal(direct.active, permuted.active[perm])

    def test_validation(self):
        with pytest.raises(ValueError, match="^gamma vectors must be 1-D with equal length$"):
            detect_prior_based(vec(0.5), vec(0.5, 0.5))


class TestEmRule:
    def test_zero_observation_classified_zero(self):
        # beta=1, sigma_x2/2=1: N(0;0,1) > N(0;0,2) per part
        est = detect_em(vec(0.0), vec(0.0), 1.0, 1.0, vec(0.5), vec(0.5), 2.0)
        assert not est.active[0]

    def test_loud_observation_classified_active(self):
        # frozen densities: N(3;0,1)^2 ~ 1.96e-5 < N(3;0,2)^2 ~ 8.84e-4
        d_zero = norm.pdf(3.0, scale=1.0) ** 2
        d_active = norm.pdf(3.0, scale=np.sqrt(2.0)) ** 2
        assert d_zero == pytest.approx(1.964e-5, rel=1e-3)
        assert d_active == pytest.approx(8.840e-4, rel=1e-3)
        est = detect_em(vec(3.0), vec(3.0), 1.0, 1.0, vec(0.5), vec(0.5), 2.0)
        assert est.active[0]

    def test_saturated_prior_wins_for_bounded_u(self):
        g = vec(1.0 - 1e-12)
        for u in (0.0, 2.0, 6.0):
            est = detect_em(vec(u), vec(u), 1.0, 1.0, g, g, 2.0)
            assert not est.active[0]

    def test_matches_direct_density_comparison(self):
        # log-domain decision equals the linear-domain one wherever the
        # latter does not underflow
        rng = np.random.default_rng(3)
        beta_r, beta_i, sigma_x2 = 0.3, 0.5, 1.0
        bbar_r, bbar_i = beta_r + 0.5, beta_i + 0.5
        lim = 8 * np.sqrt(max(bbar_r, bbar_i))
        u_r = rng.uniform(-lim, lim, 200)
        u_i = rng.uniform(-lim, lim, 200)
        g_r = rng.uniform(0.05, 0.95, 200)
        g_i = rng.uniform(0.05, 0.95, 200)
        est = detect_em(u_r, u_i, beta_r, beta_i, g_r, g_i, sigma_x2)
        s00 = g_r * g_i * norm.pdf(u_r, scale=np.sqrt(beta_r)) * norm.pdf(u_i, scale=np.sqrt(beta_i))
        s11 = ((1 - g_r) * (1 - g_i) * norm.pdf(u_r, scale=np.sqrt(bbar_r))
               * norm.pdf(u_i, scale=np.sqrt(bbar_i)))
        assert np.array_equal(~est.active, s00 >= s11)

    @pytest.mark.parametrize("g_r, g_i, active", [
        # decisions on the (u_r, u_i) grid {0, 2.5, 40}^2, recorded from the
        # four-density rule: an exact gamma = 1 in either part keeps the
        # component zero, opposite endpoints included; gamma = 0 makes it active
        (0.0, 0.0, True), (0.0, 1.0, False), (1.0, 0.0, False), (1.0, 1.0, False),
        (0.0, 0.3, True), (0.3, 0.0, True), (1.0, 0.3, False), (0.3, 1.0, False),
    ])
    def test_endpoint_gammas(self, g_r, g_i, active):
        u = np.array([(a, b) for a in (0.0, 2.5, 40.0) for b in (0.0, 2.5, 40.0)])
        n = len(u)
        est = detect_em(u[:, 0], u[:, 1], 0.5, 0.5, np.full(n, g_r), np.full(n, g_i), 1.0)
        assert np.array_equal(est.active, np.full(n, active))

    def test_uninformative_prior_uses_amplitudes_only(self):
        # g=0.5 cancels: the decision reduces to the density comparison,
        # which is a radius threshold in (u_r, u_i)
        g = np.full(1, 0.5)
        small = detect_em(vec(0.1), vec(0.1), 0.5, 0.5, g, g, 1.0)
        loud = detect_em(vec(3.0), vec(3.0), 0.5, 0.5, g, g, 1.0)
        assert not small.active[0]
        assert loud.active[0]

    @pytest.mark.parametrize("u_r, u_i", [(vec(0.1, 2.0), vec(0.1)),
                                          (np.zeros((2, 2)), np.zeros((2, 2)))])
    def test_u_shapes_rejected(self, u_r, u_i):
        g = np.full(2, 0.8)
        with pytest.raises(ValueError, match="u vectors must be 1-D with equal length"):
            detect_em(u_r, u_i, 0.5, 0.5, g, g, 1.0)

    def test_endpoint_arguments_allowed(self):
        u = vec(0.1, 2.0, -3.0)
        est = detect_em(u, u, 0.0, 0.5, vec(0.0, 1.0, 0.5), vec(1.0, 0.0, 0.5), 1.0)
        assert est.active.shape == (3,)


class TestDetectionOnSolverOutput:
    def test_em_cbamp_easy_regime_match_rate(self):
        # seeded cBAMP runs, N=256 M=128 K=13 noiseless: the EM rule with the
        # prior gammas recovers the exact support in at least 90% of 50 trials
        from csamp.bamp import cbamp_recover
        from csamp.experiments import trial_rng
        from csamp.model import make_instance

        hits = 0
        for j in range(50):
            inst, _ = make_instance(128, 256, 13, trial_rng(55, 0, j))
            out = cbamp_recover(inst.A, inst.y, inst.prior)
            g0 = inst.prior.gamma0_vector(256)
            est = detect_em(out.u_r, out.u_i, out.beta_r, out.beta_i, g0, g0,
                            inst.prior.sigma_x2)
            hits += support_metrics(inst.x_true, est).exact_match
        assert hits >= 45


class TestApplyAndMetrics:
    def test_metrics_exact(self):
        x = ComplexVector(vec(1.0, 0.0, 0.5), vec(0.0, 0.0, -0.2))
        est = SupportEstimate(np.array([True, False, True]))
        m = support_metrics(x, est)
        assert m.exact_match and m.false_positives == 0 and m.false_negatives == 0

    def test_metrics_empty_detection(self):
        x = ComplexVector(vec(1.0, 0.0, 0.5), vec(0.0, 0.0, -0.2))
        m = support_metrics(x, SupportEstimate(np.zeros(3, dtype=bool)))
        assert not m.exact_match
        assert m.false_positives == 0 and m.false_negatives == 2

    def test_metrics_full_detection(self):
        x = ComplexVector(vec(1.0, 0.0, 0.5), vec(0.0, 0.0, -0.2))
        m = support_metrics(x, SupportEstimate(np.ones(3, dtype=bool)))
        assert not m.exact_match
        assert m.false_positives == 1 and m.false_negatives == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="active mask must be 1-D"):
            SupportEstimate(np.ones((2, 3), dtype=bool))
        x = ComplexVector(vec(1.0, 0.0, 0.5), vec(0.0, 0.0, -0.2))
        with pytest.raises(ValueError, match="length mismatch"):
            support_metrics(x, SupportEstimate(np.ones(4, dtype=bool)))
