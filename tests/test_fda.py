"""Feature-statistics mixing: endpoints, stat transfer, plans, gradients."""

import numpy as np
import pytest

from fewshot_tta.errors import ConfigError
from fewshot_tta import fda
from fewshot_tta.fda import (
    FdaConfig,
    FdaPlan,
    fda_transform,
    make_plan,
    make_plans,
    mixer,
)
from fewshot_tta.gradcheck import finite_diff_check
from fewshot_tta.tensor import Tensor, channel_stats, mul, tsum

import oracles


def _pair_stats(f, pairing, eps=0.0):
    """(mu, sigma) of every sample and of its partner, each N x C."""
    mu, sig = channel_stats(f, eps=eps)
    return mu.data, sig.data, mu.data[pairing], sig.data[pairing]


class TestMixStats:
    """The statistics blend inside fda_transform: with eps = 0 the output's
    channel statistics are lam * own + (1 - lam) * partner's."""

    @pytest.mark.parametrize("lam, pairing", [
        (1.0, [1, 2, 0]), (0.0, [2, 0, 1]), (0.5, [1, 0, 2])])
    def test_constant_lambda_blends_own_and_partner_stats(self, rng, lam, pairing):
        # 1 keeps a sample's own statistics, 0 takes its partner's, 0.5 the midpoint
        f = Tensor(rng.normal(size=(3, 2, 5, 5)) * 2.0 + 1.0)
        plan = FdaPlan(pairing=np.array(pairing), lambdas=np.full(3, lam))
        mu, sig, mu_j, sig_j = _pair_stats(f, plan.pairing)
        mu2, sig2, _, _ = _pair_stats(fda_transform(f, plan, eps=0.0), plan.pairing)
        assert np.allclose(mu2, lam * mu + (1.0 - lam) * mu_j, atol=1e-9)
        assert np.allclose(sig2, lam * sig + (1.0 - lam) * sig_j, atol=1e-9)

    def test_lambda_out_of_range_rejected(self):
        # a plan carries the lambdas, so one outside [0, 1] never reaches the blend
        for bad in (1.5, -0.1):
            with pytest.raises(ConfigError, match="lambda"):
                FdaPlan(pairing=np.arange(2), lambdas=np.array([0.5, bad]))

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(4, 2, 3, 5))
        plan = FdaPlan(pairing=rng.permutation(4), lambdas=rng.uniform(0.0, 1.0, size=4))
        out = fda_transform(Tensor(x), plan, eps=0.0)
        mu, sig, mu_j, sig_j = _pair_stats(Tensor(x), plan.pairing)
        for i, lam in enumerate(plan.lambdas):
            beta, gamma = oracles.mix_stats_loops(list(mu[i]), list(sig[i]), list(mu_j[i]),
                                                  list(sig_j[i]), lam)
            mu2, sig2, _, _ = _pair_stats(Tensor(out.data[i: i + 1]), np.arange(1))
            assert np.allclose(mu2[0], beta, atol=1e-12)
            assert np.allclose(sig2[0], gamma, atol=1e-12)


class TestApplyFda:
    """The re-instantiation inside fda_transform: gamma_mix * (f - mu) / sigma
    + beta_mix per sample and channel."""

    def test_stat_transfer(self, rng):
        f = Tensor(rng.normal(size=(4, 3, 5, 5)) * 2.0 + 1.0)
        plan = FdaPlan(pairing=rng.permutation(4), lambdas=rng.uniform(0.0, 1.0, size=4))
        mu, sig, mu_j, sig_j = _pair_stats(f, plan.pairing)
        lam = plan.lambdas[:, None]
        mu2, sig2, _, _ = _pair_stats(fda_transform(f, plan, eps=0.0), plan.pairing)
        assert np.allclose(mu2, lam * mu + (1.0 - lam) * mu_j, atol=1e-9)
        assert np.allclose(sig2, lam * sig + (1.0 - lam) * sig_j, atol=1e-9)

    def test_constant_channel_becomes_beta(self, rng):
        # sample 0's channel is flat, so f - mu is 0 there and only beta_mix is left
        f = rng.normal(size=(2, 1, 3, 3))
        f[0] = 4.0
        plan = FdaPlan(pairing=np.array([1, 0]), lambdas=np.array([0.3, 0.6]))
        out = fda_transform(Tensor(f), plan, eps=1e-6)
        assert np.allclose(out.data[0], 0.3 * 4.0 + 0.7 * f[1].mean())

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(3, 2, 4, 4))
        plan = FdaPlan(pairing=np.array([2, 0, 1]), lambdas=np.array([0.2, 0.9, 0.5]))
        out = fda_transform(Tensor(x), plan, eps=0.0)
        mu, sig, mu_j, sig_j = _pair_stats(Tensor(x), plan.pairing)
        for i, lam in enumerate(plan.lambdas):
            beta, gamma = oracles.mix_stats_loops(list(mu[i]), list(sig[i]), list(mu_j[i]),
                                                  list(sig_j[i]), lam)
            expected = oracles.apply_fda_loops(x[i].tolist(), mu[i].tolist(), sig[i].tolist(),
                                               beta, gamma)
            assert np.allclose(out.data[i], expected, atol=1e-12)


class TestFdaTransform:
    def test_lambda_one_is_identity(self, rng):
        f = Tensor(rng.normal(size=(4, 3, 6, 6)))
        plan = FdaPlan(pairing=rng.permutation(4), lambdas=np.ones(4))
        out = fda_transform(f, plan, eps=1e-6)
        rel = np.max(np.abs(out.data - f.data)) / np.max(np.abs(f.data))
        assert rel < 1e-6

    def test_lambda_zero_adopts_partner_stats(self, rng):
        f = Tensor(rng.normal(size=(4, 2, 8, 8)) * 1.5 + 0.5)
        pairing = np.array([1, 0, 3, 2])
        plan = FdaPlan(pairing=pairing, lambdas=np.zeros(4))
        out = fda_transform(f, plan, eps=0.0)
        mu, sig = channel_stats(f, eps=0.0)
        mu2, sig2 = channel_stats(out, eps=0.0)
        assert np.allclose(mu2.data, mu.data[pairing], atol=1e-9)
        assert np.allclose(sig2.data, sig.data[pairing], atol=1e-9)

    def test_apply_false_passthrough(self, rng):
        f = Tensor(rng.normal(size=(3, 2, 4, 4)))
        plan = FdaPlan(pairing=np.arange(3), lambdas=np.full(3, 0.5), apply=False)
        out = fda_transform(f, plan)
        assert out is f

    def test_gradients_flow_to_input(self, rng):
        f = Tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True)
        plan = FdaPlan(pairing=np.array([2, 0, 1]), lambdas=np.array([0.3, 0.8, 0.5]))
        probe = Tensor(rng.normal(size=(3, 2, 4, 4)))
        report = finite_diff_check(lambda: tsum(mul(fda_transform(f, plan, eps=1e-4), probe)),
                                   {"f": f})
        assert report.ok(1e-4), report.max_rel_err


class TestMakePlan:
    def test_deterministic_given_seed(self):
        cfg = FdaConfig()
        p1 = make_plan(8, np.random.default_rng(5), cfg)
        p2 = make_plan(8, np.random.default_rng(5), cfg)
        assert np.array_equal(p1.pairing, p2.pairing)
        assert np.array_equal(p1.lambdas, p2.lambdas)
        assert p1.apply == p2.apply

    def test_p_apply_zero_never_applies(self):
        cfg = FdaConfig(p_apply=0.0)
        rng = np.random.default_rng(0)
        assert all(not make_plan(8, rng, cfg).apply for _ in range(20))

    def test_tiny_batch_disables(self):
        plan = make_plan(1, np.random.default_rng(0), FdaConfig())
        assert not plan.apply

    def test_lambdas_are_symmetric_and_mostly_near_0_or_1(self):
        # Beta(0.1, 0.1): mean 0.5, and about 81% of its mass within 0.1 of an end
        assert fda.ALPHA_BETA == 0.1
        rng = np.random.default_rng(1)
        draws = np.concatenate([make_plan(100, rng, FdaConfig()).lambdas for _ in range(100)])
        assert abs(draws.mean() - 0.5) < 0.02
        assert np.mean((draws < 0.1) | (draws > 0.9)) > 0.75

    def test_pairing_is_permutation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            plan = make_plan(16, rng, FdaConfig())
            assert sorted(plan.pairing.tolist()) == list(range(16))

    def test_make_plans_covers_sites(self):
        plans = make_plans(8, np.random.default_rng(0), FdaConfig())
        assert set(plans) == {1, 2}
        assert not np.array_equal(plans[1].lambdas, plans[2].lambdas)

    def test_mixer_applies_each_site_plan(self, rng):
        plans = make_plans(4, np.random.default_rng(3), FdaConfig(p_apply=1.0))
        mix = mixer(plans)
        h = Tensor(rng.normal(size=(4, 3, 5, 5)))
        for site in (1, 2):
            want = fda_transform(h, plans[site], eps=fda.EPS)
            assert np.array_equal(mix(site, h).data, want.data)

    def test_bad_plan_rejected(self):
        with pytest.raises(ConfigError):
            FdaPlan(pairing=np.array([0, 0, 2]), lambdas=np.full(3, 0.5))
        with pytest.raises(ConfigError):
            FdaPlan(pairing=np.arange(3), lambdas=np.full(2, 0.5))


@pytest.mark.parametrize("p_apply", [-0.1, 1.5])
def test_p_apply_outside_unit_interval_is_config_error(p_apply):
    with pytest.raises(ConfigError, match=rf"p_apply must be in \[0, 1\], got {p_apply}"):
        FdaConfig(p_apply=p_apply)
