"""Feature-statistics mixing: endpoints, stat transfer, plans, gradients."""

import numpy as np
import pytest

from fewshot_tta.errors import ConfigError
from fewshot_tta.fda import (
    FdaConfig,
    FdaPlan,
    apply_fda,
    fda_transform,
    make_plan,
    make_plans,
    mix_stats,
    mixer,
)
from fewshot_tta.gradcheck import finite_diff_check
from fewshot_tta.tensor import Tensor, channel_stats

import oracles


class TestMixStats:
    def test_lambda_one_keeps_own_stats(self):
        beta, gamma = mix_stats([1.0, 2.0], [0.5, 0.7], [9.0, 9.0], [9.0, 9.0], 1.0)
        assert np.array_equal(beta.data, [1.0, 2.0])
        assert np.array_equal(gamma.data, [0.5, 0.7])

    def test_lambda_zero_takes_partner_stats(self):
        beta, gamma = mix_stats([1.0], [0.5], [3.0], [2.5], 0.0)
        assert np.array_equal(beta.data, [3.0])
        assert np.array_equal(gamma.data, [2.5])

    def test_midpoint(self):
        beta, gamma = mix_stats([0.0], [1.0], [2.0], [3.0], 0.5)
        assert beta.data[0] == pytest.approx(1.0)
        assert gamma.data[0] == pytest.approx(2.0)

    def test_lambda_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            mix_stats([0.0], [1.0], [1.0], [1.0], 1.5)
        with pytest.raises(ConfigError):
            mix_stats([0.0], [1.0], [1.0], [1.0], -0.1)

    def test_matches_loop_oracle(self, rng):
        mu_i, mu_j = rng.normal(size=4), rng.normal(size=4)
        sig_i, sig_j = rng.uniform(0.1, 2, size=4), rng.uniform(0.1, 2, size=4)
        lam = 0.3
        beta, gamma = mix_stats(mu_i, sig_i, mu_j, sig_j, lam)
        ob, og = oracles.mix_stats_loops(list(mu_i), list(sig_i), list(mu_j), list(sig_j), lam)
        assert np.allclose(beta.data, ob, atol=1e-12)
        assert np.allclose(gamma.data, og, atol=1e-12)


class TestApplyFda:
    def test_stat_transfer(self, rng):
        f = Tensor(rng.normal(size=(2, 3, 5, 5)) * 2.0 + 1.0)
        mu, sig = channel_stats(f, eps=0.0)
        target_beta = Tensor(rng.normal(size=(2, 3)))
        target_gamma = Tensor(rng.uniform(0.5, 2.0, size=(2, 3)))
        out = apply_fda(f, (mu, sig), (target_beta, target_gamma))
        mu2, sig2 = channel_stats(out, eps=0.0)
        assert np.allclose(mu2.data, target_beta.data, atol=1e-9)
        assert np.allclose(sig2.data, target_gamma.data, atol=1e-9)

    def test_constant_channel_becomes_beta(self):
        f = Tensor(np.full((1, 1, 3, 3), 4.0))
        mu, sig = channel_stats(f, eps=1e-6)
        out = apply_fda(f, (mu, sig), (Tensor([[7.0]]), Tensor([[2.0]])))
        assert np.allclose(out.data, 7.0)

    def test_matches_loop_oracle(self, rng):
        f = rng.normal(size=(1, 2, 4, 4))
        t = Tensor(f)
        mu, sig = channel_stats(t, eps=0.0)
        beta = rng.normal(size=(1, 2))
        gamma = rng.uniform(0.5, 2.0, size=(1, 2))
        out = apply_fda(t, (mu, sig), (Tensor(beta), Tensor(gamma)))
        expected = oracles.apply_fda_loops(f[0].tolist(), mu.data[0].tolist(),
                                           sig.data[0].tolist(), beta[0].tolist(),
                                           gamma[0].tolist())
        assert np.allclose(out.data[0], expected, atol=1e-12)


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
        report = finite_diff_check(lambda: (fda_transform(f, plan, eps=1e-4) * probe).sum(),
                                   {"f": f})
        assert report.ok(1e-4), report.max_rel_err

    def test_gradients_with_detached_partner(self, rng):
        # detached mixing treats the partner's statistics as constants, so the
        # reference function fixes them at their unperturbed values
        f = Tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True)
        plan = FdaPlan(pairing=np.array([1, 2, 0]), lambdas=np.array([0.6, 0.2, 0.9]))
        probe = Tensor(rng.normal(size=(3, 2, 4, 4)))
        eps = 1e-4

        mu0, sig0 = channel_stats(Tensor(f.data.copy()), eps=eps)
        mu_j = Tensor(mu0.data[plan.pairing])
        sig_j = Tensor(sig0.data[plan.pairing])
        lam = Tensor(plan.lambdas[:, None])

        def frozen_partner():
            mu, sig = channel_stats(f, eps=eps)
            beta_mix, gamma_mix = mix_stats(mu, sig, mu_j, sig_j, lam)
            return (apply_fda(f, (mu, sig), (beta_mix, gamma_mix)) * probe).sum()

        report = finite_diff_check(frozen_partner, {"f": f})
        assert report.ok(1e-4), report.max_rel_err

        # and the detached transform computes exactly that frozen-partner gradient
        frozen_grad = f.grad.copy()
        f.zero_grad()
        (fda_transform(f, plan, eps=eps, detach_mixed=True) * probe).sum().backward()
        assert np.allclose(f.grad, frozen_grad, atol=1e-10)

    def test_detach_changes_gradient(self, rng):
        f1 = Tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True)
        f2 = Tensor(f1.data.copy(), requires_grad=True)
        plan = FdaPlan(pairing=np.array([1, 2, 0]), lambdas=np.array([0.2, 0.4, 0.6]))
        fda_transform(f1, plan, eps=1e-4).sum().backward()
        fda_transform(f2, plan, eps=1e-4, detach_mixed=True).sum().backward()
        assert not np.allclose(f1.grad, f2.grad)


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

    def test_huge_concentration_centers_lambda(self):
        cfg = FdaConfig(alpha_beta=1e6, p_apply=1.0)
        rng = np.random.default_rng(1)
        draws = np.concatenate([make_plan(100, rng, cfg).lambdas for _ in range(100)])
        assert abs(draws.mean() - 0.5) < 0.01

    def test_pairing_is_permutation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            plan = make_plan(16, rng, FdaConfig())
            assert sorted(plan.pairing.tolist()) == list(range(16))

    def test_make_plans_covers_sites(self):
        cfg = FdaConfig(sites=(1, 2))
        plans = make_plans(8, np.random.default_rng(0), cfg)
        assert set(plans) == {1, 2}
        assert not np.array_equal(plans[1].lambdas, plans[2].lambdas)

    def test_disabled_config_gives_no_plans(self):
        assert make_plans(8, np.random.default_rng(0), FdaConfig(enabled=False)) == {}

    @pytest.mark.parametrize("sites", [(3,), (0, 1), (1, 2, 3)])
    def test_sites_outside_the_backbone_rejected(self, sites):
        with pytest.raises(ConfigError, match="sites"):
            FdaConfig(sites=sites)

    def test_mixer_applies_each_site_plan_and_passes_others_through(self, rng):
        cfg = FdaConfig(p_apply=1.0, sites=(2,), eps=1e-4)
        plans = make_plans(4, np.random.default_rng(3), cfg)
        mix = mixer(plans, cfg)
        h = Tensor(rng.normal(size=(4, 3, 5, 5)))
        assert mix(1, h) is h
        want = fda_transform(h, plans[2], eps=1e-4)
        assert np.array_equal(mix(2, h).data, want.data)

    def test_bad_plan_rejected(self):
        with pytest.raises(ConfigError):
            FdaPlan(pairing=np.array([0, 0, 2]), lambdas=np.full(3, 0.5))
        with pytest.raises(ConfigError):
            FdaPlan(pairing=np.arange(3), lambdas=np.array([0.5, 1.2, 0.1]))
