"""Numeric core: forward values against oracles, gradients against finite differences."""

import math

import numpy as np
import pytest

from fewshot_tta import (
    Tensor,
    channel_stats,
    conv2d,
    cosine_sim,
    cross_entropy,
    finite_diff_check,
    instance_norm,
    matmul,
    no_grad,
    relu,
    softmax,
    softmax_cross_entropy,
    softmax_entropy,
    take_rows,
)
from fewshot_tta.errors import DegenerateSimilarityWarning
from fewshot_tta.tensor import _normalize

import oracles


class TestBasics:
    def test_relu_definition(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_mean_constant(self):
        t = Tensor(np.full((2, 3), 5.0))
        assert t.mean().item() == 5.0

    def test_shape_invariant(self, rng):
        t = Tensor(rng.normal(size=(3, 4, 5)))
        assert t.data.size == np.prod(t.shape)
        assert t.data.flags["C_CONTIGUOUS"]

    def test_matmul_shape_error(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_backward_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x
        y.sum().backward()
        assert y.data[0] == 6.0
        assert x.grad[0] == pytest.approx(5.0)

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = x * 3.0
        assert not y.requires_grad

    def test_detach_cuts_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * 2.0).detach() * x
        y.sum().backward()
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_finite_outputs_on_finite_inputs(self, rng):
        x = Tensor(rng.normal(size=(4, 3, 6, 6)) * 100.0, requires_grad=True)
        g = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = instance_norm(relu(x), g, b)
        loss = out.mean()
        loss.backward()
        assert np.all(np.isfinite(out.data))
        assert np.all(np.isfinite(x.grad))


class TestSoftmax:
    def test_uniform_symmetry(self):
        out = softmax(Tensor([[0.0, 0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, 0.25)

    def test_large_logit_stability(self):
        out = softmax(Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == pytest.approx(1.0)
        assert out.data[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_log_ratio_values(self):
        out = softmax(Tensor([[math.log(1), math.log(2), math.log(3)]]))
        assert np.allclose(out.data, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        out = softmax(Tensor(rng.normal(size=(32, 7)) * 10.0))
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_oracle_rows(self, rng):
        logits = rng.normal(size=(8, 5)) * 3.0
        out = softmax(Tensor(logits))
        for i in range(8):
            assert np.allclose(out.data[i], oracles.softmax_loops(list(logits[i])), atol=1e-12)


class TestCrossEntropy:
    def test_uniform_is_log_c(self):
        for label in range(4):
            loss = cross_entropy(Tensor([0.25, 0.25, 0.25, 0.25]), label)
            assert loss.item() == pytest.approx(math.log(4))

    def test_one_hot_is_zero(self):
        assert cross_entropy(Tensor([0.0, 1.0, 0.0]), 1).item() == pytest.approx(0.0)

    def test_quarter_prob_is_log4(self):
        assert cross_entropy(Tensor([0.5, 0.25, 0.25]), 1).item() == pytest.approx(math.log(4))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(Tensor([0.5, 0.5]), 2)
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy(Tensor([[0.5, 0.5]]), [5])

    def test_fused_equals_composition(self, rng):
        logits = rng.normal(size=(6, 4)) * 2.0
        labels = rng.integers(0, 4, size=6)
        fused = softmax_cross_entropy(Tensor(logits), labels, reduction="none")
        probs = softmax(Tensor(logits))
        for i in range(6):
            direct = -math.log(probs.data[i, labels[i]])
            assert fused.data[i] == pytest.approx(direct, rel=1e-12)


class TestEntropyOfSoftmax:
    def test_range_bounds(self, rng):
        logits = rng.normal(size=(50, 6)) * 5.0
        ent = softmax_entropy(Tensor(logits))
        assert np.all(ent.data >= -1e-12)
        assert np.all(ent.data <= math.log(6) + 1e-12)

    def test_matches_direct_formula(self, rng):
        logits = rng.normal(size=(10, 4)) * 3.0
        ent = softmax_entropy(Tensor(logits))
        for i in range(10):
            p = oracles.softmax_loops(list(logits[i]))
            assert ent.data[i] == pytest.approx(oracles.entropy_loops(p), abs=1e-12)


class TestChannelStats:
    def test_all_zero(self):
        mu, sig = channel_stats(Tensor(np.zeros((1, 2, 3, 3))))
        assert np.array_equal(mu.data, np.zeros((1, 2)))
        assert np.array_equal(sig.data, np.zeros((1, 2)))

    def test_direct_small_case(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2))
        mu, sig = channel_stats(x)
        assert mu.data[0, 0] == pytest.approx(2.5)
        assert sig.data[0, 0] == pytest.approx(math.sqrt(1.25))

    def test_constant_channel(self):
        x = Tensor(np.full((2, 3, 4, 4), 7.25))
        mu, sig = channel_stats(x)
        assert np.allclose(mu.data, 7.25)
        assert np.allclose(sig.data, 0.0)

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(3, 2, 4, 5)) * 2.0 + 1.0
        mu, sig = channel_stats(Tensor(x))
        omu, osig = oracles.channel_stats_loops(x.tolist())
        assert np.allclose(mu.data, omu, atol=1e-12)
        assert np.allclose(sig.data, osig, atol=1e-12)


class TestInstanceNorm:
    def test_constant_channel_zeroed(self):
        x = Tensor(np.full((1, 1, 2, 2), 5.0))
        out = instance_norm(x, Tensor([1.0]), Tensor([0.0]), eps=1e-5)
        assert np.allclose(out.data, 0.0)

    def test_direct_evaluation(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2))
        out = instance_norm(x, Tensor([1.0]), Tensor([0.0]), eps=0.0)
        expected = (np.array([1.0, 2.0, 3.0, 4.0]) - 2.5) / math.sqrt(1.25)
        assert np.allclose(out.data.reshape(-1), expected, atol=1e-12)

    def test_affine_on_normalized_input(self, rng):
        raw = rng.normal(size=(1, 1, 4, 4))
        raw = (raw - raw.mean()) / raw.std()
        out = instance_norm(Tensor(raw), Tensor([2.0]), Tensor([3.0]), eps=0.0)
        assert np.allclose(out.data, 2.0 * raw + 3.0, atol=1e-9)

    def test_normalization_invariant(self, rng):
        x = Tensor(rng.normal(size=(4, 3, 6, 6)) * 3.0 + 2.0)
        out = instance_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=1e-12)
        m = out.data.mean(axis=(2, 3))
        s = out.data.std(axis=(2, 3))
        assert np.all(np.abs(m) < 1e-9)
        assert np.all(np.abs(s - 1.0) < 1e-6)

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        gamma, beta = rng.normal(size=3), rng.normal(size=3)
        out = instance_norm(Tensor(x), Tensor(gamma), Tensor(beta), eps=1e-5)
        expected = oracles.instance_norm_loops(x.tolist(), list(gamma), list(beta), 1e-5)
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_bad_affine_shape(self):
        with pytest.raises(ValueError, match="affine"):
            instance_norm(Tensor(np.zeros((1, 3, 2, 2))), Tensor([1.0]), Tensor([0.0]))

    @pytest.mark.parametrize("axes", [(2, 3), (0, 2, 3)])
    @pytest.mark.parametrize("n,c", [(32, 16), (32, 32), (64, 16), (64, 32)])
    def test_fused_matches_composite_graph(self, n, c, axes):
        """Forward and all three gradients of the one-node op against the
        elementary-op graph, at the default Backbone's shapes."""
        rng = np.random.default_rng(n + c + len(axes))
        x = rng.normal(size=(n, c, 16, 16)) * 2.0 + 1.0
        gamma, beta = rng.normal(size=c) + 1.0, rng.normal(size=c)
        probe = rng.normal(size=(n, c, 16, 16))
        results = []
        for op in (_normalize, oracles.normalize_graph):
            ts = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
            out = op(*ts, axes, 1e-5)
            out.backward(probe)
            results.append([out.data] + [t.grad for t in ts])
        for got, want in zip(*results):
            assert np.max(np.abs(got - want)) <= 1e-12


# (x shape, kernel shape): H != W with k=3, and k=5 wider than W
CONV_SHAPES = [((2, 3, 4, 7), (2, 3, 3, 3)),
               ((2, 2, 6, 3), (3, 2, 5, 5))]


class TestConv2d:
    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        out = conv2d(Tensor(x), Tensor(w))
        expected = oracles.conv2d_loops(x.tolist(), w.tolist())
        assert out.shape == (2, 4, 5, 5)
        assert np.allclose(out.data, expected, atol=1e-10)

    @pytest.mark.parametrize("xs,ws", CONV_SHAPES)
    def test_nonsquare_and_k5_match_loop_oracle(self, rng, xs, ws):
        x = rng.normal(size=xs)
        w = rng.normal(size=ws)
        out = conv2d(Tensor(x), Tensor(w))
        expected = oracles.conv2d_loops(x.tolist(), w.tolist())
        assert out.shape == (xs[0], ws[0], xs[2], xs[3])
        assert np.allclose(out.data, expected, atol=1e-10)

    def test_input_without_grad_gets_none(self, rng):
        x = rng.normal(size=(2, 3, 5, 4))
        w = rng.normal(size=(4, 3, 3, 3))
        probe = rng.normal(size=(2, 4, 5, 4))
        grads = []
        for x_grad in (False, True):
            xt, wt = Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=True)
            conv2d(xt, wt).backward(probe)
            assert (xt.grad is None) == (not x_grad)
            grads.append(wt.grad)
        assert np.array_equal(grads[0], grads[1])

    def test_identity_kernel(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(w))
        assert np.array_equal(out.data, x)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((2, 2, 2, 2))))


class TestTakeRows:
    def test_gather_and_scatter(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        out = take_rows(x, [4, 0, 4])
        assert np.array_equal(out.data, x.data[[4, 0, 4]])
        out.sum().backward()
        assert np.allclose(x.grad[4], 2.0)
        assert np.allclose(x.grad[0], 1.0)
        assert np.allclose(x.grad[1], 0.0)


class TestCosineSim:
    def test_identity(self, rng):
        v = rng.normal(size=8)
        assert cosine_sim(Tensor(v), Tensor(v)) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_sim(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])) == pytest.approx(0.0)

    def test_derived_value(self):
        assert cosine_sim(Tensor([1.0, 0.0]), Tensor([1.0, 1.0])) == pytest.approx(1 / math.sqrt(2))

    def test_zero_norm_warns_and_returns_zero(self):
        with pytest.warns(DegenerateSimilarityWarning):
            assert cosine_sim(Tensor([0.0, 0.0]), Tensor([1.0, 2.0])) == 0.0

    def test_bounded(self, rng):
        for _ in range(50):
            a, b = rng.normal(size=4) * 1e3, rng.normal(size=4) * 1e-3
            s = cosine_sim(Tensor(a), Tensor(b))
            assert -1.0 <= s <= 1.0
            assert s == pytest.approx(oracles.cosine_loops(list(a), list(b)), abs=1e-12)


def _check(fn, params, tol=1e-4, h=1e-5):
    report = finite_diff_check(fn, params, h=h)
    assert report.ok(tol), (
        f"max rel err {report.max_rel_err:.3e} at {report.worst_param}{report.worst_index}: "
        f"analytic {report.analytic_at_worst:.6e} vs numeric {report.numeric_at_worst:.6e}"
    )


class TestGradients:
    """Per-op finite difference checks on small random instances."""

    def test_conv2d_spec_instance(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        _check(lambda: (conv2d(x, w) * Tensor(rng_fixed_weights((1, 3, 4, 4)))).sum(),
               {"x": x, "w": w}, tol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_conv2d_random(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
        probe = Tensor(rng.normal(size=(2, 2, 5, 5)))
        _check(lambda: (conv2d(x, w) * probe).sum(), {"x": x, "w": w}, tol=1e-6)

    @pytest.mark.parametrize("xs,ws", CONV_SHAPES)
    def test_conv2d_nonsquare_and_k5(self, xs, ws):
        rng = np.random.default_rng(sum(xs) + sum(ws))
        x = Tensor(rng.normal(size=xs), requires_grad=True)
        w = Tensor(rng.normal(size=ws), requires_grad=True)
        probe = Tensor(rng.normal(size=(xs[0], ws[0], xs[2], xs[3])))
        _check(lambda: (conv2d(x, w) * probe).sum(), {"x": x, "w": w}, tol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_instance_norm_grad(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)) * 2.0, requires_grad=True)
        g = Tensor(rng.normal(size=3) + 1.5, requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        probe = Tensor(rng.normal(size=(2, 3, 4, 4)))
        _check(lambda: (instance_norm(x, g, b, eps=1e-5) * probe).sum(), {"x": x, "g": g, "b": b})

    @pytest.mark.parametrize("seed", range(5))
    def test_softmax_grad(self, seed):
        rng = np.random.default_rng(200 + seed)
        x = Tensor(rng.normal(size=(3, 5)) * 2.0, requires_grad=True)
        probe = Tensor(rng.normal(size=(3, 5)))
        _check(lambda: (softmax(x) * probe).sum(), {"x": x})

    @pytest.mark.parametrize("seed", range(5))
    def test_softmax_cross_entropy_grad(self, seed):
        rng = np.random.default_rng(300 + seed)
        x = Tensor(rng.normal(size=(4, 6)) * 3.0, requires_grad=True)
        labels = rng.integers(0, 6, size=4)
        _check(lambda: softmax_cross_entropy(x, labels), {"x": x})

    @pytest.mark.parametrize("seed", range(5))
    def test_softmax_entropy_grad(self, seed):
        rng = np.random.default_rng(400 + seed)
        x = Tensor(rng.normal(size=(4, 5)) * 2.0, requires_grad=True)
        _check(lambda: softmax_entropy(x).mean(), {"x": x})

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_entropy_probs_grad(self, seed):
        rng = np.random.default_rng(500 + seed)
        raw = rng.uniform(0.1, 1.0, size=5)
        p = Tensor(raw / raw.sum(), requires_grad=True)
        _check(lambda: cross_entropy(p, 2), {"p": p})

    @pytest.mark.parametrize("seed", range(3))
    def test_channel_stats_grad(self, seed):
        rng = np.random.default_rng(600 + seed)
        x = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        probe_mu = Tensor(rng.normal(size=(2, 2)))
        probe_sig = Tensor(rng.normal(size=(2, 2)))

        def fn():
            mu, sig = channel_stats(x, eps=1e-8)
            return (mu * probe_mu).sum() + (sig * probe_sig).sum()

        _check(fn, {"x": x})

    def test_matmul_relu_chain(self):
        rng = np.random.default_rng(700)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        # nudge preactivations away from the relu kink
        _check(lambda: relu(matmul(a, b) + 0.05).sum(), {"a": a, "b": b})


def rng_fixed_weights(shape):
    return np.random.default_rng(99).normal(size=shape)
