"""Numeric core: forward values against oracles, gradients against finite differences."""

import json
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from fewshot_tta.errors import DegenerateSimilarityWarning
from fewshot_tta.gradcheck import finite_diff_check
from fewshot_tta.model import Backbone
from fewshot_tta.tensor import (
    Tensor,
    channel_stats,
    conv2d,
    cosine_sim,
    cross_entropy,
    div,
    exp,
    instance_norm,
    log,
    matmul,
    mul,
    neg,
    no_grad,
    relu,
    softmax,
    softmax_cross_entropy,
    softmax_entropy,
    sqrt,
    sub,
    take_rows,
    tmean,
    tsum,
)
from fewshot_tta.tensor import _freed_backward, _normalize, _toposort, sample_chunks, unit_rows

import oracles


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestBasics:
    def test_relu_definition(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("op, direct", [
        (neg, np.negative), (sqrt, np.sqrt), (exp, np.exp), (log, np.log),
        (relu, lambda v: np.maximum(v, 0.0))])
    def test_unary_ops_take_plain_arrays(self, op, direct):
        values = np.array([0.5, 1.0, 2.0])
        assert _same_bits(op(values).data, direct(values))

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

    def test_finite_outputs_on_finite_inputs(self, rng):
        x = Tensor(rng.normal(size=(4, 3, 6, 6)) * 100.0, requires_grad=True)
        g = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = instance_norm(relu(x), g, b)
        loss = out.mean()
        loss.backward()
        assert np.all(np.isfinite(out.data))
        assert np.all(np.isfinite(x.grad))

    def test_backward_needs_a_scalar(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ValueError, match=r"scalar output, got shape \(2, 3\)"):
            (x * 2.0).backward()
        assert x.grad is None


class TestDerivedOps:
    """sub is add of a neg and tmean is tsum over a count; both keep the bits of
    the direct forms, forward and in every leaf gradient."""

    def test_sub_is_the_difference_and_its_gradients_the_closed_forms(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        g = rng.normal(size=(2, 3, 4))
        out = sub(a, b)
        assert _same_bits(out.data, a.data - b.data)
        (out * Tensor(g)).sum().backward()
        assert _same_bits(a.grad, g)
        assert _same_bits(b.grad, (-g).sum(axis=0).sum(axis=1, keepdims=True))

    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("axis, count", [(None, 120), (1, 3), ((2, 3), 20)])
    def test_tmean_is_numpy_mean_and_its_gradient_g_over_count(self, rng, axis, count, keepdims):
        a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        out = tmean(a, axis, keepdims)
        assert _same_bits(out.data, a.data.mean(axis=axis, keepdims=keepdims))
        g = rng.normal(size=out.shape)
        (out * Tensor(g)).sum().backward()
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        assert _same_bits(a.grad, np.broadcast_to(g / count, a.shape))


class TestConstantOperands:
    @pytest.mark.parametrize("op", [mul, div])
    def test_constant_side_gets_none_and_the_other_keeps_its_bits(self, rng, op):
        a, b = rng.normal(size=(2, 3)), rng.uniform(1.0, 2.0, size=3)
        g = rng.normal(size=(2, 3))
        both = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (op(*both) * Tensor(g)).sum().backward()
        for side in (0, 1):
            operands = [Tensor(a), Tensor(b)]
            operands[side].requires_grad = True
            grads = op(*operands)._backward_fn(g)
            assert grads[1 - side] is None
            assert _same_bits(grads[side], both[side].grad)


class TestAllocatorPolicy:
    """Freed heap memory stays in the process, so hot loops stop faulting."""

    CHILD = textwrap.dedent("""
        import json, resource, statistics
        import numpy as np
        from fewshot_tta.config import RunConfig
        from fewshot_tta.harness import prepare_benchmark
        from fewshot_tta.model import Backbone, SourceConfig, train_source
        from fewshot_tta.optim import Adam

        def minflt():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        cfg = RunConfig()
        bench = prepare_benchmark(cfg)
        model = Backbone(widths=cfg.widths, num_classes=bench.class_count, init_seed=0)
        x = np.stack([r.pixels for r in bench.target_data[:640]])
        infer = []
        for i in range(0, len(x), 64):
            before = minflt()
            model.infer(x[i:i + 64], batch_stats=True)
            infer.append(minflt() - before)
        marks, step = [], Adam.step
        def counted(self):
            marks.append(minflt())
            return step(self)
        Adam.step = counted
        train_source(bench.source_data, SourceConfig(iters=20, batch_size=32), 0,
                     widths=cfg.widths, num_classes=bench.class_count)
        print(json.dumps({"infer": statistics.median(infer[2:]),
                          "source": statistics.median(np.diff(marks)[4:].tolist())}))
    """)

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="the allocator policy is set only under glibc on Linux")
    def test_fresh_process_steps_take_almost_no_page_faults(self):
        """Batch-statistics inference over 64-sample batches, then source steps
        at batch 32, in a fresh interpreter: with glibc's default thresholds each
        takes thousands of minor faults (its freed temporaries went back to the
        OS), with the policy almost none after warm-up."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        env["PYTHONPATH"] = str(src)
        proc = subprocess.run([sys.executable, "-c", self.CHILD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        medians = json.loads(proc.stdout)
        assert medians["infer"] < 50 and medians["source"] < 50, medians


class TestGraphRelease:
    """Backward frees each non-leaf node once its own closure has run."""

    def test_diamond_node_gets_every_child_contribution(self, rng):
        x = Tensor(rng.normal(size=5), requires_grad=True)
        y = x * x
        z = y + y * 3.0
        z.sum().backward()
        assert np.array_equal(x.grad, 8.0 * x.data)

    def test_two_graphs_without_zero_grad_sum_into_the_leaf(self, rng):
        x = Tensor(rng.normal(size=4), requires_grad=True)
        (x * x).sum().backward()
        (x * 3.0).sum().backward()
        assert np.array_equal(x.grad, 2.0 * x.data + 3.0)

    def test_non_leaf_nodes_are_freed_and_leaves_keep_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 3, 3)), requires_grad=True)
        gamma, beta = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
        loss = instance_norm(relu(conv2d(x, w)), gamma, beta).mean()
        nodes = _toposort(loss)
        leaves = [n for n in nodes if n._backward_fn is None]
        inner = [n for n in nodes if n._backward_fn is not None]
        assert len(leaves) == 4 and len(inner) >= 4
        loss.backward()
        assert all(n.grad is not None for n in leaves)
        for node in inner:
            assert node.grad is None
            assert node._backward_fn is _freed_backward
            assert node._parents == ()

    def test_second_backward_through_a_freed_graph_raises(self, rng):
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        loss = softmax_cross_entropy(matmul(Tensor(rng.normal(size=(2, 3))), w), [0, 3])
        loss.backward()
        with pytest.raises(RuntimeError, match="already freed"):
            loss.backward()

    def test_backward_from_a_freed_inner_node_raises(self, rng):
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        logits = matmul(Tensor(rng.normal(size=(2, 3))), w)
        softmax_cross_entropy(logits, [0, 3]).backward()
        with pytest.raises(RuntimeError, match="already freed"):
            tsum(logits).backward()

    def test_source_step_leaves_no_graph_memory_behind(self, rng):
        """One default-shape source step (batch 32): after backward only the
        parameter gradients and the outputs stay alive (a graph kept whole
        holds ~64 MiB here), and the step's traced peak is at most 60 MiB
        (~69 MiB when the non-leaf gradients pile up next to the graph)."""
        model = Backbone()
        x, y = rng.normal(size=(32, 3, 16, 16)), rng.integers(0, 6, size=32)
        mib = 2 ** 20
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, logits = model.forward(x, mode="train")
            loss = softmax_cross_entropy(logits, y)
            loss.backward()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(p.grad is not None for p in model.params.values())
        assert (after - before) / mib <= 1.0
        assert (peak - before) / mib <= 60.0

    def test_source_forward_keeps_only_what_backward_reads(self, rng):
        """After one default-shape source forward (batch 32) the graph holds
        the im2col matrices and normalized inputs the weight gradients read
        (~34 MiB), not the conv, norm and relu outputs (48.7 MiB with them)."""
        model = Backbone()
        x, y = rng.normal(size=(32, 3, 16, 16)), rng.integers(0, 6, size=32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, logits = model.forward(x, mode="train")
            loss = softmax_cross_entropy(logits, y)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (live - before) / 2 ** 20 <= 36.0

    def test_dropped_intermediate_dies_and_gradients_are_unchanged(self, rng):
        x = rng.normal(size=(3, 2, 5, 5))
        w0 = rng.normal(size=(4, 2, 3, 3))
        gamma0, beta0 = rng.normal(size=4), rng.normal(size=4)

        def grads(keep: bool):
            w, gamma, beta = (Tensor(a, requires_grad=True) for a in (w0, gamma0, beta0))
            h = conv2d(Tensor(x), w)
            ref = weakref.ref(h.data)
            r = relu(h)
            kept = h if keep else None
            del h
            loss = instance_norm(r, gamma, beta).sum()
            assert (ref() is None) != keep
            loss.backward()
            return w.grad, gamma.grad, beta.grad

        for got, want in zip(grads(keep=False), grads(keep=True)):
            assert np.array_equal(got, want)

    def test_no_closure_holds_a_non_leaf_tensor(self, rng):
        model = Backbone()
        _, logits = model.forward(rng.normal(size=(4, 3, 16, 16)), mode="train")
        loss = softmax_cross_entropy(logits, rng.integers(0, 6, size=4))
        inner = [n for n in _toposort(loss) if n._backward_fn is not None]
        assert len(inner) >= 12

        def non_leaf_tensor(value):
            return isinstance(value, Tensor) and value._backward_fn is not None

        for node in inner:
            assert not any(non_leaf_tensor(parent) for parent in node._parents)
            for cell in node._backward_fn.__closure__ or ():
                assert not non_leaf_tensor(cell.cell_contents), node._backward_fn


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
        probs = softmax(Tensor(logits))
        for i in range(6):
            fused = softmax_cross_entropy(Tensor(logits[i: i + 1]), labels[i: i + 1])
            direct = -math.log(probs.data[i, labels[i]])
            assert fused.item() == pytest.approx(direct, rel=1e-12)


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
            tsum(mul(out, probe)).backward()
            results.append([out.data] + [t.grad for t in ts])
        for got, want in zip(*results):
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("axes", [(2, 3), (0, 2, 3)])
    def test_affine_gradients_independent_of_input_gradient(self, rng, axes):
        """Without x needing a gradient the backward skips it; the affine
        gradients stay bitwise those of the full backward."""
        x = rng.normal(size=(8, 4, 6, 6)) * 2.0 + 1.0
        gamma, beta = rng.normal(size=4) + 1.0, rng.normal(size=4)
        probe = rng.normal(size=x.shape)
        grads = []
        for x_grad in (True, False):
            xt = Tensor(x, requires_grad=x_grad)
            gt, bt = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
            tsum(mul(_normalize(xt, gt, bt, axes, 1e-5), probe)).backward()
            assert (xt.grad is not None) == x_grad
            grads.append((gt.grad, bt.grad))
        for full, skipped in zip(*grads):
            assert np.array_equal(full, skipped)


# (x shape, kernel shape): H != W with k=3, and k=5 wider than W
CONV_SHAPES = [((2, 3, 4, 7), (2, 3, 3, 3)),
               ((2, 2, 6, 3), (3, 2, 5, 5))]


# (x shape, kernel shape) around the column budget: chunk edges at N = 7, 8,
# 13 and 64 at 16 x 16 (8 samples a chunk), H != W, k = 5, and one sample
# whose 48 x 48 = 2304 columns exceed the budget (1-sample chunks)
CHUNK_SHAPES = [((1, 3, 16, 16), (4, 3, 3, 3)),
                ((7, 4, 16, 16), (5, 4, 3, 3)),
                ((8, 4, 16, 16), (5, 4, 3, 3)),
                ((13, 4, 16, 16), (5, 4, 3, 3)),
                ((64, 8, 16, 16), (8, 8, 3, 3)),
                ((13, 3, 12, 20), (4, 3, 5, 5)),
                ((3, 2, 48, 48), (3, 2, 3, 3))]


class TestConv2d:
    @pytest.mark.parametrize("n,h,w,sizes", [
        (0, 16, 16, [0]), (1, 16, 16, [1]), (8, 16, 16, [8]), (9, 16, 16, [9]),
        (16, 16, 16, [8, 8]), (17, 16, 16, [8, 9]), (20, 16, 16, [8, 8, 4]),
        (3, 48, 48, [1, 2]), (5, 8, 8, [5])])
    def test_sample_chunks_cover_without_a_lone_trailing_sample(self, n, h, w, sizes):
        chunks = sample_chunks(n, h, w)
        assert [s.stop - s.start for s in chunks] == sizes
        assert chunks[0].start == 0 and chunks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))

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
            tsum(mul(conv2d(xt, wt), probe)).backward()
            assert (xt.grad is None) == (not x_grad)
            grads.append(wt.grad)
        assert np.array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("xs,ws", CHUNK_SHAPES)
    def test_no_grad_equals_graph_mode(self, rng, xs, ws):
        x, w = rng.normal(size=xs), rng.normal(size=ws)
        graph = conv2d(Tensor(x), Tensor(w, requires_grad=True))
        assert graph.requires_grad
        with no_grad():
            chunked = conv2d(Tensor(x), Tensor(w, requires_grad=True))
        frozen_kernel = conv2d(Tensor(x, requires_grad=True), Tensor(w))
        assert np.array_equal(chunked.data, graph.data)
        assert np.array_equal(frozen_kernel.data, graph.data)
        assert chunked.data.flags.c_contiguous

    @pytest.mark.parametrize("xs,ws", CHUNK_SHAPES)
    @pytest.mark.parametrize("kernel_grad", [False, True])
    def test_input_grad_equals_full_im2col_formula(self, rng, xs, ws, kernel_grad):
        x, w = rng.normal(size=xs), rng.normal(size=ws)
        probe = rng.normal(size=(xs[0], ws[0], xs[2], xs[3]))
        xt = Tensor(x, requires_grad=True)
        tsum(mul(conv2d(xt, Tensor(w, requires_grad=kernel_grad)), probe)).backward()
        assert np.array_equal(xt.grad, oracles.conv2d_input_grad_full(probe, w))

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

    def test_unit_rows_keeps_zero_rows_zero(self, rng):
        x = rng.normal(size=(4, 3))
        x[1] = 0.0
        with pytest.warns(DegenerateSimilarityWarning):
            u = unit_rows(x)
        assert np.array_equal(u[1], np.zeros(3))
        assert np.allclose(np.linalg.norm(u[[0, 2, 3]], axis=1), 1.0, atol=1e-15)


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
