"""Backbone behavior, parameter groups, source training, TTAM round trips."""

import tracemalloc

import numpy as np
import pytest

from fewshot_tta import Tensor, finite_diff_check, no_grad, softmax, softmax_cross_entropy
from fewshot_tta.data import DomainSpec, gen_domain
from fewshot_tta.errors import (
    BadMagicError,
    ConfigError,
    DataError,
    DataFormatError,
    NumericError,
    TruncatedFileError,
    VersionMismatchError,
)
from fewshot_tta.fda import FdaConfig, make_plans, mixer
from fewshot_tta.model import (
    Backbone,
    SourceConfig,
    load_model,
    predict,
    save_model,
    train_source,
)


@pytest.fixture
def small_model():
    return Backbone(widths=(3, 4, 4, 4), num_classes=5, init_seed=7)


class TestForward:
    def test_output_shapes(self, small_model, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        emb, logits = small_model.forward(x)
        assert emb.shape == (2, 4)
        assert logits.shape == (2, 5)

    def test_zero_head_gives_uniform_softmax(self, small_model, rng):
        _, logits = small_model.forward(rng.normal(size=(3, 3, 8, 8)))
        assert np.allclose(logits.data, 0.0)
        assert np.allclose(softmax(logits).data, 0.2)

    def test_eval_forward_deterministic(self, small_model, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        _, l1 = small_model.forward(x, mode="eval")
        _, l2 = small_model.forward(x, mode="eval")
        assert np.array_equal(l1.data, l2.data)

    def test_gap_of_constant_map_is_identity(self, small_model):
        # bypass the conv stack: check the pooling contract directly
        from fewshot_tta.tensor import tmean
        h = Tensor(np.broadcast_to(np.array([1.0, 2.0, 3.0, 4.0])[None, :, None, None],
                                   (1, 4, 5, 5)).copy())
        emb = tmean(h, axis=(2, 3))
        assert np.allclose(emb.data, [[1.0, 2.0, 3.0, 4.0]])

    def test_wrong_channel_count_rejected(self, small_model, rng):
        with pytest.raises(DataError, match="N x 3"):
            small_model.forward(rng.normal(size=(2, 5, 8, 8)))

    def test_bad_mode_rejected(self, small_model, rng):
        with pytest.raises(ConfigError):
            small_model.forward(rng.normal(size=(1, 3, 8, 8)), mode="test")

    def test_fda_plan_ignored_in_eval(self, small_model, rng):
        x = rng.normal(size=(4, 3, 8, 8))
        cfg = FdaConfig(p_apply=1.0)
        plans = make_plans(4, np.random.default_rng(0), cfg)
        _, base = small_model.forward(x, mode="eval")
        _, with_plan = small_model.forward(x, mode="eval", mix=mixer(plans, cfg))
        assert np.array_equal(base.data, with_plan.data)

    def test_fda_plan_changes_train_forward(self, small_model, rng):
        x = rng.normal(size=(4, 3, 8, 8))
        rng_p = np.random.default_rng(1)
        cfg = FdaConfig(p_apply=1.0)
        plans = make_plans(4, rng_p, cfg)
        while not any(p.apply for p in plans.values()):
            plans = make_plans(4, rng_p, cfg)
        base, _ = small_model.forward(x, mode="eval")
        mixed, _ = small_model.forward(x, mode="train", mix=mixer(plans, cfg))
        assert not np.allclose(base.data, mixed.data)

    def test_mix_hook_runs_after_blocks_1_and_2_in_train_mode(self, small_model, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        seen = []

        def mix(site, h):
            seen.append((site, h.shape))
            return h

        _, plain = small_model.forward(x, mode="train")
        _, hooked = small_model.forward(x, mode="train", mix=mix)
        assert seen == [(1, (2, 4, 8, 8)), (2, (2, 4, 8, 8))]
        assert np.array_equal(plain.data, hooked.data)
        small_model.forward(x, mode="eval", mix=mix)
        assert len(seen) == 2
        assert not hasattr(small_model, "hook_sites")

    def test_batch_stats_mode_differs_and_is_finite(self, small_model, rng):
        x = rng.normal(size=(4, 3, 8, 8)) * 2.0 + 1.0
        _, a = small_model.forward(x)
        _, b = small_model.forward(x, batch_stats=True)
        assert np.all(np.isfinite(b.data))
        emb_a, _ = small_model.forward(x)
        emb_b, _ = small_model.forward(x, batch_stats=True)
        assert not np.allclose(emb_a.data, emb_b.data)


class TestParamGroups:
    def test_partition(self, small_model):
        groups = small_model.param_groups()
        flat = [n for names in groups.values() for n in names]
        assert sorted(flat) == sorted(small_model.params)
        assert len(flat) == len(set(flat))
        assert groups["conv"] == ["conv1.weight", "conv2.weight", "conv3.weight"]
        assert groups["head"] == ["head.weight", "head.bias"]
        assert len(groups["norm_affine"]) == 6

    def test_norm_only_training_touches_norm_only(self, small_model, rng):
        from fewshot_tta.optim import Adam
        # a zero head blocks all upstream gradients, so give it real values
        small_model.params["head.weight"].data[:] = rng.normal(size=(4, 5))
        before = {n: p.data.copy() for n, p in small_model.params.items()}
        params = small_model.trainable_params(("norm_affine",))
        opt = Adam(params, lr=0.05)
        x = rng.normal(size=(4, 3, 8, 8))
        opt.zero_grad()
        _, logits = small_model.forward(x)
        softmax_cross_entropy(logits, [0, 1, 2, 3]).backward()
        opt.step()
        for name, p in small_model.params.items():
            if name.startswith("norm"):
                assert not np.array_equal(p.data, before[name]), name
            else:
                assert np.array_equal(p.data, before[name]), name

    def test_only_chosen_groups_require_grad(self, small_model):
        chosen = small_model.trainable_params(("norm_affine", "head"))
        for name, p in small_model.params.items():
            assert p.requires_grad == (name in chosen), name
        assert all(p.requires_grad for p in small_model.copy().params.values())
        small_model.trainable_params()
        assert all(p.requires_grad for p in small_model.params.values())

    def test_unknown_group_rejected(self, small_model):
        with pytest.raises(ConfigError):
            small_model.trainable_params(("conv", "bananas"))

    def test_copy_is_deep(self, small_model):
        dup = small_model.copy()
        assert dup.params_hash() == small_model.params_hash()
        dup.params["head.bias"].data += 1.0
        assert dup.params_hash() != small_model.params_hash()


class TestFullLossGradients:
    def test_supervised_loss_through_backbone(self):
        rng = np.random.default_rng(0)
        model = Backbone(widths=(2, 3, 3, 3), num_classes=4, init_seed=1)
        model.params["head.weight"].data[:] = rng.normal(size=(3, 4)) * 0.5
        x = rng.normal(size=(4, 2, 6, 6))
        labels = [0, 1, 2, 3]

        def fn():
            _, logits = model.forward(x, mode="train")
            return softmax_cross_entropy(logits, labels)

        report = finite_diff_check(fn, model.params, max_coords_per_param=6,
                                   rng=np.random.default_rng(2))
        assert report.ok(1e-4), (report.worst_param, report.max_rel_err)

    def test_supervised_loss_with_fda(self):
        rng = np.random.default_rng(3)
        model = Backbone(widths=(2, 3, 3, 3), num_classes=4, init_seed=1)
        model.params["head.weight"].data[:] = rng.normal(size=(3, 4)) * 0.5
        x = rng.normal(size=(4, 2, 6, 6))
        cfg = FdaConfig(p_apply=1.0, eps=1e-4)
        plans = make_plans(4, np.random.default_rng(5), cfg)
        for plan in plans.values():
            plan.apply = True

        def fn():
            _, logits = model.forward(x, mode="train", mix=mixer(plans, cfg))
            return softmax_cross_entropy(logits, [0, 1, 2, 3])

        report = finite_diff_check(fn, model.params, max_coords_per_param=6,
                                   rng=np.random.default_rng(6))
        assert report.ok(1e-4), (report.worst_param, report.max_rel_err)

    def test_supervised_loss_with_batch_stats(self):
        rng = np.random.default_rng(4)
        model = Backbone(widths=(2, 3, 3, 3), num_classes=4, init_seed=1)
        model.params["head.weight"].data[:] = rng.normal(size=(3, 4)) * 0.5
        x = Tensor(rng.normal(size=(4, 2, 6, 5)), requires_grad=True)

        def fn():
            _, logits = model.forward(x, mode="train", batch_stats=True)
            return softmax_cross_entropy(logits, [0, 1, 2, 3])

        report = finite_diff_check(fn, {"x": x, **model.params}, max_coords_per_param=6,
                                   rng=np.random.default_rng(7))
        assert report.ok(1e-4), (report.worst_param, report.max_rel_err)


class TestTrainSource:
    def make_toy_domains(self):
        spec_a = DomainSpec(domain_id=0, gain=np.array([1.0, 1.0, 1.0]),
                            bias=np.zeros(3), noise_std=0.05, seed=1)
        return [gen_domain(2, 30, spec_a, 8, template_seed=4)]

    def test_separable_toy_reaches_high_accuracy(self):
        domains = self.make_toy_domains()
        cfg = SourceConfig(iters=150, lr=3e-3, batch_size=16)
        model, curve = train_source(domains, cfg, 0, widths=(3, 4, 8, 8), num_classes=2)
        x = np.stack([r.pixels for r in domains[0]])
        y = np.array([r.label for r in domains[0]])
        acc = float(np.mean(predict(model, x) == y))
        assert acc >= 0.99
        assert curve[0][1] > curve[-1][1]

    def test_training_deterministic(self):
        domains = self.make_toy_domains()
        cfg = SourceConfig(iters=30, lr=1e-3, batch_size=16)
        m1, _ = train_source(domains, cfg, 9, widths=(3, 4, 4, 4), num_classes=2)
        m2, _ = train_source(domains, cfg, 9, widths=(3, 4, 4, 4), num_classes=2)
        assert m1.params_hash() == m2.params_hash()

    def test_no_records_rejected(self):
        with pytest.raises(DataError):
            train_source([[]], SourceConfig(iters=1), 0)


class TestModelFile:
    def test_round_trip_forward_identical(self, small_model, tmp_path, rng):
        path = tmp_path / "m.ttam"
        save_model(path, small_model)
        loaded = load_model(path)
        assert loaded.widths == small_model.widths
        assert loaded.num_classes == small_model.num_classes
        assert loaded.params_hash() == small_model.params_hash()
        x = rng.normal(size=(2, 3, 8, 8))
        _, a = small_model.forward(x)
        _, b = loaded.forward(x)
        assert np.array_equal(a.data, b.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ttam"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(BadMagicError):
            load_model(path)

    def test_version_mismatch(self, small_model, tmp_path):
        path = tmp_path / "v.ttam"
        save_model(path, small_model)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError, match="version 2"):
            load_model(path)

    def test_header_size_is_checked_before_allocating(self, tmp_path):
        # a default-width file whose header claims a second width of 5,000:
        # building that Backbone would take about 11.5 MB for conv2 alone
        path = tmp_path / "w.ttam"
        save_model(path, Backbone(num_classes=6))
        blob = bytearray(path.read_bytes())
        blob[16:20] = (5000).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFileError, match="cut short"):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_non_finite_parameter_is_format_error(self, small_model, tmp_path):
        model = small_model.copy()
        model.params["conv1.weight"].data[0, 0, 0, 0] = np.nan
        path = tmp_path / "n.ttam"
        save_model(path, model)
        with pytest.raises(DataFormatError, match="'conv1.weight' has non-finite"):
            load_model(path)

    def test_truncated_names_parameter(self, small_model, tmp_path):
        path = tmp_path / "t.ttam"
        save_model(path, small_model)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 200])
        with pytest.raises(TruncatedFileError, match="head"):
            load_model(path)

    @pytest.mark.parametrize("offset, value, message", [
        (16, 0, "widths"),        # second channel width
        (32, 1, "num_classes"),   # class count, after the 4 widths and embed_dim
    ])
    def test_bad_architecture_is_format_error(self, small_model, tmp_path, offset, value, message):
        path = tmp_path / "a.ttam"
        save_model(path, small_model)
        blob = bytearray(path.read_bytes())
        blob[offset: offset + 4] = value.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match=message):
            load_model(path)

    def test_trailing_garbage_rejected(self, small_model, tmp_path):
        path = tmp_path / "g.ttam"
        save_model(path, small_model)
        path.write_bytes(path.read_bytes() + b"\x00" * 16)
        with pytest.raises(DataFormatError, match="trailing"):
            load_model(path)


@pytest.fixture
def default_model(rng):
    """The default widths at 16 x 16, with a nonzero head so logits carry the embedding."""
    model = Backbone(num_classes=6, init_seed=3)
    model.params["head.weight"].data = rng.normal(size=(32, 6))
    model.params["head.bias"].data = rng.normal(size=6)
    return model


class TestInfer:
    @pytest.mark.parametrize("n", [1, 8, 9, 13, 17, 20])
    @pytest.mark.parametrize("batch_stats", [False, True])
    def test_equals_graph_mode_forward(self, default_model, rng, n, batch_stats):
        x = rng.normal(size=(n, 3, 16, 16))
        emb, logits = default_model.forward(x, batch_stats=batch_stats)
        assert logits.requires_grad
        with no_grad():
            _, nograd_logits = default_model.forward(x, batch_stats=batch_stats)
        inf_emb, inf_logits = default_model.infer(x, batch_stats=batch_stats)
        assert np.array_equal(nograd_logits.data, logits.data)
        assert np.array_equal(inf_emb, emb.data)
        assert np.array_equal(inf_logits, logits.data)

    def test_bad_input_rejected(self, default_model, rng):
        with pytest.raises(DataError, match="input must be"):
            default_model.infer(rng.normal(size=(20, 4, 16, 16)))
        x = rng.normal(size=(20, 3, 16, 16))
        x[17, 0, 3, 3] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            default_model.infer(x)


class TestPredict:
    def test_batch_equals_per_sample(self, default_model, rng):
        x = rng.normal(size=(256, 3, 16, 16))
        preds = predict(default_model, x)
        assert np.array_equal(preds, [predict(default_model, x[i: i + 1])[0] for i in range(len(x))])
        _, logits = default_model.forward(x)
        assert np.array_equal(preds, np.argmax(logits.data, axis=1))

    def test_matches_forward_argmax(self, small_model, rng):
        x = rng.normal(size=(5, 3, 8, 8))
        with no_grad():
            _, logits = small_model.forward(x)
        assert np.array_equal(predict(small_model, x), np.argmax(logits.data, axis=1))

    def test_does_not_mutate(self, small_model, rng):
        before = small_model.params_hash()
        predict(small_model, rng.normal(size=(4, 3, 8, 8)))
        assert small_model.params_hash() == before
