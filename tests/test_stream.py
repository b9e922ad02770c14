"""Online adaptation loop: filtering, pseudo-labels, masked loss, baselines."""

import tracemalloc

import numpy as np
import pytest

import oracles
from fewshot_tta import tensor
from fewshot_tta.data import SampleRecord, SupportSet, records_as_arrays
from fewshot_tta.errors import ConfigError, DataError
from fewshot_tta.fda import FdaConfig
from fewshot_tta.finetune import FinetuneConfig, finetune
from fewshot_tta.model import Backbone
from fewshot_tta.optim import Adam
from fewshot_tta.prototypes import PrototypeBank, init_bank
from fewshot_tta.stream import (WHOLE_GRAPH_SHARE, AdaptConfig, adapt_batch,
                                consistency_mask, entropy, entropy_filter, entropy_min_loss,
                                init_adapt_state, make_stream, online_loss, pseudo_label,
                                resolve_method, run_baseline, selected_count, tent_batch)
from fewshot_tta.tensor import Tensor, softmax


def _model(rng, num_classes=4, widths=(3, 4, 8, 8)):
    m = Backbone(widths=widths, num_classes=num_classes, init_seed=7)
    # a zero head blocks all upstream gradients, so give it real values
    w = m.params["head.weight"]
    w.data = rng.normal(0.0, 0.5, size=w.data.shape)
    return m


def _bank(rng, model, num_classes=4):
    emb = rng.normal(size=(num_classes * 3, model.widths[-1]))
    labels = np.repeat(np.arange(num_classes), 3)
    return init_bank(emb, labels, num_classes)


def _aligned_bank(model):
    # prototypes along the head's weight columns, so head and prototype
    # argmax agree often enough for masked updates to actually fire
    return PrototypeBank(model.params["head.weight"].data.T.copy())


def _records(rng, n, num_classes=4, size=8):
    return [SampleRecord(label=int(rng.integers(num_classes)),
                         pixels=rng.normal(size=(3, size, size)), domain_id=0)
            for _ in range(n)]


class TestEntropy:
    def test_uniform_is_log_c(self):
        assert entropy(np.full(6, 1 / 6)) == pytest.approx(np.log(6), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_matches_oracle(self, rng):
        for _ in range(10):
            p = rng.dirichlet(np.ones(5))
            assert entropy(p) == pytest.approx(oracles.entropy_loops(p), abs=1e-12)

    def test_batch_gives_each_row_bitwise(self, rng):
        probs = rng.dirichlet(np.ones(5), size=7)
        probs[2] = [0.0, 1.0, 0.0, 0.0, 0.0]
        rows = entropy(probs)
        assert isinstance(entropy(probs[0]), float)
        assert rows.shape == (7,)
        assert all(rows[i] == entropy(probs[i]) for i in range(7))


class TestEntropyFilter:
    def test_selects_most_confident(self):
        probs = np.array([[0.25, 0.25, 0.25, 0.25],
                          [0.97, 0.01, 0.01, 0.01],
                          [0.4, 0.3, 0.2, 0.1],
                          [0.01, 0.97, 0.01, 0.01]])
        assert entropy_filter(probs, 0.5).tolist() == [1, 3]

    def test_result_is_ascending(self, rng):
        probs = rng.dirichlet(np.ones(4), size=16)
        sel = entropy_filter(probs, 0.75)
        assert sel.tolist() == sorted(sel.tolist())

    def test_ties_prefer_lower_index(self):
        probs = np.tile(np.array([[0.7, 0.1, 0.1, 0.1]]), (6, 1))
        assert entropy_filter(probs, 0.5).tolist() == [0, 1, 2]

    def test_alpha_zero_empty(self, rng):
        probs = rng.dirichlet(np.ones(4), size=8)
        assert entropy_filter(probs, 0.0).size == 0

    def test_alpha_one_keeps_all(self, rng):
        probs = rng.dirichlet(np.ones(4), size=8)
        assert entropy_filter(probs, 1.0).tolist() == list(range(8))

    def test_floor_count(self, rng):
        probs = rng.dirichlet(np.ones(3), size=10)
        assert entropy_filter(probs, 0.37).size == 3
        assert entropy_filter(probs, 0.3).size == 3

    def test_matches_oracle(self, rng):
        for alpha in (0.25, 0.5, 0.6, 1.0):
            probs = rng.dirichlet(np.ones(5), size=12)
            ents = [oracles.entropy_loops(row) for row in probs]
            assert entropy_filter(probs, alpha).tolist() == oracles.entropy_filter_loops(ents, alpha)

    def test_bad_alpha_rejected(self, rng):
        with pytest.raises(ConfigError, match="alpha"):
            entropy_filter(rng.dirichlet(np.ones(3), size=4), 1.5)

    def test_bad_shape_rejected(self):
        with pytest.raises(DataError):
            entropy_filter(np.ones(5) / 5, 0.5)


class TestPseudoLabel:
    def test_argmax(self):
        z = np.array([[0.1, 2.0, -1.0], [3.0, 0.0, 1.0]])
        assert pseudo_label(z).tolist() == [1, 0]

    def test_ties_take_lowest_class(self):
        z = np.array([[1.0, 1.0, 1.0], [0.0, 2.0, 2.0]])
        assert pseudo_label(z).tolist() == [0, 1]

    def test_matches_oracle(self, rng):
        z = rng.normal(size=(8, 5))
        assert pseudo_label(z).tolist() == [oracles.argmax_loops(row) for row in z]

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="finite"):
            pseudo_label(np.array([[np.nan, 0.0]]))


class TestConsistencyMask:
    def test_agreement_pattern(self):
        p = np.array([[0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
        q = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]])
        assert consistency_mask(p, q).tolist() == [1, 0, 0]

    def test_single_vector(self):
        # only B x C batches: one vector, or a 3-d array, is rejected
        for shape in ((2,), (1, 2, 2)):
            p = np.full(shape, 0.5)
            with pytest.raises(DataError, match="B x C"):
                consistency_mask(p, p)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            consistency_mask(np.ones((2, 3)) / 3, np.ones((3, 3)) / 3)


class TestOnlineLoss:
    def test_all_masked_out_is_none(self):
        probs = Tensor(np.full((3, 4), 0.25), requires_grad=True)
        assert online_loss(probs, [0, 1, 2], [0, 0, 0]) is None

    def test_empty_selection_is_none(self):
        probs = Tensor(np.zeros((0, 4)), requires_grad=True)
        assert online_loss(probs, np.zeros(0, dtype=int), np.zeros(0)) is None

    def test_single_sample_value(self):
        probs = Tensor(np.array([[0.2, 0.5, 0.3]]), requires_grad=True)
        loss = online_loss(probs, [1], [1])
        assert loss.item() == pytest.approx(-np.log(0.5), abs=1e-12)

    def test_mask_excludes_samples(self):
        probs = Tensor(np.array([[0.9, 0.1], [0.1, 0.9]]), requires_grad=True)
        loss = online_loss(probs, [0, 0], [1, 0])
        assert loss.item() == pytest.approx(-np.log(0.9), abs=1e-12)

    def test_matches_oracle(self, rng):
        p = rng.dirichlet(np.ones(4), size=6)
        y = rng.integers(0, 4, size=6)
        m = rng.integers(0, 2, size=6)
        if m.sum() == 0:
            m[0] = 1
        probs = Tensor(p, requires_grad=True)
        want = oracles.online_loss_loops(p.tolist(), y.tolist(), m.tolist())
        assert online_loss(probs, y, m).item() == pytest.approx(want, abs=1e-12)

    def test_masked_rows_get_no_gradient(self):
        probs = Tensor(np.array([[0.7, 0.3], [0.4, 0.6], [0.5, 0.5]]), requires_grad=True)
        loss = online_loss(probs, [0, 1, 0], [1, 0, 1])
        loss.backward()
        assert np.all(probs.grad[1] == 0.0)
        assert np.any(probs.grad[0] != 0.0)
        assert np.any(probs.grad[2] != 0.0)

    def test_bad_label_rejected(self):
        probs = Tensor(np.full((2, 3), 1 / 3), requires_grad=True)
        with pytest.raises(DataError, match="range"):
            online_loss(probs, [0, 3], [1, 1])

    def test_misaligned_rejected(self):
        probs = Tensor(np.full((2, 3), 1 / 3), requires_grad=True)
        with pytest.raises(DataError):
            online_loss(probs, [0], [1, 1])


class TestEntropyMinLoss:
    def test_value_is_mean_row_entropy(self, rng):
        z = rng.normal(size=(5, 4))
        probs = softmax(Tensor(z)).data
        want = np.mean([oracles.entropy_loops(row) for row in probs])
        assert entropy_min_loss(Tensor(z)).item() == pytest.approx(want, abs=1e-12)

    def test_confident_batch_has_tiny_gradient(self):
        z = Tensor(np.array([[40.0, 0.0, 0.0], [0.0, 40.0, 0.0]]), requires_grad=True)
        loss = entropy_min_loss(z)
        loss.backward()
        assert np.max(np.abs(z.grad)) < 1e-6


class TestAdaptBatch:
    def test_returns_pre_update_predictions(self, rng):
        model = _model(rng)
        frozen = model.copy()
        state = init_adapt_state(model, _aligned_bank(model), AdaptConfig(alpha=0.5, lr=1e-2))
        x = rng.normal(size=(8, 3, 8, 8))
        preds = adapt_batch(state, x)
        _, logits = frozen.forward(x, mode="eval")
        assert preds.tolist() == np.argmax(logits.data, axis=1).tolist()
        assert model.params_hash() != frozen.params_hash()

    def test_alpha_zero_touches_nothing(self, rng):
        model = _model(rng)
        before = model.params_hash()
        state = init_adapt_state(model, _bank(rng, model), AdaptConfig(alpha=0.0))
        proto_before = state.bank.prototypes.copy()
        preds = adapt_batch(state, rng.normal(size=(6, 3, 8, 8)))
        assert preds.shape == (6,)
        assert model.params_hash() == before
        assert state.bank.prototypes.tobytes() == proto_before.tobytes()
        assert state.bank.t == 1

    def test_selection_count_recorded(self, rng):
        model = _model(rng)
        state = init_adapt_state(model, _bank(rng, model), AdaptConfig(alpha=0.5))
        adapt_batch(state, rng.normal(size=(10, 3, 8, 8)))
        assert state.selected_total == 5
        assert state.rows[0]["selected"] == 5

    def test_bank_moves_only_pseudo_labeled_classes(self, rng):
        model = _model(rng)
        bank = _bank(rng, model)
        state = init_adapt_state(model, bank, AdaptConfig(alpha=0.5))
        proto_before = bank.prototypes.copy()
        x = rng.normal(size=(8, 3, 8, 8))
        emb, logits = model.forward(x, mode="eval")
        sel = entropy_filter(softmax(logits).data, 0.5)
        seen = set(pseudo_label(logits.data[sel]).tolist())
        adapt_batch(state, x)
        for c in range(bank.class_count):
            changed = bank.prototypes[c].tobytes() != proto_before[c].tobytes()
            assert changed == (c in seen)

    def test_needs_bank(self, rng):
        model = _model(rng)
        state = init_adapt_state(model, None, AdaptConfig())
        with pytest.raises(ConfigError, match="bank"):
            adapt_batch(state, rng.normal(size=(4, 3, 8, 8)))


@pytest.fixture
def graph_rows(monkeypatch):
    """Row counts of every graph-mode Backbone.forward (no-grad ones are not counted)."""
    rows = []
    forward = Backbone.forward

    def counting(model, x, *args, **kwargs):
        if tensor._grad_enabled:
            rows.append(len(x))
        return forward(model, x, *args, **kwargs)

    monkeypatch.setattr(Backbone, "forward", counting)
    return rows


# 24 of 40 rows selected stays under WHOLE_GRAPH_SHARE (graph-free inference,
# then a graph over the kept rows); 30 of 40 goes over it (one graph forward)
KEPT_ALPHA, WHOLE_ALPHA = 0.6, 0.75


class TestAdaptBatchKeptRows:
    """adapt_batch differentiates the kept rows alone, on either forward path."""

    def _mixed(self, rng, alpha):
        model = _model(rng)
        # 40 rows of 8 x 8 span two inference chunks
        x = rng.normal(size=(40, 3, 8, 8))
        # centre the head on the batch's mean embedding so its argmax varies
        # across rows, and seed the bank from the head's own labels: the head
        # and the cosine prototypes then agree on most rows but not all
        emb, _ = model.infer(x)
        model.params["head.bias"].data = -(emb.mean(axis=0) @ model.params["head.weight"].data)
        emb, logits = model.infer(x)
        bank = init_bank(emb, np.argmax(logits, axis=1), 4)
        return model, bank, AdaptConfig(alpha=alpha, lr=1e-2), x

    @pytest.mark.parametrize("alpha", [KEPT_ALPHA, WHOLE_ALPHA])
    def test_gradients_match_whole_batch_oracle(self, rng, alpha):
        model, bank, cfg, x = self._mixed(rng, alpha)
        oracle_model, oracle_bank = model.copy(), bank.copy()
        state = init_adapt_state(model, bank, cfg)
        preds = adapt_batch(state, x)
        want_preds, sel, masks, want_loss = oracles.adapt_batch_full_graph(
            oracle_model, oracle_bank, cfg, x)
        assert 0 < masks.sum() < masks.size
        assert preds.tolist() == want_preds.tolist()
        assert state.bank.prototypes.tobytes() == oracle_bank.prototypes.tobytes()
        assert state.rows[0]["loss"] == pytest.approx(want_loss, rel=1e-12, abs=0.0)
        for name, p in model.params.items():
            want = oracle_model.params[name].grad
            scale = np.max(np.abs(want))
            assert scale > 0.0, name
            assert np.max(np.abs(p.grad - want)) <= 1e-12 * scale, name

    @pytest.mark.parametrize("alpha", [KEPT_ALPHA, WHOLE_ALPHA])
    def test_head_predictions_are_infer_argmax_bitwise(self, rng, alpha):
        model, bank, cfg, x = self._mixed(rng, alpha)
        want = np.argmax(model.copy().infer(x)[1], axis=1)
        got = adapt_batch(init_adapt_state(model, bank, cfg), x)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_kept_path_graph_sees_exactly_the_kept_rows(self, rng, graph_rows):
        model, bank, cfg, x = self._mixed(rng, KEPT_ALPHA)
        state = init_adapt_state(model, bank, cfg)
        adapt_batch(state, x)
        assert 0 < state.mask_total < state.selected_total
        assert graph_rows == [state.mask_total]

    def test_whole_path_runs_one_graph_forward(self, rng, graph_rows, monkeypatch):
        model, bank, cfg, x = self._mixed(rng, WHOLE_ALPHA)
        monkeypatch.setattr(Backbone, "infer", None)
        state = init_adapt_state(model, bank, cfg)
        adapt_batch(state, x)
        assert 0 < state.mask_total < state.selected_total
        assert graph_rows == [40]

    def test_path_boundary_is_the_selected_share(self, rng, graph_rows):
        # 26 of 39 rows is exactly WHOLE_GRAPH_SHARE: still the kept-rows path
        model, bank, cfg, x = self._mixed(rng, 2 / 3)
        state = init_adapt_state(model, bank, cfg)
        adapt_batch(state, x[:39])
        assert selected_count(2 / 3, 39) / 39 == WHOLE_GRAPH_SHARE
        assert 0 < state.mask_total and graph_rows == [state.mask_total]

    def test_alpha_zero_builds_no_graph(self, rng, graph_rows):
        model = _model(rng)
        state = init_adapt_state(model, _bank(rng, model), AdaptConfig(alpha=0.0))
        adapt_batch(state, rng.normal(size=(6, 3, 8, 8)))
        assert graph_rows == []
        assert all(p.grad is None for p in model.params.values())

    @pytest.mark.parametrize("alpha, want_rows", [(0.5, []), (1.0, [6])])
    def test_all_zero_masks_take_no_step(self, rng, graph_rows, alpha, want_rows):
        # a head locked onto class 0 against a bank locked onto class 1; the
        # kept-rows path builds no graph, the whole-batch one no backward
        model = _model(rng, num_classes=2)
        model.params["head.bias"].data[:] = [50.0, 0.0]
        protos = np.stack([-np.ones(model.embed_dim), np.ones(model.embed_dim)])
        state = init_adapt_state(model, PrototypeBank(protos), AdaptConfig(alpha=alpha))
        before = model.params_hash()
        adapt_batch(state, np.abs(rng.normal(size=(6, 3, 8, 8))) + 0.1)
        assert state.selected_total == int(6 * alpha) and state.mask_total == 0
        assert graph_rows == want_rows
        assert all(p.grad is None for p in model.params.values())
        assert state.rows[0]["loss"] is None and state.loss_skipped == 0
        assert model.params_hash() == before


class TestTentBatch:
    def test_norm_affine_only(self, rng):
        model = _model(rng)
        snap = {k: v.data.copy() for k, v in model.params.items()}
        state = init_adapt_state(model, None, AdaptConfig(lr=1e-2), groups=("norm_affine",))
        tent_batch(state, rng.normal(size=(6, 3, 8, 8)))
        for name, old in snap.items():
            same = np.array_equal(model.params[name].data, old)
            if name.startswith("norm"):
                assert not same, name
            else:
                assert same, name

    def test_matches_all_params_requiring_grad(self, rng):
        # the formulation in which every parameter keeps requires_grad and
        # Adam alone restricts the update to the normalization affines
        recs = _records(rng, 40)
        stream = make_stream(recs, batch_size=8, seed=3)
        model = _model(np.random.default_rng(5))
        reference = model.copy()
        run_baseline("entropy_min", model, stream, AdaptConfig(lr=1e-2))
        opt = Adam({n: p for n, p in reference.params.items() if n.startswith("norm")}, lr=1e-2)
        for batch in stream:
            _, logits = reference.forward(batch.inputs, mode="eval")
            loss = entropy_min_loss(logits)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert len(stream) == 5
        assert model.params_hash() == reference.params_hash()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_is_counted_and_the_stream_goes_on(self, rng, monkeypatch, bad):
        monkeypatch.setattr("fewshot_tta.stream.entropy_min_loss", lambda logits: Tensor(bad))
        model = _model(rng)
        before = model.params_hash()
        state = run_baseline("entropy_min", model,
                             make_stream(_records(rng, 16), batch_size=8, seed=0),
                             AdaptConfig(lr=1e-2))
        assert state.loss_skipped == 2 and state.online_total == 16
        assert [row["loss"] for row in state.rows] == [None, None]
        assert model.params_hash() == before

    def test_frozen_groups_get_no_gradient(self, rng):
        model = _model(rng)
        state = init_adapt_state(model, None, AdaptConfig(lr=1e-2), groups=("norm_affine",))
        tent_batch(state, rng.normal(size=(6, 3, 8, 8)))
        for name, p in model.params.items():
            trained = name.startswith("norm")
            assert p.requires_grad == trained, name
            assert (p.grad is not None) == trained, name

    def test_copy_after_tent_finetunes_every_group(self, rng):
        model = _model(rng)
        run_baseline("entropy_min", model, make_stream(_records(rng, 8), batch_size=8, seed=0),
                     AdaptConfig(lr=1e-2))
        dup = model.copy()
        support = SupportSet(samples=[SampleRecord(label=c, pixels=rng.normal(size=(3, 8, 8)),
                                                   domain_id=0) for c in (0, 1, 2, 3) * 2],
                             class_count=4)
        tuned, _ = finetune(dup, support, FinetuneConfig(epochs=1, lr=1e-2,
                                                         fda=FdaConfig(p_apply=0.0)), 0)
        for name, p in tuned.params.items():
            assert p.requires_grad, name
            assert not np.array_equal(p.data, dup.params[name].data), name


class TestMakeStream:
    def test_partition_sizes(self, rng):
        stream = make_stream(_records(rng, 25), batch_size=8, seed=0)
        assert [len(b.hidden_labels) for b in stream] == [8, 8, 8, 1]

    def test_covers_every_record_once(self, rng):
        recs = _records(rng, 20)
        stream = make_stream(recs, batch_size=6, seed=3)
        got = np.concatenate([b.inputs for b in stream])
        want = np.stack([r.pixels for r in recs])
        assert np.sort(got.ravel()).tolist() == np.sort(want.ravel()).tolist()

    def test_seed_determinism(self, rng):
        recs = _records(rng, 16)
        a = make_stream(recs, batch_size=4, seed=5)
        b = make_stream(recs, batch_size=4, seed=5)
        c = make_stream(recs, batch_size=4, seed=6)
        assert all(np.array_equal(x.inputs, y.inputs) for x, y in zip(a, b))
        assert any(not np.array_equal(x.inputs, y.inputs) for x, y in zip(a, c))

    def test_sorted_order_groups_classes(self, rng):
        recs = _records(rng, 24)
        stream = make_stream(recs, batch_size=6, seed=0, order="sorted")
        labels = np.concatenate([b.hidden_labels for b in stream])
        assert labels.tolist() == sorted(labels.tolist())

    @pytest.mark.parametrize("order", ["shuffled", "sorted"])
    def test_batches_match_stack_then_permute(self, rng, order):
        recs = _records(rng, 23)
        x, y = records_as_arrays(recs)
        perm = (np.random.default_rng(4).permutation(len(recs)) if order == "shuffled"
                else np.argsort(y, kind="stable"))
        x, y = x[perm], y[perm]
        stream = make_stream(recs, batch_size=5, seed=4, order=order)
        assert len(stream) == 5
        for i, batch in enumerate(stream):
            assert batch.inputs.dtype == x.dtype and batch.hidden_labels.dtype == y.dtype
            assert np.array_equal(batch.inputs, x[5 * i: 5 * i + 5])
            assert np.array_equal(batch.hidden_labels, y[5 * i: 5 * i + 5])

    def test_stacks_the_inputs_once(self, rng):
        recs = _records(rng, 200, size=16)
        nbytes = sum(rec.pixels.nbytes for rec in recs)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            make_stream(recs, batch_size=64, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 1.5 * nbytes

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            make_stream([], batch_size=4, seed=0)

    def test_bad_order_rejected(self, rng):
        with pytest.raises(ConfigError, match="order"):
            make_stream(_records(rng, 4), batch_size=2, seed=0, order="random")


class TestResolveMethod:
    def test_aliases(self):
        assert resolve_method("tent") == "entropy_min"
        assert resolve_method("erm") == "source_only"
        assert resolve_method("bn") == "norm_stat"
        assert resolve_method("ft_tent") == "ft_plus_entropy_min"
        assert resolve_method("fs_tta") == "fs_tta"

    def test_canonical_passthrough(self):
        assert resolve_method("norm_stat") == "norm_stat"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError, match="unknown method"):
            resolve_method("sgd")


class TestRunBaseline:
    def test_source_only_never_updates(self, rng):
        model = _model(rng)
        before = model.params_hash()
        stream = make_stream(_records(rng, 20), batch_size=8, seed=0)
        metrics = run_baseline("source_only", model, stream, AdaptConfig())
        assert metrics.opt is None
        assert model.params_hash() == before
        assert metrics.online_total == 20
        assert 0.0 <= metrics.final_accuracy <= 1.0

    def test_norm_stat_never_updates_but_changes_outputs(self, rng, monkeypatch):
        # the logits themselves: this model predicts one class for every
        # input, so scores and rows agree whatever the statistics
        model = _model(rng)
        seen = {False: [], True: []}
        real = model.infer

        def infer(x, batch_stats=False):
            emb, logits = real(x, batch_stats=batch_stats)
            seen[batch_stats].append(logits)
            return emb, logits

        monkeypatch.setattr(model, "infer", infer)
        before = model.params_hash()
        recs = [SampleRecord(label=int(rng.integers(4)),
                             pixels=rng.normal(size=(3, 8, 8)) * 4.0 + 3.0, domain_id=0)
                for _ in range(16)]
        stream = make_stream(recs, batch_size=8, seed=0)
        run_baseline("norm_stat", model, stream, AdaptConfig())
        run_baseline("source_only", model, stream, AdaptConfig())
        assert model.params_hash() == before
        assert len(seen[True]) == len(seen[False]) == 2
        assert not np.array_equal(np.concatenate(seen[True]), np.concatenate(seen[False]))

    def test_entropy_min_touches_norm_affine_only(self, rng):
        model = _model(rng)
        snap = {k: v.data.copy() for k, v in model.params.items()}
        stream = make_stream(_records(rng, 16), batch_size=8, seed=1)
        run_baseline("tent", model, stream, AdaptConfig(lr=1e-2))
        for name, old in snap.items():
            same = np.array_equal(model.params[name].data, old)
            assert same == (not name.startswith("norm")), name

    def test_fs_tta_requires_bank(self, rng):
        model = _model(rng)
        stream = make_stream(_records(rng, 8), batch_size=4, seed=0)
        with pytest.raises(ConfigError, match="bank"):
            run_baseline("fs_tta", model, stream, AdaptConfig())

    def test_fs_tta_runs_and_selects(self, rng):
        model = _model(rng)
        stream = make_stream(_records(rng, 24), batch_size=8, seed=0)
        metrics = run_baseline("fs_tta", model, stream, AdaptConfig(alpha=0.5),
                               bank=_bank(rng, model))
        assert metrics.online_total == 24
        assert metrics.selected_total == 12
        assert len(metrics.rows) == 3
        assert metrics.final_accuracy == metrics.rows[-1]["cumulative_accuracy"]

    def test_hidden_labels_never_reach_adaptation(self, rng):
        recs = _records(rng, 24)
        cfg = AdaptConfig(alpha=0.5, lr=1e-2)

        model_a = _model(np.random.default_rng(11))
        stream_a = make_stream(recs, batch_size=8, seed=2)
        ma = run_baseline("fs_tta", model_a, stream_a, cfg, bank=_aligned_bank(model_a))

        model_b = _model(np.random.default_rng(11))
        stream_b = make_stream(recs, batch_size=8, seed=2)
        shuffler = np.random.default_rng(99)
        for batch in stream_b:
            batch.hidden_labels = shuffler.permutation(batch.hidden_labels)
        run_baseline("fs_tta", model_b, stream_b, cfg, bank=_aligned_bank(model_b))

        assert ma.mask_total > 0
        assert model_a.params_hash() == model_b.params_hash()

    def test_prefix_replay_matches(self, rng):
        recs = _records(rng, 32)
        cfg = AdaptConfig(alpha=0.5, lr=1e-2)
        stream = make_stream(recs, batch_size=8, seed=4)

        model_a = _model(np.random.default_rng(21))
        state_a = init_adapt_state(model_a, _bank(np.random.default_rng(22), model_a), cfg)
        full_preds = [adapt_batch(state_a, b.inputs) for b in stream]

        model_b = _model(np.random.default_rng(21))
        state_b = init_adapt_state(model_b, _bank(np.random.default_rng(22), model_b), cfg)
        prefix_preds = [adapt_batch(state_b, b.inputs) for b in stream[:2]]

        for got, want in zip(prefix_preds, full_preds[:2]):
            assert got.tolist() == want.tolist()

    def test_same_seeds_bitwise_deterministic(self, rng):
        recs = _records(rng, 24)
        cfg = AdaptConfig(alpha=0.6, lr=1e-3)
        outs = []
        for _ in range(2):
            model = _model(np.random.default_rng(31))
            stream = make_stream(recs, batch_size=8, seed=7)
            m = run_baseline("fs_tta", model, stream, cfg, bank=_aligned_bank(model))
            outs.append((m.online_correct, repr(m.rows), model.params_hash()))
            last = m
        assert outs[0] == outs[1]
        assert last.mask_total > 0
