"""Support-set fine-tuning: reduction semantics, budgets, evaluation purity."""

import csv
import sys

import numpy as np
import pytest

from fewshot_tta.data import SampleRecord, SupportSet, write_csv
from fewshot_tta.errors import ConfigError, DataError, NumericError
from fewshot_tta.fda import FdaConfig
from fewshot_tta.finetune import FinetuneConfig, eval_accuracy, finetune
from fewshot_tta.model import Backbone
from fewshot_tta.optim import Adam
from fewshot_tta.tensor import cross_entropy, div, reshape, softmax, softmax_cross_entropy

NO_FDA = FdaConfig(p_apply=0.0)


def _model(rng, num_classes=3, widths=(3, 4, 8, 8)):
    m = Backbone(widths=widths, num_classes=num_classes, init_seed=5)
    # a zero head blocks all upstream gradients, so give it real values
    w = m.params["head.weight"]
    w.data = rng.normal(0.0, 0.5, size=w.data.shape)
    return m


def _support(rng, k=2, num_classes=3, size=8):
    samples = [SampleRecord(label=c, pixels=rng.normal(size=(3, size, size)), domain_id=0)
               for c in range(num_classes) for _ in range(k)]
    return SupportSet(samples=samples, class_count=num_classes)


def _separable_support(rng, k=3, num_classes=3, size=8):
    base = [rng.normal(0.0, 1.0, size=(3, size, size)) * 0.3 + 2.0 * (c - 1)
            for c in range(num_classes)]
    samples = [SampleRecord(label=c, pixels=base[c] + rng.normal(0.0, 0.05, size=(3, size, size)),
                            domain_id=0)
               for c in range(num_classes) for _ in range(k)]
    return SupportSet(samples=samples, class_count=num_classes)


class TestFinetuneConfig:
    def test_negative_epochs_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            FinetuneConfig(epochs=-1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ConfigError, match="lr"):
            FinetuneConfig(lr=0.0)

    def test_bad_batch_rejected(self, read_config):
        # the batch size is the constant BATCH_SIZE, not a key, so setting it fails by name
        with pytest.raises(ConfigError, match=r"unknown FinetuneConfig keys: \['batch_size'\]"):
            read_config('{"finetune": {"batch_size": 0}}')


class TestFinetune:
    def test_zero_epochs_is_identity(self, rng):
        model = _model(rng)
        tuned, trace = finetune(model, _support(rng), FinetuneConfig(epochs=0), 0)
        assert tuned.params_hash() == model.params_hash()
        assert tuned is not model
        assert trace == []

    def test_input_model_untouched(self, rng):
        model = _model(rng)
        before = model.params_hash()
        tuned, _ = finetune(model, _support(rng), FinetuneConfig(epochs=2, lr=1e-3, fda=NO_FDA), 0)
        assert model.params_hash() == before
        assert tuned.params_hash() != before

    def test_one_epoch_full_batch_equals_manual_step(self, rng):
        model = _model(rng)
        support = _support(rng)
        tuned, _ = finetune(model, support, FinetuneConfig(epochs=1, lr=1e-3, fda=NO_FDA), 0)

        manual = model.copy()
        x = np.stack([s.pixels for s in support.samples])
        y = np.array([s.label for s in support.samples])
        opt = Adam(manual.trainable_params(("conv", "norm_affine", "head")), lr=1e-3)
        _, logits = manual.forward(x, mode="train")
        loss = softmax_cross_entropy(logits, y)
        opt.zero_grad()
        loss.backward()
        opt.step()
        for name, p in manual.params.items():
            assert np.array_equal(p.data, tuned.params[name].data), name

    def test_mean_reduction_matches_per_sample_sum(self, rng):
        support = _support(rng)
        x = np.stack([s.pixels for s in support.samples])
        y = np.array([s.label for s in support.samples])
        n = len(y)

        model_a = _model(rng)
        _, logits = model_a.forward(x, mode="train")
        loss = softmax_cross_entropy(logits, y)
        loss.backward()
        mean_grads = {k: p.grad.copy() for k, p in model_a.params.items()}

        model_b = model_a.copy()
        for xi, yi in zip(x, y):
            _, zi = model_b.forward(xi[None], mode="train")
            li = div(cross_entropy(softmax(reshape(zi, zi.shape[1])), int(yi)), n)
            li.backward()
        for name, want in mean_grads.items():
            got = model_b.params[name].grad
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-10 * scale, name

    def test_loss_falls_and_support_memorized(self, rng):
        model = _model(rng)
        support = _separable_support(rng)
        tuned, trace = finetune(model, support, FinetuneConfig(epochs=60, lr=1e-2, fda=NO_FDA), 0)
        assert trace[-1]["loss"] < trace[0]["loss"]
        assert trace[-1]["support_acc"] == 1.0
        assert eval_accuracy(tuned, support.samples) == 1.0

    def test_moving_average_loss_non_increasing(self, rng):
        model = _model(rng)
        support = _separable_support(rng)
        _, trace = finetune(model, support, FinetuneConfig(epochs=10, lr=1e-3, fda=NO_FDA), 0)
        losses = [row["loss"] for row in trace]
        ma = [np.mean(losses[i - 4: i + 1]) for i in range(4, len(losses))]
        assert all(b <= a + 1e-9 for a, b in zip(ma, ma[1:]))

    def test_trace_rows_are_complete(self, rng):
        model = _model(rng)
        _, trace = finetune(model, _support(rng), FinetuneConfig(epochs=3, lr=1e-3, fda=NO_FDA), 0)
        assert [row["epoch"] for row in trace] == [1, 2, 3]
        for row in trace:
            assert np.isfinite(row["loss"])
            assert 0.0 <= row["support_acc"] <= 1.0

    def test_mixing_changes_training(self, rng):
        model = _model(rng)
        support = _support(rng)
        plain, _ = finetune(model, support, FinetuneConfig(epochs=3, lr=1e-3, fda=NO_FDA), 0)
        mixed, _ = finetune(model, support, FinetuneConfig(
            epochs=3, lr=1e-3, fda=FdaConfig(p_apply=1.0)), 0)
        assert plain.params_hash() != mixed.params_hash()

    def test_same_seed_same_result(self, rng):
        model = _model(rng)
        support = _support(rng)
        cfg = FinetuneConfig(epochs=3, lr=1e-3, fda=FdaConfig(p_apply=1.0))
        a, _ = finetune(model, support, cfg, 9)
        b, _ = finetune(model, support, FinetuneConfig(
            epochs=3, lr=1e-3, fda=FdaConfig(p_apply=1.0)), 9)
        assert a.params_hash() == b.params_hash()

    def test_trains_every_group(self, rng):
        model = _model(rng)
        tuned, _ = finetune(model, _support(rng), FinetuneConfig(epochs=2, lr=1e-2, fda=NO_FDA), 0)
        for name, p in model.params.items():
            assert not np.array_equal(p.data, tuned.params[name].data), name

    def test_nan_weights_abort_with_diagnostic(self, rng):
        model = _model(rng)
        model.params["conv1.weight"].data[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError, match="diverged at epoch 1"):
            finetune(model, _support(rng), FinetuneConfig(epochs=2, fda=NO_FDA), 0)

    def test_minibatch_path_covers_all_samples(self, rng, monkeypatch):
        """12 support samples in batches of 5 (a support set above BATCH_SIZE):
        one epoch is bitwise one Adam step per batch of the seed's first
        permutation, the trailing batch of 2 included. The package root binds
        the name finetune to the function, not the module."""
        monkeypatch.setattr(sys.modules["fewshot_tta.finetune"], "BATCH_SIZE", 5)
        model = _model(rng)
        support = _support(rng, k=4)
        tuned, _ = finetune(model, support, FinetuneConfig(epochs=1, lr=1e-3, fda=NO_FDA), 3)

        manual = model.copy()
        x = np.stack([s.pixels for s in support.samples])
        y = np.array([s.label for s in support.samples])
        opt = Adam(manual.trainable_params(), lr=1e-3)
        perm = np.random.default_rng(3).permutation(12)
        for idx in (perm[0:5], perm[5:10], perm[10:12]):
            _, logits = manual.forward(x[idx], mode="train")
            opt.minimize(softmax_cross_entropy(logits, y[idx]))
        for name, p in manual.params.items():
            assert np.array_equal(p.data, tuned.params[name].data), name


class TestEvalAccuracy:
    def test_never_mutates(self, rng):
        model = _model(rng)
        before = model.params_hash()
        data = _support(rng).samples
        eval_accuracy(model, data)
        assert model.params_hash() == before

    def test_pure_function(self, rng):
        model = _model(rng)
        data = _support(rng, k=4).samples
        assert eval_accuracy(model, data) == eval_accuracy(model, data)

    def test_empty_rejected(self, rng):
        model = _model(rng)
        with pytest.raises(DataError, match="empty"):
            eval_accuracy(model, [])

    def test_random_labels_near_chance(self, rng):
        model = _model(rng, num_classes=4)
        recs = [SampleRecord(label=int(rng.integers(4)), pixels=rng.normal(size=(3, 8, 8)),
                             domain_id=0) for _ in range(400)]
        acc = eval_accuracy(model, recs)
        assert abs(acc - 0.25) < 0.09


class TestLossTraceCsv:
    def test_round_trip(self, tmp_path, rng):
        model = _model(rng)
        _, trace = finetune(model, _support(rng), FinetuneConfig(epochs=2, lr=1e-3, fda=NO_FDA), 0)
        path = tmp_path / "trace.csv"
        write_csv(path, ["epoch", "loss", "support_acc"], trace)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert path.read_text().splitlines()[0] == "epoch,loss,support_acc"
        assert len(rows) == 2
        assert rows[0]["epoch"] == "1"
        assert float(rows[1]["loss"]) == pytest.approx(trace[1]["loss"])
