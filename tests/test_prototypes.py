"""Prototype bank: initialization, sliding updates, cosine-softmax output."""

import math

import numpy as np
import pytest

from fewshot_tta.errors import ConfigError, DataError, DegenerateSimilarityWarning
from fewshot_tta.prototypes import PrototypeBank, ema_update, init_bank, proto_classify

import oracles

# embeddings and labels that are not one label per embedding row
MISALIGNED = [([1.0, 1.0], [0]), ([1.0, 1.0], 0), ([[1.0, 1.0]], [[0]]),
              (np.zeros((4, 2)), np.zeros((4, 1), dtype=int))]


class TestInitBank:
    def test_single_shot_copies_embeddings(self):
        emb = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        bank = init_bank(emb, [0, 1, 2], class_count=3)
        assert np.array_equal(bank.prototypes, emb)
        assert bank.t == 0

    def test_two_member_mean(self):
        bank = init_bank([[1.0, 0.0], [3.0, 2.0]], [0, 0], class_count=1)
        assert np.array_equal(bank.prototypes, [[2.0, 1.0]])

    def test_order_invariant(self, rng):
        emb = rng.normal(size=(12, 5))
        labels = np.array([0, 1, 2, 3] * 3)
        perm = rng.permutation(12)
        a = init_bank(emb, labels, class_count=4)
        b = init_bank(emb[perm], labels[perm], class_count=4)
        assert np.allclose(a.prototypes, b.prototypes, atol=1e-12)

    def test_matches_loop_oracle(self, rng):
        emb = rng.normal(size=(20, 8))
        labels = rng.integers(0, 5, size=20)
        while len(set(labels.tolist())) < 5:
            labels = rng.integers(0, 5, size=20)
        bank = init_bank(emb, labels, class_count=5)
        expected = oracles.prototype_init_loops(emb.tolist(), labels.tolist(), 5)
        assert np.allclose(bank.prototypes, expected, atol=1e-12)

    def test_missing_class_named(self):
        with pytest.raises(DataError, match="class 2"):
            init_bank([[1.0], [2.0]], [0, 1], class_count=3)

    @pytest.mark.parametrize("emb, labels", MISALIGNED)
    def test_labels_must_be_one_per_row(self, emb, labels):
        with pytest.raises(DataError, match="align"):
            init_bank(emb, labels, class_count=1)


class TestEmaUpdate:
    def make_bank(self, beta=0.9):
        return PrototypeBank(np.array([[1.0, 0.0], [0.0, 1.0]]), ema_beta=beta)

    def test_beta_one_is_fixed_point(self):
        bank = self.make_bank(beta=1.0)
        before = bank.prototypes.copy()
        ema_update(bank, [[5.0, 5.0], [7.0, 7.0]], [0, 1])
        assert np.array_equal(bank.prototypes, before)
        assert bank.t == 1

    def test_beta_zero_jumps_to_batch_mean(self):
        bank = self.make_bank(beta=0.0)
        ema_update(bank, [[5.0, 4.0], [7.0, 6.0]], [0, 0])
        assert np.array_equal(bank.prototypes[0], [6.0, 5.0])

    def test_convex_combination(self):
        bank = self.make_bank(beta=0.9)
        ema_update(bank, [[0.0, 1.0]], [0])
        assert np.allclose(bank.prototypes[0], [0.9, 0.1], atol=1e-15)

    def test_absent_class_bitwise_stable(self):
        bank = self.make_bank(beta=0.5)
        before = bank.prototypes[1].copy()
        for _ in range(10):
            ema_update(bank, [[3.0, 3.0]], [0])
        assert bank.prototypes[1].tobytes() == before.tobytes()
        assert bank.t == 10
        assert bank.update_counts[1] == 0

    def test_geometric_convergence(self):
        bank = PrototypeBank(np.array([[10.0]]), ema_beta=0.8)
        target = np.array([2.0])
        d0 = abs(bank.prototypes[0, 0] - target[0])
        for n in range(1, 8):
            ema_update(bank, [target], [0])
            d = abs(bank.prototypes[0, 0] - target[0])
            assert d == pytest.approx(d0 * 0.8 ** n, rel=1e-12)

    def test_matches_loop_oracle(self, rng):
        protos = rng.normal(size=(4, 6))
        bank = PrototypeBank(protos.copy(), ema_beta=0.9)
        emb = rng.normal(size=(10, 6))
        labels = rng.integers(0, 4, size=10)
        ema_update(bank, emb, labels)
        expected = oracles.ema_update_loops(protos.tolist(), 0.9, emb.tolist(), labels.tolist())
        assert np.allclose(bank.prototypes, expected, atol=1e-12)

    def test_bad_label_rejected(self):
        with pytest.raises(DataError):
            ema_update(self.make_bank(), [[1.0, 1.0]], [5])

    @pytest.mark.parametrize("emb, labels", MISALIGNED)
    def test_only_batches_accepted(self, emb, labels):
        with pytest.raises(DataError, match="align"):
            ema_update(self.make_bank(), emb, labels)


class TestProtoClassify:
    def test_equidistant_gives_uniform(self):
        bank = PrototypeBank(np.array([[1.0, 0.0], [0.0, 1.0]]))
        probs = proto_classify(bank, [[1.0, 1.0]])
        assert np.allclose(probs, 0.5)

    def test_orthonormal_direct_value(self):
        bank = PrototypeBank(np.array([[1.0, 0.0], [0.0, 1.0]]))
        [probs] = proto_classify(bank, [[1.0, 0.0]], temperature=1.0)
        e = math.e
        assert probs[0] == pytest.approx(e / (e + 1.0), abs=1e-12)
        assert probs[1] == pytest.approx(1.0 / (e + 1.0), abs=1e-12)

    def test_scale_invariance(self, rng):
        bank = PrototypeBank(rng.normal(size=(5, 7)))
        f = rng.normal(size=(1, 7))
        a = proto_classify(bank, f)
        b = proto_classify(bank, 137.0 * f)
        assert np.allclose(a, b, atol=1e-12)

    def test_argmax_invariant_to_temperature(self, rng):
        bank = PrototypeBank(rng.normal(size=(6, 8)))
        f = rng.normal(size=(1, 8))
        picks = {np.argmax(proto_classify(bank, f, temperature=t)) for t in (0.1, 1.0, 10.0)}
        assert len(picks) == 1

    def test_rows_sum_to_one_batch(self, rng):
        bank = PrototypeBank(rng.normal(size=(4, 5)))
        probs = proto_classify(bank, rng.normal(size=(9, 5)))
        assert probs.shape == (9, 4)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_loop_oracle(self, rng):
        protos = rng.normal(size=(5, 6))
        bank = PrototypeBank(protos.copy())
        f = rng.normal(size=6)
        [probs] = proto_classify(bank, f[None, :], temperature=0.7)
        expected = oracles.proto_classify_loops(protos.tolist(), f.tolist(), 0.7)
        assert np.allclose(probs, expected, atol=1e-12)

    def test_zero_feature_warns_uniform(self):
        bank = PrototypeBank(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.warns(DegenerateSimilarityWarning):
            probs = proto_classify(bank, [[0.0, 0.0]])
        assert np.allclose(probs, 0.5)

    def test_bad_temperature_rejected(self):
        bank = PrototypeBank(np.ones((2, 2)))
        with pytest.raises(ConfigError):
            proto_classify(bank, [[1.0, 1.0]], temperature=0.0)

    @pytest.mark.parametrize("features", [[1.0, 1.0], [[1.0, 1.0, 1.0]], [[[1.0, 1.0]]]])
    def test_only_n_by_d_batches_accepted(self, features):
        bank = PrototypeBank(np.ones((2, 2)))
        with pytest.raises(DataError, match="N x 2"):
            proto_classify(bank, features)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: PrototypeBank(np.zeros(3)), ConfigError,
                 r"prototypes must be C x D, got shape \(3,\)", id="bank_not_2d"),
    pytest.param(lambda: PrototypeBank(np.zeros((2, 2)), ema_beta=1.5), ConfigError,
                 r"ema_beta must be in \[0, 1\], got 1.5", id="ema_beta_above_one"),
    pytest.param(lambda: PrototypeBank(np.zeros((2, 2)), ema_beta=-0.5), ConfigError,
                 r"ema_beta must be in \[0, 1\], got -0.5", id="ema_beta_below_zero"),
    pytest.param(lambda: PrototypeBank(np.array([[0.0, np.nan], [1.0, 0.0]])), DataError,
                 "non-finite prototype values", id="bank_not_finite"),
    pytest.param(lambda: init_bank(np.zeros((2, 2)), [0, 2], 2), DataError,
                 "label out of range for 2 classes", id="init_bank_label_too_large"),
    pytest.param(lambda: init_bank(np.zeros((2, 2)), [-1, 0], 2), DataError,
                 "label out of range for 2 classes", id="init_bank_label_negative"),
])
def test_malformed_bank_input_raises_its_typed_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
