"""Run configuration: serialization round trips, hashing, seed fan-out."""

import hashlib

import pytest

from fewshot_tta.config import (RunConfig, config_hash, file_sha256, parse, seed_plan,
                                serialize)
from fewshot_tta.data import BenchmarkConfig
from fewshot_tta.errors import ConfigError
from fewshot_tta.fda import FdaConfig
from fewshot_tta.finetune import FinetuneConfig
from fewshot_tta.model import SourceConfig
from fewshot_tta.stream import AdaptConfig


def _custom():
    return RunConfig(
        master_seed=7, trial_seed=3, method="tent", k=2, widths=(3, 4, 8, 8),
        stream_order="sorted", ema_beta=0.8,
        data=BenchmarkConfig(class_count=4, per_class_count=20, image_size=8),
        source=SourceConfig(iters=100, lr=2e-3),
        finetune=FinetuneConfig(epochs=10, lr=1e-4, fda=FdaConfig(p_apply=0.8, sites=(1,))),
        adapt=AdaptConfig(alpha=0.3, batch_size=16))


class TestRoundTrip:
    def test_default_config(self):
        cfg = RunConfig()
        assert parse(serialize(cfg)) == cfg

    def test_custom_config(self):
        cfg = _custom()
        assert parse(serialize(cfg)) == cfg

    def test_hash_survives_round_trip(self):
        cfg = _custom()
        assert config_hash(parse(serialize(cfg))) == config_hash(cfg)

    def test_different_configs_different_hash(self):
        assert config_hash(RunConfig()) != config_hash(RunConfig(master_seed=1))

    def test_tuples_restored(self):
        cfg = parse(serialize(_custom()))
        assert isinstance(cfg.widths, tuple)
        assert isinstance(cfg.finetune.fda.sites, tuple)
        assert isinstance(cfg.adapt.groups, tuple)
        assert isinstance(cfg.data.source_gains[0], tuple)


class TestValidation:
    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse("{not json")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse('{"master_seeed": 3}')

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse('{"adapt": {"alhpa": 0.5}}')

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError, match="method"):
            RunConfig(method="gradient_descent")

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError, match="k must"):
            RunConfig(k=0)

    def test_bad_ema_rejected(self):
        with pytest.raises(ConfigError, match="ema_beta"):
            RunConfig(ema_beta=1.5)

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigError, match="stream_order"):
            RunConfig(stream_order="interleaved")

    @pytest.mark.parametrize("text,match", [
        ('{"widths": 5}', "RunConfig"),
        ('{"adapt": 5}', "'adapt' must be an object"),
        ('{"k": "five"}', "RunConfig"),
        ('[1, 2]', "root must be an object"),
        ('{"data": {"target_gain": 0.5}}', "BenchmarkConfig"),
        ('{"finetune": {"fda": {"sites": [3]}}}', "sites"),
    ])
    def test_mistyped_value_is_config_error(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse(text)

    def test_partial_config_fills_defaults(self):
        cfg = parse('{"k": 3}')
        assert cfg.k == 3
        assert cfg.master_seed == RunConfig().master_seed


class TestSeedPlan:
    def test_data_and_init_follow_master(self):
        plan = seed_plan(RunConfig(master_seed=5, trial_seed=9))
        assert plan["data"] == 5
        assert plan["init"] == 5

    def test_named_subseeds_differ(self):
        plan = seed_plan(RunConfig(master_seed=5))
        assert len({plan["support"], plan["fda"], plan["stream"]}) == 3

    def test_trial_defaults_to_master(self):
        assert seed_plan(RunConfig(master_seed=4)) == seed_plan(
            RunConfig(master_seed=4, trial_seed=4))

    def test_trial_seed_moves_only_trial_subseeds(self):
        a = seed_plan(RunConfig(master_seed=5, trial_seed=1))
        b = seed_plan(RunConfig(master_seed=5, trial_seed=2))
        assert a["data"] == b["data"] and a["init"] == b["init"]
        assert a["support"] != b["support"]
        assert a["fda"] != b["fda"]
        assert a["stream"] != b["stream"]


class TestFileHash:
    def test_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"abc" * 1000)
        assert file_sha256(path) == hashlib.sha256(b"abc" * 1000).hexdigest()
