"""Run configuration: serialization round trips, hashing, seed fan-out."""

import hashlib
import json
import sys

import pytest

from fewshot_tta.config import (RunConfig, config_hash, describe, file_sha256, override,
                                seed_plan, serialize)
from fewshot_tta.data import BenchmarkConfig
from fewshot_tta.errors import ConfigError
from fewshot_tta.fda import FdaConfig
from fewshot_tta.finetune import FinetuneConfig
from fewshot_tta.model import SourceConfig
from fewshot_tta.stream import AdaptConfig


def _custom():
    return RunConfig(
        master_seed=7, trial_seed=3, method="tent", k=2, widths=(3, 4, 8, 8),
        stream_order="sorted",
        data=BenchmarkConfig(class_count=4, per_class_count=20, image_size=8),
        source=SourceConfig(iters=100, lr=2e-3),
        finetune=FinetuneConfig(epochs=10, lr=1e-4, fda=FdaConfig(p_apply=0.8)),
        adapt=AdaptConfig(alpha=0.3, batch_size=16))


BIG = "9" * 400
DOMAIN_TOO_BIG = ("data.class_count, data.per_class_count and data.image_size give a domain "
                  "more float64 values than numpy can index")


class TestRoundTrip:
    def test_default_config(self, read_config):
        cfg = RunConfig()
        assert read_config(serialize(cfg)) == cfg

    def test_custom_config(self, read_config):
        cfg = _custom()
        assert read_config(serialize(cfg)) == cfg

    def test_hash_survives_round_trip(self, read_config):
        cfg = _custom()
        assert config_hash(read_config(serialize(cfg))) == config_hash(cfg)

    def test_different_configs_different_hash(self):
        assert config_hash(RunConfig()) != config_hash(RunConfig(master_seed=1))

    def test_tuples_restored(self, read_config):
        cfg = read_config(serialize(_custom()))
        assert isinstance(cfg.widths, tuple)
        assert isinstance(cfg.data.source_gains[0], tuple)


class TestValidation:
    def test_bad_json_rejected(self, read_config):
        with pytest.raises(ConfigError, match="JSON"):
            read_config("{not json")

    def test_unknown_key_rejected(self, read_config):
        with pytest.raises(ConfigError, match="unknown"):
            read_config('{"master_seeed": 3}')

    def test_unknown_nested_key_rejected(self, read_config):
        with pytest.raises(ConfigError, match="unknown"):
            read_config('{"adapt": {"alhpa": 0.5}}')

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError, match="method"):
            RunConfig(method="gradient_descent")

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError, match="k must"):
            RunConfig(k=0)

    def test_bad_ema_rejected(self, read_config):
        # ema_beta is the constant prototypes.EMA_BETA, not a key, so setting it fails by name
        with pytest.raises(ConfigError, match=r"unknown RunConfig keys: \['ema_beta'\]"):
            read_config('{"ema_beta": 1.5}')

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigError, match="stream_order"):
            RunConfig(stream_order="interleaved")

    @pytest.mark.parametrize("widths", [(1, 4, 8, 8), (4, 16, 32, 32), ()])
    def test_first_width_must_match_data_channels(self, widths, read_config):
        with pytest.raises(ConfigError, match=r"widths\[0\] must equal the data's channel count 3"):
            RunConfig(widths=widths)
        with pytest.raises(ConfigError, match=r"widths\[0\]"):
            read_config(json.dumps({"widths": list(widths)}))

    @pytest.mark.parametrize("text,match", [
        ('{"widths": 5}', "RunConfig"),
        ('{"adapt": 5}', "'adapt' must be an object"),
        ('{"k": "five"}', "RunConfig"),
        ('[1, 2]', "root must be an object"),
        ('{"data": {"target_gain": 0.5}}', "BenchmarkConfig"),
        ('{"master_seed": "x"}', "'master_seed' must be int"),
        ('{"trial_seed": 1.5}', "'trial_seed' must be int/NoneType"),
        ('{"widths": "abcd"}', "'widths' must be a list"),
        ('{"widths": [3, 16, 32.0, 32]}', "'widths' must be int"),
        ('{"k": 2.5}', "'k' must be int"),
        ('{"k": true}', "'k' must be int"),
        ('{"data": {"per_class_count": 2.5}}', "'per_class_count' must be int"),
        ('{"data": {"target_gain": [0.1, "1", 1.0]}}', "'target_gain' must be int/float"),
        ('{"source": {"iters": 2.5}}', "'iters' must be int"),
        # Removed keys fail by name before their value is checked.
        ('{"finetune": {"fda": {"sites": [3]}}}', r"unknown FdaConfig keys: \['sites'\]"),
        ('{"finetune": {"fda": {"enabled": 1}}}', r"unknown FdaConfig keys: \['enabled'\]"),
        ('{"adapt": {"groups": ["conv", 3]}}', r"unknown AdaptConfig keys: \['groups'\]"),
    ])
    def test_mistyped_value_is_config_error(self, text, match, read_config):
        with pytest.raises(ConfigError, match=match):
            read_config(text)

    @pytest.mark.parametrize("text,match", [
        ('{"source": {"iters": -1}}', "iters must be >= 0"),
        ('{"source": {"lr": 0}}', "lr must be positive"),
        ('{"source": {"batch_size": 0}}', "batch_size must be >= 1"),
        ('{"source": {"log_every": 0}}', r"unknown SourceConfig keys: \['log_every'\]"),
        ('{"adapt": {"lr": -1}}', "lr must be positive"),
        ('{"k": 200}', "k must be less than data.per_class_count 200, got 200"),
        ('{"k": 4, "data": {"per_class_count": 3}}', "per_class_count 3, got 4"),
        ('{"adapt": {"groups": ["cnov"]}}', r"unknown AdaptConfig keys: \['groups'\]"),
        ('{"finetune": {"groups": ["head", "nrom_affine"]}}',
         r"unknown FinetuneConfig keys: \['groups'\]"),
        # Python's json reads NaN and Infinity, so every float must be checked finite
        ('{"source": {"lr": NaN}}', "lr must be positive and finite, got nan"),
        ('{"finetune": {"lr": Infinity}}', "lr must be positive and finite, got inf"),
        ('{"adapt": {"lr": NaN}}', "lr must be positive and finite, got nan"),
        ('{"adapt": {"lr": Infinity}}', "lr must be positive and finite, got inf"),
        ('{"data": {"target_noise_std": NaN}}', "noise value must be finite"),
        ('{"data": {"target_gain": [1, Infinity, 1]}}', "noise value must be finite"),
        ('{"data": {"target_bias": [0, 0, -Infinity]}}', "noise value must be finite"),
        ('{"data": {"source_gains": [[1, 1, 1], [NaN, 1, 1]]}}', "noise value must be finite"),
        ('{"data": {"source_biases": [[0, 0, 0], [0, Infinity, 0]]}}', "noise value must be finite"),
        # every source domain takes one gain and one bias, and there is at least one domain
        ('{"data": {"source_biases": [[0, 0, 0]]}}',
         "source_gains and source_biases need one style per source domain, got 3 and 1"),
        ('{"data": {"source_gains": [], "source_biases": []}}', "got 0 and 0"),
        # the architecture is checked when the config is read, not when the model is built
        ('{"widths": [3, 8]}', r"widths must be 4 positive channel counts, got \(3, 8\)"),
        ('{"widths": [3, 16, 0, 32]}', "widths must be 4 positive channel counts"),
        ('{"data": {"class_count": 1}}', "num_classes must be >= 2, got 1"),
        # gains, the target's noise and the image size are checked when the config is read,
        # not first when the data is generated
        ('{"data": {"target_gain": [0, 1, 1]}}', "every gain must be > 0"),
        ('{"data": {"source_gains": [[1, 1, 1], [1, -0.5, 1], [1, 1, 1]]}}', "every gain must be > 0"),
        ('{"data": {"target_noise_std": -1}}', "target_noise_std >= 0"),
        ('{"data": {"image_size": 3}}', "image_size must be >= 4, got 3"),
    ])
    def test_out_of_range_value_is_config_error(self, text, match, read_config):
        with pytest.raises(ConfigError, match=match):
            read_config(text)

    def test_range_edges_are_accepted(self, read_config):
        cfg = read_config('{"data": {"image_size": 4, "target_noise_std": 0, "target_gain": [1e-9, 1, 1]}}')
        assert (cfg.data.image_size, cfg.data.target_noise_std, cfg.data.target_gain[0]) == (4, 0, 1e-9)

    @pytest.mark.parametrize("section,key", [
        ("data", "master_seed"), ("data", "channels"), ("source", "seed"), ("finetune", "seed"),
        ("adapt", "tau"), ("adapt", "predict_with"), ("adapt", "groups"),
        ("finetune", "groups"), ("finetune.fda", "enabled"), ("finetune.fda", "sites"),
        ("finetune.fda", "detach_mixed"), ("source", "log_every"),
        ("finetune.fda", "alpha_beta"), ("finetune.fda", "eps"), ("data", "source_noise_std")])
    def test_seed_and_channel_keys_are_unknown(self, section, key, read_config):
        """Keys RunConfig no longer has fail by name; section is a dotted path."""
        doc, text = json.loads(serialize(RunConfig())), {key: 0}
        for name in section.split("."):
            doc = doc[name]
        for name in reversed(section.split(".")):
            text = {name: text}
        assert key not in doc
        with pytest.raises(ConfigError, match=f"unknown .* keys: \\['{key}'\\]"):
            read_config(json.dumps(text))

    @pytest.mark.parametrize("text,match", [
        # an integer for a float field must fit a float64
        (f'{{"source": {{"lr": {BIG}}}}}', "SourceConfig value 'lr' is too large for a float, "
                                          "got an integer of 400 digits"),
        (f'{{"finetune": {{"lr": {BIG}}}}}', "FinetuneConfig value 'lr' is too large"),
        (f'{{"adapt": {{"lr": {BIG}}}}}', "AdaptConfig value 'lr' is too large"),
        (f'{{"data": {{"target_gain": [1, {BIG}, 1]}}}}', "'target_gain' is too large"),
        (f'{{"adapt": {{"lr": {int(sys.float_info.max) + 1}}}}}', "'lr' is too large"),
        # and no array the config implies may exceed numpy's index space
        ('{"data": {"per_class_count": 4611686018427387904}}', DOMAIN_TOO_BIG),
        (f'{{"data": {{"class_count": {BIG}}}}}', DOMAIN_TOO_BIG),
        (f'{{"data": {{"image_size": {BIG}}}}}', DOMAIN_TOO_BIG),
        ('{"widths": [3, 16, 32, 4611686018427387904]}',
         r"widths \[3, 16, 32, 4611686018427387904\] give conv3.weight more float64 values"),
        (f'{{"widths": [3, 16, 32, {sys.maxsize // (8 * 32 * 9) + 1}]}}', "give conv3.weight"),
    ], ids=["source.lr", "finetune.lr", "adapt.lr", "target_gain", "lr_above_float_max",
            "per_class_count", "class_count", "image_size", "widths", "widths_one_past_intp"])
    def test_value_beyond_float64_or_index_space_is_config_error(self, text, match, read_config):
        with pytest.raises(ConfigError, match=match):
            read_config(text)

    def test_largest_accepted_values_are_kept_as_written(self, read_config):
        """The float check reads an integer lr without converting it, so its
        config_hash is unchanged; a width whose largest parameter fills numpy's
        index space exactly still parses (nothing is allocated)."""
        top = int(sys.float_info.max)
        cfg = read_config(f'{{"adapt": {{"lr": {top}}}, "source": {{"lr": 1}}}}')
        assert type(cfg.adapt.lr) is int and cfg.adapt.lr == top and type(cfg.source.lr) is int
        assert config_hash(cfg) == config_hash(RunConfig(adapt=AdaptConfig(lr=top),
                                                         source=SourceConfig(lr=1)))
        width = sys.maxsize // (8 * 32 * 9)
        assert read_config(f'{{"widths": [3, 16, 32, {width}]}}').widths[-1] == width

    def test_floats_take_ints_and_trial_seed_takes_null(self, read_config):
        cfg = read_config('{"adapt": {"alpha": 1}, "finetune": {"fda": {"p_apply": 0}}, '
                          '"trial_seed": null}')
        assert cfg.adapt.alpha == 1 and cfg.finetune.fda.p_apply == 0 and cfg.trial_seed is None
        assert read_config('{"trial_seed": 3}').trial_seed == 3

    def test_partial_config_fills_defaults(self, read_config):
        cfg = read_config('{"k": 3}')
        assert cfg.k == 3
        assert cfg.master_seed == RunConfig().master_seed


def _leaves(doc: dict) -> list:
    """The dotted path of every non-object value in a JSON object."""
    out = []
    for key, value in doc.items():
        out += [f"{key}.{leaf}" for leaf in _leaves(value)] if isinstance(value, dict) else [key]
    return out


def test_run_config_has_23_settable_values():
    leaves = sorted(_leaves(json.loads(serialize(RunConfig()))))
    assert leaves == [
        "adapt.alpha", "adapt.batch_size", "adapt.lr",
        "data.class_count", "data.image_size", "data.per_class_count", "data.source_biases",
        "data.source_gains", "data.target_bias", "data.target_gain", "data.target_noise_std",
        "finetune.epochs", "finetune.fda.p_apply", "finetune.lr",
        "k", "master_seed", "method",
        "source.batch_size", "source.iters", "source.lr",
        "stream_order", "trial_seed", "widths"]


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


class TestDescribe:
    def test_config_document_and_hash(self, read_config):
        cfg = _custom()
        doc = describe(cfg)
        assert doc == {"config": json.loads(serialize(cfg)), "config_hash": config_hash(cfg)}
        assert read_config(json.dumps(doc["config"])) == cfg


class TestFileHash:
    def test_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"abc" * 1000)
        assert file_sha256(path) == hashlib.sha256(b"abc" * 1000).hexdigest()


class TestOverride:
    def test_sets_a_nested_field_and_nothing_else(self):
        cfg = override(_custom(), "finetune.fda.p_apply", 0.25)
        assert cfg.finetune.fda.p_apply == 0.25
        assert override(cfg, "finetune.fda.p_apply", 0.8) == _custom()

    @pytest.mark.parametrize("path, value, match", [
        ("adapt.alpha", 1.5, "alpha"), ("k", 0, "k must"), ("method", "sgd", "method"),
        ("source.lr", float("nan"), "lr must be positive and finite"),
        ("finetune.lr", float("nan"), "lr must be positive and finite"),
        ("adapt.lr", float("inf"), "lr must be positive and finite"),
        ("widths", (3, 8), "widths must be 4"), ("data.class_count", 1, "num_classes")])
    def test_post_init_validates_the_new_value(self, path, value, match):
        with pytest.raises(ConfigError, match=match):
            override(RunConfig(), path, value)

    def test_method_alias_is_stored_resolved(self, read_config):
        assert override(RunConfig(), "method", "tent").method == "entropy_min"
        assert read_config('{"method": "bn"}').method == "norm_stat"
