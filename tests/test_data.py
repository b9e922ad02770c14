"""Synthetic domain generator and TTAD round trips."""

import dataclasses
import struct

import numpy as np
import pytest

from fewshot_tta.data import (
    BenchmarkConfig,
    DomainSpec,
    SampleRecord,
    SupportSet,
    benchmark_domains,
    class_templates,
    gen_domain,
    generate_benchmark,
    read_dataset,
    read_json,
    records_as_arrays,
    split_support,
    write_dataset,
)
from fewshot_tta.errors import (
    BadMagicError,
    ConfigError,
    DataError,
    DataFormatError,
    TruncatedFileError,
    VersionMismatchError,
)
from fewshot_tta.tensor import Tensor, channel_stats

import oracles


def identity_spec(domain_id=0, channels=3, noise=0.0, seed=1):
    return DomainSpec(domain_id=domain_id, gain=np.ones(channels),
                      bias=np.zeros(channels), noise_std=noise, seed=seed)


class TestGeneration:
    def test_identity_domain_returns_templates(self):
        templates = class_templates(4, 8, channels=3, template_seed=5)
        records = gen_domain(4, 2, identity_spec(), 8, template_seed=5)
        for rec in records:
            assert np.array_equal(rec.pixels, templates[rec.label])

    def test_affine_style_moves_stats_exactly(self):
        spec_a = identity_spec(domain_id=0)
        spec_b = DomainSpec(domain_id=1, gain=np.array([2.0, 0.5, 3.0]),
                            bias=np.array([1.0, -1.0, 0.25]), noise_std=0.0, seed=1)
        recs_a = gen_domain(3, 1, spec_a, 8, template_seed=2)
        recs_b = gen_domain(3, 1, spec_b, 8, template_seed=2)
        for ra, rb in zip(recs_a, recs_b):
            mu_a, sig_a = channel_stats(Tensor(ra.pixels[None]))
            mu_b, sig_b = channel_stats(Tensor(rb.pixels[None]))
            assert np.allclose(mu_b.data[0], spec_b.gain * mu_a.data[0] + spec_b.bias, atol=1e-12)
            assert np.allclose(sig_b.data[0], spec_b.gain * sig_a.data[0], atol=1e-12)

    def test_noise_free_nearest_template_is_perfect(self):
        templates = class_templates(6, 16, template_seed=3)
        spec = DomainSpec(domain_id=0, gain=np.array([1.5, 0.7, 1.2]),
                          bias=np.array([0.3, -0.2, 0.0]), noise_std=0.0, seed=9)
        records = gen_domain(6, 3, spec, 16, template_seed=3)
        styled = spec.gain[:, None, None] * templates + spec.bias[:, None, None]
        for rec in records:
            dists = [np.linalg.norm(rec.pixels - styled[c]) for c in range(6)]
            assert int(np.argmin(dists)) == rec.label

    def test_generation_is_deterministic(self):
        spec = identity_spec(noise=0.1, seed=42)
        a = gen_domain(3, 4, spec, 8, template_seed=7)
        b = gen_domain(3, 4, spec, 8, template_seed=7)
        for ra, rb in zip(a, b):
            assert ra.label == rb.label
            assert np.array_equal(ra.pixels, rb.pixels)

    @pytest.mark.parametrize("edge", [False, True])
    def test_one_block_matches_per_sample_draws(self, edge):
        """The default benchmark's domains (and a one-sample, noise-free edge
        case) come out bitwise as one draw per sample would give them, and a
        domain's records are views of one block."""
        cfg = BenchmarkConfig(per_class_count=1) if edge else BenchmarkConfig()
        sources, target = benchmark_domains(cfg, 0)
        for spec in (*sources, target):
            spec = dataclasses.replace(spec, noise_std=0.0) if edge else spec
            got = gen_domain(cfg.class_count, cfg.per_class_count, spec, cfg.image_size, 4)
            want = oracles.gen_domain_per_sample(cfg.class_count, cfg.per_class_count, spec,
                                                 cfg.image_size, 4)
            assert [(r.label, r.domain_id) for r in got] == [(r.label, r.domain_id) for r in want]
            assert all(g.pixels.tobytes() == w.pixels.tobytes() for g, w in zip(got, want))
            block = got[0].pixels.base
            assert block is not None and all(r.pixels.base is block for r in got)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigError):
            gen_domain(1, 5, identity_spec(), 8)
        with pytest.raises(ConfigError):
            gen_domain(3, 5, identity_spec(), 3)
        with pytest.raises(ConfigError):
            gen_domain(3, 0, identity_spec(), 8)

    def test_bad_domain_spec_rejected(self):
        with pytest.raises(ConfigError, match="gain"):
            DomainSpec(domain_id=0, gain=np.array([1.0, 0.0, 1.0]),
                       bias=np.zeros(3), noise_std=0.1, seed=0)
        with pytest.raises(ConfigError, match="noise_std"):
            DomainSpec(domain_id=0, gain=np.ones(3), bias=np.zeros(3),
                       noise_std=-0.1, seed=0)

    @pytest.mark.parametrize("over", [
        {"target_gain": (0.1, 1.0)},
        {"source_biases": ((0.0, 0.0, 0.0), (0.2, -0.1), (-0.2, 0.1, 0.15))},
    ])
    def test_style_tuples_must_match_channels(self, over):
        with pytest.raises(ConfigError, match="channel"):
            BenchmarkConfig(**over)

    def test_benchmark_shapes_and_counts(self):
        cfg = BenchmarkConfig(per_class_count=5)
        source_data, target_data = generate_benchmark(cfg, 0)
        assert len(source_data) == 3
        assert len(target_data) == 6 * 5
        x, y = records_as_arrays(target_data)
        assert x.shape == (30, 3, 16, 16)
        assert sorted(set(y.tolist())) == list(range(6))


class TestSplitSupport:
    def make_target(self, classes=6, per_class=10):
        return [SampleRecord(label=c, pixels=np.full((1, 2, 2), float(c * 100 + i)), domain_id=3)
                for c in range(classes) for i in range(per_class)]

    def test_counts_k1(self):
        support, rest = split_support(self.make_target(), 1, seed=0)
        assert len(support.samples) == 6
        assert len(rest) == 54

    def test_counts_k5_and_disjoint(self):
        target = self.make_target()
        support, rest = split_support(target, 5, seed=0)
        assert len(support.samples) == 30
        assert len(rest) == 30
        support_keys = {s.pixels[0, 0, 0] for s in support.samples}
        rest_keys = {s.pixels[0, 0, 0] for s in rest}
        assert not support_keys & rest_keys
        assert len(support_keys | rest_keys) == 60

    def test_same_seed_same_split(self):
        target = self.make_target()
        s1, r1 = split_support(target, 3, seed=11)
        s2, r2 = split_support(target, 3, seed=11)
        assert [s.pixels[0, 0, 0] for s in s1.samples] == [s.pixels[0, 0, 0] for s in s2.samples]
        assert [s.pixels[0, 0, 0] for s in r1] == [s.pixels[0, 0, 0] for s in r2]

    def test_insufficient_class_named(self):
        target = self.make_target(per_class=2)
        with pytest.raises(DataError, match="class 0"):
            split_support(target, 3, seed=0)


class TestSupportSet:
    def make_samples(self, counts):
        return [SampleRecord(label=c, pixels=np.zeros((1, 2, 2)), domain_id=3)
                for c, n in enumerate(counts) for _ in range(n)]

    @pytest.mark.parametrize("k", [1, 4])
    def test_k_is_read_off_the_split(self, k):
        support, _ = split_support(TestSplitSupport().make_target(), k, seed=0)
        assert support.k == k
        assert support.class_count == 6

    @pytest.mark.parametrize("counts, message", [
        ([2, 2, 0], "support set missing class 2"),
        ([2, 1, 2], r"unequal sample counts \{0: 2, 1: 1, 2: 2\}; each needs the same k"),
        ([2, 2, 2, 2], "support label 3 out of range for 3 classes")])
    def test_class_without_k_samples_named(self, counts, message):
        with pytest.raises(DataError, match=message):
            SupportSet(self.make_samples(counts), class_count=3)

    @pytest.mark.parametrize("class_count", [0, 3])
    def test_empty_set_is_data_error(self, class_count):
        with pytest.raises(DataError, match="empty"):
            SupportSet([], class_count)


class TestDatasetFile:
    def make_records(self, n=10, rng=None):
        rng = rng or np.random.default_rng(0)
        return [SampleRecord(label=int(i % 4), pixels=rng.normal(size=(3, 4, 4)), domain_id=2)
                for i in range(n)]

    def test_round_trip_pixel_bytes(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "d.ttad"
        write_dataset(path, records, num_classes=4)
        ds = read_dataset(path)
        assert ds.num_classes == 4
        assert ds.domain_id == 2
        assert len(ds.records) == 10
        for orig, back in zip(records, ds.records):
            assert back.label == orig.label
            # disk precision is f32; the f32 images must agree byte for byte
            assert orig.pixels.astype("<f4").tobytes() == back.pixels.astype("<f4").tobytes()

    def test_second_round_trip_lossless(self, tmp_path):
        records = self.make_records()
        p1, p2 = tmp_path / "a.ttad", tmp_path / "b.ttad"
        write_dataset(p1, records, num_classes=4)
        ds = read_dataset(p1)
        write_dataset(p2, ds.records, num_classes=ds.num_classes)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dataset_accepted(self, tmp_path):
        """An empty file is read, but no empty file is written."""
        path = tmp_path / "empty.ttad"
        with pytest.raises(DataError, match="empty"):
            write_dataset(path, [], num_classes=6)
        assert not path.exists()
        # a file written elsewhere may hold a header and no records
        path.write_bytes(struct.pack("<4sIIIIIII", b"TTAD", 1, 0, 3, 4, 4, 6, 1))
        ds = read_dataset(path)
        assert ds.records == [] and ds.num_classes == 6 and ds.domain_id == 1

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ttad"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(BadMagicError):
            read_dataset(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.ttad"
        write_dataset(path, self.make_records(), num_classes=4)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedFileError):
            read_dataset(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.ttad"
        write_dataset(path, self.make_records(2), num_classes=4)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            read_dataset(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        records = [SampleRecord(label=7, pixels=np.zeros((1, 2, 2)), domain_id=0)]
        with pytest.raises(DataError, match="label"):
            write_dataset(tmp_path / "x.ttad", records, num_classes=4)

    def test_stored_label_out_of_range_is_format_error(self, tmp_path):
        path = tmp_path / "l.ttad"
        write_dataset(path, self.make_records(3), num_classes=6)
        blob = bytearray(path.read_bytes())
        # the second record's u16 label follows the 32-byte header and one record
        off = 32 + 2 + 4 * 3 * 4 * 4
        blob[off: off + 2] = (9).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="record 1 has label 9"):
            read_dataset(path)

    def test_first_stored_label_at_or_above_class_count_is_named(self, tmp_path):
        path = tmp_path / "l.ttad"
        write_dataset(path, self.make_records(4), num_classes=6)
        blob = bytearray(path.read_bytes())
        rec_bytes = 2 + 4 * 3 * 4 * 4
        for i, label in ((1, 6), (3, 9)):
            off = 32 + i * rec_bytes
            blob[off: off + 2] = label.to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="record 1 has label 6, out of range for 6"):
            read_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_is_format_error(self, tmp_path, value):
        path = tmp_path / "n.ttad"
        write_dataset(path, self.make_records(3), num_classes=4)
        blob = bytearray(path.read_bytes())
        # the sixth f32 pixel of the second record, after its u16 label
        off = 32 + (2 + 4 * 3 * 4 * 4) + 2 + 4 * 5
        blob[off: off + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="non-finite pixel"):
            read_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
    def test_pixel_float32_cannot_hold_is_refused_before_the_file_opens(self, tmp_path, value):
        records = self.make_records(3)
        records[1].pixels[0, 1, 2] = value
        with pytest.raises(DataError, match="non-finite pixel values"):
            write_dataset(tmp_path / "w.ttad", records, num_classes=4)
        assert list(tmp_path.iterdir()) == []

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "g.ttad"
        write_dataset(path, self.make_records(), num_classes=4)
        path.write_bytes(path.read_bytes() + b"\x00" * 7)
        with pytest.raises(DataFormatError, match="7 trailing bytes"):
            read_dataset(path)

    def test_one_byte_short_is_truncated(self, tmp_path):
        path = tmp_path / "t.ttad"
        write_dataset(path, self.make_records(), num_classes=4)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(TruncatedFileError, match="for 10 records"):
            read_dataset(path)

    def test_records_are_plain_ints_and_float64_images(self, tmp_path):
        path = tmp_path / "d.ttad"
        write_dataset(path, self.make_records(3), num_classes=4)
        for rec in read_dataset(path).records:
            assert type(rec.label) is int
            assert rec.pixels.dtype == np.float64 and rec.pixels.shape == (3, 4, 4)

    def test_mixed_domains_rejected(self, tmp_path):
        records = [SampleRecord(label=0, pixels=np.zeros((1, 2, 2)), domain_id=0),
                   SampleRecord(label=0, pixels=np.zeros((1, 2, 2)), domain_id=1)]
        with pytest.raises(DataError, match="domain"):
            write_dataset(tmp_path / "x.ttad", records, num_classes=4)


class TestReadJson:
    def test_returns_the_object(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, 2.5], "b": "\u00e9"}', encoding="utf-8")
        assert read_json(path) == {"a": [1, 2.5], "b": "\u00e9"}

    @pytest.mark.parametrize("blob, match", [
        (b'{"a": "\xa0"}', "UTF-8"),
        (b'{"a": ', "JSON"),
        (b"[1, 2]", "object, got list"),
        (b'"text"', "object, got str"),
    ])
    @pytest.mark.parametrize("error", [DataError, ConfigError])
    def test_rejects_with_the_given_error(self, tmp_path, blob, match, error):
        path = tmp_path / "doc.json"
        path.write_bytes(blob)
        with pytest.raises(error, match=match):
            read_json(path, error)
