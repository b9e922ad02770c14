"""Synthetic multi-domain image data, the TTAD on-disk format, and the one
atomic writer and the two checked readers every artifact goes through.

Each class owns a fixed spatial template (a Gaussian blob plus a sinusoidal
pattern per channel, shared by every domain). A domain restyles templates with
a per-channel affine map and additive noise, so per-channel statistics carry
the domain identity while spatial structure carries the class.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    ConfigError,
    DataError,
    DataFormatError,
    TruncatedFileError,
    VersionMismatchError,
)
from .seeding import sub_seed

DATASET_MAGIC = b"TTAD"
DATASET_VERSION = 1


@dataclass
class SampleRecord:
    """One labeled image: class index, C x H x W float64 pixels, origin domain."""

    label: int
    pixels: np.ndarray
    domain_id: int


@dataclass
class Dataset:
    """In-memory view of one TTAD file."""

    records: list[SampleRecord]
    num_classes: int
    domain_id: int


@dataclass
class SupportSet:
    """The labeled target samples used for fine-tuning and for seeding the
    prototype bank: the same number k of every class, read off the samples."""

    samples: list[SampleRecord]
    class_count: int
    k: int = field(init=False)

    def __post_init__(self):
        if not self.samples:
            raise DataError("support set is empty")
        counts = Counter(s.label for s in self.samples)
        stray = [c for c in sorted(counts) if not 0 <= c < self.class_count]
        if stray:
            raise DataError(f"support label {stray[0]} out of range for {self.class_count} classes")
        if len(set(counts.values())) > 1:
            raise DataError(f"support classes hold unequal sample counts "
                            f"{dict(sorted(counts.items()))}; each needs the same k")
        missing = [c for c in range(self.class_count) if c not in counts]
        if missing:
            raise DataError(f"support set missing class {missing[0]}")
        self.k = counts[self.samples[0].label]


def class_templates(class_count: int, image_size: int, channels: int = 3,
                    template_seed: int = 0) -> np.ndarray:
    """Canonical spatial pattern per class, shape (class_count, channels, H, W).

    Deterministic in (class_count, image_size, channels, template_seed) and
    independent of any domain, so every domain restyles the same shapes.
    """
    if class_count < 2:
        raise ConfigError(f"need at least 2 classes, got {class_count}")
    if image_size < 4:
        raise ConfigError(f"image_size must be >= 4, got {image_size}")
    rng = np.random.default_rng(template_seed)
    grid = np.linspace(0.0, 1.0, image_size)
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    out = np.empty((class_count, channels, image_size, image_size), dtype=np.float64)
    for c in range(class_count):
        for ch in range(channels):
            cy, cx = rng.uniform(0.2, 0.8, size=2)
            width = rng.uniform(0.12, 0.3)
            blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width * width))
            fy, fx = rng.integers(1, 4, size=2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave = 0.5 * np.sin(2.0 * np.pi * (fy * yy + fx * xx) + phase)
            out[c, ch] = blob + wave
    return out


def gen_domain(templates: np.ndarray, per_class_count: int, gain, bias, noise_std: float,
               seed: int, domain_id: int) -> list[SampleRecord]:
    """Draw per_class_count samples per class of templates in one domain's style.

    sample = gain * template(class) + bias + N(0, noise_std^2), per channel.
    Pure function of its arguments; samples come out class-major, each a view
    of the domain's one block (drawn in one call, the values of per-sample draws).
    """
    if per_class_count < 1:
        raise ConfigError(f"per_class_count must be >= 1, got {per_class_count}")
    gain, bias = np.asarray(gain, dtype=np.float64), np.asarray(bias, dtype=np.float64)
    styled = gain[:, None, None] * templates + bias[:, None, None]
    pixels = np.random.default_rng(seed).normal(
        0.0, noise_std, size=(len(templates), per_class_count, *styled.shape[1:]))
    pixels += styled[:, None]
    return [SampleRecord(label=c, pixels=pixels[c, i], domain_id=domain_id)
            for c in range(len(templates)) for i in range(per_class_count)]


def split_support(target_data: list[SampleRecord], k: int, seed: int) -> tuple[SupportSet, list[SampleRecord]]:
    """Carve k seeded samples per class out of the target data.

    Returns the support set and the disjoint remainder (original order), which
    becomes the unlabeled stream.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    by_class: dict[int, list[int]] = {}
    for i, rec in enumerate(target_data):
        by_class.setdefault(rec.label, []).append(i)
    rng = np.random.default_rng(seed)
    chosen: set[int] = set()
    for c in sorted(by_class):
        if len(by_class[c]) < k:
            raise DataError(f"class {c} has only {len(by_class[c])} samples, need k={k}")
        idx = np.array(by_class[c])
        rng.shuffle(idx)
        chosen.update(idx[:k].tolist())
    support = [target_data[i] for i in sorted(chosen)]
    remainder = [rec for i, rec in enumerate(target_data) if i not in chosen]
    return SupportSet(support, len(by_class)), remainder


# -- artifact files ------------------------------------------------------


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temp file beside ``path`` for writing; it replaces ``path`` on success.

    The parent directory is created. An error while writing leaves any
    previous file at ``path`` untouched and no temp file behind. A stale temp
    file of a killed earlier run with the same pid is overwritten.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, doc) -> None:
    """Write doc atomically as indented JSON with sorted keys; a NaN or an
    infinity, which JSON cannot hold, raises ValueError."""
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_csv(path, fieldnames, rows) -> None:
    """Write dict rows atomically as CSV with a header line."""
    with atomic_open(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def read_artifact(path, header: struct.Struct, magic: bytes, version: int) -> tuple[bytes, tuple]:
    """A binary artifact's bytes and its unpacked header, which begins with
    the magic and the version; a short file, a wrong magic and a wrong
    version each raise their DataFormatError.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < header.size:
        raise TruncatedFileError(f"{path}: file shorter than the header")
    fields = header.unpack_from(raw)
    if fields[0] != magic:
        raise BadMagicError(f"{path}: bad magic {fields[0]!r}, expected {magic!r}")
    if fields[1] != version:
        raise VersionMismatchError(f"{path}: version {fields[1]}, this reader handles {version}")
    return raw, fields


def read_json(path, error=DataError) -> dict:
    """The JSON object in a UTF-8 file; anything else raises error."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # also covers UnicodeDecodeError and JSONDecodeError
        raise error(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: the JSON root must be an object, got {type(doc).__name__}")
    return doc


# -- TTAD binary format --------------------------------------------------

_HEADER = struct.Struct("<4sIIIIIII")  # magic, version, n, C, H, W, num_classes, domain_id


def _record_dtype(c: int, h: int, w: int) -> np.dtype:
    """One packed TTAD record: a u16 label, then C x H x W f32 pixels."""
    return np.dtype([("label", "<u2"), ("pixels", "<f4", (c, h, w))])


def write_dataset(path, records: list[SampleRecord], num_classes: int) -> None:
    """Write records atomically as one little-endian TTAD file (u16 labels,
    f32 pixels); the file's domain is the records' one domain."""
    if not records:
        raise DataError("empty record list")
    if num_classes > 65536:
        raise DataError(f"a TTAD file's 16-bit labels hold at most 65536 classes, got {num_classes}")
    shapes = {rec.pixels.shape for rec in records}
    if len(shapes) > 1:
        raise DataError(f"records disagree on pixel shape: {sorted(shapes)}")
    domains = {rec.domain_id for rec in records}
    if len(domains) > 1:
        raise DataError(f"one file holds one domain, got ids {sorted(domains)}")
    c, h, w = records[0].pixels.shape
    for rec in records:
        if not 0 <= rec.label < num_classes:
            raise DataError(f"label {rec.label} out of range for {num_classes} classes")
    table = np.empty(len(records), dtype=_record_dtype(c, h, w))
    table["label"] = [rec.label for rec in records]
    with np.errstate(over="ignore"):  # a pixel beyond float32's range becomes inf, refused below
        table["pixels"] = np.stack([rec.pixels for rec in records])
    if not np.isfinite(table["pixels"]).all():
        raise DataError("non-finite pixel values as float32")
    with atomic_open(path, "wb") as f:
        f.write(_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, len(records), c, h, w,
                             num_classes, records[0].domain_id))
        f.write(table.tobytes())


def read_dataset(path) -> Dataset:
    """Read a TTAD file back; pixels come out float64 (f32-exact values)."""
    raw, (_, _, n, c, h, w, num_classes, domain_id) = read_artifact(
        path, _HEADER, DATASET_MAGIC, DATASET_VERSION)
    rec_bytes = 2 + 4 * c * h * w
    expected = _HEADER.size + n * rec_bytes
    if len(raw) < expected:
        raise TruncatedFileError(f"{path}: expected {expected} bytes for {n} records, got {len(raw)}")
    if len(raw) > expected:
        raise DataFormatError(f"{path}: {len(raw) - expected} trailing bytes after {n} records")
    # numpy refuses a record dtype larger than a C int, and with n = 0 the
    # size checks above bound nothing
    if rec_bytes > np.iinfo(np.intc).max:
        raise DataFormatError(f"{path}: a record of {c}x{h}x{w} pixels is too large ({rec_bytes} bytes)")
    table = np.frombuffer(raw, dtype=_record_dtype(c, h, w), count=n, offset=_HEADER.size)
    labels = table["label"]
    bad = np.flatnonzero(labels >= num_classes)
    if bad.size:
        raise DataFormatError(f"{path}: record {bad[0]} has label {labels[bad[0]]}, "
                              f"out of range for {num_classes} classes")
    if not np.isfinite(table["pixels"]).all():
        raise DataFormatError(f"{path}: non-finite pixel values")
    pixels = table["pixels"].astype(np.float64)
    records = [SampleRecord(label=label, pixels=pix, domain_id=domain_id)
               for label, pix in zip(labels.tolist(), pixels)]
    return Dataset(records=records, num_classes=num_classes, domain_id=domain_id)


# -- default desk-scale benchmark ---------------------------------------

# the pixel noise of every source domain
SOURCE_NOISE_STD = 0.05


@dataclass
class BenchmarkConfig:
    """The default desk-scale generation recipe: 3 source styles, 1 far target."""

    class_count: int = 6
    per_class_count: int = 200
    image_size: int = 16
    source_gains: tuple = ((1.0, 1.0, 1.0), (1.3, 0.8, 1.1), (0.7, 1.2, 0.9))
    source_biases: tuple = ((0.0, 0.0, 0.0), (0.2, -0.1, 0.05), (-0.2, 0.1, 0.15))
    target_gain: tuple = (0.1, 1.0, 1.0)
    target_bias: tuple = (0.3, -0.2, 0.1)
    target_noise_std: float = 0.02

    def __post_init__(self):
        # images take their channel count from the gains, so they must agree
        styles = (*self.source_gains, *self.source_biases, self.target_gain, self.target_bias)
        if any(len(s) != self.channels for s in styles):
            raise ConfigError(f"every gain and bias needs {self.channels} channel values, "
                              f"got lengths {[len(s) for s in styles]}")
        if not np.all(np.isfinite([*np.ravel(styles), self.target_noise_std])):
            raise ConfigError("every gain, bias and noise value must be finite")
        if np.any(np.ravel([*self.source_gains, self.target_gain]) <= 0) or self.target_noise_std < 0:
            raise ConfigError("every gain must be > 0 and target_noise_std >= 0")
        if self.image_size < 4:
            raise ConfigError(f"image_size must be >= 4, got {self.image_size}")
        if not self.source_gains or len(self.source_gains) != len(self.source_biases):
            raise ConfigError(f"source_gains and source_biases need one style per source domain, "
                              f"got {len(self.source_gains)} and {len(self.source_biases)}")

    @property
    def channels(self) -> int:
        return len(self.target_gain)


def generate_benchmark(cfg: BenchmarkConfig,
                       seed: int) -> tuple[list[list[SampleRecord]], list[SampleRecord]]:
    """Generate all source domains and the target domain of the benchmark:
    one draw of the class templates, restyled by each domain in turn."""
    data_seed = sub_seed(seed, "data")
    templates = class_templates(cfg.class_count, cfg.image_size, cfg.channels,
                                sub_seed(data_seed, "templates"))
    styles = [(gain, bias, SOURCE_NOISE_STD)
              for gain, bias in zip(cfg.source_gains, cfg.source_biases)]
    styles.append((cfg.target_gain, cfg.target_bias, cfg.target_noise_std))
    *source_data, target_data = [
        gen_domain(templates, cfg.per_class_count, gain, bias, noise,
                   sub_seed(data_seed, f"domain{i}"), i)
        for i, (gain, bias, noise) in enumerate(styles)]
    return source_data, target_data


def records_as_arrays(records: list[SampleRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Stack records into (pixels N x C x H x W, labels N)."""
    if not records:
        raise DataError("empty record list")
    x = np.stack([rec.pixels for rec in records])
    y = np.array([rec.label for rec in records], dtype=np.int64)
    return x, y
