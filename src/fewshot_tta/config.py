"""Run configuration: one serializable object that reaches every stage.

A run is seeded by master_seed (benchmark data and source-model init) and
trial_seed (support split, mixing draws, stream order) alone; seed_plan hands
each stage its seed. trial_seed defaults to master_seed, so a single seed
reproduces the whole run; sweeps vary trial_seed to re-roll the adaptation
while sharing data and source model.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .data import BenchmarkConfig, read_json
from .errors import ConfigError
from .finetune import FinetuneConfig
from .model import SourceConfig
from .seeding import sub_seed
from .stream import AdaptConfig, resolve_method


@dataclass
class RunConfig:
    """Everything tunable, nested per stage."""

    master_seed: int = 0
    trial_seed: int | None = None
    method: str = "fs_tta"
    k: int = 5
    widths: tuple = (3, 16, 32, 32)
    stream_order: str = "shuffled"
    ema_beta: float = 0.9
    data: BenchmarkConfig = field(default_factory=BenchmarkConfig)
    source: SourceConfig = field(default_factory=SourceConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)

    def __post_init__(self):
        self.widths = tuple(self.widths)
        self.method = resolve_method(self.method)
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.ema_beta <= 1.0:
            raise ConfigError(f"ema_beta must be in [0, 1], got {self.ema_beta}")
        if self.stream_order not in ("shuffled", "sorted"):
            raise ConfigError(f"stream_order must be shuffled or sorted, got {self.stream_order!r}")

    @property
    def effective_trial_seed(self) -> int:
        return self.master_seed if self.trial_seed is None else self.trial_seed


def seed_plan(cfg: RunConfig) -> dict[str, int]:
    """Each seeded stage's seed: data/init ride the master, the rest the trial."""
    trial = cfg.effective_trial_seed
    return {
        "data": cfg.master_seed,
        "init": cfg.master_seed,
        "support": sub_seed(trial, "support"),
        "fda": sub_seed(trial, "fda"),
        "stream": sub_seed(trial, "stream"),
    }


def serialize(cfg: RunConfig) -> str:
    """Canonical JSON; stable key order so equal configs hash equally."""
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True, indent=2)


# the JSON types a config value may take, by the type of its field's default;
# the one None default is trial_seed's, which takes an int or null
_ACCEPTS = {bool: (bool,), int: (int,), float: (int, float), str: (str,), type(None): (int, type(None))}


def _typed(value, default, where: str):
    """value, with lists made tuples, if its type fits its field's default; a
    tuple's elements are checked against the default's first element."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return tuple(_typed(v, default[0], where) for v in value)
    accepts = _ACCEPTS[type(default)]
    if type(value) not in accepts:
        raise ConfigError(f"{where} must be {'/'.join(t.__name__ for t in accepts)}, got {value!r}")
    return value


def _build(cls, doc, where: str):
    """cls(**doc), rebuilding every field whose default is a dataclass from
    its sub-object and type-checking every other value against its default
    (see _typed). Any mistyped value ends in a ConfigError.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {type(doc).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs = {}
    for name, value in doc.items():
        f = fields[name]
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        if dataclasses.is_dataclass(default):
            kwargs[name] = _build(type(default), value, f"config section {name!r}")
        else:
            kwargs[name] = _typed(value, default, f"{cls.__name__} value {name!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {cls.__name__}: {exc}") from exc


def parse(text: str) -> RunConfig:
    """Inverse of serialize; parse(serialize(c)) == c for every valid c."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _build(RunConfig, doc, "config root")


def load_config(path) -> RunConfig:
    return _build(RunConfig, read_json(path, ConfigError), "config root")


def override(cfg, path: str, value):
    """cfg with the field at a dotted path such as "adapt.alpha" set to value,
    by nested dataclasses.replace, so every __post_init__ validates it."""
    name, _, rest = path.partition(".")
    if rest:
        value = override(getattr(cfg, name), rest, value)
    return dataclasses.replace(cfg, **{name: value})


def config_hash(cfg: RunConfig) -> str:
    """Hex digest identifying the exact configuration."""
    return hashlib.sha256(serialize(cfg).encode()).hexdigest()


def describe(cfg: RunConfig) -> dict:
    """The config and its hash, as every run document and sidecar embeds them."""
    return {"config": json.loads(serialize(cfg)), "config_hash": config_hash(cfg)}


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
