"""The toy convolutional classifier: three conv blocks with instance norm,
an optional mixing hook between blocks, a pooled embedding, and a linear head.

Parameters live in a named dict with a fixed declaration order (also the
on-disk blob order) and are partitioned into the groups {conv, norm_affine,
head} so adapters can choose what to update.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .data import atomic_open, read_artifact, records_as_arrays
from .errors import (
    ConfigError,
    DataError,
    DataFormatError,
    NumericError,
    TruncatedFileError,
)
from .optim import Adam
from .seeding import sub_seed
from .tensor import (
    Tensor,
    _normalize,
    add,
    as_tensor,
    conv2d,
    instance_norm,
    matmul,
    no_grad,
    relu,
    sample_chunks,
    softmax_cross_entropy,
    tmean,
)

MODEL_MAGIC = b"TTAM"
MODEL_VERSION = 1

PARAM_GROUPS = ("conv", "norm_affine", "head")
# the name prefix of each group's parameters
_GROUP_PREFIX = {"conv": "conv", "norm_affine": "norm", "head": "head"}


def param_shapes(widths, num_classes: int) -> dict[str, tuple]:
    """Each parameter's shape, in declaration (and on-disk blob) order.

    Checks the architecture first, so a caller can size the parameters
    before allocating any of them.
    """
    if len(widths) != 4 or any(w < 1 for w in widths):
        raise ConfigError(f"widths must be 4 positive channel counts, got {widths}")
    if num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
    shapes = {}
    for i in range(3):
        cin, cout = widths[i], widths[i + 1]
        shapes[f"conv{i + 1}.weight"] = (cout, cin, 3, 3)
        shapes[f"norm{i + 1}.gamma"] = (cout,)
        shapes[f"norm{i + 1}.beta"] = (cout,)
    shapes["head.weight"] = (widths[-1], num_classes)
    shapes["head.bias"] = (num_classes,)
    return shapes


class Backbone:
    """3-block CNN with instance normalization and a linear classifier.

    Block widths default to 3 -> 16 -> 32 -> 32; the embedding is the global
    average pool of the last block (D = widths[-1]). In train mode a
    ``mix(site, h)`` hook may restyle the features after blocks 1 and 2.
    """

    def __init__(self, widths=(3, 16, 32, 32), num_classes: int = 6, init_seed: int = 0):
        widths = tuple(int(w) for w in widths)
        rng = np.random.default_rng(init_seed)
        self._build(widths, num_classes, [
            rng.normal(0.0, np.sqrt(2.0 / (shape[1] * 9)), size=shape) if name.startswith("conv")
            else np.ones(shape) if name.endswith("gamma") else np.zeros(shape)
            for name, shape in param_shapes(widths, num_classes).items()])

    def _build(self, widths, num_classes: int, arrays) -> "Backbone":
        """Set the architecture, and wrap arrays (in ``param_shapes`` order) as parameters."""
        self.widths = tuple(widths)
        self.num_classes = int(num_classes)
        self.embed_dim = self.widths[-1]
        self.params: dict[str, Tensor] = {
            name: Tensor(data, requires_grad=True)
            for name, data in zip(param_shapes(self.widths, num_classes), arrays, strict=True)}
        return self

    # -- parameter bookkeeping ------------------------------------------

    def trainable_params(self, groups=PARAM_GROUPS) -> dict[str, Tensor]:
        """The named parameters belonging to the requested groups, group by
        group in ``PARAM_GROUPS`` order; a group is its members' name prefix.

        Marks exactly these as requiring grad and freezes every other
        parameter, so a backward computes no gradient (and keeps no im2col
        matrix) for a parameter left out. ``copy`` unfreezes them again.
        """
        bad = set(groups) - set(PARAM_GROUPS)
        if bad:
            raise ConfigError(f"unknown parameter groups {sorted(bad)}; valid: {PARAM_GROUPS}")
        names = [n for g in PARAM_GROUPS if g in groups
                 for n in self.params if n.startswith(_GROUP_PREFIX[g])]
        for n, p in self.params.items():
            p.requires_grad = n in names
        return {n: self.params[n] for n in names}

    def copy(self) -> "Backbone":
        """A deep copy whose parameters all require grad, as a new model's do."""
        return Backbone.__new__(Backbone)._build(
            self.widths, self.num_classes, [p.data.copy() for p in self.params.values()])

    def params_hash(self) -> bytes:
        import hashlib
        h = hashlib.sha256()
        for name in self.params:
            h.update(name.encode())
            h.update(self.params[name].data.tobytes())
        return h.digest()

    # -- forward ---------------------------------------------------------

    def forward(self, x, mode: str = "eval", mix=None,
                batch_stats: bool = False) -> tuple[Tensor, Tensor]:
        """Run the network; returns (embedding N x D, logits N x C).

        In train mode ``mix(site, h)`` (see ``fda.mixer``) replaces the
        features h after block ``site`` for sites 1 and 2. batch_stats
        switches normalization to statistics pooled over the whole batch
        (used by the statistics-refresh baseline).
        """
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be train or eval, got {mode!r}")
        h = as_tensor(x)
        if h.ndim != 4 or h.shape[1] != self.widths[0]:
            raise DataError(f"input must be N x {self.widths[0]} x H x W, got shape {h.shape}")
        if not np.all(np.isfinite(h.data)):
            raise DataError("non-finite input values")
        for i in range(3):
            h = conv2d(h, self.params[f"conv{i + 1}.weight"])
            gamma = self.params[f"norm{i + 1}.gamma"]
            beta = self.params[f"norm{i + 1}.beta"]
            if batch_stats:
                h = _normalize(h, gamma, beta, (0, 2, 3), eps=1e-5)
            else:
                h = instance_norm(h, gamma, beta, eps=1e-5)
            h = relu(h)
            if mode == "train" and mix is not None and i < 2:
                h = mix(i + 1, h)
        embedding = tmean(h, axis=(2, 3))
        logits = add(matmul(embedding, self.params["head.weight"]), self.params["head.bias"])
        return embedding, logits

    def infer(self, x, batch_stats: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode (embedding N x D, logits N x C) arrays, computed without graphs.

        With instance statistics each sample's output depends on that sample
        alone, so the network runs over ``sample_chunks`` and a chunk's
        activations stay in cache; the result is bitwise that of one
        whole-batch forward. Batch statistics pool over the whole batch, so
        that path runs one forward (its convolutions still go in chunks), and
        so does input of a shape that ``forward`` refuses.
        """
        x = np.asarray(x, dtype=np.float64)
        chunks = [...] if batch_stats or x.ndim != 4 else sample_chunks(len(x), *x.shape[2:])
        with no_grad():
            parts = [self.forward(x[s], mode="eval", batch_stats=batch_stats) for s in chunks]
        return (np.concatenate([emb.data for emb, _ in parts]),
                np.concatenate([logits.data for _, logits in parts]))


# -- source training -----------------------------------------------------

# the training curve keeps every LOG_EVERY-th iteration's loss, and the last
LOG_EVERY = 100


@dataclass
class SourceConfig:
    """Pooled-domain pretraining settings."""

    iters: int = 2000
    lr: float = 1e-3
    batch_size: int = 32

    def __post_init__(self):
        if self.iters < 0:
            raise ConfigError(f"iters must be >= 0, got {self.iters}")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def train_source(source_data, cfg: SourceConfig, seed: int,
                 widths=(3, 16, 32, 32), num_classes: int = 6) -> tuple[Backbone, list]:
    """Train a fresh backbone on the pooled source domains.

    source_data is a list of per-domain record lists. Standard supervised
    training: mean cross-entropy, Adam, shuffled minibatches, all seeded by
    seed. Returns the model and a training curve of (iteration, loss) pairs.
    """
    records = [rec for domain in source_data for rec in domain]
    if not records:
        raise DataError("no source records")
    shapes = {np.shape(rec.pixels) for rec in records}
    if len(shapes) > 1:
        raise DataError(f"source records disagree on pixel shape: {sorted(shapes)}")
    top = max(rec.label for rec in records)
    if top >= num_classes:
        raise DataError(f"label {top} out of range for {num_classes} classes")

    model = Backbone(widths=widths, num_classes=num_classes,
                     init_seed=sub_seed(seed, "init"))
    opt = Adam(model.trainable_params(), lr=cfg.lr)
    rng = np.random.default_rng(sub_seed(seed, "source_batches"))
    n = len(records)
    curve = []
    order = rng.permutation(n)
    cursor = 0
    for it in range(cfg.iters):
        if cursor + cfg.batch_size > n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor: cursor + cfg.batch_size]
        cursor += cfg.batch_size
        # gathered per batch: a stacked copy of every source image would stay
        # alive for the whole run
        x, y = records_as_arrays([records[i] for i in idx])
        _, logits = model.forward(x, mode="train")
        loss_val = opt.minimize(softmax_cross_entropy(logits, y))
        if not np.isfinite(loss_val):
            raise NumericError(f"source training diverged at iteration {it}: loss={loss_val}")
        if it % LOG_EVERY == 0 or it == cfg.iters - 1:
            curve.append((it, loss_val))
    return model, curve


# -- TTAM model files ----------------------------------------------------

# magic, version, width count (always 4), the 4 widths, embed_dim, num_classes
_MODEL_HEADER = struct.Struct("<4sII4III")


def save_model(path, model: Backbone) -> None:
    """Write the architecture descriptor and f64 parameter blobs, atomically."""
    with atomic_open(path, "wb") as f:
        f.write(_MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, len(model.widths), *model.widths,
                                   model.embed_dim, model.num_classes))
        for p in model.params.values():
            f.write(p.data.astype("<f8").tobytes())


def load_model(path) -> Backbone:
    """Rebuild a Backbone from a TTAM file in one pass, in file order.

    Each parameter's byte count is checked against the bytes left before it
    is read, its values must be finite, and trailing bytes are refused.
    """
    raw, (_, _, n_widths, *widths, embed_dim, num_classes) = read_artifact(
        path, _MODEL_HEADER, MODEL_MAGIC, MODEL_VERSION)
    if n_widths != 4:
        raise DataFormatError(f"{path}: expected 4 channel widths, got {n_widths}")
    if embed_dim != widths[-1]:
        raise DataFormatError(f"{path}: embedding dim {embed_dim} != last width {widths[-1]}")
    try:
        shapes = param_shapes(widths, num_classes)
    except ConfigError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    off = _MODEL_HEADER.size
    arrays = []
    for name, shape in shapes.items():
        count = math.prod(shape)
        if 8 * count > len(raw) - off:
            raise TruncatedFileError(f"{path}: parameter {name!r} cut short")
        blob = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
        if not np.isfinite(blob).all():
            raise DataFormatError(f"{path}: parameter {name!r} has non-finite values")
        arrays.append(blob.reshape(shape).copy())
        off += 8 * count
    if off != len(raw):
        raise DataFormatError(f"{path}: {len(raw) - off} trailing bytes after parameters")
    return Backbone.__new__(Backbone)._build(widths, num_classes, arrays)


def predict(model: Backbone, x) -> np.ndarray:
    """Eval-mode argmax class indices, computed without building graphs."""
    return np.argmax(model.infer(x)[1], axis=1)
