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


def check_groups(groups) -> None:
    """Raise ConfigError unless every name in groups is one of PARAM_GROUPS."""
    bad = set(groups) - set(PARAM_GROUPS)
    if bad:
        raise ConfigError(f"unknown parameter groups {sorted(bad)}; valid: {PARAM_GROUPS}")


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
        shapes = param_shapes(widths, num_classes)
        self.widths = widths
        self.num_classes = int(num_classes)
        self.embed_dim = widths[-1]
        rng = np.random.default_rng(init_seed)
        self.params: dict[str, Tensor] = {}
        for name, shape in shapes.items():
            if name.startswith("conv"):
                data = rng.normal(0.0, np.sqrt(2.0 / (shape[1] * 9)), size=shape)
            else:
                data = np.ones(shape) if name.endswith("gamma") else np.zeros(shape)
            self.params[name] = Tensor(data, requires_grad=True)

    # -- parameter bookkeeping ------------------------------------------

    def param_groups(self) -> dict[str, list[str]]:
        """Partition of parameter names into conv / norm_affine / head."""
        groups = {"conv": [], "norm_affine": [], "head": []}
        for name in self.params:
            if name.startswith("conv"):
                groups["conv"].append(name)
            elif name.startswith("norm"):
                groups["norm_affine"].append(name)
            else:
                groups["head"].append(name)
        return groups

    def trainable_params(self, groups=PARAM_GROUPS) -> dict[str, Tensor]:
        """The named parameters belonging to the requested groups.

        Marks exactly these as requiring grad and freezes every other
        parameter, so a backward computes no gradient (and keeps no im2col
        matrix) for a parameter left out. ``copy`` unfreezes them again.
        """
        check_groups(groups)
        by_group = self.param_groups()
        names = [n for g in PARAM_GROUPS if g in groups for n in by_group[g]]
        for n, p in self.params.items():
            p.requires_grad = n in names
        return {n: self.params[n] for n in names}

    def copy(self) -> "Backbone":
        """A deep copy whose parameters all require grad, as a new model's do."""
        dup = Backbone.__new__(Backbone)
        dup.widths = self.widths
        dup.num_classes = self.num_classes
        dup.embed_dim = self.embed_dim
        dup.params = {name: Tensor(p.data.copy(), requires_grad=True)
                      for name, p in self.params.items()}
        return dup

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
        logits = matmul(embedding, self.params["head.weight"]) + self.params["head.bias"]
        return embedding, logits

    def infer(self, x, batch_stats: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode (embedding N x D, logits N x C) arrays, computed without graphs.

        With instance statistics each sample's output depends on that sample
        alone, so the network runs over ``sample_chunks`` and a chunk's
        activations stay in cache; the result is bitwise that of one
        whole-batch forward. Batch statistics pool over the whole batch, so
        that path runs one forward (its convolutions still go in chunks).
        """
        x = np.asarray(x, dtype=np.float64)
        with no_grad():
            if batch_stats or x.ndim != 4:
                emb, logits = self.forward(x, mode="eval", batch_stats=batch_stats)
                return emb.data, logits.data
            parts = [self.forward(x[s], mode="eval") for s in sample_chunks(len(x), *x.shape[2:])]
        return (np.concatenate([emb.data for emb, _ in parts]),
                np.concatenate([logits.data for _, logits in parts]))


# -- source training -----------------------------------------------------


@dataclass
class SourceConfig:
    """Pooled-domain pretraining settings."""

    iters: int = 2000
    lr: float = 1e-3
    batch_size: int = 32
    log_every: int = 100

    def __post_init__(self):
        if self.iters < 0:
            raise ConfigError(f"iters must be >= 0, got {self.iters}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.log_every < 1:
            raise ConfigError(f"log_every must be >= 1, got {self.log_every}")


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
    x_all, y_all = records_as_arrays(records)
    if y_all.max() >= num_classes:
        raise DataError(f"label {y_all.max()} out of range for {num_classes} classes")

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
        opt.zero_grad()
        _, logits = model.forward(x_all[idx], mode="train")
        loss = softmax_cross_entropy(logits, y_all[idx])
        loss_val = loss.item()
        if not np.isfinite(loss_val):
            raise NumericError(f"source training diverged at iteration {it}: loss={loss_val}")
        loss.backward()
        opt.step()
        if it % cfg.log_every == 0 or it == cfg.iters - 1:
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
    """Rebuild a Backbone from a TTAM file, verifying structure byte counts.

    The file length is checked against the header's architecture before any
    parameter is allocated, and every parameter value must be finite.
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
    end = off = _MODEL_HEADER.size
    for name, shape in shapes.items():
        end += 8 * math.prod(shape)
        if end > len(raw):
            raise TruncatedFileError(f"{path}: parameter {name!r} cut short")
    if end != len(raw):
        raise DataFormatError(f"{path}: {len(raw) - end} trailing bytes after parameters")
    model = Backbone(widths=widths, num_classes=num_classes)
    for name, p in model.params.items():
        blob = np.frombuffer(raw, dtype="<f8", count=p.data.size, offset=off)
        if not np.isfinite(blob).all():
            raise DataFormatError(f"{path}: parameter {name!r} has non-finite values")
        p.data = blob.reshape(p.data.shape).copy()
        off += p.data.nbytes
    return model


def predict(model: Backbone, x) -> np.ndarray:
    """Eval-mode argmax class indices, computed without building graphs."""
    return np.argmax(model.infer(x)[1], axis=1)
