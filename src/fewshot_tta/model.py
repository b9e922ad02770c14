"""The toy convolutional classifier: three conv blocks with instance norm,
mixing hook sites between blocks, a pooled embedding, and a linear head.

Parameters live in a named dict with a fixed declaration order (also the
on-disk blob order) and are partitioned into the groups {conv, norm_affine,
head} so adapters can choose what to update.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    ConfigError,
    DataError,
    DataFormatError,
    NumericError,
    TruncatedFileError,
    VersionMismatchError,
)
from .fda import FdaPlan, fda_transform
from .optim import Adam
from .seeding import rng_for, sub_seed
from .tensor import (
    Tensor,
    _normalize,
    as_tensor,
    conv2d,
    instance_norm,
    matmul,
    no_grad,
    relu,
    softmax_cross_entropy,
    tmean,
)

MODEL_MAGIC = b"TTAM"
MODEL_VERSION = 1

PARAM_GROUPS = ("conv", "norm_affine", "head")


class Backbone:
    """3-block CNN with instance normalization and a linear classifier.

    Block widths default to 3 -> 16 -> 32 -> 32; the embedding is the global
    average pool of the last block (D = widths[-1]). Hook sites 1 and 2 sit
    after blocks 1 and 2 and are where feature mixing may run in train mode.
    """

    def __init__(self, widths=(3, 16, 32, 32), num_classes: int = 6, init_seed: int = 0):
        widths = tuple(int(w) for w in widths)
        if len(widths) != 4 or any(w < 1 for w in widths):
            raise ConfigError(f"widths must be 4 positive channel counts, got {widths}")
        if num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
        self.widths = widths
        self.num_classes = int(num_classes)
        self.embed_dim = widths[-1]
        self.hook_sites = (1, 2)
        rng = np.random.default_rng(init_seed)
        self.params: dict[str, Tensor] = {}
        for i in range(3):
            cin, cout = widths[i], widths[i + 1]
            scale = np.sqrt(2.0 / (cin * 9))
            self.params[f"conv{i + 1}.weight"] = Tensor(
                rng.normal(0.0, scale, size=(cout, cin, 3, 3)), requires_grad=True)
            self.params[f"norm{i + 1}.gamma"] = Tensor(np.ones(cout), requires_grad=True)
            self.params[f"norm{i + 1}.beta"] = Tensor(np.zeros(cout), requires_grad=True)
        self.params["head.weight"] = Tensor(np.zeros((self.embed_dim, num_classes)),
                                            requires_grad=True)
        self.params["head.bias"] = Tensor(np.zeros(num_classes), requires_grad=True)

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
        """The named parameters belonging to the requested groups."""
        bad = set(groups) - set(PARAM_GROUPS)
        if bad:
            raise ConfigError(f"unknown parameter groups {sorted(bad)}; valid: {PARAM_GROUPS}")
        by_group = self.param_groups()
        names = [n for g in PARAM_GROUPS if g in groups for n in by_group[g]]
        return {n: self.params[n] for n in names}

    def copy(self) -> "Backbone":
        dup = Backbone.__new__(Backbone)
        dup.widths = self.widths
        dup.num_classes = self.num_classes
        dup.embed_dim = self.embed_dim
        dup.hook_sites = self.hook_sites
        dup.params = {name: Tensor(p.data.copy(), requires_grad=p.requires_grad)
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

    def forward(self, x, mode: str = "eval", fda_plans: dict[int, FdaPlan] | None = None,
                fda_eps: float = 1e-6, fda_detach: bool = False,
                batch_stats: bool = False) -> tuple[Tensor, Tensor]:
        """Run the network; returns (embedding N x D, logits N x C).

        Feature mixing plans run at their hook sites only in train mode.
        batch_stats switches normalization to statistics pooled over the
        whole batch (used by the statistics-refresh baseline).
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
            site = i + 1
            if (mode == "train" and fda_plans and site in fda_plans
                    and site in self.hook_sites):
                h = fda_transform(h, fda_plans[site], eps=fda_eps, detach_mixed=fda_detach)
        embedding = tmean(h, axis=(2, 3))
        logits = matmul(embedding, self.params["head.weight"]) + self.params["head.bias"]
        return embedding, logits


# -- source training -----------------------------------------------------


@dataclass
class SourceConfig:
    """Pooled-domain pretraining settings."""

    iters: int = 2000
    lr: float = 1e-3
    batch_size: int = 32
    seed: int = 0
    log_every: int = 100


def train_source(source_data, cfg: SourceConfig,
                 widths=(3, 16, 32, 32), num_classes: int = 6) -> tuple[Backbone, list]:
    """Train a fresh backbone on the pooled source domains.

    source_data is a list of per-domain record lists. Standard supervised
    training: mean cross-entropy, Adam, seeded shuffled minibatches. Returns
    the model and a training curve of (iteration, loss) pairs.
    """
    records = [rec for domain in source_data for rec in domain]
    if not records:
        raise DataError("no source records")
    x_all = np.stack([rec.pixels for rec in records])
    y_all = np.array([rec.label for rec in records], dtype=np.int64)
    if y_all.max() >= num_classes:
        raise DataError(f"label {y_all.max()} out of range for {num_classes} classes")

    model = Backbone(widths=widths, num_classes=num_classes,
                     init_seed=sub_seed(cfg.seed, "init"))
    opt = Adam(model.trainable_params(), lr=cfg.lr)
    rng = rng_for(cfg.seed, "source_batches")
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

_MODEL_HEADER = struct.Struct("<4sI")


def save_model(path, model: Backbone) -> None:
    """Write the architecture descriptor and f64 parameter blobs."""
    with open(path, "wb") as f:
        f.write(_MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION))
        f.write(struct.pack("<I", len(model.widths)))
        for w in model.widths:
            f.write(struct.pack("<I", w))
        f.write(struct.pack("<II", model.embed_dim, model.num_classes))
        for p in model.params.values():
            f.write(p.data.astype("<f8").tobytes())


def load_model(path) -> Backbone:
    """Rebuild a Backbone from a TTAM file, verifying structure byte counts."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _MODEL_HEADER.size:
        raise TruncatedFileError(f"{path}: file shorter than the header")
    magic, version = _MODEL_HEADER.unpack_from(raw)
    if magic != MODEL_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MODEL_MAGIC!r}")
    if version != MODEL_VERSION:
        raise VersionMismatchError(f"{path}: version {version}, this reader handles {MODEL_VERSION}")
    off = _MODEL_HEADER.size
    try:
        (n_widths,) = struct.unpack_from("<I", raw, off)
        off += 4
        widths = struct.unpack_from(f"<{n_widths}I", raw, off)
        off += 4 * n_widths
        embed_dim, num_classes = struct.unpack_from("<II", raw, off)
        off += 8
    except struct.error as exc:
        raise TruncatedFileError(f"{path}: architecture descriptor cut short") from exc
    if len(widths) != 4:
        raise DataFormatError(f"{path}: expected 4 channel widths, got {len(widths)}")
    if embed_dim != widths[-1]:
        raise DataFormatError(f"{path}: embedding dim {embed_dim} != last width {widths[-1]}")
    model = Backbone(widths=widths, num_classes=num_classes)
    for name, p in model.params.items():
        nbytes = p.data.size * 8
        if off + nbytes > len(raw):
            raise TruncatedFileError(f"{path}: parameter {name!r} cut short")
        blob = np.frombuffer(raw, dtype="<f8", count=p.data.size, offset=off)
        p.data = blob.reshape(p.data.shape).copy()
        off += nbytes
    if off != len(raw):
        raise DataFormatError(f"{path}: {len(raw) - off} trailing bytes after parameters")
    return model


def predict(model: Backbone, x, batch_size: int = 256) -> np.ndarray:
    """Eval-mode argmax class indices, computed without building graphs."""
    x = np.asarray(x, dtype=np.float64)
    out = []
    with no_grad():
        for start in range(0, x.shape[0], batch_size):
            _, logits = model.forward(x[start: start + batch_size], mode="eval")
            out.append(np.argmax(logits.data, axis=1))
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)
