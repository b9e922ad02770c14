"""Support-set fine-tuning with feature-statistics mixing.

Takes the source model plus the k-per-class labeled target samples and
minimizes mean cross-entropy for a fixed epoch budget. Mixing plans are
drawn fresh every step, so each epoch sees different synthetic styles.
The whole support set rides in one batch whenever it fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SupportSet, records_as_arrays
from .errors import ConfigError, NumericError
from .fda import FdaConfig, make_plans, mixer
from .model import PARAM_GROUPS, Backbone, check_groups, predict
from .optim import Adam
from .tensor import softmax_cross_entropy

@dataclass
class FinetuneConfig:
    """Stage I knobs; epochs=0 is a valid no-op budget."""

    epochs: int = 50
    lr: float = 5e-5
    batch_size: int = 64
    fda: FdaConfig = field(default_factory=FdaConfig)
    groups: tuple = PARAM_GROUPS

    def __post_init__(self):
        self.groups = tuple(self.groups)
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        check_groups(self.groups)


def finetune(model: Backbone, support: SupportSet, cfg: FinetuneConfig, seed: int):
    """Fine-tune a copy of the model on the support set.

    seed draws the mixing plans and any batch order. Returns (tuned_model,
    trace) where trace rows carry epoch, mean training loss, and post-epoch
    support accuracy. The input model is not touched.
    A non-finite loss aborts immediately rather than training on garbage.
    """
    tuned = model.copy()
    x, y = records_as_arrays(support.samples)
    n = x.shape[0]
    trace = []
    if cfg.epochs == 0:
        return tuned, trace

    opt = Adam(tuned.trainable_params(cfg.groups), lr=cfg.lr)
    rng = np.random.default_rng(seed)
    full_batch = n <= cfg.batch_size

    for epoch in range(1, cfg.epochs + 1):
        if full_batch:
            starts = [np.arange(n)]
        else:
            perm = rng.permutation(n)
            starts = [perm[i: i + cfg.batch_size] for i in range(0, n, cfg.batch_size)]
        losses = []
        for idx in starts:
            xb, yb = x[idx], y[idx]
            mix = mixer(make_plans(len(idx), rng, cfg.fda), cfg.fda)
            _, logits = tuned.forward(xb, mode="train", mix=mix)
            loss = softmax_cross_entropy(logits, yb)
            val = loss.item()
            if not np.isfinite(val):
                raise NumericError(f"fine-tuning diverged at epoch {epoch}: loss={val}")
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(val)
        acc = float(np.mean(predict(tuned, x) == y))
        trace.append({"epoch": epoch, "loss": float(np.mean(losses)), "support_acc": acc})
    return tuned, trace


def eval_accuracy(model: Backbone, records) -> float:
    """Top-1 accuracy over records in eval mode; never changes the model."""
    x, y = records_as_arrays(records)
    return float(np.mean(predict(model, x) == y))
