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
from .model import Backbone, predict
from .optim import Adam
from .tensor import softmax_cross_entropy

# the largest support set that trains in one batch; a larger one goes in
# shuffled minibatches of this size
BATCH_SIZE = 64


@dataclass
class FinetuneConfig:
    """Stage I knobs; epochs=0 is a valid no-op budget."""

    epochs: int = 50
    lr: float = 5e-5
    fda: FdaConfig = field(default_factory=FdaConfig)

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")


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
    opt = Adam(tuned.trainable_params(), lr=cfg.lr)
    rng = np.random.default_rng(seed)

    for epoch in range(1, cfg.epochs + 1):
        order = np.arange(n) if n <= BATCH_SIZE else rng.permutation(n)
        losses = []
        for i in range(0, n, BATCH_SIZE):
            idx = order[i:i + BATCH_SIZE]
            xb, yb = x[idx], y[idx]
            mix = mixer(make_plans(len(idx), rng, cfg.fda))
            _, logits = tuned.forward(xb, mode="train", mix=mix)
            val = opt.minimize(softmax_cross_entropy(logits, yb))
            if not np.isfinite(val):
                raise NumericError(f"fine-tuning diverged at epoch {epoch}: loss={val}")
            losses.append(val)
        acc = float(np.mean(predict(tuned, x) == y))
        trace.append({"epoch": epoch, "loss": float(np.mean(losses)), "support_acc": acc})
    return tuned, trace


def eval_accuracy(model: Backbone, records) -> float:
    """Top-1 accuracy over records in eval mode; never changes the model."""
    x, y = records_as_arrays(records)
    return float(np.mean(predict(model, x) == y))
