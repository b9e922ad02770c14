"""Per-class prototype memory: support-set initialization, sliding updates
from filtered pseudo-labeled features, and cosine-softmax classification.

Prototypes are plain numpy state; nothing here participates in gradient
computation; the bank guides the online loop rather than being trained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .tensor import softmax, unit_rows

# the weight a prototype keeps of itself in each sliding update
EMA_BETA = 0.9


@dataclass
class PrototypeBank:
    """One centroid per class plus EMA bookkeeping."""

    prototypes: np.ndarray
    ema_beta: float = EMA_BETA
    update_counts: np.ndarray = field(default=None)
    t: int = 0

    def __post_init__(self):
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        if self.prototypes.ndim != 2:
            raise ConfigError(f"prototypes must be C x D, got shape {self.prototypes.shape}")
        if not 0.0 <= self.ema_beta <= 1.0:
            raise ConfigError(f"ema_beta must be in [0, 1], got {self.ema_beta}")
        if not np.all(np.isfinite(self.prototypes)):
            raise DataError("non-finite prototype values")
        if self.update_counts is None:
            self.update_counts = np.zeros(self.prototypes.shape[0], dtype=np.int64)

    @property
    def class_count(self) -> int:
        return self.prototypes.shape[0]

    def copy(self) -> "PrototypeBank":
        return PrototypeBank(self.prototypes.copy(), self.ema_beta,
                             self.update_counts.copy(), self.t)


def init_bank(embeddings, labels, class_count: int) -> PrototypeBank:
    """Build the bank as per-class means of the support embeddings.

    Every class must appear at least once; the offender is named otherwise.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if emb.ndim != 2 or y.shape != emb.shape[:1]:
        raise DataError(f"embeddings {emb.shape} do not align with labels {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= class_count):
        raise DataError(f"label out of range for {class_count} classes")
    protos = np.empty((class_count, emb.shape[1]), dtype=np.float64)
    for c in range(class_count):
        members = emb[y == c]
        if members.shape[0] == 0:
            raise DataError(f"class {c} has no support samples")
        protos[c] = members.mean(axis=0)
    return PrototypeBank(protos)


def ema_update(bank: PrototypeBank, embeddings, pseudo_labels) -> PrototypeBank:
    """Slide each observed class's prototype toward its batch mean.

    m_c <- beta * m_c + (1 - beta) * mean(features pseudo-labeled c); classes
    absent from the batch keep their prototype bitwise. The time step
    increments once per call, even on an empty batch. embeddings is N x D.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(pseudo_labels, dtype=np.int64)
    if emb.ndim != 2 or y.shape != emb.shape[:1]:
        raise DataError(f"embeddings {emb.shape} do not align with labels {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= bank.class_count):
        raise DataError(f"pseudo-label out of range for {bank.class_count} classes")
    beta = bank.ema_beta
    for c in np.unique(y):
        members = emb[y == c]
        bank.prototypes[c] = beta * bank.prototypes[c] + (1.0 - beta) * members.mean(axis=0)
        bank.update_counts[c] += members.shape[0]
    bank.t += 1
    return bank


def proto_classify(bank: PrototypeBank, features, temperature: float = 1.0) -> np.ndarray:
    """Cosine-softmax class probabilities against the prototypes.

    features is an N x D batch; the result is N x C. Zero-norm features or
    prototypes contribute similarity 0 and raise a degenerate-similarity
    warning (see tensor.unit_rows).
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] != bank.prototypes.shape[1]:
        raise DataError(f"features must be N x {bank.prototypes.shape[1]}, got shape {f.shape}")

    sims = np.clip(unit_rows(f) @ unit_rows(bank.prototypes).T, -1.0, 1.0)
    return softmax(sims / temperature).data
