"""The online adaptation loop and its baseline adapters.

Per arriving batch: predict with the current model, keep the most confident
fraction, pseudo-label it, slide the prototype bank, mask samples whose head
and prototype predictions disagree, and take one masked self-training step.
Predictions are always recorded before any update, so reported accuracy is
honest online accuracy. Ground-truth labels ride along in StreamBatch purely
for evaluation; the adaptation functions never receive them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .data import records_as_arrays
from .errors import ConfigError, DataError
from .model import PARAM_GROUPS, Backbone, check_groups
from .optim import Adam
from .prototypes import PrototypeBank, ema_update, proto_classify
from .tensor import Tensor, log, mul, neg, softmax, softmax_entropy, take_rows, tsum

BASELINE_KINDS = ("source_only", "norm_stat", "entropy_min", "ft_only",
                  "ft_plus_entropy_min", "fs_tta")

METHOD_ALIASES = {
    "erm": "source_only",
    "bn": "norm_stat",
    "tent": "entropy_min",
    "ft": "ft_only",
    "ft_tent": "ft_plus_entropy_min",
    "fs_tta": "fs_tta",
}


def resolve_method(name: str) -> str:
    """Map a CLI alias or canonical name onto a BaselineKind."""
    kind = METHOD_ALIASES.get(name, name)
    if kind not in BASELINE_KINDS:
        raise ConfigError(f"unknown method {name!r}; choose from {sorted(METHOD_ALIASES)}")
    return kind


@dataclass
class StreamBatch:
    """One arriving mini-batch. hidden_labels exist for scoring only."""

    inputs: np.ndarray
    hidden_labels: np.ndarray


@dataclass
class AdaptConfig:
    """Stage II knobs."""

    alpha: float = 0.6
    batch_size: int = 64
    lr: float = 5e-5
    groups: tuple = PARAM_GROUPS
    predict_with: str = "head"
    tau: float = 1.0

    def __post_init__(self):
        self.groups = tuple(self.groups)
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        check_groups(self.groups)
        if self.predict_with not in ("head", "proto"):
            raise ConfigError(f"predict_with must be head or proto, got {self.predict_with!r}")


@dataclass
class AdaptState:
    """Everything the online loop owns while consuming a stream; after
    run_baseline, also the record of the run."""

    model: Backbone
    bank: PrototypeBank | None
    opt: Adam | None
    cfg: AdaptConfig
    online_correct: int = 0
    online_total: int = 0
    selected_total: int = 0
    mask_total: int = 0
    loss_skipped: int = 0
    rows: list = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.online_correct / self.online_total if self.online_total else 0.0


def init_adapt_state(model: Backbone, bank: PrototypeBank | None, cfg: AdaptConfig,
                     trainable: bool = True) -> AdaptState:
    opt = Adam(model.trainable_params(cfg.groups), lr=cfg.lr) if trainable else None
    return AdaptState(model=model, bank=bank, opt=opt, cfg=cfg)


# -- per-sample primitives ----------------------------------------------


def entropy(p):
    """Shannon entropy along the last axis, with 0 * log 0 = 0.

    One probability vector gives a Python float; a B x C batch gives B values.
    """
    p = np.asarray(p, dtype=np.float64)
    safe = np.where(p > 0.0, p, 1.0)
    ent = -np.sum(np.where(p > 0.0, p * np.log(safe), 0.0), axis=-1)
    return float(ent) if p.ndim == 1 else ent


def selected_count(alpha: float, batch_rows: int) -> int:
    """How many rows entropy_filter keeps of a batch: floor(alpha * B)."""
    # the tiny slack keeps an intended-integer product like 0.3 * 10 from
    # truncating one short under floating point
    return int(np.floor(alpha * batch_rows + 1e-9))


def entropy_filter(batch_probs, alpha: float) -> np.ndarray:
    """Indices of the floor(alpha * B) lowest-entropy rows.

    Ties go to the lower batch index; the result is in ascending index order.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    probs = np.asarray(batch_probs, dtype=np.float64)
    if probs.ndim != 2:
        raise DataError(f"batch_probs must be B x C, got shape {probs.shape}")
    b = probs.shape[0]
    take = selected_count(alpha, b)
    if take == 0:
        return np.empty(0, dtype=np.intp)
    ent = entropy(probs)
    ranked = np.lexsort((np.arange(b), ent))
    return np.sort(ranked[:take])


def pseudo_label(logits) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise DataError(f"logits must be B x C, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise DataError("non-finite logits")
    return np.argmax(z, axis=1)


def consistency_mask(model_probs, proto_probs) -> np.ndarray:
    """1 where the head's argmax and the prototype argmax agree, else 0."""
    p = np.asarray(model_probs, dtype=np.float64)
    q = np.asarray(proto_probs, dtype=np.float64)
    if p.shape != q.shape:
        raise DataError(f"probability shapes differ: {p.shape} vs {q.shape}")
    if p.ndim == 1:
        p, q = p[None, :], q[None, :]
    return (np.argmax(p, axis=1) == np.argmax(q, axis=1)).astype(np.int64)


def online_loss(probs: Tensor, pseudo_labels, masks):
    """Masked mean self-training loss over the selected samples.

    probs is the graph-connected N x C softmax output; the loss is
    sum(-log probs[j, label_j] * mask_j) / sum(mask_j). Returns None when
    every mask is zero, which callers treat as "no update this batch".
    """
    y = np.asarray(pseudo_labels, dtype=np.int64)
    m = np.asarray(masks, dtype=np.float64)
    n, c = probs.shape
    if y.shape != (n,) or m.shape != (n,):
        raise DataError(f"labels {y.shape} / masks {m.shape} do not align with probs {probs.shape}")
    if n == 0 or m.sum() == 0:
        return None
    if y.min() < 0 or y.max() >= c:
        raise DataError(f"pseudo-label out of range for {c} classes")
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y] = 1.0
    picked = tsum(mul(probs, Tensor(onehot)), axis=1)
    weighted = mul(neg(log(picked)), Tensor(m))
    return tsum(weighted) / float(m.sum())


def entropy_min_loss(logits: Tensor) -> Tensor:
    """Mean prediction entropy of a batch; the entropy-minimization objective."""
    return softmax_entropy(logits).mean()


# -- the adaptation step -------------------------------------------------


def _train_step(state: AdaptState, loss: Tensor) -> float:
    """One Adam step on a finite loss; a non-finite one is counted and skipped."""
    loss_val = loss.item()
    if np.isfinite(loss_val):
        state.opt.zero_grad()
        loss.backward()
        state.opt.step()
    else:
        state.loss_skipped += 1
    return loss_val


# Above this share of selected rows, one graph forward over the whole batch
# is cheaper than graph-free inference plus a graph over the kept rows: on
# the default trial (2 vCPUs) the two cost the same near 0.69 at batch 64,
# and between 0.6 and 0.7 at batches 8 to 32.
WHOLE_GRAPH_SHARE = 2 / 3


def adapt_batch(state: AdaptState, inputs) -> np.ndarray:
    """Consume one unlabeled batch; returns the predictions made on arrival.

    One forward serves prediction, filtering, the bank update and the
    consistency mask, so predictions always reflect the pre-update model.
    The bank update runs before prototype classification. Only the rows that
    carry loss (selected, with mask 1) enter the loss: with instance
    statistics a row's output depends on that row alone, so this is the
    masked loss over the whole selection and its gradient, summed in a
    different order. When at most WHOLE_GRAPH_SHARE of the batch is
    selected, that forward is the graph-free ``Backbone.infer`` and the kept
    rows alone go through a graph-mode forward (none kept, no graph);
    otherwise one graph-mode forward over the whole batch serves both.
    A non-finite loss skips the step and the stream continues.
    """
    if state.bank is None:
        raise ConfigError("adapt_batch needs an initialized prototype bank")
    x = np.asarray(inputs, dtype=np.float64)
    graph_logits = None
    if selected_count(state.cfg.alpha, len(x)) / max(len(x), 1) > WHOLE_GRAPH_SHARE:
        emb, graph_logits = state.model.forward(x, mode="eval")
        emb, logits = emb.data, graph_logits.data
    else:
        emb, logits = state.model.infer(x)
    probs = softmax(logits).data
    if state.cfg.predict_with == "proto":
        preds = np.argmax(proto_classify(state.bank, emb, state.cfg.tau), axis=1)
    else:
        preds = np.argmax(logits, axis=1)

    sel = entropy_filter(probs, state.cfg.alpha)
    pseudo = pseudo_label(logits[sel])
    ema_update(state.bank, emb[sel], pseudo)
    proto_probs = proto_classify(state.bank, emb[sel], state.cfg.tau)
    masks = consistency_mask(probs[sel], proto_probs)

    keep = np.flatnonzero(masks)
    loss_val = float("nan")
    if keep.size:
        rows = sel[keep]
        sub_logits = (take_rows(graph_logits, rows) if graph_logits is not None
                      else state.model.forward(x[rows], mode="eval")[1])
        loss_val = _train_step(state, online_loss(softmax(sub_logits), pseudo[keep], masks[keep]))

    state.selected_total += int(sel.size)
    state.mask_total += int(masks.sum())
    state.rows.append({
        "selected": int(sel.size),
        "mask_rate": float(masks.mean()) if masks.size else 0.0,
        "loss": loss_val,
    })
    return preds


def tent_batch(state: AdaptState, inputs) -> np.ndarray:
    """One entropy-minimization step; predictions are pre-update."""
    x = np.asarray(inputs, dtype=np.float64)
    _, logits = state.model.forward(x, mode="eval")
    preds = np.argmax(logits.data, axis=1)
    loss_val = _train_step(state, entropy_min_loss(logits))
    state.rows.append({"selected": x.shape[0], "mask_rate": 1.0, "loss": loss_val})
    return preds


def frozen_batch(state: AdaptState, inputs, batch_stats: bool = False) -> np.ndarray:
    """Predict without adapting; batch_stats normalizes with the batch's own statistics."""
    _, logits = state.model.infer(inputs, batch_stats=batch_stats)
    state.rows.append({"selected": 0, "mask_rate": 0.0, "loss": float("nan")})
    return np.argmax(logits, axis=1)


# -- stream plumbing -----------------------------------------------------


def make_stream(records, batch_size: int, seed: int, order: str = "shuffled") -> list[StreamBatch]:
    """Partition records into arriving batches.

    order "shuffled" permutes once with the seed; "sorted" streams
    class-by-class, the non-i.i.d. stress layout.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if order not in ("shuffled", "sorted"):
        raise ConfigError(f"order must be shuffled or sorted, got {order!r}")
    if not records:
        raise DataError("empty stream")
    x, y = records_as_arrays(records)
    if order == "shuffled":
        perm = np.random.default_rng(seed).permutation(len(records))
    else:
        perm = np.argsort(y, kind="stable")
    x, y = x[perm], y[perm]
    return [StreamBatch(inputs=x[i: i + batch_size], hidden_labels=y[i: i + batch_size])
            for i in range(0, len(records), batch_size)]


def run_baseline(kind: str, model: Backbone, stream: list[StreamBatch], cfg: AdaptConfig,
                 bank: PrototypeBank | None = None) -> AdaptState:
    """Run one adapter over a stream, score its online predictions, and
    return the state it ran, which holds the run's counters and batch rows.

    The model passed in must already match the kind: fine-tuned for the ft_*
    kinds and for fs_tta (which also needs the support-initialized bank).
    Hidden labels are only touched here, after each batch's predictions.
    """
    kind = resolve_method(kind)
    if kind == "fs_tta":
        if bank is None:
            raise ConfigError("fs_tta needs the support-set prototype bank (--support)")
        state, step = init_adapt_state(model, bank, cfg), adapt_batch
    elif kind in ("entropy_min", "ft_plus_entropy_min"):
        tent_cfg = replace(cfg, groups=("norm_affine",), predict_with="head")
        state, step = init_adapt_state(model, None, tent_cfg), tent_batch
    else:
        state = init_adapt_state(model, None, cfg, trainable=False)
        step = partial(frozen_batch, batch_stats=kind == "norm_stat")

    for batch in stream:
        preds = step(state, batch.inputs)
        row = state.rows[-1]
        row["batch_correct"] = int(np.sum(preds == batch.hidden_labels))
        row["batch_size"] = len(batch.hidden_labels)
        state.online_correct += row["batch_correct"]
        state.online_total += row["batch_size"]
        row["cumulative_accuracy"] = state.final_accuracy
    return state
