"""Streaming few-shot test-time adaptation on synthetic domain-shifted data.

The package is organized around a small float64 autodiff core (`tensor`,
`optim`, `gradcheck`), a synthetic multi-domain data generator (`data`), a
compact instance-normalized CNN (`model`), feature-statistics mixing
augmentation (`fda`), a class-prototype memory bank (`prototypes`), the
support-set fine-tuning stage (`finetune`), the online adaptation stage and
its baselines (`stream`), and a configuration/reporting harness
(`config`, `harness`, `cli`).
"""

from .tensor import (
    Tensor,
    no_grad,
    add,
    sub,
    mul,
    div,
    relu,
    matmul,
    conv2d,
    reshape,
    take_rows,
    softmax,
    cross_entropy,
    softmax_cross_entropy,
    softmax_entropy,
    channel_stats,
    instance_norm,
    cosine_sim,
)
from .optim import Adam, AdamState
from .gradcheck import finite_diff_check, FiniteDiffReport
from .data import (
    BenchmarkConfig,
    Dataset,
    DomainSpec,
    SampleRecord,
    SupportSet,
    gen_domain,
    generate_benchmark,
    read_dataset,
    split_support,
    write_dataset,
)
from .model import Backbone, SourceConfig, load_model, predict, save_model, train_source
from .fda import FdaConfig, FdaPlan, apply_fda, fda_transform, make_plan, make_plans, mix_stats
from .prototypes import PrototypeBank, ema_update, init_bank, proto_classify
from .finetune import FinetuneConfig, eval_accuracy, finetune
from .stream import (
    AdaptConfig,
    AdaptState,
    StreamBatch,
    StreamMetrics,
    adapt_batch,
    consistency_mask,
    entropy,
    entropy_filter,
    make_stream,
    online_loss,
    pseudo_label,
    run_baseline,
)
from .config import RunConfig, config_hash, parse, serialize
from .harness import build_report, prepare_benchmark, run_all, sweep

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "sub",
    "mul",
    "div",
    "relu",
    "matmul",
    "conv2d",
    "reshape",
    "take_rows",
    "softmax",
    "cross_entropy",
    "softmax_cross_entropy",
    "softmax_entropy",
    "channel_stats",
    "instance_norm",
    "cosine_sim",
    "Adam",
    "AdamState",
    "finite_diff_check",
    "FiniteDiffReport",
    "BenchmarkConfig",
    "Dataset",
    "DomainSpec",
    "SampleRecord",
    "SupportSet",
    "gen_domain",
    "generate_benchmark",
    "read_dataset",
    "split_support",
    "write_dataset",
    "Backbone",
    "SourceConfig",
    "load_model",
    "predict",
    "save_model",
    "train_source",
    "FdaConfig",
    "FdaPlan",
    "apply_fda",
    "fda_transform",
    "make_plan",
    "make_plans",
    "mix_stats",
    "PrototypeBank",
    "ema_update",
    "init_bank",
    "proto_classify",
    "FinetuneConfig",
    "eval_accuracy",
    "finetune",
    "AdaptConfig",
    "AdaptState",
    "StreamBatch",
    "StreamMetrics",
    "adapt_batch",
    "consistency_mask",
    "entropy",
    "entropy_filter",
    "make_stream",
    "online_loss",
    "pseudo_label",
    "run_baseline",
    "RunConfig",
    "config_hash",
    "parse",
    "serialize",
    "build_report",
    "prepare_benchmark",
    "run_all",
    "sweep",
]

__version__ = "0.1.0"
