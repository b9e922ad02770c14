"""Streaming few-shot test-time adaptation on synthetic domain-shifted data.

The package is organized around a small float64 autodiff core (`tensor`,
`optim`, `gradcheck`), a synthetic multi-domain data generator (`data`), a
compact instance-normalized CNN (`model`), feature-statistics mixing
augmentation (`fda`), a class-prototype memory bank (`prototypes`), the
support-set fine-tuning stage (`finetune`), the online adaptation stage and
its baselines (`stream`), and a configuration/reporting harness
(`config`, `harness`, `cli`).
"""

# perfbench's self-test asserts that the tracer rebinds this name
from .finetune import finetune

__version__ = "0.1.0"
