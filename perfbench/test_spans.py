"""Self-test of the benchmark's tracer, on a config small enough for seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys

import numpy as np

from common import BENCH_DIR, import_package

import_package()

from fewshot_tta import cli, harness, stream  # noqa: E402
from fewshot_tta.config import RunConfig  # noqa: E402
from fewshot_tta.data import BenchmarkConfig, write_dataset  # noqa: E402
from fewshot_tta.fda import FdaConfig  # noqa: E402
from fewshot_tta.finetune import FinetuneConfig  # noqa: E402
from fewshot_tta.model import SourceConfig, save_model  # noqa: E402
from fewshot_tta.stream import AdaptConfig  # noqa: E402
from spans import Tracer  # noqa: E402


def _small_cfg() -> RunConfig:
    data = BenchmarkConfig(class_count=3, per_class_count=12, image_size=8,
                           source_gains=((1.0, 1.0, 1.0), (1.2, 0.8, 1.0)),
                           source_biases=((0.0, 0.0, 0.0), (0.1, -0.1, 0.0)),
                           target_gain=(0.3, 1.1, 0.9), target_bias=(0.4, -0.3, 0.1),
                           target_noise_std=0.05)
    return RunConfig(k=2, widths=(3, 4, 8, 8), data=data,
                     source=SourceConfig(iters=60, lr=3e-3, batch_size=16),
                     finetune=FinetuneConfig(epochs=5, lr=1e-3, fda=FdaConfig(p_apply=1.0)),
                     adapt=AdaptConfig(batch_size=10, lr=1e-3))


def _pipeline(tmp_path) -> dict:
    """Every traced layer once: source training, stage 1, fs_tta, bn and the CLI."""
    cfg = _small_cfg()
    bench = harness.prepare_benchmark(cfg)
    model, curve = harness.build_source_model(cfg, bench)
    trial = harness.make_trial(cfg, bench)
    stage1 = harness.run_stage1(cfg, trial, model)
    batches = stream.make_stream(trial.remainder, cfg.adapt.batch_size, trial.seeds["stream"])
    state = stream.init_adapt_state(stage1.tuned.copy(), stage1.bank.copy(), cfg.adapt)
    preds = [stream.adapt_batch(state, b.inputs) for b in batches]
    bn = stream.run_baseline("bn", model.copy(), batches, cfg.adapt)

    save_model(tmp_path / "source.ttam", model)
    write_dataset(tmp_path / "stream.ttad", trial.remainder, bench.class_count)
    (tmp_path / "cfg.json").write_text(json.dumps({"k": 2, "widths": [3, 4, 8, 8],
                                                   "adapt": {"batch_size": 10}}))
    code = cli.main(["adapt", "--config", str(tmp_path / "cfg.json"),
                     "--model", str(tmp_path / "source.ttam"),
                     "--stream", str(tmp_path / "stream.ttad"), "--method", "erm",
                     "--out", str(tmp_path / "erm.json")])
    return {
        "source": model.params_hash(),
        "curve": curve,
        "tuned": stage1.tuned.params_hash(),
        "adapted": state.model.params_hash(),
        "preds": preds,
        "accuracy": state.online_correct,
        "bn": bn.final_accuracy,
        "cli": (code, json.loads((tmp_path / "erm.json").read_text())["final_accuracy"]),
    }


def _bindings() -> dict:
    """Every attribute of every package module, plus the three traced methods."""
    from fewshot_tta.model import Backbone
    from fewshot_tta.optim import Adam
    from fewshot_tta.tensor import Tensor

    out = {(name, attr): value for name, mod in list(sys.modules.items())
           if name == "fewshot_tta" or name.startswith("fewshot_tta.")
           for attr, value in vars(mod).items()}
    for cls, attr in ((Backbone, "forward"), (Adam, "step"), (Tensor, "backward")):
        out[(cls.__name__, attr)] = vars(cls)[attr]
    return out


def test_traced_run_is_bitwise_identical_and_restores_bindings(tmp_path):
    plain = _pipeline(tmp_path)
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = _bindings()
        traced = _pipeline(tmp_path)
    finally:
        tracer.uninstall()
    after = _bindings()

    changed = {key for key in before if wrapped[key] is not before[key]}
    assert {("fewshot_tta.model", "conv2d"), ("fewshot_tta.tensor", "conv2d"),
            ("fewshot_tta.harness", "finetune"), ("fewshot_tta", "finetune"),
            ("fewshot_tta.stream", "adapt_batch"), ("fewshot_tta.cli", "main"),
            ("Backbone", "forward"), ("Adam", "step"), ("Tensor", "backward")} <= changed
    assert all(after[key] is before[key] for key in before)

    assert plain.keys() == traced.keys()
    for key in plain:
        if key == "preds":
            assert all(a.dtype == b.dtype and np.array_equal(a, b)
                       for a, b in zip(plain[key], traced[key], strict=True))
        else:
            assert plain[key] == traced[key], key

    names = {s[1] for s in tracer.spans}
    assert {"tensor.conv2d.fwd", "tensor.conv2d.bwd", "tensor.instance_norm.bwd",
            "tensor.elementwise.fwd", "tensor.backward", "optim.step", "model.forward.train",
            "model.forward.graph_eval", "model.forward.nograd", "fda.fda_transform",
            "finetune.finetune", "harness.run_stage1", "harness.embed_records",
            "stream.adapt_batch", "stream.run_baseline", "data.read_dataset",
            "model.load_model", "cli.main"} <= names
    # self time: no span's children cover more than the span itself
    assert min(tracer.self_times()) > -1e-6


def test_traced_metrics_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    got = {name: unit for name, (_, unit) in Tracer().metrics(units=1).items()}
    got["trace.overhead_share"] = "ratio"
    assert got == {m["name"]: m["unit"] for m in spec["per_layer"]}
