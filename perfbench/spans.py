"""Span tracing of the package's public functions, installed from outside.

``Tracer.install()`` replaces every traced function in each ``fewshot_tta``
module namespace that bound it by name, plus ``Backbone.forward``,
``Adam.step`` and ``Tensor.backward``, with a wrapper that records a span:
name, start, end, parent and the id of the step, batch or CLI call it belongs
to. ``uninstall()`` puts every original object back. The wrappers call the
originals with the same arguments and return their results untouched, so a
traced run computes bitwise what an untraced one does.

Tensor ops are credited to the outermost op: an op called inside another
(the graph ``instance_norm`` builds, say) records no span of its own, and the
backward closure of every tensor it returns is timed under the outer op.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# tensor ops that get their own layer; every other op is "elementwise"
OWN_LAYER_OPS = ("conv2d", "instance_norm")
TENSOR_OPS = ("add", "sub", "mul", "div", "neg", "sqrt", "exp", "log", "relu", "reshape",
              "tsum", "tmean", "take_rows", "matmul", "conv2d", "softmax", "cross_entropy",
              "softmax_cross_entropy", "softmax_entropy", "channel_stats", "instance_norm",
              "cosine_sim")
# (module, function, span name): one span per call
FUNCTIONS = (
    ("data", "generate_benchmark", "data.generate_benchmark"),
    ("stream", "make_stream", "data.make_stream"),
    ("model", "load_model", "model.load_model"),
    ("model", "predict", "model.predict"),
    ("finetune", "finetune", "finetune.finetune"),
    ("finetune", "eval_accuracy", "finetune.eval_accuracy"),
    ("prototypes", "init_bank", "prototypes.init_bank"),
    ("prototypes", "ema_update", "prototypes.ema_update"),
    ("prototypes", "proto_classify", "prototypes.proto_classify"),
    ("stream", "entropy_filter", "stream.entropy_filter"),
    ("stream", "run_baseline", "stream.run_baseline"),
    ("harness", "prepare_benchmark", "harness.prepare_benchmark"),
    ("harness", "build_source_model", "harness.build_source_model"),
    ("harness", "make_trial", "harness.make_trial"),
    ("harness", "run_stage1", "harness.run_stage1"),
    ("harness", "embed_records", "harness.embed_records"),
    ("cli", "main", "cli.main"),
)

_clock = time.perf_counter


class Tracer:
    """Spans and counts of one traced run, kept in memory until written out."""

    def __init__(self):
        # each span: [group, name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.group = -1
        # a span name whose end starts a new group, or None
        self.group_on: str | None = None
        self._stack: list[int] = []
        self._outer_op: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.group, name, _clock(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = _clock()
        self._stack.pop()
        if self.spans[idx][1] == self.group_on:
            self.group += 1

    def _call(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, *args, **kwargs)
        return wrapper

    def _op(self, op: str, fn):
        layer = op if op in OWN_LAYER_OPS else "elementwise"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._outer_op is not None:
                out = fn(*args, **kwargs)
                self._time_backward(out, self._outer_op, 0)
                return out
            self._outer_op = layer
            try:
                out = self._call(f"tensor.{layer}.fwd", fn, *args, **kwargs)
            finally:
                self._outer_op = None
            flop = 0
            if op == "conv2d":
                n, c, h, w = args[0].shape
                o, _, k, _ = args[1].shape
                flop = 2 * n * o * c * k * k * h * w
                self.counts["tensor.conv2d.fwd_flop"] += flop
            # backward computes both the input and the weight gradient
            self._time_backward(out, layer, 2 * flop)
            return out
        return wrapper

    def _time_backward(self, out, layer: str, flop: int) -> None:
        for t in out if isinstance(out, tuple) else (out,):
            fn = getattr(t, "_backward_fn", None)
            if fn is None:
                continue

            def timed(g, fn=fn):
                try:
                    return self._call(f"tensor.{layer}.bwd", fn, g)
                finally:
                    self.counts[f"tensor.{layer}.bwd_flop"] += flop
            t._backward_fn = timed

    def _forward(self, fn, tensor_mod):
        @functools.wraps(fn)
        def forward(model, x, mode="eval", **kwargs):
            if mode == "train":
                kind = "train"
            else:
                kind = "graph_eval" if tensor_mod._grad_enabled else "nograd"
            self.counts["model.forward.samples"] += len(x)
            return self._call(f"model.forward.{kind}", fn, model, x, mode, **kwargs)
        return forward

    def _step(self, fn):
        @functools.wraps(fn)
        def step(opt):
            applied = self._call("optim.step", fn, opt)
            self.counts["optim.step.skipped"] += not applied
            return applied
        return step

    def _adapt_batch(self, fn):
        @functools.wraps(fn)
        def adapt_batch(state, inputs):
            before = (state.selected_total, state.mask_total, state.loss_skipped)
            preds = self._call("stream.adapt_batch", fn, state, inputs)
            self.counts["stream.samples"] += len(preds)
            self.counts["stream.selected"] += state.selected_total - before[0]
            self.counts["stream.mask_ones"] += state.mask_total - before[1]
            self.counts["stream.loss_skipped"] += state.loss_skipped - before[2]
            return preds
        return adapt_batch

    def _read_dataset(self, fn):
        @functools.wraps(fn)
        def read_dataset(path):
            self.counts["data.read_dataset_bytes"] += os.path.getsize(path)
            return self._call("data.read_dataset", fn, path)
        return read_dataset

    def _fda_transform(self, fn):
        @functools.wraps(fn)
        def fda_transform(features, plan, *args, **kwargs):
            self.counts["fda.applied"] += bool(plan.apply)
            return self._call("fda.fda_transform", fn, features, plan, *args, **kwargs)
        return fda_transform

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever the package bound it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"fewshot_tta.{name}")
                for name in ("tensor", "optim", "data", "model", "fda", "finetune",
                             "prototypes", "stream", "harness", "cli")}
        tensor, model, optim = mods["tensor"], mods["model"], mods["optim"]
        special = {
            ("stream", "adapt_batch"): self._adapt_batch,
            ("data", "read_dataset"): self._read_dataset,
            ("fda", "fda_transform"): self._fda_transform,
        }
        # keyed by id: module attributes need not be hashable; each wrapper
        # keeps its original alive, so the ids stay unique
        wrappers = {}
        for op in TENSOR_OPS:
            fn = getattr(tensor, op)
            wrappers[id(fn)] = self._op(op, fn)
        for (mod_name, fn_name), make in special.items():
            fn = getattr(mods[mod_name], fn_name)
            wrappers[id(fn)] = make(fn)
        for mod_name, fn_name, span in FUNCTIONS:
            fn = getattr(mods[mod_name], fn_name)
            wrappers[id(fn)] = self._span(span, fn)

        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "fewshot_tta" or name.startswith("fewshot_tta.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    self._replace(ns, attr, wrappers[id(value)])
        self._replace(model.Backbone, "forward", self._forward(model.Backbone.forward, tensor))
        self._replace(optim.Adam, "step", self._step(optim.Adam.step))
        self._replace(tensor.Tensor, "backward",
                      self._span("tensor.backward", tensor.Tensor.backward))

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put back every original attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct child spans cover."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                out[s[4]] -= s[3] - s[2]
        return out

    def metrics(self, units: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}.

        Spans of the set-up (group -1) are left out, and times and counts are
        per unit of the workload (a training step, a trial or a CLI call),
        except for the ``data`` layer and ``model.load_model_s``, which are
        per call of the function named, set-up included.
        """
        tot: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        all_tot: dict[str, float] = defaultdict(float)
        all_calls: dict[str, int] = defaultdict(int)
        selfs = self.self_times()
        cli_self = eval_s = 0.0
        for i, (group, name, start, end, parent) in enumerate(self.spans):
            all_tot[name] += end - start
            all_calls[name] += 1
            if group < 0:
                continue
            tot[name] += end - start
            calls[name] += 1
            if name == "cli.main":
                cli_self += selfs[i]
            elif name == "model.predict" and parent >= 0 \
                    and self.spans[parent][1] == "finetune.finetune":
                eval_s += end - start
        c = self.counts
        u = max(units, 1)
        out: dict[str, tuple[float, str]] = {}

        def per_unit(metric, span):
            out[metric] = (tot[span] / u, "s")

        def per_call(metric, span):
            out[metric] = (_ratio(all_tot[span], all_calls[span]), "s")

        for layer in OWN_LAYER_OPS:
            per_unit(f"tensor.{layer}.fwd_s", f"tensor.{layer}.fwd")
            per_unit(f"tensor.{layer}.bwd_s", f"tensor.{layer}.bwd")
            out[f"tensor.{layer}.calls"] = (calls[f"tensor.{layer}.fwd"] / u, "count")
        for phase in ("fwd", "bwd"):
            out[f"tensor.conv2d.{phase}_gflops"] = (
                _ratio(c[f"tensor.conv2d.{phase}_flop"], tot[f"tensor.conv2d.{phase}"]) / 1e9,
                "GFLOP/s")
        per_unit("tensor.elementwise.fwd_s", "tensor.elementwise.fwd")
        per_unit("tensor.elementwise.bwd_s", "tensor.elementwise.bwd")
        per_unit("tensor.backward.s", "tensor.backward")
        out["tensor.backward.calls"] = (calls["tensor.backward"] / u, "count")
        per_unit("optim.step.s", "optim.step")
        out["optim.step.calls"] = (calls["optim.step"] / u, "count")
        out["optim.step.skipped"] = (c["optim.step.skipped"] / u, "count")
        for kind in ("train", "graph_eval", "nograd"):
            per_unit(f"model.forward.{kind}_s", f"model.forward.{kind}")
        out["model.forward.samples"] = (c["model.forward.samples"] / u, "count")
        per_call("model.load_model_s", "model.load_model")
        per_unit("fda.fda_transform_s", "fda.fda_transform")
        out["fda.applied_share"] = (_ratio(c["fda.applied"], calls["fda.fda_transform"]), "ratio")
        per_unit("finetune.finetune_s", "finetune.finetune")
        out["finetune.eval_s"] = (eval_s / u, "s")
        out["finetune.eval_share"] = (_ratio(eval_s, tot["finetune.finetune"]), "ratio")
        for fn in ("init_bank", "ema_update", "proto_classify"):
            per_unit(f"prototypes.{fn}_s", f"prototypes.{fn}")
        for fn in ("adapt_batch", "entropy_filter", "run_baseline"):
            per_unit(f"stream.{fn}_s", f"stream.{fn}")
        out["stream.loss_skipped"] = (c["stream.loss_skipped"] / u, "count")
        out["stream.selected_share"] = (_ratio(c["stream.selected"], c["stream.samples"]), "ratio")
        out["stream.update_share"] = (_ratio(c["stream.mask_ones"], c["stream.samples"]), "ratio")
        for fn in ("make_trial", "run_stage1", "embed_records"):
            per_unit(f"harness.{fn}_s", f"harness.{fn}")
        per_call("data.generate_benchmark_s", "data.generate_benchmark")
        per_call("data.read_dataset_s", "data.read_dataset")
        out["data.read_dataset_mbps"] = (
            _ratio(c["data.read_dataset_bytes"], all_tot["data.read_dataset"]) / 1e6, "MB/s")
        per_call("data.make_stream_s", "data.make_stream")
        per_unit("cli.main_s", "cli.main")
        out["cli.overhead_s"] = (cli_self / u, "s")
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines: group, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("group\tname\tstart\tend\tparent\n")
            for g, name, start, end, parent in self.spans:
                fh.write(f"{g}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
