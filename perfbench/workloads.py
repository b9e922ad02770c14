"""The benchmark's three workloads, each a closed loop over public functions.

Every workload sets up ``SETUP_REPEATS`` times and reports the median as
``setup_s``. It then runs cycles one after another until ``seconds`` have
passed and its minimum count is met: a source-training run, a trial (stage 1
and the stream), or the erm and bn CLI calls on one stream file. Finally it
checks its outputs, raising ``BenchError`` on a wrong one.

All three report the same gated end-to-end metrics, each about the
workload's own operation (a training step, an ``adapt_batch`` call, a CLI
call) and cycle; figures that are reported but not gated, such as the p90
and the throughputs, go into ``Result.named``.

In a traced run every other cycle runs with the tracer installed. The
per-layer metrics come from those cycles, and the tracing overhead from
comparing their operation latency with that of the untraced cycles.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from common import (FIXTURE_MODEL, WORK_DIR, BenchError, check_fixture_accuracy,
                    load_fixture)

SETUP_REPEATS = 5
# steps per source-training run: enough for every seed's loss to leave its
# initial plateau at ln 6, so "last logged loss below the first" holds
TRAIN_STEPS = 200
# trials per adapt-stream run: 6 x 19 batches puts 100+ samples under the p90
ADAPT_TRIALS = 6
# stream files per frozen-cli run; the cycles go round them in turn
CLI_TRIALS = 3
CLI_METHODS = ("erm", "bn")

_clock = time.perf_counter


@dataclass
class Result:
    """What one workload run measured."""

    metrics: dict = field(default_factory=dict)  # gated end-to-end: {name: (value, unit)}
    named: dict = field(default_factory=dict)    # reported, not gated
    attempted: int = 0
    failed: int = 0
    ops: int = 0              # operations under op_ms_p50 / op_ms_p90
    units: int = 0            # per-layer normalisation: units run with the tracer installed
    unit: str = ""            # what such a unit is
    overhead: float = 0.0     # traced / untraced median operation latency - 1


@contextlib.contextmanager
def tracing(tracer, group: int | None = None):
    """Install the tracer for the block (no-op when tracer is None)."""
    if tracer is None:
        yield
        return
    if group is not None:
        tracer.group = group
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def timed_setup(fn, tracer):
    """Run the set-up SETUP_REPEATS times; returns the last result and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = _clock()
        with tracing(tracer, group=-1):
            out = fn()
        times.append(_clock() - t0)
    return out, statistics.median(times)


def _summary(res: Result, setup_s, op_s, cycle_s, quality, named: dict) -> None:
    """The gated metrics, plus the p90 and the workload's own figures, which are not gated."""
    p50, p90 = (float(p) for p in np.percentile(np.asarray(op_s) * 1e3, [50, 90]))
    res.ops = len(op_s)
    res.metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (p50, "ms"),
        "cycle_s": (statistics.median(cycle_s), "s"),
        "quality": (quality, "ratio"),
    }
    res.named = {"op_ms_p90": (p90, "ms"), **named}


def _frozen_accuracy(stream, model, records, cfg) -> float:
    """Accuracy of the model, left unchanged, over records in stream-sized batches."""
    batches = stream.make_stream(records, cfg.adapt.batch_size, 0, "sorted")
    return stream.run_baseline("source_only", model, batches, cfg.adapt).final_accuracy


def _overhead(traced: list, untraced: list) -> float:
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced) - 1.0


# -- source-train --------------------------------------------------------


class _SkipCounter(logging.Handler):
    """Counts the optimizer's skipped-update warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


@contextlib.contextmanager
def _step_clock(ends: list):
    """Record when each optimizer step returns: the only hook in an untraced run."""
    from fewshot_tta.optim import Adam

    original = Adam.step

    def step(opt):
        applied = original(opt)
        ends.append(_clock())
        return applied

    Adam.step = step
    try:
        yield
    finally:
        Adam.step = original


def source_train(seed: int, seconds: float, tracer) -> Result:
    """Train the default Backbone from scratch for TRAIN_STEPS steps per cycle."""
    from fewshot_tta import harness
    from fewshot_tta.config import RunConfig
    from fewshot_tta.errors import FewshotTtaError

    bench, setup_s = timed_setup(lambda: harness.prepare_benchmark(RunConfig()), tracer)
    cfg = RunConfig(master_seed=seed)
    cfg = replace(cfg, source=replace(cfg.source, iters=TRAIN_STEPS))
    samples = TRAIN_STEPS * cfg.source.batch_size

    res = Result(unit="training step")
    if tracer is not None:
        tracer.group, tracer.group_on = 0, "optim.step"
    skips = _SkipCounter()
    logging.getLogger("fewshot_tta.optim").addHandler(skips)
    cycle_s = {True: [], False: []}
    step_s, curves, hashes = [], [], set()
    deadline = _clock() + seconds
    i = 0
    last = 0.0
    try:
        # one cycle (a traced and an untraced one in a traced run), then more
        # while the last cycle's duration still fits before the deadline
        while i < (2 if tracer else 1) or _clock() + last < deadline:
            traced = tracer is not None and i % 2 == 1
            ends = []
            res.attempted += TRAIN_STEPS
            t0 = _clock()
            try:
                with tracing(tracer) if traced else _step_clock(ends):
                    model, curve = harness.build_source_model(cfg, bench)
            except FewshotTtaError:
                res.failed += 1
                curve = None
            last = _clock() - t0
            i += 1
            if curve is None:
                continue
            cycle_s[traced].append(last)
            step_s.extend(np.diff([t0] + ends))
            curves.append(curve)
            hashes.add(model.params_hash())
            res.units += traced * TRAIN_STEPS
    finally:
        logging.getLogger("fewshot_tta.optim").removeHandler(skips)
    res.failed += skips.count

    if not cycle_s[False]:
        raise BenchError("no untraced source-training run completed")
    losses = [loss for _, loss in curves[0]]
    if not all(np.isfinite(losses)):
        raise BenchError(f"non-finite training loss: {losses}")
    if not losses[-1] < losses[0]:
        raise BenchError(f"last logged loss {losses[-1]} is not below the first {losses[0]}")
    if len(hashes) != 1 or any(c != curves[0] for c in curves):
        raise BenchError("repeated source training from one seed gave different models")

    _summary(res, setup_s, step_s, cycle_s[False], losses[0] / losses[-1], {
        "train_samples_per_s": (statistics.median(samples / s for s in cycle_s[False]),
                                "samples/s"),
        "train_final_loss": (losses[-1], "loss")})
    res.overhead = _overhead(cycle_s[True], cycle_s[False])
    return res


# -- adapt-stream --------------------------------------------------------


class HiddenLabels:
    """A stream's inputs, with its labels handed out only against predictions."""

    def __init__(self, batches):
        self.inputs = [batch.inputs for batch in batches]
        self._labels = [batch.hidden_labels for batch in batches]

    def score(self, b: int, preds) -> int:
        if len(preds) != len(self.inputs[b]):
            raise BenchError(f"batch {b}: {len(preds)} predictions for {len(self.inputs[b])} inputs")
        return int(np.sum(preds == self._labels[b]))


def adapt_stream(seed: int, seconds: float, tracer) -> Result:
    """Stage 1 then fs_tta over the stream from the fixture, one trial per cycle."""
    from fewshot_tta import harness, stream
    from fewshot_tta.config import RunConfig
    from fewshot_tta.errors import FewshotTtaError
    from fewshot_tta.stream import AdaptConfig

    def setup():
        model, meta = load_fixture()
        return model, meta, harness.prepare_benchmark(RunConfig())

    (model, meta, bench), setup_s = timed_setup(setup, tracer)
    # the acceptance suite's protocol: defaults with the stage-2 learning rate 5e-4
    base = RunConfig(adapt=AdaptConfig(lr=5e-4))
    remainder = harness.make_trial(base, bench).remainder
    check_fixture_accuracy(_frozen_accuracy(stream, model, remainder, base), meta)

    res = Result(unit="trial")
    stage1_s, cycle_s = [], []
    batch_s = {True: [], False: []}
    samples = 0
    acc_stage1, acc_fs = [], []
    deadline = _clock() + seconds
    i = gid = 0
    while i < ADAPT_TRIALS or _clock() < deadline:
        cfg = replace(base, trial_seed=seed * 1000 + i)
        traced = tracer is not None and i % 2 == 1
        res.attempted += 1
        t_trial = _clock()
        try:
            with tracing(tracer if traced else None, group=gid):
                trial = harness.make_trial(cfg, bench)
                t0 = _clock()
                stage1 = harness.run_stage1(cfg, trial, model)
                stage1_s.append(_clock() - t0)
                batches = stream.make_stream(trial.remainder, cfg.adapt.batch_size,
                                             trial.seeds["stream"], cfg.stream_order)
                state = stream.init_adapt_state(stage1.tuned.copy(), stage1.bank.copy(),
                                                cfg.adapt)
                labels = HiddenLabels(batches)
                preds_all, correct = [], 0
                for b, x in enumerate(labels.inputs):
                    res.attempted += 1
                    gid += 1
                    if traced:
                        tracer.group = gid
                    t0 = _clock()
                    try:
                        preds = stream.adapt_batch(state, x)
                    except FewshotTtaError:
                        res.failed += 1
                        continue
                    batch_s[traced].append(_clock() - t0)
                    samples += 0 if traced else len(x)
                    correct += labels.score(b, preds)
                    preds_all.append(preds)
        except FewshotTtaError:
            res.failed += 1
            i += 1
            continue
        if not traced:
            cycle_s.append(_clock() - t_trial)
        gid += 1
        res.failed += state.loss_skipped + state.opt.state.skipped_steps
        res.units += traced
        if i < ADAPT_TRIALS:
            acc_fs.append(correct / len(trial.remainder))
            acc_stage1.append(stream.run_baseline("ft_only", stage1.tuned, batches,
                                                  cfg.adapt).final_accuracy)
        if i == 0:
            _check_reference(stream, stage1, batches, cfg, preds_all, state.model.params_hash())
        i += 1

    if len(acc_fs) < ADAPT_TRIALS:
        raise BenchError(f"only {len(acc_fs)} of the first {ADAPT_TRIALS} trials completed")
    acc = statistics.fmean(acc_fs)
    _summary(res, setup_s, batch_s[False], cycle_s, acc, {
        "stage1_s": (statistics.median(stage1_s), "s"),
        "adapt_samples_per_s": (samples / sum(batch_s[False]), "samples/s"),
        "acc_stage1": (statistics.fmean(acc_stage1), "accuracy"),
        "acc_fs_tta": (acc, "accuracy")})
    res.overhead = _overhead(batch_s[True], batch_s[False])
    return res


def _check_reference(stream, stage1, batches, cfg, preds_all, params_hash):
    """run_baseline("fs_tta") on the same trial must give the loop's predictions bitwise."""
    original = stream.adapt_batch
    captured = []

    def capture(state, inputs):
        preds = original(state, inputs)
        captured.append(preds)
        return preds

    model = stage1.tuned.copy()
    stream.adapt_batch = capture
    try:
        stream.run_baseline("fs_tta", model, batches, cfg.adapt, bank=stage1.bank.copy())
    finally:
        stream.adapt_batch = original
    same = len(captured) == len(preds_all) and all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(captured, preds_all))
    if not same or model.params_hash() != params_hash:
        raise BenchError("the batch loop does not reproduce run_baseline('fs_tta') bitwise")


# -- frozen-cli ----------------------------------------------------------


def frozen_cli(seed: int, seconds: float, tracer) -> Result:
    """``fewshot-tta adapt`` with erm then bn on one set-up stream file per cycle."""
    from fewshot_tta import cli, harness, stream
    from fewshot_tta.config import RunConfig
    from fewshot_tta.data import read_dataset, write_dataset

    base = RunConfig()
    work = WORK_DIR / f"frozen-cli-seed{seed}"
    trial_seeds = [seed * 1000 + i for i in range(CLI_TRIALS)]

    def setup():
        model, meta = load_fixture()
        bench = harness.prepare_benchmark(base)
        work.mkdir(parents=True, exist_ok=True)
        order_seeds = {}
        for t in trial_seeds:
            trial = harness.make_trial(replace(base, trial_seed=t), bench)
            write_dataset(work / f"stream-{t}.ttad", trial.remainder, bench.class_count)
            order_seeds[t] = trial.seeds["stream"]
        return model, meta, bench, order_seeds

    (model, meta, bench, order_seeds), setup_s = timed_setup(setup, tracer)
    remainder = harness.make_trial(base, bench).remainder
    check_fixture_accuracy(_frozen_accuracy(stream, model, remainder, base), meta)

    res = Result(unit="CLI call")
    call_s = {True: [], False: []}
    rates, cycle_s = [], []
    accuracy: dict[tuple, set] = {}
    out = work / "metrics.json"
    deadline = _clock() + seconds
    j = 0
    while j < CLI_TRIALS or _clock() < deadline:
        t = trial_seeds[j % CLI_TRIALS]
        traced = tracer is not None and j % 2 == 1
        t_cycle = _clock()
        for method in CLI_METHODS:
            argv = ["adapt", "--model", str(FIXTURE_MODEL), "--stream",
                    str(work / f"stream-{t}.ttad"), "--method", method,
                    "--trial-seed", str(t), "--out", str(out)]
            res.attempted += 1
            t0 = _clock()
            with tracing(tracer if traced else None, group=res.attempted), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            dt = _clock() - t0
            if code != 0:
                res.failed += 1
                continue
            doc = json.loads(out.read_text())
            call_s[traced].append(dt)
            if not traced:
                rates.append(doc["total"] / dt)
            accuracy.setdefault((t, method), set()).add(doc["final_accuracy"])
            res.units += traced
        if not traced:
            cycle_s.append(_clock() - t_cycle)
        j += 1

    for (t, method), seen in accuracy.items():
        ds = read_dataset(work / f"stream-{t}.ttad")
        batches = stream.make_stream(ds.records, base.adapt.batch_size, order_seeds[t],
                                     base.stream_order)
        ref = stream.run_baseline(method, model.copy(), batches, base.adapt).final_accuracy
        if seen != {ref}:
            raise BenchError(f"adapt --method {method} --trial-seed {t}: final_accuracy "
                             f"{sorted(seen)} != in-process run_baseline {ref}")
    by_method = {m: [min(accuracy[(t, m)]) for t in trial_seeds if (t, m) in accuracy]
                 for m in CLI_METHODS}
    if any(len(accs) < CLI_TRIALS for accs in by_method.values()):
        raise BenchError(f"not every stream file ran with every method: {by_method}")

    acc = statistics.fmean(by_method["erm"])
    _summary(res, setup_s, call_s[False], cycle_s, acc, {
        "frozen_samples_per_s": (statistics.median(rates), "samples/s"),
        "acc_source_only": (acc, "accuracy"),
        "acc_norm_stat": (statistics.fmean(by_method["bn"]), "accuracy")})
    res.overhead = _overhead(call_s[True], call_s[False])
    return res


WORKLOADS = {
    "source-train": source_train,
    "adapt-stream": adapt_stream,
    "frozen-cli": frozen_cli,
}
