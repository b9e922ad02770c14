"""End-to-end orchestration: benchmark prep, staged runs, sweeps, reports.

The expensive artifact is the source model, so every entry point accepts a
pre-built one and trains only when none is given. A trial (support split,
mixing draws, stream order) re-rolls with trial_seed while data and source
stay fixed, which is how the multi-seed evaluations and sweeps are run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig, config_hash, describe, override, seed_plan
from .data import SupportSet, generate_benchmark, records_as_arrays, split_support
from .errors import ConfigError, DataError
from .finetune import finetune
from .model import Backbone, train_source
from .prototypes import init_bank
from .stream import METHODS, make_stream, resolve_method, run_baseline

RUN_SCHEMA = "fewshot-tta-run/1"
METRICS_SCHEMA = "fewshot-tta-metrics/2"
# the fields adapt writes into every metrics document and report reads, with their JSON types
METRICS_FIELDS = {"method": (str,), "final_accuracy": (int, float), "num_classes": (int,),
                  "total": (int,), "curve": (list,), "data_hash": (str,),
                  "comparison_hash": (str,)}
SWEEP_SCHEMA = "fewshot-tta-sweep/1"


@dataclass
class Bench:
    """Generated benchmark data for one config."""

    source_data: list
    target_data: list
    class_count: int


@dataclass
class TrialSetup:
    """One trial's support split and seed plan."""

    support: SupportSet
    remainder: list
    seeds: dict


@dataclass
class Stage1Result:
    """Fine-tuned model plus the support-built prototype bank."""

    tuned: Backbone
    trace: list
    bank: object


def prepare_benchmark(cfg: RunConfig) -> Bench:
    """Generate the benchmark from the run's data seed."""
    return Bench(*generate_benchmark(cfg.data, seed_plan(cfg)["data"]), cfg.data.class_count)


def build_source_model(cfg: RunConfig, bench: Bench):
    """Train the pooled-source model from the run's init seed."""
    return train_source(bench.source_data, cfg.source, seed_plan(cfg)["init"],
                        widths=cfg.widths, num_classes=bench.class_count)


def make_trial(cfg: RunConfig, bench: Bench) -> TrialSetup:
    seeds = seed_plan(cfg)
    support, remainder = split_support(bench.target_data, cfg.k, seeds["support"])
    return TrialSetup(support=support, remainder=remainder, seeds=seeds)


def embed_records(model: Backbone, records) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode embeddings and labels, no graphs."""
    x, y = records_as_arrays(records)
    return model.infer(x)[0], y


def support_bank(model: Backbone, support: SupportSet):
    """The prototype bank seeded from the model's embeddings of the support set."""
    emb, labels = embed_records(model, support.samples)
    return init_bank(emb, labels, class_count=support.class_count)


def run_stage1(cfg: RunConfig, trial: TrialSetup, source_model: Backbone) -> Stage1Result:
    """Fine-tune on the support set and seed the bank from its embeddings."""
    tuned, trace = finetune(source_model, trial.support, cfg.finetune, trial.seeds["fda"])
    bank = support_bank(tuned, trial.support)
    return Stage1Result(tuned=tuned, trace=trace, bank=bank)


def adapt_stream(cfg: RunConfig, method: str, model: Backbone, records, stream_seed: int,
                 bank=None) -> dict:
    """Batch the records into a stream, run one method over it, return its metric fields.

    The one adapt path of run-all and ``fewshot-tta adapt``, and the one
    place that turns a run's AdaptState into a document. model (and bank,
    for fs_tta) are adapted in place; seconds times the stream loop only.
    """
    stream = make_stream(records, cfg.adapt.batch_size, stream_seed, cfg.stream_order)
    t0 = time.perf_counter()
    state = run_baseline(method, model, stream, cfg.adapt, bank=bank)
    seconds = time.perf_counter() - t0
    return {
        "method": resolve_method(method),
        "final_accuracy": state.final_accuracy,
        "correct": state.online_correct,
        "total": state.online_total,
        "curve": [row["cumulative_accuracy"] for row in state.rows],
        "rows": state.rows,
        "selected_total": state.selected_total,
        "mask_total": state.mask_total,
        "loss_skipped": state.loss_skipped,
        "adam_skipped": state.opt.state.skipped_steps if state.opt else 0,
        "seconds": seconds,
    }


def run_method(cfg: RunConfig, trial: TrialSetup, source_model: Backbone,
               method: str, stage1: Stage1Result | None = None) -> dict:
    """Adapt one method over the trial's stream and score it online.

    The adapted model is always a private copy; callers can reuse
    source_model and stage1 across methods.
    """
    kind = resolve_method(method)
    if METHODS[kind].stage1 and stage1 is None:
        raise ConfigError(f"{kind} needs the fine-tuned model; run stage 1 first")
    model = (stage1.tuned if METHODS[kind].stage1 else source_model).copy()
    bank = stage1.bank.copy() if stage1 else None
    return adapt_stream(cfg, kind, model, trial.remainder, trial.seeds["stream"], bank)


def run_all(cfg: RunConfig, methods=None, source_model: Backbone = None) -> dict:
    """Full pipeline for one trial, each distinct method once; returns the run report
    document. Its source and stage-1 accuracies are the frozen runs' online scores."""
    methods = list(dict.fromkeys(resolve_method(m) for m in ([cfg.method] if methods is None else methods)))
    if not methods:
        raise ConfigError("run_all needs at least one method")
    timings = {}

    t0 = time.perf_counter()
    bench = prepare_benchmark(cfg)
    timings["gen_data"] = time.perf_counter() - t0

    curve = None
    t0 = time.perf_counter()
    if source_model is None:
        source_model, curve = build_source_model(cfg, bench)
    timings["train_source"] = time.perf_counter() - t0

    trial = make_trial(cfg, bench)

    stage1 = None
    t0 = time.perf_counter()
    if any(METHODS[m].stage1 for m in methods):
        stage1 = run_stage1(cfg, trial, source_model)
    timings["finetune"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    per_method = {m: run_method(cfg, trial, source_model, m, stage1) for m in methods}
    timings["adapt"] = time.perf_counter() - t0
    frozen = {k: per_method.get(k) or run_method(cfg, trial, source_model, k, stage1)
              for k in ("source_only", "ft_only") if stage1 or k == "source_only"}

    return {
        "schema": RUN_SCHEMA,
        **describe(cfg),
        "seeds": trial.seeds,
        "num_classes": bench.class_count,
        "stream_batches": len(per_method[methods[0]]["curve"]),
        "source_accuracy": frozen["source_only"]["final_accuracy"],
        "stage1_accuracy": frozen["ft_only"]["final_accuracy"] if stage1 else None,
        "source_curve": curve,
        "stage1_trace": stage1.trace if stage1 else None,
        "methods": per_method,
        "seconds": timings,
    }


# -- sweeps --------------------------------------------------------------

SWEEP_DEFAULTS = {
    "alpha": (0.0, 0.3, 0.6, 1.0),
    "kshot": (1, 3, 5, 10),
    "batch": (8, 16, 32, 64, 128),
}

# the config field each sweep axis sets
SWEEP_FIELDS = {"alpha": "adapt.alpha", "kshot": "k", "batch": "adapt.batch_size"}


def sweep(cfg: RunConfig, axis: str, values=None, trial_seeds=(0, 1, 2, 3, 4),
          source_model: Backbone = None, bench: Bench = None) -> dict:
    """One fs_tta run per (value, trial seed); aggregates mean and std.

    Stage 1 is shared across values that do not change it (alpha, batch);
    the kshot axis re-splits and re-tunes per value. The alpha=0 rows are
    checked against the frozen ft_only run's score, which they must equal.
    """
    if axis not in SWEEP_DEFAULTS:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {sorted(SWEEP_DEFAULTS)}")
    values = list(values) if values is not None else list(SWEEP_DEFAULTS[axis])
    trial_seeds = list(trial_seeds)
    if not values or not trial_seeds:
        raise ConfigError("sweep needs at least one value and one trial seed")
    # every run's config, so a bad value fails before any data or training
    grid = [[override(replace(cfg, trial_seed=seed), SWEEP_FIELDS[axis], value)
             for seed in trial_seeds] for value in values]

    bench = bench or prepare_benchmark(cfg)
    if source_model is None:
        source_model, _ = build_source_model(cfg, bench)

    # per-trial stage 1 cache, keyed by the knobs that feed it
    cache: dict = {}

    def trial_and_stage1(trial_cfg):
        key = (trial_cfg.effective_trial_seed, trial_cfg.k)
        if key not in cache:
            trial = make_trial(trial_cfg, bench)
            cache[key] = (trial, run_stage1(trial_cfg, trial, source_model))
        return cache[key]

    rows = []
    alpha0_checks = []
    for value, run_cfgs in zip(values, grid):
        accs, secs, samples = [], [], 0
        for run_cfg in run_cfgs:
            trial, stage1 = trial_and_stage1(run_cfg)
            result = run_method(run_cfg, trial, source_model, "fs_tta", stage1)
            accs.append(result["final_accuracy"])
            secs.append(result["seconds"])
            samples = result["total"]
            if axis == "alpha" and value == 0.0:
                frozen = run_method(run_cfg, trial, source_model, "ft_only", stage1)
                alpha0_checks.append(result["final_accuracy"] == frozen["final_accuracy"])
        rows.append({
            "value": value,
            "mean_accuracy": float(np.mean(accs)),
            "std_accuracy": float(np.std(accs)),
            "per_trial": accs,
            "seconds_mean": float(np.mean(secs)),
            "per_sample_seconds": float(np.mean(secs) / samples) if samples else None,
        })

    doc = {
        "schema": SWEEP_SCHEMA,
        "axis": axis,
        "values": values,
        "trial_seeds": trial_seeds,
        **describe(cfg),
        "rows": rows,
    }
    if axis == "alpha" and alpha0_checks:
        doc["alpha0_matches_stage1"] = all(alpha0_checks)
    return doc


def format_sweep(doc: dict) -> str:
    """Terminal table for one sweep document."""
    lines = [f"sweep over {doc['axis']} (trials: {doc['trial_seeds']})",
             f"{'value':>8}  {'mean_acc':>9}  {'std':>7}  {'sec/value':>9}"]
    for row in doc["rows"]:
        lines.append(f"{row['value']:>8}  {row['mean_accuracy']:>9.4f}  "
                     f"{row['std_accuracy']:>7.4f}  {row['seconds_mean']:>9.2f}")
    if "alpha0_matches_stage1" in doc:
        lines.append(f"alpha=0 equals post-fine-tuning accuracy: {doc['alpha0_matches_stage1']}")
    return "\n".join(lines)


# -- method comparison reports ------------------------------------------


def comparison_hash(cfg: RunConfig) -> str:
    """Hash of everything that must match for runs to be comparable.

    The method name and trial seed are the two knobs a comparison is
    allowed to vary, so they are blanked before hashing.
    """
    return config_hash(replace(cfg, method="fs_tta", trial_seed=None))


def check_comparable(docs: list, paths=None, force: bool = False) -> None:
    """Refuse metrics that adapt did not write, or not on the same footing."""
    paths = paths or [f"input {i}" for i in range(len(docs))]
    for doc, path in zip(docs, paths):
        if doc.get("schema") != METRICS_SCHEMA:
            raise DataError(f"{path}: schema {doc.get('schema')!r}, expected {METRICS_SCHEMA!r}")
        for key, types in METRICS_FIELDS.items():
            if type(doc.get(key)) not in types:
                raise DataError(f"{path}: metrics field {key!r} missing or mistyped: {doc.get(key)!r}")
        for key, low, high in (("final_accuracy", 0, 1), ("total", 1, float("inf"))):
            if not low <= doc[key] <= high:  # also refuses a NaN accuracy
                raise DataError(f"{path}: metrics field {key!r} = {doc[key]!r} outside [{low}, {high}]")
    classes = {doc["num_classes"] for doc in docs}
    if len(classes) > 1:
        offender = paths[[doc["num_classes"] for doc in docs].index(sorted(classes)[1])]
        raise DataError(f"{offender}: class count differs across inputs ({sorted(classes)})")
    if force:
        return
    for key in ("data_hash", "comparison_hash"):
        distinct = {doc[key] for doc in docs}
        if len(distinct) > 1:
            raise DataError(f"mixed {key} across inputs ({len(distinct)} distinct); "
                            "pass --force to compare anyway")


def build_report(docs: list, paths=None, force: bool = False) -> dict:
    """Side-by-side method table with deltas over the weakest baseline."""
    if not docs:
        raise DataError("report needs at least one metrics file")
    check_comparable(docs, paths, force)
    baseline = next((d for d in docs if d["method"] == "source_only"), docs[0])["final_accuracy"]
    rows = sorted(({
        "method": doc["method"],
        "final_accuracy": doc["final_accuracy"],
        "delta_vs_baseline": doc["final_accuracy"] - baseline,
        "total": doc["total"],
        "batches": len(doc["curve"]),
    } for doc in docs), key=lambda r: -r["final_accuracy"])
    return {"baseline_accuracy": baseline, "rows": rows}


def format_report(report: dict) -> str:
    lines = [f"{'method':<20}  {'final_acc':>9}  {'delta':>8}  {'samples':>8}"]
    for row in report["rows"]:
        lines.append(f"{row['method']:<20}  {row['final_accuracy']:>9.4f}  "
                     f"{row['delta_vs_baseline']:>+8.4f}  {row['total']:>8}")
    return "\n".join(lines)

