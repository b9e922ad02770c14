"""Command-line front end.

Subcommands: gen-data, train-source, finetune, adapt, sweep, report,
run-all. Every artifact gets a JSON sidecar embedding the producing config
and content hashes. Exit codes: 1 configuration error (or out of memory,
as for a config too large to fit), 2 data error, 3 numeric failure, 130
interrupted (Ctrl-C). A failed command leaves no half-written file.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import harness
from .config import RunConfig, describe, file_sha256, load_config, override, seed_plan
from .data import (Dataset, SupportSet, read_dataset, read_json, write_csv, write_dataset,
                   write_json)
from .errors import ConfigError, DataError, FewshotTtaError
from .finetune import finetune
from .model import load_model, save_model, train_source
from .stream import METHODS


# each override flag: the config field it sets, its type and its help; applied in this order
FLAGS = {
    "seed": ("master_seed", int, "master seed (data + source init)"),
    "trial_seed": ("trial_seed", int, "trial seed (support split, mixing, stream order)"),
    "k": ("k", int, "support samples per class"),
    "method": ("method", str, "method or alias: " + ", ".join(m.alias for m in METHODS.values())),
    "alpha": ("adapt.alpha", float, "entropy filter fraction"),
    "batch_size": ("adapt.batch_size", int, "stream batch size"),
    "epochs": ("finetune.epochs", int, "fine-tuning epochs"),
    "lr": ("finetune.lr", float, "fine-tuning learning rate"),
    "iters": ("source.iters", int, "source training iterations"),
}


def _config_from(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for flag, (path, _, _) in FLAGS.items():
        if getattr(args, flag, None) is not None:
            cfg = override(cfg, path, getattr(args, flag))
    return cfg


def cmd_gen_data(args) -> int:
    cfg = _config_from(args)
    out = Path(args.out)
    bench = harness.prepare_benchmark(cfg)
    trial = harness.make_trial(cfg, bench)

    parts = {f"source{i}": domain for i, domain in enumerate(bench.source_data)}
    parts.update(target=bench.target_data, support=trial.support.samples, stream=trial.remainder)
    files = {name: str(out / f"{name}.ttad") for name in parts}
    for name, records in parts.items():
        write_dataset(files[name], records, bench.class_count)

    write_json(out / "gen-data.sidecar.json", {
        **describe(cfg), "seeds": trial.seeds, "k": cfg.k,
        "hashes": {name: file_sha256(path) for name, path in files.items()},
    })
    print(f"wrote {len(files)} dataset files to {out}")
    return 0


def _write_model(path, model, cfg: RunConfig, **fields) -> None:
    """Save a model, and beside it a sidecar with the config, its params_hash and fields."""
    save_model(path, model)
    write_json(str(path) + ".sidecar.json",
               {**describe(cfg), "params_hash": model.params_hash().hex(), **fields})


def _read_sources(data_dir) -> tuple[list[Dataset], list[Path]]:
    """The source<i>.ttad files under data_dir, read in index order."""
    paths = sorted((p for p in Path(data_dir).glob("source*.ttad") if p.stem[6:].isdecimal()),
                   key=lambda p: (int(p.stem[6:]), p.name))
    if not paths:
        raise DataError(f"no source<i>.ttad files under {data_dir}")
    return [read_dataset(p) for p in paths], paths


def cmd_train_source(args) -> int:
    cfg = _config_from(args)
    datasets, paths = _read_sources(args.data)
    classes = {ds.num_classes for ds in datasets}
    if len(classes) > 1:
        raise DataError(f"source files disagree on class count: {sorted(classes)}")
    t0 = time.perf_counter()
    model, curve = train_source([ds.records for ds in datasets], cfg.source,
                                seed_plan(cfg)["init"], widths=cfg.widths,
                                num_classes=classes.pop())
    seconds = time.perf_counter() - t0
    _write_model(args.out, model, cfg, data_hash="+".join(file_sha256(p) for p in paths),
                 final_loss=curve[-1][1] if curve else None, seconds=seconds)
    print(f"trained source model ({seconds:.1f}s), wrote {args.out}")
    return 0


def cmd_finetune(args) -> int:
    cfg = _config_from(args)
    model = load_model(args.model)
    support = _read_support(args.support, model, args.model)
    t0 = time.perf_counter()
    tuned, trace = finetune(model, support, cfg.finetune, seed_plan(cfg)["fda"])
    seconds = time.perf_counter() - t0
    _write_model(args.out, tuned, cfg, data_hash=file_sha256(args.support),
                 support_size=len(support.samples), k=support.k,
                 final_support_acc=trace[-1]["support_acc"] if trace else None, seconds=seconds)
    write_csv(args.trace or str(args.out) + ".trace.csv", ["epoch", "loss", "support_acc"], trace)
    print(f"fine-tuned for {cfg.finetune.epochs} epochs ({seconds:.1f}s), wrote {args.out}")
    return 0


def _read_for_model(path, model, model_path):
    """Read a TTAD file whose class count must match the model's."""
    ds = read_dataset(path)
    if ds.num_classes != model.num_classes:
        raise DataError(f"{path}: {ds.num_classes} classes, but model {model_path} "
                        f"has {model.num_classes}")
    return ds


def _read_support(path, model, model_path) -> SupportSet:
    """Read a support file that holds the same number k of every class."""
    ds = _read_for_model(path, model, model_path)
    try:
        return SupportSet(ds.records, ds.num_classes)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def cmd_adapt(args) -> int:
    cfg = _config_from(args)
    model = load_model(args.model)
    ds = _read_for_model(args.stream, model, args.model)
    bank = None
    if args.support:
        bank = harness.support_bank(model, _read_support(args.support, model, args.model))
    fields = harness.adapt_stream(cfg, cfg.method, model, ds.records,
                                  seed_plan(cfg)["stream"], bank)
    write_json(args.out, {
        **describe(cfg), "schema": harness.METRICS_SCHEMA,
        "comparison_hash": harness.comparison_hash(cfg),
        "data_hash": file_sha256(args.stream),
        "num_classes": ds.num_classes,
        **fields,
    })
    if args.batch_csv:
        names = ["batch", "batch_correct", "batch_size", "cumulative_accuracy",
                 "selected", "mask_rate", "loss"]
        write_csv(args.batch_csv, names, ({"batch": i, **{k: row[k] for k in names[1:]}}
                                          for i, row in enumerate(fields["rows"])))
    print(f"{fields['method']}: online accuracy {fields['final_accuracy']:.4f} "
          f"over {fields['total']} samples ({fields['seconds']:.1f}s)")
    return 0


def cmd_sweep(args) -> int:
    cfg = _config_from(args)
    values = None
    if args.values is not None:
        cast = type(harness.SWEEP_DEFAULTS[args.axis][0])
        try:
            values = [cast(v) for v in args.values.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--values {args.values!r}: {exc}") from exc
    trial_seeds = tuple(range(args.trials))
    doc = harness.sweep(cfg, args.axis, values=values, trial_seeds=trial_seeds)
    write_json(args.out, doc)
    print(harness.format_sweep(doc))
    return 0


def cmd_report(args) -> int:
    docs = [read_json(path) for path in args.metrics]
    report = harness.build_report(docs, paths=args.metrics, force=args.force)
    print(harness.format_report(report))
    if args.csv:
        write_csv(args.csv, list(report["rows"][0]), report["rows"])
    return 0


def cmd_run_all(args) -> int:
    cfg = _config_from(args)
    methods = args.methods.split(",") if args.methods is not None else None
    report = harness.run_all(cfg, methods=methods)
    out = Path(args.out)
    write_json(out / "report.json", report)
    print(f"source accuracy:  {report['source_accuracy']:.4f}")
    if report["stage1_accuracy"] is not None:
        print(f"stage 1 accuracy: {report['stage1_accuracy']:.4f}")
    for name, m in report["methods"].items():
        print(f"{name}: online accuracy {m['final_accuracy']:.4f} ({m['seconds']:.1f}s)")
    print(f"wrote {out / 'report.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fewshot-tta",
                                     description="Streaming few-shot test-time adaptation at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, flags=(), **kwargs):
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="JSON run config; flags override file values")
        for flag in ("seed", "trial_seed", *flags):
            _, kind, text = FLAGS[flag]
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, type=kind, help=text)
        return p

    p = add("gen-data", cmd_gen_data, ["k"], help="generate benchmark dataset files")
    p.add_argument("--out", required=True, help="output directory")

    p = add("train-source", cmd_train_source, ["iters"], help="train the pooled-source model")
    p.add_argument("--data", required=True, help="directory with source<i>.ttad")
    p.add_argument("--out", required=True, help="output model file")

    p = add("finetune", cmd_finetune, ["epochs", "lr"], help="fine-tune on the labeled support set")
    p.add_argument("--model", required=True, help="input model file")
    p.add_argument("--support", required=True, help="support dataset file")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--trace", help="loss trace CSV path (default <out>.trace.csv)")

    p = add("adapt", cmd_adapt, ["method", "alpha", "batch_size"],
            help="run one adaptation method over a stream")
    p.add_argument("--model", required=True, help="model file to adapt")
    p.add_argument("--stream", required=True, help="stream dataset file")
    p.add_argument("--support", help="support file (builds the fs_tta prototype bank)")
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.add_argument("--batch-csv", dest="batch_csv", help="per-batch CSV path")

    p = add("sweep", cmd_sweep, help="sweep alpha, k-shot, or batch size")
    p.add_argument("--axis", required=True, choices=harness.SWEEP_DEFAULTS)
    p.add_argument("--values", help="comma-separated values (defaults per axis)")
    p.add_argument("--trials", type=int, default=5, help="number of trial seeds")
    p.add_argument("--out", required=True, help="sweep JSON path")

    p = sub.add_parser("report", allow_abbrev=False, help="compare metrics files side by side")
    p.set_defaults(fn=cmd_report)
    p.add_argument("metrics", nargs="+", help="metrics JSON files from adapt")
    p.add_argument("--force", action="store_true", help="allow mixed config/data hashes")
    p.add_argument("--csv", help="also write the table as CSV")

    p = add("run-all", cmd_run_all, ["k", "iters"], help="full pipeline: data, source, stage 1, stage 2")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--methods", help="comma-separated methods (default: config's method)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are configuration errors here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except FewshotTtaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
