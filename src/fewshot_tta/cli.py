"""Command-line front end.

Subcommands: gen-data, train-source, finetune, adapt, sweep, report,
run-all. Every artifact gets a JSON sidecar embedding the producing config
and content hashes. Exit codes: 1 configuration error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import harness
from .config import RunConfig, describe, file_sha256, load_config, override, seed_plan
from .data import (Dataset, SupportSet, manifest, read_dataset, read_json, write_csv,
                   write_dataset, write_json)
from .errors import ConfigError, DataError, FewshotTtaError
from .finetune import finetune
from .model import load_model, save_model, train_source


# each override flag and the config field it sets, applied in this order
FLAG_FIELDS = {
    "seed": "master_seed",
    "trial_seed": "trial_seed",
    "k": "k",
    "method": "method",
    "alpha": "adapt.alpha",
    "batch_size": "adapt.batch_size",
    "epochs": "finetune.epochs",
    "lr": "finetune.lr",
    "iters": "source.iters",
}


def _config_from(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for flag, path in FLAG_FIELDS.items():
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

    write_json(out / "manifest.json", manifest(cfg.data, trial.seeds["data"], files))
    write_json(out / "gen-data.sidecar.json", {
        **describe(cfg), "seeds": trial.seeds, "k": cfg.k,
        "hashes": {name: file_sha256(path) for name, path in files.items()},
    })
    print(f"wrote {len(files)} dataset files to {out}")
    return 0


def _read_sources(data_dir) -> tuple[list[Dataset], list[Path]]:
    paths = sorted(Path(data_dir).glob("source*.ttad"))
    if not paths:
        raise DataError(f"no source*.ttad files under {data_dir}")
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
    save_model(args.out, model)
    write_json(str(args.out) + ".sidecar.json", {
        **describe(cfg), "data_hash": "+".join(file_sha256(p) for p in paths),
        "final_loss": curve[-1][1] if curve else None,
        "params_hash": model.params_hash().hex(),
        "seconds": seconds,
    })
    print(f"trained source model ({seconds:.1f}s), wrote {args.out}")
    return 0


def cmd_finetune(args) -> int:
    cfg = _config_from(args)
    model = load_model(args.model)
    support = _read_support(args.support, model, args.model)
    t0 = time.perf_counter()
    tuned, trace = finetune(model, support, cfg.finetune, seed_plan(cfg)["fda"])
    seconds = time.perf_counter() - t0
    save_model(args.out, tuned)
    trace_path = args.trace or str(args.out) + ".trace.csv"
    write_csv(trace_path, ["epoch", "loss", "support_acc"], trace)
    write_json(str(args.out) + ".sidecar.json", {
        **describe(cfg), "data_hash": file_sha256(args.support),
        "support_size": len(support.samples), "k": support.k,
        "params_hash": tuned.params_hash().hex(),
        "final_support_acc": trace[-1]["support_acc"] if trace else None,
        "seconds": seconds,
    })
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
    if args.values:
        cast = float if args.axis == "alpha" else int
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
    methods = args.methods.split(",") if args.methods else None
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

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="JSON run config; flags override file values")
        p.add_argument("--seed", type=int, help="master seed (data + source init)")
        p.add_argument("--trial-seed", type=int, dest="trial_seed",
                       help="trial seed (support split, mixing, stream order)")
        return p

    p = add("gen-data", cmd_gen_data, help="generate benchmark dataset files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k", type=int, help="support samples per class")

    p = add("train-source", cmd_train_source, help="train the pooled-source model")
    p.add_argument("--data", required=True, help="directory with source*.ttad")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--iters", type=int, help="training iterations")

    p = add("finetune", cmd_finetune, help="fine-tune on the labeled support set")
    p.add_argument("--model", required=True, help="input model file")
    p.add_argument("--support", required=True, help="support dataset file")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--trace", help="loss trace CSV path (default <out>.trace.csv)")
    p.add_argument("--epochs", type=int, help="fine-tuning epochs")
    p.add_argument("--lr", type=float, help="fine-tuning learning rate")

    p = add("adapt", cmd_adapt, help="run one adaptation method over a stream")
    p.add_argument("--model", required=True, help="model file to adapt")
    p.add_argument("--stream", required=True, help="stream dataset file")
    p.add_argument("--method", help="method or alias: erm, bn, tent, ft, ft_tent, fs_tta")
    p.add_argument("--support", help="support file (builds the fs_tta prototype bank)")
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.add_argument("--batch-csv", dest="batch_csv", help="per-batch CSV path")
    p.add_argument("--alpha", type=float, help="entropy filter fraction")
    p.add_argument("--batch-size", type=int, dest="batch_size", help="stream batch size")

    p = add("sweep", cmd_sweep, help="sweep alpha, k-shot, or batch size")
    p.add_argument("--axis", required=True, choices=("alpha", "kshot", "batch"))
    p.add_argument("--values", help="comma-separated values (defaults per axis)")
    p.add_argument("--trials", type=int, default=5, help="number of trial seeds")
    p.add_argument("--out", required=True, help="sweep JSON path")

    p = sub.add_parser("report", help="compare metrics files side by side")
    p.set_defaults(fn=cmd_report)
    p.add_argument("metrics", nargs="+", help="metrics JSON files from adapt")
    p.add_argument("--force", action="store_true", help="allow mixed config/data hashes")
    p.add_argument("--csv", help="also write the table as CSV")

    p = add("run-all", cmd_run_all, help="full pipeline: data, source, stage 1, stage 2")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--methods", help="comma-separated methods (default: config's method)")
    p.add_argument("--k", type=int, help="support samples per class")
    p.add_argument("--iters", type=int, help="source training iterations")
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


if __name__ == "__main__":
    sys.exit(main())
