"""Outside-in benchmark of fewshot-tta, driven through the package's public
functions from the checkout's ``src`` tree.

    python3 perfbench/run.py --workload adapt-stream --seed 1 --seconds 25 --trace 0

Workloads (one process each, closed loop: a step, batch or CLI call starts
when the previous one returns):

  source-train   build_source_model on the default pooled source data
  adapt-stream   make_trial, run_stage1, then adapt_batch over the stream
  frozen-cli     cli.main(["adapt", ...]) with --method erm and bn

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run and the tracing overhead. A failed output check prints an error to
stderr and exits 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from common import WORK_DIR, BenchError, environment, import_package


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("source-train", "adapt-stream", "frozen-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    try:
        res = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
        env = environment()
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    if tracer is None:
        metrics = dict(res.metrics)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        metrics["ok_share"] = (1.0 - res.failed / res.attempted, "ratio")
    else:
        metrics = tracer.metrics(res.units)
        metrics["trace.overhead_share"] = (res.overhead, "ratio")
    result = {
        "correct": True,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

    named = {name: {"value": value, "unit": unit} for name, (value, unit) in res.named.items()}
    WORK_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK_DIR / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "environment": env, "ops": res.ops, "named": named,
         "per_layer_unit": res.unit if tracer else None, "result": result}, indent=2) + "\n")
    if tracer is not None:
        tracer.write(WORK_DIR / f"{stem}.spans.tsv")

    print(f"environment: {json.dumps(env)}")
    print(f"{args.workload}: {res.attempted} operations, {res.failed} failed, "
          f"{res.ops} timed for the percentiles")
    print("reported, not gated:")
    for name, (value, unit) in res.named.items():
        print(f"  {name:32} {value:14.6g} {unit}")
    if tracer is None:
        print("end-to-end:")
    else:
        print(f"per-layer, per {res.unit} ({res.units} traced):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
