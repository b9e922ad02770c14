"""Train the paper-default source model once and store it as the benchmark's
fixture.

    python3 perfbench/make_fixture.py

Trains with ``RunConfig()`` defaults (2,000 steps, master seed 0; a few minutes
on a 2-core CPU) and writes ``perfbench/fixture/source.ttam`` plus
``source.json`` holding the file's sha256, the model's ``params_hash``, the
final training loss and the source-only accuracy on the trial-0 stream. The
``adapt-stream`` and ``frozen-cli`` workloads load this file and refuse to run
when it does not match the record, so source training is paid here once and
in no workload's set-up.
"""

from __future__ import annotations

import json
import os
import time

from common import FIXTURE_META, FIXTURE_MODEL, environment, import_package, sha256_file


def main() -> int:
    import_package()
    from fewshot_tta.config import RunConfig, config_hash
    from fewshot_tta.finetune import eval_accuracy
    from fewshot_tta.harness import build_source_model, make_trial, prepare_benchmark
    from fewshot_tta.model import save_model

    cfg = RunConfig()
    bench = prepare_benchmark(cfg)
    t0 = time.perf_counter()
    model, curve = build_source_model(cfg, bench)
    seconds = time.perf_counter() - t0
    accuracy = eval_accuracy(model, make_trial(cfg, bench).remainder)

    FIXTURE_MODEL.parent.mkdir(parents=True, exist_ok=True)
    tmp = FIXTURE_MODEL.with_suffix(".tmp")
    save_model(tmp, model)
    os.replace(tmp, FIXTURE_MODEL)
    sha = sha256_file(FIXTURE_MODEL)
    meta = {
        "config_hash": config_hash(cfg),
        "sha256": sha,
        "params_hash": model.params_hash().hex(),
        "final_loss": curve[-1][1],
        "source_only_accuracy": accuracy,
        "train_seconds": round(seconds, 1),
        "environment": environment(),
    }
    FIXTURE_META.write_text(json.dumps(meta, indent=2) + "\n")
    print(f"trained in {seconds:.1f}s, source-only accuracy {accuracy:.4f}, wrote {FIXTURE_MODEL}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
