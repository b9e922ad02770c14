"""Golden digests: every document of a fixed battery, hashed and committed.

A pure refactor keeps each seed's numbers bitwise identical. This module
checks that against ``golden_digests.json``, which holds one sha256 per
battery entry for each environment it was recorded in:

- ``run_all`` over all six methods on ``tiny_cfg()`` and on the acceptance
  suite's ``_small_cfg()``;
- the alpha sweep on ``tiny_cfg()`` at trial seeds 0-2;
- ``params_hash`` after 50 source steps at the ``RunConfig()`` shapes;
- the model and prototype bank that fs_tta's stream leaves on ``tiny_cfg()``;
- the ``tiny_cfg()`` CLI chain run in-process through ``cli.main``: every
  TTAD and TTAM file, and every JSON and CSV file;
- in the acceptance tier (``test_acceptance.py``, about 12 s), stage 1's
  ``params_hash`` and ``run_all`` over all six methods on the default trial
  of ``RunConfig()``, from the benchmark's stored source model
  ``perfbench/fixture/source.ttam`` (read only).

Before hashing, every key whose name contains ``seconds`` is removed from a
document, and the run's temporary directory is replaced by a placeholder.

Float rounding depends on the Python and numpy versions, the BLAS build and
the CPU (an OpenBLAS built with DYNAMIC_ARCH picks its kernels by CPU at run
time), so the entries are keyed by that fingerprint, and an environment with
no entry skips. To record or rewrite this environment's entry, run from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fewshot_tta import cli  # noqa: E402
from fewshot_tta.config import RunConfig, serialize  # noqa: E402
from fewshot_tta.harness import (adapt_stream, build_source_model, make_trial,  # noqa: E402
                                 prepare_benchmark, run_all, run_stage1, sweep)
from fewshot_tta.model import SourceConfig, load_model  # noqa: E402
from fewshot_tta.stream import METHODS  # noqa: E402
from test_acceptance import _small_cfg  # noqa: E402
from test_harness import tiny_cfg  # noqa: E402

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
UPDATE_COMMAND = "PYTHONPATH=src python tests/test_golden.py"
TMP_PLACEHOLDER = "<tmp>"
FIXTURE_MODEL = Path(__file__).parents[1] / "perfbench" / "fixture" / "source.ttam"


# -- environment fingerprint ---------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """What the float rounding of the battery depends on, beyond the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy below 1.26 has no mode="dicts"
        blas = {}
    return {
        "python": "{}.{}".format(*sys.version_info[:2]),
        "numpy": np.__version__,
        "blas_name": str(blas.get("name", "unknown")),
        "blas_version": str(blas.get("version", "unknown")),
        "blas_config": str(blas.get("openblas configuration", "unknown")),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
    }


def load_environments() -> list:
    if not DIGEST_FILE.exists():
        return []
    return json.loads(DIGEST_FILE.read_text())["environments"]


def recorded_digests() -> dict:
    """This environment's recorded digests; skips the calling test if there are none."""
    fp = fingerprint()
    for env in load_environments():
        if env["fingerprint"] == fp:
            return env["digests"]
    pytest.skip(f"no golden digests recorded for this environment {json.dumps(fp)}; "
                f"record them with `{UPDATE_COMMAND}`")


# -- hashing ---------------------------------------------------------------


def strip_seconds(doc):
    """doc without any key whose name contains ``seconds``, at any depth."""
    if isinstance(doc, dict):
        return {k: strip_seconds(v) for k, v in doc.items() if "seconds" not in k}
    if isinstance(doc, list):
        return [strip_seconds(v) for v in doc]
    return doc


def doc_digest(doc) -> str:
    text = json.dumps(strip_seconds(doc), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path: Path, root: Path) -> str:
    if path.suffix in (".ttad", ".ttam"):
        return hashlib.sha256(path.read_bytes()).hexdigest()
    text = path.read_text().replace(str(root), TMP_PLACEHOLDER)
    if path.suffix == ".json":
        return doc_digest(json.loads(text))
    return hashlib.sha256(text.encode()).hexdigest()


# -- the battery -----------------------------------------------------------


def _source_50_steps() -> str:
    cfg = RunConfig(source=replace(SourceConfig(), iters=50))
    model, _ = build_source_model(cfg, prepare_benchmark(cfg))
    return model.params_hash().hex()


def _fs_tta_end_state() -> str:
    # a bank update one ulp off need not move any prediction, so hash the bank
    cfg = tiny_cfg()
    bench = prepare_benchmark(cfg)
    model, _ = build_source_model(cfg, bench)
    trial = make_trial(cfg, bench)
    stage1 = run_stage1(cfg, trial, model)
    adapt_stream(cfg, "fs_tta", stage1.tuned, trial.remainder, trial.seeds["stream"], stage1.bank)
    h = hashlib.sha256(stage1.tuned.params_hash())
    h.update(stage1.bank.prototypes.tobytes())
    return h.hexdigest()


IN_PROCESS = {
    "run_all/tiny_cfg": lambda: doc_digest(run_all(tiny_cfg(), tuple(METHODS))),
    "run_all/small_cfg": lambda: doc_digest(run_all(_small_cfg(), tuple(METHODS))),
    "sweep/alpha/tiny_cfg": lambda: doc_digest(sweep(tiny_cfg(), "alpha", trial_seeds=(0, 1, 2))),
    "params_hash/source_50_steps": _source_50_steps,
    "fs_tta_end_state/tiny_cfg": _fs_tta_end_state,
}


def _fixture_stage1() -> str:
    cfg = RunConfig()
    trial = make_trial(cfg, prepare_benchmark(cfg))
    return run_stage1(cfg, trial, load_model(FIXTURE_MODEL)).tuned.params_hash().hex()


# checked by test_acceptance.py, outside the fast tier
ACCEPTANCE_TIER = {
    "params_hash/fixture_stage1": _fixture_stage1,
    "run_all/fixture": lambda: doc_digest(run_all(RunConfig(), tuple(METHODS),
                                                  source_model=load_model(FIXTURE_MODEL))),
}


def cli_chain_digests(root: Path) -> dict:
    """Run the tiny_cfg CLI chain under root; digest of every file it wrote."""
    root = Path(root)
    cfg_path = root / "run.json"
    cfg_path.write_text(serialize(tiny_cfg()))
    data, source, tuned = root / "data", root / "source.ttam", root / "tuned.ttam"
    cfg = ["--config", str(cfg_path)]
    commands = [
        ["gen-data", *cfg, "--out", data],
        ["train-source", *cfg, "--data", data, "--out", source],
        ["finetune", *cfg, "--model", source, "--support", data / "support.ttad",
         "--out", tuned],
    ]
    for method in ("erm", "bn", "tent"):
        commands.append(["adapt", *cfg, "--model", source, "--stream", data / "stream.ttad",
                         "--method", method, "--out", root / f"{method}.json"])
    commands += [
        ["adapt", *cfg, "--model", tuned, "--stream", data / "stream.ttad", "--method", "fs_tta",
         "--support", data / "support.ttad", "--out", root / "fs_tta.json"],
        ["report", *(root / f"{m}.json" for m in ("erm", "bn", "tent", "fs_tta")),
         "--csv", root / "report.csv"],
        ["sweep", *cfg, "--axis", "alpha", "--trials", "2", "--out", root / "sweep.json"],
        ["run-all", *cfg, "--methods", ",".join(METHODS), "--out", root / "run-all"],
    ]
    for argv in commands:
        code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"fewshot-tta {argv[0]} exited {code}")
    return {f"cli/{p.relative_to(root).as_posix()}": file_digest(p, root)
            for p in sorted(root.rglob("*")) if p.is_file()}


def compute_all() -> dict:
    digests = {name: fn() for name, fn in {**IN_PROCESS, **ACCEPTANCE_TIER}.items()}
    with tempfile.TemporaryDirectory() as tmp:
        digests.update(cli_chain_digests(Path(tmp)))
    return digests


# -- the checks ------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded():
    return recorded_digests()


@pytest.mark.parametrize("name", sorted(IN_PROCESS))
def test_in_process_digest(recorded, name):
    assert IN_PROCESS[name]() == recorded.get(name)


def test_cli_chain_digests(recorded, tmp_path):
    got = cli_chain_digests(tmp_path)
    want = {name: d for name, d in recorded.items() if name.startswith("cli/")}
    assert got == want


if __name__ == "__main__":
    fp = fingerprint()
    envs = [env for env in load_environments() if env["fingerprint"] != fp]
    with contextlib.redirect_stdout(io.StringIO()):  # the CLI chain's progress lines
        envs.append({"fingerprint": fp, "digests": compute_all()})
    DIGEST_FILE.write_text(json.dumps({"environments": envs}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(envs[-1]['digests'])} digests for {json.dumps(fp)} to {DIGEST_FILE}")
