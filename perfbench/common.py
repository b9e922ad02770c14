"""Paths, package import, the source-model fixture and the environment record
shared by the benchmark's scripts.

The benchmark drives the package only through its public functions, imported
from the checkout's own ``src`` tree, never from an installed copy.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
FIXTURE_MODEL = BENCH_DIR / "fixture" / "source.ttam"
FIXTURE_META = BENCH_DIR / "fixture" / "source.json"

# The fixture's stored source-only accuracy may move by this much (about two
# of the 1,170 stream samples) when a later change reorders floating-point
# work in the forward pass; its parameters are pinned exactly by the hashes.
FIXTURE_ACC_TOLERANCE = 0.002


class BenchError(Exception):
    """An output check failed or the benchmark's inputs are not as recorded."""


def import_package():
    """Import ``fewshot_tta`` from the checkout; exit if it is not there."""
    pkg_dir = SRC / "fewshot_tta"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {pkg_dir}")
    sys.path.insert(0, str(SRC))
    import fewshot_tta

    if Path(fewshot_tta.__file__).resolve().parent != pkg_dir.resolve():
        raise SystemExit(f"error: imported fewshot_tta from {fewshot_tta.__file__}, not {pkg_dir}")
    return fewshot_tta


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_fixture():
    """The stored source model and its record; refuses a file that does not match."""
    from fewshot_tta.model import load_model

    if not FIXTURE_MODEL.is_file() or not FIXTURE_META.is_file():
        raise BenchError(f"missing fixture {FIXTURE_MODEL}; run perfbench/make_fixture.py")
    meta = json.loads(FIXTURE_META.read_text())
    digest = sha256_file(FIXTURE_MODEL)
    if digest != meta["sha256"]:
        raise BenchError(f"fixture sha256 {digest} != recorded {meta['sha256']}")
    model = load_model(FIXTURE_MODEL)
    params = model.params_hash().hex()
    if params != meta["params_hash"]:
        raise BenchError(f"fixture params_hash {params} != recorded {meta['params_hash']}")
    return model, meta


def check_fixture_accuracy(accuracy: float, meta: dict) -> None:
    """The fixture's source-only accuracy on the default trial-0 stream."""
    if abs(accuracy - meta["source_only_accuracy"]) > FIXTURE_ACC_TOLERANCE:
        raise BenchError(f"fixture source-only accuracy {accuracy:.4f} != recorded "
                         f"{meta['source_only_accuracy']:.4f}")


def _blas() -> tuple[str, int | None]:
    """BLAS name and version as numpy was built, and its live thread count."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy as np

    blas, threads = _blas()
    try:
        fixture_sha256 = json.loads(FIXTURE_META.read_text())["sha256"]
    except OSError:
        fixture_sha256 = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "fixture_sha256": fixture_sha256,
    }
