"""Seeded fuzzing of every reader.

Truncations and single-bit flips of a TTAD stream and a TTAM model (read by
``fewshot-tta adapt``), of a metrics document (read by ``report``) and of a
config (read by ``load_config``) may only end in exit code 0, 1 or 2, or a
ConfigError from the config reader. An exception that escapes fails the
test. The mutants come from a plain numpy generator, so a failure
reproduces from its seed and index.
"""

import struct

import numpy as np
import pytest

from fewshot_tta.cli import main
from fewshot_tta.config import RunConfig, load_config, serialize
from fewshot_tta.data import SampleRecord, write_dataset
from fewshot_tta.errors import ConfigError
from fewshot_tta.model import Backbone, save_model
from fewshot_tta.stream import AdaptConfig

MUTANTS = 60  # per input: half truncations, half single-bit flips
HEADER_BYTES = 64  # half of a binary file's flips land in its header


def _mutants(blob: bytes, seed: int, header: bool):
    rng = np.random.default_rng(seed)
    for i in range(MUTANTS):
        if i % 2 == 0:
            yield blob[: int(rng.integers(len(blob)))]
            continue
        span = HEADER_BYTES if header and i % 4 == 1 else len(blob)
        out = bytearray(blob)
        out[int(rng.integers(span))] ^= 1 << int(rng.integers(8))
        yield bytes(out)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny model, stream, support set, config and the metrics of one adapt run."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    model = Backbone(widths=(3, 4, 4, 4), num_classes=3, init_seed=1)
    model.params["head.weight"].data = rng.normal(size=(4, 3))
    save_model(root / "model.ttam", model)

    def records(n):
        return [SampleRecord(label=i % 3, pixels=rng.normal(size=(3, 8, 8)), domain_id=1)
                for i in range(n)]

    write_dataset(root / "stream.ttad", records(12), num_classes=3)
    write_dataset(root / "support.ttad", records(6), num_classes=3)
    cfg = RunConfig(k=2, widths=(3, 4, 4, 4), adapt=AdaptConfig(batch_size=4, lr=1e-3))
    (root / "cfg.json").write_text(serialize(cfg))
    assert _adapt(root, root / "model.ttam", root / "stream.ttad", root / "metrics.json") == 0
    return root


def _adapt(root, model, stream, out):
    return main(["adapt", "--config", str(root / "cfg.json"), "--model", str(model),
                 "--stream", str(stream), "--support", str(root / "support.ttad"),
                 "--method", "fs_tta", "--out", str(out)])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # flipped exponent bits
@pytest.mark.parametrize("target, seed", [("stream.ttad", 1), ("model.ttam", 2)])
def test_adapt_survives_mutated_files(inputs, tmp_path, capsys, target, seed):
    codes = []
    for mutant in _mutants((inputs / target).read_bytes(), seed, header=True):
        path = tmp_path / target
        path.write_bytes(mutant)
        files = {"stream.ttad": inputs / "stream.ttad", "model.ttam": inputs / "model.ttam",
                 target: path}
        codes.append(_adapt(inputs, files["model.ttam"], files["stream.ttad"],
                            tmp_path / "m.json"))
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2}
    assert 0 in codes and 2 in codes


def test_adapt_refuses_an_empty_stream_of_oversized_records(inputs, tmp_path, capsys):
    """A header of zero 4000x4000x4000-pixel records passes the file-size checks."""
    path = tmp_path / "stream.ttad"
    path.write_bytes(struct.pack("<4sIIIIIII", b"TTAD", 1, 0, 4000, 4000, 4000, 3, 1))
    assert _adapt(inputs, inputs / "model.ttam", path, tmp_path / "m.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "is too large" in err
    assert [p.name for p in tmp_path.iterdir()] == ["stream.ttad"]


def test_report_survives_mutated_metrics(inputs, tmp_path, capsys):
    codes = []
    for mutant in _mutants((inputs / "metrics.json").read_bytes(), 3, header=False):
        path = tmp_path / "metrics.json"
        path.write_bytes(mutant)
        codes.append(main(["report", str(path)]))
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2}
    assert 0 in codes and 2 in codes


def test_config_readers_survive_mutated_configs(inputs, tmp_path):
    blob = (inputs / "cfg.json").read_bytes()
    # a one-bit flip inside a value: it must load, whatever the config's length
    value_only = blob.replace(b'"master_seed": 0', b'"master_seed": 1')
    assert value_only != blob
    parsed = []
    for mutant in [value_only, *_mutants(blob, 5, header=False)]:
        path = tmp_path / "cfg.json"
        path.write_bytes(mutant)
        try:
            assert isinstance(load_config(path), RunConfig)
            parsed.append(True)
        except ConfigError:
            parsed.append(False)
    assert parsed[0] and not all(parsed[1:])

