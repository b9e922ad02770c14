"""Command-line workflows: artifacts, sidecars, exit codes, determinism."""

import contextlib
import inspect
import json
import os
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fewshot_tta import cli, data, harness
from fewshot_tta.cli import build_parser, main
from fewshot_tta.config import (RunConfig, config_hash, describe, file_sha256, load_config,
                                seed_plan, serialize)
from fewshot_tta.data import SampleRecord, SupportSet, read_dataset, write_dataset, write_json
from fewshot_tta.errors import ConfigError, DataError, NumericError, TruncatedFileError
from fewshot_tta.finetune import finetune
from fewshot_tta.model import load_model, train_source
from fewshot_tta.stream import resolve_method
from test_harness import tiny_cfg

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(serialize(tiny_cfg()))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, cfg_path):
    """gen-data + train-source + finetune, shared by the downstream tests."""
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    assert main(["gen-data", "--config", cfg_path, "--out", str(data)]) == 0
    source = root / "source.ttam"
    assert main(["train-source", "--config", cfg_path, "--data", str(data),
                 "--out", str(source)]) == 0
    tuned = root / "tuned.ttam"
    assert main(["finetune", "--config", cfg_path, "--model", str(source),
                 "--support", str(data / "support.ttad"), "--out", str(tuned)]) == 0
    return root


class TestGenData:
    def test_writes_expected_files(self, workspace):
        names = {p.name for p in (workspace / "data").iterdir()}
        assert names == {"source0.ttad", "source1.ttad", "target.ttad", "support.ttad",
                         "stream.ttad", "gen-data.sidecar.json"}

    def test_sidecar_embeds_config_and_hashes(self, workspace):
        data = workspace / "data"
        doc = json.loads((data / "gen-data.sidecar.json").read_text())
        # k is config.k, so the record does not restate it
        assert set(doc) == {"config", "config_hash", "seeds", "hashes"}
        assert doc["hashes"] == {p.stem: file_sha256(p) for p in data.glob("*.ttad")}

    def test_sidecar_records_run_seed_and_channels(self, tmp_path, cfg_path):
        assert main(["gen-data", "--config", cfg_path, "--seed", "4", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "gen-data.sidecar.json").read_text())
        assert doc["config"]["master_seed"] == 4
        assert doc["seeds"]["data"] == 4
        assert len(doc["config"]["data"]["target_gain"]) == 3

    def test_more_classes_than_16_bit_labels_exits_two_writing_nothing(self, tmp_path, capsys,
                                                                        monkeypatch):
        # real generation at 65,537 classes takes tens of seconds, so a few records stand in
        def records(labels, domain_id):
            return [SampleRecord(label=c, pixels=np.zeros((3, 4, 4)), domain_id=domain_id)
                    for c in labels]
        bench = harness.Bench([records([0, 65536], 0)], records([0, 0, 1, 1], 1), 65537)
        monkeypatch.setattr(harness, "prepare_benchmark", lambda cfg: bench)
        path = tmp_path / "c.json"
        path.write_text('{"k": 1, "data": {"class_count": 65537, "per_class_count": 2, '
                        '"image_size": 4}}')
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "at most 65536 classes, got 65537" in err
        assert not out.exists()

    def test_stale_source_file_exits_two_writing_nothing(self, tmp_path, capsys):
        """A source<i>.ttad that this config does not write, left by an earlier
        run into the same directory, would be pooled by train-source."""
        base = tiny_cfg()
        small = replace(base.data, per_class_count=3, image_size=4)
        five = replace(base, data=replace(small, source_gains=((1.0, 1.0, 1.0),) * 5,
                                          source_biases=((0.0, 0.0, 0.0),) * 5))
        paths = {}
        for name, cfg in (("five", five), ("two", replace(base, data=small))):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(serialize(cfg))
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(paths["five"]), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["gen-data", "--config", str(paths["two"]), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{out / 'source2.ttad'}: a stale source file" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert main(["gen-data", "--config", str(paths["five"]), "--out", str(out)]) == 0
        # train-source would pool source00.ttad as a second domain 0
        (out / "source00.ttad").write_bytes(before["source1.ttad"])
        assert main(["gen-data", "--config", str(paths["five"]), "--out", str(out)]) == 2
        assert f"{out / 'source00.ttad'}: a stale source file" in capsys.readouterr().err

    def test_same_seed_twice_identical_files(self, tmp_path, cfg_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", cfg_path, "--out", str(a)]) == 0
        assert main(["gen-data", "--config", cfg_path, "--out", str(b)]) == 0
        for name in ("source0.ttad", "target.ttad", "support.ttad", "stream.ttad"):
            assert file_sha256(a / name) == file_sha256(b / name), name


def test_every_sidecar_embeds_describe(workspace, cfg_path):
    want = describe(load_config(cfg_path))
    for name in ("data/gen-data.sidecar.json", "source.ttam.sidecar.json",
                 "tuned.ttam.sidecar.json"):
        doc = json.loads((workspace / name).read_text())
        assert want.items() <= doc.items(), name


class TestTrainSource:
    def test_model_loads_and_sidecar_present(self, workspace):
        model = load_model(workspace / "source.ttam")
        assert model.num_classes == 3
        doc = json.loads((workspace / "source.ttam.sidecar.json").read_text())
        assert doc["params_hash"] == model.params_hash().hex()
        assert doc["curve"][-1][0] == tiny_cfg().source.iters - 1
        assert "final_loss" not in doc

    def test_zero_iters_records_an_empty_curve(self, workspace, cfg_path, tmp_path):
        out = tmp_path / "m.ttam"
        assert main(["train-source", "--config", cfg_path, "--data", str(workspace / "data"),
                     "--out", str(out), "--iters", "0"]) == 0
        assert json.loads((tmp_path / "m.ttam.sidecar.json").read_text())["curve"] == []

    def test_missing_data_dir_is_data_error(self, tmp_path, cfg_path):
        rc = main(["train-source", "--config", cfg_path,
                   "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "m.ttam")])
        assert rc == 2

    def test_mixed_image_sizes_is_data_error(self, tmp_path, cfg_path, rng, capsys):
        for i, size in enumerate((16, 8)):
            recs = [SampleRecord(label=c, pixels=rng.normal(size=(3, size, size)), domain_id=i)
                    for c in (0, 1, 2)]
            write_dataset(tmp_path / f"source{i}.ttad", recs, num_classes=3)
        out = tmp_path / "m.ttam"
        rc = main(["train-source", "--config", cfg_path, "--data", str(tmp_path), "--out", str(out)])
        assert rc == 2
        assert "pixel shape" in capsys.readouterr().err
        assert not out.exists()

    def test_class_count_disagreement_is_data_error(self, tmp_path, cfg_path, rng, capsys):
        for i, num_classes in enumerate((3, 4)):
            recs = [SampleRecord(label=c, pixels=rng.normal(size=(3, 8, 8)), domain_id=i)
                    for c in (0, 1, 2)]
            write_dataset(tmp_path / f"source{i}.ttad", recs, num_classes=num_classes)
        out = tmp_path / "m.ttam"
        rc = main(["train-source", "--config", cfg_path, "--data", str(tmp_path), "--out", str(out)])
        assert rc == 2
        assert "source files disagree on class count: [3, 4]" in capsys.readouterr().err
        assert not out.exists()

    def test_pools_sources_in_index_order(self, tmp_path):
        """With 11 source domains source10.ttad sorts lexically before
        source2.ttad; the model and its data_hash follow the index order."""
        base = tiny_cfg()
        biases = tuple((0.1 * i, 0.0, 0.0) for i in range(11))
        cfg = replace(base, data=replace(base.data, per_class_count=3, image_size=4,
                                         source_gains=((1.0, 1.0, 1.0),) * 11,
                                         source_biases=biases),
                      source=replace(base.source, iters=5))
        path = tmp_path / "c.json"
        path.write_text(serialize(cfg))
        data_dir, out = tmp_path / "data", tmp_path / "m.ttam"
        assert main(["gen-data", "--config", str(path), "--out", str(data_dir)]) == 0
        assert main(["train-source", "--config", str(path), "--data", str(data_dir),
                     "--out", str(out)]) == 0
        names = [f"source{i}" for i in range(11)]
        datasets = [read_dataset(data_dir / f"{name}.ttad").records for name in names]
        want, curve = train_source(datasets, cfg.source, seed_plan(cfg)["init"],
                                   widths=cfg.widths, num_classes=cfg.data.class_count)
        assert load_model(out).params_hash() == want.params_hash()
        hashes = json.loads((data_dir / "gen-data.sidecar.json").read_text())["hashes"]
        doc = json.loads((tmp_path / "m.ttam.sidecar.json").read_text())
        assert doc["data_hash"] == "+".join(hashes[name] for name in names)
        assert doc["curve"] == [list(point) for point in curve]


class TestFinetune:
    @pytest.mark.parametrize("epochs", [5, 0])
    def test_outputs(self, workspace, cfg_path, tmp_path, epochs):
        """The model and one sidecar, whose trace is the list finetune returns."""
        out = tmp_path / "tuned.ttam"
        support = workspace / "data" / "support.ttad"
        assert main(["finetune", "--config", cfg_path, "--model", str(workspace / "source.ttam"),
                     "--support", str(support), "--out", str(out),
                     "--epochs", str(epochs)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tuned.ttam",
                                                             "tuned.ttam.sidecar.json"]
        cfg = load_config(cfg_path)
        source = load_model(workspace / "source.ttam")
        want, trace = finetune(source, SupportSet(read_dataset(support).records, 3),
                               replace(cfg.finetune, epochs=epochs), seed_plan(cfg)["fda"])
        assert load_model(out).params_hash() == want.params_hash()
        doc = json.loads((tmp_path / "tuned.ttam.sidecar.json").read_text())
        assert doc["trace"] == trace and len(trace) == epochs
        assert "final_support_acc" not in doc

    def test_trace_flag_is_gone(self, workspace, tmp_path, capsys):
        rc = main(["finetune", "--model", str(workspace / "source.ttam"),
                   "--support", str(workspace / "data" / "support.ttad"),
                   "--out", str(tmp_path / "t.ttam"), "--trace", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "unrecognized arguments: --trace" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_support_class_count_mismatch_is_data_error(self, workspace, cfg_path, tmp_path,
                                                         capsys):
        records = read_dataset(workspace / "data" / "support.ttad").records
        relabeled = [replace(rec, label=i % 5) for i, rec in enumerate(records)]
        wrong = tmp_path / "support5.ttad"
        write_dataset(wrong, relabeled, num_classes=5)
        out = tmp_path / "tuned5.ttam"
        rc = main(["finetune", "--config", cfg_path, "--model", str(workspace / "source.ttam"),
                   "--support", str(wrong), "--out", str(out)])
        assert rc == 2
        assert f"{wrong}: 5 classes" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [wrong]

    @pytest.mark.parametrize("drop, message", [
        ("class", "support set missing class 2"),
        ("sample", "support classes hold unequal sample counts {0: 2, 1: 2, 2: 1}")])
    def test_support_without_k_per_class_is_data_error(self, workspace, cfg_path, tmp_path,
                                                       capsys, drop, message):
        """A class missing, or a class short of the others' count (k = 2
        here), exits 2 before any training, and the message names it."""
        records = read_dataset(workspace / "data" / "support.ttad").records
        if drop == "class":
            kept = [rec for rec in records if rec.label != 2]
        else:
            last = max(i for i, rec in enumerate(records) if rec.label == 2)
            kept = records[:last] + records[last + 1:]
        wrong = tmp_path / "short.ttad"
        write_dataset(wrong, kept, num_classes=3)
        out = tmp_path / "tuned.ttam"
        rc = main(["finetune", "--config", cfg_path, "--model", str(workspace / "source.ttam"),
                   "--support", str(wrong), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [wrong]


class TestAdapt:
    def test_source_only_leaves_model_file_untouched(self, workspace, cfg_path):
        before = file_sha256(workspace / "source.ttam")
        out = workspace / "erm.json"
        rc = main(["adapt", "--config", cfg_path, "--model", str(workspace / "source.ttam"),
                   "--stream", str(workspace / "data" / "stream.ttad"),
                   "--method", "erm", "--out", str(out)])
        assert rc == 0
        assert file_sha256(workspace / "source.ttam") == before
        doc = json.loads(out.read_text())
        assert doc["method"] == "source_only"
        assert 0.0 <= doc["final_accuracy"] <= 1.0

    def test_fs_tta_with_support(self, workspace, cfg_path):
        out = workspace / "fs_tta.json"
        rc = main(["adapt", "--config", cfg_path, "--model", str(workspace / "tuned.ttam"),
                   "--stream", str(workspace / "data" / "stream.ttad"),
                   "--support", str(workspace / "data" / "support.ttad"),
                   "--method", "fs_tta", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["selected_total"] > 0
        assert len(doc["curve"]) == len(doc["rows"]) == 3

    def test_batch_csv_flag_is_gone(self, workspace, tmp_path, capsys):
        """The metrics JSON is the one record of a run; its rows are the batches."""
        rc = main(["adapt", "--model", str(workspace / "source.ttam"),
                   "--stream", str(workspace / "data" / "stream.ttad"), "--method", "erm",
                   "--out", str(tmp_path / "erm.json"), "--batch-csv", str(tmp_path / "erm.csv")])
        assert rc == 1
        assert "unrecognized arguments: --batch-csv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fs_tta_without_support_is_config_error(self, workspace, cfg_path):
        rc = main(["adapt", "--config", cfg_path, "--model", str(workspace / "tuned.ttam"),
                   "--stream", str(workspace / "data" / "stream.ttad"),
                   "--method", "fs_tta", "--out", str(workspace / "x.json")])
        assert rc == 1

    def test_support_with_unequal_counts_is_data_error(self, workspace, cfg_path, tmp_path,
                                                       capsys):
        """The support file that finetune refuses cannot seed a bank either."""
        records = read_dataset(workspace / "data" / "support.ttad").records
        last = max(i for i, rec in enumerate(records) if rec.label == 2)
        wrong = tmp_path / "short.ttad"
        write_dataset(wrong, records[:last] + records[last + 1:], num_classes=3)
        rc = main(["adapt", "--config", cfg_path, "--model", str(workspace / "tuned.ttam"),
                   "--stream", str(workspace / "data" / "stream.ttad"),
                   "--support", str(wrong), "--method", "fs_tta",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert (f"{wrong}: support classes hold unequal sample counts {{0: 2, 1: 2, 2: 1}}; "
                "each needs the same k") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [wrong]

    def test_unknown_method_is_config_error(self, workspace, cfg_path):
        rc = main(["adapt", "--config", cfg_path, "--model", str(workspace / "source.ttam"),
                   "--stream", str(workspace / "data" / "stream.ttad"),
                   "--method", "sgd", "--out", str(workspace / "x.json")])
        assert rc == 1

    @pytest.mark.parametrize("method, mismatched", [
        ("erm", "stream"), ("fs_tta", "stream"), ("fs_tta", "support")])
    def test_class_count_mismatch_is_data_error(self, workspace, cfg_path, tmp_path, capsys,
                                                 method, mismatched):
        files = {name: str(workspace / "data" / f"{name}.ttad") for name in ("stream", "support")}
        wrong = tmp_path / f"{mismatched}4.ttad"
        write_dataset(wrong, read_dataset(files[mismatched]).records, num_classes=4)
        files[mismatched] = str(wrong)
        out = tmp_path / "x.json"
        rc = main(["adapt", "--config", cfg_path, "--model", str(workspace / "tuned.ttam"),
                   "--stream", files["stream"], "--support", files["support"],
                   "--method", method, "--out", str(out)])
        assert rc == 2
        assert f"{wrong}: 4 classes" in capsys.readouterr().err
        assert not out.exists()

    def test_stored_label_out_of_range_is_data_error(self, workspace, cfg_path, tmp_path):
        bad = tmp_path / "bad.ttad"
        blob = bytearray((workspace / "data" / "stream.ttad").read_bytes())
        blob[32:34] = (9).to_bytes(2, "little")  # first record's label
        bad.write_bytes(bytes(blob))
        out = tmp_path / "x.json"
        rc = main(["adapt", "--config", cfg_path, "--model", str(workspace / "source.ttam"),
                   "--stream", str(bad), "--method", "erm", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("method", ["erm", "bn", "tent", "fs_tta"])
    def test_document_is_shared_path_fields_plus_sidecar(self, workspace, cfg_path, tmp_path,
                                                         method):
        model_path = workspace / ("tuned.ttam" if method == "fs_tta" else "source.ttam")
        stream_path = workspace / "data" / "stream.ttad"
        support_path = workspace / "data" / "support.ttad"
        out = tmp_path / "m.json"
        rc = main(["adapt", "--config", cfg_path, "--model", str(model_path),
                   "--stream", str(stream_path), "--support", str(support_path),
                   "--method", method, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())

        cfg = replace(load_config(cfg_path), method=resolve_method(method))
        model = load_model(model_path)
        support = read_dataset(support_path)
        bank = harness.support_bank(model, SupportSet(support.records, support.num_classes))
        fields = harness.adapt_stream(cfg, cfg.method, model, read_dataset(stream_path).records,
                                      seed_plan(cfg)["stream"], bank)
        fields.pop("seconds")
        # json text compares floats bitwise
        assert json.dumps({k: doc[k] for k in fields}, sort_keys=True) == \
            json.dumps(fields, sort_keys=True)
        sidecar = {k: v for k, v in doc.items() if k not in fields and k != "seconds"}
        assert sidecar == {
            **describe(cfg), "schema": harness.METRICS_SCHEMA,
            "comparison_hash": harness.comparison_hash(cfg), "data_hash": file_sha256(stream_path), "num_classes": support.num_classes,
        }

    def test_corrupt_model_is_data_error(self, workspace, cfg_path, tmp_path):
        bad = tmp_path / "bad.ttam"
        bad.write_bytes(b"NOPE" + b"\x00" * 64)
        rc = main(["adapt", "--config", cfg_path, "--model", str(bad),
                   "--stream", str(workspace / "data" / "stream.ttad"),
                   "--method", "erm", "--out", str(tmp_path / "x.json")])
        assert rc == 2

    @pytest.mark.parametrize("bad, message", [
        ("stream", "file shorter than the header"), ("model", "expected 4 channel widths, got 3")])
    def test_malformed_header_is_data_error(self, workspace, cfg_path, tmp_path, capsys, bad,
                                            message):
        files = {"stream": workspace / "data" / "stream.ttad", "model": workspace / "source.ttam"}
        blob = bytearray(files[bad].read_bytes())
        if bad == "stream":
            del blob[20:]
        else:
            blob[8:12] = (3).to_bytes(4, "little")  # the header's width count
        files[bad] = tmp_path / files[bad].name
        files[bad].write_bytes(bytes(blob))
        out = tmp_path / "x.json"
        rc = main(["adapt", "--config", cfg_path, "--model", str(files["model"]),
                   "--stream", str(files["stream"]), "--method", "erm", "--out", str(out)])
        assert rc == 2
        assert f"{files[bad]}: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestReport:
    def test_table_over_two_runs(self, workspace, capsys):
        rc = main(["report", str(workspace / "erm.json"), str(workspace / "fs_tta.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "source_only" in out and "fs_tta" in out

    def test_csv_output(self, workspace, tmp_path):
        csv_path = tmp_path / "table.csv"
        rc = main(["report", str(workspace / "erm.json"), str(workspace / "fs_tta.json"),
                   "--csv", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "method,final_accuracy,delta_vs_baseline,total,batches"
        assert len(lines) == 3

    def test_mixed_hash_refused_then_forced(self, workspace, tmp_path, capsys):
        doc = json.loads((workspace / "erm.json").read_text())
        doc["data_hash"] = "deadbeef"
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        rc = main(["report", str(workspace / "fs_tta.json"), str(other)])
        assert rc == 2
        capsys.readouterr()
        rc = main(["report", str(workspace / "fs_tta.json"), str(other), "--force"])
        assert rc == 0

    def test_invalid_json_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["report", str(bad)]) == 2

    @staticmethod
    def _report(path, capsys, **fields) -> tuple[int, str]:
        """report's exit code and stderr on a metrics file holding the seven
        fields adapt writes, changed by fields; a field given as ... is left out."""
        doc = {"schema": harness.METRICS_SCHEMA, "method": "erm", "final_accuracy": 0.5,
               "num_classes": 3, "total": 10, "curve": [0.5], "data_hash": "d",
               "comparison_hash": "c", **fields}
        path.write_text(json.dumps({k: v for k, v in doc.items() if v is not ...}))
        csv_path = path.with_suffix(".csv")
        rc = main(["report", str(path), "--csv", str(csv_path)])
        assert csv_path.exists() == (rc == 0)
        return rc, capsys.readouterr().err

    def test_the_seven_fields_adapt_writes_suffice(self, tmp_path, capsys):
        assert self._report(tmp_path / "m.json", capsys) == (0, "")

    @pytest.mark.parametrize("field", ["method", "final_accuracy", "num_classes", "total",
                                       "curve", "data_hash", "comparison_hash"])
    def test_missing_metrics_field_is_data_error(self, tmp_path, capsys, field):
        path = tmp_path / "m.json"
        rc, err = self._report(path, capsys, **{field: ...})
        assert rc == 2
        assert f"{path}: metrics field {field!r} missing or mistyped: None" in err

    @pytest.mark.parametrize("doc", [
        {"final_accuracy": "high"}, {"total": 2.5}, {"num_classes": None}, {"method": 3}])
    def test_mistyped_metrics_are_data_errors(self, tmp_path, capsys, doc):
        path = tmp_path / "m.json"
        rc, err = self._report(path, capsys, **doc)
        assert rc == 2
        assert f"{path}: metrics field {next(iter(doc))!r} missing or mistyped" in err

    @pytest.mark.parametrize("field,value", [
        ("curve", 5), ("data_hash", [1]), ("comparison_hash", {"x": 1})])
    def test_mistyped_curve_or_hash_is_data_error(self, tmp_path, capsys, field, value):
        # bit flips keep a value's JSON type, so the fuzz test cannot reach these
        path = tmp_path / "m.json"
        rc, err = self._report(path, capsys, **{field: value})
        assert rc == 2
        assert f"{path}: metrics field {field!r} missing or mistyped" in err

    @pytest.mark.parametrize("field, value", [
        ("final_accuracy", float("nan")), ("final_accuracy", float("inf")),
        ("final_accuracy", 7.5), ("final_accuracy", -0.25), ("total", 0), ("total", -3)])
    def test_out_of_range_metrics_field_is_data_error(self, tmp_path, capsys, field, value):
        """adapt never writes these; report refuses them rather than print a nan row."""
        path = tmp_path / "m.json"
        rc, err = self._report(path, capsys, **{field: value})
        assert rc == 2
        assert f"{path}: metrics field {field!r} = {value!r} outside" in err

    def test_non_utf8_metrics_are_data_error(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"method": "\xa0"}')
        assert main(["report", str(path)]) == 2
        assert "UTF-8" in capsys.readouterr().err


class TestSweepCommand:
    def test_alpha_sweep_writes_doc(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main(["sweep", "--config", cfg_path, "--axis", "alpha",
                   "--values", "0.0,0.5", "--trials", "1", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["alpha0_matches_stage1"] is True
        assert "alpha" in capsys.readouterr().out

    @pytest.mark.parametrize("extra, message", [
        (["--axis", "alpha", "--trials", "0"], "at least one value and one trial seed"),
        (["--axis", "alpha", "--trials", "-2"], "at least one value and one trial seed"),
        (["--axis", "alpha", "--values", "0.3,1.5"], "alpha must be in [0, 1], got 1.5"),
        (["--axis", "kshot", "--values", "1,12"], "k must be less than data.per_class_count 12"),
    ])
    def test_bad_grid_exits_one_before_any_data(self, cfg_path, tmp_path, capsys, monkeypatch,
                                                extra, message):
        called = []
        monkeypatch.setattr(harness, "prepare_benchmark", lambda *a: called.append("data"))
        monkeypatch.setattr(harness, "build_source_model", lambda *a: called.append("source"))
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--config", cfg_path, *extra, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert called == [] and not out.exists()

    @pytest.mark.parametrize("axis, values", [("alpha", "a,b"), ("kshot", "1.5"), ("batch", "8,")])
    def test_unparsable_values_are_config_errors(self, cfg_path, tmp_path, capsys, axis, values):
        rc = main(["sweep", "--config", cfg_path, "--axis", axis, "--values", values,
                   "--out", str(tmp_path / "sweep.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --values")

    def test_empty_values_are_a_config_error_not_the_defaults(self, cfg_path, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setattr(harness, "prepare_benchmark", lambda *a: pytest.fail("ran data"))
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--config", cfg_path, "--axis", "alpha", "--values", "",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --values ''")
        assert not out.exists()


class TestRunAllCommand:
    def test_full_pipeline(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["run-all", "--config", cfg_path, "--out", str(out),
                   "--methods", "source_only,fs_tta"])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["methods"]) == {"source_only", "fs_tta"}
        assert "online accuracy" in capsys.readouterr().out

    def test_empty_methods_are_a_config_error_not_the_default(self, cfg_path, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.setattr(harness, "prepare_benchmark", lambda *a: pytest.fail("ran data"))
        out = tmp_path / "run"
        assert main(["run-all", "--config", cfg_path, "--out", str(out), "--methods", ""]) == 1
        assert capsys.readouterr().err.startswith("error: unknown method ''")
        assert not out.exists()


def _strict_json(path):
    """The document at path, refusing the NaN and Infinity tokens that JSON lacks."""
    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestStrictJson:
    def test_every_cli_document_is_strict_json(self, workspace, cfg_path, tmp_path, capsys):
        # erm has no loss on any batch; tent and fs_tta have one on most
        for method, model in (("erm", "source.ttam"), ("tent", "source.ttam"),
                              ("fs_tta", "tuned.ttam")):
            assert main(["adapt", "--config", cfg_path, "--model", str(workspace / model),
                         "--stream", str(workspace / "data" / "stream.ttad"),
                         "--support", str(workspace / "data" / "support.ttad"),
                         "--method", method, "--out", str(tmp_path / f"{method}.json")]) == 0
        assert main(["sweep", "--config", cfg_path, "--axis", "alpha", "--values", "0.0,1.0",
                     "--trials", "1", "--out", str(tmp_path / "sweep.json")]) == 0
        assert main(["run-all", "--config", cfg_path, "--methods", "source_only,fs_tta",
                     "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        paths = [*workspace.rglob("*.json"), *tmp_path.rglob("*.json")]
        assert {"gen-data.sidecar.json", "source.ttam.sidecar.json",
                "tuned.ttam.sidecar.json", "erm.json", "sweep.json",
                "report.json"} <= {p.name for p in paths}
        for path in paths:
            _strict_json(path)
        erm = _strict_json(tmp_path / "erm.json")
        assert erm["schema"] == "fewshot-tta-metrics/2"
        assert {row["loss"] for row in erm["rows"]} == {None}
        losses = [row["loss"] for row in _strict_json(tmp_path / "tent.json")["rows"]]
        assert all(isinstance(v, float) for v in losses)

    def test_write_json_refuses_nan_and_leaves_the_file(self, tmp_path):
        path = tmp_path / "m.json"
        write_json(path, {"loss": None})
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                write_json(path, {"loss": bad})
        assert _strict_json(path) == {"loss": None}

    def test_report_refuses_a_version_1_file(self, workspace, tmp_path, capsys):
        old = tmp_path / "old.json"
        doc = json.loads((workspace / "erm.json").read_text())
        write_json(old, {**doc, "schema": "fewshot-tta-metrics/1"})
        assert main(["report", str(old), str(workspace / "fs_tta.json")]) == 2
        assert (f"{old}: schema 'fewshot-tta-metrics/1', expected 'fewshot-tta-metrics/2'"
                in capsys.readouterr().err)


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["adapt"]) == 1
        capsys.readouterr()

    def test_unknown_subcommand_is_one(self, capsys):
        assert main(["transmogrify"]) == 1
        capsys.readouterr()

    @staticmethod
    def _adapt_failing_midway(workspace, out_dir, monkeypatch, exc) -> int:
        """Run adapt with exc raised partway through writing its metrics file."""
        def failing_dump(doc, fh, **kwargs):
            fh.write('{"method": ')
            raise exc
        monkeypatch.setattr(data.json, "dump", failing_dump)
        return main(["adapt", "--model", str(workspace / "source.ttam"),
                     "--stream", str(workspace / "data" / "stream.ttad"), "--method", "erm",
                     "--out", str(out_dir / "erm.json")])

    def test_interrupt_exits_130_leaving_no_file(self, workspace, tmp_path, capsys, monkeypatch):
        assert self._adapt_failing_midway(workspace, tmp_path, monkeypatch,
                                          KeyboardInterrupt) == 130
        assert capsys.readouterr().err == "interrupted\n"
        assert list(tmp_path.iterdir()) == []

    # raised, not provoked: a real one would first use up the machine's memory
    @pytest.mark.parametrize("exc, detail", [
        (MemoryError("Unable to allocate 5.24 TiB for an array"),
         "Unable to allocate 5.24 TiB for an array"),
        (MemoryError(), "an allocation failed"),
    ])
    def test_out_of_memory_exits_one_leaving_no_file(self, workspace, tmp_path, capsys,
                                                     monkeypatch, exc, detail):
        assert self._adapt_failing_midway(workspace, tmp_path, monkeypatch, exc) == 1
        assert capsys.readouterr().err == f"error: out of memory: {detail}\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_file_is_data_error(self, tmp_path):
        rc = main(["gen-data", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "d")])
        assert rc == 2

    def test_bad_config_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        rc = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d")])
        assert rc == 1

    @pytest.mark.parametrize("doc", [{"widths": 5}, {"adapt": 5}, {"k": "five"},
                                     {"master_seed": "x"}])
    def test_mistyped_config_is_config_error(self, tmp_path, capsys, doc):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        rc = main(["run-all", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_out_of_range_config_exits_one_before_any_stage(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"source": {"iters": -1}}))
        rc = main(["run-all", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: iters must be >= 0")
        assert not (tmp_path / "out").exists()

    def test_zero_stream_batch_size_exits_one_before_any_stage(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"adapt": {"batch_size": 0}}))
        rc = main(["run-all", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: batch_size must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, key", [
        ({"ema_beta": 0.9}, "ema_beta"), ({"source": {"log_every": 100}}, "log_every"),
        ({"finetune": {"batch_size": 64}}, "batch_size"),
        ({"finetune": {"fda": {"alpha_beta": 0.1}}}, "alpha_beta"),
        ({"finetune": {"fda": {"eps": 1e-6}}}, "eps"),
        ({"data": {"source_noise_std": 0.05}}, "source_noise_std")])
    def test_removed_key_exits_one_naming_it(self, tmp_path, capsys, doc, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        rc = main(["run-all", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert re.match(rf"error: unknown \w+ keys: \['{key}'\]\n$", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_width_channel_mismatch_exits_one_before_any_data(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"widths": [1, 4, 8, 8]}))
        rc = main(["run-all", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: widths[0] must equal the data's channel count 3")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"adapt": {"lr": float("inf")}}, "lr must be positive and finite, got inf"),
        ({"finetune": {"lr": float("nan")}}, "lr must be positive and finite, got nan"),
        ({"data": {"target_noise_std": float("nan")}}, "every gain, bias and noise value"),
        ({"widths": [3, 8]}, "widths must be 4 positive channel counts"),
        ({"data": {"source_biases": [[0, 0, 0]]}}, "source_gains and source_biases need one"),
        ({"data": {"source_gains": [], "source_biases": []}}, "source_gains and source_biases")])
    @pytest.mark.parametrize("command", ["run-all", "sweep"])
    def test_non_finite_or_bad_architecture_config_exits_one_before_any_data(
            self, tmp_path, capsys, monkeypatch, doc, message, command):
        monkeypatch.setattr(harness, "prepare_benchmark", lambda *a: pytest.fail("generated data"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity, as Python's json writes them
        args = ["--axis", "alpha"] if command == "sweep" else []
        rc = main([command, "--config", str(path), *args, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"data": {"target_gain": [0, 1, 1]}}, "every gain must be > 0"),
        ({"data": {"target_noise_std": -1}}, "every gain must be > 0 and target_noise_std >= 0"),
        ({"data": {"image_size": 2}}, "image_size must be >= 4, got 2")])
    def test_data_range_config_exits_one_before_adapt_writes(self, workspace, tmp_path, capsys,
                                                             doc, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        rc = main(["adapt", "--config", str(path), "--model", str(workspace / "source.ttam"),
                   "--stream", str(workspace / "data" / "stream.ttad"), "--method", "erm",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("doc, message", [
        ('{"adapt": {"lr": 1%s}}' % ("0" * 399), "AdaptConfig value 'lr' is too large for a float"),
        ('{"data": {"per_class_count": 4611686018427387904}}', "data.class_count, data.per_class_count"),
        ('{"data": {"image_size": 1%s}}' % ("0" * 399), "data.class_count, data.per_class_count"),
        ('{"widths": [3, 16, 32, 4611686018427387904]}', "widths [3, 16, 32, 4611686018427387904]")],
        ids=["lr", "per_class_count", "image_size", "widths"])
    @pytest.mark.parametrize("command", ["gen-data", "run-all"])
    def test_size_beyond_float64_or_index_space_exits_one_writing_nothing(
            self, tmp_path, capsys, doc, message, command):
        path = tmp_path / "c.json"
        path.write_text(doc)
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("finetune", "--lr", "nan"), ("finetune", "--lr", "inf"), ("adapt", "--alpha", "nan")])
    def test_non_finite_flag_exits_one_before_any_read(self, tmp_path, capsys, command, flag,
                                                        value):
        # every input path is missing, so a reader that ran would exit 2
        required = [str(tmp_path / a) if not a.startswith("--") else a
                    for a in _REQUIRED[command]]
        assert main([command, *required, flag, value]) == 1
        assert re.match(r"error: (lr|alpha) must be", capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("k", ["12", "13"])
    def test_k_without_a_stream_exits_one_before_any_data(self, cfg_path, tmp_path, capsys,
                                                          monkeypatch, k):
        # the tiny config has 12 samples per class
        monkeypatch.setattr(harness, "prepare_benchmark", lambda *a: pytest.fail("generated data"))
        monkeypatch.setattr(harness, "build_source_model", lambda *a: pytest.fail("trained"))
        rc = main(["run-all", "--config", cfg_path, "--k", k, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: k must be less than data.per_class_count 12, got {k}")
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"method": "\xa0"}')
        rc = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("error, code", [
        (ConfigError, 1), (DataError, 2), (TruncatedFileError, 2), (NumericError, 3),
        (OSError, 2)])
    def test_each_error_exits_with_its_code(self, monkeypatch, capsys, error, code):
        def fail(args):
            raise error("boom")
        monkeypatch.setattr(cli, "cmd_report", fail)
        assert main(["report", "m.json"]) == code
        assert capsys.readouterr().err == "error: boom\n"


# the arguments each subcommand requires, so one flag can be parsed alone
_REQUIRED = {
    "gen-data": ["--out", "o"],
    "train-source": ["--data", "d", "--out", "o"],
    "finetune": ["--model", "m", "--support", "s", "--out", "o"],
    "adapt": ["--model", "m", "--stream", "s", "--out", "o"],
    "sweep": ["--axis", "alpha", "--out", "o"],
    "run-all": ["--out", "o"],
}

# each override flag: a value to pass, the config field it sets, and that field's new value
_FLAG_CASES = {
    "--seed": ("4", "master_seed", 4),
    "--trial-seed": ("5", "trial_seed", 5),
    "--k": ("3", "k", 3),
    "--method": ("bn", "method", "norm_stat"),
    "--alpha": ("0.25", "adapt.alpha", 0.25),
    "--batch-size": ("16", "adapt.batch_size", 16),
    "--epochs": ("7", "finetune.epochs", 7),
    "--lr": ("0.01", "finetune.lr", 0.01),
    "--iters": ("9", "source.iters", 9),
}

# the override flags each subcommand accepts
_COMMAND_FLAGS = {
    "gen-data": ["--seed", "--trial-seed", "--k"],
    "train-source": ["--seed", "--trial-seed", "--iters"],
    "finetune": ["--seed", "--trial-seed", "--epochs", "--lr"],
    "adapt": ["--seed", "--trial-seed", "--method", "--alpha", "--batch-size"],
    "sweep": ["--seed", "--trial-seed"],
    "run-all": ["--seed", "--trial-seed", "--k", "--iters"],
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in _COMMAND_FLAGS.items() for flag in flags])
def test_each_flag_sets_its_field(command, flag):
    value, field, want = _FLAG_CASES[flag]
    args = build_parser().parse_args([command, *_REQUIRED[command], flag, value])
    expected = json.loads(serialize(RunConfig()))
    *sections, name = field.split(".")
    node = expected
    for section in sections:
        node = node[section]
    node[name] = want
    assert json.loads(serialize(cli._config_from(args))) == expected


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in _COMMAND_FLAGS.items()
    for flag in _FLAG_CASES if flag not in flags])
def test_each_subcommand_refuses_the_flags_it_does_not_take(command, flag, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, *_REQUIRED[command], flag, _FLAG_CASES[flag][0]])
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["adapt", *_REQUIRED["adapt"], "--meth", "tent"],
    ["sweep", *_REQUIRED["sweep"], "--ax", "alpha"],
    ["report", "m.json", "--cs", "t.csv"],
])
def test_a_prefix_of_a_flag_is_a_usage_error(argv, capsys):
    assert main(argv) == 1
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_every_subcommand_renders_its_help(capsys):
    # argparse formats a help string only when it renders one
    for command in ("gen-data", "train-source", "finetune", "adapt", "sweep", "report", "run-all"):
        assert main([command, "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert out.startswith(f"usage: fewshot-tta {command} ")
        for flag in _COMMAND_FLAGS.get(command, []):
            assert f" {flag} " in out, (command, flag)
        if command == "adapt":
            assert "method or alias: erm, bn, tent, ft, ft_tent, fs_tta" in out


def test_method_alias_by_flag_or_file_gives_one_hash(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"method": "tent"}')
    parser = build_parser()
    by_file = cli._config_from(parser.parse_args(["run-all", "--config", str(path),
                                                  *_REQUIRED["run-all"]]))
    by_flag = cli._config_from(parser.parse_args(["adapt", "--method", "tent",
                                                  *_REQUIRED["adapt"]]))
    assert config_hash(by_file) == config_hash(by_flag)


class _DiskFull:
    """A file whose write stores half the bytes, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, blob):
        self.fh.write(blob[: len(blob) // 2])
        raise OSError(28, "No space left on device")


def test_write_json_is_atomic(tmp_path, monkeypatch, rng):
    path = tmp_path / "metrics.json"
    write_json(path, {"accuracy": 0.5})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"accuracy": 0.75, "classes": {1, 2}})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.json"]
    write_json(path, {"accuracy": 0.75})
    assert json.loads(path.read_text()) == {"accuracy": 0.75}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.json"]
    stale = tmp_path / f".metrics.json.{os.getpid()}.tmp"
    stale.write_text("left by a killed run")
    write_json(path, {"accuracy": 1.0})
    assert json.loads(path.read_text()) == {"accuracy": 1.0}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.json"]

    # a .ttad overwrite that fails mid-write leaves the old file loadable
    ttad = tmp_path / "stream.ttad"
    records = [data.SampleRecord(label=i % 3, pixels=rng.normal(size=(3, 4, 4)), domain_id=1)
               for i in range(6)]
    write_dataset(ttad, records, num_classes=3)
    before = ttad.read_bytes()
    real_open = data.atomic_open

    @contextlib.contextmanager
    def disk_full(target, mode="w"):
        with real_open(target, mode) as fh:
            yield _DiskFull(fh)

    monkeypatch.setattr(data, "atomic_open", disk_full)
    with pytest.raises(OSError, match="No space"):
        write_dataset(ttad, records[:3], num_classes=3)
    assert ttad.read_bytes() == before
    assert [r.label for r in read_dataset(ttad).records] == [r.label for r in records]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.json", "stream.ttad"]


def test_readme_cli_block_parses():
    text = README.read_text()
    block = text[text.index("## CLI"):].split("```")[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("fewshot-tta ")]
    assert len(lines) == 7
    parser = build_parser()
    unparsed = []
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            unparsed.append(line)
    assert unparsed == []


def test_package_root_binds_only_finetune():
    import fewshot_tta

    names = {name for name, value in vars(fewshot_tta).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == {"finetune"}
    assert callable(fewshot_tta.finetune) and fewshot_tta.__version__
