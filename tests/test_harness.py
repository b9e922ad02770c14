"""Orchestration layer: trials, staged runs, sweeps, comparison reports."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fewshot_tta.config import RunConfig, describe
from fewshot_tta.data import BenchmarkConfig, records_as_arrays
from fewshot_tta.errors import ConfigError, DataError
from fewshot_tta.fda import FdaConfig
from fewshot_tta.finetune import FinetuneConfig
from fewshot_tta.harness import (METRICS_SCHEMA, build_report, build_source_model,
                                 check_comparable, format_report, format_sweep,
                                 make_trial, prepare_benchmark, run_all, run_method,
                                 run_stage1, sweep)
from fewshot_tta.model import SourceConfig, predict
from fewshot_tta.stream import (AdaptConfig, adapt_batch, init_adapt_state, make_stream,
                                run_baseline)
from test_acceptance import _strip_timings


def tiny_cfg(**over):
    cfg = RunConfig(
        k=2, widths=(3, 4, 8, 8),
        data=BenchmarkConfig(
            class_count=3, per_class_count=12, image_size=8,
            source_gains=((1.0, 1.0, 1.0), (1.2, 0.8, 1.0)),
            source_biases=((0.0, 0.0, 0.0), (0.1, -0.1, 0.0)),
            target_gain=(1.8, 0.5, 1.4), target_bias=(0.5, -0.4, 0.2)),
        source=SourceConfig(iters=150, lr=3e-3, batch_size=16),
        finetune=FinetuneConfig(epochs=5, lr=3e-3, fda=FdaConfig(p_apply=1.0)),
        adapt=AdaptConfig(batch_size=10, lr=3e-2))
    return dataclasses.replace(cfg, **over) if over else cfg


@pytest.fixture(scope="module")
def pipeline():
    cfg = tiny_cfg()
    bench = prepare_benchmark(cfg)
    model, _ = build_source_model(cfg, bench)
    return cfg, bench, model


class TestBenchmarkPrep:
    def test_shapes(self, pipeline):
        cfg, bench, _ = pipeline
        assert len(bench.source_data) == 2
        assert len(bench.target_data) == 36
        assert bench.class_count == 3

    def test_source_model_predicts_more_than_one_class(self, pipeline):
        # a source model that calls every stream sample one class scores every
        # method alike, so no determinism or identity check could see a change
        cfg, bench, model = pipeline
        x, _ = records_as_arrays(make_trial(cfg, bench).remainder)
        assert len(np.unique(predict(model, x))) >= 2

    def test_master_seed_overrides_data_seed(self):
        a = prepare_benchmark(tiny_cfg(master_seed=1))
        b = prepare_benchmark(tiny_cfg(master_seed=2))
        assert not np.array_equal(a.target_data[0].pixels, b.target_data[0].pixels)


class TestTrials:
    def test_support_split(self, pipeline):
        cfg, bench, _ = pipeline
        trial = make_trial(cfg, bench)
        assert len(trial.support.samples) == 6
        assert len(trial.remainder) == 30

    def test_trial_seed_changes_split(self, pipeline):
        cfg, bench, _ = pipeline
        a = make_trial(dataclasses.replace(cfg, trial_seed=1), bench)
        b = make_trial(dataclasses.replace(cfg, trial_seed=2), bench)
        ids_a = [id(s) for s in a.support.samples]
        ids_b = [id(s) for s in b.support.samples]
        assert ids_a != ids_b


class TestStagedRuns:
    def test_stage1_produces_tuned_model_and_bank(self, pipeline):
        cfg, bench, model = pipeline
        trial = make_trial(cfg, bench)
        stage1 = run_stage1(cfg, trial, model)
        assert stage1.tuned.params_hash() != model.params_hash()
        assert stage1.bank.class_count == 3
        assert len(stage1.trace) == 5

    def test_source_only_runs_without_stage1(self, pipeline):
        cfg, bench, model = pipeline
        trial = make_trial(cfg, bench)
        result = run_method(cfg, trial, model, "source_only")
        assert result["total"] == 30
        assert 0.0 <= result["final_accuracy"] <= 1.0
        assert len(result["curve"]) == 3

    def test_stage1_methods_require_stage1(self, pipeline):
        cfg, bench, model = pipeline
        trial = make_trial(cfg, bench)
        with pytest.raises(ConfigError, match="stage 1"):
            run_method(cfg, trial, model, "ft_only")

    def test_inputs_never_mutated(self, pipeline):
        cfg, bench, model = pipeline
        trial = make_trial(cfg, bench)
        stage1 = run_stage1(cfg, trial, model)
        src_hash = model.params_hash()
        tuned_hash = stage1.tuned.params_hash()
        bank_bytes = stage1.bank.prototypes.tobytes()
        run_method(cfg, trial, model, "fs_tta", stage1)
        run_method(cfg, trial, model, "tent", stage1)
        assert model.params_hash() == src_hash
        assert stage1.tuned.params_hash() == tuned_hash
        assert stage1.bank.prototypes.tobytes() == bank_bytes


class TestRunAll:
    def test_report_document(self, pipeline):
        cfg, _, model = pipeline
        report = run_all(cfg, methods=["source_only", "fs_tta"], source_model=model)
        assert report["schema"] == "fewshot-tta-run/1"
        assert describe(cfg).items() <= report.items()
        assert set(report["methods"]) == {"source_only", "fs_tta"}
        assert 0.0 <= report["source_accuracy"] <= 1.0
        assert 0.0 <= report["stage1_accuracy"] <= 1.0
        for m in report["methods"].values():
            assert len(m["curve"]) == report["stream_batches"]
        assert set(report["seconds"]) == {"gen_data", "train_source", "finetune", "adapt"}

    def test_deterministic(self, pipeline):
        cfg, _, model = pipeline
        a = run_all(cfg, methods=["fs_tta"], source_model=model)
        b = run_all(cfg, methods=["fs_tta"], source_model=model)
        assert a["methods"]["fs_tta"]["final_accuracy"] == b["methods"]["fs_tta"]["final_accuracy"]
        assert a["methods"]["fs_tta"]["curve"] == b["methods"]["fs_tta"]["curve"]

    def test_blas_thread_count_does_not_change_a_run(self):
        """The run document of every method on tiny_cfg is byte-identical at
        1 BLAS thread and at the default count."""
        tests = Path(__file__).resolve().parent
        script = ("import json\n"
                  "from fewshot_tta.harness import run_all\n"
                  "from fewshot_tta.stream import BASELINE_KINDS\n"
                  "from test_acceptance import _strip_timings\n"
                  "from test_harness import tiny_cfg\n"
                  "print(json.dumps(_strip_timings(run_all(tiny_cfg(), BASELINE_KINDS)),"
                  " sort_keys=True))\n")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        docs = []
        for threads in ("1", None):
            child_env = dict(env, OPENBLAS_NUM_THREADS=threads) if threads else env
            proc = subprocess.run([sys.executable, "-c", script], env=child_env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            docs.append(proc.stdout)
        assert '"fs_tta"' in docs[0]
        assert docs[0] == docs[1]

    def test_both_stages_move_the_score(self, pipeline):
        """Stage 1 and stage 2 each change the online accuracy on tiny_cfg,
        so the bitwise checks on its documents can see predictions move."""
        cfg, _, model = pipeline
        report = run_all(cfg, methods=["source_only", "ft_only", "ft_plus_entropy_min", "fs_tta"],
                         source_model=model)
        acc = {m: doc["final_accuracy"] for m, doc in report["methods"].items()}
        assert acc["ft_only"] != acc["source_only"]
        assert acc["ft_plus_entropy_min"] != acc["ft_only"]
        assert acc["fs_tta"] != acc["ft_only"]

    def test_source_only_run_skips_stage1(self, pipeline):
        cfg, _, model = pipeline
        report = run_all(cfg, methods=["source_only"], source_model=model)
        assert report["stage1_accuracy"] is None
        assert report["stage1_trace"] is None


class TestHygieneInvariants:
    """Acceptance criterion 6's three checks, on tiny_cfg."""

    @pytest.fixture(scope="class")
    def staged(self, pipeline):
        cfg, bench, model = pipeline
        trial = make_trial(cfg, bench)
        stream = make_stream(trial.remainder, cfg.adapt.batch_size, trial.seeds["stream"],
                             cfg.stream_order)
        return cfg, trial, stream, run_stage1(cfg, trial, model)

    def test_shuffled_hidden_labels_change_only_the_score(self, staged):
        cfg, trial, stream, stage1 = staged
        labels = np.random.default_rng(7).permutation([r.label for r in trial.remainder])
        shuffled = [dataclasses.replace(rec, label=int(lab))
                    for rec, lab in zip(trial.remainder, labels)]
        stream_shuffled = make_stream(shuffled, cfg.adapt.batch_size, trial.seeds["stream"],
                                      cfg.stream_order)
        model_a, model_b = stage1.tuned.copy(), stage1.tuned.copy()
        a = run_baseline("fs_tta", model_a, stream, cfg.adapt, bank=stage1.bank.copy())
        b = run_baseline("fs_tta", model_b, stream_shuffled, cfg.adapt, bank=stage1.bank.copy())
        assert a.mask_total > 0
        assert model_a.params_hash() == model_b.params_hash()
        assert a.final_accuracy != b.final_accuracy

    def test_prefix_replay(self, staged):
        cfg, _, stream, stage1 = staged
        full = init_adapt_state(stage1.tuned.copy(), stage1.bank.copy(), cfg.adapt)
        preds_full = [adapt_batch(full, batch.inputs) for batch in stream]
        prefix = init_adapt_state(stage1.tuned.copy(), stage1.bank.copy(), cfg.adapt)
        for batch, preds in zip(stream[:2], preds_full):
            assert np.array_equal(adapt_batch(prefix, batch.inputs), preds)

    def test_master_seed_determinism(self):
        docs = [run_all(tiny_cfg(), methods=("fs_tta", "entropy_min")) for _ in range(2)]
        assert repr(_strip_timings(docs[0])) == repr(_strip_timings(docs[1]))


class TestSweeps:
    def test_alpha_sweep_rows_and_identity(self, pipeline):
        cfg, bench, model = pipeline
        doc = sweep(cfg, "alpha", values=(0.0, 0.5), trial_seeds=(0, 1),
                    source_model=model, bench=bench)
        assert doc["schema"] == "fewshot-tta-sweep/1"
        assert [row["value"] for row in doc["rows"]] == [0.0, 0.5]
        for row in doc["rows"]:
            assert len(row["per_trial"]) == 2
            assert 0.0 <= row["mean_accuracy"] <= 1.0
        assert doc["alpha0_matches_stage1"] is True
        assert describe(cfg).items() <= doc.items()

    def test_kshot_sweep(self, pipeline):
        cfg, bench, model = pipeline
        doc = sweep(cfg, "kshot", values=(1, 2), trial_seeds=(0,),
                    source_model=model, bench=bench)
        assert [row["value"] for row in doc["rows"]] == [1, 2]

    def test_batch_sweep_times_per_sample(self, pipeline):
        cfg, bench, model = pipeline
        doc = sweep(cfg, "batch", values=(5, 10), trial_seeds=(0,),
                    source_model=model, bench=bench)
        for row in doc["rows"]:
            assert row["per_sample_seconds"] > 0

    def test_unknown_axis_rejected(self, pipeline):
        cfg, bench, model = pipeline
        with pytest.raises(ConfigError, match="axis"):
            sweep(cfg, "temperature", source_model=model, bench=bench)

    def test_format_sweep_renders(self, pipeline):
        cfg, bench, model = pipeline
        doc = sweep(cfg, "alpha", values=(0.5,), trial_seeds=(0,),
                    source_model=model, bench=bench)
        text = format_sweep(doc)
        assert "alpha" in text and "mean_acc" in text


def _metrics(method, acc, data_hash="d0", comparison_hash="c0", num_classes=3):
    return {"schema": METRICS_SCHEMA, "method": method, "final_accuracy": acc,
            "num_classes": num_classes, "total": 30, "curve": [acc] * 3,
            "data_hash": data_hash, "comparison_hash": comparison_hash}


class TestReports:
    def test_delta_over_source_baseline(self):
        report = build_report([_metrics("fs_tta", 0.8), _metrics("source_only", 0.5)])
        by_method = {row["method"]: row for row in report["rows"]}
        assert report["baseline_accuracy"] == 0.5
        assert by_method["fs_tta"]["delta_vs_baseline"] == pytest.approx(0.3)
        assert by_method["source_only"]["delta_vs_baseline"] == 0.0

    def test_rows_sorted_best_first(self):
        report = build_report([_metrics("source_only", 0.5), _metrics("fs_tta", 0.8),
                               _metrics("entropy_min", 0.6)])
        assert [row["method"] for row in report["rows"]] == ["fs_tta", "entropy_min", "source_only"]

    def test_single_file(self):
        report = build_report([_metrics("fs_tta", 0.7)])
        assert len(report["rows"]) == 1
        assert report["rows"][0]["delta_vs_baseline"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="at least one"):
            build_report([])

    def test_schema_mismatch_names_file(self):
        docs = [_metrics("fs_tta", 0.7), {"schema": "other/9"}]
        with pytest.raises(DataError, match="b.json"):
            build_report(docs, paths=["a.json", "b.json"])

    def test_mixed_class_counts_rejected(self):
        docs = [_metrics("fs_tta", 0.7), _metrics("source_only", 0.5, num_classes=4)]
        with pytest.raises(DataError, match="class count"):
            build_report(docs, paths=["a.json", "b.json"])

    def test_mixed_data_hash_refused_unless_forced(self):
        docs = [_metrics("fs_tta", 0.7), _metrics("source_only", 0.5, data_hash="d1")]
        with pytest.raises(DataError, match="mixed data_hash"):
            build_report(docs)
        report = build_report(docs, force=True)
        assert len(report["rows"]) == 2

    def test_mixed_config_refused_unless_forced(self):
        docs = [_metrics("fs_tta", 0.7), _metrics("source_only", 0.5, comparison_hash="c9")]
        with pytest.raises(DataError, match="mixed comparison_hash"):
            check_comparable(docs)
        check_comparable(docs, force=True)

    def test_format_report_renders_all_methods(self):
        report = build_report([_metrics("fs_tta", 0.8), _metrics("source_only", 0.5),
                               _metrics("entropy_min", 0.6), _metrics("norm_stat", 0.55),
                               _metrics("ft_only", 0.75), _metrics("ft_plus_entropy_min", 0.76)])
        text = format_report(report)
        for name in ("fs_tta", "source_only", "entropy_min", "norm_stat", "ft_only"):
            assert name in text
