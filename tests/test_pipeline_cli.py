import json
from pathlib import Path

import numpy as np
import pytest

from clusterens import SynthSpec, gen_synthetic, load_labeling, save_labeling
from clusterens.cli import main
from clusterens.config import (
    PipelineConfig,
    config_hash,
    load_pipeline_config,
    parse_kv_text,
    resolve,
)
from clusterens.errors import ConfigError, StageError
from clusterens.featstore import save_features
from clusterens.metrics import evaluate
from clusterens.pipeline import read_machine_block, run_pipeline


def write_inputs(tmp_path, n=120, d=12, k=3, seed=17):
    m, labels = gen_synthetic(SynthSpec(n=n, d=d, k=k, separation=20.0, seed=seed))
    fpath = tmp_path / "feats.fpk"
    lpath = tmp_path / "labels.lbl"
    save_features(m, fpath)
    save_labeling(labels, lpath)
    return fpath, lpath


def small_config_text(fpath, lpath, out_dir, k=3):
    return "\n".join(
        [
            "# desk-scale run",
            f"features = {fpath}",
            f"labels = {lpath}",
            f"output_dir = {out_dir}",
            "seed = 9",
            "neighbors.theta = 0.3",
            "neighbors.k_min = 5",
            f"train.num_clusters = {k}",
            "train.num_heads = 4",
            "train.epochs = 12",
            "train.warmup_epochs = 1",
            "train.batch_size = 32",
            "train.lr = 1e-3",
            "selftrain.steps = 300",
            "selftrain.batch_size = 32",
        ]
    )


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipe")
    fpath, lpath = write_inputs(tmp_path)
    out_dir = tmp_path / "run"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(small_config_text(fpath, lpath, out_dir))
    cfg = load_pipeline_config(cfg_path)
    manifest = run_pipeline(cfg)
    return tmp_path, cfg_path, cfg, out_dir, manifest


class TestConfig:
    def test_parse_and_defaults(self):
        resolved = resolve(parse_kv_text("seed = 4\ntrain.num_heads=7 # tail"), [])
        assert resolved["seed"] == 4
        assert resolved["train.num_heads"] == 7
        assert resolved["train.lr"] == 1.25e-6
        assert resolved["train.teacher_momentum"] == 0.996
        assert resolved["neighbors.theta"] == 0.3
        assert resolved["neighbors.k_min"] == 50
        assert resolved["selftrain.steps"] == 12500
        assert resolved["ablate.head_counts"] == tuple(range(10, 90, 10))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve({"train.nope": "1"}, [])

    def test_override_wins_over_file(self):
        resolved = resolve({"seed": "4"}, ["seed=11"])
        assert resolved["seed"] == 11

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError, match="bad value"):
            resolve({"train.epochs": "many"}, [])

    def test_hash_stable_and_sensitive(self):
        a = resolve({"seed": "1"}, [])
        b = resolve({"seed": "1"}, [])
        c = resolve({"seed": "2"}, [])
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_bool_parsing(self):
        assert resolve({"neighbors.ground_truth": "true"}, [])["neighbors.ground_truth"]
        assert not resolve({"neighbors.ground_truth": "off"}, [])["neighbors.ground_truth"]
        with pytest.raises(ConfigError):
            resolve({"neighbors.ground_truth": "maybe"}, [])

    def test_missing_required_key(self):
        cfg = PipelineConfig(resolve({}, []))
        with pytest.raises(ConfigError, match="train.num_clusters"):
            cfg.train_config()


class TestPipeline:
    def test_manifest_structure(self, pipeline_run):
        _, _, cfg, out_dir, manifest = pipeline_run
        assert [s.name for s in manifest.stages] == ["train", "ensemble", "selftrain"]
        assert manifest.selftrain_rounds == 1
        assert manifest.config_hash == cfg.hash()
        for stage in manifest.stages:
            assert stage.metrics is not None
            for out in stage.outputs:
                assert Path(out["path"]).exists()

    def test_stage_metrics_reasonable(self, pipeline_run):
        _, _, _, _, manifest = pipeline_run
        assert manifest.stage("train").metrics["acc"] >= 0.9
        assert manifest.stage("ensemble").metrics["acc"] >= 0.9
        assert manifest.stage("selftrain").metrics["acc"] >= 0.9

    def test_train_report_has_loss_trajectory(self, pipeline_run):
        _, _, cfg, out_dir, _ = pipeline_run
        block = read_machine_block((out_dir / "train_report.txt").read_text())
        mean = [float(v) for v in block["loss_mean_by_epoch"].split(",")]
        best = [float(v) for v in block["best_head_loss_by_epoch"].split(",")]
        assert len(mean) == len(best) == cfg.train_config().epochs
        assert np.all(np.isfinite(mean))
        assert best[-1] == float(block["best_head_loss"])

    def test_output_hashes_match_files(self, pipeline_run):
        from clusterens.pipeline import sha256_file

        _, _, _, _, manifest = pipeline_run
        for stage in manifest.stages:
            for out in stage.outputs:
                assert sha256_file(out["path"]) == out["sha256"]

    def test_rerun_identical_modulo_wall_clock(self, pipeline_run):
        _, cfg_path, cfg, out_dir, manifest = pipeline_run
        before = {
            out["path"]: out["sha256"]
            for stage in manifest.stages
            for out in stage.outputs
        }
        manifest2 = run_pipeline(load_pipeline_config(cfg_path))
        after = {
            out["path"]: out["sha256"]
            for stage in manifest2.stages
            for out in stage.outputs
        }
        assert before == after

        def strip(m):
            d = m.to_dict()
            for s in d["stages"]:
                s.pop("wall_clock_s")
            return d

        assert strip(manifest) == strip(manifest2)

    def test_threads_do_not_change_artifacts(self, pipeline_run, tmp_path):
        t, _, _, out_dir, _ = pipeline_run
        threaded_out = tmp_path / "threaded"
        cfg_path = tmp_path / "threaded.cfg"
        cfg_path.write_text(
            small_config_text(t / "feats.fpk", t / "labels.lbl", threaded_out)
            + "\nthreads = 4\n"
        )
        run_pipeline(load_pipeline_config(cfg_path))
        for name in ("neighbors.nns", "checkpoint.hdb", "consensus.lbl",
                     "classifier.clf", "selftrain_pred.lbl"):
            assert (threaded_out / name).read_bytes() == (out_dir / name).read_bytes()

    def test_missing_features_is_config_error_before_stages(self, tmp_path):
        out_dir = tmp_path / "never"
        cfg = PipelineConfig(
            resolve(
                {
                    "features": str(tmp_path / "absent.fpk"),
                    "output_dir": str(out_dir),
                    "train.num_clusters": "3",
                },
                [],
            )
        )
        with pytest.raises(ConfigError, match="feature file not found"):
            run_pipeline(cfg)
        assert not out_dir.exists()

    def test_stage_failure_keeps_partial_outputs(self, tmp_path):
        fpath, lpath = write_inputs(tmp_path, n=40, d=6, k=2)
        out_dir = tmp_path / "broken"
        cfg = PipelineConfig(
            resolve(
                {
                    "features": str(fpath),
                    "labels": str(lpath),
                    "output_dir": str(out_dir),
                    "neighbors.k_min": "3",
                    "train.num_clusters": "2",
                    "train.num_heads": "2",
                    "train.epochs": "2",
                    "train.lr": "1e14",  # diverges during training
                    "train.warmup_epochs": "0",
                },
                [],
            )
        )
        with pytest.raises(StageError, match="train"):
            run_pipeline(cfg)
        # neighbor sets were computed before the failure and must survive
        assert (out_dir / "neighbors.nns").exists()

    def test_stage_isolation_ensemble_rerun(self, pipeline_run, tmp_path):
        _, _, cfg, out_dir, _ = pipeline_run
        consensus_before = (out_dir / "consensus.lbl").read_bytes()
        code = main(["ensemble", "--run-dir", str(out_dir), "--k", "3"])
        assert code == 0
        assert (out_dir / "consensus.lbl").read_bytes() == consensus_before

    def test_stage_isolation_train_rerun_from_neighbor_file(self, pipeline_run, tmp_path):
        t, _, cfg, out_dir, _ = pipeline_run
        redo = tmp_path / "redo"
        code = main([
            "train",
            "--features", str(t / "feats.fpk"),
            "--labels", str(t / "labels.lbl"),
            "--neighbors", str(out_dir / "neighbors.nns"),
            "--out", str(redo),
            "--set", "seed=9",
            "--set", "train.num_clusters=3",
            "--set", "train.num_heads=4",
            "--set", "train.epochs=12",
            "--set", "train.warmup_epochs=1",
            "--set", "train.batch_size=32",
            "--set", "train.lr=1e-3",
        ])
        assert code == 0
        assert (redo / "checkpoint.hdb").read_bytes() == (
            out_dir / "checkpoint.hdb"
        ).read_bytes()

    def test_stage_isolation_selftrain_rerun(self, pipeline_run, tmp_path):
        t, _, cfg, out_dir, _ = pipeline_run
        clf_before = (out_dir / "classifier.clf").read_bytes()
        code = main([
            "selftrain",
            "--features", str(t / "feats.fpk"),
            "--pseudo-labels", str(out_dir / "consensus.lbl"),
            "--out", str(out_dir),
            "--set", "selftrain.steps=300",
            "--set", "selftrain.batch_size=32",
            "--set", "seed=9",
        ])
        assert code == 0
        assert (out_dir / "classifier.clf").read_bytes() == clf_before


class TestCli:
    def test_gen_synth_and_eval_roundtrip(self, tmp_path, capsys):
        fpath = tmp_path / "f.fpk"
        lpath = tmp_path / "l.lbl"
        code = main([
            "gen-synth", "--n", "50", "--d", "6", "--k", "3",
            "--separation", "15", "--seed", "2",
            "--features", str(fpath), "--labels", str(lpath),
        ])
        assert code == 0
        out = capsys.readouterr().out
        block = read_machine_block(out)
        assert block["n"] == "50"
        assert fpath.exists() and lpath.exists()

        code = main(["eval", "--pred", str(lpath), "--gt", str(lpath)])
        assert code == 0
        out = capsys.readouterr().out
        block = read_machine_block(out)
        assert float(block["acc"]) == 1.0
        assert float(block["nmi"]) == pytest.approx(1.0, abs=1e-9)

    def test_eval_matches_metrics_module_exactly(self, pipeline_run, capsys):
        t, _, _, out_dir, _ = pipeline_run
        pred_path = out_dir / "selftrain_pred.lbl"
        gt_path = t / "labels.lbl"
        code = main(["eval", "--pred", str(pred_path), "--gt", str(gt_path)])
        assert code == 0
        block = read_machine_block(capsys.readouterr().out)
        report = evaluate(load_labeling(pred_path), load_labeling(gt_path))
        assert float(block["acc"]) == report.acc
        assert float(block["nmi"]) == report.nmi
        assert float(block["ari"]) == report.ari

    def test_pipeline_cli_summary(self, tmp_path, capsys):
        fpath, lpath = write_inputs(tmp_path, n=60, d=8, k=3)
        out_dir = tmp_path / "run"
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(small_config_text(fpath, lpath, out_dir))
        code = main([
            "pipeline", "--config", str(cfg_path),
            "--set", "train.epochs=6", "--set", "selftrain.steps=100",
        ])
        assert code == 0
        block = read_machine_block(capsys.readouterr().out)
        assert "train.acc" in block
        assert "ensemble.acc" in block
        assert "selftrain.acc" in block
        assert block["selftrain_rounds"] == "1"
        assert (out_dir / "manifest.json").exists()

    def test_train_then_predict_cli(self, pipeline_run, tmp_path, capsys):
        t, _, _, out_dir, _ = pipeline_run
        pred_out = tmp_path / "pred.lbl"
        code = main([
            "predict",
            "--classifier", str(out_dir / "classifier.clf"),
            "--features", str(t / "feats.fpk"),
            "--out", str(pred_out),
        ])
        assert code == 0
        assert pred_out.exists()
        assert np.array_equal(
            load_labeling(pred_out).labels,
            load_labeling(out_dir / "selftrain_pred.lbl").labels,
        )

    def test_predict_text_output(self, pipeline_run, tmp_path, capsys):
        t, _, _, out_dir, _ = pipeline_run
        pred_out = tmp_path / "pred.txt"
        code = main([
            "predict",
            "--classifier", str(out_dir / "classifier.clf"),
            "--features", str(t / "feats.fpk"),
            "--out", str(pred_out),
        ])
        assert code == 0
        lines = pred_out.read_text().splitlines()
        assert all(line.strip().isdigit() for line in lines)
        assert np.array_equal(
            load_labeling(pred_out).labels,
            load_labeling(out_dir / "selftrain_pred.lbl").labels,
        )

    def test_nn_analysis_table(self, tmp_path, capsys):
        fpath, lpath = write_inputs(tmp_path, n=80, d=8, k=3)
        code = main([
            "nn-analysis", "--features", str(fpath), "--labels", str(lpath),
            "--set", "ablate.thresholds=0.2,0.5,0.9",
            "--set", "neighbors.k_min=3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        block = read_machine_block(out)
        counts = [float(block[f"avg_count.{t}"]) for t in ("0.2", "0.5", "0.9")]
        assert counts[0] >= counts[1] >= counts[2]

    def test_missing_file_exit_code_1(self, tmp_path, capsys):
        code = main([
            "train", "--features", str(tmp_path / "ghost.fpk"),
            "--out", str(tmp_path / "o"), "--set", "train.num_clusters=3",
        ])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exit_code_1(self, tmp_path, capsys):
        code = main(["gen-synth", "--set", "bogus.key=1"])
        assert code == 1

    def test_corrupt_input_exit_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.fpk"
        bad.write_bytes(b"FPK1" + b"\x01\x00\x00\x00\x02\x00\x00\x00\x02" + b"\x00" * 5)
        code = main([
            "train", "--features", str(bad),
            "--out", str(tmp_path / "o"), "--set", "train.num_clusters=3",
        ])
        assert code == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_usage_error_exit_code_1(self, capsys):
        assert main(["ablate"]) == 1  # --kind missing

    def test_report_has_machine_block(self, tmp_path, capsys):
        fpath, lpath = write_inputs(tmp_path, n=40, d=6, k=2)
        main(["eval", "--pred", str(lpath), "--gt", str(lpath)])
        out = capsys.readouterr().out
        assert "---" in out
        for key in ("acc", "nmi", "ari"):
            assert f"{key}=" in out.split("---")[-1]


class TestAblate:
    def test_threshold_sweep_monotone(self, tmp_path, capsys):
        fpath, lpath = write_inputs(tmp_path, n=60, d=8, k=3)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(small_config_text(fpath, lpath, tmp_path / "runs"))
        code = main([
            "ablate", "--kind", "threshold_sweep", "--config", str(cfg_path),
            "--set", "ablate.thresholds=0.2,0.6,1.0",
            "--set", "train.epochs=3",
        ])
        assert code == 0
        block = read_machine_block(capsys.readouterr().out)
        counts = [float(block[f"theta_{t:g}.avg_nn"]) for t in (0.2, 0.6, 1.0)]
        assert counts[0] >= counts[1] >= counts[2]
        assert (tmp_path / "runs" / "ablate_threshold_sweep.txt").exists()

    def test_head_count_sweep_reports_mean_std(self, tmp_path, capsys):
        fpath, lpath = write_inputs(tmp_path, n=60, d=8, k=3)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(small_config_text(fpath, lpath, tmp_path / "runs"))
        code = main([
            "ablate", "--kind", "head_count_sweep", "--config", str(cfg_path),
            "--set", "ablate.head_counts=10,50",
            "--set", "train.epochs=2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        block = read_machine_block(out)
        for h in (10, 50):
            assert f"H_{h}.best_acc" in block
            assert f"H_{h}.overall_acc_std" in block
            assert f"H_{h}.ensemble_acc" in block
        assert "±" in out

    def test_gt_neighbors_direction(self, tmp_path, capsys):
        # degraded adaptive neighbors admit wrong-label pairs; ground-truth
        # neighbor training must do at least as well
        fpath, lpath = write_inputs(tmp_path, n=90, d=8, k=3, seed=23)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(small_config_text(fpath, lpath, tmp_path / "runs"))
        code = main([
            "ablate", "--kind", "gt_neighbors", "--config", str(cfg_path),
            "--set", "neighbors.theta=-1.0",  # every sample, mostly wrong pairs
            "--set", "train.epochs=8",
        ])
        assert code == 0
        block = read_machine_block(capsys.readouterr().out)
        assert float(block["ground_truth.best_acc"]) >= float(block["adaptive.best_acc"])
        assert float(block["adaptive.nn_acc"]) < 0.7

    def test_labels_required(self, tmp_path):
        fpath, _ = write_inputs(tmp_path, n=40, d=6, k=2)
        cfg = PipelineConfig(
            resolve(
                {
                    "features": str(fpath),
                    "output_dir": str(tmp_path / "o"),
                    "train.num_clusters": "2",
                },
                [],
            )
        )
        from clusterens.pipeline import run_ablation

        with pytest.raises(ConfigError, match="labels"):
            run_ablation("threshold_sweep", cfg)

    def test_unknown_kind(self, tmp_path):
        from clusterens.pipeline import run_ablation

        fpath, lpath = write_inputs(tmp_path, n=40, d=6, k=2)
        cfg = PipelineConfig(
            resolve(
                {"features": str(fpath), "labels": str(lpath),
                 "output_dir": str(tmp_path / "o"), "train.num_clusters": "2"},
                [],
            )
        )
        with pytest.raises(ConfigError, match="unknown ablation"):
            run_ablation("bogus", cfg)
