import json
import re
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from clusterens import (
    Classifier,
    EmbeddingMatrix,
    Labeling,
    NormStats,
    SynthSpec,
    apply_standardizer,
    fit_standardizer,
    gen_synthetic,
    load_labeling,
    save_labeling,
)
from clusterens import featstore
from clusterens.cli import main
from clusterens.config import (
    SCHEMA,
    PipelineConfig,
    config_hash,
    load_pipeline_config,
    parse_kv_text,
    resolve,
)
from clusterens.errors import ConfigError, LoadError, StageError
from clusterens.featstore import save_features
from clusterens.heads import TrainConfig, load_head_bank
from clusterens.labeling import TEXT_CHUNK
from clusterens.metrics import evaluate
from clusterens.neighbors import NeighborSets, save_neighbor_sets
from clusterens.pipeline import (
    ensemble_inputs,
    ensemble_stage,
    read_machine_block,
    render_report,
    run_pipeline,
)
from clusterens.selftrain import save_classifier


def write_inputs(tmp_path, n=120, d=12, k=3, seed=17):
    m, labels = gen_synthetic(SynthSpec(n=n, d=d, k=k, separation=20.0, seed=seed))
    fpath = tmp_path / "feats.fpk"
    lpath = tmp_path / "labels.lbl"
    save_features(m, fpath)
    save_labeling(labels, lpath)
    return fpath, lpath


def short_neighbor_sets(n=50):
    """A valid ring of neighbor sets over ``n`` samples, fewer than the features hold."""
    return NeighborSets.from_lists([np.array([(i + 1) % n]) for i in range(n)])


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

    def test_schema_keys_and_defaults_pinned(self):
        assert {key: default for key, (_, default) in sorted(SCHEMA.items())} == {
            "ablate.head_counts": (10, 20, 30, 40, 50, 60, 70, 80),
            "ablate.thresholds": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
            "ensemble.k": None,
            "features": None,
            "labels": None,
            "neighbors.file": None,
            "neighbors.ground_truth": False,
            "neighbors.k_min": 50,
            "neighbors.standardized": False,
            "neighbors.theta": 0.3,
            "output_dir": None,
            "seed": 0,
            "selftrain.batch_size": 256,
            "selftrain.lr": 0.1,
            "selftrain.momentum": 0.9,
            "selftrain.steps": 12500,
            "selftrain.weight_decay": 0.0,
            "synth.d": None,
            "synth.k": None,
            "synth.n": None,
            "synth.seed": None,
            "synth.separation": 20.0,
            "threads": 1,
            "train.batch_size": 256,
            "train.beta": 0.6,
            "train.epochs": 400,
            "train.lambda_max": 0.5,
            "train.lr": 1.25e-06,
            "train.num_clusters": None,
            "train.num_heads": 50,
            "train.sk_iters": 3,
            "train.smoothing_m": 1,
            "train.tau_student": 0.1,
            "train.tau_teacher": 0.1,
            "train.teacher_momentum": 0.996,
            "train.warmup_epochs": 100,
            "train.weight_decay": 0.0001,
        }
        resolved = resolve({}, [])
        for key in ("train.num_heads", "train.epochs", "selftrain.steps"):
            assert type(resolved[key]) is int
        for key in ("train.lr", "train.beta", "selftrain.weight_decay"):
            assert type(resolved[key]) is float

    def test_hash_pinned(self):
        assert config_hash(resolve({}, [])) == (
            "0c282b24822c82d13ab37d11d02a967ba428b86fab53f8a4e31a58c2eadcce47"
        )
        overrides = {"train.num_clusters": "5", "seed": "7", "train.lr": "1e-3",
                     "selftrain.steps": "300"}
        assert config_hash(resolve(overrides, [])) == (
            "7f1cf6d038f17d791153ba47974399e09a65238a24745a01076a2202b3bbf392"
        )

    def test_stage_configs_take_shared_seed(self):
        cfg = PipelineConfig(resolve({"seed": "7", "train.num_clusters": "5"}, []))
        assert cfg.train_config() == TrainConfig(num_clusters=5, seed=7)
        assert cfg.selftrain_config().seed == 7
        with pytest.raises(ConfigError, match="invalid train config"):
            PipelineConfig(resolve({"train.num_clusters": "1"}, [])).train_config()
        with pytest.raises(ConfigError, match="invalid selftrain config"):
            PipelineConfig(resolve({"selftrain.momentum": "1.0"}, [])).selftrain_config()


class TestPipeline:
    def test_manifest_structure(self, pipeline_run):
        _, _, cfg, out_dir, manifest = pipeline_run
        assert [s.name for s in manifest.stages] == ["train", "ensemble", "selftrain"]
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

    def test_selftrain_report_explains_the_stop(self, pipeline_run):
        _, _, cfg, out_dir, _ = pipeline_run
        block = read_machine_block((out_dir / "selftrain_report.txt").read_text())
        steps, cap = int(block["steps"]), int(block["steps_cap"])
        by_epoch = [float(v) for v in block["pseudo_agreement_by_epoch"].split(",")]
        assert cap == cfg.selftrain_config().steps
        # the blobs are separable, so the probe fits the consensus early
        assert block["stopped_early"] == "true"
        assert 0 < steps < cap
        assert len(by_epoch) == int(block["epochs_run"]) + 1
        assert by_epoch[-1] == float(block["pseudo_agreement"]) == 1.0

    def test_selftrain_report_when_the_cap_runs_out(self, pipeline_run, tmp_path):
        t, _, _, out_dir, _ = pipeline_run
        # zero starting weights put every sample in one class, so the fit check
        # before the first step fails, and a one-step cap ends before the next
        code = main([
            "selftrain",
            "--features", str(t / "feats.fpk"),
            "--labels", str(t / "labels.lbl"),
            "--pseudo-labels", str(out_dir / "consensus.lbl"),
            "--out", str(tmp_path / "st"),
            "--set", "selftrain.steps=1",
        ])
        assert code == 0
        text = (tmp_path / "st" / "selftrain_report.txt").read_text()
        block = read_machine_block(text)
        assert block["stopped_early"] == "false"
        assert int(block["steps"]) == int(block["steps_cap"]) == 1
        assert "steps: 1 of a 1-step cap, ran the whole cap" in text

    def test_checkpoint_config_echo_keeps_types(self, pipeline_run):
        _, _, cfg, out_dir, _ = pipeline_run
        echo = load_head_bank(out_dir / "checkpoint.hdb").config
        assert echo == cfg.train_config()
        for name in ("num_clusters", "num_heads", "sk_iters", "epochs", "warmup_epochs",
                     "batch_size", "smoothing_m", "seed"):
            assert type(getattr(echo, name)) is int
        for name in ("tau_student", "lr", "weight_decay", "teacher_momentum"):
            assert type(getattr(echo, name)) is float

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
            d = asdict(m)
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

    def test_selftrain_failure_keeps_manifest_of_earlier_stages(self, tmp_path, monkeypatch):
        from clusterens import pipeline, selftrain
        from clusterens.errors import TrainingError

        def fail(*args, **kwargs):
            raise TrainingError("non-finite self-train loss at step 0", step=0)

        monkeypatch.setattr(selftrain, "self_train", fail)
        fpath, lpath = write_inputs(tmp_path, n=40, d=6, k=2)
        out_dir = tmp_path / "broken"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(small_config_text(fpath, lpath, out_dir, k=2))
        with pytest.raises(StageError, match="selftrain") as info:
            run_pipeline(load_pipeline_config(cfg_path))
        assert info.value.stage == "selftrain"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert [s["name"] for s in manifest["stages"]] == ["train", "ensemble"]
        for stage in manifest["stages"]:
            assert stage["outputs"]
            for item in stage["outputs"]:
                assert item["sha256"] == pipeline.sha256_file(item["path"])
        ensemble_paths = [Path(o["path"]).name for o in manifest["stages"][1]["outputs"]]
        assert ensemble_paths == ["consensus.lbl", "anmi_table.txt"]

    def test_stage_isolation_ensemble_rerun(self, pipeline_run, tmp_path):
        _, _, cfg, out_dir, _ = pipeline_run
        t = out_dir.parent
        before = {name: (out_dir / name).read_bytes()
                  for name in ("consensus.lbl", "anmi_table.txt")}
        code = main(["ensemble", "--run-dir", str(out_dir), "--k", "3",
                     "--labels", str(t / "labels.lbl")])
        assert code == 0
        for name, data in before.items():
            assert (out_dir / name).read_bytes() == data, name

    def test_ensemble_reads_the_heads_the_train_report_names(self, pipeline_run, tmp_path,
                                                             capsys):
        _, cfg_path, _, out_dir, _ = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(out_dir, run)
        # retraining with fewer heads leaves head_002 and head_003 behind
        assert main(["train", "--config", str(cfg_path), "--out", str(run),
                     "--set", "train.num_heads=2"]) == 0
        assert (run / "labelings" / "head_003.lbl").exists()
        capsys.readouterr()
        assert main(["ensemble", "--run-dir", str(run), "--k", "3"]) == 0
        assert read_machine_block(capsys.readouterr().out)["num_inputs"] == "2"
        block = read_machine_block((run / "train_report.txt").read_text())
        inputs = [load_labeling(run / "labelings" / f"head_{h:03d}.lbl") for h in range(2)]
        ensemble_stage(tmp_path / "ref", inputs, 3, int(block["best_head"]), None)
        want = (tmp_path / "ref" / "consensus.lbl").read_bytes()
        assert (run / "consensus.lbl").read_bytes() == want

        (run / "labelings" / "head_001.lbl").unlink()
        assert main(["ensemble", "--run-dir", str(run), "--k", "3"]) == 1
        assert "head labeling not found" in capsys.readouterr().err

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
        head_files = sorted(p.name for p in (out_dir / "labelings").glob("head_*.lbl"))
        assert len(head_files) == 4
        assert sorted(p.name for p in (redo / "labelings").glob("head_*.lbl")) == head_files
        for name in head_files:
            assert (redo / "labelings" / name).read_bytes() == (
                out_dir / "labelings" / name
            ).read_bytes(), name

    def test_stage_isolation_selftrain_rerun(self, pipeline_run, tmp_path):
        t, _, cfg, out_dir, _ = pipeline_run
        names = ("classifier.clf", "selftrain_pred.lbl", "selftrain_report.txt")
        before = {name: (out_dir / name).read_bytes() for name in names}
        code = main([
            "selftrain",
            "--features", str(t / "feats.fpk"),
            "--labels", str(t / "labels.lbl"),
            "--pseudo-labels", str(out_dir / "consensus.lbl"),
            "--out", str(out_dir),
            "--set", "selftrain.steps=300",
            "--set", "selftrain.batch_size=32",
            "--set", "seed=9",
        ])
        assert code == 0
        for name, data in before.items():
            assert (out_dir / name).read_bytes() == data, name

    def test_stage_commands_check_label_counts_first(self, pipeline_run, tmp_path, capsys):
        t, cfg_path, _, out_dir, _ = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(out_dir, run)
        short = tmp_path / "short.lbl"
        save_labeling(Labeling(np.arange(50) % 3 + 1), short)
        short_nns = tmp_path / "short.nns"
        save_neighbor_sets(short_neighbor_sets(), short_nns)
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        feats = str(t / "feats.fpk")
        commands = [
            ["ensemble", "--run-dir", str(run), "--k", "3", "--labels", str(short)],
            ["selftrain", "--features", feats, "--labels", str(short),
             "--pseudo-labels", str(run / "consensus.lbl"), "--out", str(run)],
            ["selftrain", "--features", feats, "--pseudo-labels", str(short),
             "--out", str(run)],
            ["train", "--config", str(cfg_path), "--neighbors", str(short_nns),
             "--out", str(run)],
            ["nn-analysis", "--features", feats, "--labels", str(short)],
            ["eval", "--pred", str(run / "consensus.lbl"), "--gt", str(short)],
        ]
        for argv in commands:
            assert main(argv) == 1, argv
            assert "cover 50 samples but" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    def test_stage_commands_check_that_inputs_fit_first(self, pipeline_run, tmp_path, capsys):
        t, cfg_path, _, out_dir, _ = pipeline_run
        run, uneven = tmp_path / "run", tmp_path / "uneven"
        shutil.copytree(out_dir, run)
        shutil.copytree(out_dir, uneven)
        save_labeling(Labeling(np.arange(50) % 3 + 1), uneven / "labelings" / "head_001.lbl")
        narrow = tmp_path / "narrow.clf"
        d = 5  # the features hold d = 12
        save_classifier(Classifier(np.zeros((2, d)), np.zeros(2),
                                   NormStats(np.zeros(d), np.ones(d)),
                                   np.array([1, 2])), narrow)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        feats = str(t / "feats.fpk")
        cases = [
            (["ensemble", "--run-dir", str(uneven), "--k", "3"],
             "labels of head 1 cover 50 samples but those of head 0 hold 120"),
            (["predict", "--features", feats, "--classifier", str(narrow),
              "--out", str(run / "pred.lbl")],
             "the classifier takes d=5 but features hold d=12"),
            (["ensemble", "--run-dir", str(run), "--k", "121"],
             "ensemble.k=121 exceeds the sample count n=120"),
            (["ablate", "--kind", "head_count_sweep", "--config", str(cfg_path),
              "--set", f"output_dir={run}", "--set", "ensemble.k=121",
              "--set", "ablate.head_counts=2"],
             "ensemble.k=121 exceeds the sample count n=120"),
        ]
        for argv, message in cases:
            assert main(argv) == 1, argv
            assert message in capsys.readouterr().err, argv
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("pattern, replacement", [
        (r"\n---\n(.|\n)*", "\n"),  # no machine block
        (r"^num_heads=.*\n", ""),
        (r"^num_heads=.*$", "num_heads=x"),
        (r"^num_heads=.*$", "num_heads=0"),
        (r"^best_head=.*$", "best_head=9"),
        (r"^best_head=.*$", "best_head=-1"),
    ], ids=["no_block", "no_num_heads", "num_heads_x", "num_heads_0", "best_head_9",
            "best_head_-1"])
    def test_ensemble_refuses_a_malformed_train_report(self, pipeline_run, tmp_path, capsys,
                                                       pattern, replacement):
        _, _, _, out_dir, _ = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(out_dir, run)
        (run / "consensus.lbl").unlink()
        report = run / "train_report.txt"
        text = report.read_text()
        edited = re.sub(pattern, replacement, text, count=1, flags=re.M)
        assert edited != text
        report.write_text(edited)
        assert main(["ensemble", "--run-dir", str(run), "--k", "3"]) == 2
        assert str(report) in capsys.readouterr().err
        assert not (run / "consensus.lbl").exists()

    def test_pipeline_refuses_ensemble_k_above_n_before_mining(self, pipeline_run, tmp_path,
                                                              capsys):
        _, cfg_path, _, _, _ = pipeline_run
        run = tmp_path / "run"
        code = main(["pipeline", "--config", str(cfg_path), "--set", f"output_dir={run}",
                     "--set", "ensemble.k=121"])
        assert code == 1
        assert "ensemble.k=121 exceeds the sample count n=120" in capsys.readouterr().err
        assert not (run / "neighbors.nns").exists()

    def test_train_refuses_num_clusters_above_n_before_mining(self, pipeline_run, tmp_path,
                                                              capsys):
        _, cfg_path, _, _, _ = pipeline_run
        run = tmp_path / "run"
        code = main(["train", "--config", str(cfg_path), "--out", str(run),
                     "--set", "train.num_clusters=200"])
        assert code == 1
        assert "train.num_clusters=200 exceeds the sample count n=120" in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [key for key, (parser, _) in SCHEMA.items()
                                     if key.startswith(("train.", "selftrain.")) and parser is float])
    def test_pipeline_refuses_non_finite_stage_floats_before_mining(self, pipeline_run,
                                                                    tmp_path, capsys, key, value):
        _, cfg_path, _, _, _ = pipeline_run
        run = tmp_path / "run"
        code = main(["pipeline", "--config", str(cfg_path), "--set", f"output_dir={run}",
                     "--set", f"{key}={value}"])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("command", ["pipeline", "train"])
    @pytest.mark.parametrize("key, value", [
        ("neighbors.k_min", "0"), ("seed", "-1"), ("synth.seed", "-1"),
        ("neighbors.theta", "nan"), ("neighbors.theta", "inf"), ("threads", "0"), ("threads", "-5"),
    ])
    def test_bad_mining_and_seed_values_refused_before_any_file(self, pipeline_run, tmp_path,
                                                                capsys, command, key, value):
        _, cfg_path, _, _, _ = pipeline_run
        run = tmp_path / "run"
        where = ["--out", str(run)] if command == "train" else ["--set", f"output_dir={run}"]
        code = main([command, "--config", str(cfg_path), *where, "--set", f"{key}={value}"])
        assert code == 1
        assert f"bad value for {key}" in capsys.readouterr().err
        assert not run.exists()

    def test_pipeline_fails_train_stage_on_short_neighbor_file(self, pipeline_run, tmp_path,
                                                               capsys):
        _, cfg_path, _, _, _ = pipeline_run
        short_nns = tmp_path / "short.nns"
        save_neighbor_sets(short_neighbor_sets(), short_nns)
        run = tmp_path / "run"
        code = main(["pipeline", "--config", str(cfg_path), "--set", f"output_dir={run}",
                     "--set", f"neighbors.file={short_nns}"])
        assert code == 2
        assert "neighbor sets cover 50 samples but features hold 120" in capsys.readouterr().err
        assert not (run / "neighbors.nns").exists()


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
        assert "selftrain_rounds" not in block
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert "selftrain" in [s["name"] for s in manifest["stages"]]

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

    @pytest.mark.parametrize("standardized", ["false", "true"])
    def test_pipeline_fits_the_standardizer_once(self, tmp_path, capsys, monkeypatch,
                                                 standardized):
        # mining standardized rows, head training and self-training read one
        # fit; every module of the package that names the function counts
        fits, fit = [], featstore.fit_standardizer
        for name, module in list(sys.modules.items()):
            if name.startswith("clusterens") and getattr(module, "fit_standardizer", None) is fit:
                monkeypatch.setattr(module, "fit_standardizer",
                                    lambda m: fits.append(m) or fit(m))
        fpath, lpath = write_inputs(tmp_path, n=60, d=8, k=3)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(small_config_text(fpath, lpath, tmp_path / "run"))
        code = main([
            "pipeline", "--config", str(cfg_path), "--set", "train.epochs=2",
            "--set", "selftrain.steps=50", "--set", f"neighbors.standardized={standardized}",
        ])
        assert code == 0
        assert len(fits) == 1

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

    @pytest.mark.parametrize("argv", [
        ["nn-analysis"],
        ["ablate", "--kind", "threshold_sweep", "--set", "train.epochs=1"],
    ], ids=["nn-analysis", "threshold_sweep"])
    def test_threshold_sweeps_mine_standardized_rows(self, tmp_path, capsys, argv):
        m, labels = gen_synthetic(SynthSpec(n=120, d=8, k=3, separation=20.0, seed=5))
        data = m.data.copy()
        data[:, 0] *= 50.0  # one axis dominates the raw cosine
        raw = EmbeddingMatrix(data)
        std = apply_standardizer(raw, fit_standardizer(raw))
        paths = {name: tmp_path / f"{name}.fpk" for name in ("raw", "std")}
        save_features(raw, paths["raw"])
        save_features(std, paths["std"])
        lpath = tmp_path / "labels.lbl"
        save_labeling(labels, lpath)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(small_config_text(paths["raw"], lpath, tmp_path / "runs"))

        def neighbor_columns(features, standardized):
            code = main([*argv, "--config", str(cfg_path), "--set", f"features={features}",
                         "--set", f"neighbors.standardized={standardized}",
                         "--set", "ablate.thresholds=0.2,0.5,0.8"])
            assert code == 0
            block = read_machine_block(capsys.readouterr().out)
            # the neighbor columns: nn-analysis's avg_count.* and pair_accuracy.*,
            # the sweep's theta_*.avg_nn and theta_*.nn_acc
            return {k: v for k, v in block.items()
                    if k.startswith(("avg_count.", "pair_accuracy."))
                    or k.endswith((".avg_nn", ".nn_acc"))}

        mined = neighbor_columns(paths["raw"], "true")
        assert mined
        assert mined == neighbor_columns(paths["std"], "false")
        assert mined != neighbor_columns(paths["raw"], "false")

    def test_missing_file_exit_code_1(self, tmp_path, capsys):
        code = main([
            "train", "--features", str(tmp_path / "ghost.fpk"),
            "--out", str(tmp_path / "o"), "--set", "train.num_clusters=3",
        ])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_features_format_is_an_unknown_key(self, tmp_path, capsys):
        # the file's first bytes name its format
        fpath, _ = write_inputs(tmp_path, n=40, d=6, k=2)
        code = main(["train", "--features", str(fpath), "--out", str(tmp_path / "o"),
                     "--set", "train.num_clusters=2", "--set", "features_format=csv"])
        assert code == 1
        assert "unknown config key 'features_format'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fmt, ext", [("featpack", "fpk"), ("npy", "npy"), ("csv", "csv")])
    def test_train_reads_the_format_whatever_the_name(self, tmp_path, fmt, ext):
        m, _ = gen_synthetic(SynthSpec(n=40, d=6, k=2, separation=20.0, seed=17))
        mined = {}
        for name in (f"f.{ext}", "f.dat", "f.bin", "f.txt"):
            save_features(m, tmp_path / name, fmt)
            out = tmp_path / f"run_{name}"
            assert main(["train", "--features", str(tmp_path / name), "--out", str(out),
                         "--set", "neighbors.k_min=3", "--set", "train.num_clusters=2",
                         "--set", "train.num_heads=1", "--set", "train.epochs=0"]) == 0
            mined[name] = (out / "neighbors.nns").read_bytes()
        assert len(set(mined.values())) == 1

    def test_random_bytes_features_exit_code_2(self, tmp_path, capsys):
        noise = tmp_path / "noise.fpk"
        noise.write_bytes(np.random.default_rng(3).bytes(4096))
        code = main(["train", "--features", str(noise), "--out", str(tmp_path / "o"),
                     "--set", "train.num_clusters=3"])
        assert code == 2
        assert "runtime failure" in capsys.readouterr().err
        assert not (tmp_path / "o" / "neighbors.nns").exists()

    def test_newline_free_features_exit_code_2(self, tmp_path, capsys):
        line = tmp_path / "line.csv"
        line.write_bytes(b"1" * (16 << 20))
        code = main(["train", "--features", str(line), "--out", str(tmp_path / "o"),
                     "--set", "train.num_clusters=3"])
        assert code == 2
        assert "more than" in capsys.readouterr().err
        assert not (tmp_path / "o" / "neighbors.nns").exists()

    def test_binary_config_exit_code_1(self, tmp_path, capsys):
        cfg = tmp_path / "bin.cfg"
        cfg.write_bytes(bytes(range(256)) * 16)
        code = main(["pipeline", "--config", str(cfg), "--set", f"output_dir={tmp_path / 'o'}"])
        assert code == 1
        assert f"config error: {cfg}: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_one_line_config_exit_code_1_in_a_short_message(self, tmp_path, capsys):
        cfg = tmp_path / "line.cfg"
        cfg.write_bytes(b"seed = 1\n" + b"x" * (1 << 20))
        code = main(["pipeline", "--config", str(cfg), "--set", f"output_dir={tmp_path / 'o'}"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2: line of more than {TEXT_CHUNK} characters" in err
        assert len(err) < 1024
        assert not (tmp_path / "o").exists()

    def test_overlong_train_report_line_exit_code_2(self, tmp_path, capsys):
        report = render_report(["x" * (TEXT_CHUNK + 1)], {"num_heads": 1, "best_head": 0})
        (tmp_path / "train_report.txt").write_text(report)
        code = main(["ensemble", "--run-dir", str(tmp_path), "--k", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "not a train report" in err and f"train_report.txt:1: line of more than" in err
        assert len(err) < 1024
        with pytest.raises(LoadError, match="line of more than"):
            ensemble_inputs(PipelineConfig(resolve({"output_dir": str(tmp_path)}, [])))

    def test_unknown_key_exit_code_1(self, tmp_path, capsys):
        code = main(["gen-synth", "--set", "bogus.key=1"])
        assert code == 1

    @pytest.mark.parametrize("flag", ["--config", "--set"])
    def test_eval_rejects_a_bad_config(self, tmp_path, capsys, flag):
        # eval reads no config key, but resolves its config like every command
        _, lpath = write_inputs(tmp_path, n=40, d=6, k=2)
        value = {"--config": str(tmp_path / "missing.cfg"), "--set": "no.such.key=1"}[flag]
        code = main(["eval", flag, value, "--pred", str(lpath), "--gt", str(lpath)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

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

    def test_head_count_sweep_scores_its_sets_once(self, tmp_path, capsys, monkeypatch):
        from clusterens import neighbors

        calls, accuracy = [], neighbors.neighbor_accuracy
        monkeypatch.setattr(neighbors, "neighbor_accuracy",
                            lambda sets, labels: calls.append(sets) or accuracy(sets, labels))
        fpath, lpath = write_inputs(tmp_path, n=60, d=8, k=3)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(small_config_text(fpath, lpath, tmp_path / "runs"))
        code = main(["ablate", "--kind", "head_count_sweep", "--config", str(cfg_path),
                     "--set", "ablate.head_counts=2,3", "--set", "train.epochs=1"])
        assert code == 0
        block = read_machine_block(capsys.readouterr().out)
        assert len(calls) == 1
        assert block["H_2.nn_acc"] == block["H_3.nn_acc"]

    def test_kind_choices_are_the_pipeline_kinds(self):
        import argparse

        from clusterens.cli import _build_parser
        from clusterens.pipeline import ABLATIONS

        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        kind = next(a for a in sub.choices["ablate"]._actions if a.dest == "kind")
        assert tuple(kind.choices) == ABLATIONS

    def test_gt_neighbors_builds_the_truth_after_the_adaptive_variant_trains(
            self, tmp_path, capsys, monkeypatch):
        from clusterens import heads, neighbors

        events, train, truth = [], heads.train_heads, neighbors.ground_truth_neighbors

        def spy_train(*args):
            out = train(*args)
            events.append("trained")
            return out

        monkeypatch.setattr(heads, "train_heads", spy_train)
        monkeypatch.setattr(neighbors, "ground_truth_neighbors",
                            lambda labels: events.append("truth") or truth(labels))
        fpath, lpath = write_inputs(tmp_path, n=60, d=8, k=3)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(small_config_text(fpath, lpath, tmp_path / "runs"))
        code = main(["ablate", "--kind", "gt_neighbors", "--config", str(cfg_path),
                     "--set", "train.epochs=1"])
        assert code == 0
        assert events == ["trained", "truth", "trained"]

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


def never_mine(*args, **kwargs):
    raise AssertionError("neighbor mining ran before the configuration was checked")


class TestRefusedBeforeWork:
    """Values a command cannot use exit 1 before any work and write no file."""

    @pytest.mark.parametrize("counts", ["0", "2,0", "-3"])
    def test_ablate_refuses_head_counts_below_1(self, tmp_path, capsys, monkeypatch, counts):
        from clusterens import neighbors

        monkeypatch.setattr(neighbors, "build_neighbor_sets", never_mine)
        fpath, lpath = write_inputs(tmp_path, n=40, d=6, k=2)
        out = tmp_path / "o"
        code = main(["ablate", "--kind", "head_count_sweep", "--set", f"features={fpath}",
                     "--set", f"labels={lpath}", "--set", f"output_dir={out}",
                     "--set", "train.num_clusters=2", "--set", f"ablate.head_counts={counts}"])
        assert code == 1
        assert "bad value for ablate.head_counts" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("separation", ["inf", "1e308"])
    def test_gen_synth_refuses_a_non_finite_blob_radius(self, tmp_path, capsys, separation):
        fpath, lpath = tmp_path / "f.fpk", tmp_path / "l.lbl"
        code = main(["gen-synth", "--n", "30", "--d", "8", "--k", "3", "--separation",
                     separation, "--features", str(fpath), "--labels", str(lpath)])
        assert code == 1
        assert "blob radius" in capsys.readouterr().err
        assert not fpath.exists() and not lpath.exists()

    def test_synth_spec_takes_a_large_finite_radius(self):
        spec = SynthSpec(n=4, d=2, k=2, separation=1e300)
        assert spec.radius == 1e300
        features, _ = gen_synthetic(spec)
        assert np.isfinite(features.data).all()

    def test_train_checks_its_train_config_before_mining(self, tmp_path, capsys, monkeypatch):
        from clusterens import neighbors

        monkeypatch.setattr(neighbors, "build_neighbor_sets", never_mine)
        fpath, _ = write_inputs(tmp_path, n=40, d=6, k=2)
        out = tmp_path / "run"
        code = main(["train", "--features", str(fpath), "--out", str(out),
                     "--set", "train.num_clusters=2", "--set", "train.tau_student=nan"])
        assert code == 1
        assert "invalid train config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad_id", [-1, 5000000000])
    def test_selftrain_refuses_pseudo_labels_beyond_u32(self, tmp_path, capsys, bad_id):
        fpath, _ = write_inputs(tmp_path, n=40, d=6, k=2)
        pseudo = tmp_path / "pseudo.txt"
        pseudo.write_text("".join(f"{i}\n" for i in [1, bad_id] * 20))
        out = tmp_path / "out"
        code = main(["selftrain", "--features", str(fpath), "--pseudo-labels", str(pseudo),
                     "--out", str(out)])
        assert code == 1
        assert "pseudo-labels: binary labeling ids must fit" in capsys.readouterr().err
        assert not out.exists()

    def test_train_refuses_an_empty_set_in_a_neighbor_file(self, tmp_path, capsys):
        fpath, _ = write_inputs(tmp_path, n=40, d=6, k=2)
        nns = tmp_path / "holed.nns"
        save_neighbor_sets(NeighborSets.from_lists(
            [[] if i == 3 else [(i + 1) % 40] for i in range(40)]), nns)
        run = tmp_path / "run"
        code = main(["train", "--features", str(fpath), "--neighbors", str(nns),
                     "--out", str(run), "--set", "train.num_clusters=2"])
        assert code == 1
        assert "neighbor sets leave sample 3 without a neighbor" in capsys.readouterr().err
        assert not run.exists()

    def test_pipeline_fails_train_stage_on_an_empty_set_before_writing_it(self, pipeline_run,
                                                                          tmp_path, capsys):
        _, cfg_path, _, _, _ = pipeline_run
        nns = tmp_path / "holed.nns"
        save_neighbor_sets(NeighborSets.from_lists(
            [[] if i == 7 else [(i + 1) % 120] for i in range(120)]), nns)
        run = tmp_path / "run"
        code = main(["pipeline", "--config", str(cfg_path), "--set", f"output_dir={run}",
                     "--set", f"neighbors.file={nns}"])
        assert code == 2
        assert "neighbor sets leave sample 7 without a neighbor" in capsys.readouterr().err
        assert not (run / "neighbors.nns").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--set", "neighbors.ground_truth=true"],
        ["pipeline", "--set", "neighbors.ground_truth=true"],
        ["ablate", "--kind", "head_count_sweep", "--set", "neighbors.ground_truth=true"],
        ["ablate", "--kind", "gt_neighbors"],
    ], ids=["train", "pipeline", "ablate", "gt_neighbors"])
    def test_ground_truth_sets_refuse_a_one_sample_class(self, tmp_path, capsys, argv):
        cfg_path, run = one_sample_class_config(tmp_path)
        code = main([*argv, "--config", str(cfg_path)])
        assert code == 1
        assert ("ground-truth neighbor sets leave sample 5 without a neighbor"
                in capsys.readouterr().err)
        assert not run.exists()


def one_sample_class_config(tmp_path):
    """A config over 40 samples whose labels hold sample 5 alone in its
    class, and its output directory."""
    m, labels = gen_synthetic(SynthSpec(n=40, d=6, k=2, separation=20.0, seed=17))
    fpath, lpath = tmp_path / "feats.fpk", tmp_path / "labels.lbl"
    save_features(m, fpath)
    ids = labels.labels.copy()
    ids[5] = 9
    save_labeling(Labeling(ids), lpath)
    run, cfg_path = tmp_path / "run", tmp_path / "c.cfg"
    cfg_path.write_text(small_config_text(fpath, lpath, run, k=2))
    return cfg_path, run


class TestNeighborSourceKeys:
    """A neighbor-source key is checked only where the command reads it."""

    def test_neighbor_file_wins_over_ground_truth_without_labels(self, tmp_path):
        fpath, _ = write_inputs(tmp_path, n=40, d=6, k=2)
        nns = tmp_path / "ring.nns"
        save_neighbor_sets(short_neighbor_sets(40), nns)
        run = tmp_path / "run"
        code = main(["train", "--features", str(fpath), "--neighbors", str(nns),
                     "--out", str(run), "--set", "neighbors.ground_truth=true",
                     "--set", "train.num_clusters=2", "--set", "train.num_heads=2",
                     "--set", "train.epochs=1", "--set", "train.batch_size=16"])
        assert code == 0
        assert (run / "neighbors.nns").read_bytes() == nns.read_bytes()

    def test_threshold_sweep_reads_neither_key(self, tmp_path):
        # ground-truth sets would leave sample 5 empty, and the file is missing
        cfg_path, run = one_sample_class_config(tmp_path)
        code = main(["ablate", "--kind", "threshold_sweep", "--config", str(cfg_path),
                     "--set", "neighbors.ground_truth=true",
                     "--set", f"neighbors.file={tmp_path / 'missing.nns'}",
                     "--set", "ablate.thresholds=0.5", "--set", "train.epochs=1"])
        assert code == 0
        assert (run / "ablate_threshold_sweep.txt").exists()


# A value out of range for every SCHEMA key that has a range, and the commands
# that read the key: its own command and, where it reads the key, pipeline.
TRAIN, SELFTRAIN, GEN_SYNTH = ("train", "pipeline"), ("selftrain", "pipeline"), ("gen-synth",)
OUT_OF_RANGE = {
    "seed": ("-1", TRAIN),
    "threads": ("0", TRAIN),
    "synth.n": ("0", GEN_SYNTH),
    "synth.d": ("0", GEN_SYNTH),
    "synth.k": ("0", GEN_SYNTH),
    "synth.separation": ("0", GEN_SYNTH),
    "synth.seed": ("-1", GEN_SYNTH),
    "neighbors.theta": ("nan", TRAIN),
    "neighbors.k_min": ("0", TRAIN),
    "train.num_clusters": ("1", TRAIN),
    "train.num_heads": ("0", TRAIN),
    "train.tau_student": ("0", TRAIN),
    "train.tau_teacher": ("-1", TRAIN),
    "train.beta": ("1.5", TRAIN),
    "train.lambda_max": ("-0.5", TRAIN),
    "train.teacher_momentum": ("1.5", TRAIN),
    "train.sk_iters": ("-1", TRAIN),
    "train.epochs": ("-1", TRAIN),
    "train.warmup_epochs": ("-1", TRAIN),
    "train.batch_size": ("0", TRAIN),
    "train.lr": ("-1", TRAIN),
    "train.weight_decay": ("inf", TRAIN),
    "train.smoothing_m": ("0", TRAIN),
    "ensemble.k": ("1", ("ensemble", "pipeline")),
    "selftrain.steps": ("-1", SELFTRAIN),
    "selftrain.lr": ("-1", SELFTRAIN),
    "selftrain.momentum": ("1", SELFTRAIN),
    "selftrain.weight_decay": ("nan", SELFTRAIN),
    "selftrain.batch_size": ("0", SELFTRAIN),
    "ablate.head_counts": ("0", ("ablate",)),
    "ablate.thresholds": ("nan,0.3", ("nn-analysis", "ablate")),
}
# a sweep over no value is refused too
EMPTY_LISTS = {"ablate.head_counts": ("ablate",), "ablate.thresholds": ("nn-analysis", "ablate")}
# every value of the key's type is accepted
NO_RANGE = ("features", "labels", "output_dir", "neighbors.file", "neighbors.ground_truth",
            "neighbors.standardized")


def files_under(root: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in root.rglob("*")}


class TestEveryRangeIsChecked:
    """An out-of-range value of any key exits 1 and writes no file."""

    @pytest.mark.parametrize("key, value, command", [
        *((key, value, command)
          for key, (value, commands) in OUT_OF_RANGE.items() for command in commands),
        *((key, "", command) for key, commands in EMPTY_LISTS.items() for command in commands),
    ])
    def test_out_of_range_value_refused_before_any_file(self, pipeline_run, tmp_path, capsys,
                                                        key, value, command):
        _, cfg_path, _, run_dir, _ = pipeline_run
        if command == "gen-synth":
            argv = ["gen-synth", "--set", "synth.n=30", "--set", "synth.d=4", "--set",
                    "synth.k=3", "--set", f"features={tmp_path / 'f.fpk'}",
                    "--set", f"labels={tmp_path / 'l.lbl'}"]
        else:
            argv = [command, "--config", str(cfg_path), "--set", f"output_dir={tmp_path / 'run'}"]
        if command == "ensemble":
            shutil.copytree(run_dir, tmp_path / "run")
        elif command == "selftrain":
            argv += ["--pseudo-labels", str(run_dir / "consensus.lbl")]
        elif command == "ablate":
            kind = "threshold_sweep" if key == "ablate.thresholds" else "head_count_sweep"
            argv += ["--kind", kind]
        before = files_under(tmp_path)
        code = main([*argv, "--set", f"{key}={value}"])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert files_under(tmp_path) == before

    def test_every_key_with_a_range_has_a_row(self):
        assert not set(NO_RANGE) & set(OUT_OF_RANGE)
        assert sorted(set(SCHEMA) - set(NO_RANGE)) == sorted(OUT_OF_RANGE)
