"""Three-stage pipeline orchestration, run manifests and ablation harnesses.

Stages write their artifacts to the run directory as they finish, so a
failed run keeps everything produced so far and any stage can be re-run
from its predecessor's files.  Reports are plain text ending in a
machine-readable ``key=value`` block separated by a ``---`` line.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import ensemble as ens
from . import heads, neighbors, selftrain
from .config import PipelineConfig
from .errors import ConfigError, StageError
from .featstore import (
    EmbeddingMatrix,
    apply_standardizer,
    detect_format,
    fit_standardizer,
    gen_synthetic,
    load_features,
    save_features,
)
from .labeling import Labeling, load_labeling, save_labeling
from .metrics import MetricsReport, evaluate

MACHINE_SEPARATOR = "---"


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _float_list(values) -> str:
    """Comma-separated full-precision floats for one machine-block value."""
    return ",".join(repr(float(v)) for v in values)


def render_report(human_lines, machine: dict) -> str:
    lines = list(human_lines)
    lines.append("")
    lines.append(MACHINE_SEPARATOR)
    lines.extend(f"{k}={format_value(v)}" for k, v in machine.items())
    return "\n".join(lines) + "\n"


def read_machine_block(text: str) -> dict:
    """Parse the key=value block after the last ``---`` separator line."""
    lines = text.splitlines()
    try:
        start = len(lines) - 1 - lines[::-1].index(MACHINE_SEPARATOR)
    except ValueError:
        raise ValueError("report has no machine-readable block") from None
    block = {}
    for line in lines[start + 1 :]:
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        block[key] = value
    return block


def pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


def metrics_human_lines(report: MetricsReport) -> list:
    lines = [
        f"  ACC: {pct(report.acc)}%",
        f"  NMI: {pct(report.nmi)}%",
        f"  ARI: {pct(report.ari)}%",
    ]
    if report.matching:
        pairs = ", ".join(f"{p}->{g}" for p, g in sorted(report.matching.items()))
        lines.append(f"  matching: {pairs}")
    return lines


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


@dataclass
class StageRecord:
    name: str
    outputs: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    metrics: dict | None = None

    def add_output(self, path) -> None:
        self.outputs.append({"path": str(path), "sha256": sha256_file(path)})


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    stages: list = field(default_factory=list)
    selftrain_rounds: int = 0

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "selftrain_rounds": self.selftrain_rounds,
            "stages": [
                {
                    "name": s.name,
                    "outputs": s.outputs,
                    "wall_clock_s": s.wall_clock_s,
                    "metrics": s.metrics,
                }
                for s in self.stages
            ],
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    def stage(self, name: str) -> StageRecord:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


# ---------------------------------------------------------------------------
# shared loading
# ---------------------------------------------------------------------------


def load_features_any(path, explicit_format: str | None = None) -> EmbeddingMatrix:
    fmt = explicit_format or detect_format(path)
    return load_features(path, fmt)


def validate_inputs(cfg: PipelineConfig) -> tuple[EmbeddingMatrix, Labeling | None]:
    cfg.require("features", "output_dir", "train.num_clusters")
    fpath = Path(cfg.features_path)
    if not fpath.is_file():
        raise ConfigError(f"feature file not found: {fpath}")
    labels = None
    if cfg.labels_path is not None:
        lpath = Path(cfg.labels_path)
        if not lpath.is_file():
            raise ConfigError(f"label file not found: {lpath}")
        labels = load_labeling(lpath)
    nn_file = cfg["neighbors.file"]
    if nn_file is not None and not Path(nn_file).is_file():
        raise ConfigError(f"neighbor file not found: {nn_file}")
    if cfg["neighbors.ground_truth"] and labels is None:
        raise ConfigError("neighbors.ground_truth=true requires a labels file")
    features = load_features_any(fpath, cfg["features_format"])
    if labels is not None and labels.n != features.n:
        raise ConfigError(
            f"labels cover {labels.n} samples but features hold {features.n}"
        )
    return features, labels


def build_sets_for_config(
    cfg: PipelineConfig, features: EmbeddingMatrix, labels: Labeling | None
) -> neighbors.NeighborSets:
    if cfg["neighbors.file"] is not None:
        return neighbors.load_neighbor_sets(cfg["neighbors.file"])
    if cfg["neighbors.ground_truth"]:
        return neighbors.ground_truth_neighbors(labels)
    mining_features = features
    if cfg["neighbors.standardized"]:
        mining_features = apply_standardizer(features, fit_standardizer(features))
    return neighbors.build_neighbor_sets(
        mining_features,
        cfg["neighbors.theta"],
        cfg["neighbors.k_min"],
        threads=cfg.threads,
    )


# ---------------------------------------------------------------------------
# stage implementations (file-level, reused by CLI subcommands)
# ---------------------------------------------------------------------------


def train_stage(
    out_dir: Path,
    features: EmbeddingMatrix,
    sets: neighbors.NeighborSets,
    train_cfg: heads.TrainConfig,
    labels: Labeling | None,
):
    """Run head training and write checkpoint, labelings and report."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    neighbors.save_neighbor_sets(sets, out_dir / "neighbors.nns")

    bank, report = heads.train_heads(features, sets, train_cfg)
    heads.save_head_bank(bank, out_dir / "checkpoint.hdb")

    lab_dir = out_dir / "labelings"
    lab_dir.mkdir(exist_ok=True)
    lab_paths = []
    for h, lab in enumerate(report.per_head_labeling):
        p = lab_dir / f"head_{h:03d}.lbl"
        save_labeling(lab, p)
        lab_paths.append(p)

    human = ["head training report", "", "head\tloss"]
    for h, loss in enumerate(report.per_head_loss):
        marker = "  <- best" if h == report.best_head else ""
        human.append(f"{h}\t{format_value(float(loss))}{marker}")
    machine = {
        "num_heads": train_cfg.num_heads,
        "best_head": report.best_head,
        "best_head_loss": float(report.per_head_loss[report.best_head]),
        "checkpoint": str(out_dir / "checkpoint.hdb"),
        "labelings_dir": str(lab_dir),
        "loss_mean_by_epoch": _float_list(report.epoch_mean_loss.mean(axis=1)),
        "best_head_loss_by_epoch": _float_list(report.epoch_mean_loss[:, report.best_head]),
    }
    if labels is not None:
        m = evaluate(report.per_head_labeling[report.best_head], labels)
        human += ["", "best-head metrics vs ground truth:"] + metrics_human_lines(m)
        machine.update({f"best_{k}": v for k, v in m.machine_block().items()})
    text = render_report(human, machine)
    (out_dir / "train_report.txt").write_text(text, encoding="utf-8")
    return bank, report, lab_paths, text


def ensemble_stage(
    out_dir: Path,
    inputs,
    k: int,
    extras,
    extra_names,
    labels: Labeling | None,
    threads: int = 1,
):
    """Run supra-consensus over head labelings; write consensus + ANMI table."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, best_idx = ens.supra_consensus_table(
        inputs, k, extras, extra_names, threads=threads
    )
    consensus = rows[best_idx][2]
    save_labeling(consensus, out_dir / "consensus.lbl")

    human = ["cluster-ensemble report", "", "candidate\tanmi"]
    for i, (name, score, _) in enumerate(rows):
        marker = "  <- selected" if i == best_idx else ""
        human.append(f"{name}\t{format_value(score)}{marker}")
    machine = {
        "num_inputs": len(inputs),
        "selected": rows[best_idx][0],
        "selected_anmi": rows[best_idx][1],
        "consensus": str(out_dir / "consensus.lbl"),
    }
    for name, score, _ in rows:
        machine[f"anmi.{name}"] = score
    if labels is not None:
        m = evaluate(consensus, labels)
        human += ["", "consensus metrics vs ground truth:"] + metrics_human_lines(m)
        machine.update({f"consensus_{k2}": v for k2, v in m.machine_block().items()})
    text = render_report(human, machine)
    (out_dir / "anmi_table.txt").write_text(text, encoding="utf-8")
    return consensus, text


def selftrain_stage(
    out_dir: Path,
    features: EmbeddingMatrix,
    pseudo: Labeling,
    st_cfg: selftrain.SelfTrainConfig,
    labels: Labeling | None,
):
    """Train the linear probe on pseudo-labels; write checkpoint + predictions."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    clf = selftrain.self_train(features, pseudo, st_cfg)
    selftrain.save_classifier(clf, out_dir / "classifier.clf")
    pred = selftrain.predict(clf, features)
    save_labeling(pred, out_dir / "selftrain_pred.lbl")

    agreement = float(np.mean(pred.labels == pseudo.labels))
    human = [
        "self-training report",
        "",
        f"  steps: {st_cfg.steps}",
        f"  training-set agreement with pseudo-labels: {pct(agreement)}%",
    ]
    machine = {
        "steps": st_cfg.steps,
        "pseudo_agreement": agreement,
        "classifier": str(out_dir / "classifier.clf"),
        "predictions": str(out_dir / "selftrain_pred.lbl"),
    }
    if labels is not None:
        m = evaluate(pred, labels)
        human += ["", "classifier metrics vs ground truth:"] + metrics_human_lines(m)
        machine.update({f"clf_{k}": v for k, v in m.machine_block().items()})
    text = render_report(human, machine)
    (out_dir / "selftrain_report.txt").write_text(text, encoding="utf-8")
    return clf, pred, text


def run_pipeline(cfg: PipelineConfig) -> RunManifest:
    """Execute train -> ensemble -> self-train, recording a manifest.

    Configuration errors surface before any stage runs; a stage failure
    aborts with that stage's name while earlier artifacts stay on disk.
    """
    features, labels = validate_inputs(cfg)
    train_cfg = cfg.train_config()
    k = cfg.ensemble_k()
    st_cfg = cfg.selftrain_config()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = RunManifest(config_hash=cfg.hash(), seed=cfg.seed)

    # stage 1: multi-head training
    record = StageRecord(name="train")
    t0 = time.perf_counter()
    try:
        sets = build_sets_for_config(cfg, features, labels)
        bank, report, lab_paths, _ = train_stage(out_dir, features, sets, train_cfg, labels)
    except Exception as exc:
        manifest.write(out_dir / "manifest.json")
        raise StageError("train", exc) from exc
    record.wall_clock_s = time.perf_counter() - t0
    for p in [out_dir / "neighbors.nns", out_dir / "checkpoint.hdb",
              out_dir / "train_report.txt", *lab_paths]:
        record.add_output(p)
    if labels is not None:
        record.metrics = evaluate(
            report.per_head_labeling[report.best_head], labels
        ).machine_block()
    manifest.stages.append(record)

    # stage 2: cluster ensembling
    record = StageRecord(name="ensemble")
    t0 = time.perf_counter()
    try:
        best_lab = report.per_head_labeling[report.best_head]
        consensus, _ = ensemble_stage(
            out_dir,
            list(report.per_head_labeling),
            k,
            [best_lab],
            ["best_head"],
            labels,
            threads=cfg.threads,
        )
    except Exception as exc:
        manifest.write(out_dir / "manifest.json")
        raise StageError("ensemble", exc) from exc
    record.wall_clock_s = time.perf_counter() - t0
    for p in [out_dir / "consensus.lbl", out_dir / "anmi_table.txt"]:
        record.add_output(p)
    if labels is not None:
        record.metrics = evaluate(consensus, labels).machine_block()
    manifest.stages.append(record)

    # stage 3: one round of self-training
    record = StageRecord(name="selftrain")
    t0 = time.perf_counter()
    try:
        clf, pred, _ = selftrain_stage(out_dir, features, consensus, st_cfg, labels)
    except Exception as exc:
        manifest.write(out_dir / "manifest.json")
        raise StageError("selftrain", exc) from exc
    manifest.selftrain_rounds += 1
    record.wall_clock_s = time.perf_counter() - t0
    for p in [out_dir / "classifier.clf", out_dir / "selftrain_pred.lbl",
              out_dir / "selftrain_report.txt"]:
        record.add_output(p)
    if labels is not None:
        record.metrics = evaluate(pred, labels).machine_block()
    manifest.stages.append(record)

    manifest.write(out_dir / "manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# analysis harnesses
# ---------------------------------------------------------------------------


def nn_analysis(
    features: EmbeddingMatrix,
    labels: Labeling,
    thetas,
    k_min: int,
    threads: int = 1,
) -> str:
    """Tab-separated threshold sweep of neighbor count and pair accuracy."""
    human = ["nearest-neighbor threshold analysis", "", "theta\tavg_count\tpair_accuracy"]
    machine = {"kind": "nn_analysis", "k_min": k_min}
    for theta in thetas:
        sets = neighbors.build_neighbor_sets(features, theta, k_min, threads=threads)
        stats = neighbors.neighbor_accuracy(sets, labels)
        human.append(f"{theta:g}\t{stats.avg_count:.1f}\t{pct(stats.pair_accuracy)}")
        machine[f"avg_count.{theta:g}"] = stats.avg_count
        machine[f"pair_accuracy.{theta:g}"] = stats.pair_accuracy
    return render_report(human, machine)


def _head_metrics(report: heads.TrainReport, labels: Labeling):
    per_head = [evaluate(lab, labels) for lab in report.per_head_labeling]
    best = per_head[report.best_head]
    arrs = {
        "nmi": np.array([m.nmi for m in per_head]),
        "acc": np.array([m.acc for m in per_head]),
        "ari": np.array([m.ari for m in per_head]),
    }
    return best, arrs


def _mean_std(values: np.ndarray) -> str:
    return f"{100 * values.mean():.2f}±{100 * values.std():.2f}"


def run_ablation(kind: str, cfg: PipelineConfig) -> str:
    """Sweep harnesses mirroring the threshold / head-count / ground-truth
    neighbor analyses; each variant retrains from scratch on the same seed."""
    if kind not in ("threshold_sweep", "head_count_sweep", "gt_neighbors"):
        raise ConfigError(f"unknown ablation kind {kind!r}")
    features, labels = validate_inputs(cfg)
    if labels is None:
        raise ConfigError("ablations need a labels file for their metric columns")
    train_cfg = cfg.train_config()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    header = (
        "variant\tbest_nmi\tbest_acc\tbest_ari\t"
        "overall_nmi\toverall_acc\toverall_ari\tavg_nn\tnn_acc"
    )
    human = [f"ablation: {kind}", "", header]
    machine = {"kind": kind}

    def run_variant(display, key, sets, variant_cfg):
        _, report = heads.train_heads(features, sets, variant_cfg)
        best, arrs = _head_metrics(report, labels)
        try:
            stats = neighbors.neighbor_accuracy(sets, labels)
            avg_nn, nn_acc = f"{stats.avg_count:.1f}", pct(stats.pair_accuracy)
            machine[f"{key}.avg_nn"] = stats.avg_count
            machine[f"{key}.nn_acc"] = stats.pair_accuracy
        except ValueError:
            avg_nn, nn_acc = "-", "-"
        human.append(
            f"{display}\t{pct(best.nmi)}\t{pct(best.acc)}\t{pct(best.ari)}\t"
            f"{_mean_std(arrs['nmi'])}\t{_mean_std(arrs['acc'])}\t{_mean_std(arrs['ari'])}\t"
            f"{avg_nn}\t{nn_acc}"
        )
        machine[f"{key}.best_acc"] = best.acc
        machine[f"{key}.overall_acc_mean"] = float(arrs["acc"].mean())
        machine[f"{key}.overall_acc_std"] = float(arrs["acc"].std())
        return report

    if kind == "threshold_sweep":
        for theta in cfg["ablate.thresholds"]:
            sets = neighbors.build_neighbor_sets(
                features, theta, cfg["neighbors.k_min"], threads=cfg.threads
            )
            run_variant(f"theta={theta:g}", f"theta_{theta:g}", sets, train_cfg)
    elif kind == "head_count_sweep":
        sets = build_sets_for_config(cfg, features, labels)
        for h in cfg["ablate.head_counts"]:
            variant_cfg = replace(train_cfg, num_heads=h)
            report = run_variant(f"H={h}", f"H_{h}", sets, variant_cfg)
            best_lab = report.per_head_labeling[report.best_head]
            consensus = ens.supra_consensus(
                list(report.per_head_labeling),
                cfg.ensemble_k(),
                [best_lab],
                threads=cfg.threads,
            )
            m = evaluate(consensus, labels)
            machine[f"H_{h}.ensemble_acc"] = m.acc
            human[-1] += f"\t[ensemble acc {pct(m.acc)}]"
    else:  # gt_neighbors
        adaptive = build_sets_for_config(cfg, features, labels)
        run_variant("adaptive", "adaptive", adaptive, train_cfg)
        gt_sets = neighbors.ground_truth_neighbors(labels)
        run_variant("ground_truth", "ground_truth", gt_sets, train_cfg)

    text = render_report(human, machine)
    (out_dir / f"ablate_{kind}.txt").write_text(text, encoding="utf-8")
    return text


# ---------------------------------------------------------------------------
# synthetic data entry point
# ---------------------------------------------------------------------------


def gen_synth_files(cfg: PipelineConfig):
    """Generate blob features + ground-truth labels and write both files."""
    spec = cfg.synth_spec()
    cfg.require("features")
    features, labels = gen_synthetic(spec)
    fpath = Path(cfg.features_path)
    fpath.parent.mkdir(parents=True, exist_ok=True)
    save_features(features, fpath, cfg["features_format"] or detect_format(fpath))
    lpath = cfg.labels_path
    if lpath is not None:
        Path(lpath).parent.mkdir(parents=True, exist_ok=True)
        save_labeling(labels, lpath)
    human = [
        "synthetic feature generation",
        "",
        f"  samples: {spec.n}  dim: {spec.d}  clusters: {spec.k}",
        f"  separation: {spec.separation:g}  seed: {spec.seed}",
        f"  features written to {fpath}",
    ]
    machine = {
        "n": spec.n, "d": spec.d, "k": spec.k,
        "separation": spec.separation, "seed": spec.seed,
        "features": str(fpath),
    }
    if lpath is not None:
        human.append(f"  labels written to {lpath}")
        machine["labels"] = str(lpath)
    return render_report(human, machine)
