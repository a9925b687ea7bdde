"""Three-stage pipeline orchestration, run manifests and ablation harnesses.

Stages write their artifacts to the run directory as they finish, so a
failed run keeps everything produced so far and any stage can be re-run
from its predecessor's files.  Each stage function returns what the
manifest records of it: its result, the paths it wrote, its scores against
ground truth and its report text.  Reports are plain text ending in a
machine-readable ``key=value`` block separated by a ``---`` line.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import ensemble as ens
from . import heads, kvtext, neighbors, selftrain
from .config import PipelineConfig, config_hash
from .errors import ConfigError, LoadError, StageError
from .featstore import (
    EmbeddingMatrix,
    apply_standardizer,
    detect_format,
    gen_synthetic,
    load_features,
    save_features,
)
from .labeling import Labeling, load_labeling, save_labeling, u32_ids
from .metrics import MetricsReport, evaluate

MACHINE_SEPARATOR = "---"

# the kinds of ``run_ablation``: the threshold sweep against fixed-k
# neighbors, the head-count sweep and the ground-truth neighbor bound
ABLATIONS = ("threshold_sweep", "head_count_sweep", "gt_neighbors")

# glibc's malloc_trim; None where the C library has none
try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes = [ctypes.c_size_t]
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


def release_free_heap() -> None:
    """Return the free pages of the C heap to the operating system.

    NumPy's freed temporaries stay resident in the C heap, and a stage that
    churns many of them (head training) leaves most of the heap free but
    fragmented.  Whether the next stage's arrays fit in those holes or grow
    the heap depends on the layout, hence on the data, so without a trim
    between stages the run's peak RSS changes from one seed to the next.
    ``malloc_trim(0)`` releases every free page, not just the heap's top.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------


def render_report(human_lines, machine: dict) -> str:
    return "\n".join([*human_lines, "", MACHINE_SEPARATOR]) + "\n" + kvtext.render(machine.items())


def read_machine_block(text: str) -> dict:
    """Parse the key=value block after the last ``---`` separator line."""
    return _machine_block(text.splitlines())


def _machine_block(lines) -> dict:
    """:func:`read_machine_block` of a report's lines, keeping only those
    after the last separator seen."""
    block = None
    for line in lines:
        if line == MACHINE_SEPARATOR:
            block = []
        elif block is not None:
            block.append(line)
    if block is None:
        raise ValueError("report has no machine-readable block")
    return kvtext.parse(block, "machine block")


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
    outputs: list  # {"path", "sha256"} per artifact, in the stage's order
    wall_clock_s: float
    metrics: dict | None  # the stage's scores vs ground truth, if labels were given


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    stages: list = field(default_factory=list)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(asdict(self), f, indent=2, sort_keys=True)
            f.write("\n")


# ---------------------------------------------------------------------------
# command inputs, found, loaded and checked to fit before any work
# ---------------------------------------------------------------------------


def input_file(path, what: str) -> Path:
    """``path`` as a ``Path``; ``ConfigError`` when it is unset or not a file."""
    if path is None:
        raise ConfigError(f"missing required {what}")
    if not Path(path).is_file():
        raise ConfigError(f"{what} not found: {path}")
    return Path(path)


def check_count(covering, what: str, n: int, holder: str = "features") -> None:
    """Refuse a labeling or neighbor sets (``None`` passes) that do not cover
    the ``n`` samples ``holder`` hold."""
    if covering is not None and covering.n != n:
        raise ConfigError(f"{what} cover {covering.n} samples but {holder} hold {n}")


def check_nonempty(sizes: np.ndarray, what: str) -> None:
    """Refuse neighbor sets of ``sizes`` members that leave a sample without
    one: training draws a neighbor of every sample."""
    if not sizes.all():
        raise ConfigError(f"{what} leave sample {int(np.argmin(sizes))} without a neighbor")


def check_ground_truth(labels: Labeling) -> None:
    """Refuse ground-truth neighbor sets of ``labels`` that leave a sample
    without a neighbor: a ground-truth set holds the rest of its sample's class."""
    check_nonempty(labels.coding.counts[labels.coding.codes] - 1, "ground-truth neighbor sets")


def _labels(cfg: PipelineConfig) -> Labeling | None:
    return None if cfg["labels"] is None else load_labeling(input_file(cfg["labels"], "label file"))


def _features(cfg: PipelineConfig) -> EmbeddingMatrix:
    return load_features(input_file(cfg["features"], "feature file"))


def load_inputs(cfg: PipelineConfig) -> tuple[EmbeddingMatrix, Labeling | None]:
    """The ``features`` and, when ``labels`` is set, the labels that cover them."""
    input_file(cfg["features"], "feature file")  # before the labels load
    labels = _labels(cfg)
    features = _features(cfg)
    check_count(labels, "labels", features.n)
    return features, labels


def validate_inputs(cfg: PipelineConfig, config_sets: bool = True
                    ) -> tuple[EmbeddingMatrix, Labeling | None]:
    """The inputs of a training run (``train``, ``pipeline``, ``ablate``).

    The neighbor-source keys are checked only as :func:`build_sets_for_config`
    reads them (a neighbor file wins over ground-truth sets), and not at all
    when ``config_sets`` is false, for a run that mines its own sets."""
    cfg.require("features", "output_dir", "train.num_clusters")
    nfile = cfg["neighbors.file"] if config_sets else None
    ground_truth = config_sets and nfile is None and cfg["neighbors.ground_truth"]
    if nfile is not None:
        input_file(nfile, "neighbor file")
    if ground_truth and cfg["labels"] is None:
        raise ConfigError("neighbors.ground_truth=true requires a labels file")
    features, labels = load_inputs(cfg)
    if ground_truth:
        check_ground_truth(labels)
    if cfg["train.num_clusters"] > features.n:
        raise ConfigError(f"train.num_clusters={cfg['train.num_clusters']} exceeds the "
                          f"sample count n={features.n}")
    return features, labels


def ensemble_inputs(cfg: PipelineConfig):
    """The arguments of :func:`ensemble_stage` for the run in ``output_dir``,
    the head labelings its train report names and the labels of one sample set."""
    cfg.require("output_dir")
    run_dir = Path(cfg["output_dir"])
    report = input_file(run_dir / "train_report.txt", "train report")
    try:
        block = _machine_block(kvtext.read_lines(report))
        num_heads, best_head = int(block["num_heads"]), int(block["best_head"])
    except (KeyError, ValueError) as exc:
        raise LoadError(f"{report}: not a train report: {type(exc).__name__}: {exc}") from None
    if not 0 <= best_head < num_heads:
        raise LoadError(f"{report}: best_head={best_head} is not one of {num_heads} heads")
    # the heads the report names, not whatever an earlier run left behind
    inputs = [load_labeling(input_file(run_dir / "labelings" / f"head_{h:03d}.lbl",
                                       "head labeling"))
              for h in range(num_heads)]
    n = inputs[0].n
    for h, labeling in enumerate(inputs):
        check_count(labeling, f"labels of head {h}", n, "those of head 0")
    labels = _labels(cfg)
    check_count(labels, "labels", n, "head labelings")
    return run_dir, inputs, cfg.ensemble_k(n), best_head, labels


def selftrain_inputs(cfg: PipelineConfig, pseudo_path):
    """The features, the pseudo-labels at ``pseudo_path`` and the labels, of one sample set."""
    pseudo_path = input_file(pseudo_path, "pseudo-label file")
    features, labels = load_inputs(cfg)
    pseudo = load_labeling(pseudo_path)
    check_count(pseudo, "pseudo-labels", features.n)
    try:
        u32_ids(pseudo.labels)  # the ids the classifier checkpoint stores
    except ValueError as exc:
        raise ConfigError(f"pseudo-labels: {exc}") from None
    return features, pseudo, labels


def predict_inputs(cfg: PipelineConfig, classifier_path):
    """The features and the classifier at ``classifier_path``, of one dimension."""
    clf = selftrain.load_classifier(input_file(classifier_path, "classifier checkpoint"))
    features = _features(cfg)
    if clf.dim != features.d:
        raise ConfigError(f"the classifier takes d={clf.dim} but features hold d={features.d}")
    return features, clf


def mining_features(cfg: PipelineConfig, features: EmbeddingMatrix) -> EmbeddingMatrix:
    """The rows neighbor mining reads: ``features``, standardized if ``neighbors.standardized``."""
    if cfg["neighbors.standardized"]:
        return apply_standardizer(features, features.norm)
    return features


def threshold_sweep(cfg: PipelineConfig, features: EmbeddingMatrix):
    """Yield ``(theta, sets)`` for each of the ``ablate.thresholds`` in
    order, mined as :func:`build_sets_for_config` mines; each theta's sets
    are cut when the next pair is asked for."""
    thetas = cfg["ablate.thresholds"]
    yield from zip(thetas, neighbors.sweep_neighbor_sets(
        mining_features(cfg, features), thetas, cfg["neighbors.k_min"]))


def build_sets_for_config(
    cfg: PipelineConfig, features: EmbeddingMatrix, labels: Labeling | None
) -> neighbors.NeighborSets:
    if cfg["neighbors.file"] is not None:
        sets = neighbors.load_neighbor_sets(cfg["neighbors.file"])
        check_count(sets, "neighbor sets", features.n)
        check_nonempty(sets.sizes(), "neighbor sets")
        return sets
    if cfg["neighbors.ground_truth"]:
        return neighbors.ground_truth_neighbors(labels)
    return neighbors.build_neighbor_sets(
        mining_features(cfg, features), cfg["neighbors.theta"], cfg["neighbors.k_min"]
    )


# ---------------------------------------------------------------------------
# stage implementations (file-level, reused by CLI subcommands)
# ---------------------------------------------------------------------------


def _write_report(path: Path, human: list, machine: dict, pred: Labeling,
                  labels: Labeling | None, title: str, prefix: str):
    """Add the scores of ``pred`` vs ``labels`` to both parts of a report,
    write it to ``path`` and return ``(metrics, text)``: the scores as the
    manifest records them (``None`` without labels) and the report text."""
    metrics = None
    if labels is not None:
        report = evaluate(pred, labels)
        human += ["", title] + metrics_human_lines(report)
        metrics = report.machine_block()
        machine.update({f"{prefix}_{k}": v for k, v in metrics.items()})
    text = render_report(human, machine)
    path.write_text(text, encoding="utf-8")
    return metrics, text


def train_stage(
    out_dir: Path,
    features: EmbeddingMatrix,
    sets: neighbors.NeighborSets,
    train_cfg: heads.TrainConfig,
    labels: Labeling | None,
):
    """Run head training; write neighbor sets, checkpoint, report and labelings.

    Returns ``(report, outputs, metrics, text)``: the ``TrainReport``, the
    written paths in manifest order, the best head's scores vs ``labels``
    (``None`` without labels) and the report text.
    """
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
        human.append(f"{h}\t{kvtext.format_value(float(loss))}{marker}")
    machine = {
        "num_heads": train_cfg.num_heads,
        "best_head": report.best_head,
        "best_head_loss": float(report.per_head_loss[report.best_head]),
        "checkpoint": str(out_dir / "checkpoint.hdb"),
        "labelings_dir": str(lab_dir),
        "loss_mean_by_epoch": tuple(report.epoch_mean_loss.mean(axis=1).tolist()),
        "best_head_loss_by_epoch": tuple(report.epoch_mean_loss[:, report.best_head].tolist()),
    }
    metrics, text = _write_report(out_dir / "train_report.txt", human, machine,
                                  report.per_head_labeling[report.best_head], labels,
                                  "best-head metrics vs ground truth:", "best")
    outputs = [out_dir / "neighbors.nns", out_dir / "checkpoint.hdb",
               out_dir / "train_report.txt", *lab_paths]
    return report, outputs, metrics, text


def ensemble_stage(
    out_dir: Path,
    inputs,
    k: int,
    best_head: int,
    labels: Labeling | None,
):
    """Run supra-consensus over the head labelings, with the best head's own
    labeling as an extra candidate; write consensus + ANMI table.

    Returns ``(consensus, outputs, metrics, text)`` as ``train_stage`` does.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, best_idx = ens.supra_consensus_table(inputs, k, [inputs[best_head]], ["best_head"])
    consensus = rows[best_idx][2]
    save_labeling(consensus, out_dir / "consensus.lbl")

    human = ["cluster-ensemble report", "", "candidate\tanmi"]
    for i, (name, score, _) in enumerate(rows):
        marker = "  <- selected" if i == best_idx else ""
        human.append(f"{name}\t{kvtext.format_value(score)}{marker}")
    machine = {
        "num_inputs": len(inputs),
        "selected": rows[best_idx][0],
        "selected_anmi": rows[best_idx][1],
        "consensus": str(out_dir / "consensus.lbl"),
    }
    for name, score, _ in rows:
        machine[f"anmi.{name}"] = score
    metrics, text = _write_report(out_dir / "anmi_table.txt", human, machine, consensus, labels,
                                  "consensus metrics vs ground truth:", "consensus")
    return consensus, [out_dir / "consensus.lbl", out_dir / "anmi_table.txt"], metrics, text


def selftrain_stage(
    out_dir: Path,
    features: EmbeddingMatrix,
    pseudo: Labeling,
    st_cfg: selftrain.SelfTrainConfig,
    labels: Labeling | None,
):
    """Train the linear probe on pseudo-labels; write checkpoint + predictions.

    Returns ``(classifier, outputs, metrics, text)`` as ``train_stage`` does;
    the metrics score the probe's predictions.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    clf = selftrain.self_train(features, pseudo, st_cfg)
    selftrain.save_classifier(clf, out_dir / "classifier.clf")
    pred = selftrain.predict(clf, features)
    save_labeling(pred, out_dir / "selftrain_pred.lbl")

    agreement = float(np.mean(pred.labels == pseudo.labels))
    fit = clf.history
    stop = ("stopped early: the probe reproduces every pseudo-label" if fit.stopped_early
            else "ran the whole cap")
    human = [
        "self-training report",
        "",
        f"  steps: {fit.steps} of a {st_cfg.steps}-step cap, {stop}",
        f"  epochs: {fit.epochs} (steps per epoch: {fit.epoch_steps})",
        f"  training-set agreement with pseudo-labels: {pct(agreement)}%",
    ]
    machine = {
        "steps": fit.steps,
        "steps_cap": st_cfg.steps,
        "epochs_run": fit.epochs,
        "stopped_early": fit.stopped_early,
        "pseudo_agreement": agreement,
        "pseudo_agreement_by_epoch": fit.agreement_by_epoch,
        "classifier": str(out_dir / "classifier.clf"),
        "predictions": str(out_dir / "selftrain_pred.lbl"),
    }
    metrics, text = _write_report(out_dir / "selftrain_report.txt", human, machine, pred, labels,
                                  "classifier metrics vs ground truth:", "clf")
    outputs = [out_dir / "classifier.clf", out_dir / "selftrain_pred.lbl",
               out_dir / "selftrain_report.txt"]
    return clf, outputs, metrics, text


def run_pipeline(cfg: PipelineConfig) -> RunManifest:
    """Execute train -> ensemble -> self-train, recording a manifest.

    Configuration errors surface before any stage runs, except a neighbor
    file's sample count and empty sets, which the train stage checks when it
    loads the file; a stage failure aborts with that stage's name while
    earlier artifacts stay on disk.
    """
    features, labels = validate_inputs(cfg)
    train_cfg = cfg.train_config()
    k = cfg.ensemble_k(features.n)
    st_cfg = cfg.selftrain_config()
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = RunManifest(config_hash=config_hash(cfg.resolved), seed=cfg["seed"])

    def run_stage(name: str, body):
        """Time ``body``, a call of a stage function, and record the outputs
        (hashed) and metrics it returns; on failure write the partial
        manifest and raise ``StageError(name)``.  Returns the stage's result."""
        t0 = time.perf_counter()
        try:
            result, outputs, metrics, _ = body()
        except Exception as exc:
            manifest.write(out_dir / "manifest.json")
            raise StageError(name, exc) from exc
        release_free_heap()
        wall_clock_s = time.perf_counter() - t0
        outputs = [{"path": str(p), "sha256": sha256_file(p)} for p in outputs]
        manifest.stages.append(StageRecord(name, outputs, wall_clock_s, metrics))
        return result

    # multi-head training (mining counts toward it), cluster ensembling,
    # one round of self-training
    report = run_stage("train", lambda: train_stage(
        out_dir, features, build_sets_for_config(cfg, features, labels), train_cfg, labels))
    consensus = run_stage("ensemble", lambda: ensemble_stage(
        out_dir, list(report.per_head_labeling), k, report.best_head, labels))
    run_stage("selftrain", lambda: selftrain_stage(out_dir, features, consensus, st_cfg, labels))

    manifest.write(out_dir / "manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# analysis harnesses
# ---------------------------------------------------------------------------


def nn_analysis(cfg: PipelineConfig, features: EmbeddingMatrix, labels: Labeling) -> str:
    """Tab-separated sweep of neighbor count and pair accuracy over the
    ``ablate.thresholds``, mining as :func:`build_sets_for_config` does."""
    human = ["nearest-neighbor threshold analysis", "", "theta\tavg_count\tpair_accuracy"]
    machine = {"kind": "nn_analysis", "k_min": cfg["neighbors.k_min"]}
    for theta, sets in threshold_sweep(cfg, features):
        stats = neighbors.neighbor_accuracy(sets, labels)
        human.append(f"{theta:g}\t{stats.avg_count:.1f}\t{pct(stats.pair_accuracy)}")
        machine[f"avg_count.{theta:g}"] = stats.avg_count
        machine[f"pair_accuracy.{theta:g}"] = stats.pair_accuracy
    return render_report(human, machine)


def run_ablation(kind: str, cfg: PipelineConfig) -> str:
    """Sweep harnesses mirroring the threshold / head-count / ground-truth
    neighbor analyses; each variant retrains from scratch on the same seed."""
    if kind not in ABLATIONS:
        raise ConfigError(f"unknown ablation kind {kind!r}")
    # the threshold sweep mines its own sets at every theta
    features, labels = validate_inputs(cfg, config_sets=kind != "threshold_sweep")
    if labels is None:
        raise ConfigError("ablations need a labels file for their metric columns")
    if kind == "gt_neighbors":
        check_ground_truth(labels)
    train_cfg = cfg.train_config()
    k = cfg.ensemble_k(features.n) if kind == "head_count_sweep" else None

    def variants():
        """``(row name, machine-key prefix, neighbor sets, train config)`` of
        each variant, its sets built only when the loop reaches it."""
        if kind == "threshold_sweep":
            for theta, sets in threshold_sweep(cfg, features):
                yield f"theta={theta:g}", f"theta_{theta:g}", sets, train_cfg
        elif kind == "head_count_sweep":
            sets = build_sets_for_config(cfg, features, labels)
            for h in cfg["ablate.head_counts"]:
                yield f"H={h}", f"H_{h}", sets, replace(train_cfg, num_heads=h)
        else:  # gt_neighbors
            yield "adaptive", "adaptive", build_sets_for_config(cfg, features, labels), train_cfg
            gt_sets = neighbors.ground_truth_neighbors(labels)
            yield "ground_truth", "ground_truth", gt_sets, train_cfg

    human = [f"ablation: {kind}", "", "variant\tbest_nmi\tbest_acc\tbest_ari\t"
             "overall_nmi\toverall_acc\toverall_ari\tavg_nn\tnn_acc"]
    machine = {"kind": kind}
    sets = stats = None
    for display, key, variant_sets, variant_cfg in variants():
        # before training, so the last variant's sets are not held through it
        if variant_sets is not sets:
            sets, stats = variant_sets, neighbors.neighbor_accuracy(variant_sets, labels)
        _, report = heads.train_heads(features, variant_sets, variant_cfg)
        per_head = [evaluate(lab, labels) for lab in report.per_head_labeling]
        best = per_head[report.best_head]
        over = {name: np.array([getattr(m, name) for m in per_head])
                for name in ("nmi", "acc", "ari")}
        row = [display, pct(best.nmi), pct(best.acc), pct(best.ari),
               *(f"{100 * v.mean():.2f}±{100 * v.std():.2f}" for v in over.values()),
               f"{stats.avg_count:.1f}", pct(stats.pair_accuracy)]
        machine[f"{key}.avg_nn"] = stats.avg_count
        machine[f"{key}.nn_acc"] = stats.pair_accuracy
        machine[f"{key}.best_acc"] = best.acc
        machine[f"{key}.overall_acc_mean"] = float(over["acc"].mean())
        machine[f"{key}.overall_acc_std"] = float(over["acc"].std())
        if k is not None:  # the head-count sweep's consensus column
            best_lab = report.per_head_labeling[report.best_head]
            consensus = ens.supra_consensus(list(report.per_head_labeling), k, [best_lab])
            acc = evaluate(consensus, labels).acc
            machine[f"{key}.ensemble_acc"] = acc
            row.append(f"[ensemble acc {pct(acc)}]")
        human.append("\t".join(row))

    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
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
    fpath = Path(cfg["features"])
    fpath.parent.mkdir(parents=True, exist_ok=True)
    save_features(features, fpath, detect_format(fpath))
    lpath = cfg["labels"]
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
