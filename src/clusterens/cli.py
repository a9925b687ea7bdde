"""Command-line surface for the clustering pipeline.

Every subcommand reads an optional ``--config`` file plus repeatable
``--set key=value`` overrides; path flags are shorthand for the matching
config keys and win over both.  This module holds only the flags, one call
per command and the printing: ``pipeline.py`` finds, loads and checks every
input file before any work.  ``train``, ``ensemble`` and ``selftrain`` run
their stage through ``pipeline.run_stage``, as ``pipeline`` does, so each
adds its record to the run directory's ``manifest.json``.  Exit codes:
0 success, 1 configuration error (a missing file, or inputs that do not fit
together), 2 runtime failure (a file that does not parse included).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pipeline as pl
from .config import PipelineConfig, load_pipeline_config
from .errors import ClusterensError, ConfigError
from .labeling import load_labeling, save_labeling
from .metrics import evaluate
from .selftrain import predict as clf_predict


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="clusterens", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler, flags=()):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        for flag, key, helptext in flags:
            p.add_argument(flag, dest=key.replace(".", "__"), help=helptext)
        p.set_defaults(handler=handler, flag_keys=[key for _, key, _ in flags])
        return p

    add("gen-synth", "generate synthetic blob features + ground-truth labels", _cmd_gen_synth, [
        ("--n", "synth.n", "sample count"),
        ("--d", "synth.d", "feature dimension"),
        ("--k", "synth.k", "cluster count"),
        ("--separation", "synth.separation", "inter-center separation"),
        ("--seed", "seed", "random seed"),
        ("--features", "features", "output feature file"),
        ("--labels", "labels", "output ground-truth labeling file"),
    ])
    add("train", "train the clustering heads from features (+ neighbor sets)", _cmd_train, [
        ("--features", "features", "input feature file"),
        ("--labels", "labels", "optional ground-truth labels for metrics"),
        ("--neighbors", "neighbors.file", "precomputed neighbor-set file"),
        ("--out", "output_dir", "run directory for checkpoints and reports"),
    ])
    add("ensemble", "consensus over a training run's head labelings", _cmd_ensemble, [
        ("--run-dir", "output_dir", "run directory holding train outputs"),
        ("--k", "ensemble.k", "target cluster count"),
        ("--labels", "labels", "optional ground-truth labels for metrics"),
    ])
    p = add("selftrain", "train the linear probe on consensus pseudo-labels", _cmd_selftrain, [
        ("--features", "features", "input feature file"),
        ("--labels", "labels", "optional ground-truth labels for metrics"),
    ])
    p.add_argument("--pseudo-labels", help="pseudo-label file (consensus labeling)")
    p.add_argument("--out", help="output directory")
    p = add("predict", "label features with a trained classifier", _cmd_predict, [
        ("--features", "features", "input feature file"),
    ])
    p.add_argument("--classifier", help="classifier checkpoint")
    p.add_argument("--out", required=True, help="output labeling file")
    p = add("eval", "score a predicted labeling against ground truth", _cmd_eval)
    p.add_argument("--pred", help="predicted labeling file")
    p.add_argument("--gt", help="ground-truth labeling file")
    add("pipeline", "run train -> ensemble -> selftrain end to end", _cmd_pipeline)
    add("nn-analysis", "sweep neighbor thresholds and report count/accuracy", _cmd_nn_analysis, [
        ("--features", "features", "input feature file"),
        ("--labels", "labels", "ground-truth labels (required)"),
    ])
    p = add("ablate", "run an ablation sweep", _cmd_ablate)
    p.add_argument("--kind", required=True, choices=pl.ABLATIONS)
    return parser


def _config_from_args(args) -> PipelineConfig:
    """The command's config: the file, then ``--set``, then its flags, later ones winning."""
    overrides = list(args.set)
    for key in args.flag_keys:
        value = getattr(args, key.replace(".", "__"), None)
        if value is not None:
            overrides.append(f"{key}={value}")
    return load_pipeline_config(args.config, overrides)


def _cmd_gen_synth(args, cfg) -> str:
    return pl.gen_synth_files(cfg)


def _cmd_train(args, cfg) -> str:
    return pl.run_stage("train", cfg, cfg["output_dir"], *pl.validate_inputs(cfg))


def _cmd_ensemble(args, cfg) -> str:
    cfg.require("output_dir")
    return pl.run_stage("ensemble", cfg, cfg["output_dir"], None, pl.load_labels(cfg))


def _cmd_selftrain(args, cfg) -> str:
    pseudo_path = pl.input_file(args.pseudo_labels, "pseudo-label file")
    out_dir = args.out or cfg["output_dir"] or pseudo_path.parent
    return pl.run_stage("selftrain", cfg, out_dir, *pl.load_inputs(cfg), pseudo_path=pseudo_path)


def _cmd_predict(args, cfg) -> str:
    features, clf = pl.predict_inputs(cfg, args.classifier)
    labeling = clf_predict(clf, features)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_labeling(labeling, args.out)
    human = [
        "prediction report",
        "",
        f"  labeled {labeling.n} samples into {labeling.k} cluster(s)",
        f"  written to {args.out}",
    ]
    return pl.render_report(human, {"n": labeling.n, "k": labeling.k, "out": str(args.out)})


def _cmd_eval(args, cfg) -> str:
    pred = load_labeling(pl.input_file(args.pred, "predicted labeling"))
    gt = load_labeling(pl.input_file(args.gt, "ground-truth labeling"))
    pl.check_count(gt, "ground-truth labels", pred.n, "predictions")
    report = evaluate(pred, gt)
    human = ["clustering metrics"] + pl.metrics_human_lines(report)
    return pl.render_report(human, report.machine_block())


def _cmd_pipeline(args, cfg) -> str:
    manifest = pl.run_pipeline(cfg)
    human = ["pipeline run complete", ""]
    machine = {
        "config_hash": manifest.config_hash,
        "seed": manifest.seed,
        "manifest": str(Path(cfg["output_dir"]) / "manifest.json"),
    }
    for stage in manifest.stages:
        line = f"  {stage.name}: {stage.wall_clock_s:.2f}s"
        if stage.metrics:
            line += f"  ACC {pl.pct(stage.metrics['acc'])}%"
            machine.update({f"{stage.name}.{k}": v for k, v in stage.metrics.items()})
        human.append(line)
    return pl.render_report(human, machine)


def _cmd_nn_analysis(args, cfg) -> str:
    cfg.require("labels")
    return pl.nn_analysis(cfg, *pl.load_inputs(cfg))


def _cmd_ablate(args, cfg) -> str:
    return pl.run_ablation(args.kind, cfg)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text = args.handler(args, _config_from_args(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ClusterensError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
