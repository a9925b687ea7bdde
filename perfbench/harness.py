"""Measurement loop, output check and metrics of the pipeline benchmark.

Imported by ``run.py`` after the BLAS thread count is pinned and the
checkout's ``src`` is on ``sys.path``.  Everything a run writes goes under
``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import clusterens as ce
from clusterens.heads import load_head_bank
from clusterens.neighbors import load_neighbor_sets
from clusterens.pipeline import read_machine_block, sha256_file
from clusterens.selftrain import load_classifier

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"
STAGES = ["train", "ensemble", "selftrain"]

RUN_BUDGET_S = 170.0  # a run starts no process it cannot finish by then
# set-up-only processes per run; in the traced run each then times
# inference for PREDICT_SECONDS.  On a shared machine inference throughput
# drifts by tens of percent over seconds, so it is spread over processes.
SETUP_LAUNCHES = 8
PREDICT_SECONDS = 0.5

# metrics derived from array shapes or artifact contents, not timed
COMPUTED = {
    "neighbors.pairs", "neighbors.sim_mb_computed", "heads.steps",
    "heads.loss_grads_gflop", "selftrain.steps", "ensemble.unique_patterns",
    "ensemble.unique_ratio", "ensemble.coassoc_mb_computed",
}


@dataclass
class Launch:
    code: int
    wall_s: float
    maxrss_mb: float
    setup_s: float | None
    record: dict


@dataclass
class Tally:
    """Attempted and failed pipeline runs of one benchmark run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, label: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "commit": _commit(),
        "source_sha256": source_digest(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


# ---------------------------------------------------------------------------
# one pipeline process
# ---------------------------------------------------------------------------


def launch(mode: str, work: Path, tag: str, deadline: float, *options: str) -> Launch:
    """Start ``launch.py`` in ``work``, wait for it, and read its rusage.

    The child is killed if it is still running at ``deadline``.
    """
    out = work / f"{tag}.json"
    out.unlink(missing_ok=True)
    with open(work / f"{tag}.log", "wb") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), mode, str(out), repr(launched),
             *options, "--", "pipeline", "--config", "run.cfg"],
            cwd=work, stdout=log, stderr=subprocess.STDOUT,
        )
        watchdog = threading.Timer(max(deadline - launched, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {}
    setup_done = record.get("setup_done")
    return Launch(
        code=proc.returncode,
        wall_s=ended - launched,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        setup_s=None if setup_done is None else setup_done - launched,
        record=record,
    )


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------


@dataclass
class Outputs:
    """Artifacts of one checked run, reloaded through the package."""

    hashes: dict
    sets: object = None
    bank: object = None
    head_labelings: list = field(default_factory=list)
    prediction: object = None
    selftrain_steps: int = 0


def check_run(work: Path, wl: workloads.Workload, features, code: int):
    """Return (problems, outputs) for the run directory ``work/run``."""
    if code != 0:
        return [f"exit code {code}"], None
    run = work / "run"
    problems = []
    try:
        manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
        names = [s["name"] for s in manifest["stages"]]
        if names != STAGES:
            problems.append(f"manifest stages {names}, expected {STAGES}")
        hashes = {}
        for stage in manifest["stages"]:
            for item in stage["outputs"]:
                if sha256_file(work / item["path"]) != item["sha256"]:
                    problems.append(f"{item['path']} does not match its manifest sha256")
                hashes[item["path"]] = item["sha256"]
        out = Outputs(hashes=hashes)
        out.sets = load_neighbor_sets(run / "neighbors.nns")
        out.bank = load_head_bank(run / "checkpoint.hdb")
        out.head_labelings = [
            ce.load_labeling(p) for p in sorted((run / "labelings").glob("head_*.lbl"))
        ]
        ce.load_labeling(run / "consensus.lbl")
        out.prediction = ce.load_labeling(run / "selftrain_pred.lbl")
        clf = load_classifier(run / "classifier.clf")
        report = read_machine_block((run / "selftrain_report.txt").read_text(encoding="utf-8"))
        out.selftrain_steps = int(report["steps"])
    except (ce.ClusterensError, OSError, ValueError, KeyError) as exc:
        return problems + [f"{type(exc).__name__}: {exc}"], None
    if out.sets.n != wl.n or out.bank.num_heads != wl.heads:
        problems.append("neighbor sets or head bank do not match the workload shape")
    if len(out.head_labelings) != wl.heads:
        problems.append(f"{len(out.head_labelings)} head labelings, expected {wl.heads}")
    if not np.array_equal(ce.predict(clf, features).labels, out.prediction.labels):
        problems.append("reloaded classifier does not reproduce selftrain_pred.lbl")
    return problems, out


class HashLedger:
    """Artifact sha256s per (workload, size, seed, source): every run of one
    seed must produce the same bytes, within a run and across runs."""

    def __init__(self, key: str):
        self.path = WORK_ROOT / "hashes" / f"{key}.json"
        self.expected = None
        if self.path.is_file():
            self.expected = json.loads(self.path.read_text(encoding="utf-8"))

    def check(self, hashes: dict) -> list:
        if self.expected is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(hashes, sort_keys=True), encoding="utf-8")
            self.expected = hashes
            return []
        if hashes != self.expected:
            differ = sorted(k for k in set(hashes) | set(self.expected)
                            if hashes.get(k) != self.expected.get(k))
            return [f"artifacts differ from an earlier run at this seed: {differ}"]
        return []


# ---------------------------------------------------------------------------
# counts computed from shapes and artifacts
# ---------------------------------------------------------------------------


def computed_counts(wl: workloads.Workload, out: Outputs, truth, features_path: Path) -> dict:
    n = wl.n
    cfg = out.bank.config
    batch = min(cfg.batch_size, n)
    patterns = np.unique(np.stack([lab.labels for lab in out.head_labelings], axis=1), axis=0)
    return {
        "featstore.load_mb": features_path.stat().st_size / 1e6,
        "neighbors.pairs": int(out.sets.sizes().sum()),
        "neighbors.pair_accuracy": ce.neighbor_accuracy(out.sets, truth).pair_accuracy,
        "neighbors.sim_mb_computed": n * n * 8 / 1e6,
        "heads.steps": cfg.epochs * math.ceil(n / cfg.batch_size),
        "heads.loss_grads_gflop":
            tracing.loss_grads_flop(cfg.num_heads, batch, cfg.num_clusters, wl.d) / 1e9,
        "selftrain.steps": out.selftrain_steps,
        "ensemble.unique_patterns": int(patterns.shape[0]),
        "ensemble.unique_ratio": patterns.shape[0] / n,
        "ensemble.coassoc_mb_computed": n * n * 8 / 1e6,
    }


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, size: str,
                 spec: dict, env: dict) -> dict:
    wl = workloads.get(name, size)
    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK_ROOT / "work" / f"{name}-{size}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(wl, seed, seconds, trace, size, spec, env, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(wl, seed, seconds, trace, size, spec, env, work, deadline) -> dict:
    features, truth = ce.gen_synthetic(ce.SynthSpec(
        n=wl.n, d=wl.d, k=wl.k, separation=wl.separation, seed=seed))
    features_path = work / "features.fpk"
    ce.save_features(features, features_path)
    ce.save_labeling(truth, work / "labels.lbl")
    (work / "run.cfg").write_text(wl.config_text(seed), encoding="utf-8")
    features = ce.load_features(features_path)  # exactly what the program reads
    ledger = HashLedger(f"{wl.name}-{size}-{seed}-{env['source_sha256'][:16]}")
    tally = Tally()

    # a discarded set-up-only process compiles bytecode and warms the page cache
    warm = launch("setup", work, "warmup", deadline)
    if warm.code != 0 or warm.setup_s is None:
        tally.problems.append(f"warm-up set-up process: exit code {warm.code}")

    def pipeline_run(mode: str, i: int):
        shutil.rmtree(work / "run", ignore_errors=True)
        res = launch(mode, work, f"{mode}{i}", deadline)
        problems, out = check_run(work, wl, features, res.code)
        if out is not None:
            problems += ledger.check(out.hashes)
        ok = tally.add(f"{mode} {i}", problems)
        return res, (out if ok else None)

    walls, rss, setup_samples, traces, last_out = [], [], [], [], None
    loop_t0 = time.monotonic()
    i = 0
    while True:
        res, out = pipeline_run("run", i)
        if out is not None:
            walls.append(res.wall_s)
            rss.append(res.maxrss_mb)
            setup_samples.append(res.setup_s)
            last_out = out
        slowest = res.wall_s
        if trace:
            tres, tout = pipeline_run("trace", i)
            slowest += tres.wall_s
            if tout is not None and out is not None:
                traces.append((res.wall_s, tres))
                last_out = tout
        i += 1
        now = time.monotonic()
        if now - loop_t0 >= seconds or now + 1.5 * slowest > deadline:
            break

    result = {
        "workload": wl.name, "size": size, "seed": seed, "trace": int(trace),
        "seconds": seconds, "environment": env,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems, "metrics": {}, "absent": [],
        "samples": {"pipeline_s": walls, "setup_s": setup_samples, "peak_rss_mb": rss},
    }
    if last_out is None or (trace and not traces):
        return result

    # set-up-only processes; in the traced run they then time inference
    # with the last run's classifier on the features they loaded
    predict_medians, reps = [], 0
    for i in range(SETUP_LAUNCHES):
        if trace:
            res = launch("predict", work, f"predict{i}", deadline, str(PREDICT_SECONDS))
        else:
            res = launch("setup", work, f"setup{i}", deadline)
        times = res.record.get("predict_s")
        if res.code != 0 or res.setup_s is None or (trace and not times):
            tally.problems.append(f"set-up process {i}: exit code {res.code}")
            continue
        setup_samples.append(res.setup_s)
        if trace:
            predict_medians.append(statistics.median(times))
            reps += len(times)
    result["samples"]["predict_median_s"] = predict_medians
    result["samples"]["predict_reps"] = reps

    if not trace:
        quality = ce.evaluate(last_out.prediction, truth)
        values = {
            "pipeline_s": statistics.median(walls),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": statistics.median(rss),
            "final_acc": quality.acc,
            "final_nmi": quality.nmi,
            "final_ari": quality.ari,
        }
        units = spec["end_to_end"]
    else:
        counts = computed_counts(wl, last_out, truth, features_path)
        per_trace, absent = [], set()
        for i, (untraced_wall, tres) in enumerate(traces):
            spans, seams_absent = tres.record["spans"], tres.record["absent"]
            layer, missing, table = tracing.layer_metrics(spans, seams_absent, counts)
            layer["trace.overhead_s"] = tres.wall_s - untraced_wall
            per_trace.append(layer)
            absent.update(missing)
            tally.problems.extend(f"trace {i}: {p}" for p in table.problems)
            result.setdefault("trace_wall", []).append(
                {"parent_wall_s": tres.wall_s, "root_span_s": table.root_s,
                 "self_sum_s": table.self_sum_s})
        (WORK_ROOT / "results").mkdir(parents=True, exist_ok=True)
        spans_path = WORK_ROOT / "results" / f"{wl.name}-{size}-seed{seed}-spans.json"
        spans_path.write_text(json.dumps(traces[-1][1].record["spans"]), encoding="utf-8")
        values = dict(counts)
        if predict_medians:
            values["selftrain.predict_rows_per_s"] = wl.n / statistics.median(predict_medians)
        for key in per_trace[0]:
            values[key] = statistics.median([t[key] for t in per_trace if key in t])
        result["absent"] = sorted(absent)
        units = spec["per_layer"]
    result["metrics"] = {
        key: {"value": float(values[key]), "unit": unit}
        for key, unit in units.items() if key in values
    }
    result["absent"] = sorted(set(result["absent"]) | (set(units) - set(values)))
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def human_lines(result: dict) -> list[str]:
    env = result["environment"]
    lines = [
        f"workload {result['workload']} ({result['size']} size), seed {result['seed']}, "
        f"trace {result['trace']}: closed loop, one client, one pipeline process at a time",
        "environment: " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    samples = result["samples"]
    counts = {"pipeline_s": len(samples["pipeline_s"]), "setup_s": len(samples["setup_s"]),
              "peak_rss_mb": len(samples["peak_rss_mb"])}
    for key, m in result["metrics"].items():
        note = ""
        if key in counts:
            note = f"  (median of {counts[key]})"
        elif key == "selftrain.predict_rows_per_s":
            note = (f"  (median over {len(samples['predict_median_s'])} processes, "
                    f"{samples['predict_reps']} repetitions)")
        elif key in COMPUTED:
            note = "  [computed]"
        lines.append(f"  {key:<30} {m['value']:.6g} {m['unit']}{note}")
    for entry in result.get("trace_wall", []):
        lines.append(
            f"  traced run: root span {entry['root_span_s']:.4f} s (launch to end of command)"
            f" = sum of span self times {entry['self_sum_s']:.4f} s;"
            f" process wall {entry['parent_wall_s']:.4f} s (launch to exit)")
    attempted, failed = result["attempted"], result["failed"]
    share = failed / attempted if attempted else 1.0
    lines.append(f"  {'failed_runs':<30} {failed}/{attempted} attempted (share {share:g})")
    lines.extend(f"  absent: {name}" for name in result["absent"])
    lines.extend(f"  problem: {p}" for p in result["problems"])
    return lines


def save_result(result: dict) -> None:
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = (f"{result['workload']}-{result['size']}-seed{result['seed']}"
            f"-trace{result['trace']}.json")
    (results / name).write_text(json.dumps(result, indent=2), encoding="utf-8")


def main(args) -> int:
    spec = load_spec()
    env = environment()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.size, spec, env)
        save_result(result)
        print("\n".join(human_lines(result)), flush=True)
        results.append(result)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    correct = all(not r["problems"] and r["failed"] == 0 and r["metrics"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    if args.trace == 0:
        correct = correct and all(set(r["metrics"]) == set(wanted) for r in results)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1
