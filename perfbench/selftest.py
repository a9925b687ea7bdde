#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (about a minute on 2 CPUs).

    python3 perfbench/selftest.py

Checks that the untraced and traced runs of every workload print a final
JSON line with exactly the contracted keys and every metric of
``BENCHMARK.json``; that the traced run at the same seed reproduces the
untraced run's artifacts (through the hash ledger); and that, in a
directory holding only ``BENCHMARK.json`` and this directory, the
benchmark fails without printing a result.  Exit code 0 means all passed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("quickstart", "train_heavy", "large_n")
SEED = 5


def run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", "all",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_result(proc: subprocess.CompletedProcess, names: list[str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"final line keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = {f"{w}.{m}" for w in WORKLOADS for m in names}
    if set(result["metrics"]) != wanted:
        problems.append(f"metrics missing {sorted(wanted - set(result['metrics']))}, "
                        f"unexpected {sorted(set(result['metrics']) - wanted)}")
    for key, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not math.isfinite(metric["value"]):
            problems.append(f"{key}: {metric}")
    return problems


def check_bare() -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = [m["name"] for m in spec[key]]
        problems += [f"trace {trace}: {p}" for p in check_result(run(ROOT, trace), names)]
    problems += check_bare()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
