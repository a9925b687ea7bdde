#!/usr/bin/env python3
"""Benchmark of the ``clusterens pipeline`` command.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout.  Each workload runs as a closed
loop of fresh pipeline processes, one at a time.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs traced/untraced pairs and
reports the per-layer metrics.  ``--workload all`` runs every workload.
``--size smoke`` shrinks every workload for the benchmark's self-test.
The last line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

# BLAS thread count of this process and of every pipeline process
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=["quickstart", "train_heavy", "large_n", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "clusterens" / "__init__.py").is_file():
        print(f"error: no clusterens sources under {root / 'src'}", file=sys.stderr)
        return 2
    # pinned before NumPy loads, here and (inherited) in every child
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(root / "src"))
    # a terminated benchmark kills its running child before it exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
