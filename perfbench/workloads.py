"""Benchmark workloads: the synthetic input shape and the pipeline settings.

Every workload generates its features and ground truth with
``gen_synthetic`` from the workload seed, and runs the pipeline with the
same seed.  The reasons for each workload are recorded in
``BENCHMARK.json`` and in ``README.md`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass

# settings shared by every workload; self-training keeps the program
# defaults (12500 steps) unless a smoke size overrides them
COMMON_SETTINGS = {
    "neighbors.theta": "0.3",
    "neighbors.k_min": "5",
    "train.lr": "1e-3",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    k: int
    separation: float
    heads: int
    epochs: int
    warmup_epochs: int
    selftrain_steps: int | None = None  # None keeps the program default

    def config_text(self, seed: int) -> str:
        """Pipeline config, with paths relative to the run's work directory."""
        entries = {
            "features": "features.fpk",
            "labels": "labels.lbl",
            "output_dir": "run",
            "seed": str(seed),
            **COMMON_SETTINGS,
            "train.num_clusters": str(self.k),
            "train.num_heads": str(self.heads),
            "train.epochs": str(self.epochs),
            "train.warmup_epochs": str(self.warmup_epochs),
        }
        if self.selftrain_steps is not None:
            entries["selftrain.steps"] = str(self.selftrain_steps)
        return "".join(f"{key} = {value}\n" for key, value in entries.items())


WORKLOADS = {
    "quickstart": Workload("quickstart", n=2000, d=64, k=5, separation=20.0,
                           heads=10, epochs=50, warmup_epochs=5),
    "train_heavy": Workload("train_heavy", n=4000, d=384, k=20, separation=3.0,
                            heads=50, epochs=2, warmup_epochs=1),
    "large_n": Workload("large_n", n=6000, d=128, k=10, separation=4.0,
                        heads=10, epochs=2, warmup_epochs=1),
}

# a few seconds each: the same code paths and layer mix at a size small
# enough for the benchmark's own self-test
SMOKE = {
    "quickstart": Workload("quickstart", n=300, d=16, k=5, separation=20.0,
                           heads=3, epochs=4, warmup_epochs=1, selftrain_steps=300),
    "train_heavy": Workload("train_heavy", n=400, d=48, k=8, separation=3.0,
                            heads=6, epochs=1, warmup_epochs=1, selftrain_steps=300),
    "large_n": Workload("large_n", n=600, d=16, k=6, separation=4.0,
                        heads=3, epochs=1, warmup_epochs=1, selftrain_steps=300),
}


def get(name: str, size: str) -> Workload:
    table = SMOKE if size == "smoke" else WORKLOADS
    return table[name]
