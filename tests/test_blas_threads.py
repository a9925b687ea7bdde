"""Same seed, same bytes, whatever the BLAS thread count.

``clusterens pipeline`` runs in fresh processes under 1 and 2 BLAS threads
on small versions of the three benchmark workloads, on shapes whose head
training runs in several head blocks, and on one where every neighbor set
is its k_min floor, with some feature rows duplicated: neighbors near the
threshold or tied at the floor's cut must be settled by their float64
cosine, not by the bits of a float32 product, and eigenvectors are only
defined up to rounding, so both are places where the kernel path could
leak into an artifact.  Every file of
the run directory must be byte-identical; ``manifest.json`` may differ only
in its ``wall_clock_s`` times.  The pipeline shapes here have small
consensus Grams, so CSPA's labels are also checked the same way on the
larger ensembles of ``test_ensemble.krylov_ensembles``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clusterens
from clusterens import EmbeddingMatrix, Labeling, SynthSpec, gen_synthetic, save_labeling
from clusterens.featstore import save_features

SRC = Path(clusterens.__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DUPLICATED = 40  # the last rows repeat the first ones

# (n, d, k, separation, heads, epochs[, smoothing_m[, theta]]): the
# benchmark's smoke sizes, and shapes at the default batch size of 256
SHAPES = {
    "quickstart": (300, 16, 5, 20.0, 3, 4),
    "train_heavy": (400, 48, 8, 3.0, 6, 1),
    "large_n": (600, 16, 6, 4.0, 3, 1),
    # 12 heads of 256 gathered float32 rows at d = 384: head blocks of 10 and 2
    "multi_block": (600, 384, 8, 3.0, 12, 1),
    # two draws per anchor, 512 gathered rows per head: head blocks of 5, 5 and 2
    "multi_block_smoothed": (600, 384, 8, 3.0, 12, 1, 2),
    # theta 1.0: every row falls to the k_min floor, whose cut the duplicated
    # rows tie, so the sets rest on the float64 settle of the cut's candidates
    "floor_only": (300, 16, 5, 4.0, 3, 1, 1, 1.0),
}


def write_inputs(work: Path, n, d, k, separation, heads, epochs, smoothing=1, theta=0.3,
                 seed=3):
    features, truth = gen_synthetic(SynthSpec(n=n, d=d, k=k, separation=separation, seed=seed))
    data = features.data.copy()
    data[-DUPLICATED:] = data[:DUPLICATED]
    labels = truth.labels.copy()
    labels[-DUPLICATED:] = labels[:DUPLICATED]
    save_features(EmbeddingMatrix(data), work / "features.fpk")
    save_labeling(Labeling(labels), work / "labels.lbl")
    (work / "run.cfg").write_text("".join(f"{key} = {value}\n" for key, value in {
        "features": "features.fpk", "labels": "labels.lbl", "output_dir": "run", "seed": seed,
        "neighbors.theta": theta, "neighbors.k_min": 5, "train.lr": 1e-3,
        "train.num_clusters": k, "train.num_heads": heads, "train.epochs": epochs,
        "train.warmup_epochs": 1, "train.smoothing_m": smoothing, "selftrain.steps": 300,
    }.items()))


def run_pipeline(work: Path, shape, threads: int) -> Path:
    """Run the pipeline in its own directory, so that every path it writes
    into its reports is the same relative path."""
    work.mkdir()
    write_inputs(work, *shape)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, "-m", "clusterens.cli", "pipeline", "--config", "run.cfg"],
        cwd=work, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return work / "run"


def without_timings(value):
    if isinstance(value, dict):
        return {k: without_timings(v) for k, v in value.items() if k != "wall_clock_s"}
    if isinstance(value, list):
        return [without_timings(v) for v in value]
    return value


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_artifacts_independent_of_blas_threads(tmp_path, workload):
    one = run_pipeline(tmp_path / "one", SHAPES[workload], 1)
    two = run_pipeline(tmp_path / "two", SHAPES[workload], 2)
    files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
    assert Path("consensus.lbl") in files
    for rel in files:
        a, b = (one / rel).read_bytes(), (two / rel).read_bytes()
        if rel == Path("manifest.json"):
            a, b = (without_timings(json.loads(x)) for x in (a, b))
        assert a == b, f"{workload}: {rel} differs between 1 and 2 BLAS threads"


KRYLOV_LABELS = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from clusterens import cspa
from test_ensemble import krylov_ensembles
for name, inputs, k, _ in krylov_ensembles():
    print(name, hashlib.sha256(cspa(inputs, k).labels.tobytes()).hexdigest())
"""


def test_cspa_block_krylov_labels_independent_of_blas_threads():
    """CSPA's eigenvectors move in their last bits with the BLAS thread
    count; its labels on these ensembles must not."""
    outputs = []
    for threads in (1, 2):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.update({var: str(threads) for var in BLAS_THREAD_VARS})
        proc = subprocess.run([sys.executable, "-c", KRYLOV_LABELS, str(Path(__file__).parent)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") == 4 and outputs[0] == outputs[1]
