"""Neighbor mining gives the same NNS1 bytes under another OpenBLAS kernel.

Mining ranks cosines from a float32 product, whose bits depend on the
kernel OpenBLAS picks for the CPU, and settles every choice near the
threshold or the k_min cut by its float64 cosine.  So the sets, unlike the
trained checkpoints, must not depend on the kernel.  Each side runs in a
fresh process, once under the kernel OpenBLAS picks and once under
``OPENBLAS_CORETYPE=Sandybridge``; the test skips where that switch does
not change the bits of a float32 product, since it then shows nothing.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import clusterens

SRC = Path(clusterens.__file__).resolve().parent.parent

CHILD = """
import hashlib, sys
import numpy as np
from clusterens import SynthSpec, gen_synthetic
from clusterens.neighbors import build_neighbor_sets, save_neighbor_sets

a = np.random.default_rng(0).standard_normal((300, 64)).astype(np.float32)
print(hashlib.sha256((a @ a.T).tobytes()).hexdigest())
features, _ = gen_synthetic(SynthSpec(n=1200, d=64, k=6, separation=1.0, seed=3))
save_neighbor_sets(build_neighbor_sets(features, theta=0.3, k_min=5), sys.argv[1])
"""


def mine(path: Path, coretype=None) -> tuple[str, bytes]:
    """The float32 product's hash and the NNS1 bytes, from a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", CHILD, str(path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip(), path.read_bytes()


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OPENBLAS_CORETYPE selects x86-64 kernels")
def test_mining_does_not_depend_on_the_blas_kernel(tmp_path):
    gemm, nns = mine(tmp_path / "default.nns")
    gemm_sb, nns_sb = mine(tmp_path / "sandybridge.nns", "Sandybridge")
    if gemm == gemm_sb:
        pytest.skip("OPENBLAS_CORETYPE=Sandybridge left a float32 product's bits unchanged")
    assert hashlib.sha256(nns).hexdigest() == hashlib.sha256(nns_sb).hexdigest()
