"""The package runs on NumPy alone: no command loads scipy.

A fresh process imports ``clusterens.cli`` and runs ``gen-synth``, a
smoke-size ``pipeline``, the ``ensemble`` and ``selftrain`` stages again on
its run directory, ``train`` on the run's neighbor file, ``nn-analysis``,
``eval`` and ``predict`` through ``clusterens.cli.main``; afterwards no
``scipy`` module may be loaded.
scipy is installed for the tests, so an import anywhere in the package
would show here.
"""

import json
import subprocess
import sys
from pathlib import Path

import clusterens

SRC = Path(clusterens.__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from clusterens.cli import main
loaded = {"import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
config = "\\n".join([
    "features = f.fpk", "labels = l.lbl", "output_dir = run", "seed = 3",
    "neighbors.theta = 0.3", "neighbors.k_min = 5", "train.num_clusters = 3",
    "train.num_heads = 3", "train.epochs = 2", "train.warmup_epochs = 1",
    "train.batch_size = 32", "train.lr = 1e-3", "selftrain.steps = 50",
])
open("run.cfg", "w").write(config)
commands = [
    ["gen-synth", "--n", "90", "--d", "8", "--k", "3", "--seed", "3",
     "--features", "f.fpk", "--labels", "l.lbl"],
    ["pipeline", "--config", "run.cfg"],
    ["ensemble", "--run-dir", "run", "--k", "3"],
    ["selftrain", "--features", "f.fpk", "--pseudo-labels", "run/consensus.lbl",
     "--out", "run"],
    ["train", "--config", "run.cfg", "--neighbors", "run/neighbors.nns", "--out", "run2"],
    ["nn-analysis", "--features", "f.fpk", "--labels", "l.lbl"],
    ["eval", "--pred", "run/consensus.lbl", "--gt", "l.lbl"],
    ["predict", "--classifier", "run/classifier.clf", "--features", "f.fpk",
     "--out", "pred.lbl"],
]
codes = [main(argv) for argv in commands]
loaded["run"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_commands_load_no_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 8
    assert result["loaded"] == {"import": [], "run": []}
