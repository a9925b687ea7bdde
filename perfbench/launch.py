"""Run one ``clusterens`` command in a fresh process, as the console script
does (``clusterens.cli.main``), and record when its inputs were ready.

    python3 perfbench/launch.py MODE OUT_JSON LAUNCHED_AT [SECONDS] -- ARGS...

``ARGS`` are the ``clusterens`` arguments, e.g. ``pipeline --config run.cfg``.
``LAUNCHED_AT`` is the parent's ``time.monotonic()`` taken just before it
started this process (the clock is system-wide).  ``MODE`` is

- ``run``: run the command; record the set-up mark only.
- ``setup``: stop, with exit code 0, as soon as the features and labels
  are loaded and validated.
- ``predict``: as ``setup``, then time ``load_classifier`` +
  ``predict`` of ``run/classifier.clf`` on the loaded features,
  repeatedly for ``SECONDS`` after three warm-up calls.
- ``trace``: run the command with every layer seam in ``tracing.SEAMS``
  wrapped, and record the spans.

``OUT_JSON`` receives ``{"launched", "setup_done", "ended", "absent",
"spans", "predict_s"}``.  The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODES = ("run", "setup", "predict", "trace")
PREDICT_WARMUP = 3


class _SetupDone(BaseException):
    """Stops the command after set-up; the CLI only handles ``Exception``."""


def time_predict(features, seconds: float) -> list[float]:
    from clusterens.selftrain import load_classifier, predict

    def once() -> float:
        t0 = time.perf_counter()
        predict(load_classifier("run/classifier.clf"), features)
        return time.perf_counter() - t0

    for _ in range(PREDICT_WARMUP):
        once()
    times = []
    stop_at = time.monotonic() + seconds
    while not times or time.monotonic() < stop_at:
        times.append(once())
    return times


def main(argv: list[str]) -> int:
    entered = time.monotonic()
    split = argv.index("--") if "--" in argv else -1
    if split not in (3, 4) or argv[0] not in MODES:
        raise SystemExit(f"usage: {__doc__.splitlines()[3].strip()}")
    mode, out_path, launched = argv[0], Path(argv[1]), float(argv[2])
    predict_seconds = float(argv[3]) if split == 4 else 0.0
    cli_args = argv[split + 1:]
    sys.path.insert(0, str(SRC))
    record = {"launched": launched, "setup_done": None, "absent": [], "spans": [],
              "predict_s": []}

    tracer = None
    if mode == "trace":
        from tracing import ROOT_SPAN, Tracer

        tracer = Tracer(run_id=out_path.stem)
        root = tracer.begin(ROOT_SPAN, start=launched)
        tracer.record("process.startup", launched, entered)
        span = tracer.begin("process.import")
        import clusterens.cli as cli

        tracer.end(span)
        record["absent"] = tracer.install()
    else:
        import clusterens.cli as cli
    import clusterens.pipeline as pl

    validate = pl.validate_inputs
    inputs = []

    def validate_and_mark(cfg):
        result = validate(cfg)
        record["setup_done"] = time.monotonic()
        if mode in ("setup", "predict"):
            inputs.append(result)
            raise _SetupDone
        return result

    pl.validate_inputs = validate_and_mark
    span = tracer.begin("cli.main") if tracer else None
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    if tracer:
        tracer.end(span)
        tracer.end(root)
        record["spans"] = tracer.to_json()
    if mode == "predict":
        features, _ = inputs[0]
        record["predict_s"] = time_predict(features, predict_seconds)
    record["ended"] = time.monotonic()
    out_path.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
