"""Span tracing of the pipeline's layers, from outside the package.

The traced run wraps module attributes that the pipeline looks up at call
time (``clusterens.heads.composite_loss_and_grads``, the names that
``clusterens.pipeline`` imports from other modules, ...), so no file of the
package changes.  Each call becomes a span: name, start, end, parent span
and run id, kept in memory and written out when the run ends.  A span's
self time is its duration minus that of its direct children; the spans of
one run nest under a single root, so their self times add up to the root's
duration.

The traced process must run single-threaded (``threads = 1``, the
default): spans from worker threads would nest under whatever span the
main thread has open.
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc
from collections import defaultdict

# (module, attribute path, span name, peak).  The span name is the layer
# that owns the function; the module is where the pipeline looks it up,
# which differs for names pipeline.py imports.  ``peak`` is False, True (the
# span records its peak traced allocation, with tracemalloc on for the
# call), or the name of a nested span: tracemalloc then stops when the
# first call of that span ends.  Head training repeats the same
# allocations every step, and tracemalloc on all of them would slow the
# layer it measures by about a third on the quickstart workload.
SEAMS = (
    ("clusterens.pipeline", "run_pipeline", "pipeline.run_pipeline", False),
    ("clusterens.pipeline", "validate_inputs", "pipeline.validate_inputs", False),
    ("clusterens.pipeline", "load_features", "featstore.load_features", False),
    ("clusterens.pipeline", "load_labeling", "labeling.load_labeling", False),
    ("clusterens.pipeline", "save_labeling", "labeling.save_labeling", False),
    ("clusterens.pipeline", "sha256_file", "pipeline.sha256_file", False),
    ("clusterens.pipeline", "evaluate", "metrics.evaluate", False),
    ("clusterens.pipeline", "build_sets_for_config", "pipeline.build_sets_for_config", False),
    ("clusterens.pipeline", "train_stage", "pipeline.train_stage", False),
    ("clusterens.pipeline", "ensemble_stage", "pipeline.ensemble_stage", False),
    ("clusterens.pipeline", "selftrain_stage", "pipeline.selftrain_stage", False),
    ("clusterens.neighbors", "build_neighbor_sets", "neighbors.build_neighbor_sets", True),
    ("clusterens.neighbors", "_similarity_matrix", "neighbors._similarity_matrix", False),
    ("clusterens.neighbors", "save_neighbor_sets", "neighbors.save_neighbor_sets", False),
    ("clusterens.heads", "train_heads", "heads.train_heads",
     "heads.composite_loss_and_grads"),
    ("clusterens.heads", "composite_loss_and_grads", "heads.composite_loss_and_grads", False),
    ("clusterens.heads", "sinkhorn_knopp", "heads.sinkhorn_knopp", False),
    ("clusterens.heads", "_AdamW.step", "heads._AdamW.step", False),
    ("clusterens.heads", "ema_update", "heads.ema_update", False),
    ("clusterens.heads", "predict_labeling", "heads.predict_labeling", False),
    ("clusterens.heads", "save_head_bank", "heads.save_head_bank", False),
    ("clusterens.ensemble", "supra_consensus_table", "ensemble.supra_consensus_table", True),
    ("clusterens.ensemble", "cspa", "ensemble.cspa", False),
    ("clusterens.ensemble", "co_association", "ensemble.co_association", False),
    ("clusterens.ensemble", "_average_linkage_cut", "ensemble._average_linkage_cut", False),
    ("clusterens.ensemble", "mcla", "ensemble.mcla", False),
    ("clusterens.ensemble", "nmi_pairwise", "ensemble.nmi_pairwise", False),
    ("clusterens.selftrain", "self_train", "selftrain.self_train", False),
    ("clusterens.selftrain", "ce_loss_and_grads", "selftrain.ce_loss_and_grads", False),
    ("clusterens.selftrain", "save_classifier", "selftrain.save_classifier", False),
    ("clusterens.selftrain", "predict", "selftrain.predict", False),
)

ROOT_SPAN = "run"


class Tracer:
    """In-memory span recorder for one run, on one thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # each span: [id, name, start, end, parent id, peak MB or None]
        self.spans: list[list] = []
        self._open: list[int] = []
        # (span holding the peak, span name whose end stops tracemalloc)
        self._memory: tuple[list, str] | None = None

    def begin(self, name: str, start: float | None = None) -> list:
        parent = self._open[-1] if self._open else None
        span = [len(self.spans), name, 0.0, 0.0, parent, None]
        self.spans.append(span)
        self._open.append(span[0])
        span[2] = time.monotonic() if start is None else start
        return span

    def end(self, span: list) -> None:
        span[3] = time.monotonic()
        self._open.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        self.spans.append([len(self.spans), name, start, end, parent, None])

    def wrap(self, owner, attr: str, name: str, peak=False) -> bool:
        """Replace ``owner.attr`` by a span-recording wrapper.

        Returns False, leaving everything as it is, when the seam does not
        exist.  ``peak`` is as in ``SEAMS``; the peak in MB is kept on the
        span that switched tracemalloc on.
        """
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return False
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            # a peak seam nested in another leaves the measurement to it
            if peak and not tracemalloc.is_tracing():
                tracemalloc.start()
                span = begin(name)
                self._memory = (span, name if peak is True else peak)
            else:
                span = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)
                memory = self._memory
                if memory is not None and (memory[1] == name or memory[0] is span):
                    memory[0][5] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                    self._memory = None

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        return True

    def install(self, seams=SEAMS) -> list[str]:
        """Wrap every seam that exists; return the span names left absent."""
        absent = []
        for module_name, path, name, peak in seams:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not self.wrap(owner, attr, name, peak):
                absent.append(name)
        return absent

    def to_json(self) -> list[dict]:
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
             "parent": s[4], "run": self.run_id, "peak_mb": s[5]}
            for s in self.spans
        ]


# ---------------------------------------------------------------------------
# analysis of a finished trace
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


class Absent(Exception):
    """A metric's seam was not installed, or the call never happened."""


class SpanTable:
    """Totals, medians and self times of a trace, by span name."""

    def __init__(self, spans: list[dict], absent: list[str]):
        self.absent = set(absent)
        self.by_name = defaultdict(list)
        self.self_by_name = defaultdict(float)
        names = {s["id"]: s["name"] for s in spans}
        self.parent_name = {s["id"]: names.get(s["parent"]) for s in spans}
        own = self_times(spans)
        for s in spans:
            self.by_name[s["name"]].append(s)
            self.self_by_name[s["name"]] += own[s["id"]]
        roots = [s for s in spans if s["parent"] is None]
        self.root_s = sum(s["end"] - s["start"] for s in roots)
        self.self_sum_s = sum(own.values())
        # self times add up to the root's duration only if the spans form
        # one tree whose children lie inside their parent, one at a time
        self.problems = [] if len(roots) == 1 else [f"{len(roots)} root spans"]
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            parent = by_id.get(s["parent"])
            if parent is not None and not (
                    parent["start"] <= s["start"] <= s["end"] <= parent["end"]):
                self.problems.append(f"span {s['id']} {s['name']} leaves its parent")
            if own[s["id"]] < -1e-9:
                self.problems.append(f"span {s['id']} {s['name']} has overlapping children")

    def _calls(self, name: str) -> list[dict]:
        if name in self.absent:
            raise Absent(name)
        return self.by_name.get(name, [])

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(
            s["end"] - s["start"]
            for s in self._calls(name)
            if parent is None or self.parent_name[s["id"]] == parent
        )

    def median(self, name: str) -> float:
        calls = self._calls(name)
        if not calls:
            raise Absent(name)
        return statistics.median(s["end"] - s["start"] for s in calls)

    def self_time(self, name: str) -> float:
        self._calls(name)
        return self.self_by_name.get(name, 0.0)

    def peak_mb(self, name: str) -> float:
        peaks = [s["peak_mb"] for s in self._calls(name) if s["peak_mb"] is not None]
        if not peaks:
            raise Absent(name)
        return max(peaks)


def loss_grads_flop(heads: int, batch: int, clusters: int, dim: int) -> int:
    """Computed flop count of one ``composite_loss_and_grads`` call.

    Six (H, B, C, d) contractions at two flops per multiply-add: the
    anchor and neighbor logits, the two weight-gradient terms and the two
    back-projections to feature space.  Element-wise work is O(H·B·(C+d))
    and left out.
    """
    return 12 * heads * batch * clusters * dim


def layer_metrics(spans: list[dict], absent: list[str], counts: dict):
    """Per-layer metrics of one traced run.

    ``counts`` holds what the caller computed outside the trace (shapes,
    neighbor pairs, distinct label vectors, ...).  Returns ``{name:
    value}``, the names whose seam was absent, and the span table.
    """
    t = SpanTable(spans, absent)
    steps, probe_steps = counts["heads.steps"], counts["selftrain.steps"]
    gflop = counts["heads.loss_grads_gflop"]
    recipes = {
        "featstore.load_s": lambda: t.total("featstore.load_features"),
        "neighbors.build_s": lambda: t.total("neighbors.build_neighbor_sets"),
        "neighbors.save_s": lambda: t.total("neighbors.save_neighbor_sets"),
        "neighbors.peak_mb": lambda: t.peak_mb("neighbors.build_neighbor_sets"),
        "heads.train_s": lambda: t.total("heads.train_heads"),
        "heads.loss_grads_ms": lambda: 1e3 * t.median("heads.composite_loss_and_grads"),
        "heads.loss_grads_gflop_per_s":
            lambda: gflop / t.median("heads.composite_loss_and_grads"),
        "heads.sinkhorn_ms": lambda: 1e3 * t.median("heads.sinkhorn_knopp"),
        "heads.adamw_ms": lambda: 1e3 * t.median("heads._AdamW.step"),
        "heads.ema_ms": lambda: 1e3 * t.total("heads.ema_update") / steps,
        "heads.step_self_ms": lambda: 1e3 * t.self_time("heads.train_heads") / steps,
        "heads.predict_labeling_s": lambda: t.total("heads.predict_labeling"),
        "heads.save_s": lambda: t.total("heads.save_head_bank"),
        "heads.peak_mb": lambda: t.peak_mb("heads.train_heads"),
        "ensemble.cspa_s": lambda: t.total("ensemble.cspa"),
        "ensemble.co_association_s": lambda: t.total("ensemble.co_association"),
        "ensemble.linkage_cspa_s":
            lambda: t.total("ensemble._average_linkage_cut", parent="ensemble.cspa"),
        "ensemble.mcla_s": lambda: t.total("ensemble.mcla"),
        "ensemble.anmi_s": lambda: t.total("ensemble.nmi_pairwise"),
        "ensemble.peak_mb": lambda: t.peak_mb("ensemble.supra_consensus_table"),
        "selftrain.train_s": lambda: t.total("selftrain.self_train"),
        "selftrain.step_us": lambda: 1e6 * t.median("selftrain.ce_loss_and_grads"),
        "selftrain.self_us": lambda: 1e6 * t.self_time("selftrain.self_train") / probe_steps,
        "selftrain.predict_s": lambda: t.total("selftrain.predict"),
        "metrics.evaluate_s": lambda: t.total("metrics.evaluate"),
        "pipeline.train_stage_s": lambda: t.total("pipeline.train_stage"),
        "pipeline.ensemble_stage_s": lambda: t.total("pipeline.ensemble_stage"),
        "pipeline.selftrain_stage_s": lambda: t.total("pipeline.selftrain_stage"),
        "pipeline.hash_s": lambda: t.total("pipeline.sha256_file"),
        "pipeline.self_s": lambda: t.self_time("pipeline.run_pipeline"),
    }
    values, missing = {}, []
    for name, recipe in recipes.items():
        try:
            values[name] = recipe()
        except Absent:
            missing.append(name)
    return values, missing, t
