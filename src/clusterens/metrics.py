"""Clustering evaluation: Hungarian-matched accuracy, NMI and ARI."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .ensemble import contingency, nmi
from .labeling import Labeling

__all__ = ["MetricsReport", "hungarian", "clustering_accuracy", "ari", "evaluate"]


@dataclass(frozen=True)
class MetricsReport:
    """ACC/NMI/ARI triple plus the predicted-to-truth cluster matching."""

    acc: float
    nmi: float
    ari: float
    matching: dict = field(default_factory=dict)

    def machine_block(self) -> dict:
        return {"acc": self.acc, "nmi": self.nmi, "ari": self.ari}


def hungarian(cost: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Minimum-cost one-to-one assignment on the smaller dimension.

    Returns the matched (row, col) pairs sorted by row, and the total cost.
    Rectangular matrices are solved directly (equivalent to zero-padding to
    square).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError("cost must be a nonempty 2-D matrix")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost entries must be finite")
    rows, cols = linear_sum_assignment(cost)
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    total = float(cost[rows, cols].sum())
    return pairs, total


def clustering_accuracy(pred: Labeling, gt: Labeling) -> tuple[float, dict]:
    """Best-map accuracy: Hungarian-match predicted clusters to classes.

    The matching maps predicted cluster ids to ground-truth class ids and is
    injective on the smaller side.
    """
    if pred.n != gt.n:
        raise ValueError(f"labelings differ in length: {pred.n} vs {gt.n}")
    table = contingency(pred, gt)
    pairs, _ = hungarian(-table.counts.astype(np.float64))
    mass = int(sum(table.counts[r, c] for r, c in pairs))
    matching = {int(table.row_ids[r]): int(table.col_ids[c]) for r, c in pairs}
    return mass / pred.n, matching


def ari(a: Labeling, b: Labeling) -> float:
    """Adjusted Rand index under the permutation-model expectation.

    A zero denominator only happens when both partitions are the same
    trivial partition (all-singletons or one cluster); that case scores 1.
    """
    if a.n != b.n:
        raise ValueError(f"labelings differ in length: {a.n} vs {b.n}")
    if a.n < 2:
        raise ValueError("ARI needs at least 2 samples")

    def comb2(x):
        return x * (x - 1.0) / 2.0

    table = contingency(a, b)
    sum_cells = float(comb2(table.counts).sum())
    sum_a = float(comb2(table.row_sums).sum())
    sum_b = float(comb2(table.col_sums).sum())
    total = float(comb2(table.n))
    expected = sum_a * sum_b / total
    denom = 0.5 * (sum_a + sum_b) - expected
    if denom == 0.0:
        return 1.0
    return (sum_cells - expected) / denom


def evaluate(pred: Labeling, gt: Labeling) -> MetricsReport:
    """Full metric report for a predicted labeling against ground truth."""
    acc, matching = clustering_accuracy(pred, gt)
    return MetricsReport(acc=acc, nmi=nmi(pred, gt), ari=ari(pred, gt), matching=matching)
