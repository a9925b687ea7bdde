"""Clustering evaluation: Hungarian-matched accuracy, NMI and ARI.

The assignment behind the accuracy is a pure-Python port of the shortest
augmenting path solver of Crouse (2016), with the tie rules of
``scipy.optimize.linear_sum_assignment``, so the reported matching is the
one that solver finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


def _linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment of a finite cost matrix as (rows, cols).

    Rows are added one at a time along a shortest augmenting path on the
    reduced costs (Crouse 2016).  Columns are scanned from the last, and
    among columns tied at the lowest path cost the last unassigned one wins,
    otherwise the first; a tall matrix is solved transposed.  These are the
    rules of scipy's solver, so ties resolve as there.  Plain Python floats
    keep the small matrices of cluster matching fast.
    """
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    c = cost.tolist()
    u = [0.0] * nr
    v = [0.0] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    path = [-1] * nc
    for cur in range(nr):
        shortest = [math.inf] * nc
        seen_rows, seen_cols = [], []
        remaining = list(range(nc - 1, -1, -1))
        min_val = 0.0
        i, sink = cur, -1
        while sink == -1:
            seen_rows.append(i)
            index, lowest = -1, math.inf
            row, ui = c[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # update the duals, then augment along the path
        u[cur] += min_val
        for i in seen_rows:
            if i != cur:
                u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    cols = np.array(col4row, dtype=np.int64)
    if transpose:
        order = np.argsort(cols)
        return cols[order], order
    return np.arange(nr), cols


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
    rows, cols = _linear_sum_assignment(cost)
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    total = float(cost[rows, cols].sum())
    return pairs, total


def clustering_accuracy(pred: Labeling, gt: Labeling) -> tuple[float, dict]:
    """Best-map accuracy: Hungarian-match predicted clusters to classes.

    The matching maps predicted cluster ids to ground-truth class ids and is
    injective on the smaller side.
    """
    table = contingency(pred, gt)
    rows, cols = _linear_sum_assignment(-table.counts.astype(np.float64))  # rows ascend
    matching = dict(zip(table.row_ids[rows].tolist(), table.col_ids[cols].tolist()))
    return int(table.counts[rows, cols].sum()) / pred.n, matching


def ari(a: Labeling, b: Labeling) -> float:
    """Adjusted Rand index under the permutation-model expectation.

    A zero denominator only happens when both partitions are the same
    trivial partition (all-singletons or one cluster); that case scores 1.
    """
    table = contingency(a, b)  # refuses unequal lengths
    if a.n < 2:
        raise ValueError("ARI needs at least 2 samples")

    def comb2(x):
        return x * (x - 1.0) / 2.0

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
