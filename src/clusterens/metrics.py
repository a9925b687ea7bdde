"""Comparison of two labelings: contingency counts, NMI, accuracy and ARI.

Every score reads the two labelings' contingency matrix and their cached
codings.  MI and entropies are in raw count form (no 1/n), whose ratio is
the sqrt-normalized NMI; the consensus stage sums it into its objective.

The assignment behind the accuracy is a pure-Python port of the shortest
augmenting path solver of Crouse (2016), with the tie rules of
``scipy.optimize.linear_sum_assignment``, so the reported matching is the
one that solver finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .labeling import Labeling

__all__ = ["contingency", "mutual_information", "entropy_count", "nmi", "MetricsReport",
           "hungarian", "clustering_accuracy", "ari", "evaluate"]


def contingency(a: Labeling, b: Labeling, weights: np.ndarray | None = None) -> np.ndarray:
    """The (a.k, b.k) int64 matrix of cluster co-occurrence counts between
    two equal-length labelings, rows and columns in sorted-id order.  With
    per-sample ``weights``, each cell is instead the float64 sum of its
    samples' weights, added in sample order."""
    if a.n != b.n:
        raise ValueError(f"labelings differ in length: {a.n} vs {b.n}")
    counts = np.bincount(a.coding.codes * b.k + b.coding.codes, weights, minlength=a.k * b.k)
    return counts.reshape(a.k, b.k)


def mutual_information(counts: np.ndarray) -> float:
    """Count-form mutual information of a contingency matrix:
    sum n_hl * log(n * n_hl / (n_h * n_l)), n and the margins its sums.

    Terms are combined with an exactly rounded sum so the value is
    independent of cell order (hence exactly symmetric in the labelings).
    """
    n = float(counts.sum())
    outer = np.outer(counts.sum(axis=1), counts.sum(axis=0)).astype(np.float64)
    cells = counts.astype(np.float64)
    mask = cells > 0
    return math.fsum(cells[mask] * np.log(n * cells[mask] / outer[mask]))


def entropy_count(labeling: Labeling) -> float:
    """Count-form entropy: sum n_h * log(n_h / n) (nonpositive)."""
    counts = labeling.coding.counts.astype(np.float64)
    return math.fsum(counts * np.log(counts / labeling.n))


def nmi(a: Labeling, b: Labeling) -> float:
    """Normalized mutual information MI / sqrt(H(a) * H(b)), in [0, 1].

    Single-cluster labelings have zero entropy; any comparison involving one
    returns 0 by convention.
    """
    counts = contingency(a, b)  # refuses unequal lengths
    ha, hb = entropy_count(a), entropy_count(b)
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return min(max(mutual_information(counts) / math.sqrt(ha * hb), 0.0), 1.0)


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
    counts = contingency(pred, gt)
    rows, cols = _linear_sum_assignment(-counts.astype(np.float64))  # rows ascend
    matching = dict(zip(pred.coding.ids[rows].tolist(), gt.coding.ids[cols].tolist()))
    return int(counts[rows, cols].sum()) / pred.n, matching


def ari(a: Labeling, b: Labeling) -> float:
    """Adjusted Rand index under the permutation-model expectation.

    A zero denominator only happens when both partitions are the same
    trivial partition (all-singletons or one cluster); that case scores 1.
    """
    counts = contingency(a, b)  # refuses unequal lengths
    if a.n < 2:
        raise ValueError("ARI needs at least 2 samples")

    def comb2(x):
        return x * (x - 1.0) / 2.0

    sum_cells = float(comb2(counts).sum())
    sum_a = float(comb2(a.coding.counts).sum())
    sum_b = float(comb2(b.coding.counts).sum())
    total = float(comb2(a.n))
    expected = sum_a * sum_b / total
    denom = 0.5 * (sum_a + sum_b) - expected
    if denom == 0.0:
        return 1.0
    return (sum_cells - expected) / denom


def evaluate(pred: Labeling, gt: Labeling) -> MetricsReport:
    """Full metric report for a predicted labeling against ground truth."""
    acc, matching = clustering_accuracy(pred, gt)
    return MetricsReport(acc=acc, nmi=nmi(pred, gt), ari=ari(pred, gt), matching=matching)
