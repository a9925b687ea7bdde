"""Cluster-ensemble consensus: count-form NMI objective, CSPA and MCLA.

The consensus labeling is the candidate maximizing the summed normalized
mutual information against every input labeling.  Mutual information and
entropies are kept in raw count form (no 1/n): MI is then nonnegative,
entropies nonpositive, and their ratio equals the familiar sqrt-normalized
NMI.  Candidate labelings come from two consensus functions (CSPA on the
co-association matrix, MCLA on the cluster-hyperedge meta-graph) plus
any caller-supplied extras (the pipeline passes the best head's labeling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from .errors import ConfigError
from .labeling import Labeling, canonicalize
from .neighbors import _block_rows

MEMINFO = "/proc/meminfo"  # MemAvailable, for the CSPA memory preflight

__all__ = [
    "ContingencyTable",
    "contingency",
    "mutual_information",
    "entropy_count",
    "nmi",
    "anmi",
    "co_association",
    "check_cspa_memory",
    "cspa",
    "mcla",
    "supra_consensus",
]


@dataclass(frozen=True)
class ContingencyTable:
    """Co-occurrence counts between the clusters of two labelings, with each
    labeling's sorted cluster ids and cluster sizes (the table's margins)."""

    counts: np.ndarray
    row_ids: np.ndarray
    col_ids: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray

    @property
    def n(self) -> int:
        return int(self.row_sums.sum())


def contingency(a: Labeling, b: Labeling) -> ContingencyTable:
    """Exact cluster co-occurrence counts between two equal-length labelings."""
    if a.n != b.n:
        raise ValueError(f"labelings differ in length: {a.n} vs {b.n}")
    ca, cb = a.coding, b.coding
    counts = np.bincount(ca.codes * b.k + cb.codes, minlength=a.k * b.k)
    return ContingencyTable(counts.reshape(a.k, b.k), ca.ids, cb.ids, ca.counts, cb.counts)


def mutual_information(table: ContingencyTable) -> float:
    """Count-form mutual information: sum n_hl * log(n * n_hl / (n_h * n_l)).

    Terms are combined with an exactly rounded sum so the value is
    independent of cell order (hence exactly symmetric in the labelings).
    """
    counts = table.counts.astype(np.float64)
    n = float(table.n)
    outer = np.outer(table.row_sums, table.col_sums).astype(np.float64)
    mask = counts > 0
    return math.fsum(counts[mask] * np.log(n * counts[mask] / outer[mask]))


def _entropy_of_counts(counts: np.ndarray, n: int) -> float:
    counts = counts.astype(np.float64)
    return math.fsum(counts * np.log(counts / n))


def entropy_count(labeling: Labeling) -> float:
    """Count-form entropy: sum n_h * log(n_h / n) (nonpositive)."""
    return _entropy_of_counts(labeling.coding.counts, labeling.n)


def nmi(a: Labeling, b: Labeling) -> float:
    """Normalized mutual information MI / sqrt(H(a) * H(b)), in [0, 1].

    Single-cluster labelings have zero entropy; any comparison involving one
    returns 0 by convention.
    """
    table = contingency(a, b)
    ha = entropy_count(a)
    hb = entropy_count(b)
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return min(max(mutual_information(table) / math.sqrt(ha * hb), 0.0), 1.0)


def nmi_pairwise(candidates: Sequence[Labeling], inputs: Sequence[Labeling]) -> list:
    """NMI of every (candidate, input) pair, one row per candidate."""
    return [[nmi(cand, lam) for lam in inputs] for cand in candidates]


def anmi(candidate: Labeling, inputs: Sequence[Labeling]) -> float:
    """Summed NMI between a candidate and every input labeling."""
    if len(inputs) == 0:
        raise ValueError("need at least one input labeling")
    return math.fsum(nmi(candidate, lam) for lam in inputs)


def co_association(inputs: Sequence[Labeling]) -> np.ndarray:
    """Fraction of input labelings placing each pair of samples together, as
    float64 in scipy's condensed (``pdist``) order, counted a block of rows
    at a time in the smallest unsigned type that holds len(inputs)."""
    if len(inputs) == 0:
        raise ValueError("need at least one input labeling")
    n = inputs[0].n
    if any(lam.n != n for lam in inputs):
        raise ValueError("all labelings must cover the same samples")
    lab = np.stack([lam.labels for lam in inputs])
    h = len(inputs)
    out = np.empty(n * (n - 1) // 2, dtype=np.float64)
    step = _block_rows(n)
    start = 0
    for a in range(0, n, step):
        b = min(a + step, n)
        # counts of rows [a, b) against columns [a + 1, n); row i's pairs
        # (i, j > i) are its entries from column i - a on
        count = np.zeros((b - a, n - a - 1), dtype=np.min_scalar_type(h))
        for row in lab:
            np.add(count, row[a:b, None] == row[None, a + 1:], out=count)
        upper = count[np.arange(n - a - 1) >= np.arange(b - a)[:, None]]
        np.divide(upper, h, out=out[start:start + upper.size])
        start += upper.size
    return out


def check_cspa_memory(n: int) -> None:
    """Raise ConfigError when CSPA over n samples would not fit in memory.

    CSPA holds the condensed co-association and scipy's linkage copies it:
    about 8·n(n-1) bytes, compared with ``MemAvailable`` of ``MEMINFO``.
    The check is skipped when that cannot be read.
    """
    try:
        with open(MEMINFO, encoding="ascii") as f:
            available = next(
                int(line.split()[1]) * 1024 for line in f if line.startswith("MemAvailable:")
            )
    except (OSError, ValueError, IndexError, StopIteration):
        return
    need = 8 * n * (n - 1)
    if need > available:
        raise ConfigError(
            f"CSPA over n={n} samples needs about {need} bytes of memory, "
            f"but only {available} bytes are available"
        )


def _average_linkage_cut(condensed: np.ndarray, k: int) -> np.ndarray:
    """Average-linkage agglomeration on a condensed distance vector, cut
    into at most k flat clusters (1-based ids)."""
    if condensed.size == 0:
        return np.ones(1, dtype=np.int64)
    tree = linkage(condensed, method="average")
    return fcluster(tree, t=min(k, tree.shape[0] + 1), criterion="maxclust").astype(np.int64)


def cspa(inputs: Sequence[Labeling], k: int) -> Labeling:
    """Consensus by clustering the co-association matrix.

    Samples are grouped into k clusters by average-linkage agglomerative
    clustering on distance 1 - S, formed in place on the condensed S.
    """
    if len(inputs) == 0:
        raise ValueError("need at least one input labeling")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = inputs[0].n
    if k > n:
        raise ValueError(f"k={k} exceeds sample count n={n}")
    check_cspa_memory(n)
    s = co_association(inputs)
    np.subtract(1.0, s, out=s)
    flat = _average_linkage_cut(s, k)
    return canonicalize(Labeling(flat))


def mcla(inputs: Sequence[Labeling], k: int) -> Labeling:
    """Consensus by grouping cluster hyperedges on Jaccard similarity.

    Every cluster of every input is a hyperedge over the samples.  Hyperedges
    are merged into k meta-clusters by average linkage on 1 - Jaccard, and
    each sample joins the meta-cluster where its average indicator membership
    is highest (ties going to the lowest meta-cluster index).  Meta-clusters
    that attract no samples are dropped, so the output may hold fewer than k
    clusters.
    """
    if len(inputs) == 0:
        raise ValueError("need at least one input labeling")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = inputs[0].n
    if any(lam.n != n for lam in inputs):
        raise ValueError("all labelings must cover the same samples")
    # one row per cluster of each input, in sorted-id order
    indicators = np.concatenate(
        [lam.coding.codes == np.arange(lam.k)[:, None] for lam in inputs]
    ).astype(np.float64)

    inter = indicators @ indicators.T
    sizes = indicators.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - inter
    jaccard = inter / union

    flat = _average_linkage_cut(squareform(1.0 - jaccard, checks=False), k)
    # reindex meta-clusters by first appearance over the hyperedge order so
    # the argmax tie rule is well defined
    flat = canonicalize(Labeling(flat)).labels
    n_meta = int(flat.max())
    membership = np.zeros((n_meta, n))
    for meta in range(1, n_meta + 1):
        membership[meta - 1] = indicators[flat == meta].mean(axis=0)
    assigned = membership.argmax(axis=0) + 1
    return canonicalize(Labeling(assigned))


def supra_consensus(
    inputs: Sequence[Labeling],
    k: int,
    extra_candidates: Sequence[Labeling] = (),
) -> Labeling:
    """Pick the candidate labeling with the highest summed NMI to the inputs.

    Candidates are the CSPA and MCLA results plus any extras, considered in
    that order; ties keep the earliest candidate.
    """
    rows, best_idx = supra_consensus_table(inputs, k, extra_candidates)
    return rows[best_idx][2]


def supra_consensus_table(
    inputs: Sequence[Labeling],
    k: int,
    extra_candidates: Sequence[Labeling] = (),
    extra_names: Sequence[str] = (),
):
    """Like :func:`supra_consensus` but also returns the per-candidate ANMI
    scores as (name, score, labeling) rows for reporting."""
    if len(inputs) == 0:
        raise ValueError("need at least one input labeling")
    names = ["cspa", "mcla"] + [
        extra_names[i] if i < len(extra_names) else f"extra_{i}"
        for i in range(len(extra_candidates))
    ]
    candidates = [cspa(inputs, k), mcla(inputs, k)]
    candidates.extend(extra_candidates)
    scores = [math.fsum(row) for row in nmi_pairwise(candidates, inputs)]
    rows = [
        (name, score, cand) for name, score, cand in zip(names, scores, candidates)
    ]
    best_idx = 0
    for i, row in enumerate(rows):
        if row[1] > rows[best_idx][1]:
            best_idx = i
    return rows, best_idx
