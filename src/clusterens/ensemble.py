"""Cluster-ensemble consensus: count-form NMI objective, CSPA and MCLA.

The consensus labeling is the candidate maximizing the summed normalized
mutual information against every input labeling.  Mutual information and
entropies are kept in raw count form (no 1/n): MI is then nonnegative,
entropies nonpositive, and their ratio equals the familiar sqrt-normalized
NMI.  Candidate labelings come from two consensus functions, both read off
the n×ΣC hyperedge matrix Z of :func:`co_association`: CSPA partitions the
co-association S = Z·Zᵀ/H spectrally without forming it, and MCLA groups
the hyperedges (the columns of Z) into meta-clusters.  Any caller-supplied
extras join them (the pipeline passes the best head's labeling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.linalg import eigh, qr, svd
from scipy.spatial.distance import squareform

from .labeling import Labeling, canonicalize

# cap on CSPA's Lloyd refinement, which stops once no label changes
LLOYD_ITERATIONS = 100

__all__ = [
    "ContingencyTable",
    "contingency",
    "mutual_information",
    "entropy_count",
    "nmi",
    "anmi",
    "co_association",
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


def co_association(inputs: Sequence[Labeling]) -> sparse.csr_matrix:
    """The n×ΣC hyperedge matrix Z of the inputs, as CSR float64.

    Row i holds a 1 in the column of its cluster in each of the H inputs; the
    columns are the inputs' clusters, input by input, each in sorted-id
    order.  The co-association, the fraction of inputs placing each pair of
    samples together, is S = Z·Zᵀ/H and is never formed.
    """
    if len(inputs) == 0:
        raise ValueError("need at least one input labeling")
    n = inputs[0].n
    if any(lam.n != n for lam in inputs):
        raise ValueError("all labelings must cover the same samples")
    h = len(inputs)
    offsets = np.cumsum([0] + [lam.k for lam in inputs])
    columns = np.stack([lam.coding.codes + off for lam, off in zip(inputs, offsets)], axis=1)
    return sparse.csr_matrix(
        (np.ones(n * h), columns.ravel(), np.arange(0, n * h + 1, h)), shape=(n, int(offsets[-1]))
    )


def _average_linkage_cut(condensed: np.ndarray, k: int) -> np.ndarray:
    """Average-linkage agglomeration on a condensed distance vector, cut
    into at most k flat clusters (1-based ids)."""
    if condensed.size == 0:
        return np.ones(1, dtype=np.int64)
    tree = linkage(condensed, method="average")
    return fcluster(tree, t=min(k, tree.shape[0] + 1), criterion="maxclust").astype(np.int64)


def cspa(inputs: Sequence[Labeling], k: int) -> Labeling:
    """Consensus by a normalized spectral partition of the co-association S.

    The top eigenvectors of D^-1/2·S·D^-1/2, D holding the row sums of S,
    follow from the ΣC×ΣC Gram matrix of D^-1/2·Z (Z from
    :func:`co_association`), so memory is O(n·H + ΣC²).  They are
    discretized by the column-pivoted QR of Damle, Minden & Ying (2019),
    then refined by Lloyd iterations on the row-normalized eigenvectors;
    nothing is random.  Only eigenvectors of nonzero eigenvalues are used,
    so when S has rank below k (identical inputs with fewer than k
    clusters, say) the output holds at most rank(S) clusters.
    """
    z = co_association(inputs)
    if k < 1:
        raise ValueError("k must be >= 1")
    n, g = z.shape
    if k > n:
        raise ValueError(f"k={k} exceeds sample count n={n}")
    degree = z @ np.asarray(z.sum(axis=0)).ravel()  # row sums of H·S
    zs = sparse.diags(1.0 / np.sqrt(degree)) @ z
    gram = (zs.T @ zs).toarray()
    vals, vecs = eigh(gram, subset_by_index=[max(g - k, 0), g - 1])
    # the top eigenvalue is 1; drop those that are zero up to rounding
    keep = vals > g * np.finfo(np.float64).eps
    u = zs @ (vecs[:, keep] / np.sqrt(vals[keep]))  # unit columns
    m = u.shape[1]

    _, pivots = qr(u.T, mode="r", pivoting=True)
    w, _, vt = svd(u[pivots[:m]].T)
    labels = np.abs(u @ (w @ vt)).argmax(axis=1)

    norms = np.linalg.norm(u, axis=1, keepdims=True)
    x = np.divide(u, norms, out=np.zeros_like(u), where=norms > 0)
    for _ in range(LLOYD_ITERATIONS):
        sizes = np.bincount(labels, minlength=m)
        sums = np.stack([np.bincount(labels, weights=col, minlength=m) for col in x.T], axis=1)
        centers = sums / np.maximum(sizes, 1)[:, None]
        score = x @ centers.T - 0.5 * (centers * centers).sum(axis=1)
        score[:, sizes == 0] = -np.inf
        new = score.argmax(axis=1)
        if np.array_equal(new, labels):
            break
        labels = new
    return canonicalize(Labeling(labels))


def mcla(inputs: Sequence[Labeling], k: int) -> Labeling:
    """Consensus by grouping cluster hyperedges on Jaccard similarity.

    Every cluster of every input is a hyperedge over the samples (a column
    of :func:`co_association`).  Hyperedges are merged into k meta-clusters
    by average linkage on 1 - Jaccard, and each sample joins the
    meta-cluster where its average indicator membership is highest (ties
    going to the lowest meta-cluster index).  Meta-clusters that attract no
    samples are dropped, so the output may hold fewer than k clusters.
    """
    z = co_association(inputs)
    if k < 1:
        raise ValueError("k must be >= 1")
    inter = (z.T @ z).toarray()
    sizes = inter.diagonal()
    union = sizes[:, None] + sizes[None, :] - inter
    jaccard = inter / union

    flat = _average_linkage_cut(squareform(1.0 - jaccard, checks=False), k)
    # reindex meta-clusters by first appearance over the hyperedge order so
    # the argmax tie rule is well defined
    flat = canonicalize(Labeling(flat)).labels
    g = flat.size
    meta = sparse.csr_matrix((np.ones(g), (np.arange(g), flat - 1)))
    membership = (z @ meta).toarray() / np.bincount(flat)[1:]
    assigned = membership.argmax(axis=1) + 1
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
