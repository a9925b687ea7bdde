"""Cluster-ensemble consensus: the ANMI objective, CSPA and MCLA.

The consensus labeling is the candidate maximizing the summed normalized
mutual information (ANMI) against every input labeling, each NMI taken
from :func:`clusterens.metrics.nmi`.  Candidate labelings come from two
consensus functions, both read off the hyperedge column ids of
:func:`co_association`, the ones of the n×ΣC one-hot hyperedge matrix Z:
CSPA partitions the co-association S = Z·Zᵀ/H spectrally without forming
it, and MCLA groups the hyperedges (the columns of Z) into meta-clusters.
Any caller-supplied extras join them (the pipeline passes the best head's
labeling).

Everything runs on NumPy alone.  The Gram matrices of Z are filled from
:func:`clusterens.metrics.contingency` of each pair of inputs, and CSPA
reads the cluster sizes off the codings.  CSPA's top eigenvectors come from
subspace iteration with Rayleigh-Ritz on a block of k + 10 columns from a
fixed start, stopped on a stated residual bound, and from
``np.linalg.eigh`` when the bound is not met within a cap of about one
``eigh``'s cost.  The average linkage is a port of the
nearest-neighbor chain with scipy's tie rules, checked against scipy in the
tests.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .featstore import blocks
from .labeling import Labeling, canonicalize
from .metrics import contingency, nmi

# cap on CSPA's Lloyd refinement, which stops once no label changes
LLOYD_ITERATIONS = 100

# CSPA's eigensolver (see _top_eigenpairs): a block of k plus
# EIG_OVERSAMPLE columns; a Ritz pair is converged once its residual norm is
# at most EIG_TOL times the top eigenvalue; the residual's decay is judged
# over the last EIG_WINDOW iterations, from iteration 2·EIG_WINDOW on
EIG_OVERSAMPLE = 10
EIG_TOL = 1e-10
EIG_WINDOW = 8

__all__ = [
    "anmi",
    "co_association",
    "cspa",
    "mcla",
    "supra_consensus",
]


def nmi_pairwise(candidates: Sequence[Labeling], inputs: Sequence[Labeling]) -> list:
    """NMI of every (candidate, input) pair, one row per candidate."""
    return [[nmi(cand, lam) for lam in inputs] for cand in candidates]


def anmi(candidate: Labeling, inputs: Sequence[Labeling]) -> float:
    """Summed NMI between a candidate and every input labeling."""
    if len(inputs) == 0:
        raise ValueError("need at least one input labeling")
    return math.fsum(nmi(candidate, lam) for lam in inputs)


def co_association(inputs: Sequence[Labeling]) -> tuple[np.ndarray, int]:
    """The hyperedge columns of the inputs: an n×H int64 matrix and ΣC.

    Row i holds the column id of its cluster in each of the H inputs; the
    ΣC columns are the inputs' clusters, input by input, each in sorted-id
    order.  They are the ones of the n×ΣC one-hot hyperedge matrix Z, and
    the co-association, the fraction of inputs placing each pair of samples
    together, is S = Z·Zᵀ/H.  Neither Z nor S is formed.
    """
    if len(inputs) == 0:
        raise ValueError("need at least one input labeling")
    n = inputs[0].n
    if any(lam.n != n for lam in inputs):
        raise ValueError("all labelings must cover the same samples")
    offsets = np.cumsum([0] + [lam.k for lam in inputs])
    columns = np.stack([lam.coding.codes + off for lam, off in zip(inputs, offsets)], axis=1)
    return columns, int(offsets[-1])


def _gram(inputs: Sequence[Labeling], weights: np.ndarray | None = None) -> np.ndarray:
    """Zᵀ·diag(weights)·Z as a ΣC×ΣC float64 matrix, Z the one-hot
    hyperedge matrix of :func:`co_association` (unit weights if None).

    Block (a, b) is the contingency table of inputs a and b, each cell
    summed in sample order; block (b, a) is its transpose.  Memory is
    O(n + ΣC²).
    """
    edges = np.cumsum([0] + [lab.k for lab in inputs])
    spans = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    gram = np.empty((edges[-1], edges[-1]))
    for a, lab in enumerate(inputs):
        for b in range(a, len(inputs)):
            block = contingency(lab, inputs[b], weights)
            gram[spans[a], spans[b]] = block
            gram[spans[b], spans[a]] = block.T
    return gram


def _top_eigenpairs(gram: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The top min(k, g) eigenpairs of the symmetric positive semidefinite
    g×g ``gram``, eigenvalues ascending, as ``np.linalg.eigh``'s last columns.

    Subspace iteration with Rayleigh-Ritz (Rutishauser 1970) on a block of
    w = k + EIG_OVERSAMPLE orthonormal columns Q, started from a fixed
    Gaussian block (seed 0), so the result depends on the Gram alone.  Each
    iteration takes Z = G·Q, the top k eigenpairs (θ, y) of QᵀZ and the Ritz
    vectors v = Q·y; G·v is Z·y, so the residuals ‖G·v − θ·v‖ cost no
    further product with G.  The Ritz pairs are returned once every residual
    is at most EIG_TOL·θ_max; otherwise Q becomes the Householder QR of Z·Y,
    which stays orthonormal on a Gram of rank below w.  ``eigh`` decides
    instead when the bound is not met within 2·g/w iterations, whose
    products cost about one ``eigh``, or when the residual's decay over the
    last EIG_WINDOW iterations predicts it is met only past that cap.
    Memory is a few g×w arrays besides the Gram.
    """
    g = gram.shape[0]
    k = min(k, g)
    w = min(k + EIG_OVERSAMPLE, g)
    cap = 2 * g // w
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((g, w)))[0]
    resids = []
    for it in range(1, cap + 1):
        z = gram @ q
        theta, y = np.linalg.eigh(q.T @ z)
        zy = z @ y
        vals, vecs = theta[w - k:], q @ y[:, w - k:]
        bound = EIG_TOL * vals[-1]
        resids.append(np.linalg.norm(zy[:, w - k:] - vecs * vals, axis=0).max())
        if resids[-1] <= bound:
            return vals, vecs
        # the residual at the cap if it keeps the decay of the last EIG_WINDOW
        if it >= 2 * EIG_WINDOW and resids[-1] * (
                resids[-1] / resids[-1 - EIG_WINDOW]) ** ((cap - it) / EIG_WINDOW) > bound:
            break
        q = np.linalg.qr(zy)[0]
    vals, vecs = np.linalg.eigh(gram)
    return vals[g - k:], vecs[:, g - k:]


def _qr_pivots(u: np.ndarray, m: int) -> np.ndarray:
    """The first m pivots of a column-pivoted QR of uᵀ: each step takes the
    row of u with the largest residual norm (the first on ties) and
    projects it out of every row.  The projection and the new squared norms
    run one block of rows at a time, so no n×m temporary is made."""
    residual = u.copy()
    norms = np.einsum("ij,ij->i", residual, residual)
    pivots = np.empty(m, dtype=np.int64)
    for step in range(m):
        p = int(norms.argmax())
        q = residual[p] / np.linalg.norm(residual[p])
        coef = residual @ q
        for rows in blocks(len(u), 8 * u.shape[1]):
            block = residual[rows]
            block -= np.outer(coef[rows], q)
            norms[rows] = np.einsum("ij,ij->i", block, block)
        pivots[step] = p
    return pivots


def _average_linkage_cut(dist: np.ndarray, k: int) -> np.ndarray:
    """Average-linkage agglomeration on a symmetric g×g float64 distance
    matrix, cut into at most k flat clusters (1-based ids by first
    appearance).  The matrix is consumed: the merges overwrite it in place.

    The merges follow the nearest-neighbor chain of Müllner (2011): the
    previous chain element wins ties, otherwise the first index, and the
    merged cluster takes the slot of the larger index.  The cut applies
    every merge at or below the (g−k)-th smallest height.  The ties and the
    rounding are those of scipy's ``linkage(squareform(dist), "average")``,
    so the partition is that of ``fcluster(..., k, "maxclust")``.
    """
    g = dist.shape[0]
    if k >= g:
        return np.arange(1, g + 1, dtype=np.int64)
    np.fill_diagonal(dist, np.inf)  # merged-away slots read inf too
    size = np.ones(g)
    merges = []  # (slot x, slot y, height)
    chain = []
    for _ in range(g - 1):
        if not chain:
            chain.append(int(np.flatnonzero(size)[0]))
        while True:
            x = chain[-1]
            y = int(dist[x].argmin())
            if len(chain) > 1 and dist[x, chain[-2]] <= dist[x, y]:
                y = chain[-2]
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        merges.append((x, y, dist[x, y]))
        nx, ny = size[x], size[y]
        row = (nx * dist[x] + ny * dist[y]) / (nx + ny)  # Lance–Williams
        dist[y] = dist[:, y] = row
        dist[x] = dist[:, x] = np.inf
        size[x], size[y] = 0, nx + ny

    cutoff = np.sort([h for _, _, h in merges])[g - k - 1]
    parent = list(range(g))

    def root(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for x, y, height in merges:
        if height <= cutoff:
            parent[root(x)] = root(y)
    return canonicalize(Labeling([root(a) for a in range(g)])).labels


def _rank_cutoff(n: int, g: int) -> float:
    """The smallest eigenvalue of CSPA's g×g Gram over n samples counted as
    nonzero: 1024 times (n + g)·eps, the rounding bound of an eigenvalue that
    is exactly zero.  Each Gram entry sums up to n positive terms, and the
    eigensolver's backward error is a small multiple of g·eps, both relative
    to the top eigenvalue, 1."""
    return 1024 * (n + g) * np.finfo(np.float64).eps


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
    columns, g = co_association(inputs)
    if k < 1:
        raise ValueError("k must be >= 1")
    n = columns.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds sample count n={n}")
    # each sample's degree in H·S: the sizes of its H clusters, summed exactly
    degree = sum(lab.coding.counts[lab.coding.codes] for lab in inputs)
    scale = 1.0 / np.sqrt(degree.astype(np.float64))  # D^-1/2 of H·S
    # the Gram of D^-1/2·Z, weighted by scale·scale (the product each of its
    # terms is) rather than by 1/degree, which may differ in the last bit
    vals, vecs = _top_eigenpairs(_gram(inputs, scale * scale), k)
    # the top eigenvalue is 1; drop those that are zero up to rounding
    keep = vals > _rank_cutoff(n, g)
    basis = vecs[:, keep] / np.sqrt(vals[keep])
    m = basis.shape[1]
    # D^-1/2·Z·basis, unit columns, summed from the last input to the first
    # as scipy's CSR product of the same matrices sums it, bit for bit
    u = np.zeros((n, m))
    for col in columns.T[::-1]:
        u += scale[:, None] * basis[col]

    w, _, vt = np.linalg.svd(u[_qr_pivots(u, m)].T)
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
    columns, g = co_association(inputs)
    if k < 1:
        raise ValueError("k must be >= 1")
    dist = _gram(inputs)
    sizes = dist.diagonal().copy()
    # 1 - Jaccard = 1 - inter / union, one block of rows at a time in place in
    # the g×g Gram of intersections; bitwise symmetric, as the Gram is
    for rows in blocks(g, 8 * g):
        union = sizes[rows, None] + sizes
        union -= dist[rows]
        np.divide(dist[rows], union, out=dist[rows])
        np.subtract(1.0, dist[rows], out=dist[rows])

    # meta-clusters are numbered by first appearance over the hyperedge
    # order, so the argmax tie rule is well defined
    meta = _average_linkage_cut(dist, k) - 1
    del dist
    n_meta = int(meta.max()) + 1
    n = columns.shape[0]
    hits = np.bincount((np.arange(n)[:, None] * n_meta + meta[columns]).ravel(),
                       minlength=n * n_meta).reshape(n, n_meta)
    membership = hits / np.bincount(meta)
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
    names = ["cspa", "mcla", *extra_names,
             *(f"extra_{i}" for i in range(len(extra_names), len(extra_candidates)))]
    candidates = [cspa(inputs, k), mcla(inputs, k), *extra_candidates]
    scores = [math.fsum(row) for row in nmi_pairwise(candidates, inputs)]
    rows = list(zip(names, scores, candidates))
    # max keeps the first of equal scores
    return rows, max(range(len(rows)), key=lambda i: scores[i])
