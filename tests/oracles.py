"""Independent reference implementations used to check the package.

Everything here is deliberately brute force (enumeration, pair counting,
probability-form entropies) and shares no code with the implementations
under test.  The exception is the einsum formulation of the head loss,
gradients and teacher forward at the end: it is the formulation the GEMM
kernels replaced, kept verbatim with its own copy of the row softmax, and it
reuses the package's ``sinkhorn_knopp``, which has tests of its own.
``pmi_pair_loss`` and ``ce_term`` are the head objective for one (x, x')
pair, as the package carried it beside the batched kernel, kept verbatim;
``unfolded_head_probs`` is a head's forward pass with the standardizer
affine applied to the whole-array standardized rows rather than folded
into the head.  The
dense neighbor mining is likewise the formulation row-block mining
replaced, kept verbatim (one thread), and so are the dense n×n
co-association matrix and the average-linkage CSPA on it, which the
factored co-association and the spectral CSPA replaced.  The contingency table, MI, NMI, ARI, accuracy and MCLA
that ran ``np.unique`` on the cluster ids in every call, before each
labeling cached its coding, are kept verbatim too, with ``canonicalize``;
they reuse the package's ``hungarian`` and ``_average_linkage_cut``.
``out_of_place_sinkhorn_knopp`` is ``sinkhorn_knopp`` as it was before it
normalized in place, and before it kept the normalizations as scaling
vectors, and ``fixed_budget_self_train`` is ``self_train`` as it
was before it stopped once the probe reproduces the pseudo-labels: both are
copied verbatim, and the latter reuses the package's ``ce_loss_and_grads``,
standardizer and ``Classifier``.  ``PerKeyAdamW``, ``ema_update`` and
``per_key_ema_update`` are the optimizer and teacher EMA as they ran once
per parameter array, before each parameter copy became one flat buffer,
copied verbatim.  ``two_sided_loss_and_grads`` is ``composite_loss_and_grads``
as it ran one side of each pair at a time, with a float64 copy of the
teacher's logits, copied verbatim; it reuses the package's folding, logit,
softmax and Sinkhorn-Knopp helpers and ``featstore.blocks``.
``eigh_cspa`` is ``cspa`` as it took every eigenpair of its Gram from
``np.linalg.eigh``, before the block Krylov solver, and ``outer_qr_pivots``
its column-pivoted QR as it projected with one n×m outer product per
pivot: both copied verbatim, reusing the package's co-association, Gram,
rank cutoff and Lloyd cap.

scipy is a test-only dependency, and its routines are the references for
the package's NumPy ports: ``linkage``/``fcluster`` in
``_dense_average_linkage_cut`` (and, in the tests, for
``_average_linkage_cut``), ``scipy.optimize.linear_sum_assignment`` for the
assignment behind ``hungarian``, and ``scipy_cspa``, the spectral CSPA as it
ran on the CSR hyperedge matrix with ``scipy.sparse`` products and
``scipy.linalg``'s ``eigh``, ``qr`` and ``svd``, kept verbatim.
"""

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.linalg import eigh, qr, svd
from scipy.spatial.distance import squareform

from clusterens.ensemble import (
    LLOYD_ITERATIONS,
    _average_linkage_cut,
    _gram,
    _rank_cutoff,
    co_association,
)
from clusterens.errors import TrainingError
from clusterens.featstore import (
    VAR_EPS, EmbeddingMatrix, NormStats, blocks, fit_standardizer, unit_rows,
)
from clusterens.heads import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, CE_PROB_FLOOR, _exp_normalize, _fold, _own_logits,
    _param_views, _shared_logits, _softmax_lse, sinkhorn_knopp,
)
from clusterens.labeling import Labeling, canonicalize
from clusterens.metrics import hungarian
from clusterens.selftrain import Classifier, SelfTrainConfig, ce_loss_and_grads


def set_partitions(n):
    """All partitions of range(n) as canonical label tuples (1-based,
    first-appearance order), via restricted growth strings."""
    labels = [0] * n

    def rec(i, max_used):
        if i == n:
            yield tuple(v + 1 for v in labels)
            return
        for v in range(max_used + 2):
            labels[i] = v
            yield from rec(i + 1, max(max_used, v))

    yield from rec(0, -1)


def contingency_counts(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    ua = sorted(set(a.tolist()))
    ub = sorted(set(b.tolist()))
    table = np.zeros((len(ua), len(ub)), dtype=np.int64)
    for x, y in zip(a, b):
        table[ua.index(x), ub.index(y)] += 1
    return table


def brute_force_acc(pred, gt):
    """Best accuracy over every injective map from the smaller cluster set
    into the larger one."""
    table = contingency_counts(pred, gt)
    r, c = table.shape
    if r <= c:
        candidates = (
            sum(table[i, m[i]] for i in range(r)) for m in permutations(range(c), r)
        )
    else:
        candidates = (
            sum(table[m[j], j] for j in range(c)) for m in permutations(range(r), c)
        )
    return max(candidates) / len(pred)


def nmi_prob_form(a, b):
    """Probability-form NMI: Shannon MI over sqrt of Shannon entropies.

    Marginals come from integer counts so single-cluster entropies are
    exactly zero.
    """
    table = contingency_counts(a, b)
    n = int(table.sum())
    pi = table.sum(axis=1) / n
    pj = table.sum(axis=0) / n
    pij = table / n
    mi = 0.0
    for i in range(len(pi)):
        for j in range(len(pj)):
            if pij[i, j] > 0:
                mi += pij[i, j] * np.log(pij[i, j] / (pi[i] * pj[j]))
    ha = -sum(p * np.log(p) for p in pi if p > 0)
    hb = -sum(p * np.log(p) for p in pj if p > 0)
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return mi / np.sqrt(ha * hb)


def ari_pair_counts(a, b):
    """ARI from direct pair counting: 2(ad - bc) / ((a+b)(b+d) + (a+c)(c+d))."""
    a = list(a)
    b = list(b)
    ss = sd = ds = dd = 0
    for i, j in combinations(range(len(a)), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        if same_a and same_b:
            ss += 1
        elif same_a:
            sd += 1
        elif same_b:
            ds += 1
        else:
            dd += 1
    denom = (ss + sd) * (sd + dd) + (ss + ds) * (ds + dd)
    if denom == 0:
        return 1.0
    return 2.0 * (ss * dd - sd * ds) / denom


def brute_force_assignment(cost):
    """Minimum-cost one-to-one assignment by enumerating injections of the
    smaller dimension into the larger."""
    cost = np.asarray(cost, dtype=np.float64)
    r, c = cost.shape
    best = np.inf
    if r <= c:
        for m in permutations(range(c), r):
            best = min(best, sum(cost[i, m[i]] for i in range(r)))
    else:
        for m in permutations(range(r), c):
            best = min(best, sum(cost[m[j], j] for j in range(c)))
    return best


def brute_force_neighbor_sets(data, theta, k_min):
    """O(n^2) reference of thresholded cosine neighbor selection."""
    data = np.asarray(data, dtype=np.float64)
    n = len(data)
    floor = min(k_min, n - 1)
    out = []
    for x in range(n):
        sims = []
        for y in range(n):
            if y == x:
                continue
            u, v = data[x], data[y]
            s = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
            sims.append((min(1.0, max(-1.0, s)), y))
        sims.sort(key=lambda t: (-t[0], t[1]))
        selected = [y for s, y in sims if s >= theta]
        if len(selected) < floor:
            selected = [y for _, y in sims[:floor]]
        out.append(selected)
    return out


# ---------------------------------------------------------------------------
# dense neighbor mining (the formulation before row-block mining)
# ---------------------------------------------------------------------------


def dense_similarity_matrix(features) -> np.ndarray:
    norms = np.linalg.norm(features.data, axis=1)
    if (norms == 0).any():
        row = int(np.nonzero(norms == 0)[0][0])
        raise ValueError(f"zero-norm feature row {row}; cosine similarity undefined")
    unit = features.data / norms[:, None]
    n = features.n
    sims = np.empty((n, n), dtype=np.float64)
    np.matmul(unit, unit.T, out=sims)
    np.clip(sims, -1.0, 1.0, out=sims)
    return sims


def dense_neighbor_sets(features, theta: float, k_min: int) -> list:
    """The full n×n similarity matrix, then a lexsort of every row."""
    if features.n < 2:
        raise ValueError("need at least 2 samples to build neighbor sets")
    if k_min < 1:
        raise ValueError("k_min must be >= 1")
    n = features.n
    sims = dense_similarity_matrix(features)
    np.fill_diagonal(sims, -np.inf)
    floor = min(k_min, n - 1)

    sets = []
    idx = np.arange(n)
    for x in range(n):
        row = sims[x]
        # descending similarity, ties by ascending index
        order = np.lexsort((idx, -row))
        count = int((row >= theta).sum())
        take = count if count >= floor else floor
        sets.append(order[:take])
    return sets


# ---------------------------------------------------------------------------
# dense co-association and average-linkage CSPA (before the factored build)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoAssociationMatrix:
    """n x n matrix of the fraction of labelings grouping each sample pair."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("co-association matrix must be square")
        if not np.allclose(np.diag(v), 1.0):
            raise ValueError("co-association diagonal must be 1")
        if not np.allclose(v, v.T):
            raise ValueError("co-association matrix must be symmetric")
        if v.min() < -1e-12 or v.max() > 1 + 1e-12:
            raise ValueError("co-association entries must lie in [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def dense_co_association(inputs: Sequence[Labeling]) -> CoAssociationMatrix:
    """Fraction of input labelings placing each pair of samples together."""
    if len(inputs) == 0:
        raise ValueError("need at least one input labeling")
    n = inputs[0].n
    acc = np.zeros((n, n), dtype=np.float64)
    for lam in inputs:
        if lam.n != n:
            raise ValueError("all labelings must cover the same samples")
        acc += lam.labels[:, None] == lam.labels[None, :]
    acc /= len(inputs)
    np.fill_diagonal(acc, 1.0)
    return CoAssociationMatrix(acc)


def _dense_average_linkage_cut(distance: np.ndarray, k: int) -> np.ndarray:
    """Average-linkage agglomeration on a precomputed distance matrix,
    cut into at most k flat clusters (1-based ids)."""
    m = distance.shape[0]
    if m == 1:
        return np.ones(1, dtype=np.int64)
    condensed = squareform(distance, checks=False)
    tree = linkage(condensed, method="average")
    return fcluster(tree, t=min(k, m), criterion="maxclust").astype(np.int64)


def dense_cspa(inputs: Sequence[Labeling], k: int) -> Labeling:
    """Consensus by clustering the co-association matrix.

    Samples are grouped into k clusters by average-linkage agglomerative
    clustering on distance 1 - S.
    """
    if len(inputs) == 0:
        raise ValueError("need at least one input labeling")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = inputs[0].n
    if k > n:
        raise ValueError(f"k={k} exceeds sample count n={n}")
    s = dense_co_association(inputs)
    flat = _dense_average_linkage_cut(1.0 - s.values, k)
    return canonicalize(Labeling(flat))


# ---------------------------------------------------------------------------
# spectral CSPA on the CSR hyperedge matrix (before the NumPy-only build)
# ---------------------------------------------------------------------------

SCIPY_CSPA_LLOYD_ITERATIONS = 100


def scipy_co_association(inputs: Sequence[Labeling]) -> sparse.csr_matrix:
    """The n×ΣC hyperedge matrix Z of the inputs, as CSR float64."""
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


def scipy_cspa(inputs: Sequence[Labeling], k: int) -> Labeling:
    """Consensus by a normalized spectral partition of the co-association S."""
    z = scipy_co_association(inputs)
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
    for _ in range(SCIPY_CSPA_LLOYD_ITERATIONS):
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


# ---------------------------------------------------------------------------
# spectral CSPA on every eigenpair of the Gram (before the block Krylov solver)
# ---------------------------------------------------------------------------


def outer_qr_pivots(u: np.ndarray, m: int) -> np.ndarray:
    """The first m pivots of a column-pivoted QR of uᵀ: each step takes the
    row of u with the largest residual norm (the first on ties) and
    projects it out of every row."""
    residual = u.copy()
    pivots = np.empty(m, dtype=np.int64)
    for step in range(m):
        p = int(np.einsum("ij,ij->i", residual, residual).argmax())
        q = residual[p] / np.linalg.norm(residual[p])
        residual -= np.outer(residual @ q, q)
        pivots[step] = p
    return pivots


def eigh_cspa(inputs: Sequence[Labeling], k: int) -> Labeling:
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
    sizes = np.bincount(columns.ravel(), minlength=g)
    scale = 1.0 / np.sqrt(sizes[columns].sum(axis=1).astype(np.float64))  # D^-1/2 of H·S
    # the Gram of D^-1/2·Z, weighted by scale·scale (the product each of its
    # terms is) rather than by 1/degree, which may differ in the last bit
    vals, vecs = np.linalg.eigh(_gram(inputs, scale * scale))
    vals, vecs = vals[max(g - k, 0):], vecs[:, max(g - k, 0):]
    # the top eigenvalue is 1; drop those that are zero up to rounding
    keep = vals > _rank_cutoff(n, g)
    basis = vecs[:, keep] / np.sqrt(vals[keep])
    m = basis.shape[1]
    # D^-1/2·Z·basis, unit columns, summed from the last input to the first
    # as scipy's CSR product of the same matrices sums it, bit for bit
    u = np.zeros((n, m))
    for col in columns.T[::-1]:
        u += scale[:, None] * basis[col]

    w, _, vt = np.linalg.svd(u[outer_qr_pivots(u, m)].T)
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


# ---------------------------------------------------------------------------
# per-call np.unique metrics and MCLA (the formulation before the cached coding)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniqueContingencyTable:
    """Co-occurrence counts between the clusters of two labelings."""

    counts: np.ndarray
    row_ids: np.ndarray
    col_ids: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2:
            raise ValueError("counts must be a 2-D matrix")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def unique_contingency(a: Labeling, b: Labeling) -> UniqueContingencyTable:
    """Exact cluster co-occurrence counts between two equal-length labelings."""
    if a.n != b.n:
        raise ValueError(f"labelings differ in length: {a.n} vs {b.n}")
    ua, ia = np.unique(a.labels, return_inverse=True)
    ub, ib = np.unique(b.labels, return_inverse=True)
    counts = np.bincount(ia * ub.size + ib, minlength=ua.size * ub.size)
    return UniqueContingencyTable(counts.reshape(ua.size, ub.size), ua, ub)


def unique_mutual_information(table: UniqueContingencyTable) -> float:
    """Count-form mutual information: sum n_hl * log(n * n_hl / (n_h * n_l))."""
    counts = table.counts.astype(np.float64)
    n = float(table.n)
    outer = np.outer(table.row_sums, table.col_sums).astype(np.float64)
    mask = counts > 0
    return math.fsum(counts[mask] * np.log(n * counts[mask] / outer[mask]))


def _unique_entropy_of_counts(counts: np.ndarray, n: int) -> float:
    counts = counts.astype(np.float64)
    return math.fsum(counts * np.log(counts / n))


def unique_entropy_count(labeling: Labeling) -> float:
    """Count-form entropy: sum n_h * log(n_h / n) (nonpositive)."""
    _, counts = np.unique(labeling.labels, return_counts=True)
    return _unique_entropy_of_counts(counts, labeling.n)


def unique_nmi(a: Labeling, b: Labeling) -> float:
    """Normalized mutual information MI / sqrt(H(a) * H(b)), in [0, 1]."""
    table = unique_contingency(a, b)
    ha = _unique_entropy_of_counts(table.row_sums, table.n)
    hb = _unique_entropy_of_counts(table.col_sums, table.n)
    if ha == 0.0 or hb == 0.0:
        return 0.0
    value = unique_mutual_information(table) / np.sqrt(ha * hb)
    return float(np.clip(value, 0.0, 1.0))


def unique_anmi(candidate: Labeling, inputs: Sequence[Labeling]) -> float:
    """Summed NMI between a candidate and every input labeling."""
    return math.fsum(unique_nmi(candidate, lam) for lam in inputs)


def unique_clustering_accuracy(pred: Labeling, gt: Labeling) -> tuple[float, dict]:
    """Best-map accuracy: Hungarian-match predicted clusters to classes."""
    if pred.n != gt.n:
        raise ValueError(f"labelings differ in length: {pred.n} vs {gt.n}")
    table = unique_contingency(pred, gt)
    pairs, _ = hungarian(-table.counts.astype(np.float64))
    mass = int(sum(table.counts[r, c] for r, c in pairs))
    matching = {int(table.row_ids[r]): int(table.col_ids[c]) for r, c in pairs}
    return mass / pred.n, matching


def unique_ari(a: Labeling, b: Labeling) -> float:
    """Adjusted Rand index under the permutation-model expectation."""
    if a.n != b.n:
        raise ValueError(f"labelings differ in length: {a.n} vs {b.n}")
    if a.n < 2:
        raise ValueError("ARI needs at least 2 samples")

    def comb2(x):
        x = np.asarray(x, dtype=np.float64)
        return x * (x - 1.0) / 2.0

    table = unique_contingency(a, b)
    sum_cells = float(comb2(table.counts).sum())
    sum_a = float(comb2(table.row_sums).sum())
    sum_b = float(comb2(table.col_sums).sum())
    total = float(comb2(table.n))
    expected = sum_a * sum_b / total
    denom = 0.5 * (sum_a + sum_b) - expected
    if denom == 0.0:
        return 1.0
    return (sum_cells - expected) / denom


def unique_canonicalize(labeling: Labeling) -> Labeling:
    """Remap ids to 1..k in order of first appearance; grouping unchanged."""
    _, first_pos, inverse = np.unique(
        labeling.labels, return_index=True, return_inverse=True
    )
    appearance_rank = np.argsort(np.argsort(first_pos))
    return Labeling(appearance_rank[inverse] + 1)


def unique_mcla(inputs: Sequence[Labeling], k: int) -> Labeling:
    """Consensus by grouping cluster hyperedges on Jaccard similarity."""
    if len(inputs) == 0:
        raise ValueError("need at least one input labeling")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = inputs[0].n
    edges = []
    for lam in inputs:
        if lam.n != n:
            raise ValueError("all labelings must cover the same samples")
        for cid in np.unique(lam.labels):
            edges.append(lam.labels == cid)
    indicators = np.asarray(edges, dtype=np.float64)

    inter = indicators @ indicators.T
    sizes = indicators.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - inter
    jaccard = inter / union

    flat = _average_linkage_cut(squareform(squareform(1.0 - jaccard, checks=False)), k)
    flat = unique_canonicalize(Labeling(flat)).labels
    n_meta = int(flat.max())
    membership = np.zeros((n_meta, n))
    for meta in range(1, n_meta + 1):
        membership[meta - 1] = indicators[flat == meta].mean(axis=0)
    assigned = membership.argmax(axis=0) + 1
    return unique_canonicalize(Labeling(assigned))


def softmax_logsumexp(logits):
    """Reference softmax through an explicit log-sum-exp."""
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max()
    lse = m + np.log(np.sum(np.exp(logits - m)))
    return np.exp(logits - lse)


# ---------------------------------------------------------------------------
# scalar head formulas (one pair, one head)
# ---------------------------------------------------------------------------


def pmi_pair_loss(
    qs_x: np.ndarray,
    qs_xp: np.ndarray,
    qt_x: np.ndarray,
    qt_xp: np.ndarray,
    p_c: np.ndarray,
    beta: float,
) -> float:
    """Weighted, symmetrized pointwise-MI loss for one (x, x') pair.

    The teacher-agreement weight ``w = sum_c qt_x(c) qt_xp(c)`` suppresses
    pairs the teacher considers mismatched; the two student terms use the
    partner's teacher output, with the class marginal ``p_c`` in the
    denominator and the sharpening exponent ``beta`` applied to the
    student-teacher product.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    qs_x, qs_xp, qt_x, qt_xp, p_c = (
        np.asarray(a, dtype=np.float64) for a in (qs_x, qs_xp, qt_x, qt_xp, p_c)
    )
    if np.any(p_c <= 0.0):
        raise ValueError("class marginal must be strictly positive (clamp upstream)")
    w = float(qt_x @ qt_xp)
    t1 = np.log(np.sum((qs_x * qt_xp) ** beta / p_c))
    t2 = np.log(np.sum((qs_xp * qt_x) ** beta / p_c))
    loss = -w * 0.5 * (t1 + t2)
    if not np.isfinite(loss):
        raise ValueError("non-finite pair loss")
    return float(loss)


def ce_term(qs_x: np.ndarray, qt_xp: np.ndarray) -> float:
    """Cross entropy against the teacher's argmax pseudo-label for x'."""
    qs_x = np.asarray(qs_x, dtype=np.float64)
    qt_xp = np.asarray(qt_xp, dtype=np.float64)
    c_hat = int(np.argmax(qt_xp))
    return float(-np.log(max(qs_x[c_hat], CE_PROB_FLOOR)))


def unfolded_head_probs(weight, bias, gamma, beta, norm: NormStats, z, tau: float) -> np.ndarray:
    """softmax((W (gamma*u + beta) + b) / tau) of one head on rows z (n, d),
    ``u`` the unit rows of ``norm``: the rows are standardized first."""
    s = (z - norm.mean) / np.sqrt(norm.var + VAR_EPS) * gamma + beta
    return np.array([softmax_logsumexp((weight @ row + bias) / tau) for row in s])


# ---------------------------------------------------------------------------
# einsum head kernels (the formulation before the affine-folded GEMMs)
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax along the last axis, guarded against overflow."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _one_hot(idx: np.ndarray, c: int) -> np.ndarray:
    out = np.zeros(idx.shape + (c,))
    np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
    return out


def einsum_loss_and_grads(
    weight: np.ndarray,
    bias: np.ndarray,
    gamma: np.ndarray,
    beta_shift: np.ndarray,
    u_x: np.ndarray,
    u_xp: np.ndarray,
    qt_x: np.ndarray,
    qt_xp: np.ndarray,
    marginal: np.ndarray,
    *,
    beta: float,
    tau_student: float,
    lam: float,
):
    """Batch-mean composite loss and its analytic student gradients.

    Shapes: ``weight`` (H, C, d), ``bias`` (H, C), ``gamma``/``beta_shift``
    (d,) shared across heads, ``u_x`` (B, d) pre-standardized anchor rows,
    ``u_xp`` (H, B, d) per-head neighbor rows, teacher outputs (H, B, C)
    (``qt_xp`` already smoothed when several neighbors are drawn), and the
    clamped class marginal (H, C).

    Returns (per-head mean losses (H,), grads) where grads holds ``weight``
    (H, C, d), ``bias`` (H, C) from each head's own loss, and ``gamma``/
    ``beta_shift`` (d,) averaged over heads.
    """
    h_count, c_count, _ = weight.shape
    b_count = u_x.shape[0]

    s_x = u_x * gamma + beta_shift  # (B, d)
    s_xp = u_xp * gamma + beta_shift  # (H, B, d)
    a_x = np.einsum("hcd,bd->hbc", weight, s_x) + bias[:, None, :]
    a_xp = np.einsum("hcd,hbd->hbc", weight, s_xp) + bias[:, None, :]
    qs_x = softmax(a_x / tau_student)
    qs_xp = softmax(a_xp / tau_student)

    w = np.sum(qt_x * qt_xp, axis=-1)  # (H, B)
    pm = marginal[:, None, :]
    y1 = (qs_x * qt_xp) ** beta / pm
    y2 = (qs_xp * qt_x) ** beta / pm
    s1 = y1.sum(axis=-1)
    s2 = y2.sum(axis=-1)
    t1 = np.log(s1)
    t2 = np.log(s2)

    c_hat = np.argmax(qt_xp, axis=-1)  # (H, B)
    q_at = np.take_along_axis(qs_x, c_hat[..., None], axis=-1)[..., 0]
    ce = -np.log(np.maximum(q_at, CE_PROB_FLOOR))

    pair_loss = -w * 0.5 * (t1 + t2) + lam * ce  # (H, B)
    losses = pair_loss.mean(axis=1)

    # d(loss)/d(logits / tau): beta * (y/S - q) per PMI term, q - onehot for CE;
    # pairs sitting on the CE probability floor contribute no CE gradient
    # (the clamped loss is locally constant there)
    half_w = (-0.5 * w)[..., None]
    ce_active = (q_at > CE_PROB_FLOOR)[..., None]
    dg_x = half_w * beta * (y1 / s1[..., None] - qs_x) + (lam * ce_active) * (
        qs_x - _one_hot(c_hat, c_count)
    )
    dg_xp = half_w * beta * (y2 / s2[..., None] - qs_xp)
    scale = 1.0 / (b_count * tau_student)
    da_x = dg_x * scale
    da_xp = dg_xp * scale

    d_weight = np.einsum("hbc,bd->hcd", da_x, s_x) + np.einsum("hbc,hbd->hcd", da_xp, s_xp)
    d_bias = da_x.sum(axis=1) + da_xp.sum(axis=1)
    ds_x = np.einsum("hcd,hbc->hbd", weight, da_x)
    ds_xp = np.einsum("hcd,hbc->hbd", weight, da_xp)
    d_gamma = (np.einsum("hbd,bd->d", ds_x, u_x) + np.einsum("hbd,hbd->d", ds_xp, u_xp)) / h_count
    d_beta_shift = (ds_x.sum(axis=(0, 1)) + ds_xp.sum(axis=(0, 1))) / h_count

    grads = {
        "weight": d_weight,
        "bias": d_bias,
        "gamma": d_gamma,
        "beta_shift": d_beta_shift,
    }
    return losses, grads


def einsum_teacher_targets(
    teacher_w, teacher_b, teacher_gamma, teacher_beta, u_x, u_nb, *, tau, sk_iters
):
    """The einsum teacher forward: standardize, contract, Sinkhorn-Knopp,
    then average the m neighbor outputs.  u_x (B, d), u_nb (H, B, m, d)."""
    h_count, b_count, m_draws, _ = u_nb.shape
    s_t_x = u_x * teacher_gamma + teacher_beta
    s_t_nb = u_nb * teacher_gamma + teacher_beta  # (H,B,m,d)
    t_logits_x = (
        np.einsum("hcd,bd->hbc", teacher_w, s_t_x)
        + teacher_b[:, None, :]
    )
    t_logits_nb = (
        np.einsum("hcd,hbmd->hbmc", teacher_w, s_t_nb)
        + teacher_b[:, None, None, :]
    )
    stacked = np.concatenate(
        [t_logits_x, t_logits_nb.reshape(h_count, b_count * m_draws, -1)],
        axis=1,
    )
    qt_all = sinkhorn_knopp(stacked / tau, sk_iters)
    qt_x = qt_all[:, :b_count]
    qt_nb = (
        qt_all[:, b_count:]
        .reshape(h_count, b_count, m_draws, -1)
        .mean(axis=2)
    )
    return qt_x, qt_nb


# ---------------------------------------------------------------------------
# out-of-place Sinkhorn-Knopp (before it normalized in place)
# ---------------------------------------------------------------------------


def out_of_place_sinkhorn_knopp(teacher_logit_batch: np.ndarray, iters: int) -> np.ndarray:
    """Center a logit batch toward uniform cluster usage.

    Exponentiates (row max subtracted first), then alternates column
    normalization (columns sum to B/C) with row normalization (rows sum
    to 1) ``iters`` times; zero iterations reduce to a plain row softmax.
    Works on any (..., B, C) stack of batches.
    """
    if iters < 0:
        raise ValueError("iters must be >= 0")
    logits = np.asarray(teacher_logit_batch, dtype=np.float64)
    if logits.ndim < 2 or logits.shape[-2] < 1:
        raise ValueError("need a nonempty (..., B, C) logit batch")
    m = np.exp(logits - logits.max(axis=-1, keepdims=True))
    b, c = m.shape[-2], m.shape[-1]
    for _ in range(iters):
        m = m / m.sum(axis=-2, keepdims=True) * (b / c)
        m = m / m.sum(axis=-1, keepdims=True)
    if iters == 0:
        m = m / m.sum(axis=-1, keepdims=True)
    return m


# ---------------------------------------------------------------------------
# fixed-budget self-training (before the probe stopped once it fits)
# ---------------------------------------------------------------------------


def fixed_budget_self_train(
    features: EmbeddingMatrix, pseudo: Labeling, cfg: SelfTrainConfig = SelfTrainConfig()
) -> Classifier:
    """Fit the linear probe to pseudo-labels by mini-batch momentum SGD.

    Deterministic under ``cfg.seed``; weights start at zero, standardization
    statistics are fitted from the features themselves.
    """
    if pseudo.n != features.n:
        raise ValueError(f"pseudo-labels cover {pseudo.n} samples, features hold {features.n}")
    targets = canonicalize(pseudo).labels - 1
    num_classes = pseudo.k
    # first-appearance order matches the canonical ids 1..C
    class_ids = pseudo.labels[np.sort(pseudo.coding.first)]

    norm = fit_standardizer(features)
    s = unit_rows(features.data, norm)
    n, d = s.shape

    weight = np.zeros((num_classes, d))
    bias = np.zeros(num_classes)
    buf_w = np.zeros_like(weight)
    buf_b = np.zeros_like(bias)
    rng = np.random.default_rng(cfg.seed)
    batch = min(cfg.batch_size, n)

    order = np.empty(0, dtype=np.int64)
    cursor = 0
    for step in range(cfg.steps):
        if cursor + batch > order.size:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor : cursor + batch]
        cursor += batch

        loss, grads = ce_loss_and_grads(weight, bias, s[idx], targets[idx])
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite self-train loss at step {step}", step=step)
        buf_w = cfg.momentum * buf_w + grads["weight"]
        buf_b = cfg.momentum * buf_b + grads["bias"]
        weight -= cfg.lr * buf_w + cfg.lr * cfg.weight_decay * weight
        bias -= cfg.lr * buf_b

    return Classifier(weight=weight, bias=bias, norm=norm, class_ids=class_ids)


# ---------------------------------------------------------------------------
# per-key AdamW and teacher EMA (before one flat buffer per parameter copy)
# ---------------------------------------------------------------------------


class PerKeyAdamW:
    """Decoupled-weight-decay Adam with bias-corrected moment estimates.

    Weight decay applies to the head weight matrices (``weight``) only,
    never to biases or the shared affine.  Moments and parameters are
    updated in place, through one scratch array per parameter.
    """

    def __init__(self, params: dict, weight_decay: float):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.scratch = {k: np.empty_like(v) for k, v in params.items()}
        self.t = 0
        self.weight_decay = weight_decay

    def step(self, params: dict, grads: dict, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for key, p in params.items():
            g, m, v, tmp = grads[key], self.m[key], self.v[key], self.scratch[key]
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
            v *= ADAM_BETA2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - ADAM_BETA2
            v += tmp
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.multiply(v, 1.0 / bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            np.divide(m, tmp, out=tmp)
            tmp *= lr / bc1
            p -= tmp
            if key == "weight":
                p *= 1.0 - lr * self.weight_decay


def ema_update(teacher: np.ndarray, student: np.ndarray, momentum: float) -> np.ndarray:
    """Move ``teacher`` in place to momentum * teacher + (1 - momentum) * student
    elementwise; returns it."""
    if not 0.0 <= momentum <= 1.0:
        raise ValueError("momentum must lie in [0, 1]")
    if teacher.shape != student.shape:
        raise ValueError(f"shape mismatch: {teacher.shape} vs {student.shape}")
    # momentum 1 keeps the teacher bitwise fixed, momentum 0 copies the student
    if momentum == 0.0:
        teacher[...] = student
    elif momentum < 1.0:
        # momentum * (teacher - student) + student, with no temporary
        teacher -= student
        teacher *= momentum
        teacher += student
    return teacher


def per_key_ema_update(teacher: dict, student: dict, momentum: float) -> None:
    """The teacher EMA as ``train_heads`` ran it, one ``ema_update`` per key."""
    for key, value in student.items():
        ema_update(teacher[key], value, momentum)


# ---------------------------------------------------------------------------
# the head step's pair loss one side at a time (before one logit buffer per block)
# ---------------------------------------------------------------------------


def two_sided_loss_and_grads(
    student: dict,
    teacher: dict,
    u_x: np.ndarray,
    u: np.ndarray,
    nbr: np.ndarray,
    marginal: np.ndarray,
    *,
    beta: float,
    tau_student: float,
    tau_teacher: float,
    sk_iters: int,
    lam: float,
):
    """``composite_loss_and_grads`` as it ran before each head block's logits
    shared one buffer: the two sides of each pair take separate shift,
    softmax, log-sum-exp, PMI and gradient passes, and the teacher's logits
    are copied to a float64 buffer for Sinkhorn-Knopp.  Same arguments and
    returns."""
    weight = student["weight"]
    h_count, c_count, d = weight.shape
    _, b_count, m_draws = nbr.shape
    rows = b_count * m_draws
    dt = u.dtype
    # Python floats keep float32 arrays float32, where NumPy float64 scalars would not
    beta, lam, tau_student = float(beta), float(lam), float(tau_student)
    log_floor = math.log(CE_PROB_FLOOR)

    # (H, 2C, d): each head's folded teacher, then student, over its
    # temperature, so that the GEMMs give logits / tau
    w_stack = np.empty((h_count, 2 * c_count, d), dtype=dt)
    b_stack = np.empty((h_count, 2 * c_count), dtype=dt)
    for part, copy, tau in ((slice(0, c_count), teacher, float(tau_teacher)),
                            (slice(c_count, None), student, tau_student)):
        _fold(**copy, scale=1.0 / tau, out=(w_stack[:, part], b_stack[:, part]))
    a_x = _shared_logits(w_stack, b_stack, u_x)  # (H, B, 2C)
    log_p = np.log(marginal).astype(dt)[:, None, :]
    scale = 1.0 / (b_count * tau_student)

    qt_x = np.empty((h_count, c_count, b_count)).transpose(0, 2, 1)
    qt_xp = np.empty_like(qt_x)
    losses = np.empty(h_count, dtype=dt)
    da_x = np.empty((h_count, c_count, b_count), dtype=dt).transpose(0, 2, 1)
    _, grads = _param_views(h_count, c_count, d, dtype=dt)
    g, d_bias = grads["weight"], grads["bias"]  # each head's neighbor side; the anchors' add on
    head_blocks = blocks(h_count, rows * d * dt.itemsize)
    buf = np.empty(((head_blocks[0].stop - head_blocks[0].start) * rows, d), dtype=dt)
    for hb in head_blocks:
        h = hb.stop - hb.start
        # indices come from validated neighbor sets; mode="raise" would buffer a copy
        u_nb = np.take(u, nbr[hb].transpose(0, 2, 1).reshape(-1), axis=0,
                       out=buf[: h * rows], mode="clip").reshape(h, rows, d)
        a_nb = _own_logits(w_stack[hb], b_stack[hb], u_nb)  # (h, m*B, 2C)

        # the teacher's logits / tau, upcast: anchors, then every draw
        t = np.empty((h, c_count, b_count + rows)).transpose(0, 2, 1)
        t[:, :b_count] = a_x[hb, :, :c_count]
        t[:, b_count:] = a_nb[..., :c_count]
        qt = sinkhorn_knopp(t, sk_iters)
        qt_x_b, qt_xp_b = qt_x[hb], qt_xp[hb]
        qt_x_b[...] = qt[:, :b_count]
        draws = qt[:, b_count:].reshape(h, m_draws, b_count, c_count)
        if m_draws == 1:
            qt_xp_b[...] = draws[:, 0]
        else:
            np.mean(draws, axis=1, out=qt_xp_b)
        w = np.sum(qt_x_b * qt_xp_b, axis=-1, keepdims=True).astype(dt)  # (h, B, 1)
        c_hat = np.argmax(qt_xp_b, axis=-1)  # (h, B)
        at_hat = (np.arange(h)[:, None], np.arange(b_count), c_hat)
        # log q_t once, in float64 and rounded to dt; these buffers become y2 and y1
        y2, y1 = np.empty_like(qt_x_b, dtype=dt), np.empty_like(qt_xp_b, dtype=dt)
        with np.errstate(divide="ignore"):
            np.log(qt_x_b, out=y2)
            np.log(qt_xp_b, out=y1)

        # student logits / tau on the anchors and the first draw, each row
        # shifted so that its largest is 0
        s_x, s_xp = (np.subtract(s, s.max(axis=-1, keepdims=True))
                     for s in (a_x[hb, :, c_count:], a_nb[:, :b_count, c_count:]))
        s_at = s_x[at_hat][..., None]

        # PMI terms: t1, t2 = log sum_c y_c with log y = beta*(log q_s + log q_t) - log p.
        # Softmax is shift-invariant, so log q_s = s - lse(s) enters y as s,
        # and t = lse(beta*(s + log q_t) - log p) - beta*lse(s)
        for y, s in ((y1, s_x), (y2, s_xp)):
            y += s
            y *= beta
            y -= log_p[hb]
        qs_x, lse_x = _exp_normalize(s_x)
        qs_xp, lse_xp = _exp_normalize(s_xp)
        r1, t1 = _softmax_lse(y1, out=y1)  # r1 = y / sum_c y
        r2, t2 = _softmax_lse(y2, out=y2)
        t1 -= beta * lse_x
        t2 -= beta * lse_xp

        lq_at = s_at - lse_x  # log q_s at the teacher's class
        ce = -np.maximum(lq_at, log_floor)
        pair_loss = -0.5 * w * (t1 + t2) + lam * ce  # (h, B, 1)
        losses[hb] = pair_loss.mean(axis=(1, 2))

        # d(loss)/d(logits): beta * (y/S - q) / tau per PMI term, (q - onehot) / tau
        # for CE, batch-mean; pairs sitting on the CE probability floor
        # contribute no CE gradient (the clamped loss is locally constant there)
        half_w = (-0.5 * beta * scale) * w
        ce_w = (lq_at > log_floor) * dt.type(lam * scale)
        r1 -= qs_x
        r1 *= half_w
        qs_x[at_hat] -= 1.0  # q - onehot, exact for q near 1
        qs_x *= ce_w
        np.add(r1, qs_x, out=da_x[hb])
        r2 -= qs_xp
        r2 *= half_w
        np.matmul(r2.transpose(0, 2, 1), u_nb[:, :b_count], out=g[hb])
        d_bias[hb] = r2.sum(axis=1)

    g += (da_x.transpose(0, 2, 1).reshape(-1, b_count) @ u_x).reshape(weight.shape)
    d_bias += da_x.sum(axis=1)
    np.divide((weight * g).sum(axis=(0, 1)), h_count, out=grads["gamma"])
    g *= student["gamma"]  # unfolded in place into d_weight
    g += d_bias[..., None] * student["beta_shift"]
    np.divide(d_bias.reshape(-1) @ weight.reshape(-1, d), h_count, out=grads["beta_shift"])
    return losses, grads, qt_x, qt_xp
