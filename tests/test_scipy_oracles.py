"""The package's NumPy ports against the scipy routines they replaced.

scipy stays in the test environment as the reference: the assignment
behind ``hungarian`` must return exactly scipy's ``(rows, cols)``,
``clustering_accuracy`` scipy's matching of the contingency table,
``_average_linkage_cut`` the partition of
``fcluster(linkage(...), k, "maxclust")``, the pairwise-``bincount`` Gram
exactly the sparse product, and ``cspa`` the labels of the CSPA that ran on
``scipy.sparse`` and ``scipy.linalg`` and of the one that took every
eigenpair from ``np.linalg.eigh``, whose top k eigenvalues its own are
checked against.
Costs and distances are drawn from a few values, so ties are everywhere.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import squareform

from clusterens import Labeling, canonicalize, clustering_accuracy, cspa, ensemble
from clusterens.ensemble import _average_linkage_cut, _gram
from clusterens.metrics import _linear_sum_assignment, contingency, hungarian

from oracles import eigh_cspa, scipy_co_association, scipy_cspa
from test_ensemble import block_ensemble, cspa_gram, krylov_ensembles, noisy_ensemble


@pytest.mark.parametrize("shape", ["square", "wide", "tall"])
def test_assignment_matches_scipy_on_tied_costs(shape):
    rng = np.random.default_rng({"square": 1, "wide": 2, "tall": 3}[shape])
    for trial in range(1000):
        r = int(rng.integers(1, 9))
        c = {"square": r, "wide": r + int(rng.integers(1, 5)),
             "tall": max(r - int(rng.integers(1, 5)), 1)}[shape]
        low = -3 if trial % 2 else 0
        cost = rng.integers(low, low + int(rng.integers(1, 5)), size=(r, c)).astype(np.float64)
        rows, cols = _linear_sum_assignment(cost)
        ref_rows, ref_cols = linear_sum_assignment(cost)
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols), cost
        pairs, total = hungarian(cost)
        assert pairs == sorted(zip(ref_rows.tolist(), ref_cols.tolist()))
        assert total == float(cost[ref_rows, ref_cols].sum())


def test_assignment_matches_scipy_on_real_costs(rng):
    for _ in range(200):
        cost = rng.normal(size=(int(rng.integers(1, 30)), int(rng.integers(1, 30))))
        rows, cols = _linear_sum_assignment(cost)
        ref_rows, ref_cols = linear_sum_assignment(cost)
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)


@pytest.mark.parametrize("shape", ["tall", "wide", "tied"])
def test_accuracy_matching_is_scipys(shape):
    """The matching and matched mass of ``clustering_accuracy`` are those of
    ``linear_sum_assignment(-counts)`` on the contingency table."""
    rng = np.random.default_rng({"tall": 4, "wide": 5, "tied": 6}[shape])
    for _ in range(300):
        r = int(rng.integers(1, 9))
        c = {"tall": max(r - int(rng.integers(1, 5)), 1), "wide": r + int(rng.integers(1, 5)),
             "tied": r}[shape]
        # cell (i, j) holds counts[i, j] samples of cluster 10 + 3i and class 7 + 2j;
        # tied tables draw each count from {0, 1, 2}
        counts = rng.integers(0, 3 if shape == "tied" else 12, size=(r, c))
        counts[0, 0] += 1
        cells = rng.permutation(np.repeat(np.arange(r * c), counts.ravel()))
        pred, gt = Labeling(10 + 3 * (cells // c)), Labeling(7 + 2 * (cells % c))
        table = contingency(pred, gt)
        rows, cols = linear_sum_assignment(-table)
        acc, matching = clustering_accuracy(pred, gt)
        assert matching == dict(zip(pred.coding.ids[rows].tolist(), gt.coding.ids[cols].tolist()))
        assert acc == table[rows, cols].sum() / pred.n


@pytest.mark.parametrize("levels", [2, 3, 5, 1000])
def test_average_linkage_cut_matches_fcluster(levels):
    rng = np.random.default_rng(levels)
    for g in range(1, 41):
        condensed = rng.integers(0, levels, size=g * (g - 1) // 2) / (levels - 1)
        for k in range(1, g + 1):
            got = _average_linkage_cut(squareform(condensed), k)
            if g == 1:
                assert got.tolist() == [1]
                continue
            ref = fcluster(linkage(condensed, "average"), k, "maxclust")
            assert np.array_equal(got, canonicalize(Labeling(ref)).labels), (g, k)


def cspa_ensembles():
    """The ensembles the CSPA tests of ``test_ensemble`` run on."""
    rng = np.random.default_rng(1234)
    cases = [([Labeling([1, 1, 2, 2, 3, 3])] * 5, 3), ([Labeling([1, 2, 3, 1])], 1),
             ([Labeling([1, 2, 3, 1])], 3), ([Labeling([1, 2, 3, 1])], 4),
             ([Labeling([3])] * 2, 1), ([Labeling([1, 2]), Labeling([5, 5])], 1),
             ([Labeling([1, 2]), Labeling([5, 5])], 2), ([Labeling([7, 7])], 2),
             ([Labeling(rng.integers(1, 4, size=50))] * 6, 8)]
    cases.append((noisy_ensemble(rng)[1], 5))
    cases.append((noisy_ensemble(rng, n=60, members=10)[1], 5))
    cases.append((noisy_ensemble(rng, n=300, members=20)[1], 5))
    cases.append((noisy_ensemble(rng, n=60, k=3, members=300, noise=0.05)[1], 3))
    for sizes, heads in [((20, 20, 20), 4), ((5, 17, 40, 3), 8),
                         ((30, 2, 12, 50, 9, 25), 12)]:
        cases.append((block_ensemble(sizes, heads)[1], len(sizes)))
    for seed in range(10):
        rng = np.random.default_rng(seed)
        planted = rng.integers(1, 11, size=600)
        cases.append(([Labeling(np.where(rng.random(600) < 0.5, planted,
                                         rng.integers(1, 11, size=600)))
                       for _ in range(10)], 10))
    cases.extend((inputs, k) for _, inputs, k, _ in krylov_ensembles())
    return cases


def test_cspa_matches_scipy_cspa():
    for inputs, k in cspa_ensembles():
        assert np.array_equal(cspa(inputs, k).labels, scipy_cspa(inputs, k).labels)


def test_cspa_matches_eigh_cspa():
    """The subspace iteration and the row-blocked pivots leave CSPA's
    labels those of every eigenpair from ``eigh``."""
    for inputs, k in cspa_ensembles():
        assert np.array_equal(cspa(inputs, k).labels, eigh_cspa(inputs, k).labels)


def test_top_eigenvalues_match_eigh():
    """The subspace iteration's eigenvalues within the residual bound of
    ``eigh``'s on every CSPA ensemble; ``test_cspa_matches_eigh_cspa``
    checks the labels."""
    for inputs, k in cspa_ensembles():
        gram = cspa_gram(inputs)
        vals = ensemble._top_eigenpairs(gram, k)[0]
        ref = np.linalg.eigh(gram)[0][-k:]
        assert np.abs(vals - ref).max() <= ensemble.EIG_TOL * ref[-1]


@pytest.mark.parametrize("n,h,k", [(1, 1, 1), (40, 5, 3), (97, 12, 6), (600, 4, 8), (300, 20, 5)])
def test_pairwise_gram_equals_sparse_product(rng, n, h, k):
    inputs = [Labeling(rng.integers(1, k + 1, size=n)) for _ in range(h)]
    z = scipy_co_association(inputs)
    degree = z @ np.asarray(z.sum(axis=0)).ravel()
    zs = sparse.diags(1.0 / np.sqrt(degree)) @ z
    scale = 1.0 / np.sqrt(degree)
    weighted = _gram(inputs, scale * scale)
    assert np.array_equal(weighted.view(np.uint64), (zs.T @ zs).toarray().view(np.uint64))
    assert np.array_equal(_gram(inputs), (z.T @ z).toarray())
