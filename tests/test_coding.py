"""Each labeling's cached coding against the formulation it replaced.

Every metric and MCLA read one ``np.unique`` coding that a ``Labeling``
computes on first use and keeps.  The oracles run ``np.unique`` on the ids
in every call, as the package did before; the counts are the same
integers, so every table, score and consensus must be exactly equal.
"""

import numpy as np
import pytest

from clusterens import Labeling, anmi, ari, canonicalize, clustering_accuracy, mcla, nmi
from clusterens.ensemble import nmi_pairwise, supra_consensus_table
from clusterens.metrics import contingency, entropy_count

from oracles import (
    unique_anmi,
    unique_ari,
    unique_canonicalize,
    unique_clustering_accuracy,
    unique_contingency,
    unique_entropy_count,
    unique_mcla,
    unique_nmi,
)

SPARSE_IDS = np.array([-(10**9), -7, 0, 3, 10**9, 2**40])


def pool(rng, n):
    """Labelings of n samples: negative, sparse and small ids, one cluster,
    and all singletons."""
    return [
        Labeling(rng.integers(-5, 5, size=n)),
        Labeling(rng.choice(SPARSE_IDS, size=n)),
        Labeling(rng.integers(1, 4, size=n)),
        Labeling(np.full(n, -3)),
        Labeling(np.arange(n) * 10**9),
    ]


@pytest.mark.parametrize("n", [1, 2, 7, 60])
def test_every_pair_matches_per_call_unique(rng, n):
    # every object is reused across many pairs, and paired with itself
    labelings = pool(rng, n)
    for a in labelings:
        assert entropy_count(a) == unique_entropy_count(a)
        assert np.array_equal(canonicalize(a).labels, unique_canonicalize(a).labels)
        for b in labelings:
            counts, old = contingency(a, b), unique_contingency(a, b)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, old.counts)
            assert np.array_equal(a.coding.ids, old.row_ids)
            assert np.array_equal(b.coding.ids, old.col_ids)
            assert np.array_equal(a.coding.counts, old.row_sums)
            assert np.array_equal(b.coding.counts, old.col_sums)
            assert a.n == old.n
            assert nmi(a, b) == unique_nmi(a, b)
            assert clustering_accuracy(a, b) == unique_clustering_accuracy(a, b)
            if n >= 2:
                assert ari(a, b) == unique_ari(a, b)
        assert anmi(a, labelings) == unique_anmi(a, labelings)


def test_nmi_grid_and_anmi_match(rng):
    inputs = [Labeling(rng.choice(SPARSE_IDS[: int(rng.integers(1, 7))], size=80))
              for _ in range(12)]
    grid = nmi_pairwise(inputs[:4], inputs)
    for i, cand in enumerate(inputs[:4]):
        assert grid[i] == [unique_nmi(cand, lam) for lam in inputs]
    rows, _ = supra_consensus_table(inputs, 4)
    for _, score, cand in rows:
        assert score == unique_anmi(cand, inputs)


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_mcla_matches_per_cluster_hyperedges(rng, k):
    truth = rng.integers(0, 5, size=90)
    inputs = []
    for ids in (SPARSE_IDS, np.arange(-3, 3), np.array([4])):
        noisy = np.where(rng.random(90) < 0.2, rng.integers(0, 5, size=90), truth)
        inputs.append(Labeling(ids[noisy % ids.size]))
    inputs.append(inputs[0])  # the same object twice
    assert np.array_equal(mcla(inputs, k).labels, unique_mcla(inputs, k).labels)


def test_mcla_tie_breaks_match(rng):
    # small random inputs tie often, so the hyperedge order decides
    for _ in range(40):
        n = int(rng.integers(2, 12))
        inputs = [Labeling(rng.choice(SPARSE_IDS[: int(rng.integers(1, 7))], size=n))
                  for _ in range(int(rng.integers(1, 4)))]
        k = int(rng.integers(1, 6))
        assert np.array_equal(mcla(inputs, k).labels, unique_mcla(inputs, k).labels)


def test_mcla_single_sample():
    inputs = [Labeling([10**9]), Labeling([-2])]
    assert np.array_equal(mcla(inputs, 3).labels, unique_mcla(inputs, 3).labels)


def test_coding_is_computed_once_and_read_only():
    lab = Labeling([7, -1, 7, 10**9, -1, 7])
    coding = lab.coding
    assert lab.coding is coding
    ids, first, codes, counts = np.unique(
        lab.labels, return_index=True, return_inverse=True, return_counts=True
    )
    for got, want in zip(coding, (ids, first, codes, counts)):
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    assert lab.k == 3
    nmi(lab, lab)
    assert lab.coding is coding
