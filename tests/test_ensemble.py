import tracemalloc

import numpy as np
import pytest

from clusterens import (
    Labeling,
    anmi,
    canonicalize,
    cspa,
    ensemble,
    mcla,
    nmi,
    supra_consensus,
)
from clusterens import featstore
from clusterens.ensemble import co_association, supra_consensus_table
from clusterens.metrics import clustering_accuracy, contingency, entropy_count, mutual_information

from oracles import (
    dense_co_association,
    dense_cspa,
    nmi_prob_form,
    outer_qr_pivots,
    set_partitions,
)


def traced_peak(fn):
    """The peak bytes tracemalloc sees while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def relabel(labeling, rng):
    """Randomly permute cluster ids, keeping the grouping."""
    ids = np.unique(labeling.labels)
    new_ids = rng.permutation(ids.size) + 101
    mapping = dict(zip(ids.tolist(), new_ids.tolist()))
    return Labeling([mapping[v] for v in labeling.labels.tolist()])


class TestLabelingIds:
    def test_integral_floats_become_int_ids(self):
        lab = Labeling(np.array([1.0, 2.0, -3.0]))
        assert lab.labels.dtype == np.int64
        assert lab.labels.tolist() == [1, 2, -3]

    @pytest.mark.parametrize("ids, message", [
        (np.ones((2, 3), dtype=np.int64), "1-D"),
        (np.array([], dtype=np.int64), "nonempty"),
        (np.array([1.0, 2.5]), "must be integers"),
    ])
    def test_refused_ids(self, ids, message):
        with pytest.raises(ValueError, match=message):
            Labeling(ids)


class TestCanonicalize:
    def test_first_appearance_remap(self):
        assert canonicalize(Labeling([3, 3, 1, 1, 2])).labels.tolist() == [1, 1, 2, 2, 3]

    def test_already_canonical(self):
        lab = Labeling([1, 2, 2, 3])
        assert canonicalize(lab).labels.tolist() == [1, 2, 2, 3]

    def test_grouping_unchanged(self, rng):
        lab = Labeling(rng.integers(5, 30, size=50))
        canon = canonicalize(lab)
        acc, _ = clustering_accuracy(lab, canon)
        assert acc == 1.0


class TestContingency:
    def test_hand_count(self):
        counts = contingency(Labeling([1, 1, 2, 2]), Labeling([1, 2, 1, 2]))
        assert np.array_equal(counts, [[1, 1], [1, 1]])

    def test_identical_diagonal(self):
        lab = Labeling([1, 1, 2, 3, 3, 3])
        assert np.array_equal(contingency(lab, lab), np.diag([2, 1, 3]))

    def test_single_sample(self):
        assert contingency(Labeling([4]), Labeling([9])).tolist() == [[1]]

    def test_sums_consistent(self, rng):
        a = Labeling(rng.integers(1, 5, size=60))
        b = Labeling(rng.integers(1, 7, size=60))
        counts = contingency(a, b)
        assert counts.shape == (a.k, b.k)
        assert counts.sum() == 60
        assert np.array_equal(counts.sum(axis=1), a.coding.counts)
        assert np.array_equal(counts.sum(axis=0), b.coding.counts)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contingency(Labeling([1, 2]), Labeling([1, 2, 3]))

    def test_weighted_sums_in_sample_order(self, rng):
        """Each weighted cell is bit-equal to its samples' weights added one
        by one in sample order; the weights span 16 decades, so another order
        rounds differently."""
        a = Labeling(rng.choice([-4, 3, 11, 90], size=500))
        b = Labeling(rng.choice([1000, 2, 7], size=500))
        weights = rng.random(500) * 10.0 ** rng.integers(-8, 8, size=500)
        forward, backward = np.zeros((a.k, b.k)), np.zeros((a.k, b.k))
        cells = list(zip(a.coding.codes.tolist(), b.coding.codes.tolist(), weights.tolist()))
        for i, j, w in cells:
            forward[i, j] += w
        for i, j, w in reversed(cells):
            backward[i, j] += w
        got = contingency(a, b, weights)
        assert got.dtype == np.float64 and got.shape == (4, 3)
        assert np.array_equal(got.view(np.uint64), forward.view(np.uint64))
        assert not np.array_equal(got.view(np.uint64), backward.view(np.uint64))
        assert np.array_equal(contingency(a, b, np.ones(500)), contingency(a, b))


class TestCountFormEstimates:
    def test_independent_table_zero(self):
        counts = contingency(Labeling([1, 1, 2, 2]), Labeling([1, 2, 1, 2]))
        assert mutual_information(counts) == pytest.approx(0.0, abs=1e-12)

    def test_identical_labelings_count_form(self):
        lab = Labeling([1, 1, 2, 2])
        assert mutual_information(contingency(lab, lab)) == pytest.approx(4 * np.log(2))

    def test_mi_nonnegative(self, rng):
        for _ in range(50):
            a = Labeling(rng.integers(1, 5, size=30))
            b = Labeling(rng.integers(1, 4, size=30))
            assert mutual_information(contingency(a, b)) >= -1e-12

    def test_mi_zero_iff_independent_counts(self):
        # product table: labels arranged so counts factorize
        a = Labeling([1, 1, 1, 1, 2, 2, 2, 2])
        b = Labeling([1, 1, 2, 2, 1, 1, 2, 2])
        assert mutual_information(contingency(a, b)) == pytest.approx(0.0, abs=1e-12)

    def test_entropy_hand_value(self):
        assert entropy_count(Labeling([1, 1, 2, 2])) == pytest.approx(4 * np.log(0.5))

    def test_entropy_single_cluster_zero(self):
        assert entropy_count(Labeling([3, 3, 3])) == 0.0

    def test_entropy_singletons(self):
        n = 6
        assert entropy_count(Labeling(np.arange(n))) == pytest.approx(n * np.log(1 / n))


class TestNmi:
    def test_self_nmi_one(self):
        lab = Labeling([1, 2, 2, 3, 1])
        assert nmi(lab, lab) == pytest.approx(1.0, abs=1e-9)

    def test_hand_zero(self):
        assert nmi(Labeling([1, 1, 2, 2]), Labeling([1, 2, 1, 2])) == 0.0

    def test_symmetric(self, rng):
        for _ in range(20):
            a = Labeling(rng.integers(1, 4, size=25))
            b = Labeling(rng.integers(1, 5, size=25))
            assert nmi(a, b) == nmi(b, a)

    def test_single_cluster_convention(self):
        assert nmi(Labeling([1, 1, 1]), Labeling([1, 2, 3])) == 0.0

    def test_matches_probability_form(self, rng):
        for _ in range(30):
            a = Labeling(rng.integers(1, 5, size=40))
            b = Labeling(rng.integers(1, 6, size=40))
            assert nmi(a, b) == pytest.approx(nmi_prob_form(a.labels, b.labels), abs=1e-12)

    def test_enumeration_one_iff_same_partition(self):
        partitions = [Labeling(p) for p in set_partitions(5)]
        for a in partitions:
            for b in partitions:
                if a.k < 2 or b.k < 2:
                    continue
                value = nmi(a, b)
                if np.array_equal(a.labels, b.labels):
                    assert value == pytest.approx(1.0, abs=1e-9)
                else:
                    assert value < 1.0 - 1e-9
                assert -1e-12 <= value <= 1.0

    def test_relabeling_invariance(self, rng):
        a = Labeling(rng.integers(1, 5, size=40))
        b = Labeling(rng.integers(1, 4, size=40))
        assert nmi(relabel(a, rng), relabel(b, rng)) == pytest.approx(nmi(a, b), abs=1e-12)


class TestAnmi:
    def test_identical_inputs_sum(self):
        lab = Labeling([1, 1, 2, 2, 3])
        assert anmi(lab, [lab] * 4) == pytest.approx(4.0, abs=1e-9)

    def test_single_cluster_inputs(self):
        inputs = [Labeling([1, 1, 1, 1])] * 3
        assert anmi(Labeling([1, 2, 1, 2]), inputs) == 0.0

    def test_empty_inputs_error(self):
        with pytest.raises(ValueError):
            anmi(Labeling([1, 2]), [])

    def test_argmax_selection_matches_enumeration(self, rng):
        # full partition enumeration as the candidate pool: the selected
        # labeling must attain the exhaustive ANMI maximum
        inputs = [Labeling(rng.integers(1, 4, size=6)) for _ in range(3)]
        pool = [Labeling(p) for p in set_partitions(6) if Labeling(p).k <= 3]
        best = max(anmi(c, inputs) for c in pool)
        chosen = supra_consensus(inputs, k=3, extra_candidates=pool)
        assert anmi(chosen, inputs) == pytest.approx(best, abs=1e-9)


def noisy_ensemble(rng, n=300, k=5, members=50, noise=0.1):
    planted = Labeling(rng.integers(1, k + 1, size=n))
    inputs = []
    for _ in range(members):
        labels = planted.labels.copy()
        flip = rng.random(n) < noise
        offsets = rng.integers(1, k, size=n)
        labels[flip] = ((labels[flip] - 1 + offsets[flip]) % k) + 1
        inputs.append(Labeling(labels))
    return planted, inputs


def one_hot(columns, g):
    """The n×g hyperedge matrix Z with ones at ``columns``, dense."""
    z = np.zeros((columns.shape[0], g))
    z[np.arange(columns.shape[0])[:, None], columns] = 1.0
    return z


def co_association_values(inputs):
    """S = Z·Zᵀ/H as a dense matrix, from the columns ``co_association`` returns."""
    z = one_hot(*co_association(inputs))
    return (z @ z.T) / len(inputs)


def block_ensemble(sizes, heads):
    """Planted blocks of the given sizes and H heads, each of which splits
    one block in two or merges two adjacent blocks (head h alters block
    h mod len(sizes)): clean structure on which every sensible consensus
    recovers the blocks."""
    planted = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    starts = np.cumsum([0] + list(sizes))
    inputs = []
    for h in range(heads):
        labels = planted.copy()
        b = h % len(sizes)
        if h % 2:
            labels[labels == b + 1] = b + 2 if b + 1 < len(sizes) else b
        else:
            labels[starts[b]:starts[b] + sizes[b] // 2] = len(sizes) + 1
        inputs.append(Labeling(labels))
    return Labeling(planted), inputs


class TestCspa:
    def test_identical_inputs(self):
        lab = Labeling([1, 1, 2, 2, 3, 3])
        out = cspa([lab] * 5, k=3)
        acc, _ = clustering_accuracy(out, lab)
        assert acc == 1.0

    def test_single_cluster(self):
        lab = Labeling([1, 2, 3, 1])
        assert cspa([lab], k=1).k == 1

    def test_noisy_ensemble_beats_best_individual(self, rng):
        planted, inputs = noisy_ensemble(rng)
        out = cspa(inputs, k=5)
        consensus_acc, _ = clustering_accuracy(out, planted)
        individual = [clustering_accuracy(lam, planted)[0] for lam in inputs]
        assert consensus_acc >= max(individual)

    def test_k_exceeds_n(self):
        with pytest.raises(ValueError):
            cspa([Labeling([1, 2])], k=3)

    def test_relabeling_invariance(self, rng):
        _, inputs = noisy_ensemble(rng, n=60, members=10)
        out1 = cspa(inputs, k=5)
        out2 = cspa([relabel(lam, rng) for lam in inputs], k=5)
        assert np.array_equal(out1.labels, canonicalize(out2).labels)

    @pytest.mark.parametrize("inputs,k,expected", [
        # fewer clusters asked for than S has connected components, so
        # some samples get a zero row in the eigenvectors
        ([Labeling([1, 2, 3, 1])], 1, [1, 1, 1, 1]),
        ([Labeling([1, 2, 3, 1])], 2, None),
        ([Labeling([1, 2, 3, 1])], 3, [1, 2, 3, 1]),
        ([Labeling([1, 2, 3, 1])], 4, [1, 2, 3, 1]),
        ([Labeling([3])] * 2, 1, [1]),
        ([Labeling([1, 2]), Labeling([5, 5])], 1, [1, 1]),
        ([Labeling([1, 2]), Labeling([5, 5])], 2, [1, 2]),
        ([Labeling([7, 7])], 2, [1, 1]),
    ])
    def test_degenerate_inputs(self, inputs, k, expected):
        with np.errstate(all="raise"):
            out = cspa(inputs, k)
        assert out.n == inputs[0].n and out.k <= k
        if expected is None:
            # the 2 clusters group the components {0, 3}, {1}, {2}
            assert out.k == 2 and out.labels[0] == out.labels[3]
        else:
            assert out.labels.tolist() == expected

    def test_rank_below_k_returns_at_most_rank(self, rng):
        # identical heads with 3 clusters: S has rank 3, whatever k is
        lab = Labeling(rng.integers(1, 4, size=50))
        with np.errstate(all="raise"):
            out = cspa([lab] * 6, k=8)
        assert np.array_equal(canonicalize(out).labels, canonicalize(lab).labels)

    def test_rank_cutoff_has_a_margin_over_rounding(self, rng):
        """Random ensembles, whose Z always has rank below ΣC (each input's
        columns sum to the ones vector), some with repeated inputs: the
        Gram's zero eigenvalues stay 100 times below CSPA's cutoff and its
        other eigenvalues 100 times above, so exactly rank(Z) eigenvectors
        are kept."""
        for _ in range(300):
            n, h = int(rng.integers(5, 40)), int(rng.integers(2, 6))
            inputs = [Labeling(rng.integers(0, int(rng.integers(2, 6)), size=n))
                      for _ in range(h)]
            inputs += inputs[: int(rng.integers(0, 2))]
            columns, g = co_association(inputs)
            z = np.zeros((n, g))
            z[np.arange(n)[:, None], columns] = 1.0
            rank = np.linalg.matrix_rank(z)
            assert rank < g
            vals = np.linalg.eigh(cspa_gram(inputs))[0]
            cutoff = ensemble._rank_cutoff(n, g)
            assert vals[g - rank - 1] < cutoff / 100 < cutoff * 100 < vals[g - rank]

    def test_planted_half_noise(self):
        # each of 10 heads keeps the planted label of a sample with
        # probability 0.5 and otherwise draws a uniform label; a balanced
        # cut recovers the 10 planted clusters
        accs = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n, k = 600, 10
            planted = rng.integers(1, k + 1, size=n)
            inputs = [
                Labeling(np.where(rng.random(n) < 0.5, planted, rng.integers(1, k + 1, size=n)))
                for _ in range(10)
            ]
            accs.append(clustering_accuracy(cspa(inputs, k), Labeling(planted))[0])
        assert np.median(accs) >= 0.93

    def test_candidates_read_module_co_association(self, rng, monkeypatch):
        calls = []
        real = ensemble.co_association

        def counted(inputs):
            calls.append(len(inputs))
            return real(inputs)

        monkeypatch.setattr(ensemble, "co_association", counted)
        _, inputs = noisy_ensemble(rng, n=40, members=3)
        supra_consensus_table(inputs, k=5)
        assert calls == [3, 3]


class TestCoAssociation:
    def test_factor_form(self):
        columns, g = co_association([Labeling([5, 2, 5]), Labeling([1, 1, 9])])
        assert columns.dtype == np.int64 and columns.shape == (3, 2) and g == 4
        # columns: ids 2, 5 of the first input, then ids 1, 9 of the second
        assert one_hot(columns, g).tolist() == [[0, 1, 1, 0], [1, 0, 1, 0], [0, 1, 0, 1]]

    def test_block_structure(self):
        lab = Labeling([1, 1, 2])
        assert np.array_equal(co_association_values([lab, lab]), [[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    def test_fractional_counts(self):
        a = Labeling([1, 1, 2])
        b = Labeling([1, 2, 2])
        s = co_association_values([a, b])
        assert s.tolist() == [[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="same samples"):
            co_association([Labeling([1, 2, 2]), Labeling([1, 2])])


class TestDenseOracle:
    """The factored co-association against the dense n×n matrix it
    replaced, every entry bit for bit; and CSPA against the average-linkage
    CSPA on that matrix, which must find the same grouping wherever the
    structure is clean."""

    @staticmethod
    def assert_matches_dense(inputs):
        s = co_association_values(inputs)
        dense = dense_co_association(inputs).values
        assert np.array_equal(s.view(np.uint64), dense.view(np.uint64))

    @pytest.mark.parametrize("n,h,k", [(40, 5, 3), (97, 12, 6), (600, 4, 8)])
    def test_random_labelings(self, rng, n, h, k):
        self.assert_matches_dense([Labeling(rng.integers(1, k + 1, size=n)) for _ in range(h)])

    def test_noisy_ensemble(self, rng):
        _, inputs = noisy_ensemble(rng, n=300, members=20)
        self.assert_matches_dense(inputs)

    def test_one_and_two_samples(self):
        for inputs, k in [([Labeling([3])] * 2, 1), ([Labeling([1, 2]), Labeling([5, 5])], 1),
                          ([Labeling([1, 2]), Labeling([5, 5])], 2)]:
            self.assert_matches_dense(inputs)
            assert np.array_equal(cspa(inputs, k).labels, dense_cspa(inputs, k).labels)

    def test_single_labeling(self, rng):
        self.assert_matches_dense([Labeling(rng.integers(1, 6, size=80))])

    def test_count_beyond_uint8(self, rng):
        _, inputs = noisy_ensemble(rng, n=60, k=3, members=300, noise=0.05)
        # most pairs of a base cluster agree in more than 255 labelings
        pairs = np.triu(co_association_values(inputs) * 300, 1)
        assert pairs.max() > 255
        self.assert_matches_dense(inputs)

    def test_sparse_ids(self, rng):
        ids = np.array([10**9, -7, 3, 2**62])
        inputs = [Labeling(ids[rng.integers(0, 4, size=70)]) for _ in range(5)]
        self.assert_matches_dense(inputs)

    @pytest.mark.parametrize("sizes,heads", [
        ((20, 20, 20), 4), ((5, 17, 40, 3), 8), ((30, 2, 12, 50, 9, 25), 12),
    ])
    def test_cspa_same_grouping_as_average_linkage(self, sizes, heads):
        planted, inputs = block_ensemble(sizes, heads)
        k = len(sizes)
        out = cspa(inputs, k)
        got = canonicalize(out).labels
        assert np.array_equal(got, canonicalize(dense_cspa(inputs, k)).labels)
        assert np.array_equal(got, canonicalize(planted).labels)


def krylov_ensembles():
    """(name, inputs, k, path) with ΣC from 500 to 900, on which the block
    Krylov solver ran before subspace iteration replaced it: ``path`` is
    "subspace" where the loop meets its residual bound, "eigh" where random
    inputs leave too small a gap and ``eigh`` decides."""
    rng = np.random.default_rng(99)
    return [
        ("planted", noisy_ensemble(rng, n=1000, k=10, members=50, noise=0.5)[1], 10,
         "subspace"),
        # identical inputs: the Gram has rank 5 < k
        ("identical", [Labeling(rng.integers(1, 6, size=300))] * 100, 8, "subspace"),
        ("random", [Labeling(rng.integers(1, 21, size=600)) for _ in range(30)], 10, "eigh"),
        ("planted_900", noisy_ensemble(rng, n=900, k=20, members=45, noise=0.6)[1], 20,
         "subspace"),
    ]


KRYLOV_CASES = krylov_ensembles()
KRYLOV_IDS = [case[0] for case in KRYLOV_CASES]


def cspa_gram(inputs):
    """The Gram ``cspa`` solves for its eigenvectors."""
    columns, g = co_association(inputs)
    sizes = np.bincount(columns.ravel(), minlength=g)
    scale = 1.0 / np.sqrt(sizes[columns].sum(axis=1).astype(np.float64))
    return ensemble._gram(inputs, scale * scale)


def test_gram_blocks_are_pair_contingencies(rng):
    """Block (a, b) of the Gram, weighted or not, is bit-equal to the
    contingency table of inputs a and b, for uneven k and non-contiguous ids."""
    n = 300
    inputs = [Labeling(rng.choice(ids, size=n))
              for ids in ([5, -2, 40], [1, 2], [7, 8, 9, 100, 3], [0], [5, -2, 40])]
    edges = np.cumsum([0] + [lab.k for lab in inputs])
    spans = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    for weights in (None, rng.random(n)):
        gram = ensemble._gram(inputs, weights)
        assert gram.dtype == np.float64 and gram.shape == (14, 14)
        for a, b in np.ndindex(len(inputs), len(inputs)):
            want = contingency(inputs[a], inputs[b], weights).astype(np.float64)
            assert np.array_equal(gram[spans[a], spans[b]].view(np.uint64), want.view(np.uint64))


def wishart_gram(g):
    """A·Aᵀ for a g×g standard normal A (seed g): a flat top spectrum."""
    a = np.random.default_rng(g).normal(size=(g, g))
    return a @ a.T


class CountedGram(np.ndarray):
    """A Gram that counts its products with a block (``gram @ q``)."""

    products = 0

    def __matmul__(self, other):
        CountedGram.products += 1
        return np.asarray(self) @ other


class TestTopEigenpairs:
    """The subspace iteration against ``np.linalg.eigh``, which decides
    where the loop does not meet its bound."""

    @pytest.mark.parametrize("gram,k,path", [
        *(pytest.param(cspa_gram(inputs), k, path, id=name)
          for name, inputs, k, path in KRYLOV_CASES),
        # the quickstart and large_n shapes, ΣC = 50 and 100, among them
        *(pytest.param(wishart_gram(g), k, path, id=f"g{g}_k{k}")
          for g, k, path in [(1, 1, "subspace"), (50, 5, "eigh"), (100, 10, "eigh"),
                             (319, 10, "eigh"), (600, 40, "eigh")]),
    ])
    def test_within_tol_of_eigh(self, monkeypatch, gram, k, path):
        full = []
        real = np.linalg.eigh

        def spy(a, *args, **kwargs):
            full.append(a is gram)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        vals, vecs = ensemble._top_eigenpairs(gram, k)
        monkeypatch.undo()
        assert any(full) == (path == "eigh")
        ref = np.linalg.eigh(gram)[0][-k:]
        tol = ensemble.EIG_TOL * ref[-1]
        assert vals.shape == (k,) and vecs.shape == (gram.shape[0], k)
        assert np.all(np.diff(vals) >= 0)
        assert np.abs(vals - ref).max() <= tol
        assert np.linalg.norm(gram @ vecs - vecs * vals, axis=0).max() <= tol
        assert np.abs(vecs.T @ vecs - np.eye(k)).max() < 1e-12

    @pytest.mark.parametrize("name,inputs,k,path", KRYLOV_CASES[:2], ids=KRYLOV_IDS[:2])
    def test_tolerance_zero_falls_back_to_eigh_bit_for_bit(self, monkeypatch, name, inputs,
                                                           k, path):
        gram = cspa_gram(inputs)
        monkeypatch.setattr(ensemble, "EIG_TOL", 0.0)
        vals, vecs = ensemble._top_eigenpairs(gram, k)
        ref_vals, ref_vecs = np.linalg.eigh(gram)
        assert np.array_equal(vals.view(np.uint64), ref_vals[-k:].view(np.uint64))
        assert np.array_equal(vecs.view(np.uint64), ref_vecs[:, -k:].view(np.uint64))

    def test_flat_spectrum_gives_up_early(self, monkeypatch):
        """On the random inputs the residual's decay predicts the bound far
        past the cap of 2·600/20 = 60 iterations: the loop gives up by
        iteration 16, one product with G each, and ``eigh``'s slice is
        returned bit for bit."""
        _, inputs, k, _ = KRYLOV_CASES[2]
        gram = cspa_gram(inputs)
        monkeypatch.setattr(CountedGram, "products", 0)
        vals, vecs = ensemble._top_eigenpairs(gram.view(CountedGram), k)
        assert 0 < CountedGram.products <= 2 * ensemble.EIG_WINDOW
        ref_vals, ref_vecs = np.linalg.eigh(gram)
        assert np.array_equal(vals.view(np.uint64), ref_vals[-k:].view(np.uint64))
        assert np.array_equal(vecs.view(np.uint64), ref_vecs[:, -k:].view(np.uint64))

    @pytest.mark.parametrize("inputs,k,iterations", [
        (KRYLOV_CASES[1][1], 8, (2, 2)),
        (noisy_ensemble(np.random.default_rng(1), n=2000, k=20, members=30, noise=0.65)[1],
         20, (30, 40)),
    ], ids=["identical", "planted_slow"])
    def test_peak_is_a_few_blocks(self, monkeypatch, inputs, k, iterations):
        """Over the Gram, the loop holds a few g×w arrays (w = k + 10),
        however many iterations it runs: 2 on the identical inputs, 30 or
        more (of a cap of 2·600/30 = 40) on heads keeping 35% of a planted
        labeling.  A fallback to ``eigh`` would hold a g×g one."""
        gram = cspa_gram(inputs)
        g, w = gram.shape[0], k + ensemble.EIG_OVERSAMPLE
        monkeypatch.setattr(CountedGram, "products", 0)
        peak = traced_peak(lambda: ensemble._top_eigenpairs(gram.view(CountedGram), k))
        assert iterations[0] <= CountedGram.products <= iterations[1]
        assert peak <= 8 * g * w * 8

    def test_k_above_g_returns_every_pair(self, rng):
        a = rng.normal(size=(6, 6))
        vals, vecs = ensemble._top_eigenpairs(a @ a.T, 10)
        assert vals.shape == (6,) and vecs.shape == (6, 6)


def test_qr_pivots_match_the_outer_product_form(rng, monkeypatch):
    """Bit for bit the pivots and residuals of the projection by one n×m
    outer product per pivot, with rows repeated (ties) and with blocks of
    one and of seven rows as well as the default."""
    for rows in (None, 1, 7):
        if rows is not None:
            monkeypatch.setattr(featstore, "BLOCK_BYTES", 8 * 6 * rows)
        for n, m in [(1, 1), (40, 6), (500, 6)]:
            u = np.linalg.qr(rng.normal(size=(n, m)))[0]
            u = u[rng.integers(0, n, size=n)]
            assert np.array_equal(ensemble._qr_pivots(u, m), outer_qr_pivots(u, m))


def test_cspa_peak_memory_far_below_condensed_size(rng):
    """At n=3000, H=10 CSPA peaks below an eighth of the 36 MB that the
    condensed co-association alone would take; the dense n×n oracle (72 MB
    per matrix) peaks above 216 MB."""
    n = 3000
    inputs = [Labeling(rng.integers(1, 11, size=n)) for _ in range(10)]
    condensed = n * (n - 1) // 2 * 8
    assert traced_peak(lambda: cspa(inputs, 10)) <= condensed / 8
    assert traced_peak(lambda: dense_co_association(inputs)) >= 3 * n * n * 8


def test_cspa_at_sum_c_1000_peaks_below_two_grams():
    """At n=4000, H=50, C=20, k=20 (ΣC = 1000, the train_heavy shape) CSPA
    peaks below 16 MB, twice its 8 MB Gram: a full ``eigh`` would hold the
    Gram and its 8 MB g×g eigenvector matrix together.  The inputs keep
    their codings, so they are made first."""
    _, inputs = noisy_ensemble(np.random.default_rng(1), n=4000, k=20, members=50, noise=0.5)
    for lam in inputs:
        lam.coding
    g = co_association(inputs)[1]
    assert g == 1000
    assert traced_peak(lambda: cspa(inputs, 20)) < 2 * g * g * 8


class TestMcla:
    def test_identical_inputs(self):
        lab = Labeling([1, 1, 2, 2, 3, 3])
        out = mcla([lab] * 4, k=3)
        acc, _ = clustering_accuracy(out, lab)
        assert acc == 1.0

    def test_single_input_round_trips(self, rng):
        lab = Labeling(rng.integers(1, 5, size=30))
        out = mcla([lab], k=lab.k)
        acc, _ = clustering_accuracy(out, lab)
        assert acc == 1.0

    def test_noisy_ensemble_beats_mean_individual(self, rng):
        planted, inputs = noisy_ensemble(rng)
        out = mcla(inputs, k=5)
        consensus_acc, _ = clustering_accuracy(out, planted)
        individual = [clustering_accuracy(lam, planted)[0] for lam in inputs]
        assert consensus_acc >= np.mean(individual)

    def test_may_return_fewer_clusters(self):
        # all samples identical across inputs: requesting more clusters than
        # hyperedges can support must not fail
        lab = Labeling([1, 1, 1, 2])
        out = mcla([lab], k=4)
        assert out.k <= 4

    def test_relabeling_invariance(self, rng):
        _, inputs = noisy_ensemble(rng, n=60, members=10)
        out1 = mcla(inputs, k=5)
        out2 = mcla([relabel(lam, rng) for lam in inputs], k=5)
        assert np.array_equal(out1.labels, out2.labels)

    def test_distance_is_one_minus_jaccard_bitwise(self, rng, monkeypatch):
        _, inputs = noisy_ensemble(rng, n=60, members=10)
        seen = []

        def record(dist, k):
            seen.append(dist.copy())
            return cut(dist, k)

        cut = ensemble._average_linkage_cut
        monkeypatch.setattr(ensemble, "_average_linkage_cut", record)
        inter = ensemble._gram(inputs)
        g = inter.shape[0]
        monkeypatch.setattr(featstore, "BLOCK_BYTES", 7 * 8 * g)  # row blocks of 7
        assert g % 7 and len(featstore.blocks(g, 8 * g)) > 1
        mcla(inputs, k=5)
        sizes = inter.diagonal()
        want = 1.0 - inter / (np.add.outer(sizes, sizes) - inter)
        assert np.array_equal(seen[0], want)

    def test_peak_is_about_one_gram(self):
        # 100 inputs of 20 clusters: g = 2000 hyperedges, a 32 MB g×g Gram; a
        # separate g×g distance matrix beside it would double the peak
        n, c, h = 400, 20, 100
        rng = np.random.default_rng(0)
        inputs = [Labeling(rng.permutation(np.arange(n) % c) + 1) for _ in range(h)]
        g = c * h
        assert traced_peak(lambda: mcla(inputs, k=10)) < 1.5 * g * g * 8


class TestSupraConsensus:
    def test_identical_inputs_tie_keeps_cspa(self):
        lab = Labeling([1, 1, 2, 2])
        rows, best_idx = supra_consensus_table([lab] * 3, k=2)
        assert rows[best_idx][0] == "cspa"
        assert rows[best_idx][1] == pytest.approx(3.0, abs=1e-9)

    def test_planted_truth_wins(self, rng):
        planted, inputs = noisy_ensemble(rng, n=200, members=20, noise=0.3)
        chosen = supra_consensus(inputs, k=5, extra_candidates=[planted])
        scores = {
            "chosen": anmi(chosen, inputs),
            "planted": anmi(planted, inputs),
            "cspa": anmi(cspa(inputs, 5), inputs),
            "mcla": anmi(mcla(inputs, 5), inputs),
        }
        assert scores["chosen"] == max(scores.values())

    def test_extra_equal_to_inputs_selected_among_ties(self):
        lab = Labeling([1, 2, 2, 3])
        chosen = supra_consensus([lab] * 4, k=3, extra_candidates=[lab])
        assert anmi(chosen, [lab] * 4) == pytest.approx(4.0, abs=1e-9)

    def test_returns_candidate_attaining_max(self, rng):
        _, inputs = noisy_ensemble(rng, n=100, members=10)
        rows, best_idx = supra_consensus_table(inputs, k=5, extra_candidates=[inputs[0]],
                                               extra_names=["head0"])
        assert rows[best_idx][1] == max(r[1] for r in rows)

    def test_consensus_quality_trials(self):
        # 20 seeded trials: consensus accuracy must beat the mean individual
        # accuracy in at least 19
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            planted, inputs = noisy_ensemble(rng)
            chosen = supra_consensus(inputs, k=5)
            acc, _ = clustering_accuracy(chosen, planted)
            mean_individual = np.mean(
                [clustering_accuracy(lam, planted)[0] for lam in inputs]
            )
            wins += acc >= mean_individual
        assert wins >= 19

    def test_empty_inputs_error(self):
        with pytest.raises(ValueError):
            supra_consensus([], k=2)


def _standardize_wrong_d():
    stats = featstore.NormStats(mean=np.zeros(3), var=np.ones(3))
    featstore.apply_standardizer(featstore.EmbeddingMatrix(np.ones((4, 2))), stats)


@pytest.mark.parametrize("call, text", [
    (lambda: clustering_accuracy(Labeling([1, 2, 1]), Labeling([1, 2])),
     "labelings differ in length: 3 vs 2"),
    (lambda: supra_consensus_table([], 2), "need at least one input labeling"),
    (_standardize_wrong_d, "dimension mismatch: features d=2, stats d=3"),
], ids=["accuracy_lengths", "supra_consensus_empty", "standardizer_d"])
def test_checks_made_once_on_the_path_keep_their_message(call, text):
    # each entry point leaves the check to the one its path already runs
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == text
