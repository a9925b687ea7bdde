import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import squareform

from clusterens import (
    Labeling,
    anmi,
    canonicalize,
    cspa,
    ensemble,
    mcla,
    neighbors,
    nmi,
    supra_consensus,
)
from clusterens.ensemble import (
    check_cspa_memory,
    co_association,
    contingency,
    entropy_count,
    mutual_information,
    supra_consensus_table,
)
from clusterens.errors import ConfigError
from clusterens.metrics import clustering_accuracy

from oracles import dense_co_association, dense_cspa, nmi_prob_form, set_partitions


def relabel(labeling, rng):
    """Randomly permute cluster ids, keeping the grouping."""
    ids = np.unique(labeling.labels)
    new_ids = rng.permutation(ids.size) + 101
    mapping = dict(zip(ids.tolist(), new_ids.tolist()))
    return Labeling([mapping[v] for v in labeling.labels.tolist()])


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
        table = contingency(Labeling([1, 1, 2, 2]), Labeling([1, 2, 1, 2]))
        assert np.array_equal(table.counts, [[1, 1], [1, 1]])

    def test_identical_diagonal(self):
        lab = Labeling([1, 1, 2, 3, 3, 3])
        table = contingency(lab, lab)
        assert np.array_equal(table.counts, np.diag([2, 1, 3]))

    def test_single_sample(self):
        table = contingency(Labeling([4]), Labeling([9]))
        assert table.counts.tolist() == [[1]]

    def test_sums_consistent(self, rng):
        a = Labeling(rng.integers(1, 5, size=60))
        b = Labeling(rng.integers(1, 7, size=60))
        table = contingency(a, b)
        assert table.n == 60
        assert table.row_sums.sum() == 60
        assert table.col_sums.sum() == 60

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contingency(Labeling([1, 2]), Labeling([1, 2, 3]))


class TestCountFormEstimates:
    def test_independent_table_zero(self):
        table = contingency(Labeling([1, 1, 2, 2]), Labeling([1, 2, 1, 2]))
        assert mutual_information(table) == pytest.approx(0.0, abs=1e-12)

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


class TestCoAssociation:
    def test_condensed_form(self, rng):
        inputs = [Labeling(rng.integers(1, 4, size=7)) for _ in range(3)]
        s = co_association(inputs)
        assert s.dtype == np.float64
        assert s.shape == (7 * 6 // 2,)
        assert 0.0 <= s.min() and s.max() <= 1.0

    def test_block_structure(self):
        lab = Labeling([1, 1, 2])
        s = co_association([lab, lab])
        # pdist order: (0, 1), (0, 2), (1, 2)
        assert s.tolist() == [1.0, 0.0, 0.0]
        assert np.array_equal(squareform(s) + np.eye(3), [[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    def test_fractional_counts(self):
        a = Labeling([1, 1, 2])
        b = Labeling([1, 2, 2])
        assert co_association([a, b]).tolist() == [0.5, 0.0, 0.5]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="same samples"):
            co_association([Labeling([1, 2, 2]), Labeling([1, 2])])


class TestDenseOracle:
    """The condensed build against the dense n×n matrix it replaced: every
    entry bit for bit, and the same CSPA labeling."""

    @staticmethod
    def assert_matches_dense(inputs, k):
        s = co_association(inputs)
        dense = dense_co_association(inputs).values
        expected = squareform(dense, checks=False)
        assert np.array_equal(s.view(np.uint64), expected.view(np.uint64))
        distance = np.subtract(1.0, s)
        expected = squareform(1.0 - dense, checks=False)
        assert np.array_equal(distance.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(cspa(inputs, k).labels, dense_cspa(inputs, k).labels)

    @pytest.mark.parametrize("n,h,k", [(40, 5, 3), (97, 12, 6), (600, 4, 8)])
    def test_random_labelings(self, rng, n, h, k):
        self.assert_matches_dense([Labeling(rng.integers(1, k + 1, size=n)) for _ in range(h)], k)

    def test_noisy_ensemble(self, rng):
        _, inputs = noisy_ensemble(rng, n=300, members=20)
        self.assert_matches_dense(inputs, 5)

    @pytest.mark.parametrize("block_rows,n", [(9, 100), (7, 113), (1, 20)])
    def test_ragged_blocks(self, rng, monkeypatch, block_rows, n):
        monkeypatch.setattr(neighbors, "BLOCK_ROWS", block_rows)
        _, inputs = noisy_ensemble(rng, n=n, k=4, members=6, noise=0.3)
        self.assert_matches_dense(inputs, 4)

    def test_one_and_two_samples(self):
        self.assert_matches_dense([Labeling([3])] * 2, 1)
        self.assert_matches_dense([Labeling([1, 2]), Labeling([5, 5])], 1)
        self.assert_matches_dense([Labeling([1, 2]), Labeling([5, 5])], 2)

    def test_single_labeling(self, rng):
        self.assert_matches_dense([Labeling(rng.integers(1, 6, size=80))], 5)

    def test_count_beyond_uint8(self, rng):
        _, inputs = noisy_ensemble(rng, n=60, k=3, members=300, noise=0.05)
        # most pairs of a base cluster agree in more than 255 labelings
        assert (co_association(inputs) * 300).max() > 255
        self.assert_matches_dense(inputs, 3)

    def test_sparse_ids(self, rng):
        ids = np.array([10**9, -7, 3, 2**62])
        inputs = [Labeling(ids[rng.integers(0, 4, size=70)]) for _ in range(5)]
        self.assert_matches_dense(inputs, 4)


def test_co_association_peak_memory_near_condensed_size(rng):
    """At n=3000, H=10 the condensed build peaks within 1.25× its 36 MB
    output; the dense n×n oracle (72 MB per matrix) peaks above 216 MB."""
    n = 3000
    inputs = [Labeling(rng.integers(1, 11, size=n)) for _ in range(10)]
    condensed = n * (n - 1) // 2 * 8

    def peak(fn):
        tracemalloc.start()
        try:
            fn(inputs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(co_association) <= 1.25 * condensed
    assert peak(dense_co_association) >= 3 * n * n * 8


class TestMemoryPreflight:
    @pytest.fixture
    def meminfo(self, tmp_path, monkeypatch):
        def set_available(kib):
            path = tmp_path / "meminfo"
            path.write_text(f"MemTotal: 8000000 kB\nMemAvailable: {kib} kB\n")
            monkeypatch.setattr(ensemble, "MEMINFO", str(path))

        return set_available

    def test_need_compared_with_available(self, meminfo):
        n = 1000
        meminfo(8 * n * (n - 1) // 1024 + 1)
        check_cspa_memory(n)
        meminfo(8 * n * (n - 1) // 1024 - 1)
        with pytest.raises(ConfigError, match=f"n={n} .* {8 * n * (n - 1)} bytes"):
            check_cspa_memory(n)

    def test_unreadable_probe_skips_check(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ensemble, "MEMINFO", str(tmp_path / "missing"))
        check_cspa_memory(10**7)
        path = tmp_path / "meminfo"
        path.write_text("MemTotal: 8000000 kB\n")
        monkeypatch.setattr(ensemble, "MEMINFO", str(path))
        check_cspa_memory(10**7)

    def test_cspa_refuses_before_allocating(self, meminfo, monkeypatch):
        meminfo(1)

        def no_build(inputs):
            raise AssertionError("co-association built despite the preflight")

        monkeypatch.setattr(ensemble, "co_association", no_build)
        with pytest.raises(ConfigError, match="n=50 "):
            cspa([Labeling(np.arange(50) % 3)], k=3)


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
