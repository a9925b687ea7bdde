import numpy as np
import pytest

from clusterens import Labeling, ari, canonicalize, clustering_accuracy, evaluate, hungarian, nmi

from oracles import ari_pair_counts, brute_force_acc, brute_force_assignment, set_partitions


class TestHungarian:
    def test_diagonal_optimum(self):
        pairs, cost = hungarian([[0, 1], [1, 0]])
        assert pairs == [(0, 0), (1, 1)]
        assert cost == 0.0

    def test_hand_case(self):
        pairs, cost = hungarian([[4, 1], [2, 0]])
        assert pairs == [(0, 1), (1, 0)]
        assert cost == 3.0

    def test_matches_brute_force_square(self, rng):
        for _ in range(60):
            size = int(rng.integers(1, 8))
            cost = rng.integers(0, 50, size=(size, size)).astype(float)
            _, total = hungarian(cost)
            assert total == brute_force_assignment(cost)

    def test_matches_brute_force_rectangular(self, rng):
        for _ in range(60):
            r = int(rng.integers(1, 8))
            c = int(rng.integers(1, 8))
            cost = rng.normal(size=(r, c))
            pairs, total = hungarian(cost)
            assert len(pairs) == min(r, c)
            assert total == pytest.approx(brute_force_assignment(cost), abs=1e-12)

    def test_one_to_one(self, rng):
        cost = rng.normal(size=(5, 7))
        pairs, _ = hungarian(cost)
        rows = [r for r, _ in pairs]
        cols = [c for _, c in pairs]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            hungarian(np.empty((0, 3)))

    def test_non_finite_error(self):
        with pytest.raises(ValueError):
            hungarian([[np.inf, 1.0], [1.0, 0.0]])


class TestClusteringAccuracy:
    def test_pure_relabeling(self):
        acc, _ = clustering_accuracy(Labeling([1, 1, 2, 2, 3]), Labeling([2, 2, 3, 3, 1]))
        assert acc == 1.0

    def test_identical(self):
        lab = Labeling([1, 2, 2, 3])
        acc, matching = clustering_accuracy(lab, lab)
        assert acc == 1.0
        assert matching == {1: 1, 2: 2, 3: 3}

    def test_hand_three_quarters(self):
        acc, matching = clustering_accuracy(Labeling([1, 1, 1, 2]), Labeling([1, 1, 2, 2]))
        assert acc == 0.75
        assert matching[1] == 1 and matching[2] == 2

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            pred = Labeling(rng.integers(1, 6, size=n))
            gt = Labeling(rng.integers(1, 5, size=n))
            acc, _ = clustering_accuracy(pred, gt)
            assert acc == pytest.approx(brute_force_acc(pred.labels, gt.labels), abs=1e-12)

    def test_beats_any_fixed_mapping(self, rng):
        pred = Labeling(rng.integers(1, 4, size=40))
        gt = Labeling(rng.integers(1, 4, size=40))
        acc, _ = clustering_accuracy(pred, gt)
        identity_acc = np.mean(pred.labels == gt.labels)
        assert acc >= identity_acc

    def test_matching_injective_on_smaller_side(self, rng):
        pred = Labeling(rng.integers(1, 8, size=50))
        gt = Labeling(rng.integers(1, 4, size=50))
        _, matching = clustering_accuracy(pred, gt)
        assert len(matching) == min(pred.k, gt.k)
        assert len(set(matching.values())) == len(matching)

    def test_acc_equals_fraction_under_matching(self, rng):
        for _ in range(20):
            pred = Labeling(rng.integers(1, 6, size=40))
            gt = Labeling(rng.integers(1, 5, size=40))
            acc, matching = clustering_accuracy(pred, gt)
            mapped = np.array([matching.get(v, -1) for v in pred.labels])
            assert acc == np.mean(mapped == gt.labels)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            clustering_accuracy(Labeling([1]), Labeling([1, 2]))


class TestAri:
    def test_identical_partitions(self):
        lab = Labeling([1, 1, 2, 2, 3])
        assert ari(lab, lab) == 1.0

    def test_hand_value_crossed_pairs(self):
        # derived by evaluating the adjustment formula (and cross-checked by
        # pair counting): all four cells are 1, so the index is -1/2
        value = ari(Labeling([1, 1, 2, 2]), Labeling([1, 2, 1, 2]))
        assert value == pytest.approx(-0.5, abs=1e-12)
        assert value == pytest.approx(
            ari_pair_counts([1, 1, 2, 2], [1, 2, 1, 2]), abs=1e-12
        )

    def test_relabeling_invariance(self, rng):
        a = Labeling(rng.integers(1, 5, size=30))
        b = Labeling(rng.integers(1, 4, size=30))
        shifted = Labeling(a.labels * 7 + 3)
        assert ari(shifted, b) == pytest.approx(ari(a, b), abs=1e-12)

    def test_symmetry(self, rng):
        a = Labeling(rng.integers(1, 5, size=30))
        b = Labeling(rng.integers(1, 4, size=30))
        assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)

    def test_matches_pair_counting(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 25))
            a = rng.integers(1, 5, size=n)
            b = rng.integers(1, 5, size=n)
            assert ari(Labeling(a), Labeling(b)) == pytest.approx(
                ari_pair_counts(a, b), abs=1e-9
            )

    def test_trivial_identical_partitions(self):
        assert ari(Labeling([1, 1, 1]), Labeling([2, 2, 2])) == 1.0
        assert ari(Labeling([1, 2, 3]), Labeling([3, 1, 2])) == 1.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            ari(Labeling([1]), Labeling([1]))


class TestMetricAgreement:
    def test_perfect_iff_same_partition(self):
        partitions = [Labeling(p) for p in set_partitions(5)]
        for a in partitions:
            if a.k < 2:
                continue
            for b in partitions:
                if b.k < 2:
                    continue
                same = np.array_equal(canonicalize(a).labels, canonicalize(b).labels)
                acc, _ = clustering_accuracy(a, b)
                v_nmi = nmi(a, b)
                v_ari = ari(a, b)
                if same:
                    assert acc == 1.0
                    assert v_nmi == pytest.approx(1.0, abs=1e-9)
                    assert v_ari == pytest.approx(1.0, abs=1e-9)
                else:
                    assert acc < 1.0
                    assert v_nmi < 1.0 - 1e-9
                    assert v_ari < 1.0 - 1e-9

    def test_evaluate_bundles_all(self, rng):
        pred = Labeling(rng.integers(1, 4, size=30))
        gt = Labeling(rng.integers(1, 4, size=30))
        report = evaluate(pred, gt)
        assert report.acc == clustering_accuracy(pred, gt)[0]
        assert report.nmi == nmi(pred, gt)
        assert report.ari == ari(pred, gt)
