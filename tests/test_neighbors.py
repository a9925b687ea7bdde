import numpy as np
import pytest

from clusterens import (
    EmbeddingMatrix,
    Labeling,
    SynthSpec,
    build_neighbor_sets,
    cosine_similarity,
    gen_synthetic,
    ground_truth_neighbors,
    neighbor_accuracy,
)
from clusterens.cli import main
from clusterens.errors import LoadError
from clusterens.featstore import save_features
from clusterens.neighbors import NeighborSets, load_neighbor_sets, save_neighbor_sets

from oracles import brute_force_neighbor_sets


class TestCosine:
    def test_self_similarity(self, rng):
        v = rng.normal(size=6)
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0, 0], [0, 1, 0]) == 0.0

    def test_hand_value(self):
        assert cosine_similarity([1, 1], [1, 0]) == pytest.approx(1 / np.sqrt(2))

    def test_zero_norm_error(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_similarity([0, 0], [1, 0])

    def test_clamped_range(self, rng):
        for _ in range(100):
            u, v = rng.normal(size=4), rng.normal(size=4)
            assert -1.0 <= cosine_similarity(u, v) <= 1.0


class TestBuildSets:
    def test_three_point_hand_case(self):
        m = EmbeddingMatrix([[1, 0], [1, 0], [0, 1]])
        sets = build_neighbor_sets(m, theta=0.3, k_min=1)
        assert sets.sets[0].tolist() == [1]
        assert sets.sets[1].tolist() == [0]
        # e2's only above-threshold partner is itself, so k_min fallback kicks in
        assert len(sets.sets[2]) == 1

    def test_theta_one_gives_exactly_top_k_min(self, rng):
        m = EmbeddingMatrix(rng.normal(size=(40, 8)))
        sets = build_neighbor_sets(m, theta=1.0, k_min=5)
        assert all(s.size == 5 for s in sets.sets)
        top = build_neighbor_sets(m, theta=2.0, k_min=5)  # pure fallback
        for a, b in zip(sets.sets, top.sets):
            assert np.array_equal(a, b)

    def test_threshold_monotonicity(self, rng):
        m = EmbeddingMatrix(rng.normal(size=(50, 6)))
        sizes = []
        for theta in (0.9, 0.5, 0.1, -0.5):
            sizes.append(build_neighbor_sets(m, theta, 3).sizes())
        for tighter, looser in zip(sizes, sizes[1:]):
            assert np.all(looser >= tighter)

    def test_fallback_floor(self, rng):
        m = EmbeddingMatrix(rng.normal(size=(12, 4)))
        for k_min in (1, 5, 20):
            sets = build_neighbor_sets(m, theta=0.99, k_min=k_min)
            assert sets.sizes().min() >= min(k_min, 11)

    def test_ordering_descending_similarity(self, rng):
        m = EmbeddingMatrix(rng.normal(size=(25, 5)))
        sets = build_neighbor_sets(m, theta=-1.0, k_min=1)
        unit = m.data / np.linalg.norm(m.data, axis=1, keepdims=True)
        sims = unit @ unit.T
        for x, s in enumerate(sets.sets):
            vals = sims[x, s]
            assert np.all(np.diff(vals) <= 1e-15)

    def test_brute_force_equivalence(self, rng):
        for n, d, theta, k_min in [(30, 4, 0.2, 3), (80, 6, 0.5, 5), (200, 8, 0.0, 10)]:
            data = rng.normal(size=(n, d))
            m = EmbeddingMatrix(data)
            sets = build_neighbor_sets(m, theta, k_min)
            ref = brute_force_neighbor_sets(data, theta, k_min)
            for got, want in zip(sets.sets, ref):
                assert got.tolist() == want

    def test_permutation_stability(self, rng):
        data = rng.normal(size=(30, 5))
        m = EmbeddingMatrix(data)
        sets = build_neighbor_sets(m, 0.3, 4)
        perm = rng.permutation(30)
        inv = np.argsort(perm)
        permuted = build_neighbor_sets(EmbeddingMatrix(data[perm]), 0.3, 4)
        # map permuted-space sets back to original indices
        for x in range(30):
            back = sorted(perm[permuted.sets[inv[x]]].tolist())
            assert back == sorted(sets.sets[x].tolist())

    def test_threads_deterministic(self, rng):
        m = EmbeddingMatrix(rng.normal(size=(150, 6)))
        a = build_neighbor_sets(m, 0.4, 5, threads=1)
        b = build_neighbor_sets(m, 0.4, 5, threads=4)
        for sa, sb in zip(a.sets, b.sets):
            assert np.array_equal(sa, sb)

    def test_no_self_and_unique(self, blobs_small):
        m, _ = blobs_small
        sets = build_neighbor_sets(m, 0.3, 5)
        for x, s in enumerate(sets.sets):
            assert x not in s
            assert len(set(s.tolist())) == len(s)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            build_neighbor_sets(EmbeddingMatrix([[1.0, 0.0]]), 0.3, 1)

    def test_zero_norm_row_rejected(self):
        m = EmbeddingMatrix([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="row 1"):
            build_neighbor_sets(m, 0.3, 1)


class TestGroundTruth:
    def test_by_definition(self):
        sets = ground_truth_neighbors(Labeling([1, 1, 2]))
        assert sets.sets[0].tolist() == [1]
        assert sets.sets[1].tolist() == [0]
        assert sets.sets[2].tolist() == []

    def test_all_same_label(self):
        sets = ground_truth_neighbors(Labeling([7, 7, 7, 7]))
        assert all(s.size == 3 for s in sets.sets)

    def test_pair_accuracy_tautology(self):
        labels = Labeling([1, 1, 2, 2, 3, 3])
        stats = neighbor_accuracy(ground_truth_neighbors(labels), labels)
        assert stats.pair_accuracy == 1.0

    def test_singleton_flagged(self):
        labels = Labeling([1, 1, 2])
        stats = neighbor_accuracy(ground_truth_neighbors(labels), labels)
        assert stats.singleton_classes == 1


class TestAccuracy:
    def test_all_wrong(self):
        sets = NeighborSets((np.array([1]), np.array([0])))
        stats = neighbor_accuracy(sets, Labeling([1, 2]))
        assert stats.pair_accuracy == 0.0

    def test_counts_weighted_not_averaged(self):
        # sample 0 has 3 neighbors (1 right), sample 1 has 1 (right):
        # pair accuracy is 2/4, not the mean of per-sample rates
        sets = NeighborSets((np.array([1, 2, 3]), np.array([0]), np.array([]), np.array([])))
        stats = neighbor_accuracy(sets, Labeling([1, 1, 2, 2]))
        assert stats.pair_accuracy == pytest.approx(0.5)
        assert stats.avg_count == 1.0

    def test_synthetic_blobs_high_accuracy(self, blobs_medium):
        m, labels = blobs_medium
        sets = build_neighbor_sets(m, 0.3, 5)
        stats = neighbor_accuracy(sets, labels)
        assert stats.pair_accuracy >= 0.99

    def test_all_empty_error(self):
        sets = NeighborSets((np.array([]), np.array([])))
        with pytest.raises(ValueError, match="empty"):
            neighbor_accuracy(sets, Labeling([1, 2]))

    def test_length_mismatch(self):
        sets = NeighborSets((np.array([1]), np.array([0])))
        with pytest.raises(ValueError):
            neighbor_accuracy(sets, Labeling([1, 2, 3]))


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        m = EmbeddingMatrix(rng.normal(size=(20, 4)))
        sets = build_neighbor_sets(m, 0.2, 3)
        path = tmp_path / "sets.nns"
        save_neighbor_sets(sets, path)
        back = load_neighbor_sets(path)
        assert back.n == sets.n
        for a, b in zip(sets.sets, back.sets):
            assert np.array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.nns"
        path.write_bytes(b"XXXX\x00\x00\x00\x00")
        with pytest.raises(LoadError, match="magic"):
            load_neighbor_sets(path)

    def test_truncation(self, tmp_path, rng):
        m = EmbeddingMatrix(rng.normal(size=(10, 3)))
        sets = build_neighbor_sets(m, 0.5, 2)
        path = tmp_path / "sets.nns"
        save_neighbor_sets(sets, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(LoadError):
            load_neighbor_sets(path)

    @pytest.mark.parametrize(
        "byte, value, match",
        [(12, 0xFF, "outside"), (12, 0x00, "itself"), (16, None, "duplicate")],
    )
    def test_invalid_index_raises_load_error(self, tmp_path, byte, value, match):
        m, _ = gen_synthetic(SynthSpec(n=40, d=3, k=2, separation=10.0, seed=4))
        path = tmp_path / "sets.nns"
        save_neighbor_sets(build_neighbor_sets(m, 0.99, 3), path)
        raw = bytearray(path.read_bytes())
        # sample 0: count at byte 8, its first index at 12, the second at 16
        raw[byte] = raw[12] if value is None else value
        path.write_bytes(bytes(raw))
        with pytest.raises(LoadError, match=match):
            load_neighbor_sets(path)

    def test_out_of_range_index_fails_train_command(self, tmp_path, capsys):
        m, _ = gen_synthetic(SynthSpec(n=40, d=3, k=2, separation=10.0, seed=4))
        fpath, path, out = tmp_path / "f.fpk", tmp_path / "sets.nns", tmp_path / "run"
        save_features(m, fpath)
        save_neighbor_sets(build_neighbor_sets(m, 0.99, 3), path)
        raw = bytearray(path.read_bytes())
        raw[12] = 0xFF
        path.write_bytes(bytes(raw))
        code = main(["train", "--features", str(fpath), "--neighbors", str(path),
                     "--out", str(out), "--set", "train.num_clusters=2"])
        assert code == 2
        assert "outside [0, 40)" in capsys.readouterr().err
        assert not (out / "neighbors.nns").exists()


def test_neighbor_sets_reject_self_membership():
    with pytest.raises(ValueError, match="itself"):
        NeighborSets((np.array([0]), np.array([0])))


def test_neighbor_sets_reject_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        NeighborSets((np.array([1, 1]), np.array([0])))
