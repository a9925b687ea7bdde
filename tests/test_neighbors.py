import tracemalloc

import numpy as np
import pytest

from clusterens import (
    EmbeddingMatrix,
    Labeling,
    SynthSpec,
    build_neighbor_sets,
    gen_synthetic,
    ground_truth_neighbors,
    neighbor_accuracy,
    sweep_neighbor_sets,
)
from clusterens import featstore, neighbors
from clusterens.cli import main
from clusterens.errors import LoadError
from clusterens.featstore import save_features
from clusterens.neighbors import NeighborSets, load_neighbor_sets, save_neighbor_sets

from oracles import brute_force_neighbor_sets, dense_neighbor_sets, dense_similarity_matrix


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

    def test_members_in_ascending_index_order(self, rng):
        m = EmbeddingMatrix(rng.normal(size=(25, 5)))
        sets = build_neighbor_sets(m, theta=-1.0, k_min=1)
        for x, s in enumerate(sets.sets):
            assert s.tolist() == [y for y in range(25) if y != x]
        for theta, k_min in [(0.3, 4), (0.9, 6), (2.0, 3)]:
            for s in build_neighbor_sets(m, theta, k_min).sets:
                assert (np.diff(s) > 0).all()

    def test_brute_force_equivalence(self, rng):
        for n, d, theta, k_min in [(30, 4, 0.2, 3), (80, 6, 0.5, 5), (200, 8, 0.0, 10)]:
            data = rng.normal(size=(n, d))
            m = EmbeddingMatrix(data)
            sets = build_neighbor_sets(m, theta, k_min)
            ref = brute_force_neighbor_sets(data, theta, k_min)
            for got, want in zip(sets.sets, ref):
                assert got.tolist() == sorted(want)

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

    @pytest.mark.parametrize("k", [-1074, -1000, 0, 1000, 1023])
    def test_only_an_all_zero_row_has_zero_norm(self, k):
        # at 2**-1074 every nonzero value is the smallest subnormal, whose
        # square underflows; the rows are mined as their unscaled copies are
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        scaled = build_neighbor_sets(EmbeddingMatrix(np.ldexp(rows, k)), 0.3, 1)
        assert pair_bytes(scaled) == pair_bytes(build_neighbor_sets(EmbeddingMatrix(rows), 0.3, 1))
        rows[1] = 0.0
        with pytest.raises(ValueError, match="zero-norm feature row 1"):
            build_neighbor_sets(EmbeddingMatrix(np.ldexp(rows, k)), 0.3, 1)


def pair_bytes(sets):
    """The bytes of ``sets``' offsets and indices, which fix its NNS1 bytes."""
    return sets.offsets.tobytes(), sets.indices.tobytes()


def dyadic_rows(rng, n, d):
    """Integer rows whose cosines are all exact binary fractions.

    Each row holds 1, 4 or 16 entries of ±s (s = 1, 2 or 4), so its norm is
    a power of two and every product of unit rows is exact: any BLAS kernel
    gives the same similarities, and equal cosines tie exactly.  (General
    data can differ in the last bit between the dense product and a row
    block's product, which may swap two samples tied up to rounding.)
    """
    out = np.zeros((n, d))
    for r in range(n):
        k = rng.choice([c for c in (1, 4, 16) if c <= d])
        cols = rng.choice(d, size=k, replace=False)
        out[r, cols] = rng.choice([-1.0, 1.0], size=k) * rng.choice([1.0, 2.0, 4.0])
    return out


def near_theta_rows(rng, n, theta, d=6, anchors=3):
    """Random rows in ``anchors`` groups of size = n // anchors: row j > 0 of
    a group has cosine theta + (j - size // 2 + 0.5)·1e-9 with its row 0."""
    out = rng.normal(size=(n, d))
    size = n // anchors
    for first in range(0, anchors * size, size):
        anchor = out[first] / np.linalg.norm(out[first])
        for j in range(1, size):
            away = out[first + j] - (out[first + j] @ anchor) * anchor
            c = theta + (j - size // 2 + 0.5) * 1e-9
            out[first + j] = c * anchor + np.sqrt(1 - c * c) * away / np.linalg.norm(away)
    return out


def assert_matches_dense(m, theta, k_min):
    """Mined sets equal the dense oracle's, each listed in ascending index order."""
    want = [np.sort(w) for w in dense_neighbor_sets(m, theta, k_min)]
    got = build_neighbor_sets(m, theta, k_min)
    assert got.offsets.tolist() == np.cumsum([0] + [w.size for w in want]).tolist()
    assert got.indices.tolist() == np.concatenate(want).tolist()


def similarity_blocks(n):
    """The row slices mining cuts its similarity blocks into at n samples."""
    return featstore.blocks(n, 4 * n, neighbors.MIN_BLOCK_ROWS)


class TestDenseOracle:
    """Row-block mining gives exactly the sets of the dense float64
    formulation, in one block and in blocks the byte budget cuts to a few
    rows each, the last one short."""

    N = 150

    @pytest.fixture(params=[None, 16, 11, 9, 7, 4],
                    ids=["one_block", "ragged_16", "ragged_11", "ragged_9", "ragged_7", "ragged_4"])
    def blocks(self, request, monkeypatch):
        rows = request.param
        if rows is None:
            assert len(similarity_blocks(self.N)) == 1
        else:
            monkeypatch.setattr(neighbors, "MIN_BLOCK_ROWS", 1)
            monkeypatch.setattr(featstore, "BLOCK_BYTES", rows * 4 * self.N)
            spans = similarity_blocks(self.N)
            assert spans[0] == slice(0, rows) and 0 < spans[-1].stop - spans[-1].start < rows

    def test_random(self, rng, blocks):
        m = EmbeddingMatrix(rng.normal(size=(self.N, 6)))
        for theta, k_min in [(0.4, 5), (-1.0, 1), (0.9, 20), (2.0, 3), (0.0, 200)]:
            assert_matches_dense(m, theta, k_min)

    def test_duplicated_rows(self, rng, blocks):
        base = dyadic_rows(rng, 30, 16)
        m = EmbeddingMatrix(base[rng.integers(0, 30, size=self.N)])
        for theta, k_min in [(1.0, 3), (0.5, 8), (0.25, 40), (2.0, 12)]:
            assert_matches_dense(m, theta, k_min)

    def test_integer_low_d(self, rng, blocks):
        m = EmbeddingMatrix(dyadic_rows(rng, self.N, 4))
        sims = dense_similarity_matrix(m)
        for theta in (0.0, 0.5, 1.0):
            assert (sims == theta).any()  # some pairs sit exactly on the threshold
            for k_min in (1, 7, 30):
                assert_matches_dense(m, theta, k_min)

    def test_fallback_with_tie_at_cut(self, rng, blocks):
        m = EmbeddingMatrix(dyadic_rows(rng, self.N, 4))
        sims = dense_similarity_matrix(m)
        np.fill_diagonal(sims, -np.inf)
        ranked = -np.sort(-sims, axis=1)
        for theta, k_min in [(0.75, 10), (2.0, 10), (0.5, 70)]:
            short = (sims >= theta).sum(axis=1) < k_min
            tied = ranked[:, k_min - 1] == ranked[:, k_min]
            assert (short & tied).any()
            assert_matches_dense(m, theta, k_min)

    def test_pairs_within_the_margin_of_theta(self, rng, blocks):
        """Cosines 1e-9 apart around 0.9, inside the float32 margin but far
        beyond float64 rounding: float32 alone decides some of them wrong,
        at theta and at the k_min cut."""
        m = EmbeddingMatrix(near_theta_rows(rng, self.N, 0.9))
        sims = dense_similarity_matrix(m)
        np.fill_diagonal(sims, -np.inf)
        unit = (m.data / np.linalg.norm(m.data, axis=1, keepdims=True)).astype(np.float32)
        sims32 = (unit @ unit.T).astype(np.float64)
        np.fill_diagonal(sims32, -np.inf)
        assert ((sims32 >= 0.9) != (sims >= 0.9)).any()
        idx = np.arange(self.N)
        top = [set(np.lexsort((idx, -row))[:10]) for row in sims]
        assert top != [set(np.lexsort((idx, -row))[:10]) for row in sims32]
        for theta, k_min in [(0.9, 5), (0.9, 40), (2.0, 10)]:
            assert_matches_dense(m, theta, k_min)

    def test_two_samples(self, blocks):
        for rows in ([[1.0, 0.0], [0.6, 0.8]], [[1.0, 0.0], [-1.0, 0.0]], [[1.0, 2.0], [1.0, 2.0]]):
            m = EmbeddingMatrix(rows)
            for theta in (-1.0, 0.5, 1.0, 2.0):
                for k_min in (1, 5):
                    assert_matches_dense(m, theta, k_min)


def test_block_rows_rule(rng, monkeypatch):
    sizes = (2, 150, 512, 600, 724, 725, 1000, 2000, 4000, 6000, 50000)
    rule = {n: similarity_blocks(n)[0].stop for n in sizes}
    # 2 MiB of float32 similarities a block, but never fewer than 256 rows, so
    # up to 724 samples are one block
    assert rule == {2: 2, 150: 150, 512: 512, 600: 600, 724: 724, 725: 723, 1000: 524,
                    2000: 262, 4000: 256, 6000: 256, 50000: 256}
    # and mining computes its similarities in exactly those blocks
    spans, similarity = [], neighbors._similarity_matrix

    def spy(unit, start, stop):
        spans.append((start, stop))
        return similarity(unit, start, stop)

    monkeypatch.setattr(neighbors, "_similarity_matrix", spy)
    build_neighbor_sets(EmbeddingMatrix(rng.normal(size=(1000, 4))), 0.9, 3)
    assert spans == [(0, 524), (524, 1000)]


@pytest.mark.parametrize("kind", ["copies", "cut_ties", "no_ties"])
def test_only_band_pairs_and_floor_candidates_are_settled(rng, monkeypatch, kind):
    """Three inputs under a byte cap of 11 rows a block: copies of three
    dyadic rows at theta 1 (every copy exactly on it), dyadic rows at a
    floor-only theta (ties at the k_min cut), random rows (some rows short).
    The sets match the dense oracle, and the pairs settled in float64 are
    exactly those within the margin of theta plus, for each short row, the
    samples within twice the margin of its k_min-th largest similarity."""
    n, k_min = 150, 10
    monkeypatch.setattr(neighbors, "MIN_BLOCK_ROWS", 1)
    monkeypatch.setattr(featstore, "BLOCK_BYTES", 11 * 4 * n)
    theta = {"copies": 1.0, "cut_ties": 2.0, "no_ties": 0.6}[kind]
    if kind == "copies":
        m = EmbeddingMatrix(dyadic_rows(rng, 3, 16)[rng.integers(0, 3, size=n)])
    elif kind == "cut_ties":
        m = EmbeddingMatrix(dyadic_rows(rng, n, 4))
    else:
        m = EmbeddingMatrix(rng.normal(size=(n, 6)))
    settled, cosines = [], neighbors._cosines

    def spy(*args):
        settled.append(args[-1].size)
        return cosines(*args)

    monkeypatch.setattr(neighbors, "_cosines", spy)
    assert_matches_dense(m, theta, k_min)
    sims = dense_similarity_matrix(m)
    np.fill_diagonal(sims, -np.inf)
    margin = neighbors._margin(m.d)
    band = int((np.abs(sims - theta) <= margin).sum())
    short = (sims >= theta).sum(axis=1) < k_min
    cut = -np.sort(-sims[short], axis=1)[:, k_min - 1]
    candidates = int((sims[short] >= cut[:, None] - 2 * margin).sum())
    assert sum(settled) == band + candidates
    if kind == "copies":
        assert band > 0 and candidates == 0  # pairs on theta, no row short
    elif kind == "cut_ties":
        # dyadic cosines are exact: some rows tie at the cut, and only the tie
        # groups add candidates beyond k_min a row
        assert band == 0 and short.all()
        assert (-np.sort(-sims, axis=1)[:, k_min] == cut).any()
        assert candidates == int((sims >= cut[:, None]).sum()) > k_min * n
    else:
        assert band == 0 and 0 < short.sum() and candidates == k_min * short.sum()


def test_sweep_equals_fresh_builds(rng):
    base = dyadic_rows(rng, 40, 4)
    m = EmbeddingMatrix(np.vstack([base, rng.normal(size=(60, 4))]))
    thetas = (0.9, 0.25, 0.5, 2.0, 0.5, -1.0, float("nan"))
    swept = list(sweep_neighbor_sets(m, thetas, 6))
    assert len(swept) == len(thetas)
    for theta, sets in zip(thetas, swept):
        fresh = build_neighbor_sets(m, theta, 6)
        assert sets.offsets.tolist() == fresh.offsets.tolist()
        assert sets.indices.tolist() == fresh.indices.tolist()
    assert list(sweep_neighbor_sets(m, (), 6)) == []


def test_power_of_two_scale_mines_the_same_sets():
    """Features scaled by 2**k mine the k = 0 sets, by a build and by a
    sweep, for every k in [-1000, 1000] at which the scaling is exact, also
    where the squares of the unscaled rows overflow or underflow."""
    m, _ = gen_synthetic(SynthSpec(n=120, d=16, k=3, separation=4.0, seed=3))
    thetas = (0.6, 0.3, 0.9, 0.1)

    def mined(features):
        return [pair_bytes(build_neighbor_sets(features, 0.3, 5)),
                *map(pair_bytes, sweep_neighbor_sets(features, thetas, 5))]

    want, exact = mined(m), 0
    for k in range(-1000, 1001, 7):
        data = np.ldexp(m.data, k)
        if not np.array_equal(np.ldexp(data, -k), m.data):
            continue  # a value left the normal range
        exact += 1
        assert mined(EmbeddingMatrix(data)) == want, k
    assert exact > 250


@pytest.mark.parametrize("n,d", [(92, 9), (150, 6), (600, 33)])
def test_identical_rows_tie_by_index(rng, n, d):
    """Copies of one random (not exactly representable) row are tied
    members: a set holds all of a row's copies or, where its floor cut
    splits them, the lowest-index ones."""
    copy_of = rng.integers(0, n // 2, size=n)
    m = EmbeddingMatrix(rng.normal(size=(n // 2, d))[copy_of])
    for x, members in enumerate(build_neighbor_sets(m, 0.3, 5).sets):
        assert (np.diff(members) > 0).all()
        for key in np.unique(copy_of[members]):
            copies = [y for y in np.flatnonzero(copy_of == key) if y != x]
            kept = members[copy_of[members] == key].tolist()
            assert kept == copies[: len(kept)]
            assert len(kept) == len(copies) or members.size == 5


@pytest.mark.parametrize("step", [1, 7, 1000])
@pytest.mark.parametrize("pairs", [((0, 3), (5, 8)), ((2, 6),)], ids=["copies", "signed_zero"])
def test_repeated_rows_mine_dense_sets(rng, monkeypatch, step, pairs):
    # each pair's second row repeats its first; row 6 is row 2 with a -0.0 for its 0.0
    data = rng.normal(size=(10, 5))
    data[2, 1] = 0.0
    for a, b in pairs:
        data[b] = data[a]
    data[6, 1] = -0.0
    monkeypatch.setattr(neighbors, "MIN_BLOCK_ROWS", 1)
    monkeypatch.setattr(featstore, "BLOCK_BYTES", step * 4 * 10)  # `step` rows a block
    assert_matches_dense(EmbeddingMatrix(data), 0.3, 5)


@pytest.mark.parametrize("step", [1, 7, 1000])
def test_distinct_rows_mine_dense_sets(rng, monkeypatch, step):
    m = EmbeddingMatrix(rng.normal(size=(300, 6)))
    monkeypatch.setattr(neighbors, "MIN_BLOCK_ROWS", 1)
    monkeypatch.setattr(featstore, "BLOCK_BYTES", step * 4 * 300)  # `step` rows a block
    assert_matches_dense(m, 0.3, 5)


@pytest.mark.parametrize("theta", [0.5, 2.0], ids=["threshold", "floor_only"])
def test_mining_peak_memory_below_quarter_of_matrix(theta):
    n = 3000
    m, _ = gen_synthetic(SynthSpec(n=n, d=32, k=30, separation=10.0, seed=1))
    tracemalloc.start()
    try:
        sets = build_neighbor_sets(m, theta, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sets.sizes().min() >= 10
    assert peak < n * n * 8 / 4


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

    def test_matches_per_sample_definition(self, rng):
        arr = np.concatenate([rng.integers(0, 6, size=60), [7, 9]])  # two singletons
        rng.shuffle(arr)
        labels = Labeling(arr)
        sets = ground_truth_neighbors(labels)
        for x in range(arr.size):
            want = [y for y in range(arr.size) if y != x and arr[y] == arr[x]]
            assert sets.sets[x].tolist() == want

    def test_singleton_class_gets_an_empty_set(self):
        sets = ground_truth_neighbors(Labeling([1, 1, 2]))
        assert sets.sizes().tolist() == [1, 1, 0]


class TestAccuracy:
    def test_all_wrong(self):
        sets = NeighborSets.from_lists((np.array([1]), np.array([0])))
        stats = neighbor_accuracy(sets, Labeling([1, 2]))
        assert stats.pair_accuracy == 0.0

    def test_counts_weighted_not_averaged(self):
        # sample 0 has 3 neighbors (1 right), sample 1 has 1 (right):
        # pair accuracy is 2/4, not the mean of per-sample rates
        sets = NeighborSets.from_lists(([1, 2, 3], [0], [], []))
        stats = neighbor_accuracy(sets, Labeling([1, 1, 2, 2]))
        assert stats.pair_accuracy == pytest.approx(0.5)
        assert stats.avg_count == 1.0

    def test_matches_per_pair_count(self, rng):
        m = EmbeddingMatrix(rng.normal(size=(80, 5)))
        sets = build_neighbor_sets(m, 0.3, 4)
        arr = rng.integers(0, 4, size=80)
        pairs = [(x, y) for x, s in enumerate(sets.sets) for y in s.tolist()]
        stats = neighbor_accuracy(sets, Labeling(arr))
        assert stats.pair_accuracy == sum(arr[x] == arr[y] for x, y in pairs) / len(pairs)
        assert stats.avg_count == len(pairs) / 80

    def test_synthetic_blobs_high_accuracy(self, blobs_medium):
        m, labels = blobs_medium
        sets = build_neighbor_sets(m, 0.3, 5)
        stats = neighbor_accuracy(sets, labels)
        assert stats.pair_accuracy >= 0.99

    def test_all_empty_error(self):
        sets = NeighborSets.from_lists((np.array([]), np.array([])))
        with pytest.raises(ValueError, match="empty"):
            neighbor_accuracy(sets, Labeling([1, 2]))

    def test_length_mismatch(self):
        sets = NeighborSets.from_lists((np.array([1]), np.array([0])))
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
        [(12, 0xFF, "outside"), (15, 0x80, "outside"), (12, 0x00, "itself"),
         (16, None, "duplicate")],
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

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_row_blocks_write_the_same_bytes(self, tmp_path, monkeypatch, block):
        sets = NeighborSets.from_lists(CHECK_BASE)
        save_neighbor_sets(sets, tmp_path / "one.nns")
        set_pair_budget(monkeypatch, block)
        save_neighbor_sets(sets, tmp_path / "blocks.nns")
        assert (tmp_path / "blocks.nns").read_bytes() == (tmp_path / "one.nns").read_bytes()
        back = load_neighbor_sets(tmp_path / "blocks.nns")
        assert back.offsets.tolist() == sets.offsets.tolist()
        assert back.indices.tolist() == sets.indices.tolist()


def test_neighbor_sets_reject_self_membership():
    with pytest.raises(ValueError, match="itself"):
        NeighborSets.from_lists((np.array([0]), np.array([0])))


def test_neighbor_sets_reject_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        NeighborSets.from_lists((np.array([1, 1]), np.array([0])))


def test_neighbor_sets_reject_bad_offsets():
    for offsets, indices in [([0, 2], [1]), ([1, 1], []), ([0, 2, 1], [1, 0]), ([], [])]:
        with pytest.raises(ValueError, match="offsets"):
            NeighborSets(np.array(offsets), np.array(indices))


def set_pair_budget(monkeypatch, pairs):
    """Make a check block hold at most ``pairs`` pairs, 16 bytes each."""
    monkeypatch.setattr(featstore, "BLOCK_BYTES", 16 * pairs)


# ten samples: row 3 holds all nine others, longer than every small block;
# rows 0 and 6 are empty
CHECK_BASE = ([], [2, 0], [0, 1, 4], [9, 8, 7, 6, 5, 4, 2, 1, 0], [3], [0, 1],
              [], [8], [1, 2, 3], [8, 0])


def _faulty(changes):
    sets = [list(s) for s in CHECK_BASE]
    for row, members in changes.items():
        sets[row] = members
    return sets


@pytest.mark.parametrize(
    "changes, match",
    [
        ({5: [0, 10]}, "sample 5 has a neighbor index outside"),
        ({8: [1, -1]}, "sample 8 has a neighbor index outside"),
        ({7: [7]}, "sample 7 contains itself"),
        ({3: [9, 8, 7, 6, 5, 4, 3, 1, 0]}, "sample 3 contains itself"),
        ({2: [0, 1, 0]}, "duplicate neighbor index for sample 2"),
        ({3: [9, 8, 7, 6, 5, 4, 2, 1, 9]}, "duplicate neighbor index for sample 3"),
        # two kinds or two samples: the earlier kind wins, then the lower sample
        ({1: [2, 2], 9: [9]}, "sample 9 contains itself"),
        ({1: [1], 8: [1, 12]}, "sample 8 has a neighbor index outside"),
        ({1: [2, 2], 8: [3, 3]}, "duplicate neighbor index for sample 1"),
        ({2: [2], 7: [7]}, "sample 2 contains itself"),
        ({3: [9, 8, 7, 6, 5, 4, 2, 1, 1], 9: [8, 9]}, "sample 9 contains itself"),
    ],
)
def test_checks_report_the_same_fault_in_row_blocks(monkeypatch, changes, match):
    sets = _faulty(changes)
    with pytest.raises(ValueError, match=match) as one_block:
        NeighborSets.from_lists(sets)
    for block in (1, 2, 7):
        set_pair_budget(monkeypatch, block)
        with pytest.raises(ValueError) as blocked:
            NeighborSets.from_lists(sets)
        assert str(blocked.value) == str(one_block.value)


def test_row_blocks_cover_every_row_once(monkeypatch):
    offsets = NeighborSets.from_lists(CHECK_BASE).offsets
    for block in (1, 2, 7, 1 << 18):
        set_pair_budget(monkeypatch, block)
        spans = list(neighbors._row_blocks(offsets))
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == len(CHECK_BASE)
        for lo, hi in spans:
            assert offsets[hi] - offsets[lo] <= block or hi == lo + 1


def test_int64_index_that_would_wrap_in_int32_is_outside():
    with pytest.raises(ValueError, match=r"sample 1 has a neighbor index outside \[0, 2\)"):
        NeighborSets(np.array([0, 1, 2]), np.array([1, 2**32 + 1], dtype=np.int64))


def test_float_indices_rejected():
    with pytest.raises(ValueError, match="integers"):
        NeighborSets(np.array([0, 1, 2]), np.array([1.0, 0.0]))


def test_sets_hold_read_only_int32_indices(tmp_path, blobs_small):
    m, labels = blobs_small
    mined = build_neighbor_sets(m, 0.3, 5)
    save_neighbor_sets(mined, tmp_path / "s.nns")
    for sets in (
        mined,
        load_neighbor_sets(tmp_path / "s.nns"),
        NeighborSets.from_lists(CHECK_BASE),
        ground_truth_neighbors(labels),
        *sweep_neighbor_sets(m, (0.3, 0.9), 5),
    ):
        assert sets.indices.dtype == np.int32 and sets.offsets.dtype == np.int64
        assert not sets.indices.flags.writeable and not sets.offsets.flags.writeable


def _traced_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_sets_build_and_load_in_a_few_bytes_per_pair(tmp_path):
    """Two blobs at theta 0.3: every set is its whole cluster, 2.0M pairs."""
    m, _ = gen_synthetic(SynthSpec(n=2000, d=16, k=2, seed=1))
    sets, build_peak = _traced_peak(lambda: build_neighbor_sets(m, 0.3, 5))
    pairs = sets.indices.size
    assert pairs == 2000 * 999
    path = tmp_path / "s.nns"
    save_neighbor_sets(sets, path)
    back, load_peak = _traced_peak(lambda: load_neighbor_sets(path))
    assert np.array_equal(back.indices, sets.indices)
    # four bytes a pair are the int32 result itself
    assert build_peak / pairs < 14
    assert load_peak / pairs < 18


@pytest.mark.parametrize("block", [1, 2, 7])
def test_pair_accuracy_in_row_blocks_matches_per_pair_count(rng, monkeypatch, block):
    m = EmbeddingMatrix(rng.normal(size=(80, 5)))
    sets = build_neighbor_sets(m, 0.3, 4)
    arr = rng.integers(0, 4, size=80)
    pairs = [(x, y) for x, s in enumerate(sets.sets) for y in s.tolist()]
    set_pair_budget(monkeypatch, block)
    stats = neighbor_accuracy(sets, Labeling(arr))
    assert stats.pair_accuracy == sum(arr[x] == arr[y] for x, y in pairs) / len(pairs)
    weighted = neighbor_accuracy(NeighborSets.from_lists(([1, 2, 3], [0], [], [])),
                                 Labeling([1, 1, 2, 2]))
    assert weighted.pair_accuracy == 0.5


def test_build_holds_the_pairs_once():
    """Twelve blobs at theta 0.3: every set is its whole cluster, 3.0M pairs.
    The int32 result is 4 bytes a pair; the blocks are joined in place, not
    held twice."""
    m, _ = gen_synthetic(SynthSpec(n=6000, d=16, k=12, separation=10.0, seed=1))
    sets, peak = _traced_peak(lambda: build_neighbor_sets(m, 0.3, 5))
    assert sets.indices.size == 6000 * 499
    assert peak / sets.indices.size < 8


def test_sweep_memory_is_a_few_bytes_per_pair():
    """Two blobs at theta 0.3 and 0.5: 2.0M pairs each.  The sweep holds the
    ranked int32 members once, per-row counts per theta and the set it cuts."""
    m, _ = gen_synthetic(SynthSpec(n=2000, d=16, k=2, seed=1))

    def sweep():
        pairs = 0
        for sets in sweep_neighbor_sets(m, (0.3, 0.5), 5):
            pairs = max(pairs, sets.indices.size)
            del sets
        return pairs

    pairs, peak = _traced_peak(sweep)
    assert pairs == 2000 * 999
    assert peak / pairs < 14


def test_writer_memory_does_not_grow_with_the_pairs(tmp_path, monkeypatch):
    set_pair_budget(monkeypatch, 1 << 14)
    peaks = []
    for k in (20, 2):  # 0.2M, then 2.0M pairs: an 8 MB body
        sets = ground_truth_neighbors(Labeling(np.arange(2000) % k))
        _, peak = _traced_peak(lambda: save_neighbor_sets(sets, tmp_path / "s.nns"))
        assert load_neighbor_sets(tmp_path / "s.nns").indices.tolist() == sets.indices.tolist()
        peaks.append(peak)
    # a block of 2**14 pairs is 64 KB of u32 words
    assert max(peaks) < 1 << 20
