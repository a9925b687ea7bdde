import tracemalloc

import numpy as np
import pytest

from clusterens import (
    EmbeddingMatrix,
    Labeling,
    NormStats,
    SynthSpec,
    apply_standardizer,
    fit_standardizer,
    gen_synthetic,
    load_features,
    save_features,
)
from clusterens import featstore
from clusterens.errors import LoadError
from clusterens.featstore import VAR_EPS, detect_format, unit_rows


class TestEmbeddingMatrix:
    def test_rejects_non_finite(self):
        data = np.ones((3, 2))
        data[1, 0] = np.nan
        with pytest.raises(ValueError, match="row 1"):
            EmbeddingMatrix(data)

    def test_rejects_empty_and_non_2d(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(np.empty((0, 3)))
        with pytest.raises(ValueError):
            EmbeddingMatrix(np.ones(4))

    def test_immutable(self):
        m = EmbeddingMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0


class TestFeatpack:
    def test_round_trip_identity(self, tmp_path, rng):
        for trial in range(20):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 20))
            m = EmbeddingMatrix(rng.normal(size=(n, d)) * 10.0 ** int(rng.integers(-3, 4)))
            path = tmp_path / f"m{trial}.fpk"
            save_features(m, path, "featpack")
            back = load_features(path)
            assert back.data.tobytes() == m.data.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fpk"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(LoadError, match="magic"):
            load_features(path)

    def test_payload_shorter_than_header(self, tmp_path):
        path = tmp_path / "short.fpk"
        m = EmbeddingMatrix(np.ones((4, 3)))
        save_features(m, path, "featpack")
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])  # drop one value
        with pytest.raises(LoadError, match="header declares 4"):
            load_features(path)

    def test_non_finite_names_row(self, tmp_path):
        data = np.ones((3, 2))
        data[2, 1] = np.inf
        path = tmp_path / "inf.fpk"
        import struct

        with open(path, "wb") as f:
            f.write(b"FPK1")
            f.write(struct.pack("<IIB", 3, 2, 2))
            f.write(data.astype("<f8").tobytes())
        with pytest.raises(LoadError, match="row 2"):
            load_features(path)

    def test_float32_tag_loads(self, tmp_path):
        import struct

        data = np.arange(6, dtype="<f4").reshape(3, 2)
        path = tmp_path / "f32.fpk"
        with open(path, "wb") as f:
            f.write(b"FPK1")
            f.write(struct.pack("<IIB", 3, 2, 1))
            f.write(data.tobytes())
        back = load_features(path)
        assert np.array_equal(back.data, data.astype(np.float64))


class TestCsv:
    def test_literal_parse(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        m = load_features(path)
        assert np.array_equal(m.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_round_trip(self, tmp_path, rng):
        m = EmbeddingMatrix(rng.normal(size=(7, 5)) * 1e3)
        path = tmp_path / "m.csv"
        save_features(m, path, "csv")
        back = load_features(path)
        assert np.allclose(back.data, m.data, atol=1e-6, rtol=1e-9)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(LoadError, match="row 1"):
            load_features(path)

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nx,4\n")
        with pytest.raises(LoadError, match="row 1"):
            load_features(path)

    def test_row_longer_than_a_piece(self, tmp_path, rng):
        data = rng.normal(size=(3, 5000))
        path = tmp_path / "wide.csv"
        np.savetxt(path, data, fmt="%.17g", delimiter=",")
        assert path.stat().st_size > 3 * featstore.TEXT_CHUNK
        assert load_features(path).data.tobytes() == data.tobytes()

    def test_values_are_held_as_float64(self, tmp_path, rng):
        data = rng.normal(size=(2000, 64))
        path = tmp_path / "m.csv"
        np.savetxt(path, data, fmt="%.17g", delimiter=",")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            back = load_features(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert back.data.tobytes() == data.tobytes()
        # 8 bytes a value while parsing, then the matrix: a list of Python
        # floats would take five times the matrix
        assert peak < 2.2 * data.nbytes, f"peaked at {peak / data.nbytes:.2f}x the matrix"

    def test_newline_free_file_refused_in_bounded_memory(self, tmp_path):
        path = tmp_path / "line.csv"
        path.write_bytes(b"1" * (16 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(LoadError, match=f"more than {featstore.TEXT_CHUNK} characters"):
                load_features(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestNpy:
    def test_independently_written_file(self, tmp_path):
        # written by numpy's own save path, not ours
        arr = np.arange(12, dtype="<f4").reshape(3, 4)
        path = tmp_path / "m.npy"
        np.save(path, arr)
        m = load_features(path)
        assert m.n == 3 and m.d == 4
        assert np.array_equal(m.data, arr.astype(np.float64))

    def test_round_trip(self, tmp_path, rng):
        m = EmbeddingMatrix(rng.normal(size=(6, 3)))
        path = tmp_path / "m.npy"
        save_features(m, path, "npy")
        back = load_features(path)
        assert back.data.tobytes() == m.data.tobytes()

    def test_oversized_payload_refused_before_reading(self, tmp_path):
        path = tmp_path / "big.npy"
        save_features(EmbeddingMatrix(np.ones((3, 2))), path, "npy")
        with open(path, "r+b") as f:
            f.truncate(64 << 20)  # sparse, so cheap on disk
        tracemalloc.start()
        try:
            with pytest.raises(LoadError, match="header declares 3"):
                load_features(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_fortran_order_rejected(self, tmp_path):
        path = tmp_path / "f.npy"
        np.save(path, np.asfortranarray(np.ones((3, 2), dtype="<f8")))
        with pytest.raises(LoadError, match="Fortran"):
            load_features(path)

    def test_wrong_dtype_rejected(self, tmp_path):
        path = tmp_path / "i.npy"
        np.save(path, np.ones((2, 2), dtype=np.int32))
        with pytest.raises(LoadError, match="dtype"):
            load_features(path)

    def test_version_2_refused(self, tmp_path):
        path = tmp_path / "v2.npy"
        with open(path, "wb") as f:
            np.lib.format.write_array(f, np.ones((3, 2)), version=(2, 0))
        with pytest.raises(LoadError, match=r"unsupported npy version \(2, 0\)"):
            load_features(path)

    def test_1d_rejected(self, tmp_path):
        path = tmp_path / "v.npy"
        np.save(path, np.ones(4, dtype="<f8"))
        with pytest.raises(LoadError, match="2-D"):
            load_features(path)


@pytest.mark.parametrize("fmt", ["csv", "npy"])
def test_fuzzed_file_raises_load_error(tmp_path, fmt):
    path = tmp_path / f"m.{fmt}"
    save_features(EmbeddingMatrix([[0.5, -1.25], [3.0, 4.5], [-2.0, 0.125]]), path, fmt)
    good = path.read_bytes()
    # truncate at every length and overwrite every byte; a case may leave a
    # loadable file, but nothing other than LoadError may escape
    cases = [good[:cut] for cut in range(len(good))]
    for pos in range(len(good)):
        for value in b"\x00\x80\xff',":
            cases.append(good[:pos] + bytes([value]) + good[pos + 1 :])
    for case in cases:
        path.write_bytes(case)
        try:
            load_features(path)
        except LoadError:
            pass


@pytest.mark.parametrize("fmt", ["featpack", "npy"])
def test_load_holds_one_float64_copy(tmp_path, rng, fmt):
    m = EmbeddingMatrix(rng.normal(size=(2000, 64)))
    path = tmp_path / f"m.{fmt}"
    save_features(m, path, fmt)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back = load_features(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert back.data.tobytes() == m.data.tobytes()
    assert not back.data.flags.writeable
    assert peak < 1.3 * m.data.nbytes


def test_passed_array_is_copied():
    data = np.ones((2, 2))
    m = EmbeddingMatrix(data)
    data[0, 0] = 5.0
    assert m.data[0, 0] == 1.0 and data.flags.writeable


def test_detect_format():
    assert detect_format("a.csv") == "csv"
    assert detect_format("a.npy") == "npy"
    assert detect_format("a.fpk") == "featpack"


@pytest.mark.parametrize("fmt, ext", [("featpack", "fpk"), ("npy", "npy"), ("csv", "csv")])
def test_format_is_read_from_the_bytes(tmp_path, rng, fmt, ext):
    m = EmbeddingMatrix(rng.normal(size=(9, 4)) * 1e3)
    save_features(m, tmp_path / f"m.{ext}", fmt)
    want = load_features(tmp_path / f"m.{ext}").data
    for name in ("m.dat", "m.bin", "m.txt"):
        save_features(m, tmp_path / name, fmt)
        assert load_features(tmp_path / name).data.tobytes() == want.tobytes()


def test_random_bytes_are_a_load_error(tmp_path):
    path = tmp_path / "noise.fpk"
    path.write_bytes(np.random.default_rng(5).bytes(4096))
    with pytest.raises(LoadError, match="not a feature file"):
        load_features(path)


class TestStandardizer:
    def test_hand_mean_var(self):
        m = EmbeddingMatrix([[0.0, 0.0], [2.0, 2.0]])
        stats = fit_standardizer(m)
        assert np.allclose(stats.mean, [1.0, 1.0])
        assert np.allclose(stats.var, [1.0, 1.0])

    def test_constant_column_clamped_with_warning(self):
        m = EmbeddingMatrix([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.warns(RuntimeWarning, match="clamped"):
            stats = fit_standardizer(m)
        assert stats.var[1] == VAR_EPS
        out = apply_standardizer(m, stats)
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data[:, 1], 0.0)

    def test_every_dimension_clamped_is_refused(self, rng):
        m = EmbeddingMatrix(rng.normal(size=(20, 5)) * 2.0**-100)
        with pytest.raises(ValueError, match=rf"all 5 feature dimensions have variance "
                                             rf"below {VAR_EPS}; rescale"):
            fit_standardizer(m)

    def test_apply_holds_one_copy(self, rng):
        m = EmbeddingMatrix(rng.normal(size=(6000, 128)))
        stats = fit_standardizer(m)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = apply_standardizer(m, stats)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the out-of-place formula, to the bit
        want = (m.data - stats.mean) / np.sqrt(stats.var + VAR_EPS)
        assert out.data.tobytes() == want.tobytes()
        assert not out.data.flags.writeable
        assert peak < 1.3 * out.data.nbytes

    def test_fit_then_apply_standardizes(self, rng):
        # variance well above the epsilon so the 1e-6 bound is meaningful
        m = EmbeddingMatrix(rng.normal(loc=3.0, scale=50.0, size=(500, 8)))
        out = apply_standardizer(m, fit_standardizer(m))
        assert np.all(np.abs(out.data.mean(axis=0)) <= 1e-6)
        assert np.all(np.abs(out.data.var(axis=0) - 1.0) <= 1e-6)

    def test_matches_two_pass_oracle(self, rng):
        data = rng.normal(size=(40, 6)) * 4 + 2
        m = EmbeddingMatrix(data)
        stats = fit_standardizer(m)
        out = apply_standardizer(m, stats)
        # independent two-pass recomputation
        mu = np.array([data[:, j].sum() / 40 for j in range(6)])
        var = np.array([((data[:, j] - mu[j]) ** 2).sum() / 40 for j in range(6)])
        expected = (data - mu) / np.sqrt(var + VAR_EPS)
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_identity_stats_no_op(self, rng):
        m = EmbeddingMatrix(rng.normal(size=(5, 3)))
        d = 3
        stats = NormStats(mean=np.zeros(d), var=np.ones(d) - VAR_EPS)
        out = apply_standardizer(m, stats)
        assert np.allclose(out.data, m.data, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        m = EmbeddingMatrix(rng.normal(size=(4, 3)))
        stats = fit_standardizer(EmbeddingMatrix(rng.normal(size=(4, 2))))
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_standardizer(m, stats)

    @pytest.mark.parametrize("field, value", [
        ("mean", np.nan), ("mean", np.inf), ("mean", -np.inf),
        ("var", -1.0), ("var", np.nan), ("var", np.inf),
    ])
    def test_stats_refuse_what_cannot_standardize(self, field, value):
        stats = {"mean": np.zeros(3), "var": np.ones(3)}
        stats[field][1] = value
        with pytest.raises(ValueError, match="non-finite"):
            NormStats(**stats)

    def test_matrix_fits_its_standardizer_once(self, rng, monkeypatch):
        m = EmbeddingMatrix(rng.normal(size=(50, 4)) * 3.0 + 1.0)
        fits, fit = [], featstore.fit_standardizer
        monkeypatch.setattr(featstore, "fit_standardizer", lambda m: fits.append(m) or fit(m))
        assert m.norm is m.norm
        assert len(fits) == 1 and fits[0] is m
        want = fit_standardizer(m)
        assert m.norm.mean.tobytes() == want.mean.tobytes()
        assert m.norm.var.tobytes() == want.var.tobytes()

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            fit_standardizer(EmbeddingMatrix(np.ones((1, 3))))

    @pytest.mark.parametrize("block_rows, count", [(100, 1), (33, 4), (7, 15)])
    def test_unit_rows_blocks_match_the_whole_array_form(self, rng, monkeypatch,
                                                         block_rows, count):
        # the formulations it replaced: the heads' float32 rounding of the
        # float64 rows, and the float64 rows self-training and mining read
        x = rng.normal(size=(100, 13)) * 5.0 + 2.0
        stats = fit_standardizer(EmbeddingMatrix(x))
        monkeypatch.setattr(featstore, "BLOCK_BYTES", block_rows * 8 * 13)
        assert len(featstore.blocks(100, 8 * 13)) == count
        want = (x - stats.mean) / np.sqrt(stats.var + VAR_EPS)
        wide, narrow = unit_rows(x, stats), unit_rows(x, stats, np.float32)
        assert wide.dtype == np.float64 and wide.tobytes() == want.tobytes()
        assert narrow.dtype == np.float32
        assert narrow.tobytes() == want.astype(np.float32).tobytes()


class TestSynthetic:
    def test_deterministic(self):
        spec = SynthSpec(n=50, d=8, k=3, separation=5.0, seed=99)
        m1, l1 = gen_synthetic(spec)
        m2, l2 = gen_synthetic(spec)
        assert np.array_equal(m1.data, m2.data)
        assert np.array_equal(l1.labels, l2.labels)

    def test_nearest_center_oracle(self):
        spec = SynthSpec(n=200, d=12, k=4, separation=20.0, seed=5)
        m, labels = gen_synthetic(spec)
        # recompute per-cluster means as centers and classify each row
        centers = {c: m.data[labels.labels == c].mean(axis=0) for c in range(1, 5)}
        ids = np.array(sorted(centers))
        cmat = np.stack([centers[c] for c in ids])
        dist = ((m.data[:, None, :] - cmat[None, :, :]) ** 2).sum(axis=2)
        predicted = ids[dist.argmin(axis=1)]
        assert np.mean(predicted == labels.labels) == 1.0

    def test_single_cluster(self):
        _, labels = gen_synthetic(SynthSpec(n=10, d=4, k=1, separation=2.0, seed=0))
        assert labels.k == 1

    def test_k_distinct_ids(self):
        _, labels = gen_synthetic(SynthSpec(n=23, d=4, k=7, separation=3.0, seed=2))
        assert labels.k == 7
        assert set(np.unique(labels.labels)) == set(range(1, 8))

    def test_more_clusters_than_dims(self):
        m, labels = gen_synthetic(SynthSpec(n=60, d=3, k=6, separation=25.0, seed=4))
        assert labels.k == 6
        assert m.d == 3

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SynthSpec(n=3, d=2, k=5)
        with pytest.raises(ValueError):
            SynthSpec(n=3, d=2, k=2, separation=0.0)

    def test_labeling_is_ground_truth(self):
        spec = SynthSpec(n=40, d=6, k=4, separation=20.0, seed=8)
        m, labels = gen_synthetic(spec)
        assert isinstance(labels, Labeling)
        assert labels.n == m.n
