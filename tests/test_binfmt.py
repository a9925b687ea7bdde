"""The five binary artifact formats: golden bytes and a fuzz of every loader.

Each format is exercised on a fixed tiny artifact built from exactly
representable values, so its bytes do not depend on the platform's math
library.  Whatever a malformed file looks like, only ``LoadError`` may
escape a loader, and no declared size may make it read or allocate more
than the file holds.
"""

import hashlib
import struct
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

from clusterens import binfmt, featstore, labeling
from clusterens.errors import LoadError
from clusterens.featstore import (
    EmbeddingMatrix, NormStats, load_features, save_features, unit_rows,
)
from clusterens.heads import HeadBank, TrainConfig, config_to_text, load_head_bank, save_head_bank
from clusterens.labeling import Labeling, load_labeling, save_labeling, save_labeling_text
from clusterens.neighbors import NeighborSets, load_neighbor_sets, save_neighbor_sets
from clusterens.selftrain import Classifier, load_classifier, predict, save_classifier

N = 40


def values(count, start=0):
    """``count`` exactly representable float64 values in [-1.375, 1.375]."""
    return ((np.arange(count) + start) * 7 % 23 - 11) / 8.0


def head_bank():
    h, c, d = 2, 3, 4
    cfg = TrainConfig(num_clusters=c, num_heads=h, epochs=2, warmup_epochs=1, lr=1e-3, seed=5)
    return HeadBank(
        config=cfg,
        norm=NormStats(mean=values(d, 1), var=values(d, 2) ** 2 + 1.0),
        student={"weight": values(h * c * d, 3).reshape(h, c, d),
                 "bias": values(h * c, 4).reshape(h, c),
                 "gamma": values(d, 5) + 2.0, "beta_shift": values(d, 6)},
        teacher={"weight": values(h * c * d, 7).reshape(h, c, d),
                 "bias": values(h * c, 8).reshape(h, c),
                 "gamma": values(d, 9) + 2.0, "beta_shift": values(d, 10)},
        marginal=np.full((h, c), 1.0 / c),
    )


def classifier():
    c, d = 3, 4
    norm = NormStats(mean=values(d, 11), var=values(d, 12) ** 2 + 1.0)
    return Classifier(weight=values(c * d, 15).reshape(c, d), bias=values(c, 16), norm=norm,
                      class_ids=np.array([7, 2, 40]))


def classifier_bytes(clf, gamma, beta):
    """``clf`` in the CLF1 layout with the standardizer affine (gamma, beta)."""
    params = (clf.weight, clf.bias, clf.norm.mean, clf.norm.var, gamma, beta)
    return (b"CLF1" + struct.pack("<II", clf.num_classes, clf.dim)
            + clf.class_ids.astype("<u4").tobytes()
            + b"".join(np.asarray(a, dtype="<f8").tobytes() for a in params))


def hdb_counts(raw):
    """Offset of the (h, c, d) header, after the config text."""
    return 8 + int.from_bytes(raw[4:8], "little")


class Format(NamedTuple):
    build: Callable  # the fixed tiny artifact
    save: Callable
    load: Callable
    size_fields: Callable  # file bytes -> offsets of the u32 header size fields
    # taken from the per-format writers that binfmt replaced, so files and
    # manifest hashes written before it stay valid
    sha256: str


FORMATS = {
    "FPK1": Format(
        lambda: EmbeddingMatrix(values(N * 3).reshape(N, 3)),
        save_features, load_features,
        lambda raw: [4, 8],
        "1b611474f87650a3f982f9b7c56477bae0b8bdd08c7a5bd346abed660ef450c5",
    ),
    "LBL1": Format(
        lambda: Labeling(np.arange(N) * 5 % 7 + 1),
        save_labeling, load_labeling,
        lambda raw: [4],
        "08de283ddb1440223d209e3517ffbbe17714d8bfd4ebbfd11c790d34712dc145",
    ),
    "NNS1": Format(
        lambda: NeighborSets.from_lists([(i + j + 1) % N for j in range(i % 4)] for i in range(N)),
        save_neighbor_sets, load_neighbor_sets,
        lambda raw: [4],
        "0bc664daa6668dd1c0c68739c4b30b05f325cc7c7dd4b2f78573181684189b49",
    ),
    "HDB1": Format(
        head_bank, save_head_bank, load_head_bank,
        lambda raw: [hdb_counts(raw) + 4 * i for i in range(3)],
        "6db03bf166f0add3787b19b669b659a90f33f80e71568859d137f6d5e60669eb",
    ),
    "CLF1": Format(
        classifier, save_classifier, load_classifier,
        lambda raw: [4, 8],
        # the identity affine, the only one written
        "453b2c338de53a3beae928fe7310c4b88ecac48cc663fd5792585d9c0cf7d8ce",
    ),
}


def count_fields(name, raw):
    """Every u32 size field: the header counts and, in NNS1, each inline count."""
    fields = FORMATS[name].size_fields(raw)
    if name == "NNS1":
        at = 8
        while at < len(raw):
            fields.append(at)
            at += 4 + 4 * int.from_bytes(raw[at : at + 4], "little")
    return fields


@pytest.fixture(params=list(FORMATS))
def artifact(request, tmp_path):
    """(format name, path, good bytes, loader) for one tiny artifact."""
    name = request.param
    fmt = FORMATS[name]
    path = tmp_path / f"artifact.{name.lower()}"
    fmt.save(fmt.build(), path)
    return name, path, path.read_bytes(), fmt.load


class CountingFile:
    """Records how many bytes each read and readinto on a wrapped file got."""

    def __init__(self, f, sizes):
        self.f = f
        self.sizes = sizes

    def read(self, count=-1):
        data = self.f.read(count)
        self.sizes.append(len(data))
        return data

    def readinto(self, buf):
        got = self.f.readinto(buf)
        self.sizes.append(got)
        return got

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


@pytest.fixture
def read_sizes(monkeypatch):
    sizes = []
    for module in (binfmt, featstore, labeling):
        monkeypatch.setattr(
            module, "open", lambda p, *a, **kw: CountingFile(open(p, *a, **kw), sizes),
            raising=False,
        )
    return sizes


def test_golden_bytes(artifact):
    name, path, good, load = artifact
    assert hashlib.sha256(good).hexdigest() == FORMATS[name].sha256
    FORMATS[name].save(load(path), path)
    assert path.read_bytes() == good


def test_fuzzed_file_raises_load_error(artifact):
    name, path, good, load = artifact
    for cut in range(len(good)):
        path.write_bytes(good[:cut])
        with pytest.raises(LoadError):
            load(path)
    # flip each of the first 40 bytes and every size field; a flip may
    # leave a loadable file, but nothing other than LoadError may escape
    positions = set(range(40))
    for field in count_fields(name, good):
        positions.update(range(field, field + 4))
    for pos in sorted(positions):
        for value in (0x00, 0x80, 0xFF):
            path.write_bytes(good[:pos] + bytes([value]) + good[pos + 1 :])
            try:
                load(path)
            except LoadError:
                pass


def test_sizes_checked_before_reading(artifact, read_sizes, tmp_path):
    # a loader that read the whole file first would pull a wrong or
    # corrupt multi-GB file into memory before rejecting it
    name, path, good, load = artifact
    foreign = tmp_path / "foreign.bin"
    with open(foreign, "wb") as f:
        f.write(b"CLF1" if name == "FPK1" else b"FPK1")
        f.truncate(64 << 20)  # sparse, so cheap on disk
    if name == "LBL1":  # without its magic, a labeling is text, parsed in chunks
        with pytest.raises(LoadError, match="not a labeling"):
            load(foreign)
        assert read_sizes == [4, labeling.TEXT_CHUNK]
    elif name == "FPK1":  # without either magic, features are csv text, refused at a NUL
        with pytest.raises(LoadError, match="NUL byte"):
            load(foreign)
        assert read_sizes == [4, 6, labeling.TEXT_CHUNK]
    else:
        with pytest.raises(LoadError, match="magic"):
            load(foreign)
        assert read_sizes == [4]

    # every size field declares 2^20
    fields = FORMATS[name].size_fields(good)
    raw = bytearray(good)
    for field in fields:
        raw[field : field + 4] = (1 << 20).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    read_sizes.clear()
    with pytest.raises(LoadError, match="header declares"):
        load(path)
    header_end = fields[-1] + 4
    assert max(read_sizes) <= header_end < len(good)


@pytest.mark.parametrize("h, c, d", [(2, 0, 4), (0, 3, 4), (2, 3, 0), (5, 7, 4)])
def test_head_bank_shape_must_match_its_config(tmp_path, h, c, d):
    # a well-sized payload for (h, c, d) under the config echo of 2 heads of 3
    # clusters: a zero count or another shape would load and fail in use
    cfg = config_to_text(head_bank().config).encode("utf-8")
    path = tmp_path / "bank.hdb"
    binfmt.save(path, b"HDB1", struct.pack("<I", len(cfg)), cfg, struct.pack("<III", h, c, d),
                values(6 * d).astype("<f8"), values(h * (2 * c * (d + 1) + c)).astype("<f8"))
    with pytest.raises(LoadError, match="config echo"):
        load_head_bank(path)


def test_load_maps_value_errors_and_trailing_bytes(tmp_path):
    path = tmp_path / "x.bin"
    binfmt.save(path, b"TEST", b"\xff\xfe", np.arange(3, dtype="<u4"))
    assert path.read_bytes() == b"TEST\xff\xfe" + bytes([0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0])
    with pytest.raises(LoadError, match="malformed test file"):
        binfmt.load(path, b"TEST", "test file", lambda r: r.take(2).decode("utf-8"))
    with pytest.raises(LoadError, match="12 trailing bytes"):
        binfmt.load(path, b"TEST", "test file", lambda r: r.take(2))
    got = binfmt.load(path, b"TEST", "test file", lambda r: (r.take(2), r.array("<u4", 3)))
    assert got[1].tolist() == [0, 1, 2]


def test_text_labeling_parsed_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(labeling, "TEXT_CHUNK", 5)
    path = tmp_path / "ids.txt"
    ids = [3, -12, 40000, 7, 0, 123456789012, 5]
    # spaces, tabs, CRLF and a two-byte no-break space, split at every 5 bytes
    path.write_text("3\n-12\t40000 \r\n7\u00a00\n\n123456789012\n5", encoding="utf-8")
    assert load_labeling(path).labels.tolist() == ids
    save_labeling_text(Labeling(ids), path)
    assert load_labeling(path).labels.tolist() == ids


@pytest.mark.parametrize(
    "text, match",
    [
        ("1\n2\nx3\n4\n", "not a labeling.*x3"),
        ("1\n2\n" + "9" * 70, "more than 64 characters"),
        ("1\n" + "9" * 30 + "\n", "not a labeling"),  # beyond int64
        (" \n\t\n", "empty labeling"),
    ],
)
def test_bad_text_labeling_raises_load_error(tmp_path, monkeypatch, text, match):
    monkeypatch.setattr(labeling, "TEXT_CHUNK", 4)
    path = tmp_path / "ids.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(LoadError, match=match):
        load_labeling(path)


def hdb_with_echo(tmp_path, edit):
    """The bytes of ``head_bank()`` saved, with ``edit`` applied to the config echo text."""
    path = tmp_path / "bank.hdb"
    save_head_bank(head_bank(), path)
    raw = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", raw, 4)
    echo = edit(raw[8 : 8 + cfg_len].decode("utf-8")).encode("utf-8")
    path.write_bytes(raw[:4] + struct.pack("<I", len(echo)) + echo + raw[8 + cfg_len :])
    return path


@pytest.mark.parametrize("edit, match", [
    (lambda t: t + "oops\n", r"config echo:16: expected key=value, got 'oops'"),
    (lambda t: t.replace("lr=", "rate="), r"unknown \['rate'\], missing \['lr'\]"),
    (lambda t: t.replace("seed=5\n", ""), r"unknown \[\], missing \['seed'\]"),
], ids=["no_equals", "unknown_and_missing", "missing"])
def test_head_bank_config_echo_is_refused_in_one_message(tmp_path, edit, match):
    with pytest.raises(LoadError, match=match):
        load_head_bank(hdb_with_echo(tmp_path, edit))


def test_head_bank_config_echo_skips_blank_lines(tmp_path):
    path = hdb_with_echo(tmp_path, lambda t: "\n" + t.replace("\n", "\n \n"))
    assert load_head_bank(path).config == head_bank().config


@pytest.mark.parametrize("where, value", [
    ("student.weight", 1e300), ("student.weight", np.nan), ("teacher.weight", -np.inf),
    ("student.bias", np.inf), ("teacher.bias", 3.5e38), ("student.gamma", -1e39),
    ("teacher.beta_shift", np.nan), ("mean", np.nan), ("mean", np.inf), ("var", -1.0),
    ("var", np.inf), ("var", np.nan),
])
def test_head_bank_refuses_values_it_cannot_hold(tmp_path, where, value):
    # a value the float32 bank cannot hold, or a standardizer it cannot use,
    # would load and fail only when predict_labeling meets non-finite logits
    bank = head_bank()
    copy, _, key = where.rpartition(".")
    path = tmp_path / "bank.hdb"
    if copy:
        getattr(bank, copy)[key].flat[-1] = value
        save_head_bank(bank, path)
    else:
        # NormStats refuses the value, so it goes into the saved bytes: the
        # last entry of the mean or var row, after the (h, c, d) header
        save_head_bank(bank, path)
        raw = bytearray(path.read_bytes())
        end = hdb_counts(raw) + 12 + 8 * bank.dim * (1 + ("mean", "var").index(key))
        struct.pack_into("<d", raw, end - 8, value)
        path.write_bytes(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before the cast that would overflow
        match = "non-finite" if copy else "non-finite standardizer mean"
        with pytest.raises(LoadError, match=match):
            load_head_bank(path)


def test_head_bank_holds_float32_extremes(tmp_path):
    bank = head_bank()
    big = float(np.finfo(np.float32).max)
    bank.student["weight"].flat[0], bank.teacher["bias"].flat[0] = big, -big
    var = bank.norm.var.copy()
    var[0] = 0.0
    bank.norm = NormStats(mean=bank.norm.mean, var=var)
    path = tmp_path / "bank.hdb"
    save_head_bank(bank, path)
    loaded = load_head_bank(path)
    assert loaded.student["weight"].flat[0] == big and loaded.teacher["bias"].flat[0] == -big


@pytest.mark.parametrize("field, value", [
    ("weight", np.nan), ("bias", np.inf), ("mean", -np.inf), ("var", np.nan),
    ("gamma", np.inf), ("beta", np.nan),
])
def test_classifier_refuses_non_finite_values(tmp_path, field, value):
    # a NaN weight row would load and then label every sample with its class
    clf = classifier()
    c, d = clf.num_classes, clf.dim
    path = tmp_path / "c.clf"
    save_classifier(clf, path)
    end = 12 + 4 * c  # after the magic, the dims and the class ids
    for key, size in [("weight", c * d), ("bias", c), ("mean", d), ("var", d),
                      ("gamma", d), ("beta", d)]:
        end += 8 * size
        if key == field:
            break
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, end - 8, value)  # the field's last value
    path.write_bytes(raw)
    with pytest.raises(LoadError, match="non-finite"):
        load_classifier(path)


def test_classifier_folds_a_non_identity_affine(tmp_path, rng):
    # the golden CLF1 file from before the identity became the only affine written
    clf = classifier()
    gamma, beta = values(clf.dim, 13) + 2.0, values(clf.dim, 14)
    raw = classifier_bytes(clf, gamma, beta)
    assert hashlib.sha256(raw).hexdigest() == (
        "ee9f78b6b126603993ba1685f38b7eb65c6bc92f61222807ce8e43352e563e00")
    path = tmp_path / "c.clf"
    path.write_bytes(raw)
    z = rng.normal(size=(500, clf.dim)) * 2.0
    logits = (unit_rows(z, clf.norm) * gamma + beta) @ clf.weight.T + clf.bias
    want = clf.class_ids[np.argmax(logits, axis=1)]
    assert len(set(want.tolist())) == clf.num_classes
    assert np.array_equal(predict(load_classifier(path), EmbeddingMatrix(z)).labels, want)


@pytest.mark.parametrize("field", ["gamma", "beta"])
def test_classifier_whose_fold_overflows_is_refused(tmp_path, field):
    # every stored value is finite, but W*gamma or W beta is not
    clf = classifier()
    clf.weight = clf.weight * 1e300
    affine = {"gamma": np.ones(clf.dim), "beta": np.zeros(clf.dim)}
    affine[field] = np.full(clf.dim, 1e10)
    path = tmp_path / "c.clf"
    path.write_bytes(classifier_bytes(clf, affine["gamma"], affine["beta"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LoadError, match="a folded parameter is non-finite"):
            load_classifier(path)


@pytest.mark.parametrize("bad_id", [-1, 2**32])
def test_classifier_refuses_class_ids_beyond_u32_before_writing(tmp_path, bad_id):
    clf = classifier()
    clf.class_ids = np.array([7, bad_id, 40])
    path = tmp_path / "c.clf"
    with pytest.raises(ValueError, match="unsigned 32-bit"):
        save_classifier(clf, path)
    assert not path.exists()
