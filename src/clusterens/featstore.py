"""Embedding-matrix storage: file formats, standardization, synthetic data.

Feature matrices are n x d float64 arrays (rows = samples).  The canonical
on-disk format is "featpack" (magic ``FPK1``); headerless csv and npy v1.0
are supported for interop, and a loader tells them apart by the file's
first bytes.  Standardization is a batch-normalization layer's statistics
frozen at fit time, without its affine: per dimension
``(x - mean) / sqrt(var + 1e-5)``, by :func:`unit_rows`, the one
standardization every stage runs.  Its statistics are fitted once per
matrix and cached on it (``EmbeddingMatrix.norm``); ``NormStats`` refuses
a non-finite mean and a negative or non-finite variance.
"""

from __future__ import annotations

import io
import math
import struct
import tokenize
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import binfmt
from .errors import LoadError
from .kvtext import TEXT_CHUNK
from .labeling import Labeling

VAR_EPS = 1e-5

# The byte budget of one block in every pass that works a block at a time
# (similarity, hashed, gathered, unit and labeling rows, and pair checks),
# under NumPy's 4 MiB huge-page threshold.
BLOCK_BYTES = 2 << 20

FEATPACK_MAGIC = b"FPK1"
NPY_MAGIC = b"\x93NUMPY"
_TAG_TO_DTYPE = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def blocks(count: int, item_bytes: int, floor: int = 1) -> list:
    """Consecutive slices covering ``range(count)``, each of at most
    ``max(floor, BLOCK_BYTES // item_bytes)`` items; the budget is read at
    call time."""
    step = max(floor, BLOCK_BYTES // item_bytes)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Immutable n x d matrix of feature vectors; the row index is the
    stable sample identity across all pipeline stages.  ``norm``, the
    standardizer every stage reads, is fitted once and cached on the matrix."""

    data: np.ndarray

    def __post_init__(self):
        # a copy, so the caller's array cannot change the matrix
        self._own(np.array(self.data, dtype=np.float64))

    @classmethod
    def _adopt(cls, data: np.ndarray) -> EmbeddingMatrix:
        """Wrap a float64 array that no one else holds (a loader's), without a copy."""
        matrix = object.__new__(cls)
        matrix._own(data)
        return matrix

    def _own(self, arr: np.ndarray) -> None:
        if arr.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"feature matrix must be at least 1x1, got {arr.shape}")
        finite = np.isfinite(arr)
        if not finite.all():
            row = int(np.nonzero(~finite.all(axis=1))[0][0])
            raise ValueError(f"non-finite feature value in row {row}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    @cached_property
    def norm(self) -> NormStats:
        """``fit_standardizer`` of the matrix, fitted on first use and kept (the
        rows are a private read-only array, so it cannot go stale)."""
        return fit_standardizer(self)


@dataclass(frozen=True)
class NormStats:
    """Frozen per-dimension standardization statistics: a finite mean and
    a finite, nonnegative variance per dimension."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        for name in ("mean", "var"):
            v = np.asarray(getattr(self, name), dtype=np.float64).ravel()
            object.__setattr__(self, name, _readonly(v))
        if self.var.size != self.mean.size:
            raise ValueError("NormStats vectors must share one dimension")
        # each test fails on NaN
        if not (np.isfinite(self.mean).all() and ((0.0 <= self.var) & (self.var < np.inf)).all()):
            raise ValueError("non-finite standardizer mean, or negative or non-finite variance")

    @property
    def d(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for a deterministic Gaussian-blob feature matrix.

    ``separation`` is the ratio of inter-center distance to the unit
    within-cluster standard deviation; centers are placed pairwise
    ``separation * sqrt(d)`` apart (exactly for k <= d, approximately
    otherwise).
    """

    n: int
    d: int
    k: int
    separation: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.k < 1:
            raise ValueError("n, d and k must all be >= 1")
        if self.k > self.n:
            raise ValueError(f"k={self.k} exceeds n={self.n}")
        if not self.separation > 0:
            raise ValueError("separation must be > 0")
        if not math.isfinite(self.radius):
            raise ValueError(f"the blob radius separation * sqrt(d / 2) = {self.radius} "
                             "is not finite")

    @property
    def radius(self) -> float:
        """Distance of each center from the origin."""
        return self.separation * math.sqrt(self.d / 2.0)


def unit_rows(x: np.ndarray, stats: NormStats, dtype=np.float64) -> np.ndarray:
    """``(x - mean) / sqrt(var + eps)`` of the rows of ``x`` (n, d), computed
    in float64 one ``blocks`` block of rows at a time and rounded once into
    ``dtype``; a float64 result is computed in place, with no block copy."""
    if x.shape[1] != stats.d:
        raise ValueError(f"dimension mismatch: features d={x.shape[1]}, stats d={stats.d}")
    scale = np.sqrt(stats.var + VAR_EPS)
    out = np.empty(x.shape, dtype=dtype)
    for rows in blocks(x.shape[0], 8 * x.shape[1]):
        u = np.subtract(x[rows], stats.mean, out=out[rows] if out.dtype == np.float64 else None)
        np.divide(u, scale, out=out[rows])
    return out


def fit_standardizer(features: EmbeddingMatrix) -> NormStats:
    """Compute per-dimension batch mean/variance.

    Near-zero variances are clamped to 1e-5 (with a warning) so constant
    dimensions cannot blow up downstream divisions; a matrix whose every
    dimension would clamp is refused, as it would standardize to all zeros.
    """
    if features.n < 2:
        raise ValueError("standardizer needs at least 2 samples")
    mean = features.data.mean(axis=0)
    var = features.data.var(axis=0)
    low = var < VAR_EPS
    if low.all():
        raise ValueError(f"all {low.size} feature dimensions have variance below {VAR_EPS}; "
                         "rescale the features")
    if low.any():
        warnings.warn(
            f"{int(low.sum())} near-constant feature dimension(s); variance clamped to {VAR_EPS}",
            RuntimeWarning,
            stacklevel=2,
        )
        var = np.where(low, VAR_EPS, var)
    return NormStats(mean=mean, var=var)


def apply_standardizer(features: EmbeddingMatrix, stats: NormStats) -> EmbeddingMatrix:
    """Standardize every row of ``features`` with ``stats``."""
    return EmbeddingMatrix._adopt(unit_rows(features.data, stats))


def gen_synthetic(spec: SynthSpec) -> tuple[EmbeddingMatrix, Labeling]:
    """Generate isotropic Gaussian clusters with unit within-cluster std.

    Rows are shuffled deterministically by the seed; the returned labeling
    is the ground truth with ids 1..k.
    """
    rng = np.random.default_rng(spec.seed)
    radius = spec.radius
    if spec.k <= spec.d:
        centers = np.zeros((spec.k, spec.d))
        centers[np.arange(spec.k), np.arange(spec.k)] = radius
    else:
        # more centers than axes: equidistance is impossible, use random
        # directions at the same radius
        dirs = rng.standard_normal((spec.k, spec.d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        centers = dirs * radius

    sizes = np.full(spec.k, spec.n // spec.k, dtype=np.int64)
    sizes[: spec.n % spec.k] += 1
    labels = np.repeat(np.arange(1, spec.k + 1), sizes)
    points = rng.standard_normal((spec.n, spec.d)) + np.repeat(centers, sizes, axis=0)

    perm = rng.permutation(spec.n)
    return EmbeddingMatrix._adopt(points[perm]), Labeling(labels[perm])


# ---------------------------------------------------------------------------
# on-disk formats
# ---------------------------------------------------------------------------


def save_features(features: EmbeddingMatrix, path, format: str = "featpack") -> None:
    """Write ``features`` to ``path`` in one of the supported formats."""
    if format == "featpack":
        _save_featpack(features, path)
    elif format == "csv":
        np.savetxt(path, features.data, fmt="%.17g", delimiter=",")
    elif format == "npy":
        with open(path, "wb") as f:
            np.lib.format.write_array(
                f, features.data.astype("<f8", copy=False), version=(1, 0), allow_pickle=False
            )
    else:
        raise ValueError(f"unknown feature format {format!r}")


def load_features(path) -> EmbeddingMatrix:
    """Load a feature matrix in the format its first bytes name (featpack,
    npy, else csv text), validating header/payload consistency.

    featpack and npy loads are bit-exact (float32 payloads are cast to the
    float64 working precision, which is lossless).  The matrix keeps the
    array the loader read, so a float64 file is held once.
    """
    if binfmt.has_magic(path, FEATPACK_MAGIC):
        data = binfmt.load(path, FEATPACK_MAGIC, "featpack", _parse_featpack)
    elif binfmt.has_magic(path, NPY_MAGIC):
        data = binfmt.load(path, NPY_MAGIC, "npy file", _parse_npy)
    else:
        data = _load_csv(path)
    try:
        return EmbeddingMatrix._adopt(data)
    except ValueError as exc:
        raise LoadError(f"{path}: {exc}") from None


def detect_format(path) -> str:
    """The format ``gen-synth`` writes to ``path``, by its extension (featpack by default)."""
    name = str(path).lower()
    if name.endswith(".csv"):
        return "csv"
    if name.endswith(".npy"):
        return "npy"
    return "featpack"


def _save_featpack(features: EmbeddingMatrix, path) -> None:
    header = struct.pack("<IIB", features.n, features.d, 2)
    binfmt.save(path, FEATPACK_MAGIC, header, features.data.astype("<f8", copy=False))


def _parse_featpack(r: binfmt.Reader) -> np.ndarray:
    n, d, tag = r.header("IIB")
    if n < 1 or d < 1:
        raise ValueError(f"invalid dimensions {n}x{d} in header")
    if tag not in _TAG_TO_DTYPE:
        raise ValueError(f"unknown dtype tag {tag}")
    return r.array(_TAG_TO_DTYPE[tag], n, d).astype(np.float64, copy=False)


def _load_csv(path) -> np.ndarray:
    """Comma-separated float rows, one per nonblank line.

    The text is parsed ``TEXT_CHUNK`` characters at a time, carrying only
    the unfinished last value into the next piece, and a value of more than
    ``TEXT_CHUNK`` characters is refused, so no line is held whole.  A NUL
    byte in the first ``TEXT_CHUNK`` bytes, which binary files hold and text
    does not, refuses the file unparsed.
    """
    from array import array  # here, since only a csv load needs it
    values = array("d")  # the rows' values, back to back, 8 bytes each
    width, row, start, tail = None, 0, 0, ""  # row: the line; start: its first value's index
    try:
        with open(path, "rb") as raw:
            if b"\0" in raw.read(TEXT_CHUNK):
                raise LoadError(f"{path}: not a feature file: no featpack or npy magic, "
                                "and a NUL byte where csv text has none")
            raw.seek(0)
            text = io.TextIOWrapper(raw, encoding="utf-8")
            while True:
                piece = text.read(TEXT_CHUNK)
                lines = (tail + piece).split("\n")
                for i, line in enumerate(lines):
                    done = i + 1 < len(lines) or not piece
                    if len(values) == start:  # the line's first value: strip as the line
                        line = line.lstrip()
                    if done:
                        line = line.rstrip()
                        if len(values) == start and not line:
                            row += 1  # a blank line
                            continue
                    fields = line.split(",")
                    if len(fields[0]) > TEXT_CHUNK:
                        raise LoadError(f"{path}: value of more than {TEXT_CHUNK} "
                                        f"characters in row {row}")
                    tail = "" if done else fields.pop()
                    try:
                        values.extend(map(float, fields))
                    except ValueError as exc:
                        raise LoadError(f"{path}: unparseable value in row {row}: {exc}") from exc
                    if not done:
                        continue
                    count = len(values) - start
                    if width is None:
                        width = count
                    elif count != width:
                        raise LoadError(f"{path}: row {row} has {count} columns, expected {width}")
                    row, start = row + 1, len(values)
                if not piece:
                    break
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path}: not UTF-8 text: {exc}") from exc
    if width is None:
        raise LoadError(f"{path}: empty csv")
    return np.array(values, dtype=np.float64).reshape(-1, width)


def _parse_npy(r: binfmt.Reader) -> np.ndarray:
    version = r.header("BB")
    if version != (1, 0):
        raise ValueError(f"unsupported npy version {version}, need 1.0")
    try:
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(r)
    # the header is a Python literal; numpy lets tokenizer errors through
    except (SyntaxError, tokenize.TokenError) as exc:
        raise ValueError(f"malformed npy header: {exc}") from None
    if fortran_order:
        raise ValueError("Fortran-order npy not supported, need C order")
    if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
        raise ValueError(f"need a 2-D array, header says shape {shape}")
    if dtype not in _TAG_TO_DTYPE.values():
        raise ValueError(f"dtype {dtype.str} not supported, need little-endian float32/float64")
    # an oversized payload is refused before it is read, not as trailing bytes
    n, d = shape
    if r.left != n * d * dtype.itemsize:
        raise ValueError(f"payload holds {r.left // (d * dtype.itemsize)} row(s) "
                         f"but header declares {n}")
    return r.array(dtype, n, d).astype(np.float64, copy=False)
