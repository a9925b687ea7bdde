"""Embedding-matrix storage: file formats, standardization, synthetic data.

Feature matrices are n x d float64 arrays (rows = samples).  The canonical
on-disk format is "featpack" (magic ``FPK1``); headerless csv and npy v1.0
are supported for interop.  Standardization mirrors a batch-normalization
layer whose running statistics are frozen at fit time: per-dimension
``(x - mean) / sqrt(var + 1e-5) * gamma + beta``.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import LoadError
from .labeling import Labeling

VAR_EPS = 1e-5

FEATPACK_MAGIC = b"FPK1"
_TAG_TO_DTYPE = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_NPY_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Immutable n x d matrix of feature vectors; the row index is the
    stable sample identity across all pipeline stages."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"feature matrix must be at least 1x1, got {arr.shape}")
        bad = ~np.isfinite(arr)
        if bad.any():
            row = int(np.nonzero(bad.any(axis=1))[0][0])
            raise ValueError(f"non-finite feature value in row {row}")
        object.__setattr__(self, "data", _readonly(arr))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Frozen standardization statistics plus the learnable affine."""

    mean: np.ndarray
    var: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    momentum: float = 0.0

    def __post_init__(self):
        for name in ("mean", "var", "gamma", "beta"):
            v = np.asarray(getattr(self, name), dtype=np.float64).ravel()
            object.__setattr__(self, name, _readonly(v))
        d = self.mean.size
        if not (self.var.size == self.gamma.size == self.beta.size == d):
            raise ValueError("NormStats vectors must share one dimension")
        if np.any(self.var < 0):
            raise ValueError("variance entries must be nonnegative")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("momentum must lie in [0, 1]")

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


def unit_rows(x: np.ndarray, stats: NormStats) -> np.ndarray:
    """Apply ``(x - mean)/sqrt(var + eps)`` along the last axis, without the affine."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != stats.d:
        raise ValueError(f"dimension mismatch: features d={x.shape[-1]}, stats d={stats.d}")
    return (x - stats.mean) / np.sqrt(stats.var + VAR_EPS)


def standardize_array(x: np.ndarray, stats: NormStats) -> np.ndarray:
    """Apply ``(x - mean)/sqrt(var + eps) * gamma + beta`` along the last axis."""
    return unit_rows(x, stats) * stats.gamma + stats.beta


def fit_standardizer(features: EmbeddingMatrix, momentum: float = 0.0) -> NormStats:
    """Compute per-dimension batch mean/variance; affine starts at identity.

    Near-zero variances are clamped to 1e-5 (with a warning) so constant
    dimensions cannot blow up downstream divisions.
    """
    if features.n < 2:
        raise ValueError("standardizer needs at least 2 samples")
    mean = features.data.mean(axis=0)
    var = features.data.var(axis=0)
    low = var < VAR_EPS
    if low.any():
        warnings.warn(
            f"{int(low.sum())} near-constant feature dimension(s); variance clamped to {VAR_EPS}",
            RuntimeWarning,
            stacklevel=2,
        )
        var = np.where(low, VAR_EPS, var)
    d = features.d
    return NormStats(mean=mean, var=var, gamma=np.ones(d), beta=np.zeros(d), momentum=momentum)


def apply_standardizer(features: EmbeddingMatrix, stats: NormStats) -> EmbeddingMatrix:
    """Standardize every row of ``features`` with ``stats``."""
    if features.d != stats.d:
        raise ValueError(f"dimension mismatch: features d={features.d}, stats d={stats.d}")
    return EmbeddingMatrix(standardize_array(features.data, stats))


def gen_synthetic(spec: SynthSpec) -> tuple[EmbeddingMatrix, Labeling]:
    """Generate isotropic Gaussian clusters with unit within-cluster std.

    Rows are shuffled deterministically by the seed; the returned labeling
    is the ground truth with ids 1..k.
    """
    rng = np.random.default_rng(spec.seed)
    radius = spec.separation * np.sqrt(spec.d / 2.0)
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
    return EmbeddingMatrix(points[perm]), Labeling(labels[perm])


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
                f, features.data.astype("<f8"), version=(1, 0), allow_pickle=False
            )
    else:
        raise ValueError(f"unknown feature format {format!r}")


def load_features(path, format: str = "featpack") -> EmbeddingMatrix:
    """Load a feature matrix, validating header/payload consistency.

    featpack and npy loads are bit-exact (float32 payloads are cast to the
    float64 working precision, which is lossless).
    """
    if format == "featpack":
        data = _load_featpack(path)
    elif format == "csv":
        data = _load_csv(path)
    elif format == "npy":
        data = _load_npy(path)
    else:
        raise ValueError(f"unknown feature format {format!r}")

    bad = ~np.isfinite(data)
    if bad.any():
        row = int(np.nonzero(bad.any(axis=1))[0][0])
        raise LoadError(f"{path}: non-finite value in row {row}")
    return EmbeddingMatrix(data)


def detect_format(path) -> str:
    """Pick a feature format from the file extension (featpack by default)."""
    name = str(path).lower()
    if name.endswith(".csv"):
        return "csv"
    if name.endswith(".npy"):
        return "npy"
    return "featpack"


def _save_featpack(features: EmbeddingMatrix, path) -> None:
    with open(path, "wb") as f:
        f.write(FEATPACK_MAGIC)
        f.write(struct.pack("<IIB", features.n, features.d, 2))
        f.write(features.data.astype("<f8").tobytes(order="C"))


def _load_featpack(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != FEATPACK_MAGIC:
            raise LoadError(f"{path}: bad magic {magic!r}, expected {FEATPACK_MAGIC!r}")
        header = f.read(9)
        if len(header) != 9:
            raise LoadError(f"{path}: truncated featpack header")
        n, d, tag = struct.unpack("<IIB", header)
        if n < 1 or d < 1:
            raise LoadError(f"{path}: invalid dimensions {n}x{d} in header")
        if tag not in _TAG_TO_DTYPE:
            raise LoadError(f"{path}: unknown dtype tag {tag}")
        dtype = _TAG_TO_DTYPE[tag]
        payload = f.read()
    expected = n * d * dtype.itemsize
    if len(payload) != expected:
        got_rows = len(payload) // (d * dtype.itemsize)
        raise LoadError(
            f"{path}: payload holds {got_rows} row(s) but header declares {n} "
            f"({len(payload)} bytes, expected {expected})"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(n, d).astype(np.float64)


def _load_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise LoadError(f"{path}: unparseable value in row {lineno - 1}: {exc}") from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise LoadError(
                    f"{path}: row {lineno - 1} has {len(row)} columns, expected {width}"
                )
            rows.append(row)
    if not rows:
        raise LoadError(f"{path}: empty csv")
    return np.asarray(rows, dtype=np.float64)


def _load_npy(path) -> np.ndarray:
    with open(path, "rb") as f:
        try:
            version = np.lib.format.read_magic(f)
        except ValueError as exc:
            raise LoadError(f"{path}: not an npy file: {exc}") from exc
        if version != (1, 0):
            raise LoadError(f"{path}: unsupported npy version {version}, need 1.0")
        try:
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(f)
        except ValueError as exc:
            raise LoadError(f"{path}: malformed npy header: {exc}") from exc
        if fortran_order:
            raise LoadError(f"{path}: Fortran-order npy not supported, need C order")
        if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
            raise LoadError(f"{path}: need a 2-D array, header says shape {shape}")
        if dtype not in _NPY_DTYPES:
            raise LoadError(
                f"{path}: dtype {dtype.str} not supported, need little-endian float32/float64"
            )
        payload = f.read()
    n, d = shape
    expected = n * d * dtype.itemsize
    if len(payload) != expected:
        got_rows = len(payload) // (d * dtype.itemsize)
        raise LoadError(
            f"{path}: payload holds {got_rows} row(s) but header declares {n}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(n, d).astype(np.float64)
