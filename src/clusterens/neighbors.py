"""Adaptive nearest-neighbor mining on cosine similarity.

Each sample's neighbor set contains every other sample whose cosine
similarity reaches the threshold ``theta``; sets that stay below ``k_min``
members fall back to the top-``k_min`` most similar samples.  Sets are
computed exhaustively (exact O(n^2) similarities) and once, ahead of
training.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import binfmt
from .featstore import EmbeddingMatrix
from .labeling import Labeling

NEIGHBORS_MAGIC = b"NNS1"


@dataclass(frozen=True)
class NeighborSets:
    """Per-sample neighbor index lists, ordered by descending similarity.

    ``theta``/``k_min`` echo the selection parameters; both are ``None``
    for sets not produced by thresholded selection (e.g. ground-truth sets).
    """

    sets: tuple
    theta: float | None = None
    k_min: int | None = None

    def __post_init__(self):
        n = len(self.sets)
        frozen = []
        for i, s in enumerate(self.sets):
            arr = np.array(s, dtype=np.int64, copy=True)
            if arr.ndim != 1:
                raise ValueError("each neighbor set must be a flat index list")
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise ValueError(f"sample {i} has a neighbor index outside [0, {n})")
            if (arr == i).any():
                raise ValueError(f"sample {i} contains itself in its neighbor set")
            if np.unique(arr).size != arr.size:
                raise ValueError(f"duplicate neighbor index for sample {i}")
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "sets", tuple(frozen))

    @property
    def n(self) -> int:
        return len(self.sets)

    def sizes(self) -> np.ndarray:
        return np.array([s.size for s in self.sets], dtype=np.int64)

    def to_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Flatten to (offsets, indices) for vectorized uniform draws."""
        sizes = self.sizes()
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        flat = np.concatenate(self.sets) if self.n else np.empty(0, dtype=np.int64)
        return offsets, flat


@dataclass(frozen=True)
class NeighborStats:
    """Aggregate quality numbers for a neighbor structure."""

    avg_count: float
    pair_accuracy: float
    singleton_classes: int = 0

    def __post_init__(self):
        if not 0.0 <= self.pair_accuracy <= 1.0:
            raise ValueError("pair_accuracy must lie in [0, 1]")


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """dot(u, v) / (|u| |v|), clamped to [-1, 1]."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.size != v.size:
        raise ValueError("vectors must share a dimension")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity undefined for a zero-norm vector")
    return float(np.clip(u @ v / (nu * nv), -1.0, 1.0))


def _similarity_matrix(features: EmbeddingMatrix, threads: int = 1) -> np.ndarray:
    norms = np.linalg.norm(features.data, axis=1)
    if (norms == 0).any():
        row = int(np.nonzero(norms == 0)[0][0])
        raise ValueError(f"zero-norm feature row {row}; cosine similarity undefined")
    unit = features.data / norms[:, None]
    n = features.n
    sims = np.empty((n, n), dtype=np.float64)
    if threads <= 1 or n < 64:
        np.matmul(unit, unit.T, out=sims)
    else:
        bounds = np.linspace(0, n, threads + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(
                pool.map(
                    lambda ab: np.matmul(unit[ab[0] : ab[1]], unit.T, out=sims[ab[0] : ab[1]]),
                    zip(bounds[:-1], bounds[1:]),
                )
            )
    np.clip(sims, -1.0, 1.0, out=sims)
    return sims


def build_neighbor_sets(
    features: EmbeddingMatrix, theta: float, k_min: int, threads: int = 1
) -> NeighborSets:
    """Select each sample's neighbors by similarity threshold with a top-k floor.

    S_x = { x' != x : cos(z_x, z_x') >= theta }; whenever that set has fewer
    than ``k_min`` members it is replaced by the ``k_min`` most similar
    samples.  Members are ordered by descending similarity, ties broken by
    ascending sample index.
    """
    if features.n < 2:
        raise ValueError("need at least 2 samples to build neighbor sets")
    if k_min < 1:
        raise ValueError("k_min must be >= 1")
    n = features.n
    sims = _similarity_matrix(features, threads=threads)
    np.fill_diagonal(sims, -np.inf)
    floor = min(k_min, n - 1)

    sets = []
    idx = np.arange(n)
    for x in range(n):
        row = sims[x]
        # descending similarity, ties by ascending index
        order = np.lexsort((idx, -row))
        count = int((row >= theta).sum())
        take = count if count >= floor else floor
        sets.append(order[:take])
    return NeighborSets(tuple(sets), theta=float(theta), k_min=int(k_min))


def ground_truth_neighbors(labels: Labeling) -> NeighborSets:
    """Every same-label sample, minus the anchor itself.

    Singleton classes yield empty sets; they are permitted here and show up
    in :func:`neighbor_accuracy` stats.
    """
    n = labels.n
    sets = []
    arr = labels.labels
    for x in range(n):
        members = np.nonzero(arr == arr[x])[0]
        sets.append(members[members != x])
    return NeighborSets(tuple(sets))


def neighbor_accuracy(sets: NeighborSets, labels: Labeling) -> NeighborStats:
    """Fraction of (anchor, neighbor) pairs sharing a ground-truth label."""
    if sets.n != labels.n:
        raise ValueError(f"sets cover {sets.n} samples, labels cover {labels.n}")
    arr = labels.labels
    total = 0
    correct = 0
    for x, s in enumerate(sets.sets):
        total += s.size
        if s.size:
            correct += int((arr[s] == arr[x]).sum())
    if total == 0:
        raise ValueError("all neighbor sets are empty")
    counts = sets.sizes()
    _, class_sizes = np.unique(arr, return_counts=True)
    return NeighborStats(
        avg_count=float(counts.mean()),
        pair_accuracy=correct / total,
        singleton_classes=int((class_sizes == 1).sum()),
    )


def save_neighbor_sets(sets: NeighborSets, path) -> None:
    """Write the ``NNS1`` binary form (u32 n, per sample u32 count + indices)."""
    offsets, flat = sets.to_csr()
    body = np.insert(flat, offsets[:-1], sets.sizes()).astype("<u4")
    binfmt.save(path, NEIGHBORS_MAGIC, np.uint32(sets.n).tobytes(), body)


def _parse_neighbor_sets(r: binfmt.Reader) -> NeighborSets:
    (n,) = r.header("I")
    if 4 * n > r.left:
        raise ValueError(f"header declares {n} samples, the file holds {r.left} more bytes")
    # one u32 body, each sample's count followed by its indices
    body = r.array("<u4", r.left // 4)
    sets, at = [], 0
    for i in range(n):
        count = int(body[at]) if at < body.size else 0
        if at + 1 + count > body.size:
            raise ValueError(f"truncated at sample {i}")
        sets.append(body[at + 1 : at + 1 + count])
        at += 1 + count
    if at != body.size:
        raise ValueError(f"trailing values after {n} samples")
    return NeighborSets(tuple(sets))


def load_neighbor_sets(path) -> NeighborSets:
    """Read an ``NNS1`` file; a malformed file or invalid index raises ``LoadError``."""
    return binfmt.load(path, NEIGHBORS_MAGIC, "neighbor-set file", _parse_neighbor_sets)
