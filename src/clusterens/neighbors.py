"""Adaptive nearest-neighbor mining on cosine similarity.

Each sample's neighbor set contains every other sample whose cosine
similarity reaches the threshold ``theta``; sets that stay below ``k_min``
members fall back to the top-``k_min`` most similar samples.  Sets are
computed exhaustively (exact O(n^2) similarities) and once, ahead of
training, a block of rows at a time: a block holds at most
``featstore.BLOCK_BYTES`` of similarities (or MIN_BLOCK_ROWS rows), never
the n×n matrix.

Each block's candidates are ranked with NumPy's default (SIMD, unstable)
argsort; only rows where two kept keys tie exactly are sorted again with a
stable sort, so ties stay in index order and the sets are those of one
stable sort.  The int32 members of every block are copied into one array
grown in place, so mining holds the pairs once, and the NNS1 writer and the
threshold sweep's prefix cut work one block of rows at a time, each of
at most ``BLOCK_BYTES // 16`` pairs: a check holds about 16 bytes of int64
keys and masks per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import binfmt, featstore
from .featstore import EmbeddingMatrix, blocks
from .labeling import Labeling

NEIGHBORS_MAGIC = b"NNS1"

# a similarity block never holds fewer rows, which keeps its matrix product
# compute-bound at large n
MIN_BLOCK_ROWS = 64


def _row_blocks(offsets: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges ``lo:hi`` of at most ``BLOCK_BYTES // 16`` pairs (or one row)."""
    n = offsets.size - 1
    pairs = featstore.BLOCK_BYTES // 16
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(offsets, offsets[lo] + pairs, side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _offsets(sizes: np.ndarray) -> np.ndarray:
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _frozen(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).view()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class NeighborSets:
    """Per-sample neighbor index lists in CSR form.

    Sample ``x``'s neighbors are ``indices[offsets[x]:offsets[x + 1]]``,
    ordered by descending similarity.  ``indices`` is kept as a read-only
    int32 array (4 bytes a pair; an int32 input is not copied) and
    ``offsets`` as read-only int64, since the pair count can pass 2**31.
    ``theta``/``k_min`` echo the selection parameters; both are ``None``
    for sets not produced by thresholded selection (e.g. ground-truth sets).
    """

    offsets: np.ndarray
    indices: np.ndarray
    theta: float | None = None
    k_min: int | None = None

    def __post_init__(self):
        offsets, indices = _frozen(self.offsets, np.int64), np.asarray(self.indices)
        if offsets.ndim != 1 or offsets.size < 1 or indices.ndim != 1:
            raise ValueError("offsets and indices must be flat arrays")
        sizes = np.diff(offsets)
        if offsets[0] != 0 or offsets[-1] != indices.size or (sizes < 0).any():
            raise ValueError("offsets must rise from 0 to the number of indices")
        if indices.size and indices.dtype.kind not in "iu":
            raise ValueError(f"neighbor indices must be integers, got {indices.dtype}")
        n = offsets.size - 1
        if n > 1 << 31:
            raise ValueError(f"{n} samples do not fit int32 neighbor indices")
        # checked on the input's own dtype, so no out-of-range value wraps in int32
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            first = np.flatnonzero((indices < 0) | (indices >= n))[0]
            sample = np.searchsorted(offsets, first, side="right") - 1
            raise ValueError(f"sample {sample} has a neighbor index outside [0, {n})")
        indices = _frozen(indices, np.int32)
        # a self index anywhere outranks a duplicate, so the first duplicate
        # found is raised only once every block has passed the self check
        twin_of = None
        for lo, hi in _row_blocks(offsets):
            block = indices[offsets[lo] : offsets[hi]]
            rows = np.repeat(np.arange(lo, hi, dtype=np.int64), sizes[lo:hi])
            own = block == rows
            if own.any():
                sample = rows[own.argmax()]
                raise ValueError(f"sample {sample} contains itself in its neighbor set")
            if twin_of is None:
                # (sample, index) keys, sorted in place: a duplicate sits next to its twin
                keys = rows
                keys *= n
                keys += block
                keys.sort()
                twin = keys[1:] == keys[:-1]
                if twin.any():
                    twin_of = keys[twin.argmax()] // n
        if twin_of is not None:
            raise ValueError(f"duplicate neighbor index for sample {twin_of}")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "indices", indices)

    @classmethod
    def from_lists(cls, sets, theta: float | None = None, k_min: int | None = None):
        """Build from one index list per sample."""
        arrays = [np.asarray(s, dtype=np.int64) for s in sets]
        if any(a.ndim != 1 for a in arrays):
            raise ValueError("each neighbor set must be a flat index list")
        sizes = np.array([a.size for a in arrays], dtype=np.int64)
        flat = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        return cls(_offsets(sizes), flat, theta, k_min)

    @property
    def n(self) -> int:
        return self.offsets.size - 1

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def sets(self) -> tuple:
        """Each sample's neighbors as its own array (a view into ``indices``)."""
        bounds = self.offsets.tolist()
        return tuple(self.indices[a:b] for a, b in zip(bounds[:-1], bounds[1:]))


@dataclass(frozen=True)
class NeighborStats:
    """Aggregate quality numbers for a neighbor structure."""

    avg_count: float
    pair_accuracy: float
    singleton_classes: int = 0

    def __post_init__(self):
        if not 0.0 <= self.pair_accuracy <= 1.0:
            raise ValueError("pair_accuracy must lie in [0, 1]")


def _unit_rows(features: EmbeddingMatrix) -> np.ndarray:
    norms = np.linalg.norm(features.data, axis=1)
    if (norms == 0).any():
        row = int(np.nonzero(norms == 0)[0][0])
        raise ValueError(f"zero-norm feature row {row}; cosine similarity undefined")
    return features.data / norms[:, None]


def _similarity_matrix(unit: np.ndarray, start: int, stop: int, columns) -> np.ndarray:
    """Cosines of rows ``start:stop`` with every row, clipped to [-1, 1].

    ``columns``, when given, is ``np.unique``'s ``(distinct, inverse)`` of
    the rows: identical rows then share one computed column, so the order of
    their ties does not hang on the last bit of a BLAS product, which can
    move with the thread count.  A row's similarity with itself is set to
    -inf, so it is never selected.
    """
    if columns is None:
        sims = unit[start:stop] @ unit.T
    else:
        distinct, inverse = columns
        sims = (unit[start:stop] @ distinct.T)[:, inverse]
    np.clip(sims, -1.0, 1.0, out=sims)
    rows = np.arange(stop - start)
    sims[rows, rows + start] = -np.inf
    return sims


def _repeated_rows(unit: np.ndarray):
    """``np.unique``'s ``(distinct, inverse)`` of the rows if any row repeats, else None.

    Each row is hashed first, one block of rows at a time: the bits of its
    values (``+ 0.0`` turns -0.0 into 0.0) dotted with fixed odd uint64
    multipliers, wrapping.  Equal rows hash equal, so unless two of the
    sorted hashes tie, every row is distinct and ``np.unique``, which copies
    and sorts all n×d values, is not called.
    """
    n, d = unit.shape
    multipliers = np.arange(1, d + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    multipliers |= np.uint64(1)
    hashes = np.empty(n, dtype=np.uint64)
    for rows in blocks(n, 8 * d):
        np.matmul((unit[rows] + 0.0).view(np.uint64), multipliers, out=hashes[rows])
    hashes.sort()
    if not (hashes[1:] == hashes[:-1]).any():
        return None
    distinct, inverse = np.unique(unit, axis=0, return_inverse=True)
    return None if distinct.shape[0] == n else (distinct, inverse.ravel())


def _tied_rows(key: np.ndarray, order: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Rows r whose ranked keys tie exactly at some position j < sizes[r].

    Equal keys are the only place two sorts of a row can differ, and only a
    tie among the first ``sizes[r] + 1`` ranked keys can change which
    candidates a row keeps or their order.  (A row's padding never ties a
    candidate: a candidate's key is +inf only when theta is -inf, and then
    every row is full.)
    """
    width = min(int(sizes.max(initial=0)) + 1, key.shape[1])
    ranked = np.take_along_axis(key, order[:, :width], axis=1)
    tie = ranked[:, 1:] == ranked[:, :-1]
    tie &= np.arange(width - 1) < sizes[:, None]
    return np.flatnonzero(tie.any(axis=1))


def _mine(features: EmbeddingMatrix, theta: float, floor: int, cuts=()):
    """Rank every row's set; return ``(sizes, members, above)``.

    Row x keeps ``max(#{sim >= theta}, floor)`` members, ordered by
    descending similarity with ties by ascending index; ``members`` (int32)
    holds the rows one after another, grown block by block in place, so the
    pairs are held once.  ``above[i, x]`` is ``#{sim >= cuts[i]}`` of row x.
    Only candidates are sorted: the samples at or above theta, or, for a
    row short of the floor, every sample at or above its floor-th largest
    similarity (ties at that cut included, so the index tie-break stays
    exact).
    """
    unit = _unit_rows(features)
    n = features.n
    columns = _repeated_rows(unit)
    sizes = np.empty(n, dtype=np.int64)
    above = np.empty((len(cuts), n), dtype=np.int64)
    members = np.empty(0, dtype=np.int32)
    for block in blocks(n, 8 * n, MIN_BLOCK_ROWS):
        start, stop = block.start, block.stop
        sims = _similarity_matrix(unit, start, stop, columns)
        for row, t in zip(above, cuts):
            row[start:stop] = np.count_nonzero(sims >= t, axis=1)
        chosen = sims >= theta
        counts = np.count_nonzero(chosen, axis=1)
        take = sizes[start:stop]
        np.maximum(counts, floor, out=take)
        short = np.nonzero(counts < floor)[0]
        if short.size:
            part = sims[short]
            part.partition(n - floor, axis=1)
            cut = part[:, n - floor].copy()  # the floor-th largest similarity
            del part
            chosen[short] = sims[short] >= cut[:, None]
            counts[short] = np.count_nonzero(chosen[short], axis=1)
        flat = np.flatnonzero(chosen)
        del chosen
        # each row's candidate similarities (ascending index) by one ordered
        # scatter into a common width, then negated: keys are -similarity,
        # and the padding +inf
        key = np.full((stop - start, counts.max(initial=0)), -np.inf)
        key[np.arange(key.shape[1]) < counts[:, None]] = np.take(sims, flat)
        del sims
        np.negative(key, out=key)
        # the default sort is SIMD but not stable: rows with an exact tie
        # are sorted again stably, so ties stay by index
        order = key.argsort(axis=1)
        tied = _tied_rows(key, order, take)
        if tied.size:
            order[tied] = key[tied].argsort(axis=1, kind="stable")
        del key
        order += _offsets(counts)[:-1, None]
        ranked = flat[order[np.arange(order.shape[1]) < take[:, None]]]
        del order, flat
        ranked -= np.repeat(np.arange(0, (stop - start) * n, n), take)  # flat -> column
        at = members.size
        members.resize(at + ranked.size, refcheck=False)
        members[at:] = ranked
    return sizes, members, above


def _check_request(features: EmbeddingMatrix, k_min: int) -> int:
    """The floor of every set, ``min(k_min, n - 1)``."""
    if features.n < 2:
        raise ValueError("need at least 2 samples to build neighbor sets")
    if k_min < 1:
        raise ValueError("k_min must be >= 1")
    return min(k_min, features.n - 1)


def build_neighbor_sets(features: EmbeddingMatrix, theta: float, k_min: int) -> NeighborSets:
    """Select each sample's neighbors by similarity threshold with a top-k floor.

    S_x = { x' != x : cos(z_x, z_x') >= theta }; whenever that set has fewer
    than ``k_min`` members it is replaced by the ``k_min`` most similar
    samples.  Members are ordered by descending similarity, ties broken by
    ascending sample index.
    """
    sizes, members, _ = _mine(features, theta, _check_request(features, k_min))
    return NeighborSets(_offsets(sizes), members, theta=float(theta), k_min=int(k_min))


def sweep_neighbor_sets(features: EmbeddingMatrix, thetas, k_min: int) -> Iterator[NeighborSets]:
    """Yield ``build_neighbor_sets`` at every theta in ``thetas``, from one mining pass.

    The pass mines at the smallest theta and counts each row's similarities
    at or above every theta.  Every row's list is ranked, so the set at a
    larger theta is its prefix of ``max(#{sim >= theta}, floor)`` members,
    cut one row block at a time.
    """
    floor = _check_request(features, k_min)
    thetas = [float(t) for t in thetas]
    if not thetas:
        return
    # NaN selects like a theta above 1: the floor only
    lowest = min((t for t in thetas if t == t), default=float("nan"))
    sizes, members, above = _mine(features, lowest, floor, thetas)
    offsets = _offsets(sizes)
    for theta, take in zip(thetas, above):
        np.maximum(take, floor, out=take)
        yield NeighborSets(*_prefixes(members, offsets, take), theta=theta, k_min=int(k_min))


def _prefixes(members: np.ndarray, offsets: np.ndarray, take: np.ndarray):
    """CSR ``(offsets, indices)`` of each row x's first ``take[x]`` members,
    cut one row block at a time."""
    cut = _offsets(take)
    out = np.empty(cut[-1], dtype=np.int32)
    for lo, hi in _row_blocks(offsets):
        # the member at block position p is kept while p < its row's start + take
        a = offsets[lo]
        limit = np.repeat(offsets[lo:hi] - a + take[lo:hi], np.diff(offsets[lo : hi + 1]))
        out[cut[lo] : cut[hi]] = members[a : offsets[hi]][np.arange(limit.size) < limit]
    return cut, out


def ground_truth_neighbors(labels: Labeling) -> NeighborSets:
    """Every same-label sample in ascending index order, minus the anchor itself.

    Singleton classes yield empty sets; they are permitted here and show up
    in :func:`neighbor_accuracy` stats.
    """
    n = labels.n
    label_of, class_sizes = labels.coding.codes, labels.coding.counts
    # samples grouped by label, ascending within a group; group g starts at first[g]
    grouped = np.argsort(label_of, kind="stable")
    first = _offsets(class_sizes)[:-1]
    place = np.empty(n, dtype=np.int64)
    place[grouped] = np.arange(n) - first[label_of[grouped]]
    sizes = class_sizes[label_of] - 1
    offsets = _offsets(sizes)
    rows = np.repeat(np.arange(n), sizes)
    # the j-th neighbor of x is its group's j-th member, skipping x itself
    j = np.arange(offsets[-1]) - offsets[rows]
    j += j >= place[rows]
    return NeighborSets(offsets, grouped[first[label_of[rows]] + j])


def neighbor_accuracy(sets: NeighborSets, labels: Labeling) -> NeighborStats:
    """Fraction of (anchor, neighbor) pairs sharing a ground-truth label."""
    if sets.n != labels.n:
        raise ValueError(f"sets cover {sets.n} samples, labels cover {labels.n}")
    arr, offsets = labels.labels, sets.offsets
    counts = sets.sizes()
    total = sets.indices.size
    if total == 0:
        raise ValueError("all neighbor sets are empty")
    correct = 0
    for lo, hi in _row_blocks(offsets):
        block = sets.indices[offsets[lo] : offsets[hi]]
        correct += int(np.count_nonzero(arr[block] == np.repeat(arr[lo:hi], counts[lo:hi])))
    return NeighborStats(
        avg_count=float(counts.mean()),
        pair_accuracy=correct / total,
        singleton_classes=int((labels.coding.counts == 1).sum()),
    )


def save_neighbor_sets(sets: NeighborSets, path) -> None:
    """Write the ``NNS1`` binary form (u32 n, per sample u32 count + indices)."""
    offsets, sizes = sets.offsets, sets.sizes()

    def body():
        # one row block at a time: each sample's count, then its indices
        for lo, hi in _row_blocks(offsets):
            a, b = offsets[lo], offsets[hi]
            block = np.insert(sets.indices[a:b], offsets[lo:hi] - a, sizes[lo:hi])
            yield block.astype("<u4", copy=False)

    binfmt.save(path, NEIGHBORS_MAGIC, np.uint32(sets.n).tobytes(), body())


def _parse_neighbor_sets(r: binfmt.Reader) -> NeighborSets:
    (n,) = r.header("I")
    if 4 * n > r.left:
        raise ValueError(f"header declares {n} samples, the file holds {r.left} more bytes")
    # one u32 body, each sample's count followed by its indices; the indices
    # are moved left over the counts in place, so the pairs are held once
    body = r.array("<u4", r.left // 4)
    sizes = np.empty(n, dtype=np.int64)
    at = kept = 0
    for i in range(n):
        count = int(body[at]) if at < body.size else 0
        if at + 1 + count > body.size:
            raise ValueError(f"truncated at sample {i}")
        body[kept : kept + count] = body[at + 1 : at + 1 + count]
        sizes[i] = count
        kept += count
        at += 1 + count
    if at != body.size:
        raise ValueError(f"trailing values after {n} samples")
    # read as int32, an index of 2**31 or more is negative and fails the range check
    return NeighborSets(_offsets(sizes), body[:kept].view("<i4"))


def load_neighbor_sets(path) -> NeighborSets:
    """Read an ``NNS1`` file; a malformed file or invalid index raises ``LoadError``."""
    return binfmt.load(path, NEIGHBORS_MAGIC, "neighbor-set file", _parse_neighbor_sets)
