"""Adaptive nearest-neighbor mining on cosine similarity.

Each sample's neighbor set contains every other sample whose cosine
similarity reaches the threshold ``theta``; sets that stay below ``k_min``
members fall back to the ``k_min`` most similar samples.  Sets are computed
exhaustively (exact O(n^2) similarities) and once, ahead of training, one
strip at a time: the rows of a block (``featstore.BLOCK_BYTES`` of float32
similarities against all n columns, or MIN_BLOCK_ROWS rows) against the
columns from the block's first row on, with the block's own rows up to the
diagonal masked.  The strips tile the upper triangle, so each pair is
screened and decided once, in the row of its lower index.  A kept pair
i < j is a member of row i there and then, and waits for the block that
holds j as one int32 key, j·n + i (times the sweep's level count, plus the
member's level); the keys sorted give each row of that block its members
before it in ascending order, so a block's sets are complete when its strip
is screened, and are appended to the result as they are.  A row short of
``k_min`` also computes its similarities with the rows before its strip,
in one more product for the short rows only, and takes its floor from the
whole row.

Training draws from a set uniformly, so sets are never ranked: members come
in ascending index order.  A pair whose float32 similarity lies more than
``_margin(d)`` from theta is kept or dropped on that value; the pairs inside
that band, and the candidates at a short row's ``k_min`` cut, are settled by
their float64 cosine, so no decision hangs on the bits of a BLAS product.
The pairs are held once, as int32, and checked, written and cut in row
blocks of at most ``BLOCK_BYTES // 16`` pairs (16 bytes of int64 keys and
masks a pair).

Each row is scaled by the power of two that brings its largest magnitude
into [0.5, 1) before its norm is taken, so no square overflows and no norm
underflows; the scaling is exact, so the sets do not depend on a
power-of-two scale of the features, and only a row of zeros is refused.
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
MIN_BLOCK_ROWS = 256


def _row_blocks(offsets: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges ``lo:hi`` of at most ``BLOCK_BYTES // 16`` pairs (or one row)."""
    n = offsets.size - 1
    pairs = featstore.BLOCK_BYTES // 16
    lo = 0
    while lo < n:
        hi = max(int(np.searchsorted(offsets, offsets[lo] + pairs, side="right")) - 1, lo + 1)
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

    Sample ``x``'s neighbors are ``indices[offsets[x]:offsets[x + 1]]``, a
    set in any order: mined sets list it by ascending index (NNS1 files of
    older versions, by descending similarity).  ``indices`` is kept as a
    read-only int32 array (4 bytes a pair; an int32 input is not copied) and
    ``offsets`` as read-only int64, since the pair count can pass 2**31.
    """

    offsets: np.ndarray
    indices: np.ndarray

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
            rows = np.repeat(np.arange(lo, hi, dtype=np.int32), sizes[lo:hi])
            own = block == rows
            if own.any():
                sample = rows[own.argmax()]
                raise ValueError(f"sample {sample} contains itself in its neighbor set")
            if twin_of is None:
                # rows that strictly increase, as mined ones do, hold no duplicate
                rising = block[1:] > block[:-1]
                rising |= rows[1:] != rows[:-1]
                if rising.all():
                    continue
                # sorted (sample, index) keys: a duplicate sits next to its twin
                keys = rows.astype(np.int64)
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
    def from_lists(cls, sets):
        """Build from one index list per sample."""
        arrays = [np.asarray(s, dtype=np.int64) for s in sets]
        if any(a.ndim != 1 for a in arrays):
            raise ValueError("each neighbor set must be a flat index list")
        sizes = np.array([a.size for a in arrays], dtype=np.int64)
        flat = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        return cls(_offsets(sizes), flat)

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

    def __post_init__(self):
        if not 0.0 <= self.pair_accuracy <= 1.0:
            raise ValueError("pair_accuracy must lie in [0, 1]")


def _margin(d: int) -> float:
    """A bound on |s32 - s64|, plus the float32 rounding of a threshold in
    [-2, 2] moved by it, for d-dimensional unit rows: s32 their float32 dot
    product in any summation order, s64 the float64 one clipped to [-1, 1].
    γ(d + 2) = a / (1 - a) bounds the float32 rounding (Higham, Accuracy and
    Stability of Numerical Algorithms, §3.1); the last term covers the
    float64 rounding, under (3d + 8)·2**-53, and underflow, under d·2**-148.
    """
    a = (d + 2) * 2.0**-24
    return a / (1 - a) + 2.0**-23 + (d + 3) * 2.0**-50


def _scales(data: np.ndarray) -> np.ndarray:
    """Per row, the exponent e for which ``ldexp(row, -e)`` has its largest
    magnitude in [0.5, 1) (0 for a row of zeros).  The scaling is exact, and
    no square of a scaled row overflows, nor does its norm underflow."""
    return np.frexp(np.maximum(data.max(axis=1), -data.min(axis=1)))[1]


def _cosines(data: np.ndarray, scales: np.ndarray, norms: np.ndarray, rows: np.ndarray,
             cols: np.ndarray) -> np.ndarray:
    """Float64 cosines of the unit rows (scaled rows over ``norms``) of the
    pairs ``(rows[i], cols[i])``, ``rows`` ascending, each summed on its own,
    clipped to [-1, 1].  A row is gathered and rescaled once for its run of
    pairs and multiplied into its partners' unit rows."""
    out = np.empty(cols.size)

    def unit(idx):  # a gathered copy, scaled and divided in place
        u = data[idx]
        np.ldexp(u, -scales[idx, None], out=u)
        u /= norms[idx, None]
        return u

    for part in blocks(cols.size, 24 * data.shape[1]):
        x = rows[part]
        first = np.flatnonzero(np.diff(x, prepend=-1))
        u = unit(cols[part])
        u *= np.repeat(unit(x[first]), np.diff(first, append=x.size), axis=0)
        u.sum(axis=1, out=out[part])
    return np.clip(out, -1.0, 1.0, out=out)


def _band(t: float, margin: float):
    """float32 ``(lo, hi)``: a similarity at or above hi has a cosine of at
    least t, one below lo a cosine below t.  Clamping t to [-2, 2] changes no
    decision and keeps the -inf self similarity below lo; NaN reaches nothing."""
    t = min(max(t, -2.0), 2.0)
    return np.float32(t - margin), np.float32(t + margin)


def _similarity_matrix(unit: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Float32 similarities of rows ``start:stop`` with the rows from ``start``
    on, -inf with itself and with every earlier row of the block."""
    sims = unit[start:stop] @ unit[start:].T
    rows = stop - start
    sims[:, :rows][np.tri(rows, dtype=bool)] = -np.inf
    return sims


def _floor(unit: np.ndarray, sims: np.ndarray, start: int, short: np.ndarray, floor: int,
           margin: float, cosines) -> np.ndarray:
    """The ``floor`` most similar samples of each ``short`` row of the strip
    ``sims`` from row ``start``, ties to the lower index, as flat indices into
    a (short rows, n) grid; ``cosines(rows, cols)`` settles candidates."""
    rows, n = sims.shape[0], start + sims.shape[1]
    # a short row's similarities with the rows before the strip, and its strip
    # row, with the block's earlier rows (masked there) from their own strip rows
    lower, upper = unit[start + short] @ unit[:start].T, sims[short]
    np.copyto(upper[:, :rows], sims[:, :rows].T[short], where=np.tri(rows, k=-1, dtype=bool)[short])
    # g, the floor-th largest of the maxima of column groups of at most `size`,
    # is at most the floor-th largest similarity c: every value from
    # g - 2·margin holds the floor largest and the candidates settled below
    size, maxima = max(1, min(16, n // (floor + 1))), []
    for piece in (lower, upper):
        whole = piece.shape[1] // size
        maxima += [piece[:, : whole * size].reshape(short.size, size, whole).max(axis=1),
                   piece[:, whole * size :]]
    maxima = np.hstack(maxima)
    g = np.partition(maxima, maxima.shape[1] - floor, axis=1)[:, maxima.shape[1] - floor]
    del maxima
    grid, value = [], []
    for offset, piece in ((0, lower), (start, upper)):
        flat = np.flatnonzero(piece >= (g - np.float32(2 * margin))[:, None])
        row = flat // max(piece.shape[1], 1)
        grid.append(row * n + offset + flat - row * piece.shape[1])
        value.append(piece.ravel()[flat])
    del lower, upper
    order = np.argsort(np.concatenate(grid))
    grid, value = np.concatenate(grid)[order], np.concatenate(value)[order]
    row = grid // n
    # a short row's floor-th largest cosine is at least c - margin, c its
    # floor-th float32 similarity: only samples from c - 2·margin are settled
    by_value = np.lexsort((-value, row))
    cut = value[by_value[np.searchsorted(row, np.arange(short.size)) + floor - 1]]
    keep = value >= (cut - np.float32(2 * margin))[row]
    cand, row = grid[keep], row[keep]
    # by row (cand ascends, so row does), descending cosine, then index
    order = np.lexsort((cand, -cosines(start + short[row], cand - row * n), row))
    return cand[order[np.arange(cand.size) - np.searchsorted(row, row) < floor]]


def _mine(features: EmbeddingMatrix, theta: float, k_min: int, cuts=()):
    """Mine every row's set; return ``(sizes, members, levels, above)``.

    Row x keeps the samples whose cosine reaches theta or, when fewer than
    ``min(k_min, n - 1)`` do, that many most similar ones (ties at the cut
    to the lower index); ``members`` (int32) holds the sets one after
    another, grown in place.  For a sweep's ``cuts`` (ascending from theta)
    ``levels`` counts the cuts each member reaches (``len(cuts) + 1`` for the
    floor members of a row short at the last cut) and ``above[i, x]`` counts
    row x's samples reaching ``cuts[i]``.
    """
    data, n = features.data, features.n
    if n < 2:
        raise ValueError("need at least 2 samples to build neighbor sets")
    if k_min < 1:
        raise ValueError("k_min must be >= 1")
    scales, norms = _scales(data), np.empty(n)
    unit = np.empty(data.shape, dtype=np.float32)
    for part in blocks(n, 16 * features.d):
        rows = np.ldexp(data[part], -scales[part, None])
        norms[part] = np.linalg.norm(rows, axis=1)
        if not norms[part].all():
            row = part.start + int(np.argmin(norms[part]))
            raise ValueError(f"zero-norm feature row {row}; cosine similarity undefined")
        np.divide(rows, norms[part, None], out=unit[part])

    def cosines(rows, cols):
        return _cosines(data, scales, norms, rows, cols)

    margin, floor = _margin(features.d), min(k_min, n - 1)
    sizes, above = np.empty(n, dtype=np.int64), np.empty((len(cuts), n), dtype=np.int64)
    level_type = np.min_scalar_type(len(cuts) + 1)
    members, levels = np.empty(0, dtype=np.int32), np.empty(0, level_type)
    spans = blocks(n, 4 * n, MIN_BLOCK_ROWS)
    # a kept pair (i, j), i < j, is also row j's member i: as the key
    # (j·n + i)·span + level, sorted keys fall into j's block, by j, then i
    span = len(cuts) + 1
    key_type = np.int32 if n * n * span < 1 << 31 else np.int64
    bounds = np.array([block.start for block in spans] + [n]) * (n * span)
    pending = [[] for _ in spans]  # each block's keys from earlier strips
    for b, block in enumerate(spans):
        start, rows = block.start, block.stop - block.start
        width = n - start
        sims = _similarity_matrix(unit, block.start, block.stop)

        def reach(flat, t, values=sims.ravel()):
            lo, hi = _band(t, margin)
            value = values[flat]
            out = value >= hi
            band = np.flatnonzero((value >= lo) & ~out)
            if band.size:  # settled in float64
                row = flat[band] // width
                out[band] = cosines(start + row, start + flat[band] - row * width) >= t
            return out

        # each pair i < j is decided once, in row i's strip
        flat = np.flatnonzero(sims >= _band(theta, margin)[0])
        flat = flat[reach(flat, theta)]
        level = np.ones(flat.size, dtype=level_type) if cuts else None
        for t in cuts[1:]:
            level += reach(flat, t)
        # row i's members after it: its entry (i - start)·width + j - start is column j
        late = np.diff(np.searchsorted(flat, np.arange(rows + 1) * width))
        col = flat - np.repeat(np.arange(rows) * width - start, late)
        key = col.astype(key_type) * n
        key += np.repeat(np.arange(start, block.stop, dtype=key_type), late)  # j·n + i
        if cuts:
            key *= span
            key += level
        key.sort()
        ends = np.searchsorted(key, bounds[b:])
        for u in range(b + 1, len(spans)):
            pending[u].append(key[ends[u - b] : ends[u - b + 1]].copy())
        pending[b].append(key[: ends[1]])
        del flat, key
        # row j's members before it: its keys from this and earlier strips
        early = np.sort(np.concatenate(pending[b]))
        pending[b] = None
        counts = np.diff(np.searchsorted(early, np.arange(start, block.stop + 1) * (n * span)))
        if cuts:
            early_level = (early % span).astype(level_type)
            early //= span
        early -= np.repeat(np.arange(start, block.stop, dtype=key_type) * n, counts)
        parts = [(counts, early, early_level if cuts else None), (late, col, level)]
        if cuts:
            # above[i] counts each row's members of level above i
            histogram = sum(np.bincount(np.repeat(np.arange(0, rows * span, span), c) + lev,
                                        minlength=rows * span) for c, _, lev in parts)
            above[:, block] = np.cumsum(histogram.reshape(rows, span)[:, ::-1], axis=1)[:, -2::-1].T
            strict = above[-1, block]
        else:
            strict = counts + late
        # a row short at the last cut needs its floor; one short at theta keeps only it
        short = np.flatnonzero(strict < floor)
        if short.size:
            top = _floor(unit, sims, start, short, floor, margin, cosines)
            # the short rows' members and floor members, on a (short rows, n) grid
            spot = np.full(rows, -1)
            spot[short] = np.arange(short.size)
            keep = np.zeros(short.size * n, dtype=bool)
            grid = np.zeros(short.size * n, dtype=level_type) if cuts else None
            kept = []
            for c, m, lev in parts:
                at = np.repeat(spot, c)
                cut = at >= 0
                at = at[cut] * n + m[cut]
                keep[at] = True
                if cuts:
                    grid[at] = lev[cut]
                kept.append((np.where(spot >= 0, 0, c), m[~cut], lev[~cut] if cuts else None))
            keep[top] = True
            flat = np.flatnonzero(keep)
            at = flat // n
            c = np.zeros(rows, dtype=np.int64)
            c[short] = np.bincount(at, minlength=short.size)
            if cuts:
                grid[top] = len(cuts) + 1
            parts = kept + [(c, flat - at * n, grid[flat] if cuts else None)]
            del keep, grid
        del sims, reach, early, col, level
        # row by row, each part's entries: the members below the row, above it,
        # or a short row's floor
        counts = sizes[block] = sum(c for c, _, _ in parts)
        part = np.repeat(np.tile(np.arange(len(parts), dtype=np.uint8), rows),
                         np.column_stack([c for c, _, _ in parts]).ravel())
        base = members.size
        members.resize(base + part.size, refcheck=False)
        if cuts:
            levels.resize(members.size, refcheck=False)
        for p, (_, m, lev) in enumerate(parts):
            here = part == p
            members[base:][here] = m
            if cuts:
                levels[base:][here] = lev
        del parts, part, here
    return sizes, members, levels, above


def build_neighbor_sets(features: EmbeddingMatrix, theta: float, k_min: int) -> NeighborSets:
    """Select each sample's neighbors by similarity threshold with a top-k floor.

    S_x = { x' != x : cos(z_x, z_x') >= theta }, in float64, listed in
    ascending index order; whenever that set has fewer than ``k_min`` members
    it is the ``k_min`` most similar samples, ties at the cut to the lower index.
    """
    sizes, members, *_ = _mine(features, theta, k_min)
    return NeighborSets(_offsets(sizes), members)


def sweep_neighbor_sets(features: EmbeddingMatrix, thetas, k_min: int) -> Iterator[NeighborSets]:
    """Yield ``build_neighbor_sets`` at every theta in ``thetas``, from one
    mining pass at the smallest, which counts the thresholds each member
    reaches and marks the floor members of the rows some theta leaves
    short; each theta's sets are cut from those one row block at a time."""
    thetas = [float(t) for t in thetas]
    if not thetas:
        return
    # NaN selects like a theta above 1, the floor only, as inf does
    cuts = sorted({t if t == t else np.inf for t in thetas})
    sizes, members, levels, above = _mine(features, cuts[0], k_min, cuts)
    offsets, floor = _offsets(sizes), min(k_min, features.n - 1)
    for theta in thetas:
        i = cuts.index(theta if theta == theta else np.inf)
        short = above[i] < floor
        cut = _offsets(np.where(short, floor, above[i]))
        out = np.empty(cut[-1], dtype=np.int32)
        for lo, hi in _row_blocks(offsets):
            # a short row keeps its floor members, the others their members reaching theta
            a, b = offsets[lo], offsets[hi]
            need = np.repeat(np.where(short[lo:hi], len(cuts), i), sizes[lo:hi])
            out[cut[lo] : cut[hi]] = members[a:b][levels[a:b] > need]
        yield NeighborSets(cut, out)
        del cut, out  # not held while the next theta's sets are cut


def ground_truth_neighbors(labels: Labeling) -> NeighborSets:
    """Every same-label sample in ascending index order, minus the anchor itself.

    Singleton classes yield empty sets; they are permitted here, and the
    pipeline refuses them before training, which draws a neighbor of every
    sample.
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
