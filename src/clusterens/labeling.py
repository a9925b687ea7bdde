"""Cluster labelings: the length-n id vector shared by every stage.

A labeling assigns an integer cluster id to each sample; ids are arbitrary
until :func:`canonicalize` remaps them to 1..k in order of first appearance.
Serialized either as an ``LBL1`` binary or as one id per line of text.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import binfmt
from .errors import LoadError
from .kvtext import TEXT_CHUNK  # bytes of a text labeling read at once

LABELING_MAGIC = b"LBL1"
# the longest id token accepted
MAX_ID_CHARS = 64


class Coding(NamedTuple):
    """A labeling's distinct ids in sorted order, and per id its first
    position and size; ``codes`` gives each sample its id's index 0..k-1."""

    ids: np.ndarray
    first: np.ndarray
    codes: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class Labeling:
    """Immutable per-sample cluster-id vector."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("labels must be a nonempty 1-D vector")
        if not np.issubdtype(arr.dtype, np.integer):
            as_int = np.asarray(arr, dtype=np.int64)
            if not np.array_equal(as_int, arr):
                raise ValueError("cluster ids must be integers")
            arr = as_int
        arr = np.array(arr, dtype=np.int64, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "labels", arr)

    @property
    def n(self) -> int:
        return self.labels.size

    @cached_property
    def coding(self) -> Coding:
        """The dense coding of the ids, computed on first use and kept (the
        ids are a private read-only copy, so it cannot go stale)."""
        parts = np.unique(self.labels, return_index=True, return_inverse=True, return_counts=True)
        for part in parts:
            part.flags.writeable = False
        return Coding(*parts)

    @property
    def k(self) -> int:
        """Number of distinct cluster ids present."""
        return self.coding.ids.size


def canonicalize(labeling: Labeling) -> Labeling:
    """Remap ids to 1..k in order of first appearance; grouping unchanged."""
    coding = labeling.coding
    appearance_rank = np.argsort(np.argsort(coding.first))
    return Labeling(appearance_rank[coding.codes] + 1)


def u32_ids(ids: np.ndarray) -> np.ndarray:
    """Cluster ids as the little-endian u32 the binary formats store;
    ``ValueError`` unless every id fits."""
    if ids.min() < 0 or ids.max() >= 2**32:
        raise ValueError("binary labeling ids must fit an unsigned 32-bit int")
    return ids.astype("<u4")


def save_labeling(labeling: Labeling, path) -> None:
    """Write the ``LBL1`` binary form (u32 n, then u32 id per sample)."""
    binfmt.save(path, LABELING_MAGIC, np.uint32(labeling.n).tobytes(), u32_ids(labeling.labels))


def _parse_labeling(r: binfmt.Reader) -> Labeling:
    (n,) = r.header("I")
    if n < 1:
        raise ValueError(f"labeling declares {n} samples")
    return Labeling(r.array("<u4", n))


def save_labeling_text(labeling: Labeling, path) -> None:
    """Write one cluster id per line."""
    with open(path, "w", encoding="utf-8") as f:
        for v in labeling.labels:
            f.write(f"{int(v)}\n")


def _read_text_ids(path) -> np.ndarray:
    """Whitespace-separated integer ids, parsed ``TEXT_CHUNK`` bytes at a time.

    Raises ``ValueError`` at the first token that is not, and cannot become,
    an integer, so a foreign file fails after one chunk.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    parts, tail = [], ""
    with open(path, "rb") as f:
        while True:
            chunk = f.read(TEXT_CHUNK)
            text = tail + decoder.decode(chunk, final=not chunk)
            tokens = text.split()
            # a token touching the chunk's end may continue in the next one
            tail = tokens.pop() if chunk and tokens and not text[-1].isspace() else ""
            parts.append(np.array([int(t) for t in tokens], dtype=np.int64))
            if len(tail) > MAX_ID_CHARS:
                raise ValueError(f"token of more than {MAX_ID_CHARS} characters")
            if tail:
                int(tail + "0")  # raises unless more digits can complete it
            if not chunk:
                return np.concatenate(parts)


def load_labeling(path) -> Labeling:
    """Load a labeling, sniffing binary ``LBL1`` vs one-id-per-line text."""
    if binfmt.has_magic(path, LABELING_MAGIC):
        return binfmt.load(path, LABELING_MAGIC, "labeling", _parse_labeling)
    try:
        values = _read_text_ids(path)
    except (ValueError, OverflowError) as exc:  # UnicodeDecodeError is a ValueError
        raise LoadError(f"{path}: not a labeling file: {exc}") from exc
    if not values.size:
        raise LoadError(f"{path}: empty labeling file")
    return Labeling(values)
