"""Bounded reading and writing of the binary artifact formats.

FPK1, LBL1, NNS1, HDB1 and CLF1 are each a 4-byte magic, fixed headers of
little-endian integers and typed little-endian arrays; npy v1.0 is read the
same way, its text header through NumPy's parser.  :func:`load` takes
the file size once and every declared size is checked against the bytes
left before anything is read or allocated, so a corrupt or foreign file
fails with ``LoadError`` instead of a multi-GB read.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Callable, Iterator, TypeVar

import numpy as np

from .errors import LoadError

T = TypeVar("T")


class Reader:
    """A binary file and the count of its bytes not yet read."""

    def __init__(self, f, path):
        self.f = f
        self.path = path
        self.left = os.fstat(f.fileno()).st_size

    def take(self, count: int, what: str = "header") -> bytes:
        if count > self.left:
            raise LoadError(f"{self.path}: truncated {what}: needs {count} bytes, {self.left} left")
        self.left -= count
        return self.f.read(count)

    read = take  # so a reader of file objects (NumPy's npy header) stays bounded

    def header(self, fmt: str) -> tuple:
        """Unpack little-endian fields, e.g. ``header("II")``."""
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def array(self, dtype, *shape) -> np.ndarray:
        """Read a C-order array of ``shape``, straight into its own buffer."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > self.left:
            dims = "x".join(map(str, shape))
            raise LoadError(
                f"{self.path}: header declares {dims} {dtype.str} values "
                f"({nbytes} payload bytes), the file holds {self.left}"
            )
        out = np.empty(shape, dtype=dtype)
        if self.f.readinto(out) != nbytes:
            raise LoadError(f"{self.path}: file shrank while being read")
        self.left -= nbytes
        return out


def has_magic(path, magic: bytes) -> bool:
    """True when the file starts with ``magic`` (for formats with a text twin)."""
    with open(path, "rb") as f:
        return f.read(len(magic)) == magic


def load(path, magic: bytes, kind: str, parse: Callable[[Reader], T]) -> T:
    """Check the magic, let ``parse`` read the rest and refuse trailing bytes.

    ``parse`` raises ``ValueError`` for a value it rejects; that, a struct
    or decoding error all become ``LoadError``.
    """
    with open(path, "rb") as f:
        r = Reader(f, path)
        try:
            got = r.take(len(magic), "magic")
            if got != magic:
                raise LoadError(f"{path}: bad magic {got!r}, not a {kind} ({magic!r})")
            value = parse(r)
        except (struct.error, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            raise LoadError(f"{path}: malformed {kind}: {exc}") from None
    if r.left:
        raise LoadError(f"{path}: {r.left} trailing bytes after the {kind}")
    return value


def save(path, magic: bytes, *parts) -> None:
    """Write ``magic`` and then each part: bytes as given, arrays in C order.

    A part may also be an iterator of arrays, written one after another, so
    a large payload can be produced and written one bounded block at a time.
    """
    with open(path, "wb") as f:
        f.write(magic)
        for part in parts:
            for chunk in part if isinstance(part, Iterator) else (part,):
                f.write(chunk if isinstance(chunk, bytes) else np.ascontiguousarray(chunk))
