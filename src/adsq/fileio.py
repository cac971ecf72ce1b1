"""The one place adsq lays out, checks and commits the files it writes.

Each write goes to a temp file beside its target, renamed over it
(``os.replace``, no fsync) once complete: a failed or killed write leaves
no partial file under the final name. The binary container is an 8-byte
magic, then u32 header tuples and raw arrays, all little-endian, in file
order; every read is checked against the bytes left.
"""

import csv
import math
import os
import uuid
from contextlib import contextmanager

import numpy as np

from .errors import FormatError


@contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Open a new temp file beside ``path``; it replaces ``path`` on a clean
    exit and is removed on an exception."""
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_binary(path, magic: bytes, *parts):
    """Write ``magic`` then each part: a tuple of u32 header values, or an
    array written as its raw bytes in its own (little-endian) dtype."""
    with atomic_open(path) as fh:
        fh.write(magic)
        for part in parts:
            if isinstance(part, tuple):
                fh.write(np.array(part, dtype="<u4"))
            else:
                fh.write(np.ascontiguousarray(part))


def write_csv(path, header, rows):
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class BinaryReader:
    """Front-to-back reader of one container file; as a context manager it
    rejects trailing bytes on a clean exit. Faults raise ``FormatError``."""

    def __init__(self, path, magic: bytes, kind: str):
        with open(path, "rb") as fh:
            self._blob = fh.read()
        self.path = path
        self._pos = len(magic)
        if self._blob[:len(magic)] != magic:
            raise FormatError(f"{path}: missing or malformed {kind}-file magic")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None and self._pos != len(self._blob):
            raise FormatError(f"{self.path}: {len(self._blob) - self._pos} trailing bytes")

    def header(self, count: int) -> tuple:
        """The next ``count`` u32 values."""
        return tuple(self.array("<u4", (count,), "header").tolist())

    def array(self, dtype, shape, what="payload") -> np.ndarray:
        """Read-only view of the next ``shape`` array of little-endian ``dtype``."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        end = self._pos + dtype.itemsize * count
        if end > len(self._blob):
            raise FormatError(f"{self.path}: truncated {what} (needs {end} bytes, "
                              f"file has {len(self._blob)})")
        out = np.frombuffer(self._blob, dtype, count, self._pos).reshape(shape)
        self._pos = end
        return out
