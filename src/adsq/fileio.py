"""The one place adsq lays out, checks and commits the files it writes.

Each write goes to a temp file beside its target, renamed over it
(``os.replace``, no fsync) once complete: a failed or killed write leaves
no partial file under the final name. The binary container is an 8-byte
magic, then u32 header tuples and raw arrays, all little-endian, in file
order. A writer may give an array part as an iterable of row blocks, each
written as it comes. ``BinaryReader`` reads from the open file part by
part, each checked against the bytes left before it is read into its own
array or a buffer the caller reuses; no whole-file byte copy is made.
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
    """Write ``magic`` then each part: a tuple of u32 header values, an
    array written as its raw bytes in its own (little-endian) dtype, or an
    iterable of such arrays, written one after another. An exception from
    that iterable leaves no file."""
    with atomic_open(path) as fh:
        fh.write(magic)
        for part in parts:
            if isinstance(part, tuple):
                part = np.array(part, dtype="<u4")
            for block in [part] if isinstance(part, np.ndarray) else part:
                fh.write(np.ascontiguousarray(block))


def write_csv(path, header, rows):
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class BinaryReader:
    """Front-to-back reader of one open container file. As a context
    manager it closes the file and, on a clean exit, rejects trailing
    bytes. Faults raise ``FormatError``."""

    def __init__(self, path, magic: bytes, kind: str):
        self.path = path
        self._fh = open(path, "rb")
        self._size = os.fstat(self._fh.fileno()).st_size
        self._pos = len(magic)
        if self._fh.read(len(magic)) != magic:
            self.close()
            raise FormatError(f"{path}: missing or malformed {kind}-file magic")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        if exc_type is None:
            self._refuse_trailing(0)

    def close(self):
        self._fh.close()

    def _refuse_trailing(self, nbytes):
        if self._size - self._pos > nbytes:
            raise FormatError(f"{self.path}: {self._size - self._pos - nbytes} trailing bytes")

    def _check(self, nbytes, what):
        end = self._pos + nbytes
        if end > self._size:
            raise FormatError(f"{self.path}: truncated {what} (needs {end} bytes, "
                              f"file has {self._size})")

    def header(self, count: int) -> tuple:
        """The next ``count`` u32 values."""
        return tuple(self.array("<u4", (count,), "header").tolist())

    def array(self, dtype, shape, what="payload") -> np.ndarray:
        """The next ``shape`` array of little-endian ``dtype``, as a new array."""
        dtype = np.dtype(dtype)
        self._check(dtype.itemsize * math.prod(shape), what)
        return self.read_into(np.empty(shape, dtype), what)

    def read_into(self, out: np.ndarray, what="payload") -> np.ndarray:
        """Fill the C-contiguous array ``out`` with the next ``out.nbytes``
        bytes; returns it."""
        self._check(out.nbytes, what)
        got = self._fh.readinto(out)
        self._pos += got
        if got != out.nbytes:
            raise FormatError(f"{self.path}: truncated {what} (the file shrank while read)")
        return out

    def expect_rest(self, nbytes: int):
        """Refuse the file, truncated or with trailing bytes, unless exactly
        ``nbytes`` of payload are left in it."""
        self._check(nbytes, "payload")
        self._refuse_trailing(nbytes)
