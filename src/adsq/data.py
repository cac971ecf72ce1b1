"""Datasets, the shared-label similarity rule, label patterns, and the two
on-disk matrix formats. A ``Dataset`` checks its own values when made.

Two items are similar iff some word of the AND of their packed label words
is nonzero; ``share_labels`` is the one implementation of this rule. It
depends only on the label row, so training uses the p distinct rows
(``LabelPatterns``): batch blocks come from the kernel, and products with the
similarity from per-pattern sums over bounded ``row_blocks``, O(n k + p^2 k).

Feature files (``ADSQF001``) hold n, dim and an n x dim float32 matrix;
label files (``ADSQL001``) hold n, classes and n x classes bytes in {0, 1};
both are ``adsq.fileio`` containers. Features stay the file's float32
until ``encoder.pre_activation`` widens a batch or block to the float64 of
the training math. Feature matrices move one ``encoder.row_slices`` block
at a time: ``write_features`` casts, checks and writes each block in turn,
and ``FeatureRows``, the one feature reader, refuses a payload that does
not end exactly at the end of the file before it reads any block, then
gives each block in float32. ``load_features`` fills one float32 array
from it; ``adsq encode`` encodes from it directly, never the whole matrix.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .encoder import row_slices
from .errors import DataError, FormatError
from .fileio import BinaryReader, write_binary

FEATURE_MAGIC = b"ADSQF001"
LABEL_MAGIC = b"ADSQL001"
# Entries per block of pattern rows: 2 MB of float64 per buffer. Chosen by a
# sweep of 2^12 .. 2^22: smaller budgets leave too few rows per block at large
# n (2 rows at 2^14 and n = 8000), larger ones only add memory.
BLOCK_ELEMS = 1 << 18


def _freeze(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus aligned multi-hot label matrix. One DataError
    names every fault of the values as given: an array that is not 2-D (then
    nothing more), unequal row counts, a non-finite feature, a label not
    exactly 0 or 1, an all-zero label row; the features are checked finite
    one ``row_slices`` block at a time. Float32 features, as a file holds
    them, stay float32; any others become float64. Features already float32
    or float64 and labels already int8 are kept without a copy and made
    read-only; a caller that keeps writing to its arrays passes copies."""

    features: np.ndarray  # n x dim, float32 or float64
    labels: np.ndarray    # n x classes, int8 in {0,1}

    def __post_init__(self):
        features, labels = self.features, np.asarray(self.labels)
        if getattr(features, "dtype", None) != np.float32:
            features = np.asarray(features, dtype=np.float64)
        problems = [f"{name} must be 2-D, got shape {arr.shape}"
                    for name, arr in (("features", features), ("labels", labels)) if arr.ndim != 2]
        if problems:
            raise DataError("; ".join(problems))
        n = len(features)
        if n != len(labels):
            problems.append(f"feature and label row counts differ: {n} vs {len(labels)}")
        if not all(np.isfinite(features[rows]).all() for rows in row_slices(n)):
            problems.append("features contain NaN or Inf")
        binary = (labels == 0) | (labels == 1)
        if not binary.all():
            problems.append(f"labels contain entries outside {{0, 1}}: "
                            f"{np.unique(labels[~binary]).tolist()[:10]}")
        zero_rows = _all_zero_rows(labels)
        if zero_rows.size:
            problems.append(f"all-zero label rows at indices {zero_rows.tolist()[:10]}")
        if problems:
            raise DataError("; ".join(problems))
        object.__setattr__(self, "features", _freeze(features))
        object.__setattr__(self, "labels", _freeze(np.asarray(labels, dtype=np.int8)))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return self.labels.shape[1]

    @cached_property
    def patterns(self) -> "LabelPatterns":
        """Label patterns of the (read-only) labels, built on first use."""
        return LabelPatterns(self.labels)


def _all_zero_rows(labels) -> np.ndarray:
    """Indices of the rows of the 2-D ``labels`` with no nonzero entry."""
    # any over each column of a transposed copy: numpy reduces short rows slowly
    return np.flatnonzero(~np.ascontiguousarray(labels.T).any(axis=0))


def pack_label_words(labels) -> np.ndarray:
    """n x max(1, ceil(classes / 64)) uint64 words of a {0,1} label matrix;
    bit j of word w holds class 64w + j and unused bits are zero."""
    lab = np.asarray(labels)
    n, c = lab.shape
    row_bytes = (c + 7) // 8
    bits = np.zeros((n, 8 * row_bytes), dtype=bool)  # one flat packbits beats axis=1
    np.not_equal(lab, 0, out=bits[:, :c])
    packed = np.zeros((n, 8 * max(1, -(-c // 64))), dtype=np.uint8)
    packed[:, :row_bytes] = np.packbits(bits, axis=None, bitorder="little").reshape(n, row_bytes)
    return packed.view(np.uint64)


def share_labels(words_a, words_b) -> np.ndarray:
    """The shared-label rule: boolean block whose entry (i, j) is True iff
    rows i of ``words_a`` and j of ``words_b`` (``pack_label_words`` output
    of equal width) have a nonzero AND in some word."""
    shared = (words_a[:, 0, None] & words_b[:, 0]) != 0
    for w in range(1, words_a.shape[1]):
        shared |= (words_a[:, w, None] & words_b[:, w]) != 0
    return shared


def build_similarity(labels) -> np.ndarray:
    """Pairwise similarity of multi-hot labels: entry (i, j) is 1.0 iff rows
    i and j of ``labels`` share at least one positive label, else 0.0."""
    words = pack_label_words(labels)
    return share_labels(words, words).astype(np.float64)


class LabelPatterns:
    """The distinct rows of a label matrix (see the module docstring).

    ``rows`` (p x classes), ``words`` (their packed label words), ``first``
    (p, the first item of each pattern), ``ids`` (n, pattern of each item)
    and ``counts`` (p)."""

    def __init__(self, labels):
        lab = np.asarray(labels)
        words = pack_label_words(lab)
        # one opaque key per row: a 1-D unique, not the much slower axis=0 form
        keys = words.view(np.dtype((np.void, 8 * words.shape[1])))[:, 0]
        _, first, ids, counts = np.unique(keys, return_index=True, return_inverse=True,
                                          return_counts=True)
        self.rows = _freeze(lab[first])
        self.words = _freeze(words[first])
        self.first = _freeze(first)
        self.ids = _freeze(ids)
        self.counts = _freeze(counts)
        # items grouped by pattern, for per-pattern sums by one reduceat
        self._order = np.argsort(ids, kind="stable")
        self._starts = np.concatenate(([0], np.cumsum(counts)[:-1]))

    def block(self, index) -> np.ndarray:
        """{0,1} similarity among the items ``index``, equal to
        ``build_similarity(labels[index])``."""
        words = self.words[self.ids[index]]
        return share_labels(words, words).astype(np.float64)

    def block_rows(self, width) -> int:
        """Pattern rows per slice of ``row_blocks(width)``: max(1, BLOCK_ELEMS //
        width), and p at most."""
        return min(self.counts.size, max(1, BLOCK_ELEMS // width))

    def row_blocks(self, width):
        """(rows, similar) per slice of ``block_rows(width)`` pattern rows (the
        last may be shorter); ``similar`` is its boolean block against all p."""
        step = self.block_rows(width)
        for start in range(0, self.counts.size, step):
            rows = slice(start, start + step)
            yield rows, share_labels(self.words[rows], self.words)

    def signed(self, y) -> np.ndarray:
        """``S_signed @ y`` over items for an n-row float64 ``y``, S_signed = 2 S - 1:
        2 (S_pat @ sums(y))[ids] - colsum(y), one row block at a time."""
        y_pat = self.sums(y)
        s_y = np.concatenate([similar.astype(np.float64) @ y_pat
                              for _, similar in self.row_blocks(len(y_pat))])
        return 2.0 * s_y[self.ids] - y.sum(axis=0)

    def sums(self, x) -> np.ndarray:
        """Per-pattern sums of the rows of the n-row float64 matrix ``x``."""
        return np.add.reduceat(x[self._order], self._starts, axis=0)


def _float32_blocks(x):
    """The ``row_slices`` blocks of ``x`` in float32, each checked finite."""
    for rows in row_slices(len(x)):
        with np.errstate(over="ignore"):
            block = np.asarray(x[rows], dtype=np.float64).astype("<f4")
        if not np.isfinite(block).all():
            raise DataError("refusing to write feature values that are not finite in float32")
        yield block


def write_features(path, features):
    """Write ``features`` one float32 row block at a time; a value that is
    not finite in float32 raises ``DataError`` and leaves no file."""
    x = np.asarray(features)
    if x.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {x.shape}")
    write_binary(path, FEATURE_MAGIC, x.shape, _float32_blocks(x))


class FeatureRows:
    """The rows of one feature file, read front to back: a context manager
    with ``len``, ``dim`` and ``x[rows]`` for consecutive row slices, which
    gives that block in float32, in one reused buffer valid until the next
    read. Truncated and trailing bytes are refused on opening; each block
    is checked finite, a fault raising ``DataError`` naming the file."""

    def __init__(self, path):
        self.path = path
        self._reader = BinaryReader(path, FEATURE_MAGIC, "feature")
        try:
            self._n, self.dim = self._reader.header(2)
            self._reader.expect_rest(4 * self._n * self.dim)
        except BaseException:
            self._reader.close()
            raise
        self._next = 0
        self._buf = np.empty((0, self.dim), dtype="<f4")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._reader.close()  # the payload's size was checked on opening

    def __len__(self):
        return self._n

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self._n)
        if start != self._next:
            raise ValueError(f"{self.path}: rows are read front to back, from row "
                             f"{self._next}, not {start}")
        if stop - start > len(self._buf):
            self._buf = np.empty((stop - start, self.dim), dtype="<f4")
        block = self._reader.read_into(self._buf[:stop - start])
        if not np.isfinite(block).all():
            raise DataError(f"{self.path}: feature payload contains NaN or Inf")
        self._next = stop
        return block


def load_features(path) -> np.ndarray:
    """The whole feature file as one float32 array, filled block by block."""
    with FeatureRows(path) as src:
        out = np.empty((len(src), src.dim), dtype=np.float32)
        for rows in row_slices(len(src)):
            out[rows] = src[rows]
    return out


def write_labels(path, labels):
    lab = np.asarray(labels)
    if lab.ndim != 2:
        raise ValueError(f"label matrix must be 2-D, got shape {lab.shape}")
    if not ((lab == 0) | (lab == 1)).all():
        raise DataError("label entries must be 0 or 1")
    if _all_zero_rows(lab).size:
        raise DataError("refusing to write a label matrix with an all-zero row")
    write_binary(path, LABEL_MAGIC, lab.shape, lab.astype(np.uint8))


def load_labels(path) -> np.ndarray:
    with BinaryReader(path, LABEL_MAGIC, "label") as r:
        lab = r.array(np.uint8, r.header(2))
    if lab.size and lab.max() > 1:  # uint8: nothing lies below 0
        raise FormatError(f"{path}: label payload contains values outside {{0, 1}}")
    if _all_zero_rows(lab).size:
        raise DataError(f"{path}: label matrix has an all-zero row")
    return lab.astype(np.int8)


def load_dataset(feature_path, label_path) -> Dataset:
    """Each reader's checks name its file; ``Dataset``'s repeat them, about 3.4 ms
    of 11 at 101k x 32 float32 features and 21 classes (2-vCPU Xeon)."""
    return Dataset(features=load_features(feature_path), labels=load_labels(label_path))
