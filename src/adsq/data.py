"""Datasets, the shared-label similarity rule, label patterns, and the two
on-disk matrix formats. A ``Dataset`` checks its own values when made.

Two items are similar iff some word of the AND of their packed label words
is nonzero; ``share_labels`` is the one implementation of this rule. It
depends only on the label row, so training uses the p distinct rows
(``LabelPatterns``): batch blocks come from the kernel, and products with the
similarity from per-pattern sums over bounded ``row_blocks``, O(n k + p^2 k).

Feature files (``ADSQF001``) hold n, dim and an n x dim float32 matrix;
label files (``ADSQL001``) hold n, classes and n x classes bytes in {0, 1};
both are ``adsq.fileio`` containers. Training math is double precision,
so features are widened to float64 on load.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, FormatError
from .fileio import BinaryReader, write_binary

FEATURE_MAGIC = b"ADSQF001"
LABEL_MAGIC = b"ADSQL001"
BLOCK_ELEMS = 1 << 22  # entries per block of pattern rows (32 MB of float64)


def _freeze(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus aligned multi-hot label matrix. One DataError
    names every fault of the values as given: an array that is not 2-D (then
    nothing more), unequal row counts, a non-finite feature, a label not
    exactly 0 or 1, an all-zero label row. Arrays already float64 / int8 are
    kept without a copy and made read-only; a caller that keeps writing to
    its arrays passes copies."""

    features: np.ndarray  # n x dim, float64
    labels: np.ndarray    # n x classes, int8 in {0,1}

    def __post_init__(self):
        features, labels = np.asarray(self.features, dtype=np.float64), np.asarray(self.labels)
        problems = [f"{name} must be 2-D, got shape {arr.shape}"
                    for name, arr in (("features", features), ("labels", labels)) if arr.ndim != 2]
        if problems:
            raise DataError("; ".join(problems))
        n = len(features)
        if n != len(labels):
            problems.append(f"feature and label row counts differ: {n} vs {len(labels)}")
        if not np.isfinite(features).all():
            problems.append("features contain NaN or Inf")
        binary = (labels == 0) | (labels == 1)
        if not binary.all():
            problems.append(f"labels contain entries outside {{0, 1}}: "
                            f"{np.unique(labels[~binary]).tolist()[:10]}")
        # any over each column of a transposed copy: numpy reduces short rows slowly
        zero_rows = np.flatnonzero(~np.ascontiguousarray(labels.T).any(axis=0))
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


def build_similarity(labels_a, labels_b=None) -> np.ndarray:
    """Pairwise similarity block from multi-hot labels: entry (i, j) is 1.0
    iff row i of ``labels_a`` and row j of ``labels_b`` (default
    ``labels_a``) share at least one positive label, else 0.0."""
    a, b = np.asarray(labels_a), np.asarray(labels_a if labels_b is None else labels_b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"label blocks must be 2-D with equal widths, got {a.shape} "
                         f"and {b.shape}")
    return share_labels(pack_label_words(a), pack_label_words(b)).astype(np.float64)


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

    def row_blocks(self, width):
        """(rows, similar) per slice of at most max(1, BLOCK_ELEMS // width)
        pattern rows; ``similar`` is its boolean block against all p."""
        step = max(1, BLOCK_ELEMS // width)
        for start in range(0, self.counts.size, step):
            rows = slice(start, start + step)
            yield rows, share_labels(self.words[rows], self.words)

    def signed(self, y) -> np.ndarray:
        """``S_signed @ y`` over items for an n-row ``y``, S_signed = 2 S - 1:
        2 (S_pat @ sums(y))[ids] - colsum(y), one row block at a time."""
        y_pat = self.sums(y)
        s_y = np.concatenate([similar.astype(np.float64) @ y_pat
                              for _, similar in self.row_blocks(len(y_pat))])
        return 2.0 * s_y[self.ids] - np.asarray(y, dtype=np.float64).sum(axis=0)

    def sums(self, x) -> np.ndarray:
        """Per-pattern sums of the rows of the n-row matrix ``x``."""
        return np.add.reduceat(np.asarray(x, dtype=np.float64)[self._order], self._starts,
                               axis=0)


def write_features(path, features):
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {x.shape}")
    with np.errstate(over="ignore"):
        x32 = x.astype("<f4")
    if not np.all(np.isfinite(x32)):
        raise DataError("refusing to write feature values that are not finite in float32")
    write_binary(path, FEATURE_MAGIC, x.shape, x32)


def load_features(path) -> np.ndarray:
    with BinaryReader(path, FEATURE_MAGIC, "feature") as r:
        out = r.array("<f4", r.header(2)).astype(np.float64)
    if not np.all(np.isfinite(out)):
        raise DataError(f"{path}: feature payload contains NaN or Inf")
    return out


def write_labels(path, labels):
    lab = np.asarray(labels)
    if lab.ndim != 2:
        raise ValueError(f"label matrix must be 2-D, got shape {lab.shape}")
    if not ((lab == 0) | (lab == 1)).all():
        raise DataError("label entries must be 0 or 1")
    if not lab.any(axis=1).all():
        raise DataError("refusing to write a label matrix with an all-zero row")
    write_binary(path, LABEL_MAGIC, lab.shape, lab.astype(np.uint8))


def load_labels(path) -> np.ndarray:
    with BinaryReader(path, LABEL_MAGIC, "label") as r:
        lab = r.array(np.uint8, r.header(2))
    if lab.size and lab.max() > 1:  # uint8: nothing lies below 0
        raise FormatError(f"{path}: label payload contains values outside {{0, 1}}")
    if not lab.any(axis=1).all():
        raise DataError(f"{path}: label matrix has an all-zero row")
    return lab.astype(np.int8)


def load_dataset(feature_path, label_path) -> Dataset:
    return Dataset(features=load_features(feature_path), labels=load_labels(label_path))
