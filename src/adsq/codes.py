"""Sign quantization, asymmetric code concatenation, bit packing, and
linear-scan Hamming search.

``encode_matrix`` runs both image networks over the row blocks of
``adsq.encoder.forward_blocks`` and packs each block's sign bits
(x-network half first) straight into the n-row payload, so no n-row float
array is made beyond the features themselves. Each network's block is
reduced to its sign bits before the other network runs.

Packed layout: one row per item, MSB-first within each byte, bit 1 means
+1, rows padded to a byte boundary with zero bits. For +-1 codes of equal
length, popcount distance and inner product are tied by
dist = (k_total - <a, b>) / 2.

In memory, each code set also keeps a read-only uint64 word view of its
rows, zero-padded to a multiple of 8 bytes (no copy when the rows already
are contiguous whole words, as 64-bit codes are). The scan XORs a query's
words against it and popcounts each word column; distances come back as
the narrowest unsigned dtype that holds k_total (uint8 up to 255 bits,
uint16 up to 65535), so the stable ranking argsort takes numpy's radix
sort. The word view never reaches a file: code files (``ADSQB001``, an
``adsq.fileio`` container) hold n, k_total and the packed rows.
"""

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams, forward_blocks
from .errors import FormatError
from .fileio import BinaryReader, write_binary

CODES_MAGIC = b"ADSQB001"


def _as_words(rows: np.ndarray) -> np.ndarray:
    """uint64 view of 2-D packed uint8 rows, each zero-padded to whole
    words (at least one); a view without a copy when the rows already are
    contiguous whole words."""
    n, row_bytes = rows.shape
    width = 8 * max(1, -(-row_bytes // 8))
    if width != row_bytes or not rows.flags.c_contiguous:
        padded = np.zeros((n, width), dtype=np.uint8)
        padded[:, :row_bytes] = rows
        rows = padded
    return rows.view(np.uint64)


@dataclass(frozen=True)
class PackedCodes:
    """Bit-packed +-1 code matrix. ``words`` is the read-only uint64 view
    of the rows that the scan reads, built once per code set."""

    n: int
    k_total: int
    payload: np.ndarray  # n x ceil(k_total/8), uint8

    def __post_init__(self):
        if self.k_total < 1:
            raise ValueError(f"k_total must be at least 1, got {self.k_total}")
        payload = self.payload
        if not (isinstance(payload, np.ndarray) and payload.dtype == np.uint8
                and payload.ndim == 2):
            raise ValueError(f"payload must be a 2-D uint8 array, got "
                             f"{np.asarray(payload).dtype} of shape {np.shape(payload)}")
        row_bytes = (self.k_total + 7) // 8
        if payload.shape != (self.n, row_bytes):
            raise ValueError(
                f"payload shape {payload.shape} does not match "
                f"n={self.n}, k_total={self.k_total}")
        pad_bits = 8 * row_bytes - self.k_total
        if pad_bits and np.any(payload[:, -1] & ((1 << pad_bits) - 1)):
            raise ValueError("nonzero padding bits in packed payload")
        words = _as_words(payload)
        words.flags.writeable = False
        object.__setattr__(self, "words", words)

    def row(self, i) -> np.ndarray:
        return self.payload[i]


def quantize_sign(values) -> np.ndarray:
    """Elementwise sign with sign(0) = +1."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("quantize_sign requires finite input")
    return np.where(arr >= 0, 1.0, -1.0)


def encode_matrix(x, imgx_params: EncoderParams, imgy_params: EncoderParams) -> PackedCodes:
    """Packed row-wise codes of length 2*k_half for a feature matrix:
    x-network half first, each half ``quantize_sign`` of its network's u."""
    n = len(x)
    k_total = imgx_params.weights[-1].shape[0] + imgy_params.weights[-1].shape[0]
    payload = np.empty((n, (k_total + 7) // 8), dtype=np.uint8)
    for (rows, bits_x), (_, bits_y) in zip(_sign_bits(imgx_params, x),
                                           _sign_bits(imgy_params, x)):
        payload[rows] = np.packbits(np.concatenate([bits_x, bits_y], axis=1), axis=1)
    return PackedCodes(n=n, k_total=k_total, payload=payload)


def _sign_bits(params: EncoderParams, x):
    """``(rows, quantize_sign(u) > 0)`` per ``forward_blocks`` block. The
    block's outputs are released before yielding, so a consumer zipping two
    networks holds only one network's block outputs at a time."""
    for rows, outs in forward_blocks(params, x):
        bits = quantize_sign(outs.u) > 0
        del outs
        yield rows, bits


def pack(codes) -> PackedCodes:
    arr = np.asarray(codes, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"code matrix must be 2-D, got shape {arr.shape}")
    if not np.isin(arr, (-1.0, 1.0)).all():
        raise ValueError("pack requires entries exactly -1 or +1")
    return PackedCodes(n=arr.shape[0], k_total=arr.shape[1],
                       payload=np.packbits(arr > 0, axis=1))


def unpack(packed: PackedCodes) -> np.ndarray:
    return np.unpackbits(packed.payload, axis=1, count=packed.k_total) * 2.0 - 1.0


def hamming_distance(a, b) -> int:
    """Popcount of XOR over two packed rows of equal width."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"packed rows differ in length: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(np.bitwise_xor(a, b)).sum())


def distances_to_all(query_row, db: PackedCodes) -> np.ndarray:
    """Hamming distances from one packed query row to every database row,
    as the narrowest unsigned dtype that holds ``db.k_total``."""
    q = np.asarray(query_row, dtype=np.uint8)
    if q.shape != (db.payload.shape[1],):
        raise ValueError("query row width does not match database")
    q_words = _as_words(q[None, :])[0]
    dist = np.bitwise_count(db.words[:, 0] ^ q_words[0]).astype(
        np.min_scalar_type(db.k_total), copy=False)
    for j in range(1, q_words.size):
        dist += np.bitwise_count(db.words[:, j] ^ q_words[j])
    return dist


def search_topk(query_row, db: PackedCodes, k: int) -> np.ndarray:
    """Indices of the k nearest database rows, ascending distance; ties
    broken by ascending database index. The result owns its k entries, so
    keeping it does not keep the full n-entry ranking alive."""
    if not 0 <= k <= db.n:
        raise ValueError(f"k={k} must lie in [0, {db.n}], the database size")
    dist = distances_to_all(query_row, db)
    return np.argsort(dist, kind="stable")[:k].copy()


def write_codes(path, packed: PackedCodes):
    write_binary(path, CODES_MAGIC, (packed.n, packed.k_total), packed.payload)


def load_codes(path) -> PackedCodes:
    with BinaryReader(path, CODES_MAGIC, "codes") as r:
        n, k_total = r.header(2)
        payload = r.array(np.uint8, (n, (k_total + 7) // 8)).copy()
    try:
        return PackedCodes(n=n, k_total=k_total, payload=payload)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
