"""Sign quantization, asymmetric code concatenation, bit packing, and
linear-scan Hamming search.

``encode_matrix`` runs both image networks over the row blocks of
``adsq.encoder.forward_blocks``. Each network writes its block's sign bits
into its half of one reused bool block (x-network half first) and drops
its outputs before the other network runs; one ``packbits`` per block puts
the rows straight into the n-row payload, so no n-row float array is made
beyond the features themselves.

Packed layout: one row per item, MSB-first within each byte, bit 1 means
+1, rows padded to a byte boundary with zero bits. For +-1 codes of equal
length, popcount distance and inner product are tied by
dist = (k_total - <a, b>) / 2.

In memory, each code set also keeps a read-only uint64 word view of its
rows, zero-padded to a multiple of 8 bytes (no copy when the rows already
are contiguous whole words, as 64-bit codes are). The scan XORs a query's
words against it and popcounts each word column; distances come back as
the narrowest unsigned dtype that holds k_total (uint8 up to 255 bits,
uint16 up to 65535), so a stable argsort takes numpy's radix sort. A
query row, like every stored row, must have zero padding bits, so no
distance exceeds k_total. ``search_topk`` sorts every row only for a small
database or a large k; otherwise it bisects ``[0, k_total]`` for the k-th
smallest distance and sorts only the rows within it. The word view never
reaches a file: code files (``ADSQB001``, an ``adsq.fileio`` container)
hold n, k_total and the packed rows.
"""

from dataclasses import dataclass

import numpy as np

from . import encoder
from .encoder import EncoderParams, forward_blocks
from .errors import FormatError
from .fileio import BinaryReader, write_binary

CODES_MAGIC = b"ADSQB001"
# search_topk ranks by one full stable argsort up to this many database rows,
# or when k is more than 1/CUT_ROWS_PER_K of them; a distance cut wins
# otherwise (both set at the measured crossovers, see search_topk).
FULL_SORT_MAX_ROWS = 8192
CUT_ROWS_PER_K = 8


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


def _pad_mask(k_total: int) -> int:
    """The padding bits of a packed row's last byte, as a mask."""
    return (1 << (-k_total % 8)) - 1


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
        pad = _pad_mask(self.k_total)
        if pad and np.any(payload[:, -1] & pad):
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
    x-network half first, each half ``quantize_sign`` of its network's u.
    Per block, each network's sign bits go into one reused bool block, and
    its outputs are released before the other network runs."""
    n = len(x)
    k_x = imgx_params.weights[-1].shape[0]
    k_total = k_x + imgy_params.weights[-1].shape[0]
    payload = np.empty((n, (k_total + 7) // 8), dtype=np.uint8)
    bits = np.empty((min(n, encoder.FORWARD_BLOCK_ROWS), k_total), dtype=bool)
    blocks_y = forward_blocks(imgy_params, x)
    for rows, outs in forward_blocks(imgx_params, x):
        block = bits[:len(outs.u)]
        _sign_bits_into(outs.u, block[:, :k_x])
        del outs
        _, outs = next(blocks_y)
        _sign_bits_into(outs.u, block[:, k_x:])
        del outs
        payload[rows] = np.packbits(block, axis=1)
    return PackedCodes(n=n, k_total=k_total, payload=payload)


def _sign_bits_into(u, out):
    """Write ``quantize_sign(u) > 0`` into the bool array ``out``."""
    if not np.all(np.isfinite(u)):
        raise ValueError("quantize_sign requires finite input")
    np.greater_equal(u, 0.0, out=out)


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
    if q[-1] & _pad_mask(db.k_total):
        raise ValueError("nonzero padding bits in query row")
    q_words = _as_words(q[None, :])[0]
    dist = np.bitwise_count(db.words[:, 0] ^ q_words[0]).astype(
        np.min_scalar_type(db.k_total), copy=False)
    for j in range(1, q_words.size):
        dist += np.bitwise_count(db.words[:, j] ^ q_words[j])
    return dist


def search_topk(query_row, db: PackedCodes, k: int) -> np.ndarray:
    """Indices of the k nearest database rows, ascending distance; ties
    broken by ascending database index. The result owns its k entries, so
    keeping it does not keep the full n-entry ranking alive.

    Up to ``FULL_SORT_MAX_ROWS`` database rows, or for k above
    1/``CUT_ROWS_PER_K`` of them, the whole ranking is one stable argsort.
    Otherwise a bisection over the distances ``[0, k_total]`` finds the cut,
    the k-th smallest distance (the padding check keeps every distance
    within ``k_total``), and only the rows within the cut are stable-sorted:
    the same (distance, index) order, ties at the cut included.

    The whole call per query in us, full argsort / cut, on 64-bit random
    codes (one 2-vCPU Intel Xeon, numpy 2.4, warmed): k = 100 at 1k rows
    15 / 32, 2k 13 / 24, 4k 22 / 44, 6.4k 44 / 50, 8192 51 / 54, 10k
    44 / 39, 20k 94 / 52, 50k 182 / 100, 100k 468 / 190; at 100k rows,
    k = n/8 388 / 309, n/4 383 / 360, n 394 / 1113."""
    if not 0 <= k <= db.n:
        raise ValueError(f"k={k} must lie in [0, {db.n}], the database size")
    dist = distances_to_all(query_row, db)
    if db.n <= FULL_SORT_MAX_ROWS or k * CUT_ROWS_PER_K > db.n:
        return np.argsort(dist, kind="stable")[:k].copy()
    lo, hi = 0, db.k_total  # the cut is the least c with k rows at distance <= c
    while lo < hi:
        mid = (lo + hi) // 2
        if np.count_nonzero(dist <= mid) >= k:
            hi = mid
        else:
            lo = mid + 1
    near = np.flatnonzero(dist <= lo)
    return near[np.argsort(dist[near], kind="stable")[:k]]


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
