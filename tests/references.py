"""Plain references for the packed-code layout, used only by the tests.

``unpack`` inverts ``adsq.codes.pack``; ``hamming_distance`` is the scalar
distance that ``adsq.codes.distances_to_all``'s word scan is checked against;
``quantize_sign`` is the +-1 sign that codes are defined by.
``sigmoid_reference`` is the plain form of ``adsq.numerics.sigmoid_stable``,
and ``softplus_stable`` the softplus that ``adsq.numerics.bernoulli_nll``
forms in place. ``per_query_evaluate`` is the arithmetic of
``adsq.metrics.evaluate`` one query at a time, which the block path must
give to the last bit.
"""

from bisect import bisect_right
from fractions import Fraction

import numpy as np


def unpack(packed) -> np.ndarray:
    """The +-1 float matrix of a ``PackedCodes``."""
    return np.unpackbits(packed.payload, axis=1, count=packed.k_total) * 2.0 - 1.0


def quantize_sign(values) -> np.ndarray:
    """Elementwise sign with sign(0) = +1."""
    return np.where(np.asarray(values) >= 0, 1.0, -1.0)


def hamming_distance(a, b) -> int:
    """Popcount of XOR over two packed rows of equal width."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"packed rows differ in length: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(np.bitwise_xor(a, b)).sum())


def sigmoid_reference(x) -> np.ndarray:
    """1/(1+e^-x) through e^-|x|, clamped to [tiny, 1 - eps/2], in plain
    numpy calls: the value ``sigmoid_stable`` must give bit for bit."""
    t = np.exp(-np.abs(x))
    return np.clip(np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t)),
                   np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))


def softplus_stable(x):
    """log(1+e^x) computed as max(x,0) + log1p(e^-|x|).

    Exact to within a few ulp across the whole double range; the naive
    form overflows past x ~ 710.
    """
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def per_query_evaluate(queries, db, qlab, dlab, map_r, recall_grid, n_list):
    """(map, ph2, pr, pn) of ``adsq.metrics.evaluate``, one query at a time:
    relevance from a product of the label matrices, not the packed kernel, a
    popcount scan of the packed rows, one stable argsort, the ranks of the
    relevant items, and every metric from those ranks in the same numpy
    operations and summation order as ``evaluate`` uses."""
    relevant = (np.asarray(qlab, np.int64) @ np.asarray(dlab, np.int64).T) > 0
    levels = [Fraction(str(float(g))).as_integer_ratio() for g in recall_grid]
    n_arr = np.array(n_list, dtype=np.int64)
    aps, ph2s, pr_rows = [], [], []
    pn_sums = np.zeros(n_arr.size)
    for qi in range(queries.n):
        dist = np.bitwise_count(db.payload ^ queries.payload[qi]).sum(axis=1)
        order = np.argsort(dist, kind="stable")
        ranks = np.flatnonzero(relevant[qi][order]) + 1
        total = ranks.size
        if total:
            top = np.searchsorted(ranks, map_r, "right")
            aps.append(float((np.arange(1, top + 1) / ranks[:top]).sum()
                             / min(map_r, total)))
            need = np.array([-(-num * total // den) for num, den in levels],
                            dtype=np.int64)
            pr_rows.append(need / ranks[need - 1])
        else:
            aps.append(0.0)
        within = bisect_right(order, 2, key=dist.__getitem__)
        ph2s.append(np.searchsorted(ranks, within, "right") / within if within else 0.0)
        pn_sums += np.searchsorted(ranks, n_arr, "right") / n_arr
    return (float(np.mean(aps)), float(np.mean(ph2s)),
            [(float(g), float(np.mean(vals))) for g, vals in zip(recall_grid, zip(*pr_rows))],
            [(int(n), float(s / queries.n)) for n, s in zip(n_arr, pn_sums)])
