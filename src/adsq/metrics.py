"""Retrieval evaluation against label-derived ground truth.

Relevance follows the similarity rule used for training supervision: a
database item is relevant to a query iff they share at least one positive
label, by the one kernel ``adsq.data.share_labels``. All rankings use the
deterministic ascending-distance, ascending-index order from the search
module. ``evaluate`` takes the queries in blocks of rows. Per block it
makes one (queries x n) scan, one stable row-wise ranking, one relevance
block gathered into ranking order and one ``flatnonzero`` of that block,
and derives every metric from the ranks of the relevant items: the j-th
relevant item in a ranking holds exactly j hits, so no n-length hit count
is formed.
"""

import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import NamedTuple

import numpy as np

from .codes import PackedCodes, distances_to_all
from .data import pack_label_words, share_labels

DEFAULT_RECALL_GRID = tuple(np.round(np.linspace(0.05, 1.0, 20), 4))
# Query rows x database rows per block: ``evaluate`` takes max(1, this // n)
# queries at a time, so a block's int64 ranking is 1 MB. A sweep of 2^16 ..
# 2^19 at 200 x 1000, 200 x 2000 and 42 x 100k (2-vCPU Xeon, 2 MB L2 per
# core) found 2^17 to 2^19 equal on the first two and 2^18 (two rows of
# 100k) 5 % slower than 2^17 on the third.
QUERY_BLOCK_ELEMS = 1 << 17


@dataclass(frozen=True)
class RelevanceJudge:
    """Shared-label relevance between a query set and a database.

    Both label sets are packed into uint64 words once; each block of query
    rows comes from the shared-label kernel ``adsq.data.share_labels``."""

    query_labels: np.ndarray
    db_labels: np.ndarray

    def __post_init__(self):
        q, d = np.asarray(self.query_labels), np.asarray(self.db_labels)
        if q.ndim != 2 or d.ndim != 2 or q.shape[1] != d.shape[1]:
            raise ValueError(f"query and database labels must be 2-D with equal widths, "
                             f"got {q.shape} and {d.shape}")
        object.__setattr__(self, "_query_words", pack_label_words(q))
        object.__setattr__(self, "_db_words", pack_label_words(d))

    def relevance(self, rows: slice) -> np.ndarray:
        """Boolean relevance block: one row per query of ``rows``, one column
        per database item."""
        return share_labels(self._query_words[rows], self._db_words)


def _in_ranking_order(relevant: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Each row of the relevance block taken in the order of its ranking."""
    ranked = np.empty_like(relevant)
    for flags, row_order, out in zip(relevant, order, ranked):
        flags.take(row_order, out=out, mode="clip")  # "raise" would buffer ``out``
    return ranked


class Evaluation(NamedTuple):
    """mAP@R, P@H<=2, PR points (recall, precision), P@N points (N, precision),
    and ``seconds``: wall time of the scans, rankings, relevance rows and
    metric arithmetic, each summed over query blocks."""

    map: float
    ph2: float
    pr: list
    pn: list
    seconds: dict


def evaluate(queries: PackedCodes, db: PackedCodes, judge: RelevanceJudge, *,
             map_r: int, recall_grid=DEFAULT_RECALL_GRID, n_list=()) -> Evaluation:
    """Every metric from one scan, one stable ranking and one relevance
    block per block of ``max(1, QUERY_BLOCK_ELEMS // n)`` queries. Every
    value equals that of the same arithmetic made one query at a time, to
    the last bit: AP sums each query's terms on its own, and P@N sums run
    query after query. P@H<=2 is 0.0 for a query with an empty radius. A PR
    level is the precision at the smallest rank with ceil(level * total)
    hits, in exact integer arithmetic on the level's decimal form (0.55 of
    100 relevant items is 55 hits); PR skips queries with no relevant
    item. Codes of unequal widths, or labels and codes of unequal item
    counts, raise ``ValueError``."""
    if queries.n == 0 or db.n == 0:
        raise ValueError(f"query set and database must be nonempty, got {queries.n} "
                         f"queries and {db.n} database rows")
    if queries.k_total != db.k_total:
        raise ValueError(f"code width mismatch: queries {queries.k_total} bits, "
                         f"database {db.k_total} bits")
    counts = (len(judge.query_labels), queries.n, len(judge.db_labels), db.n)
    if counts[0] != counts[1] or counts[2] != counts[3]:
        raise ValueError("labels and codes disagree on item count: {} query label rows for "
                         "{} codes, {} database label rows for {} codes".format(*counts))
    if map_r < 1:
        raise ValueError(f"cutoff must be >= 1, got {map_r}")
    grid = [float(g) for g in recall_grid]
    if any(not 0 < g <= 1 for g in grid):
        raise ValueError("recall grid points must lie in (0, 1]")
    levels = [Fraction(str(g)).as_integer_ratio() for g in grid]
    n_arr = np.array([int(n) for n in n_list], dtype=np.int64)
    if np.any((n_arr < 1) | (n_arr > db.n)):
        raise ValueError(f"every N must lie in [1, {db.n}], got {n_arr.tolist()}")

    n = db.n
    cut = min(map_r, n)
    span = np.arange(1, cut + 1)  # the j-th relevant item holds j hits
    step = max(1, QUERY_BLOCK_ELEMS // n)
    # a block's hits are the sorted flat indices i * n + rank - 1 of the
    # relevant items of its rows i, so row i's hits within its first m items
    # are those below i * n + m, and its j-th hit is the j-th after its first
    offsets = np.arange(0, step * n, n)
    marks = offsets[:, None] + np.concatenate(([0, n, cut], n_arr))

    @cache
    def need(total):  # exact ceil(level * total), in Python ints: no int64 overflow
        return [-(-num * total // den) for num, den in levels]

    def needs(totals):
        return np.array([need(t) for t in totals.tolist()], dtype=np.int64).reshape(
            totals.size, len(levels))

    narrow = np.min_scalar_type(n)  # holds every rank and every total
    aps, ph2s = np.zeros(queries.n), np.zeros(queries.n)
    # each PR query keeps its total and its ranks, 1-4 bytes a level; its
    # needs are formed again from the total at the end, not kept as int64
    pr_totals, pr_ranks, pn_sums = [], [], np.zeros(n_arr.size)
    seconds = dict.fromkeys(("scan", "rank", "relevance", "metrics"), 0.0)
    for start in range(0, queries.n, step):
        rows = slice(start, min(start + step, queries.n))
        size = rows.stop - start
        t0 = time.perf_counter()
        relevant = judge.relevance(rows)  # first, so its word-wide temporary meets no other
        t1 = time.perf_counter()
        dist = distances_to_all(queries.payload[rows], db)
        t2 = time.perf_counter()
        order = np.argsort(dist, axis=1, kind="stable")
        t3 = time.perf_counter()
        ranked = _in_ranking_order(relevant, order)
        t4 = time.perf_counter()
        # the radius-2 items are a prefix of each ranking: bisect it, no n-length mask
        radius = np.array([bisect_right(row_order, 2, key=row_dist.__getitem__)
                           for row_order, row_dist in zip(order, dist)])
        del relevant, dist, order  # room for the next block's
        hits = np.flatnonzero(ranked)
        ends = np.searchsorted(hits, marks[:size])  # first hit, then hits within n, cut, N
        first = ends[:, 0]
        counts = ends - first[:, None]
        total, top = counts[:, 1], counts[:, 2]
        for i, o, f, t, tot in zip(range(start, rows.stop), offsets.tolist(), first.tolist(),
                                   top.tolist(), total.tolist()):
            if tot:
                aps[i] = (span[:t] / (hits[f:f + t] - (o - 1))).sum() / min(map_r, tot)
        np.divide(np.searchsorted(hits, offsets[:size] + radius) - first, radius,
                  out=ph2s[rows], where=radius > 0)
        has = np.flatnonzero(total)
        pr_totals.append(total[has].astype(narrow))
        ranks = hits[first[has, None] - 1 + needs(total[has])] - (offsets[has, None] - 1)
        pr_ranks.append(ranks.astype(narrow))
        # P@N sums add query after query, in order, as a running total would
        pn_block = counts[:, 3:] / n_arr
        pn_block[0] += pn_sums
        pn_sums = np.cumsum(pn_block, axis=0)[-1]
        t5 = time.perf_counter()
        for key, span_s in zip(seconds, (t2 - t1, t3 - t2, t1 - t0 + t4 - t3, t5 - t4)):
            seconds[key] += span_s
    # one row per level, for the pairwise mean of each
    pr_cols = (needs(np.concatenate(pr_totals)) / np.concatenate(pr_ranks)).T.copy()
    return Evaluation(
        map=float(np.mean(aps)),
        ph2=float(np.mean(ph2s)),
        pr=[(g, float(p)) for g, p in zip(grid, pr_cols.mean(axis=1))] if pr_cols.size else [],
        pn=[(int(n), float(s / queries.n)) for n, s in zip(n_arr, pn_sums)],
        seconds=seconds)


def mean_ap(queries: PackedCodes, db: PackedCodes, judge: RelevanceJudge,
            r_cutoff: int) -> float:
    return evaluate(queries, db, judge, map_r=r_cutoff).map


def mean_precision_at_hamming2(queries: PackedCodes, db: PackedCodes,
                               judge: RelevanceJudge) -> float:
    return evaluate(queries, db, judge, map_r=1).ph2


def pr_curve(queries: PackedCodes, db: PackedCodes, judge: RelevanceJudge) -> list:
    return evaluate(queries, db, judge, map_r=1).pr


def precision_at_n(queries: PackedCodes, db: PackedCodes, judge: RelevanceJudge,
                   n_list) -> list:
    return evaluate(queries, db, judge, map_r=1, n_list=n_list).pn
