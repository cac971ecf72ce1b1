"""Retrieval evaluation against label-derived ground truth.

Relevance follows the similarity rule used for training supervision: a
database item is relevant to a query iff they share at least one positive
label, by the one kernel ``adsq.data.share_labels``. All rankings use the
deterministic ascending-distance, ascending-index order from the search
module. ``evaluate`` makes one scan, one stable ranking, one relevance row
and the ranks of its relevant items per query, and derives every metric
from those ranks: the j-th relevant item in the ranking holds exactly j
hits, so no n-length hit count is formed.
"""

import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .codes import PackedCodes, distances_to_all
from .data import pack_label_words, share_labels

DEFAULT_RECALL_GRID = tuple(np.round(np.linspace(0.05, 1.0, 20), 4))


@dataclass(frozen=True)
class RelevanceJudge:
    """Shared-label relevance between a query set and a database.

    Both label sets are packed into uint64 words once; each query's row
    comes from the shared-label kernel ``adsq.data.share_labels``."""

    query_labels: np.ndarray
    db_labels: np.ndarray

    def __post_init__(self):
        q, d = np.asarray(self.query_labels), np.asarray(self.db_labels)
        if q.ndim != 2 or d.ndim != 2 or q.shape[1] != d.shape[1]:
            raise ValueError(f"query and database labels must be 2-D with equal widths, "
                             f"got {q.shape} and {d.shape}")
        object.__setattr__(self, "_query_words", pack_label_words(q))
        object.__setattr__(self, "_db_words", pack_label_words(d))

    def relevance(self, query_index: int) -> np.ndarray:
        """Boolean relevance flags over the database for one query."""
        query = self._query_words[query_index:query_index + 1]
        return share_labels(query, self._db_words)[0]


class Evaluation(NamedTuple):
    """mAP@R, P@H<=2, PR points (recall, precision), P@N points (N, precision),
    and ``seconds``: wall time of the scans, rankings, relevance rows and
    metric arithmetic, each summed over queries."""

    map: float
    ph2: float
    pr: list
    pn: list
    seconds: dict


def evaluate(queries: PackedCodes, db: PackedCodes, judge: RelevanceJudge, *,
             map_r: int, recall_grid=DEFAULT_RECALL_GRID, n_list=()) -> Evaluation:
    """Every metric from one scan, one stable ranking, one relevance row and
    the ranks of its relevant items per query. ``ranks`` holds the sorted
    1-based positions of the relevant items, so the hits within the first
    m items are ``searchsorted(ranks, m, "right")`` and the j-th hit falls at
    ``ranks[j - 1]``. P@H<=2 is 0.0 for a query with an empty radius. A PR
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

    aps, ph2s, pr_rows = [], [], []
    pn_sums = np.zeros(n_arr.size)
    seconds = dict.fromkeys(("scan", "rank", "relevance", "metrics"), 0.0)
    for qi in range(queries.n):
        t0 = time.perf_counter()
        dist = distances_to_all(queries.row(qi), db)
        t1 = time.perf_counter()
        order = np.argsort(dist, kind="stable")
        t2 = time.perf_counter()
        rel = judge.relevance(qi)[order]
        t3 = time.perf_counter()
        ranks = np.flatnonzero(rel) + 1
        total = ranks.size
        if total:
            top = np.searchsorted(ranks, map_r, "right")
            aps.append(float((np.arange(1, top + 1) / ranks[:top]).sum()
                             / min(map_r, total)))
            # exact ceil(level * total), in Python ints: no int64 overflow
            need = np.array([-(-num * total // den) for num, den in levels],
                            dtype=np.int64)
            pr_rows.append(need / ranks[need - 1])
        else:
            aps.append(0.0)
        # the radius-2 items are a prefix of the ranking: bisect it, no n-length mask
        within = bisect_right(order, 2, key=dist.__getitem__)
        ph2s.append(np.searchsorted(ranks, within, "right") / within if within else 0.0)
        pn_sums += np.searchsorted(ranks, n_arr, "right") / n_arr
        t4 = time.perf_counter()
        for key, span in zip(seconds, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            seconds[key] += span
    return Evaluation(
        map=float(np.mean(aps)),
        ph2=float(np.mean(ph2s)),
        pr=[(g, float(np.mean(vals))) for g, vals in zip(grid, zip(*pr_rows))],
        pn=[(int(n), float(s / queries.n)) for n, s in zip(n_arr, pn_sums)],
        seconds=seconds)


def mean_ap(queries: PackedCodes, db: PackedCodes, judge: RelevanceJudge,
            r_cutoff: int) -> float:
    return evaluate(queries, db, judge, map_r=r_cutoff).map


def mean_precision_at_hamming2(queries: PackedCodes, db: PackedCodes,
                               judge: RelevanceJudge) -> float:
    return evaluate(queries, db, judge, map_r=1).ph2


def pr_curve(queries: PackedCodes, db: PackedCodes, judge: RelevanceJudge,
             recall_grid=DEFAULT_RECALL_GRID) -> list:
    return evaluate(queries, db, judge, map_r=1, recall_grid=recall_grid).pr


def precision_at_n(queries: PackedCodes, db: PackedCodes, judge: RelevanceJudge,
                   n_list) -> list:
    return evaluate(queries, db, judge, map_r=1, n_list=n_list).pn
