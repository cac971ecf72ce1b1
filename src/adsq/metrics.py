"""Retrieval evaluation against label-derived ground truth.

Relevance follows the similarity rule used for training supervision: a
database item is relevant to a query iff they share at least one positive
label, by the one kernel ``adsq.data.share_labels``. All rankings use the
deterministic ascending-distance, ascending-index order from the search
module. ``evaluate`` ranks each query once and derives every metric from
that one ranking.
"""

import math
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
    """mAP@R, P@H<=2, PR points (recall, precision), P@N points (N, precision)."""

    map: float
    ph2: float
    pr: list
    pn: list


def _average_precision(rel, hits, r_cutoff: int) -> float:
    total = int(hits[-1])
    if total == 0:
        return 0.0
    top = rel[:r_cutoff]
    precision_at_hits = (hits[:r_cutoff][top] / (np.flatnonzero(top) + 1)).sum()
    return float(precision_at_hits / min(r_cutoff, total))


def evaluate(queries: PackedCodes, db: PackedCodes, judge: RelevanceJudge, *,
             map_r: int, recall_grid=DEFAULT_RECALL_GRID, n_list=()) -> Evaluation:
    """Every metric from one distance scan, one stable ranking and one
    relevance row per query. P@H<=2 is 0.0 for a query with an empty
    radius. A PR level is the precision at the smallest rank with
    ceil(level * total) hits, in exact arithmetic on the level's decimal
    form (0.55 of 100 relevant items is 55 hits); PR skips queries with no
    relevant item."""
    if queries.n == 0 or db.n == 0:
        raise ValueError(f"query set and database must be nonempty, got {queries.n} "
                         f"queries and {db.n} database rows")
    if map_r < 1:
        raise ValueError(f"cutoff must be >= 1, got {map_r}")
    grid = [float(g) for g in recall_grid]
    if any(not 0 < g <= 1 for g in grid):
        raise ValueError("recall grid points must lie in (0, 1]")
    levels = [Fraction(str(g)) for g in grid]
    n_arr = np.array([int(n) for n in n_list], dtype=np.int64)
    if np.any((n_arr < 1) | (n_arr > db.n)):
        raise ValueError(f"every N must lie in [1, {db.n}], got {n_arr.tolist()}")

    aps, ph2s, pr_rows = [], [], []
    pn_sums = np.zeros(n_arr.size)
    for qi in range(queries.n):
        dist = distances_to_all(queries.row(qi), db)
        order = np.argsort(dist, kind="stable")
        rel = judge.relevance(qi)[order]
        hits = np.cumsum(rel)
        total = int(hits[-1])
        aps.append(_average_precision(rel, hits, map_r))
        # the radius-2 items are a prefix of the ranking
        within = int(np.count_nonzero(dist <= 2))
        ph2s.append(float(rel[:within].mean()) if within else 0.0)
        if total:
            at = np.searchsorted(hits, [math.ceil(level * total) for level in levels])
            pr_rows.append(hits[at] / (at + 1))
        pn_sums += hits[n_arr - 1] / n_arr
    return Evaluation(
        map=float(np.mean(aps)),
        ph2=float(np.mean(ph2s)),
        pr=[(g, float(np.mean(vals))) for g, vals in zip(grid, zip(*pr_rows))],
        pn=[(int(n), float(s / queries.n)) for n, s in zip(n_arr, pn_sums)])


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
