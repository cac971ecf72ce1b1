"""Retrieval evaluation against label-derived ground truth.

Relevance follows the similarity rule used for training supervision: a
database item is relevant to a query iff they share at least one positive
label. All rankings use the deterministic ascending-distance,
ascending-index order from the search module.
"""

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import PackedCodes, distances_to_all
from .data import build_similarity

DEFAULT_RECALL_GRID = tuple(np.round(np.linspace(0.05, 1.0, 20), 4))


@dataclass(frozen=True)
class RelevanceJudge:
    """Shared-label relevance between a query set and a database."""

    query_labels: np.ndarray
    db_labels: np.ndarray

    @property
    def num_queries(self) -> int:
        return self.query_labels.shape[0]

    def relevance(self, query_index: int) -> np.ndarray:
        """Boolean relevance flags over the database for one query."""
        row = self.query_labels[query_index][None, :]
        return build_similarity(row, self.db_labels)[0] > 0


def _ranked_relevance(query_row, db: PackedCodes, judge: RelevanceJudge, qi: int):
    order = np.argsort(distances_to_all(query_row, db), kind="stable")
    return judge.relevance(qi)[order], order


def average_precision(ranked_relevance, r_cutoff: int, *, denominator: str = "min") -> float:
    """AP of the top ``r_cutoff`` ranks of one query's full ranking.

    ``denominator="min"`` divides by min(r_cutoff, total relevant) —
    the truncated-retrieval convention; ``denominator="total"`` always
    divides by the total relevant count. AP is 0 when nothing relevant
    exists in the database.
    """
    rel = np.asarray(ranked_relevance, dtype=bool)
    if rel.size == 0:
        raise ValueError("ranking must be nonempty")
    if r_cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {r_cutoff}")
    total_relevant = int(rel.sum())
    if total_relevant == 0:
        return 0.0
    top = rel[:r_cutoff]
    hits = np.cumsum(top)
    ranks = np.arange(1, top.size + 1)
    precision_at_hits = (hits[top] / ranks[top]).sum()
    if denominator == "min":
        denom = min(r_cutoff, total_relevant)
    elif denominator == "total":
        denom = total_relevant
    else:
        raise ValueError(f"unknown denominator convention {denominator!r}")
    return float(precision_at_hits / denom)


def mean_ap(queries: PackedCodes, db: PackedCodes, judge: RelevanceJudge,
            r_cutoff: int, *, denominator: str = "min") -> float:
    if queries.n == 0:
        raise ValueError("query set must be nonempty")
    aps = []
    for qi in range(queries.n):
        rel, _ = _ranked_relevance(queries.row(qi), db, judge, qi)
        aps.append(average_precision(rel, r_cutoff, denominator=denominator))
    return float(np.mean(aps))


def precision_at_hamming2(query_row, db: PackedCodes, relevance) -> float:
    """Precision among database items within Hamming radius 2; 0.0 when
    the radius is empty."""
    dist = distances_to_all(query_row, db)
    mask = dist <= 2
    if not mask.any():
        return 0.0
    return float(np.asarray(relevance, dtype=bool)[mask].mean())


def mean_precision_at_hamming2(queries: PackedCodes, db: PackedCodes,
                               judge: RelevanceJudge) -> float:
    vals = [precision_at_hamming2(queries.row(qi), db, judge.relevance(qi))
            for qi in range(queries.n)]
    return float(np.mean(vals))


def pr_curve(queries: PackedCodes, db: PackedCodes, judge: RelevanceJudge,
             recall_grid=DEFAULT_RECALL_GRID) -> list:
    """(recall, precision) points averaged over queries: for each query,
    precision at the smallest rank reaching each recall level. Queries
    with no relevant item are skipped. A level needs ceil(level * total)
    hits in exact arithmetic on the level's decimal form: 0.55 of 100
    relevant items is 55 hits."""
    grid = [float(g) for g in recall_grid]
    if any(not 0 < g <= 1 for g in grid):
        raise ValueError("recall grid points must lie in (0, 1]")
    levels = [Fraction(str(g)) for g in grid]
    per_level = [[] for _ in grid]
    for qi in range(queries.n):
        rel, _ = _ranked_relevance(queries.row(qi), db, judge, qi)
        total = int(rel.sum())
        if total == 0:
            continue
        hits = np.cumsum(rel)
        ranks = np.arange(1, rel.size + 1)
        for gi, level in enumerate(levels):
            needed = math.ceil(level * total)
            rank = int(np.searchsorted(hits, needed) + 1)
            per_level[gi].append(hits[rank - 1] / ranks[rank - 1])
    return [(g, float(np.mean(vals))) for g, vals in zip(grid, per_level) if vals]


def precision_at_n(queries: PackedCodes, db: PackedCodes, judge: RelevanceJudge,
                   n_list) -> list:
    """(N, mean precision of the top N) for each requested cutoff."""
    n_list = [int(n) for n in n_list]
    for n in n_list:
        if not 1 <= n <= db.n:
            raise ValueError(f"N={n} outside [1, {db.n}]")
    sums = np.zeros(len(n_list))
    for qi in range(queries.n):
        rel, _ = _ranked_relevance(queries.row(qi), db, judge, qi)
        hits = np.cumsum(rel)
        for ni, n in enumerate(n_list):
            sums[ni] += hits[n - 1] / n
    return [(n, float(s / queries.n)) for n, s in zip(n_list, sums)]


def write_metrics_csv(path, rows):
    """Long-form CSV: metric, k_total, value, grid (grid empty for scalars)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "k_total", "value", "grid"])
        for row in rows:
            writer.writerow(row)
