"""Definitional double-loop retrieval oracles.

Deliberately independent of the library's packed-code path: distances are
mismatch counts on the +-1 matrices, ranking is python sorted() with the
(distance, index) key, and every metric follows its definition rank by
rank.
"""

import math
from fractions import Fraction

import numpy as np


def oracle_rankings(query_codes, db_codes):
    ranks = []
    for q in query_codes:
        dist = [int((q != d).sum()) for d in db_codes]
        ranks.append(sorted(range(len(db_codes)), key=lambda j: (dist[j], j)))
    return ranks


def oracle_relevance(qlab, dlab):
    return [[int(any(a and b for a, b in zip(qr, dr))) for dr in dlab] for qr in qlab]


def oracle_ap(flags, r_cutoff):
    total = sum(flags)
    if total == 0:
        return 0.0
    hits, score = 0, 0.0
    for rank, f in enumerate(flags[:r_cutoff], start=1):
        if f:
            hits += 1
            score += hits / rank
    return score / min(r_cutoff, total)


def oracle_mean_ap(query_codes, db_codes, qlab, dlab, r_cutoff):
    rel = oracle_relevance(qlab, dlab)
    aps = []
    for qi, order in enumerate(oracle_rankings(query_codes, db_codes)):
        aps.append(oracle_ap([rel[qi][j] for j in order], r_cutoff))
    return sum(aps) / len(aps)


def oracle_ph2(query_codes, db_codes, qlab, dlab):
    rel = oracle_relevance(qlab, dlab)
    vals = []
    for qi, q in enumerate(query_codes):
        within = [j for j, d in enumerate(db_codes) if int((q != d).sum()) <= 2]
        vals.append(sum(rel[qi][j] for j in within) / len(within) if within else 0.0)
    return sum(vals) / len(vals)


def oracle_pr(query_codes, db_codes, qlab, dlab, grid):
    rel = oracle_relevance(qlab, dlab)
    acc = {g: [] for g in grid}
    for qi, order in enumerate(oracle_rankings(query_codes, db_codes)):
        flags = [rel[qi][j] for j in order]
        total = sum(flags)
        if total == 0:
            continue
        for g in grid:
            # exact: a level of j/20 over T relevant items needs ceil(j*T/20) hits
            needed = math.ceil(Fraction(str(g)) * total)
            hits = 0
            for rank, f in enumerate(flags, start=1):
                hits += f
                if hits >= needed:
                    acc[g].append(hits / rank)
                    break
    return [(g, sum(v) / len(v)) for g, v in acc.items() if v]


def oracle_pn(query_codes, db_codes, qlab, dlab, n_list):
    rel = oracle_relevance(qlab, dlab)
    out = []
    for n in n_list:
        vals = []
        for qi, order in enumerate(oracle_rankings(query_codes, db_codes)):
            vals.append(sum(rel[qi][j] for j in order[:n]) / n)
        out.append((n, sum(vals) / len(vals)))
    return out


def random_case(seed, n_q=8, n_db=40, k=12, classes=3):
    rng = np.random.default_rng(seed)
    qc = np.where(rng.random((n_q, k)) < 0.5, -1.0, 1.0)
    dc = np.where(rng.random((n_db, k)) < 0.5, -1.0, 1.0)
    qlab = np.zeros((n_q, classes), dtype=np.int8)
    qlab[np.arange(n_q), rng.integers(0, classes, n_q)] = 1
    dlab = np.zeros((n_db, classes), dtype=np.int8)
    dlab[np.arange(n_db), rng.integers(0, classes, n_db)] = 1
    return qc, dc, qlab, dlab
