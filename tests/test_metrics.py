from fractions import Fraction

import numpy as np
import pytest

import adsq.metrics
from adsq.codes import pack
from adsq.data import build_similarity
from adsq.metrics import (RelevanceJudge, evaluate, mean_ap,
                          mean_precision_at_hamming2, pr_curve, precision_at_n)
from memtrace import traced_peak
from oracles import (oracle_mean_ap, oracle_ph2, oracle_pn, oracle_pr,
                     random_case)
from references import per_query_evaluate


# ---------------------------------------------------------------- relevance


class TestRelevanceJudge:
    @pytest.mark.parametrize("classes", [1, 63, 64, 65, 130])
    def test_matches_build_similarity(self, classes):
        rng = np.random.default_rng(classes)
        qlab = (rng.random((12, classes)) < 0.1).astype(np.int8)
        dlab = (rng.random((300, classes)) < 0.1).astype(np.int8)
        qlab[::2, -1] = 1  # the last class sits in the last word
        dlab[::7, -1] = 1
        judge = RelevanceJudge(qlab, dlab)
        want = build_similarity(qlab, dlab) > 0
        for rows in (slice(None), slice(0, 1), slice(3, 8), slice(11, 12)):
            got = judge.relevance(rows)
            assert got.dtype == bool
            np.testing.assert_array_equal(got, want[rows])

    @pytest.mark.parametrize("q_classes, db_classes", [(3, 4), (63, 64), (64, 65)])
    def test_width_mismatch_rejected_at_construction(self, q_classes, db_classes):
        with pytest.raises(ValueError, match="equal widths"):
            RelevanceJudge(np.ones((2, q_classes), np.int8),
                           np.ones((5, db_classes), np.int8))


# ---------------------------------------------------------------- AP


def ranked_ap(ranked_relevance, r_cutoff):
    """AP of one query whose ranking is the database index: every database
    code equals the query's, so the stable order is the index order, and an
    item is relevant iff its flag is set."""
    rel = np.asarray(ranked_relevance, dtype=np.int8)
    judge = RelevanceJudge(np.array([[1, 0]], dtype=np.int8),
                           np.stack([rel, 1 - rel], axis=1))
    return evaluate(pack(np.ones((1, 8))), pack(np.ones((rel.size, 8))), judge,
                    map_r=r_cutoff).map


class TestAveragePrecision:
    def test_worked_example(self):
        # hits at ranks 1, 3, 4: (1 + 2/3 + 3/4) / 3
        assert ranked_ap([1, 0, 1, 1], 4) == pytest.approx(29 / 36, abs=1e-12)

    def test_all_relevant(self):
        assert ranked_ap([1, 1, 1, 1], 4) == 1.0

    def test_no_relevant_defined_zero(self):
        assert ranked_ap([0, 0, 0], 3) == 0.0

    def test_empty_ranking_rejected(self):
        with pytest.raises(ValueError, match="must be nonempty"):
            ranked_ap([], 1)

    def test_promoting_relevant_item_never_hurts(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            flags = (rng.random(12) < 0.4).astype(int).tolist()
            pos = [i for i in range(1, 12) if flags[i] == 1 and flags[i - 1] == 0]
            if not pos:
                continue
            i = pos[0]
            promoted = flags.copy()
            promoted[i - 1], promoted[i] = promoted[i], promoted[i - 1]
            assert ranked_ap(promoted, 12) >= ranked_ap(flags, 12)


class TestMeanAp:
    def test_single_query_equals_its_ap(self):
        qc, dc, qlab, dlab = random_case(1, n_q=1)
        got = mean_ap(pack(qc), pack(dc), RelevanceJudge(qlab, dlab), 10)
        assert got == pytest.approx(oracle_mean_ap(qc, dc, qlab, dlab, 10), abs=1e-12)

    def test_duplicate_query_leaves_mean(self):
        qc, dc, qlab, dlab = random_case(2, n_q=1)
        qc2 = np.vstack([qc, qc])
        qlab2 = np.vstack([qlab, qlab])
        judge1 = RelevanceJudge(qlab, dlab)
        judge2 = RelevanceJudge(qlab2, dlab)
        assert mean_ap(pack(qc2), pack(dc), judge2, 10) == \
            pytest.approx(mean_ap(pack(qc), pack(dc), judge1, 10), abs=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_definitional_oracle(self, seed):
        qc, dc, qlab, dlab = random_case(seed)
        got = mean_ap(pack(qc), pack(dc), RelevanceJudge(qlab, dlab), 15)
        assert got == pytest.approx(oracle_mean_ap(qc, dc, qlab, dlab, 15), abs=1e-12)

    def test_invariant_under_db_permutation_with_distinct_distances(self):
        rng = np.random.default_rng(5)
        k = 16
        q = np.where(rng.random((1, k)) < 0.5, -1.0, 1.0)
        # craft distinct distances: flip a unique number of bits per item
        dc = np.repeat(q, 10, axis=0)
        for j in range(10):
            dc[j, :j] *= -1
        dlab = np.zeros((10, 2), dtype=np.int8)
        dlab[:, 0] = (np.arange(10) % 2 == 0)
        dlab[:, 1] = 1 - dlab[:, 0]
        qlab = np.array([[1, 0]], dtype=np.int8)
        base = mean_ap(pack(q), pack(dc), RelevanceJudge(qlab, dlab), 10)
        perm = rng.permutation(10)
        shuffled = mean_ap(pack(q), pack(dc[perm]), RelevanceJudge(qlab, dlab[perm]), 10)
        assert shuffled == pytest.approx(base, abs=1e-15)


# ---------------------------------------------------------------- P@H=2


class TestPrecisionAtHamming2:
    def _ph2(self, dists, rel, k=8):
        """P@H<=2 of one all-ones query against rows at the given distances,
        with relevance given per row."""
        q = np.ones((1, k))
        dc = np.ones((len(dists), k))
        for row, d in zip(dc, dists):
            row[:d] = -1
        rel = np.asarray(rel)
        dlab = np.stack([rel, ~rel], axis=1).astype(np.int8)
        qlab = np.array([[1, 0]], dtype=np.int8)
        return mean_precision_at_hamming2(pack(q), pack(dc), RelevanceJudge(qlab, dlab))

    def test_counts_only_radius_two(self):
        assert self._ph2([0, 2, 4], [True, True, False]) == 1.0

    def test_mixed_relevance(self):
        assert self._ph2([1, 2], [False, True]) == 0.5

    def test_empty_radius_is_zero(self):
        assert self._ph2([3, 5], [True, True]) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_mean_matches_oracle(self, seed):
        qc, dc, qlab, dlab = random_case(seed, k=6)  # short codes so radius 2 fills
        got = mean_precision_at_hamming2(pack(qc), pack(dc), RelevanceJudge(qlab, dlab))
        assert got == pytest.approx(oracle_ph2(qc, dc, qlab, dlab), abs=1e-12)


# ---------------------------------------------------------------- PR curve


class TestPrCurve:
    def test_perfect_ranking(self):
        q = np.ones((1, 4))
        dc = np.vstack([np.ones((3, 4)), -np.ones((3, 4))])
        dlab = np.array([[1, 0]] * 3 + [[0, 1]] * 3, dtype=np.int8)
        qlab = np.array([[1, 0]], dtype=np.int8)
        pts = pr_curve(pack(q), pack(dc), RelevanceJudge(qlab, dlab), (0.5, 1.0))
        assert all(p == pytest.approx(1.0) for _, p in pts)

    def test_worked_example(self):
        """Ranking [relevant, irrelevant, relevant] at levels 0.5 and 1.0."""
        q = np.ones((1, 4))
        dc = np.array([[1.0, 1, 1, 1], [1.0, 1, 1, -1], [1.0, 1, -1, -1]])
        dlab = np.array([[1, 0], [0, 1], [1, 0]], dtype=np.int8)
        qlab = np.array([[1, 0]], dtype=np.int8)
        pts = dict(pr_curve(pack(q), pack(dc), RelevanceJudge(qlab, dlab), (0.5, 1.0)))
        assert pts[0.5] == pytest.approx(1.0)
        assert pts[1.0] == pytest.approx(2 / 3)

    def test_reversed_ranking_tail(self):
        """All irrelevant first: precision at full recall is total/n."""
        k = 8
        q = np.ones((1, k))
        dc = np.vstack([np.where(np.arange(k) < 4, -1.0, 1.0)[None, :].repeat(6, 0),
                        np.ones((2, k))])
        dlab = np.array([[0, 1]] * 6 + [[1, 0]] * 2, dtype=np.int8)
        qlab = np.array([[1, 0]], dtype=np.int8)
        # relevant items are the two exact matches ranked... reversed: make
        # relevant the farthest instead
        dlab = np.array([[1, 0]] * 6 + [[0, 1]] * 2, dtype=np.int8)
        pts = dict(pr_curve(pack(q), pack(dc), RelevanceJudge(qlab, dlab), (1.0,)))
        assert pts[1.0] == pytest.approx(6 / 8)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        qc, dc, qlab, dlab = random_case(seed)
        grid = (0.25, 0.5, 0.75, 1.0)
        got = pr_curve(pack(qc), pack(dc), RelevanceJudge(qlab, dlab), grid)
        expect = oracle_pr(qc, dc, qlab, dlab, grid)
        for (g1, p1), (g2, p2) in zip(got, expect):
            assert g1 == g2 and p1 == pytest.approx(p2, abs=1e-12)

    def test_recall_level_needs_exact_hit_count(self):
        """55 relevant, 1 irrelevant, 45 relevant, all at distance 0: recall
        0.55 of 100 needs 55 hits, reached before the irrelevant item."""
        flags = np.array([1] * 55 + [0] + [1] * 45)
        q = np.ones((1, 8))
        dc = np.ones((flags.size, 8))
        qlab = np.array([[1, 0]], dtype=np.int8)
        dlab = np.stack([flags, 1 - flags], axis=1).astype(np.int8)
        pts = pr_curve(pack(q), pack(dc), RelevanceJudge(qlab, dlab))
        assert dict(pts)[0.55] == 1.0
        # level j/20 needs 5j hits; the irrelevant item sits at rank 56
        expect = [5 * j / (5 * j + (5 * j > 55)) for j in range(1, 21)]
        assert [p for _, p in pts] == expect
        assert oracle_pr(q, dc, qlab, dlab, [g for g, _ in pts]) == pts

    def test_17_digit_level_needs_exact_hit_count(self):
        """384 relevant items: 191, then 1 irrelevant, then 193. In double
        arithmetic level * 384 is exactly 191.0, but the level's decimal form
        times 384 lies just above 191, so the level needs 192 hits, reached
        past the irrelevant item. Its numerator times 384 exceeds 2**63."""
        level = 0.49739583333333337
        assert level * 384 == 191.0 and len(repr(level)) == len("0.") + 17
        assert Fraction(repr(level)).numerator * 384 > 2 ** 63
        flags = np.array([1] * 191 + [0] + [1] * 193)
        q = np.ones((1, 8))
        dc = np.ones((flags.size, 8))
        qlab = np.array([[1, 0]], dtype=np.int8)
        dlab = np.stack([flags, 1 - flags], axis=1).astype(np.int8)
        pts = pr_curve(pack(q), pack(dc), RelevanceJudge(qlab, dlab), (level, 1.0))
        assert pts == [(level, 192 / 193), (1.0, 384 / 385)]
        assert oracle_pr(q, dc, qlab, dlab, (level, 1.0)) == pts

    def test_grid_outside_unit_interval_rejected(self):
        qc, dc, qlab, dlab = random_case(0)
        with pytest.raises(ValueError):
            pr_curve(pack(qc), pack(dc), RelevanceJudge(qlab, dlab), (0.0, 0.5))


# ---------------------------------------------------------------- P@N


class TestPrecisionAtN:
    def test_top1_all_relevant(self):
        qc, dc, qlab, dlab = random_case(3)
        dc[:8] = qc  # each query's nearest neighbor is its twin
        dlab[:8] = qlab
        got = dict(precision_at_n(pack(qc), pack(dc), RelevanceJudge(qlab, dlab), [1]))
        assert got[1] == 1.0

    def test_full_cutoff_is_base_rate(self):
        qc, dc, qlab, dlab = random_case(4, n_q=3, n_db=30)
        judge = RelevanceJudge(qlab, dlab)
        got = dict(precision_at_n(pack(qc), pack(dc), judge, [30]))
        base = np.mean([judge.relevance(slice(i, i + 1)).mean() for i in range(3)])
        assert got[30] == pytest.approx(base, abs=1e-12)

    def test_n_beyond_db_rejected(self):
        qc, dc, qlab, dlab = random_case(5)
        with pytest.raises(ValueError):
            precision_at_n(pack(qc), pack(dc), RelevanceJudge(qlab, dlab), [41])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        qc, dc, qlab, dlab = random_case(seed)
        n_list = [1, 5, 17, 40]
        got = precision_at_n(pack(qc), pack(dc), RelevanceJudge(qlab, dlab), n_list)
        expect = oracle_pn(qc, dc, qlab, dlab, n_list)
        for (n1, p1), (n2, p2) in zip(got, expect):
            assert n1 == n2 and p1 == pytest.approx(p2, abs=1e-12)

    def test_random_relevance_hovers_at_half(self):
        """Independent 50/50 relevance: mean P@N lands within 3 sigma."""
        rng = np.random.default_rng(11)
        n_q, n_db, n_cut = 40, 400, 200
        qc = np.where(rng.random((n_q, 16)) < 0.5, -1.0, 1.0)
        dc = np.where(rng.random((n_db, 16)) < 0.5, -1.0, 1.0)
        # relevance independent of codes: one label or the other at random
        qlab = np.tile(np.array([[1, 0]], dtype=np.int8), (n_q, 1))
        coin = rng.random(n_db) < 0.5
        dlab = np.stack([coin, ~coin], axis=1).astype(np.int8)
        got = dict(precision_at_n(pack(qc), pack(dc), RelevanceJudge(qlab, dlab),
                                  [n_cut]))
        sigma = np.sqrt(0.25 / (n_cut * n_q))
        assert abs(got[n_cut] - 0.5) < 3 * sigma + 0.02


# ---------------------------------------------------------------- one pass


# query rows per block: one, three (a short last block unless 3 divides the
# query count), or every query
BLOCK_ROWS = {"one_per_block": 1, "short_last_block": 3, "one_block": 1 << 20}


def set_budget(monkeypatch, case, n_db):
    """Set the scan budget so that each block holds ``BLOCK_ROWS[case]`` queries."""
    monkeypatch.setattr(adsq.metrics, "QUERY_BLOCK_ELEMS", BLOCK_ROWS[case] * n_db)


def cutoffs(n_db):
    """mAP cutoffs: one item, part of the database, all of it (as the
    benchmark evaluates), and beyond it."""
    return 1, 12, n_db, n_db + 7


class TestEvaluate:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_metric_matches_oracle(self, seed):
        case = random_case(seed, k=6)
        for map_r in cutoffs(len(case[1])):
            self.assert_matches_oracle(*case, map_r)

    def test_query_with_no_relevant_item_matches_oracle(self):
        """Query 0 holds a class no database row holds: its AP is 0 and PR
        skips it."""
        qc, dc, qlab, dlab = random_case(6, k=6)
        qlab, dlab = (np.pad(lab, ((0, 0), (0, 1))) for lab in (qlab, dlab))
        qlab[0] = [0, 0, 0, 1]
        judge = RelevanceJudge(qlab, dlab)
        assert not judge.relevance(slice(0, 1)).any() and judge.relevance(slice(1, 2)).any()
        alone = evaluate(pack(qc[:1]), pack(dc), RelevanceJudge(qlab[:1], dlab), map_r=12,
                         recall_grid=(0.5, 1.0))
        assert (alone.map, alone.pr) == (0.0, [])
        for map_r in cutoffs(len(dc)):
            self.assert_matches_oracle(qc, dc, qlab, dlab, map_r)

    def test_two_word_rows_match_oracle(self):
        # 72-bit rows fill one word and part of a zero-padded second; the
        # database holds 5 distinct codes and each query is one of them with
        # 0-2 bits flipped, so distances tie and the radius-2 set is nonempty
        qc, dc, qlab, dlab = random_case(5, n_q=6, n_db=60, k=72)
        rng = np.random.default_rng(5)
        dc = dc[rng.integers(0, 5, len(dc))]
        qc = dc[rng.integers(0, len(dc), len(qc))]
        for q in qc:
            q[rng.choice(72, size=rng.integers(0, 3), replace=False)] *= -1
        for map_r in cutoffs(len(dc)):
            self.assert_matches_oracle(qc, dc, qlab, dlab, map_r)

    @staticmethod
    def assert_matches_oracle(qc, dc, qlab, dlab, map_r):
        grid, n_list = (0.25, 0.5, 1.0), [1, 7, 40]
        got = evaluate(pack(qc), pack(dc), RelevanceJudge(qlab, dlab), map_r=map_r,
                       recall_grid=grid, n_list=n_list)
        assert got.map == pytest.approx(oracle_mean_ap(qc, dc, qlab, dlab, map_r),
                                        abs=1e-12)
        assert got.ph2 == pytest.approx(oracle_ph2(qc, dc, qlab, dlab), abs=1e-12)
        for got_points, expect in ((got.pr, oracle_pr(qc, dc, qlab, dlab, grid)),
                                   (got.pn, oracle_pn(qc, dc, qlab, dlab, n_list))):
            assert [x for x, _ in got_points] == [x for x, _ in expect]
            assert [p for _, p in got_points] == pytest.approx([p for _, p in expect],
                                                               abs=1e-12)

    def test_one_scan_and_one_relevance_row_per_query(self, monkeypatch):
        """Whatever the block size, every query row is scanned, ranked and
        given its relevance row once, in query order."""
        qc, dc, qlab, dlab = random_case(1)
        queries = pack(qc)
        scan, argsort, relevance = (adsq.metrics.distances_to_all, np.argsort,
                                    RelevanceJudge.relevance)
        scanned, ranked, relevance_rows = [], [], []

        def counted_scan(query_rows, db):
            scanned.append(np.array(query_rows))
            return scan(query_rows, db)

        def counted_argsort(a, *args, **kwargs):
            ranked.append(len(a))
            return argsort(a, *args, **kwargs)

        def counted_relevance(self, rows):
            relevance_rows.extend(range(len(qlab))[rows])
            return relevance(self, rows)

        monkeypatch.setattr(adsq.metrics, "distances_to_all", counted_scan)
        monkeypatch.setattr(np, "argsort", counted_argsort)
        monkeypatch.setattr(RelevanceJudge, "relevance", counted_relevance)
        for budget, rows in BLOCK_ROWS.items():
            set_budget(monkeypatch, budget, len(dc))
            evaluate(queries, pack(dc), RelevanceJudge(qlab, dlab), map_r=10, n_list=[5])
            np.testing.assert_array_equal(np.vstack(scanned), queries.payload)
            assert sum(ranked) == len(qc) and relevance_rows == list(range(len(qc)))
            assert len(scanned) == len(ranked) == -(-len(qc) // rows)
            for calls in (scanned, ranked, relevance_rows):
                calls.clear()

    def test_empty_query_set_rejected(self):
        _, dc, _, dlab = random_case(0)
        with pytest.raises(ValueError, match="must be nonempty"):
            evaluate(pack(np.ones((0, 12))), pack(dc),
                     RelevanceJudge(np.zeros((0, dlab.shape[1]), dtype=np.int8), dlab),
                     map_r=5)

    def test_code_width_mismatch_rejected(self):
        """30-bit queries fit the 4 bytes of a 32-bit database row."""
        qc, dc, qlab, dlab = random_case(0, n_q=5, n_db=50, k=32)
        with pytest.raises(ValueError,
                           match="^code width mismatch: queries 30 bits, database 32 bits$"):
            evaluate(pack(qc[:, :30]), pack(dc), RelevanceJudge(qlab, dlab), map_r=5)

    @pytest.mark.parametrize("q_rows, db_rows", [(5, 57), (10, 50), (3, 50)])
    def test_item_count_mismatch_rejected(self, q_rows, db_rows):
        """Label rows for 5 query and 50 database codes, more or fewer."""
        qc, dc, qlab, dlab = random_case(0, n_q=10, n_db=57)
        with pytest.raises(ValueError, match=(
                f"^labels and codes disagree on item count: {q_rows} query label rows for 5 "
                f"codes, {db_rows} database label rows for 50 codes$")):
            evaluate(pack(qc[:5]), pack(dc[:50]), RelevanceJudge(qlab[:q_rows], dlab[:db_rows]),
                     map_r=5)

    def test_zero_cutoff_rejected(self):
        qc, dc, qlab, dlab = random_case(0)
        with pytest.raises(ValueError, match="cutoff"):
            evaluate(pack(qc), pack(dc), RelevanceJudge(qlab, dlab), map_r=0)


# ---------------------------------------------------------------- query blocks

LEVEL_17 = 0.49739583333333337  # see test_17_digit_level_needs_exact_hit_count


def ties_and_no_relevant_case():
    """Database codes drawn from 4 distinct 6-bit codes, so distances tie and
    ties break by index; query 0 holds a class no database row holds."""
    qc, dc, qlab, dlab = random_case(6, n_q=8, n_db=40, k=6)
    dc = dc[np.random.default_rng(6).integers(0, 4, len(dc))]
    qlab, dlab = (np.pad(lab, ((0, 0), (0, 1))) for lab in (qlab, dlab))
    qlab[0] = [0, 0, 0, 1]
    return qc, dc, qlab, dlab, (0.25, 0.5, 1.0)


def two_word_case():
    """72-bit rows: one word and part of a second; 5 distinct database
    codes, each query one of them with 0-2 bits flipped."""
    qc, dc, qlab, dlab = random_case(5, n_q=7, n_db=60, k=72)
    rng = np.random.default_rng(5)
    dc = dc[rng.integers(0, 5, len(dc))]
    qc = dc[rng.integers(0, len(dc), len(qc))]
    for q in qc:
        q[rng.choice(72, size=rng.integers(0, 3), replace=False)] *= -1
    return qc, dc, qlab, dlab, (0.25, 0.5, 1.0)


def level_17_case():
    """The database of ``test_17_digit_level_needs_exact_hit_count`` (all
    codes equal, 384 items of class 0 with one item of class 1 at index
    191) against five queries of either class or both."""
    flags = np.array([1] * 191 + [0] + [1] * 193)
    dlab = np.stack([flags, 1 - flags], axis=1).astype(np.int8)
    qlab = np.array([[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]], dtype=np.int8)
    return np.ones((5, 8)), np.ones((flags.size, 8)), qlab, dlab, (LEVEL_17, 0.3, 1.0)


BLOCK_CASES = {"ties_and_no_relevant": ties_and_no_relevant_case, "two_words": two_word_case,
               "level_17": level_17_case}


class TestQueryBlocks:
    @pytest.mark.parametrize("budget", list(BLOCK_ROWS))
    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_matches_oracles_and_per_query_reference(self, monkeypatch, case, budget):
        """Each block size gives the per-query reference's values to the last
        bit, and the oracles' values."""
        qc, dc, qlab, dlab, grid = BLOCK_CASES[case]()
        set_budget(monkeypatch, budget, len(dc))
        n_list = [1, 7, len(dc)]
        for map_r in cutoffs(len(dc)):
            got = evaluate(pack(qc), pack(dc), RelevanceJudge(qlab, dlab), map_r=map_r,
                           recall_grid=grid, n_list=n_list)
            assert (got.map, got.ph2, got.pr, got.pn) == per_query_evaluate(
                pack(qc), pack(dc), qlab, dlab, map_r, grid, n_list)
            assert all(type(v) is float for v in (got.map, got.ph2, *(p for _, p in got.pr),
                                                  *(p for _, p in got.pn)))
            assert got.map == pytest.approx(oracle_mean_ap(qc, dc, qlab, dlab, map_r),
                                            abs=1e-12)
            assert got.ph2 == pytest.approx(oracle_ph2(qc, dc, qlab, dlab), abs=1e-12)
            for got_points, expect in ((got.pr, oracle_pr(qc, dc, qlab, dlab, grid)),
                                       (got.pn, oracle_pn(qc, dc, qlab, dlab, n_list))):
                assert [x for x, _ in got_points] == [x for x, _ in expect]
                assert [p for _, p in got_points] == pytest.approx(
                    [p for _, p in expect], abs=1e-12)

    def test_level_17_needs_are_exact_in_blocks(self, monkeypatch):
        """In blocks of three queries, the 17-digit level needs 192 of 384
        hits (rank 193, past the class-1 item), 1 of 1 (rank 192) and 192 of
        385 (rank 192), as each query does alone."""
        qc, dc, qlab, dlab, grid = level_17_case()
        set_budget(monkeypatch, "short_last_block", len(dc))
        got = evaluate(pack(qc), pack(dc), RelevanceJudge(qlab, dlab), map_r=1,
                       recall_grid=grid)
        per_query = [192 / 193, 1 / 192, 192 / 192, 192 / 193, 1 / 192]
        assert got.pr[0] == (LEVEL_17, float(np.mean(per_query)))

    def test_peak_memory_does_not_grow_with_queries(self):
        """Ten times the queries against one database stay within 10 % of the
        traced peak: a block's arrays are bounded by the budget, not the query count."""
        rng = np.random.default_rng(0)
        n_db, k, classes = 1 << 14, 64, 5
        db = pack(np.where(rng.random((n_db, k)) < 0.5, -1.0, 1.0))
        dlab = np.eye(classes, dtype=np.int8)[rng.integers(0, classes, n_db)]
        assert adsq.metrics.QUERY_BLOCK_ELEMS // n_db < 200  # 200 queries already fill blocks
        peaks = []
        for n_q in (200, 2000):
            queries = pack(np.where(rng.random((n_q, k)) < 0.5, -1.0, 1.0))
            judge = RelevanceJudge(np.eye(classes, dtype=np.int8)[rng.integers(0, classes, n_q)],
                                   dlab)
            peaks.append(traced_peak(evaluate, queries, db, judge, map_r=100,
                                     n_list=[1, 10, 100])[1])
        assert peaks[1] <= 1.1 * peaks[0]
