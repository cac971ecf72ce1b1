import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adsq.codes
import adsq.encoder
from adsq.codes import (PackedCodes, distances_to_all, encode_matrix, load_codes, pack,
                        search_topk, write_codes)
from adsq.encoder import forward, init_params
from adsq.errors import FormatError
from references import hamming_distance, quantize_sign, unpack


def random_codes(seed, n, k):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)


def reference_codes(x, px, py) -> PackedCodes:
    """The unblocked definition: each network over every row, the two sign
    halves concatenated x half first, then packed."""
    return pack(np.concatenate([quantize_sign(forward(px, x).u),
                                quantize_sign(forward(py, x).u)], axis=1))


class TestEncode:
    def setup_method(self):
        self.px = init_params([5, 4, 3, 2], seed=10)
        self.py = init_params([5, 4, 3, 2], seed=11)

    def test_x_half_comes_first(self):
        x = np.random.default_rng(2).normal(size=5)
        code = unpack(encode_matrix(x[None, :], self.px, self.py))[0]
        hx = quantize_sign(forward(self.px, x[None, :]).u[0])
        hy = quantize_sign(forward(self.py, x[None, :]).u[0])
        np.testing.assert_array_equal(code[:2], hx)
        np.testing.assert_array_equal(code[2:], hy)

    def test_length_is_twice_k_half(self):
        packed = encode_matrix(np.zeros((1, 5)), self.px, self.py)
        assert (packed.n, packed.k_total) == (1, 4)

    def test_zero_output_encodes_as_plus_one(self):
        # zero weights and biases make every u exactly 0, which is sign +1
        zero = init_params([5, 4, 3, 2], seed=12)
        zero.weights = [np.zeros_like(w) for w in zero.weights]
        codes = unpack(encode_matrix(np.ones((3, 5)), zero, self.py))
        np.testing.assert_array_equal(codes[:, :2], 1.0)

    def test_shared_params_give_identical_halves(self):
        x = np.random.default_rng(3).normal(size=(6, 5))
        codes = unpack(encode_matrix(x, self.px, self.px))
        np.testing.assert_array_equal(codes[:, :2], codes[:, 2:])


class TestEncodeSkipsTanh:
    """Encoding signs the hash pre-activation v, not tanh(v)."""

    EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e-300, np.inf, -np.inf]

    def encode_with_v(self, monkeypatch, v):
        """Codes of one row whose pre-activation, in both networks, is ``v``."""
        real = adsq.encoder.pre_activation

        def fixed(params, x, keep_hidden):
            outs = real(params, x, keep_hidden)
            outs.u[...] = v
            return outs

        monkeypatch.setattr(adsq.encoder, "pre_activation", fixed)
        p = init_params([5, 4, 3, v.shape[1]], seed=10)
        return encode_matrix(np.zeros((1, 5)), p, p)

    def test_edge_values_sign_as_tanh_would(self, monkeypatch):
        v = np.array([self.EDGES])
        want = np.tanh(v) >= 0
        codes = unpack(self.encode_with_v(monkeypatch, v))
        np.testing.assert_array_equal(codes > 0, np.hstack([want, want]))

    def test_nan_raises_as_tanh_would(self, monkeypatch):
        v = np.array([self.EDGES + [np.nan]])
        assert np.isnan(np.tanh(v)).any()
        with pytest.raises(ValueError, match="outputs of the x network are not finite"):
            self.encode_with_v(monkeypatch, v)


class TestEncodeBlocks:
    B = 4

    # unequal halves; totals of 3, 9 and 13 bits leave padding bits in the last byte
    @pytest.mark.parametrize("k_x, k_y", [(1, 2), (3, 6), (8, 5)])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
    def test_matches_unblocked_reference(self, monkeypatch, n, k_x, k_y):
        monkeypatch.setattr(adsq.encoder, "FORWARD_BLOCK_ROWS", self.B)
        px = init_params([5, 6, 4, k_x], seed=20)
        py = init_params([5, 3, k_y], seed=21)
        x = np.random.default_rng(n).normal(size=(n, 5))
        got, want = encode_matrix(x, px, py), reference_codes(x, px, py)
        assert (got.n, got.k_total) == (want.n, want.k_total) == (n, k_x + k_y)
        np.testing.assert_array_equal(got.payload, want.payload)

    def test_nan_row_in_last_block_raises(self, monkeypatch):
        monkeypatch.setattr(adsq.encoder, "FORWARD_BLOCK_ROWS", self.B)
        p = init_params([5, 4, 3, 2], seed=10)
        x = np.random.default_rng(4).normal(size=(2 * self.B + 3, 5))
        x[-1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            encode_matrix(x, p, p)


class TestPack:
    def test_known_byte(self):
        # bits 1,0,1,1,0,0,0,0 MSB-first = 0xB0
        packed = pack(np.array([[1.0, -1, 1, 1, -1, -1, -1, -1]]))
        assert packed.payload[0, 0] == 0xB0

    def test_row_padding_is_zero(self):
        packed = pack(np.array([[1.0, 1.0, 1.0]]))
        assert packed.payload.shape == (1, 1)
        assert packed.payload[0, 0] & 0b00011111 == 0

    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            pack(np.array([[0.5, 1.0]]))

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 20), k=st.integers(1, 40))
    def test_round_trip(self, seed, n, k):
        codes = random_codes(seed, n, k)
        np.testing.assert_array_equal(unpack(pack(codes)), codes)


class TestHamming:
    def test_identical_is_zero(self):
        p = pack(random_codes(0, 1, 16))
        assert hamming_distance(p.payload[0], p.payload[0]) == 0

    def test_complement_is_k(self):
        c = random_codes(1, 1, 12)
        assert hamming_distance(pack(c).payload[0], pack(-c).payload[0]) == 12

    def test_half_mismatch(self):
        a = pack(np.array([[1.0, 1, 1, 1]])).payload[0]
        b = pack(np.array([[1.0, 1, -1, -1]])).payload[0]
        assert hamming_distance(a, b) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(np.zeros(2, dtype=np.uint8), np.zeros(3, dtype=np.uint8))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**31 - 1), k=st.sampled_from([8, 16, 48]))
    def test_inner_product_identity(self, seed, k):
        """popcount distance = (k - <a, b>) / 2 exactly."""
        pair = random_codes(seed, 2, k)
        dist = hamming_distance(pack(pair).payload[0], pack(pair).payload[1])
        assert dist == (k - int(pair[0] @ pair[1])) // 2


class TestSearch:
    def test_self_is_nearest(self):
        codes = random_codes(2, 20, 16)
        db = pack(codes)
        assert search_topk(db.payload[7], db, 1)[0] == 7

    def test_ties_break_by_index(self):
        codes = np.array([[1.0, 1, 1, 1], [1.0, 1, 1, 1], [-1.0, -1, -1, -1]])
        db = pack(codes)
        np.testing.assert_array_equal(search_topk(db.payload[1], db, 3), [0, 1, 2])

    def test_result_owns_only_k_entries(self):
        db = pack(random_codes(8, 40, 16))
        got = search_topk(db.payload[3], db, 5)
        assert got.shape == (5,) and got.base is None

    def test_k_too_large(self):
        db = pack(random_codes(3, 5, 8))
        with pytest.raises(ValueError):
            search_topk(db.payload[0], db, 6)

    def test_negative_k_rejected(self):
        db = pack(random_codes(4, 10, 8))
        with pytest.raises(ValueError):
            search_topk(db.payload[0], db, -1)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_sort(self, seed):
        codes = random_codes(seed, 50, 12)
        query = random_codes(seed + 100, 1, 12)
        db = pack(codes)
        qrow = pack(query).payload[0]
        got = search_topk(qrow, db, 50)
        dist = [int((query[0] != codes[j]).sum()) for j in range(50)]
        expect = sorted(range(50), key=lambda j: (dist[j], j))
        np.testing.assert_array_equal(got, expect)

    def test_distances_match_rowwise_calls(self):
        codes = random_codes(9, 30, 24)
        db = pack(codes)
        block = distances_to_all(db.payload[4:7], db)
        assert block.shape == (3, 30)
        assert all(block[i, j] == hamming_distance(db.payload[4 + i], db.payload[j])
                   for i in range(3) for j in range(30))


def tied_codes(seed, n, k, distinct=4):
    """n rows drawn from a few distinct codes, so distances tie heavily."""
    rng = np.random.default_rng(seed)
    return random_codes(seed, distinct, k)[rng.integers(0, distinct, n)]


def assert_scan_matches_oracle(query, codes, db):
    """Distances are (k - <a, b>) / 2 on the +-1 codes; search is the
    (distance, index) order for every k up to n."""
    k_total, n = codes.shape[1], codes.shape[0]
    qrow = pack(query[None, :]).payload[0]
    dist = distances_to_all(qrow[None], db)[0]
    expect = (k_total - (codes @ query).astype(np.int64)) // 2
    np.testing.assert_array_equal(dist.astype(np.int64), expect)
    order = np.lexsort((np.arange(n), expect))
    for top in (1, 5, n):
        np.testing.assert_array_equal(search_topk(qrow, db, top), order[:top])


class TestWordScan:
    K_TOTALS = [1, 7, 8, 33, 63, 64, 65, 130, 300]

    @pytest.mark.parametrize("k_total", K_TOTALS)
    def test_matches_brute_force(self, k_total):
        codes = tied_codes(k_total, 60, k_total)
        query = random_codes(k_total + 1, 1, k_total)[0]
        db = pack(codes)
        assert_scan_matches_oracle(query, codes, db)
        assert_scan_matches_oracle(codes[9], codes, db)

    @pytest.mark.parametrize("k_total", K_TOTALS)
    def test_sliced_payloads_match_brute_force(self, k_total):
        codes = tied_codes(k_total + 2, 61, k_total)
        query = random_codes(k_total + 3, 1, k_total)[0]
        payload = pack(codes).payload
        strided = PackedCodes(n=31, k_total=k_total, payload=payload[::2])
        assert not strided.payload.flags.c_contiguous
        assert_scan_matches_oracle(query, codes[::2], strided)
        tail = PackedCodes(n=60, k_total=k_total, payload=payload[1:])
        assert_scan_matches_oracle(query, codes[1:], tail)

    @pytest.mark.parametrize("k_total, dtype", [(1, np.uint8), (64, np.uint8),
                                                (255, np.uint8), (256, np.uint16),
                                                (300, np.uint16)])
    def test_distance_dtype_is_narrowest(self, k_total, dtype):
        # stable argsort radix-sorts only 8- and 16-bit keys
        db = pack(random_codes(k_total, 5, k_total))
        assert distances_to_all(db.payload[:2], db).dtype == dtype

    def test_whole_word_rows_are_viewed_not_copied(self):
        db = pack(random_codes(6, 10, 64))
        assert db.words.shape == (10, 1) and np.shares_memory(db.words, db.payload)
        assert not db.words.flags.writeable

    @pytest.mark.parametrize("k_total", [16, 64])
    def test_payload_is_read_only(self, k_total):
        # 16-bit rows scan a padded copy, which an edit of the payload would not reach
        db = pack(random_codes(k_total, 4, k_total))
        with pytest.raises(ValueError, match="read-only"):
            db.payload[1] = db.payload[0]

    def test_partial_word_rows_are_zero_padded(self):
        db = pack(np.ones((3, 72)))
        assert db.words.shape == (3, 2)
        assert np.all(db.words.view(np.uint8)[:, 9:] == 0)

    @pytest.mark.parametrize("payload", [
        np.zeros((4, 2), dtype=np.int64),
        np.zeros(2, dtype=np.uint8),
        np.zeros((4, 2, 1), dtype=np.uint8),
        [[0, 0]] * 4,
    ], ids=["int64", "1-D", "3-D", "list"])
    def test_payload_must_be_2d_uint8_array(self, payload):
        with pytest.raises(ValueError, match="2-D uint8"):
            PackedCodes(n=4, k_total=16, payload=payload)


    @pytest.mark.parametrize("shape", [(3, 2), (4, 3), (4, 1)])
    def test_payload_shape_must_match_n_and_k_total(self, shape):
        with pytest.raises(ValueError, match=rf"payload shape \({shape[0]}, {shape[1]}\) does "
                                             r"not match n=4, k_total=16"):
            PackedCodes(n=4, k_total=16, payload=np.zeros(shape, dtype=np.uint8))

    def test_zero_bit_codes_rejected(self):
        with pytest.raises(ValueError, match="k_total must be at least 1"):
            PackedCodes(n=3, k_total=0, payload=np.zeros((3, 0), dtype=np.uint8))
        with pytest.raises(ValueError, match="k_total must be at least 1"):
            pack(np.ones((3, 0)))

    def test_nonzero_padding_bits_rejected(self):
        # both rows read ++++ in 4 bits; the second has its 4 padding bits set
        payload = np.array([[0b11110000], [0b11111111]], dtype=np.uint8)
        with pytest.raises(ValueError, match="padding"):
            PackedCodes(n=2, k_total=4, payload=payload)

    @pytest.mark.parametrize("k_total", [7, 65])
    def test_query_padding_bits_rejected(self, k_total):
        # a set padding bit would count as one more mismatch against every row
        db = pack(random_codes(k_total, 5, k_total))
        query = db.payload[2].copy()
        query[-1] |= 1
        block = np.vstack([db.payload[:2], query])  # only the last row has one
        for scan in (lambda: distances_to_all(block, db), lambda: search_topk(query, db, 3)):
            with pytest.raises(ValueError, match="padding bits in query row"):
                scan()

    @pytest.mark.parametrize("k_total", K_TOTALS)
    def test_block_scan_is_the_rowwise_scan(self, k_total):
        """A block of query rows, the database's own among them, scans each
        row as a one-row block does."""
        db = pack(tied_codes(k_total + 4, 40, k_total))
        queries = np.vstack([db.payload[5:8], pack(random_codes(k_total + 5, 4, k_total)).payload])
        block = distances_to_all(queries, db)
        assert block.shape == (7, 40)
        for q, row in zip(queries, block):
            np.testing.assert_array_equal(distances_to_all(q[None], db)[0], row)
            assert [int(d) for d in row] == [hamming_distance(q, db.payload[j]) for j in range(40)]

    def test_one_dimensional_query_rejected(self):
        db = pack(random_codes(3, 5, 16))
        with pytest.raises(ValueError, match="query row width does not match database"):
            distances_to_all(db.payload[0], db)


def cut_path_always(monkeypatch):
    """Send every search_topk call, whatever n and k, down the cut path."""
    monkeypatch.setattr(adsq.codes, "FULL_SORT_MAX_ROWS", 0)
    monkeypatch.setattr(adsq.codes, "CUT_ROWS_PER_K", 0)


class TestSearchByCut(TestSearch):
    """Every ``TestSearch`` case again, with every search on the cut path."""

    @pytest.fixture(autouse=True)
    def cut_always(self, monkeypatch):
        cut_path_always(monkeypatch)


class TestCutSelection:
    @pytest.mark.parametrize("k_total", [7, 64, 65, 300])
    def test_matches_lexsort_with_heavy_ties(self, monkeypatch, k_total):
        cut_path_always(monkeypatch)
        n = 500
        codes = tied_codes(k_total, n, k_total, distinct=6)
        db = pack(codes)
        for query in (codes[3], random_codes(k_total + 5, 1, k_total)[0]):
            expect = (k_total - (codes @ query).astype(np.int64)) // 2
            order = np.lexsort((np.arange(n), expect))
            qrow = pack(query[None, :]).payload[0]
            for k in (0, 1, 100, n):
                got = search_topk(qrow, db, k)
                np.testing.assert_array_equal(got, order[:k])
                assert got.base is None

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_matches_lexsort_at_the_row_crossover(self, offset):
        n = adsq.codes.FULL_SORT_MAX_ROWS + offset
        codes = tied_codes(n, n, 64, distinct=40)
        db = pack(codes)
        query = random_codes(offset + 2, 1, 64)[0]
        expect = (64 - (codes @ query).astype(np.int64)) // 2
        order = np.lexsort((np.arange(n), expect))
        qrow = pack(query[None, :]).payload[0]
        # n // CUT_ROWS_PER_K is the largest k on the cut path above the row crossover
        per_k = adsq.codes.CUT_ROWS_PER_K
        for k in (0, 1, 100, n // per_k, n // per_k + 1, n):
            got = search_topk(qrow, db, k)
            np.testing.assert_array_equal(got, order[:k])
            assert got.shape == (k,) and got.base is None


def assert_search_matches_lexsort(query, codes, ks):
    """search_topk on the packed ``codes`` gives the (distance, index) order
    of the +-1 ``codes`` for each k in ``ks``, in an array it owns."""
    n, k_total = codes.shape
    expect = (k_total - (codes @ query).astype(np.int64)) // 2
    order = np.lexsort((np.arange(n), expect))
    db, qrow = pack(codes), pack(query[None, :]).payload[0]
    for k in ks:
        got = search_topk(qrow, db, k)
        np.testing.assert_array_equal(got, order[:k])
        assert got.base is None


def flipped(query, counts, seed):
    """One row per entry of ``counts``: ``query`` with that many of its bits
    negated, at random positions."""
    rng = np.random.default_rng(seed)
    rows = np.tile(query, (len(counts), 1))
    for row, count in zip(rows, counts):
        row[rng.permutation(query.size)[:count]] *= -1
    return rows


class TestGallopingCut:
    """The cut path gallops up from the nearest distance, then bisects."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 40), k_total=st.integers(1, 300),
           distinct=st.sampled_from([None, 1, 2, 4]), query_row=st.booleans())
    def test_matches_lexsort_for_every_k(self, seed, n, k_total, distinct, query_row):
        codes = (random_codes(seed, n, k_total) if distinct is None
                 else tied_codes(seed, n, k_total, distinct))
        query = codes[seed % n] if query_row else random_codes(seed + 1, 1, k_total)[0]
        with pytest.MonkeyPatch.context() as mp:
            cut_path_always(mp)
            assert_search_matches_lexsort(query, codes, range(n + 1))

    @pytest.mark.parametrize("d0", [1, 5, 40])
    def test_every_row_far_from_the_query(self, monkeypatch, d0):
        cut_path_always(monkeypatch)
        query = random_codes(d0, 1, 64)[0]
        codes = flipped(query, d0 + np.random.default_rng(d0).integers(0, 64 - d0, 50), d0)
        assert_search_matches_lexsort(query, codes, range(51))

    @pytest.mark.parametrize("k_total", [8, 64, 65])
    def test_k_at_the_count_of_nearest_rows(self, monkeypatch, k_total):
        cut_path_always(monkeypatch)
        query = random_codes(k_total, 1, k_total)[0]
        codes = flipped(query, [3, 2, 5, 2, 4, 2, 7, 3], k_total)  # three rows at the minimum, 2
        assert_search_matches_lexsort(query, codes, [3, 4])

    @pytest.mark.parametrize("d", [0, 3, 64])
    def test_all_rows_tied(self, monkeypatch, d):
        cut_path_always(monkeypatch)
        query = random_codes(d, 1, 64)[0]
        codes = np.tile(flipped(query, [d], d), (30, 1))
        assert_search_matches_lexsort(query, codes, range(31))

    @pytest.mark.parametrize("k_total", [1, 7, 64, 300])
    def test_cut_at_k_total(self, monkeypatch, k_total):
        # the last rows are the query's complement, so k = n cuts at k_total
        cut_path_always(monkeypatch)
        query = random_codes(k_total, 1, k_total)[0]
        codes = np.concatenate([flipped(query, [0, 1 % k_total, 0], k_total),
                                np.tile(-query, (4, 1))])
        assert_search_matches_lexsort(query, codes, [3, 4, 6, 7])

    def test_clustered_codes_at_the_real_constants(self):
        """100k rows of 64-bit codes around a few centres, like trained
        codes: the cut sits a few bits above the nearest row."""
        rng = np.random.default_rng(3)
        n = 100_000
        centres = rng.random((6, 64)) < 0.5
        bits = centres[rng.integers(0, 6, n + 1)] ^ (rng.random((n + 1, 64)) < 0.05)
        db = PackedCodes(n=n, k_total=64, payload=np.packbits(bits[:n], axis=1))
        for q in (bits[7], bits[n], rng.random(64) < 0.5):
            dist = np.count_nonzero(bits[:n] != q, axis=1)
            order = np.lexsort((np.arange(n), dist))
            for k in (1, 100, n // adsq.codes.CUT_ROWS_PER_K):
                got = search_topk(np.packbits(q), db, k)
                np.testing.assert_array_equal(got, order[:k])
                assert got.base is None


class TestCodesFile:
    def test_round_trip(self, tmp_path):
        packed = pack(random_codes(4, 10, 11))
        path = tmp_path / "c.adsqb"
        write_codes(path, packed)
        loaded = load_codes(path)
        assert loaded.n == 10 and loaded.k_total == 11
        np.testing.assert_array_equal(loaded.payload, packed.payload)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.adsqb"
        path.write_bytes(b"XXXXXXXX" + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_codes(path)

    def test_truncated(self, tmp_path):
        packed = pack(random_codes(5, 4, 16))
        path = tmp_path / "t.adsqb"
        write_codes(path, packed)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError):
            load_codes(path)

    def test_zero_bit_file_rejected(self, tmp_path):
        path = tmp_path / "z.adsqb"
        path.write_bytes(b"ADSQB001" + np.array([3, 0], dtype="<u4").tobytes())
        with pytest.raises(FormatError, match="k_total must be at least 1"):
            load_codes(path)

    def test_nonzero_padding_rejected(self, tmp_path):
        path = tmp_path / "p.adsqb"
        blob = b"ADSQB001" + np.array([1, 3], dtype="<u4").tobytes() + bytes([0b10100001])
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="padding"):
            load_codes(path)
