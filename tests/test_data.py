import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adsq.data
import adsq.encoder
from adsq.config import HyperParams
from adsq.data import (Dataset, FeatureRows, LabelPatterns, build_similarity, load_dataset,
                       load_features, load_labels, pack_label_words, write_features,
                       write_labels, FEATURE_MAGIC, LABEL_MAGIC)
from adsq.errors import DataError, FormatError
from adsq.trainer import train
from labelsets import LABEL_SET_NAMES, hand_label_sets
from memtrace import traced_peak


def random_labels(seed, n, c):
    rng = np.random.default_rng(seed)
    lab = (rng.random((n, c)) < 0.35).astype(np.int8)
    empty = lab.sum(axis=1) == 0
    lab[empty, rng.integers(0, c, int(empty.sum()))] = 1
    return lab


# ---------------------------------------------------------------- features


def test_feature_round_trip(tmp_path):
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    path = tmp_path / "f.adsqf"
    write_features(path, x)
    np.testing.assert_array_equal(load_features(path), x)


def test_feature_empty_file(tmp_path):
    path = tmp_path / "empty.adsqf"
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        load_features(path)


def test_feature_bad_magic(tmp_path):
    path = tmp_path / "bad.adsqf"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_features(path)


def test_feature_truncated_payload(tmp_path):
    path = tmp_path / "trunc.adsqf"
    # header claims 2x3 but only one row of payload follows
    blob = FEATURE_MAGIC + np.array([2, 3], dtype="<u4").tobytes()
    blob += np.zeros(3, dtype="<f4").tobytes()
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="truncated"):
        load_features(path)


def test_feature_beyond_float32_rejected_before_writing(tmp_path):
    """1e39 is finite as a double but inf as float32, the stored width:
    it must be refused, leaving neither the file nor a temp file."""
    with pytest.raises(DataError):
        write_features(tmp_path / "big.adsqf", np.array([[1e39, 0.0]]))
    assert list(tmp_path.iterdir()) == []


def test_partly_written_feature_file_leaves_nothing(tmp_path, monkeypatch):
    """A value beyond float32 in the last of several blocks is refused after
    the earlier blocks went out, leaving neither the file nor a temp file."""
    monkeypatch.setattr(adsq.encoder, "FORWARD_BLOCK_ROWS", 2)
    x = np.zeros((7, 3))
    x[-1, 0] = 1e39
    with pytest.raises(DataError, match="not finite in float32"):
        write_features(tmp_path / "big.adsqf", x)
    assert list(tmp_path.iterdir()) == []


def test_features_are_read_as_float32(tmp_path, monkeypatch):
    """``FeatureRows`` gives each block as the float32 it read, and
    ``load_features`` fills a float32 array: widening is the encoder's."""
    monkeypatch.setattr(adsq.encoder, "FORWARD_BLOCK_ROWS", 4)
    x = np.random.default_rng(0).normal(size=(10, 3)).astype(np.float32)
    path = tmp_path / "f.adsqf"
    write_features(path, x)
    with FeatureRows(path) as src:
        for rows in adsq.encoder.row_slices(len(src)):
            block = src[rows]
            assert block.dtype == np.float32
            np.testing.assert_array_equal(block, x[rows])
    loaded = load_features(path)
    assert loaded.dtype == np.float32
    np.testing.assert_array_equal(loaded, x)


def test_load_dataset_holds_the_feature_file_once(tmp_path):
    """The loaded dataset holds its features at the file's size: memory
    traced after ``load_dataset`` returns is at most 1.1 x the feature file
    plus the labels."""
    n = 4000
    write_features(tmp_path / "f.adsqf", np.random.default_rng(0).normal(size=(n, 256)))
    write_labels(tmp_path / "l.adsql", random_labels(0, n, 8))
    tracemalloc.start()
    try:
        ds = load_dataset(tmp_path / "f.adsqf", tmp_path / "l.adsql")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * os.path.getsize(tmp_path / "f.adsqf") + ds.labels.nbytes


def test_load_dataset_peaks_near_its_files(tmp_path):
    """``Dataset`` checks the features finite one ``row_slices`` block at a
    time, not through one n x dim mask, so loading peaks at most at 1.1 x
    the two files. At 16k rows the reader's block buffer is a small share."""
    n = 16_000
    files = tmp_path / "f.adsqf", tmp_path / "l.adsql"
    write_features(files[0], np.random.default_rng(0).normal(size=(n, 128)))
    write_labels(files[1], random_labels(0, n, 8))
    _, peak = traced_peak(load_dataset, *files)
    assert peak <= 1.1 * sum(map(os.path.getsize, files))


def test_write_features_holds_one_block_at_a_time(tmp_path):
    x = np.random.default_rng(0).normal(size=(20_000, 64))
    _, peak = traced_peak(write_features, tmp_path / "f.adsqf", x)
    assert peak < x.nbytes / 8
    np.testing.assert_array_equal(load_features(tmp_path / "f.adsqf"), x.astype("<f4"))


@pytest.mark.parametrize("reads, expected", [
    ([slice(0, 5), slice(0, 5)], "from row 5, not 0"),
    ([slice(5, 10)], "from row 0, not 5")], ids=["again", "ahead"])
def test_feature_rows_are_read_front_to_back(tmp_path, reads, expected):
    """A block read again or out of turn is refused, naming the file."""
    path = tmp_path / "f.adsqf"
    write_features(path, np.arange(20.0).reshape(10, 2))
    with FeatureRows(path) as x:
        for rows in reads[:-1]:
            x[rows]
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: rows are read front to back, {expected}")):
            x[reads[-1]]


def test_feature_nan_rejected(tmp_path):
    path = tmp_path / "nan.adsqf"
    blob = FEATURE_MAGIC + np.array([1, 2], dtype="<u4").tobytes()
    blob += np.array([1.0, np.nan], dtype="<f4").tobytes()
    path.write_bytes(blob)
    with pytest.raises(DataError):
        load_features(path)


# ---------------------------------------------------------------- labels


def test_label_round_trip(tmp_path):
    lab = np.array([[1, 0, 0], [0, 1, 1]], dtype=np.int8)
    path = tmp_path / "l.adsql"
    write_labels(path, lab)
    np.testing.assert_array_equal(load_labels(path), lab)


def test_label_all_zero_row(tmp_path):
    path = tmp_path / "z.adsql"
    blob = LABEL_MAGIC + np.array([2, 3], dtype="<u4").tobytes()
    blob += bytes([1, 0, 0, 0, 0, 0])
    path.write_bytes(blob)
    with pytest.raises(DataError, match="all-zero"):
        load_labels(path)


def test_label_all_zero_row_rejected_before_writing(tmp_path):
    """The writer refuses what every reader refuses, leaving neither the
    file nor a temp file."""
    with pytest.raises(DataError, match="all-zero"):
        write_labels(tmp_path / "z.adsql", [[1, 0], [0, 0]])
    assert list(tmp_path.iterdir()) == []


def test_label_out_of_range_value(tmp_path):
    path = tmp_path / "v.adsql"
    blob = LABEL_MAGIC + np.array([1, 3], dtype="<u4").tobytes()
    blob += bytes([1, 2, 0])
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        load_labels(path)


def label_blob(n, c, payload):
    return LABEL_MAGIC + np.array([n, c], dtype="<u4").tobytes() + bytes(payload)


def test_label_byte_255_rejected(tmp_path):
    path = tmp_path / "v.adsql"
    path.write_bytes(label_blob(2, 2, [1, 0, 255, 1]))
    with pytest.raises(FormatError, match="outside"):
        load_labels(path)


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
def test_label_value_outside_0_1_rejected_before_writing(tmp_path, bad):
    lab = np.array([[1.0, 0.0], [0.0, 1.0]])
    lab[1, 0] = bad
    with pytest.raises(DataError, match="must be 0 or 1"):
        write_labels(tmp_path / "v.adsql", lab)
    assert list(tmp_path.iterdir()) == []


def test_label_matrix_without_classes_is_all_zero(tmp_path):
    """An n x 0 matrix has no positive label in any row: both the writer
    and the reader refuse it as all-zero."""
    with pytest.raises(DataError, match="all-zero"):
        write_labels(tmp_path / "w.adsql", np.zeros((3, 0), dtype=np.int8))
    assert list(tmp_path.iterdir()) == []
    path = tmp_path / "r.adsql"
    path.write_bytes(label_blob(3, 0, []))
    with pytest.raises(DataError, match="all-zero"):
        load_labels(path)


# ---------------------------------------------------------------- similarity


def test_shared_label_means_similar():
    # {person, tree} vs {tree} share one label
    lab = np.array([[1, 1, 0], [0, 1, 0]], dtype=np.int8)
    sim = build_similarity(lab)
    assert sim[0, 1] == 1.0 and sim[1, 0] == 1.0


def test_disjoint_labels_dissimilar():
    lab = np.array([[1, 0], [0, 1]], dtype=np.int8)
    sim = build_similarity(lab)
    assert sim[0, 1] == 0.0


def test_diagonal_is_one():
    lab = random_labels(3, 20, 5)
    sim = build_similarity(lab)
    assert np.all(np.diag(sim) == 1.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 50), c=st.integers(1, 8))
def test_similarity_matches_brute_force(seed, n, c):
    lab = random_labels(seed, n, c)
    sim = build_similarity(lab)
    assert sim.dtype == np.float64
    for i in range(n):
        for j in range(n):
            expect = int(any(lab[i, t] and lab[j, t] for t in range(c)))
            assert sim[i, j] == expect


@given(seed=st.integers(0, 2**31 - 1))
def test_similarity_invariant_to_label_column_permutation(seed):
    rng = np.random.default_rng(seed)
    lab = random_labels(seed, 15, 6)
    perm = rng.permutation(6)
    np.testing.assert_array_equal(build_similarity(lab),
                                  build_similarity(lab[:, perm]))


def test_similarity_symmetric():
    sim = build_similarity(random_labels(9, 40, 4))
    np.testing.assert_array_equal(sim, sim.T)


def test_cross_block_matches_full_block():
    """Two label sets give the off-diagonal block of their stacked matrix."""
    a, b = random_labels(5, 7, 4), random_labels(6, 11, 4)
    full = build_similarity(np.vstack([a, b]))
    np.testing.assert_array_equal(build_similarity(a, b), full[:7, 7:])


def test_similarity_rejects_mismatched_widths():
    with pytest.raises(ValueError):
        build_similarity(np.ones((2, 3)), np.ones((2, 4)))


# ---------------------------------------------------------------- label patterns


@pytest.mark.parametrize("classes", [1, 7, 63, 64, 65, 130])
def test_label_words_hold_one_bit_per_class(classes):
    lab = random_labels(classes, 30, classes)
    words = pack_label_words(lab)
    assert words.dtype == np.uint64
    assert words.shape == (30, max(1, -(-classes // 64)))
    bits = (words[:, np.arange(64 * words.shape[1]) // 64]
            >> (np.arange(64 * words.shape[1]) % 64).astype(np.uint64)) & np.uint64(1)
    np.testing.assert_array_equal(bits[:, :classes], lab)
    assert not bits[:, classes:].any()


@pytest.mark.parametrize("classes", [0, 1, 7, 8, 21, 63, 64, 65, 130])
@pytest.mark.parametrize("n", [0, 1, 37])
def test_label_words_match_per_row_packing(classes, n):
    lab = np.random.default_rng(classes + n).integers(0, 2, (n, classes)).astype(np.int8)
    want = np.zeros((n, 8 * max(1, -(-classes // 64))), dtype=np.uint8)
    for i in range(n):
        want[i, :(classes + 7) // 8] = np.packbits(lab[i] != 0, bitorder="little")
    for labels in (lab, lab.astype(bool), np.asfortranarray(lab)):
        np.testing.assert_array_equal(pack_label_words(labels), want.view(np.uint64))


@pytest.mark.parametrize("name", LABEL_SET_NAMES)
def test_patterns_rebuild_labels(name):
    lab = hand_label_sets()[name]
    pat = LabelPatterns(lab)
    p = np.unique(lab, axis=0).shape[0]
    assert pat.rows.shape == (p, lab.shape[1]) and pat.ids.shape == (lab.shape[0],)
    np.testing.assert_array_equal(pat.rows[pat.ids], lab)
    np.testing.assert_array_equal(pat.counts, np.bincount(pat.ids, minlength=p))
    assert np.unique(pat.rows, axis=0).shape[0] == p


@pytest.mark.parametrize("name", LABEL_SET_NAMES)
def test_pattern_gather_equals_build_similarity(name, monkeypatch):
    lab = hand_label_sets()[name]
    pat = LabelPatterns(lab)
    full = build_similarity(lab)
    p = pat.counts.size
    np.testing.assert_array_equal(pat.block(pat.first), build_similarity(pat.rows))
    y = np.random.default_rng(1).normal(size=(lab.shape[0], 3))
    want = (2.0 * full - 1.0) @ y
    # one block at the default budget, then 3-row blocks, then a budget
    # below the width: 1-row blocks
    for budget, rows in ((adsq.data.BLOCK_ELEMS, p), (3 * p, min(3, p)), (p - 1, 1)):
        monkeypatch.setattr(adsq.data, "BLOCK_ELEMS", budget)
        assert max(len(range(p)[block]) for block, _ in pat.row_blocks(p)) == rows
        np.testing.assert_allclose(pat.signed(y), want, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(pat.block(np.arange(lab.shape[0])), full)
    rng = np.random.default_rng(0)
    for m in (1, 2, 5, lab.shape[0]):
        batch = rng.permutation(lab.shape[0])[:m]
        block = pat.block(batch)
        assert block.dtype == np.float64
        np.testing.assert_array_equal(block, build_similarity(lab[batch]))


@pytest.mark.parametrize("name", LABEL_SET_NAMES)
def test_pattern_sums_match_dense(name):
    lab = hand_label_sets()[name]
    pat = LabelPatterns(lab)
    x = np.random.default_rng(1).normal(size=(lab.shape[0], 3))
    onehot = np.eye(pat.rows.shape[0])[pat.ids]
    np.testing.assert_allclose(pat.sums(x), onehot.T @ x, rtol=1e-12, atol=1e-12)


def test_dataset_builds_patterns_once():
    ds = Dataset(features=np.zeros((20, 2)), labels=random_labels(2, 20, 3))
    assert ds.patterns is ds.patterns
    np.testing.assert_array_equal(ds.patterns.rows[ds.patterns.ids], ds.labels)


# ---------------------------------------------------------------- validation


def _tiny_hp(**kw):
    kw.setdefault("encoder_hidden", (4,))
    kw.setdefault("semantic_dim", 4)
    kw.setdefault("k_half", 2)
    return HyperParams(**kw)


def test_validate_clean_dataset():
    feats = np.random.default_rng(0).normal(size=(10, 3))
    labels = random_labels(0, 10, 2)
    ds = Dataset(features=feats, labels=labels.astype(np.float64))
    assert ds.labels.dtype == np.int8 and ds.features.dtype == np.float64
    np.testing.assert_array_equal(ds.labels, labels)
    np.testing.assert_array_equal(ds.features, feats)


@pytest.mark.parametrize("given, kept", [
    (np.float64, np.float64), (np.float32, np.float32), (np.float16, np.float64),
    (np.int64, np.float64)])
def test_dataset_keeps_float32_and_float64_features(given, kept):
    """Float32 and float64 features are kept as given, without a copy; any
    other dtype is converted to float64."""
    feats = (10 * np.random.default_rng(0).normal(size=(10, 3))).astype(given)
    ds = Dataset(features=feats, labels=random_labels(0, 10, 2))
    assert ds.features.dtype == kept and (ds.features is feats) == (given is kept)
    np.testing.assert_array_equal(ds.features, feats)


def test_validate_single_item():
    """One item is a legal Dataset (the objective can be evaluated on it),
    but too few rows to train on."""
    ds = Dataset(features=np.zeros((1, 3)), labels=np.ones((1, 2), dtype=np.int8))
    assert ds.n == 1
    with pytest.raises(DataError, match=r"n >= batch_size required, got n=1 < batch_size=2"):
        train(ds, _tiny_hp(batch_size=2))


def test_validate_batch_larger_than_n():
    ds = Dataset(features=np.zeros((10, 3)), labels=random_labels(1, 10, 2))
    with pytest.raises(DataError, match=r"got n=10 < batch_size=32"):
        train(ds, _tiny_hp(batch_size=32))


def test_validate_collects_multiple_violations():
    """Five faults, one DataError that names each of them."""
    feats = np.zeros((2, 3))
    feats[0, 0] = np.nan
    labels = [[257, 0], [0.5, 1], [0, 0]]
    with pytest.raises(DataError) as err:
        Dataset(features=feats, labels=labels)
    problems = str(err.value).split("; ")
    assert problems == ["feature and label row counts differ: 2 vs 3",
                        "features contain NaN or Inf",
                        "labels contain entries outside {0, 1}: [0.5, 257.0]",
                        "all-zero label rows at indices [2]"]


@pytest.mark.parametrize("features, labels, problem", [
    (np.zeros(4), np.ones((4, 2)), "features must be 2-D, got shape (4,)"),
    (np.zeros((4, 2, 1)), np.ones((4, 2)), "features must be 2-D, got shape (4, 2, 1)"),
    (np.zeros((4, 2)), np.ones(4), "labels must be 2-D, got shape (4,)")],
    ids=["1-D features", "3-D features", "1-D labels"])
def test_dataset_refuses_arrays_not_2d(features, labels, problem):
    with pytest.raises(DataError) as err:
        Dataset(features=features, labels=labels)
    assert str(err.value) == problem


@pytest.mark.parametrize("bad", [257, 0.5, -1, 2], ids=["257", "0.5", "-1", "2"])
def test_labels_are_checked_before_their_int8_cast(bad):
    """Cast to int8, an int64 257 would wrap to 1 and 0.5 would truncate to 0."""
    with pytest.raises(DataError, match=r"labels contain entries outside \{0, 1\}"):
        Dataset(features=np.zeros((3, 1)), labels=np.array([[bad, 0], [0, 1], [1, 1]]))


def test_load_dataset_refuses_row_mismatch(tmp_path):
    write_features(tmp_path / "f.adsqf", np.zeros((4, 2)))
    write_labels(tmp_path / "l.adsql", np.ones((5, 2), dtype=np.uint8))
    with pytest.raises(DataError, match="^feature and label row counts differ: 4 vs 5$"):
        load_dataset(tmp_path / "f.adsqf", tmp_path / "l.adsql")


def test_dataset_takes_stored_dtype_arrays_without_a_copy():
    """Documented: arrays already float64 / int8 are kept and frozen in
    place; a caller that writes on passes copies."""
    features, labels = np.zeros((2, 2)), np.ones((2, 1), dtype=np.int8)
    ds = Dataset(features=features, labels=labels)
    assert ds.features is features and ds.labels is labels
    assert not features.flags.writeable and not labels.flags.writeable


def test_dataset_arrays_read_only():
    ds = Dataset(features=np.zeros((2, 2)), labels=np.ones((2, 1), dtype=np.int8))
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0
