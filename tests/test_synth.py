import numpy as np
import pytest

from adsq.data import Dataset, build_similarity
from adsq.synth import SynthSpec, generate
from memtrace import traced_peak


def spec_with(**kw):
    base = dict(classes=3, dim=8, per_class=12, queries_per_class=4, seed=5)
    base.update(kw)
    return SynthSpec(**base)


def test_deterministic_per_seed():
    a_train, a_query = generate(spec_with())
    b_train, b_query = generate(spec_with())
    np.testing.assert_array_equal(a_train.features, b_train.features)
    np.testing.assert_array_equal(a_query.features, b_query.features)
    np.testing.assert_array_equal(a_train.labels, b_train.labels)


def test_different_seed_differs():
    a_train, _ = generate(spec_with(seed=1))
    b_train, _ = generate(spec_with(seed=2))
    assert not np.array_equal(a_train.features, b_train.features)


def test_splits_disjoint():
    train, query = generate(spec_with())
    # continuous Gaussian draws: identical rows across splits would be a bug
    joined = np.vstack([train.features, query.features])
    assert np.unique(joined, axis=0).shape[0] == joined.shape[0]


def test_shapes_and_nonzero_label_rows():
    train, query = generate(spec_with(multilabel_overlap=0.4))
    assert train.features.shape == (36, 8)
    assert query.features.shape == (12, 8)
    assert np.all(train.labels.sum(axis=1) >= 1)
    assert np.all(query.labels.sum(axis=1) >= 1)


def test_single_label_similarity_is_block_diagonal():
    train, _ = generate(spec_with(multilabel_overlap=0.0))
    sim = build_similarity(train.labels)
    expect = np.kron(np.eye(3, dtype=np.int8), np.ones((12, 12), dtype=np.int8))
    np.testing.assert_array_equal(sim, expect)


def test_overlap_adds_second_labels():
    train, _ = generate(spec_with(multilabel_overlap=1.0, seed=9))
    assert np.all(train.labels.sum(axis=1) == 2)
    train0, _ = generate(spec_with(multilabel_overlap=0.0, seed=9))
    assert np.all(train0.labels.sum(axis=1) == 1)


def test_tiny_spread_clusters_at_centers():
    """With spread -> 0 every item sits on its class center, so
    nearest-center classification is exact."""
    spec = spec_with(cluster_spread=1e-9, seed=3)
    train, query = generate(spec)
    centers = np.stack([train.features[train.labels[:, c] == 1].mean(axis=0)
                        for c in range(spec.classes)])
    d = ((query.features[:, None, :] - centers[None, :, :])**2).sum(axis=2)
    assigned = d.argmin(axis=1)
    truth = query.labels.argmax(axis=1)
    np.testing.assert_array_equal(assigned, truth)


@pytest.mark.parametrize("field", ["dim", "per_class", "queries_per_class"])
@pytest.mark.parametrize("value", [0, -1])
def test_sizes_below_one_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=f"{field} must be at least 1"):
        spec_with(**{field: value})


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        spec_with(classes=1)
    with pytest.raises(ValueError):
        spec_with(cluster_spread=0.0)
    with pytest.raises(ValueError):
        spec_with(multilabel_overlap=1.5)


def reference_generate(spec):
    """``generate`` with one extra label set per item in a Python loop; the
    same random draws in the same order."""
    rng = np.random.default_rng(spec.seed)
    centers = rng.uniform(-1.0, 1.0, size=(spec.classes, spec.dim))
    splits = []
    for per_class in (spec.per_class, spec.queries_per_class):
        feats, labels = [], []
        for cls in range(spec.classes):
            feats.append(centers[cls] + rng.normal(0.0, spec.cluster_spread,
                                                   size=(per_class, spec.dim)))
            lab = np.zeros((per_class, spec.classes), dtype=np.int8)
            lab[:, cls] = 1
            if spec.multilabel_overlap > 0:
                gains = rng.random(per_class) < spec.multilabel_overlap
                extra = rng.integers(0, spec.classes - 1, size=per_class)
                for i in range(per_class):
                    if gains[i]:
                        lab[i, extra[i] + (extra[i] >= cls)] = 1
            labels.append(lab)
        splits.append(Dataset(features=np.vstack(feats), labels=np.vstack(labels)))
    return tuple(splits)


@pytest.mark.parametrize("seed", [0, 17])
@pytest.mark.parametrize("overlap", [0.0, 0.3, 1.0])
def test_matches_per_item_reference(seed, overlap):
    spec = spec_with(classes=5, per_class=40, queries_per_class=9,
                     multilabel_overlap=overlap, seed=seed)
    for got, want in zip(generate(spec), reference_generate(spec)):
        np.testing.assert_array_equal(got.features, want.features)
        np.testing.assert_array_equal(got.labels, want.labels)
        assert got.labels.dtype == want.labels.dtype


def test_generate_fills_one_array_per_split():
    """At the retrieve-100k benchmark's shape, no second copy of the
    training features is made: no per-class parts joined at the end."""
    spec = SynthSpec(classes=21, dim=32, per_class=4810, queries_per_class=10,
                     multilabel_overlap=0.3, seed=1)
    (train, _), peak = traced_peak(generate, spec)
    assert peak < 1.5 * train.features.nbytes
