import math

import numpy as np
import pytest

import adsq.data
import adsq.labelnet
from adsq.config import HyperParams
from adsq.data import Dataset
from adsq.encoder import NetOutputs, forward, init_params
from adsq.errors import TrainingError
from adsq.labelnet import (ClassifierHead, binary_reg_value, cache_supervision, init_head,
                           labelnet_grad, labelnet_loss, pairwise_nll, train_labelnet)
from fdcheck import (TOL, batch_label_loss, fd_grad, labels_for_similarity, max_rel_error,
                     random_similarity)
from memtrace import traced_peak
from netparams import copy_params, optimize, same_params

K = 3
SEM = 4
CLASSES = 2


def hp_with(**kw):
    kw.setdefault("k_half", K)
    kw.setdefault("semantic_dim", SEM)
    kw.setdefault("encoder_hidden", (5,))
    return HyperParams(**kw)


def outputs(r, omega):
    return NetOutputs(r=np.asarray(r, dtype=np.float64),
                      u=np.asarray(omega, dtype=np.float64))


def random_instance(seed, m=4):
    """Code entries sampled away from the regularizer kinks at 0 and +-1;
    the labels are those whose shared-label similarity is ``s_bin``, so
    every item is its own label pattern."""
    rng = np.random.default_rng(seed)
    r = rng.normal(0, 1, (m, SEM))
    mag = rng.uniform(0.05, 0.95, (m, K))
    omega = mag * np.where(rng.random((m, K)) < 0.5, -1.0, 1.0)
    s_bin, _ = random_similarity(rng, m)
    labels = labels_for_similarity(s_bin)
    classes = labels.shape[1]
    head = ClassifierHead(weight=rng.normal(0, 0.4, (classes, K)),
                          bias=rng.normal(0, 0.2, classes))
    return r, omega, labels, head, s_bin


class TestLossValues:
    def test_zero_point_hand_values(self):
        """Two items of one label pattern, all outputs zero, perfect
        classification: both pairwise terms are 2 ln 2, the regularizer is
        2*(k+k), the classification term 0."""
        hp = hp_with(alpha=1, beta=1, gamma=1, delta=1)
        m = 2
        label_row = np.array([1.0, 0.0])
        labels = np.tile(label_row, (m, 1))
        # zero codes + bias equal to the shared label row => exact readout
        head = ClassifierHead(weight=np.zeros((CLASSES, K)), bias=label_row.copy())
        bd = batch_label_loss(np.zeros((m, SEM)), np.zeros((m, K)), head, labels, hp)
        assert bd["sem_pair"] == pytest.approx(2 * math.log(2), abs=1e-12)
        assert bd["code_pair"] == pytest.approx(2 * math.log(2), abs=1e-12)
        assert bd["binary_reg"] == pytest.approx(2 * (K + K), abs=1e-12)
        assert bd["classify"] == 0.0

    def test_confident_similar_pair_contribution(self):
        """A similar pair at logit 10 contributes softplus(10) - 10."""
        hp = hp_with(alpha=1, beta=0, gamma=0, delta=0)
        # r chosen so 0.5 * r_i . r_j = 10 for the off-diagonal pair
        r = np.array([[np.sqrt(20.0)] + [0.0] * (SEM - 1)] * 2)
        labels = labels_for_similarity(np.ones((2, 2)))
        classes = labels.shape[1]
        bd = batch_label_loss(r, np.zeros((2, K)),
                              ClassifierHead(np.zeros((classes, K)), np.zeros(classes)),
                              labels, hp)
        expected = 2 * (math.log1p(math.exp(-10.0)))  # two ordered pairs
        assert bd["sem_pair"] == pytest.approx(expected, rel=1e-9)
        assert bd["sem_pair"] / 2 == pytest.approx(4.5398e-5, rel=1e-3)

    def test_delta_zero_ignores_labels(self):
        """Reversing the label columns keeps the similarity but moves every
        classifier target; at delta = 0 the loss does not see it."""
        hp = hp_with(delta=0.0)
        r, omega, labels, head, _ = random_instance(0)
        a = batch_label_loss(r, omega, head, labels, hp)
        b = batch_label_loss(r, omega, head, labels[:, ::-1], hp)
        assert a["classify"] == b["classify"] == 0.0
        assert sum(a.values()) == pytest.approx(sum(b.values()), rel=1e-12)

    def test_breakdown_sums_to_total(self):
        hp = hp_with()
        r, omega, labels, head, _ = random_instance(1)
        bd = batch_label_loss(r, omega, head, labels, hp)
        assert list(bd) == ["sem_pair", "code_pair", "binary_reg", "classify"]
        parts = bd["sem_pair"] + bd["code_pair"] + bd["binary_reg"] + bd["classify"]
        assert sum(bd.values()) == pytest.approx(parts, abs=1e-12)

    @pytest.mark.parametrize("row, logits", [("r", "sem_pair"), ("u", "code_pair")])
    def test_overflowing_logits_raise_training_error(self, row, logits):
        hp = hp_with()
        r, omega, labels, head, _ = random_instance(2)
        if row == "r":
            r[0] = 1e200
        else:
            omega[0] = 1e200
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingError, match=f"non-finite {logits} logits"):
            batch_label_loss(r, omega, head, labels, hp)

    @pytest.mark.parametrize("term, weight", [("sem_pair", "alpha"), ("code_pair", "beta"),
                                              ("binary_reg", "gamma"), ("classify", "delta")])
    def test_overflowing_term_is_named(self, term, weight):
        """A finite weight of 1e308 overflows its term; the error names it."""
        r, omega, labels, head, _ = random_instance(2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingError, match=f"^non-finite {term} term$"):
            batch_label_loss(r, omega, head, labels, hp_with(**{weight: 1e308}))

    def test_binary_reg_zero_iff_unit_magnitude(self):
        assert binary_reg_value(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.ones(2)) == 0.0
        assert binary_reg_value(np.array([[1.0, -0.5]]), np.ones(1)) > 0.0


class TestGradients:
    def test_zero_fixed_point(self):
        """At all-zero outputs the pairwise gradients vanish."""
        hp = hp_with(gamma=0.0, delta=0.0)
        head = ClassifierHead(np.zeros((CLASSES, K)), np.zeros(CLASSES))
        s_bin, _ = random_similarity(np.random.default_rng(0), 4)
        g_r, g_omega, _ = labelnet_grad(outputs(np.zeros((4, SEM)), np.zeros((4, K))),
                                        head, s_bin, np.eye(4, CLASSES), hp,
                                        [np.empty_like(head.weight), np.empty_like(head.bias)])
        assert np.all(g_r == 0)
        assert np.all(g_omega == 0)

    def test_classify_gradient_is_linear_residual(self):
        hp = hp_with(alpha=0, beta=0, gamma=0, delta=1.0)
        r, omega, labels, head, s_bin = random_instance(2)
        _, _, (g_head_weight, g_head_bias) = labelnet_grad(
            outputs(r, omega), head, s_bin, labels, hp,
            [np.empty_like(head.weight), np.empty_like(head.bias)])
        resid = head.predict(omega) - labels
        np.testing.assert_allclose(g_head_bias, 2 * resid.sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(g_head_weight, 2 * resid.T @ omega, rtol=1e-12)

    def test_subgradient_zero_at_unit_codes(self):
        hp = hp_with(alpha=0, beta=0, gamma=1.0, delta=0)
        omega = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])
        head = ClassifierHead(np.zeros((CLASSES, K)), np.zeros(CLASSES))
        _, g_omega, _ = labelnet_grad(outputs(np.zeros((2, SEM)), omega), head,
                                      np.ones((2, 2)), np.eye(2), hp,
                                      [np.empty_like(head.weight), np.empty_like(head.bias)])
        assert np.all(g_omega == 0)

    @pytest.mark.parametrize("weights", [
        dict(alpha=1, beta=0, gamma=0, delta=0),
        dict(alpha=0, beta=1, gamma=0, delta=0),
        dict(alpha=0, beta=0, gamma=0.7, delta=0),
        dict(alpha=0, beta=0, gamma=0, delta=1.3),
        dict(alpha=1, beta=1, gamma=0.01, delta=1),
    ], ids=["sem", "code", "reg", "classify", "all"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_finite_differences(self, weights, seed):
        """The batch gradient is the exact gradient of the full-set loss
        with the batch as the whole set."""
        hp = hp_with(**weights)
        r, omega, labels, head, s_bin = random_instance(seed)
        g_r, g_omega, g_head = labelnet_grad(outputs(r, omega), head, s_bin, labels, hp,
                                             [np.empty_like(head.weight),
                                              np.empty_like(head.bias)])

        def loss():
            return sum(batch_label_loss(r, omega, head, labels, hp).values())

        for arr, analytic in zip((r, omega, head.weight, head.bias), (g_r, g_omega, *g_head),
                                 strict=True):
            assert max_rel_error(analytic, fd_grad(loss, arr)) <= TOL


def test_pairwise_loss_decreases_as_shared_direction_grows():
    """All pairs similar, no regularizers: scaling a common positive
    direction up pushes every logit higher and the loss strictly down."""
    hp = hp_with(alpha=1, beta=1, gamma=0, delta=0)
    head = ClassifierHead(np.zeros((CLASSES, K)), np.zeros(CLASSES))
    d_r = np.full(SEM, 0.5)
    d_w = np.full(K, 0.2)
    labels = np.ones((3, CLASSES))
    losses = []
    for t in (1.0, 2.0, 4.0):
        r, omega = np.tile(t * d_r, (3, 1)), np.tile(np.tanh(t * d_w), (3, 1))
        losses.append(sum(batch_label_loss(r, omega, head, labels, hp).values()))
    assert losses[0] > losses[1] > losses[2]


# ---------------------------------------------------------------- training


def toy_dataset(seed=0, n=24):
    """Two well-separated classes keyed directly off the labels."""
    rng = np.random.default_rng(seed)
    labels = np.zeros((n, CLASSES), dtype=np.int8)
    labels[: n // 2, 0] = 1
    labels[n // 2:, 1] = 1
    feats = rng.normal(0, 1, (n, 3))
    return Dataset(features=feats, labels=labels)


def phase_setup(seed=0):
    ds = toy_dataset(seed)
    hp = hp_with(batch_size=8, seed=seed)
    params = init_params([CLASSES, 5, SEM, K], seed=seed)
    head = init_head(CLASSES, K, seed + 1)
    return ds, hp, params, head


def run_phase(ds, hp, params, head, *, epochs, lr, seed):
    optimizer = optimize(params, hp, head)
    return train_labelnet(params, head, ds, hp, epochs=epochs, lr=lr,
                          rng=np.random.default_rng(seed), optimizer=optimizer)


def test_head_shares_the_label_network_buffer():
    """The label network's weights, biases and both head arrays are views of
    its optimizer's one buffer, and a phase steps them there."""
    ds, hp, params, head = phase_setup(2)
    optimizer = optimize(params, hp, head)
    arrays = params.arrays + [head.weight, head.bias]
    assert all(np.shares_memory(a, optimizer.flat) for a in arrays)
    assert optimizer.flat.size == sum(a.size for a in arrays)
    head_before = head.weight.copy()
    train_labelnet(params, head, ds, hp, epochs=1, lr=1e-3, rng=np.random.default_rng(2),
                   optimizer=optimizer)
    assert not np.array_equal(head.weight, head_before)
    assert optimizer.flat.tobytes() == b"".join(a.tobytes() for a in arrays)


@pytest.mark.parametrize("which", [0, 1], ids=["weight", "bias"])
def test_nan_in_head_gradient_changes_nothing(monkeypatch, which):
    """A NaN in either head gradient view stops the step before one
    parameter or velocity byte moves."""
    ds, hp, params, head = phase_setup(4)
    optimizer = optimize(params, hp, head)

    def epoch():
        train_labelnet(params, head, ds, hp, epochs=1, lr=1e-3,
                       rng=np.random.default_rng(4), optimizer=optimizer)

    epoch()  # nonzero velocity
    before = optimizer.flat.tobytes(), optimizer.flat_velocity.tobytes()
    real = adsq.labelnet.labelnet_grad

    def poisoned(*args):
        g_r, g_omega, g_head = real(*args)
        g_head[which].flat[-1] = np.nan
        return g_r, g_omega, g_head

    monkeypatch.setattr(adsq.labelnet, "labelnet_grad", poisoned)
    with pytest.raises(TrainingError, match="non-finite gradient"):
        epoch()
    assert (optimizer.flat.tobytes(), optimizer.flat_velocity.tobytes()) == before


def full_set_loss(ds, hp, params, head):
    return sum(labelnet_loss(cache_supervision(params, ds), head, ds.patterns, hp).values())


def test_zero_epochs_leaves_params_and_still_caches():
    ds, hp, params, head = phase_setup()
    before = copy_params(params)
    sup = run_phase(ds, hp, params, head, epochs=0, lr=1e-3, seed=0)
    assert same_params(params, before)
    p = ds.patterns.counts.size
    assert sup.r.shape == (p, SEM) and sup.u.shape == (p, K)
    # gathered by pattern id, the rows equal the n-row forward bit for bit
    outs = forward(params, ds.labels.astype(np.float64))
    np.testing.assert_array_equal(sup.r[ds.patterns.ids], outs.r)
    np.testing.assert_array_equal(sup.u[ds.patterns.ids], outs.u)


def test_fixed_seed_reproduces_trajectory():
    runs = []
    for _ in range(2):
        ds, hp, params, head = phase_setup(3)
        sup = run_phase(ds, hp, params, head, epochs=5, lr=1e-4, seed=42)
        runs.append((params, head, sup))
    (pa, ha, sa), (pb, hb, sb) = runs
    assert same_params(pa, pb)
    assert np.array_equal(ha.weight, hb.weight) and np.array_equal(ha.bias, hb.bias)
    assert np.array_equal(sa.r, sb.r) and np.array_equal(sa.u, sb.u)


def test_loss_descends_on_separable_toy():
    ds, hp, params, head = phase_setup(1)
    before = full_set_loss(ds, hp, params, head)
    run_phase(ds, hp, params, head, epochs=50, lr=1e-4, seed=7)
    assert full_set_loss(ds, hp, params, head) < before


def test_pairwise_nll_peak_is_a_few_blocks_not_pattern_by_item():
    """Every label row distinct (p = n = 3000): one call's traced peak is a
    few blocks of ``BLOCK_ELEMS`` entries plus O(n k), far below the 72 MB of
    one p x n float64 array."""
    n, k = 3000, 8
    labels = ((np.arange(1, n + 1)[:, None] >> np.arange(12)) & 1).astype(np.int8)
    pat = Dataset(features=np.zeros((n, 1)), labels=labels).patterns
    assert pat.counts.size == n
    rng = np.random.default_rng(0)
    sup, img = rng.normal(size=(n, k)), rng.normal(size=(n, k))
    bound = 40 * adsq.data.BLOCK_ELEMS + 16 * n * (k + 8)
    assert 4 * bound < 8 * n * n
    value, peak = traced_peak(pairwise_nll, sup, img, pat, "code_pair")
    assert math.isfinite(value) and value > 0 and peak <= bound
