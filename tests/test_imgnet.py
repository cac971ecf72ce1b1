from dataclasses import replace

import numpy as np
import pytest

import adsq.data
import adsq.imgnet
import adsq.labelnet
from adsq.config import HyperParams, Variant
from adsq.data import Dataset, LabelPatterns, build_similarity
from adsq.encoder import MomentumSGD, NetOutputs, forward, init_params
from adsq.errors import TrainingError
from adsq.imgnet import full_objective, imgnet_grads, wstep_epoch
from adsq.labelnet import iter_batches
from adsq.numerics import bernoulli_nll
from fdcheck import (TOL, batch_dataset, batch_objective, fd_grad, labels_for_similarity,
                     max_rel_error, random_similarity)
from labelsets import LABEL_SET_NAMES, hand_label_sets
from netparams import copy_params, same_params
from test_trainer import assert_label_row_matches_dense_reference

VARIANTS = [Variant.FULL, Variant.NO_ASYM, Variant.NO_SEM, Variant.NO_BOTH]


def make_instance(seed, m=4, k=3, sem=5, **hp_kw):
    rng = np.random.default_rng(seed)
    hp_kw.setdefault("k_half", k)
    hp_kw.setdefault("semantic_dim", sem)
    hp_kw.setdefault("encoder_hidden", (4,))
    hp = HyperParams(**hp_kw)
    v = rng.uniform(-2, 2, (m, k))
    r_img = rng.normal(0, 1, (m, sem))
    r_sup = rng.normal(0, 1, (m, sem))
    w_sup = np.tanh(rng.normal(0, 1, (m, k)))
    codes = np.where(rng.random((m, k)) < 0.5, -1.0, 1.0)
    s_bin, _ = random_similarity(rng, m)
    return hp, v, r_img, r_sup, w_sup, codes, s_bin


def ctx_from(v, r_img, r_sup, w_sup, codes, s_bin):
    """What ``imgnet_grads`` takes: (outs, sup, codes, s_bin)."""
    return NetOutputs(r=r_img, u=np.tanh(v)), NetOutputs(r=r_sup, u=w_sup), codes, s_bin


def as_variant(hp, variant):
    return replace(hp, variant=variant)


class TestLossValues:
    def test_quant_term_near_codes(self):
        """u = 0.999 B gives a quantization term of batch*k*1e-6 (eta=1)."""
        hp, *_ = make_instance(0, eta=1.0, alpha=0, beta=0, nu=0, variant="no-both")
        m, k = 2, 3
        codes = np.ones((m, k))
        v = np.arctanh(0.999 * codes)
        batch = ctx_from(v, np.zeros((m, 5)), np.zeros((m, 5)), np.zeros((m, k)),
                         codes, random_similarity(np.random.default_rng(0), m)[0])
        bd = batch_objective(*batch, hp)
        assert bd["quant"] == pytest.approx(m * k * 1e-6, rel=1e-9)

    def test_balance_zero_for_balanced_bits(self):
        hp, *_ = make_instance(0, nu=1.0, alpha=0, beta=0, eta=0, variant="no-both")
        u = np.array([[0.9, -0.9], [-0.9, 0.9]])
        batch = ctx_from(np.arctanh(u), np.zeros((2, 5)), np.zeros((2, 5)),
                         np.zeros((2, 2)), np.ones((2, 2)),
                         random_similarity(np.random.default_rng(1), 2)[0])
        assert batch_objective(*batch, hp)["balance"] == 0.0

    def test_asym_hand_value(self):
        """Single item, one bit: (0.5*1 - 1*1)^2 = 0.25."""
        hp = HyperParams(k_half=1, alpha=0, beta=0, eta=0, nu=0,
                         encoder_hidden=(4,), semantic_dim=2)
        batch = ctx_from(np.array([[np.arctanh(0.5)]]), np.zeros((1, 2)),
                         np.zeros((1, 2)), np.zeros((1, 1)),
                         np.array([[1.0]]), np.array([[1.0]]))
        assert batch_objective(*batch, hp)["asym"] == pytest.approx(0.25, rel=1e-12)

    def test_signed_target_for_dissimilar_pairs(self):
        """A dissimilar pair is pulled toward inner product -k, not 0."""
        hp = HyperParams(k_half=2, alpha=0, beta=0, eta=0, nu=0,
                         encoder_hidden=(4,), semantic_dim=2)
        codes = np.array([[1.0, 1.0], [-1.0, -1.0]])
        u = 0.999 * codes
        s_bin = np.eye(2)
        batch = ctx_from(np.arctanh(u), np.zeros((2, 2)), np.zeros((2, 2)),
                         np.zeros((2, 2)), codes, s_bin)
        # opposite codes hit the -k target almost exactly
        assert batch_objective(*batch, hp)["asym"] < 0.01

    @pytest.mark.parametrize("row, logits", [("r", "sem_pair"), ("u", "code_pair")])
    def test_overflowing_logits_raise_training_error(self, row, logits):
        hp, *inst = make_instance(7)
        outs, sup, codes, s_bin = ctx_from(*inst)
        if row == "r":
            outs.r[1] = 1e200
            sup.r[1] = 1e200
        else:
            outs.u[1] = 1e200
            sup.u[1] = 1e200
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingError, match=f"non-finite {logits} logits"):
            batch_objective(outs, sup, codes, s_bin, hp)

    @pytest.mark.parametrize("term, weight", [("sem_pair", "alpha"), ("code_pair", "beta"),
                                              ("quant", "eta"), ("balance", "nu")])
    def test_overflowing_term_is_named(self, term, weight):
        """A finite weight of 1e308 overflows its term; the error names it."""
        hp, *inst = make_instance(7, **{weight: 1e308})
        outs, sup, codes, s_bin = ctx_from(*inst)
        outs.u[:] = 0.9  # bit column sums of 3.6, so the balance term exceeds 1
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingError, match=f"^non-finite {term} term$"):
            batch_objective(outs, sup, codes, s_bin, hp)

    def test_overflowing_asym_term_is_named(self):
        """The asymmetric term has no weight: outputs equal to codes of size
        1e160 whose bit columns sum to zero overflow it alone."""
        hp, *inst = make_instance(7)
        outs, sup, codes, s_bin = ctx_from(*inst)
        codes[:] = 1e160 * np.array([[1.0], [-1.0], [1.0], [-1.0]])
        outs.u[:] = codes
        sup.u[:] = 0.0
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingError, match="^non-finite asym term$"):
            batch_objective(outs, sup, codes, s_bin, hp)

    def test_first_bad_term_in_column_order_is_named(self):
        hp, *inst = make_instance(7, alpha=1e308, eta=1e308)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingError, match="^non-finite sem_pair term$"):
            batch_objective(*ctx_from(*inst), hp)

    def test_breakdown_sums_to_total(self):
        hp, *inst = make_instance(5)
        for variant in VARIANTS:
            bd = batch_objective(*ctx_from(*inst), as_variant(hp, variant))
            assert list(bd) == ["sem_pair", "code_pair", "quant", "balance", "asym"]
            parts = bd["sem_pair"] + bd["code_pair"] + bd["quant"] + bd["balance"] + bd["asym"]
            assert sum(bd.values()) == pytest.approx(parts, abs=1e-12)

    def test_masked_terms_report_zero(self):
        hp, *inst = make_instance(6)
        batch = ctx_from(*inst)
        assert batch_objective(*batch, as_variant(hp, Variant.NO_ASYM))["asym"] == 0.0
        assert batch_objective(*batch, as_variant(hp, Variant.NO_SEM))["sem_pair"] == 0.0
        bd = batch_objective(*batch, as_variant(hp, Variant.NO_BOTH))
        assert bd["asym"] == 0.0 and bd["sem_pair"] == 0.0

    def test_exact_codes_make_asym_definitional(self):
        """With u forced to +-1 the term equals the double sum of squared
        inner-product errors and vanishes iff U B^T reproduces k * S."""
        hp = HyperParams(k_half=2, alpha=0, beta=0, eta=0, nu=0,
                         encoder_hidden=(4,), semantic_dim=2)
        rng = np.random.default_rng(8)
        m, k = 4, 2
        # rows drawn from {c, -c}: every inner product is +-k, so S is {0,1}
        c = np.where(rng.random(k) < 0.5, -1.0, 1.0)
        u_exact = np.where(rng.random((m, 1)) < 0.5, -1.0, 1.0) * c
        s_signed = (u_exact @ u_exact.T) / k  # consistent by construction
        sup = NetOutputs(r=np.zeros((m, 2)), u=np.zeros((m, k)))
        s_bin = (s_signed + 1) / 2
        assert batch_objective(NetOutputs(r=np.zeros((m, 2)), u=u_exact), sup, u_exact, s_bin,
                               hp)["asym"] == 0.0
        brute = sum((float(u_exact[i] @ u_exact[j]) - k * s_signed[i, j])**2
                    for i in range(m) for j in range(m))
        assert brute == 0.0
        # flipping one bit breaks the reproduction and the term grows
        u_off = u_exact.copy()
        u_off[0, 0] *= -1
        off = batch_objective(NetOutputs(r=np.zeros((m, 2)), u=u_off), sup, u_exact, s_bin,
                              hp)["asym"]
        brute_off = sum((float(u_off[i] @ u_exact[j]) - k * s_signed[i, j])**2
                        for i in range(m) for j in range(m))
        assert off > 0.0
        assert off == pytest.approx(brute_off, rel=1e-12)


class TestGradients:
    def test_reduces_to_quant_pull(self):
        """Pairwise and balance terms off: gradient is 2 eta (u-b)(1-u^2)."""
        hp, *_ = make_instance(0, alpha=0, beta=0, nu=0, eta=10.0, variant="no-both")
        m, k = 3, 3
        codes = np.where(np.random.default_rng(2).random((m, k)) < 0.5, -1.0, 1.0)
        u = 0.999 * codes
        batch = ctx_from(np.arctanh(u), np.zeros((m, 5)), np.zeros((m, 5)),
                         np.zeros((m, k)), codes,
                         random_similarity(np.random.default_rng(3), m)[0])
        g = imgnet_grads(*batch, hp)[1]
        np.testing.assert_allclose(g, 2 * hp.eta * (u - codes) * (1 - u**2), rtol=1e-9)

    def test_zero_outputs_pull_toward_codes(self):
        hp, *_ = make_instance(0, alpha=0, beta=0, nu=0, eta=10.0, variant="no-both")
        m, k = 3, 3
        codes = np.where(np.random.default_rng(4).random((m, k)) < 0.5, -1.0, 1.0)
        batch = ctx_from(np.zeros((m, k)), np.zeros((m, 5)), np.zeros((m, 5)),
                         np.zeros((m, k)), codes,
                         random_similarity(np.random.default_rng(5), m)[0])
        np.testing.assert_allclose(imgnet_grads(*batch, hp)[1],
                                   -2 * hp.eta * codes, rtol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS, ids=[v.value for v in VARIANTS])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, variant, seed):
        hp, v, r_img, r_sup, w_sup, codes, s_bin = make_instance(seed, variant=variant)
        g_r, g_v = imgnet_grads(*ctx_from(v, r_img, r_sup, w_sup, codes, s_bin), hp)
        ds = batch_dataset(s_bin)

        def loss():
            terms = batch_objective(*ctx_from(v, r_img, r_sup, w_sup, codes, s_bin), hp, ds)
            return sum(terms.values())

        assert max_rel_error(g_v, fd_grad(loss, v)) <= TOL
        assert max_rel_error(g_r, fd_grad(loss, r_img)) <= TOL


def test_labels_for_similarity_reproduce_it():
    """Each item is its own label pattern, and the patterns' similarity
    is the one asked for."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        m = int(rng.integers(1, 11))
        s, _ = random_similarity(rng, m)
        pat = LabelPatterns(labels_for_similarity(s))
        assert pat.counts.size == m
        np.testing.assert_array_equal(pat.block(np.arange(m)), s)


# ---------------------------------------------------------------- w-step


def wstep_setup(seed=0, n=30, dim=6, k=3, sem=4):
    rng = np.random.default_rng(seed)
    labels = np.zeros((n, 2), dtype=np.int8)
    labels[: n // 2, 0] = 1
    labels[n // 2:, 1] = 1
    feats = labels.astype(float) @ np.array([[1.0] * 3 + [0.0] * 3,
                                             [0.0] * 3 + [1.0] * 3]) \
        + 0.3 * rng.normal(size=(n, dim))
    ds = Dataset(features=feats, labels=labels)
    hp = HyperParams(k_half=k, semantic_dim=sem, encoder_hidden=(6,),
                     batch_size=10, seed=seed)
    params = init_params([dim, 6, sem, k], seed=seed)
    sup = random_supervision(rng, ds, sem, k)
    codes = np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)
    return ds, hp, params, sup, codes


def random_supervision(rng, ds, sem, k):
    """Random label-network outputs, one row per label pattern of ``ds``."""
    p = ds.patterns.counts.size
    return NetOutputs(r=rng.normal(0, 1, (p, sem)), u=np.tanh(rng.normal(0, 1, (p, k))))


def sgd(params, hp):
    return MomentumSGD(params.arrays, hp.momentum, hp.weight_decay)


def test_zero_epochs_no_change():
    ds, hp, params, sup, codes = wstep_setup()
    before = copy_params(params)
    # no call at all is the 0-epoch case in the trainer; one epoch must move
    assert same_params(params, before)
    wstep_epoch(params, ds, codes, sup, hp,
                lr=1e-5, rng=np.random.default_rng(0), optimizer=sgd(params, hp))
    assert not same_params(params, before)


def test_epoch_descends_full_objective():
    ds, hp, params, sup, codes = wstep_setup(1)
    before = sum(full_objective(forward(params, ds.features), ds, codes, sup, hp).values())
    wstep_epoch(params, ds, codes, sup, hp,
                lr=1e-6, rng=np.random.default_rng(1), optimizer=sgd(params, hp))
    after = sum(full_objective(forward(params, ds.features), ds, codes, sup, hp).values())
    assert after < before


def test_two_networks_diverge_with_different_seeds():
    ds, hp, params_x, sup, codes = wstep_setup(2)
    params_y = init_params([ds.dim, 6, hp.semantic_dim, hp.k_half], seed=999)
    for params, rng_seed in ((params_x, 10), (params_y, 11)):
        wstep_epoch(params, ds, codes, sup, hp,
                    lr=1e-5, rng=np.random.default_rng(rng_seed), optimizer=sgd(params, hp))
    ux = forward(params_x, ds.features).u
    uy = forward(params_y, ds.features).u
    assert not np.allclose(ux, uy)


def test_wstep_epoch_aligns_rows(monkeypatch):
    """Each batch's supervision, code and similarity rows reach
    ``imgnet_grads`` in the batch's own item order."""
    ds, hp, params, sup, codes = wstep_setup(3)
    seen = []
    real = adsq.imgnet.imgnet_grads

    def record(outs, batch_sup, batch_codes, sim_binary, batch_hp):
        seen.append((len(outs.u), batch_sup, batch_codes, sim_binary))
        return real(outs, batch_sup, batch_codes, sim_binary, batch_hp)

    monkeypatch.setattr(adsq.imgnet, "imgnet_grads", record)
    wstep_epoch(params, ds, codes, sup, hp,
                lr=1e-5, rng=np.random.default_rng(4), optimizer=sgd(params, hp))
    batches = list(iter_batches(ds.n, hp.batch_size, np.random.default_rng(4)))
    assert len(seen) == len(batches) > 1
    for batch, (rows, batch_sup, batch_codes, sim_binary) in zip(batches, seen):
        pid = ds.patterns.ids[batch]
        assert rows == len(batch)
        np.testing.assert_array_equal(batch_sup.r, sup.r[pid])
        np.testing.assert_array_equal(batch_sup.u, sup.u[pid])
        np.testing.assert_array_equal(batch_codes, codes[batch])
        np.testing.assert_array_equal(sim_binary, build_similarity(ds.labels[batch]))


def test_no_sem_variant_in_hp_drops_sem_term_everywhere():
    """The variant comes from ``hp`` alone: the objective of one batch taken
    as the whole set and that of the full set both drop the semantic term
    and keep the asymmetric one."""
    ds, hp, params, sup, codes = wstep_setup(9)
    hp = as_variant(hp, "no-sem")
    batch = np.arange(8)
    outs = forward(params, ds.features[batch])
    pid = ds.patterns.ids[batch]
    batch_sup = NetOutputs(r=sup.r[pid], u=sup.u[pid])
    for bd in (batch_objective(outs, batch_sup, codes[batch], ds.patterns.block(batch), hp),
               full_objective(forward(params, ds.features), ds, codes, sup, hp)):
        assert bd["sem_pair"] == 0.0 and bd["asym"] > 0.0


# ---------------------------------------------------------------- full objective


def dense_full_objective(params, ds, codes, sup, hp):
    """Reference: every term over the n x n similarity, pairs i != j for
    the likelihoods and all pairs for the asymmetric fit."""
    v = hp.variant
    outs = forward(params, ds.features)
    u, B = outs.u, codes
    s = build_similarity(ds.labels)
    off = ~np.eye(ds.n, dtype=bool)

    def nll(sup_rows, img_rows):
        logits = 0.5 * (sup_rows @ img_rows.T)
        return float((np.logaddexp(0.0, logits) - s * logits)[off].sum())

    return {"sem_pair": v.keeps_sem * hp.alpha * nll(sup.r, outs.r),
            "code_pair": hp.beta * nll(sup.u, u),
            "quant": hp.eta * float(((u - B)**2).sum()),
            "balance": hp.nu * float((u.sum(axis=0)**2).sum()),
            "asym": v.keeps_asym * float(((u @ B.T - B.shape[1] * (2 * s - 1))**2).sum())}


def assert_matches_dense_reference(name, variant):
    labels = hand_label_sets()[name]
    n, k, sem = labels.shape[0], 3, 4
    rng = np.random.default_rng(11)
    ds = Dataset(features=rng.normal(size=(n, 5)), labels=labels)
    hp = HyperParams(k_half=k, semantic_dim=sem, encoder_hidden=(6,), nu=0.3,
                     variant=variant)
    params = init_params([5, 6, sem, k], seed=4)
    sup = random_supervision(rng, ds, sem, k)
    codes = np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)
    got = full_objective(forward(params, ds.features), ds, codes, sup, hp)
    # the reference takes one supervision row per item
    per_item = NetOutputs(r=sup.r[ds.patterns.ids], u=sup.u[ds.patterns.ids])
    for term, want in dense_full_objective(params, ds, codes, per_item, hp).items():
        value = got[term]
        assert type(value) is float, term
        if want == 0.0:
            assert value == 0.0, term
        else:
            assert value == pytest.approx(want, rel=1e-10), term


@pytest.mark.parametrize("variant", list(Variant), ids=[v.value for v in Variant])
@pytest.mark.parametrize("name", LABEL_SET_NAMES)
def test_full_objective_matches_dense_reference(name, variant):
    assert_matches_dense_reference(name, variant)


@pytest.mark.parametrize("variant", [*Variant, None],
                         ids=[*(v.value for v in Variant), "label-row"])
def test_full_objective_in_row_blocks_matches_dense_reference(variant, monkeypatch):
    """Every label row distinct (p = n), summed in blocks of 3 pattern rows
    and a last block of 1: each image-objective variant, and (``None``) the
    label loss's log row, which shares the pairwise-likelihood kernel."""
    n = hand_label_sets()["distinct"].shape[0]
    monkeypatch.setattr(adsq.data, "BLOCK_ELEMS", 3 * n)
    shapes = []

    def recording(x, s, scratch, out):
        shapes.append(np.shape(x))
        return bernoulli_nll(x, s, scratch, out)

    monkeypatch.setattr(adsq.labelnet, "bernoulli_nll", recording)
    if variant is None:
        assert_label_row_matches_dense_reference("distinct")
    else:
        assert_matches_dense_reference("distinct", variant)
    assert {s for s in shapes if len(s) == 2} == {(3, n), (1, n)}
