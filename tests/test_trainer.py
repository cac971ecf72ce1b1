import sys
from collections import Counter

import numpy as np
import pytest

import adsq.data
import adsq.encoder
import adsq.imgnet
import adsq.labelnet
import adsq.numerics
from adsq.codes import encode_matrix, quantize_sign
from adsq.config import HyperParams, Variant
from adsq.data import Dataset, build_similarity
from adsq.encoder import MomentumSGD, forward, init_params
from adsq.errors import DataError, TrainingError
from adsq.imgnet import wstep_epoch
from adsq.labelnet import cache_supervision, init_head, labelnet_loss, train_labelnet
from adsq.synth import SynthSpec, generate
from adsq.trainer import convergence_check, log_row, save_run, subseed, train
from labelsets import LABEL_SET_NAMES, hand_label_sets
from netparams import same_params
from references import unpack

TINY = dict(k_half=4, encoder_hidden=(8,), semantic_dim=6, batch_size=8,
            t_label=4, t_img=2, outer_rounds=2, seed=3)


@pytest.fixture(scope="module")
def tiny_data():
    spec = SynthSpec(classes=3, dim=8, per_class=15, queries_per_class=4, seed=3)
    train_split, query_split = generate(spec)
    return train_split, query_split


def run_tiny(tiny_data, **overrides):
    ds, _ = tiny_data
    hp = HyperParams(**{**TINY, **overrides})
    return train(ds, hp), hp


KEPT_TERMS = {"full": {"sem_pair", "asym"}, "no-asym": {"sem_pair"}, "no-sem": {"asym"},
              "no-both": set(), "sym": {"sem_pair", "asym"}}


@pytest.mark.parametrize("variant", list(Variant), ids=[v.value for v in Variant])
def test_variant_keeps_terms(variant):
    """Which optional image terms each variant keeps; code_pair, quant and
    balance are always on and have no switch."""
    kept = {name for name, on in (("sem_pair", variant.keeps_sem),
                                  ("asym", variant.keeps_asym)) if on}
    assert kept == KEPT_TERMS[variant.value]


class TestConvergence:
    def test_flat_history_stops(self):
        assert convergence_check([100.0, 100.0], tol=1e-4, patience=1)

    def test_halving_continues(self):
        assert not convergence_check([100.0, 50.0], tol=1e-4, patience=1)

    def test_tiny_relative_change_stops(self):
        # |99.999 - 100| / 100 = 1e-5 < 1e-4
        assert convergence_check([100.0, 99.999], tol=1e-4, patience=1)

    def test_patience_requires_consecutive_quiet_rounds(self):
        assert not convergence_check([100.0, 100.0, 50.0, 50.0], tol=1e-4, patience=2)
        assert convergence_check([100.0, 50.0, 50.0, 50.0], tol=1e-4, patience=2)

    def test_single_round_never_stops(self):
        assert not convergence_check([5.0], tol=1e-4, patience=1)


class TestTrainLoop:
    def test_zero_rounds_leaves_imgnets_at_init(self, tiny_data):
        state, hp = run_tiny(tiny_data, outer_rounds=0)
        ds = tiny_data[0]
        dims = [ds.dim, *hp.encoder_hidden, hp.semantic_dim, hp.k_half]
        fresh_x = init_params(dims, subseed(hp.seed, 2))
        assert same_params(state.imgx_params, fresh_x)
        # label net did train
        fresh_label = init_params([ds.num_classes, *hp.encoder_hidden,
                                   hp.semantic_dim, hp.k_half], subseed(hp.seed, 0))
        assert not same_params(state.label_params, fresh_label)

    def test_bitwise_reproducible(self, tiny_data):
        s1, _ = run_tiny(tiny_data)
        s2, _ = run_tiny(tiny_data)
        for a, b in ((s1.imgx_params, s2.imgx_params),
                     (s1.imgy_params, s2.imgy_params),
                     (s1.label_params, s2.label_params)):
            assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
            assert all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))
        np.testing.assert_array_equal(s1.codes_x, s2.codes_x)
        np.testing.assert_array_equal(s1.codes_y, s2.codes_y)
        assert s1.history == s2.history

    def test_symmetric_variant_shares_weights(self, tiny_data):
        state, hp = run_tiny(tiny_data, variant="sym")
        assert state.imgx_params is state.imgy_params
        codes = unpack(encode_matrix(tiny_data[0].features, state.imgx_params,
                                     state.imgy_params))
        half = hp.k_half
        np.testing.assert_array_equal(codes[:, :half], codes[:, half:])

    def test_asymmetric_networks_differ(self, tiny_data):
        state, _ = run_tiny(tiny_data)
        assert not same_params(state.imgx_params, state.imgy_params)

    def test_codes_stay_sign_valued(self, tiny_data):
        state, _ = run_tiny(tiny_data)
        assert np.isin(state.codes_x, (-1.0, 1.0)).all()
        assert np.isin(state.codes_y, (-1.0, 1.0)).all()

    def test_history_one_entry_per_round(self, tiny_data):
        state, hp = run_tiny(tiny_data)
        assert len(state.history) == state.rounds_run <= hp.outer_rounds

    def test_masked_term_absent_from_log(self, tiny_data):
        state, _ = run_tiny(tiny_data, variant="no-asym")
        img_rows = [r for r in state.log_rows if r.phase.startswith(("wstep", "bstep"))]
        assert img_rows and all(r.asym == 0.0 for r in img_rows)
        state, _ = run_tiny(tiny_data, variant="no-both")
        img_rows = [r for r in state.log_rows if r.phase.startswith(("wstep", "bstep"))]
        assert all(r.asym == 0.0 and r.j1 == 0.0 for r in img_rows)

    def test_refresh_flag_controls_label_phases(self, tiny_data):
        state, _ = run_tiny(tiny_data, refresh_labelnet=True, outer_rounds=3)
        assert sum(r.phase == "label" for r in state.log_rows) == 3
        state, _ = run_tiny(tiny_data, refresh_labelnet=False, outer_rounds=3)
        assert sum(r.phase == "label" for r in state.log_rows) == 1

    def test_rejects_invalid_dataset(self, tiny_data):
        ds, _ = tiny_data
        hp = HyperParams(**{**TINY, "batch_size": 512})
        with pytest.raises(DataError, match="batch_size"):
            train(ds, hp)


    def test_divergence_reports_round_and_phase(self, tiny_data):
        """Overflowing logits fail as a TrainingError naming where, not as
        a bare ValueError from the softplus kernel."""
        ds, _ = tiny_data
        huge = Dataset(features=ds.features * 1e150, labels=ds.labels)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingError, match="round 0, phase wstep_x: non-finite"):
            train(huge, HyperParams(**TINY))


def one_epoch(phase, ds, hp):
    """An optimizer over fresh networks and a call that runs one epoch of
    ``phase`` ("label" or "wstep_x") with it over ``ds``."""
    label = init_params([ds.num_classes, *hp.encoder_hidden, hp.semantic_dim, hp.k_half], 0)
    lr, rng = hp.lr_for_round(0), np.random.default_rng(0)
    if phase == "label":
        head = init_head(ds.num_classes, hp.k_half, 1)
        opt = MomentumSGD(label.arrays + [head.weight, head.bias], hp.momentum, hp.weight_decay)
        return opt, lambda: train_labelnet(label, head, ds, hp, epochs=1, lr=lr, rng=rng,
                                           optimizer=opt)
    img = init_params([ds.dim, *hp.encoder_hidden, hp.semantic_dim, hp.k_half], 2)
    codes = quantize_sign(forward(img, ds.features).u)
    sup = cache_supervision(label, ds)
    opt = MomentumSGD(img.arrays, hp.momentum, hp.weight_decay)
    return opt, lambda: wstep_epoch(img, ds, codes, sup, hp, lr=lr, rng=rng, optimizer=opt)


def _nan_head_weight(grads):
    grads[2][0][0, 0] = np.nan
    return grads


def _nan_g_r(grads):
    grads[0][0, 0] = np.nan
    return grads


@pytest.mark.parametrize("module, name, poison, phase", [
    (adsq.labelnet, "labelnet_grad", _nan_head_weight, "label"),
    (adsq.imgnet, "imgnet_grads", _nan_g_r, "wstep_x")], ids=["label", "wstep_x"])
def test_nonfinite_gradient_stops_at_the_optimizer_step(tiny_data, monkeypatch, module, name,
                                                        poison, phase):
    """The optimizer step is the one finite check on gradients: a NaN from
    either objective fails training naming the round and phase, and the
    step that sees it moves no parameter and no velocity."""
    ds, _ = tiny_data
    hp = HyperParams(**TINY)
    opt, run_epoch = one_epoch(phase, ds, hp)
    run_epoch()  # with true gradients, so the velocity is not all zero
    before = [a.tobytes() for a in opt.arrays + opt.velocity]
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: poison(real(*args)))
    with pytest.raises(TrainingError, match="non-finite gradient"):
        run_epoch()
    assert [a.tobytes() for a in opt.arrays + opt.velocity] == before
    with pytest.raises(TrainingError, match=f"round 0, phase {phase}: non-finite gradient"):
        train(ds, hp)


def dense_label_row(labels, params, head, hp):
    """Reference: the label loss over all n items and their n x n similarity."""
    lab = labels.astype(np.float64)
    outs = forward(params, lab)
    s = build_similarity(lab)
    off = ~np.eye(lab.shape[0], dtype=bool)

    def nll(rows):
        logits = 0.5 * (rows @ rows.T)
        return float((np.logaddexp(0.0, logits) - s * logits)[off].sum())

    u = outs.u
    dist = np.abs(u - 1.0) if hp.j3_literal else np.abs(np.abs(u) - 1.0)
    return {"j1": hp.alpha * nll(outs.r), "j2": hp.beta * nll(u),
            "j3": hp.gamma * 2.0 * (lab.shape[0] - 1) * float(dist.sum()),
            "j4": hp.delta * float(((head.predict(u) - lab)**2).sum())}


def assert_label_row_matches_dense_reference(name, literal):
    labels = hand_label_sets()[name]
    n, classes = labels.shape
    hp = HyperParams(k_half=3, semantic_dim=4, encoder_hidden=(6,), j3_literal=literal)
    params = init_params([classes, 6, 4, 3], seed=5)
    head = init_head(classes, 3, seed=6)
    ds = Dataset(features=np.zeros((n, 2)), labels=labels)
    row = log_row(2, "label",
                  labelnet_loss(cache_supervision(params, ds), head, ds.patterns, hp))
    want = dense_label_row(labels, params, head, hp)
    for term, value in want.items():
        assert getattr(row, term) == pytest.approx(value, rel=1e-10), term
    assert row.loss_total == pytest.approx(sum(want.values()), rel=1e-10)
    # the log writes repr() of each value, so they must be plain floats
    assert all(type(getattr(row, term)) is float for term in ("loss_total", *want))
    assert (row.round, row.phase, row.asym) == (2, "label", 0.0)


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("name", LABEL_SET_NAMES)
def test_label_row_matches_dense_reference(name, literal):
    assert_label_row_matches_dense_reference(name, literal)


def patch_everywhere(monkeypatch, name, original, replacement):
    """Replace ``original`` at every adsq module attribute ``name`` holding it."""
    for mod_name, module in list(sys.modules.items()):
        if (mod_name == "adsq" or mod_name.startswith("adsq.")) and \
                getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def test_training_builds_no_similarity_wider_than_patterns(tiny_data, monkeypatch):
    """Training never calls build_similarity: every similarity it uses comes
    from the shared-label kernel on at most max(batch_size, p) label rows."""
    kernel, dense = adsq.data.share_labels, adsq.data.build_similarity
    rows, dense_calls = [], []

    def recording(words_a, words_b):
        rows.extend((len(words_a), len(words_b)))
        return kernel(words_a, words_b)

    def recording_dense(*args):
        dense_calls.append(args)
        return dense(*args)

    patch_everywhere(monkeypatch, "share_labels", kernel, recording)
    patch_everywhere(monkeypatch, "build_similarity", dense, recording_dense)
    src = tiny_data[0]
    ds = Dataset(features=src.features, labels=src.labels)  # patterns not yet built
    hp = HyperParams(**TINY)
    p = np.unique(ds.labels, axis=0).shape[0]
    assert p < hp.batch_size < ds.n
    train(ds, hp)
    assert dense_calls == []
    assert rows and max(rows) <= max(hp.batch_size, p)


def test_training_softplus_sees_no_item_pair_array(tiny_data, monkeypatch):
    """The pairwise likelihoods run over pattern x item logits in the
    full-set objective and in the label row, so no array softplus receives
    holds more than p x n entries."""
    original = adsq.numerics.softplus_stable
    sizes = []

    def recording(x):
        sizes.append(np.size(x))
        return original(x)

    patch_everywhere(monkeypatch, "softplus_stable", original, recording)
    ds, _ = tiny_data
    p = ds.patterns.counts.size
    assert 2 <= p < ds.n
    train(ds, HyperParams(**TINY))
    assert sizes and max(sizes) <= p * ds.n


def test_training_similarity_and_softplus_blocks_stay_within_budget(monkeypatch):
    """Every label row distinct (p = n) and a budget of three pattern rows:
    no similarity block and no array softplus receives during training
    holds more than max(BLOCK_ELEMS, batch_size^2) entries."""
    labels = hand_label_sets()["distinct"]
    n = labels.shape[0]
    monkeypatch.setattr(adsq.data, "BLOCK_ELEMS", 3 * n)
    kernel, softplus = adsq.data.share_labels, adsq.numerics.softplus_stable
    sizes = []

    def recording_kernel(words_a, words_b):
        block = kernel(words_a, words_b)
        sizes.append(block.size)
        return block

    def recording_softplus(x):
        sizes.append(np.size(x))
        return softplus(x)

    patch_everywhere(monkeypatch, "share_labels", kernel, recording_kernel)
    patch_everywhere(monkeypatch, "softplus_stable", softplus, recording_softplus)
    ds = Dataset(features=np.random.default_rng(0).normal(size=(n, 5)), labels=labels)
    hp = HyperParams(**TINY)
    assert ds.patterns.counts.size == n and hp.batch_size**2 < n * n
    train(ds, hp)
    assert sizes and max(sizes) <= max(adsq.data.BLOCK_ELEMS, hp.batch_size**2)


@pytest.mark.parametrize("variant", ["full", "sym"])
def test_training_computes_each_quantity_once(tiny_data, monkeypatch, variant):
    """Over a whole run: one encoder forward per SGD step (backward reuses
    it), one image objective per log row and none during SGD, one label
    loss per label phase (its log row), and one full-set forward per image
    network per round."""
    ds, _ = tiny_data
    calls = Counter()
    inside = ["train"]

    def counting(key, fn, phase=None):
        def wrapper(*args, **kwargs):
            calls[key, inside[-1]] += 1
            if key == "forward_rows" and args[1] is ds.features:
                calls["full-set image forward", inside[-1]] += 1
            inside.append(phase or inside[-1])
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    for name, module, phase in (("forward", adsq.encoder, None),
                                ("forward_rows", adsq.encoder, None),
                                ("backward", adsq.encoder, None),
                                ("full_objective", adsq.imgnet, None),
                                ("labelnet_loss", adsq.labelnet, None),
                                ("wstep_epoch", adsq.imgnet, "wstep"),
                                ("train_labelnet", adsq.labelnet, "label")):
        original = getattr(module, name)
        patch_everywhere(monkeypatch, name, original, counting(name, original, phase))
    state = train(ds, HyperParams(**{**TINY, "variant": variant}))

    label_phases = sum(r.phase == "label" for r in state.log_rows)
    nets = 1 if variant == "sym" else 2
    assert calls["backward", "wstep"] > 0 and calls["backward", "label"] > 0
    assert calls["forward", "wstep"] == calls["backward", "wstep"]
    # plus the supervision cached at the end of each label phase
    assert calls["forward", "label"] == calls["backward", "label"] + label_phases
    # a wstep and a bstep row per network and round, none inside an epoch
    assert calls["full_objective", "train"] == 2 * nets * state.rounds_run
    assert sum(n for (key, _), n in calls.items() if key == "full_objective") \
        == calls["full_objective", "train"]
    assert calls["labelnet_loss", "train"] == label_phases
    assert calls["labelnet_loss", "label"] == 0
    # plus the warm start of the codes before round 0
    assert sum(n for (key, _), n in calls.items() if key == "full-set image forward") \
        == nets * (state.rounds_run + 1)


def test_training_forwards_never_see_more_than_a_block(tiny_data, monkeypatch):
    """With blocks of five rows, no forward during training gets more rows
    than a block or an SGD batch, and the run equals the unblocked one."""
    ds, _ = tiny_data
    hp = HyperParams(**TINY)
    want = train(ds, hp)
    block, original, rows = 5, adsq.encoder.forward, []

    def recording(params, x, keep_hidden=False):
        rows.append(np.shape(x)[0])
        return original(params, x, keep_hidden)

    monkeypatch.setattr(adsq.encoder, "FORWARD_BLOCK_ROWS", block)
    patch_everywhere(monkeypatch, "forward", original, recording)
    got = train(ds, hp)
    assert ds.n > 2 * block
    assert rows and max(rows) <= max(block, hp.batch_size)
    for name in ("label_params", "imgx_params", "imgy_params"):
        assert same_params(getattr(got, name), getattr(want, name)), name
    for name in ("codes_x", "codes_y"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.log_rows == want.log_rows


class TestLrSchedule:
    def test_grid_walks_sqrt10(self):
        hp = HyperParams(**TINY)
        grid = hp.lr_grid()
        assert grid[0] == pytest.approx(1e-5)
        assert grid[-1] == pytest.approx(1e-2)
        ratios = [b / a for a, b in zip(grid[:-1], grid[1:])]
        assert all(r == pytest.approx(np.sqrt(10.0), rel=1e-12) for r in ratios)

    def test_clamped_at_last_point(self):
        hp = HyperParams(**TINY)
        assert hp.lr_for_round(100) == pytest.approx(hp.lr_max)

    def test_one_point_per_round(self):
        hp = HyperParams(**TINY)
        assert hp.lr_for_round(1) / hp.lr_for_round(0) == pytest.approx(np.sqrt(10.0))


def test_save_run_writes_expected_files(tmp_path, tiny_data):
    state, _ = run_tiny(tiny_data)
    paths = save_run(state, tmp_path / "run")
    names = sorted(p.split("/")[-1] for p in map(str, paths))
    assert names == sorted(["label.net", "imgx.net", "imgy.net",
                            "codes_x.adsqb", "codes_y.adsqb", "train_log.csv"])


def test_training_log_columns(tmp_path, tiny_data):
    state, _ = run_tiny(tiny_data)
    save_run(state, tmp_path)
    header = (tmp_path / "train_log.csv").read_text().splitlines()[0]
    assert header == "round,phase,loss_total,j1,j2,j3,j4,asym"
