import sys
import warnings
from collections import Counter

import numpy as np
import pytest

import adsq.data
import adsq.encoder
import adsq.imgnet
import adsq.labelnet
import adsq.numerics
import adsq.trainer
from adsq.codes import encode_matrix
from adsq.config import HyperParams, Variant
from adsq.data import Dataset, build_similarity
from adsq.encoder import MomentumSGD, forward, init_params
from adsq.errors import DataError, TrainingError
from adsq.imgnet import wstep_epoch
from adsq.labelnet import cache_supervision, init_head, labelnet_loss, train_labelnet
from adsq.synth import SynthSpec, generate
from adsq.trainer import log_row, save_run, subseed, train
from labelsets import LABEL_SET_NAMES, hand_label_sets
from memtrace import traced_peak
from netparams import optimize, same_params
from references import quantize_sign, unpack

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
        assert s1.log_rows == s2.log_rows

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

    def test_bstep_rows_one_per_network_and_round(self, tiny_data):
        """The bstep rows, one per network and round, span ``rounds_run`` rounds."""
        state, hp = run_tiny(tiny_data)
        rounds = [r.round for r in state.log_rows if r.phase.startswith("bstep")]
        assert rounds == [rnd for rnd in range(state.rounds_run) for _ in "xy"]
        assert state.rounds_run == hp.outer_rounds

    def test_flat_objective_runs_every_round(self, tiny_data):
        """A learning rate too small to move any weight leaves the B-step
        objective flat after a few rounds; the run still takes every round."""
        state, hp = run_tiny(tiny_data, outer_rounds=8, lr_min=1e-300, lr_max=1e-300)
        phases = Counter(r.phase.split("_")[0] for r in state.log_rows)
        assert state.rounds_run == hp.outer_rounds == 8
        assert phases["label"] == 8 and phases["bstep"] == 16

    def test_zero_outputs_warm_start_as_plus_one(self, tiny_data):
        """sign(0) = +1: all-zero features make every untrained output exactly
        0, and with no rounds the codes stay the warm start's."""
        ds, _ = tiny_data
        zero = Dataset(features=np.zeros_like(ds.features), labels=ds.labels)
        state = train(zero, HyperParams(**{**TINY, "outer_rounds": 0}))
        assert not forward(state.imgx_params, zero.features).u.any()
        assert (state.codes_x == 1.0).all() and (state.codes_y == 1.0).all()

    def test_masked_term_absent_from_log(self, tiny_data):
        state, _ = run_tiny(tiny_data, variant="no-asym")
        img_rows = [r for r in state.log_rows if r.phase.startswith(("wstep", "bstep"))]
        assert img_rows and all(r.asym == 0.0 for r in img_rows)
        state, _ = run_tiny(tiny_data, variant="no-both")
        img_rows = [r for r in state.log_rows if r.phase.startswith(("wstep", "bstep"))]
        assert all(r.asym == 0.0 and r.j1 == 0.0 for r in img_rows)

    def test_label_network_trains_every_round(self, tiny_data):
        state, _ = run_tiny(tiny_data, outer_rounds=3)
        assert state.rounds_run == 3
        assert [r.round for r in state.log_rows if r.phase == "label"] == [0, 1, 2]

    def test_rejects_invalid_dataset(self, tiny_data):
        ds, _ = tiny_data
        hp = HyperParams(**{**TINY, "batch_size": 512})
        with pytest.raises(DataError, match="batch_size"):
            train(ds, hp)


    def test_divergence_reports_round_and_phase(self, tiny_data):
        """Overflowing logits fail as a TrainingError naming where, not as
        a bare ValueError from the softplus kernel nor as numpy's overflow
        warning raised as an error."""
        ds, _ = tiny_data
        huge = Dataset(features=ds.features * 1e150, labels=ds.labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError,
                               match="^round 0, phase wstep_x: non-finite sem_pair logits$"):
                train(huge, HyperParams(**TINY))

    @pytest.mark.parametrize("seed", range(4))
    def test_overflowing_warm_start_names_the_network(self, seed):
        """Untrained outputs that overflow fail the warm start of the codes
        as a TrainingError naming network x, not as a bare ValueError.
        ``adsq train`` cannot reach this: its float32 feature files cap at
        3.4e38, and with these settings a file of 3e38 features fails later,
        as "round 0, phase wstep_x: non-finite sem_pair logits"."""
        rng = np.random.default_rng(seed)
        features = np.clip(rng.normal(size=(100, 32)), -1, 1) * 1.7e308
        ds = Dataset(features=features, labels=np.eye(4, dtype=np.int8)[np.arange(100) % 4])
        hp = HyperParams(encoder_hidden=(16,), semantic_dim=8, k_half=4, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError,
                               match="^non-finite warm-start outputs of network x$"):
                train(ds, hp)


def one_epoch(phase, ds, hp):
    """An optimizer over fresh networks and a call that runs one epoch of
    ``phase`` ("label" or "wstep_x") with it over ``ds``."""
    label = init_params([ds.num_classes, *hp.encoder_hidden, hp.semantic_dim, hp.k_half], 0)
    lr, rng = hp.lr_for_round(0), np.random.default_rng(0)
    if phase == "label":
        head = init_head(ds.num_classes, hp.k_half, 1)
        opt = optimize(label, hp, head)
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
    before = [a.tobytes() for a in opt.arrays + [opt.flat_velocity]]
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: poison(real(*args)))
    with pytest.raises(TrainingError, match="non-finite gradient"):
        run_epoch()
    assert [a.tobytes() for a in opt.arrays + [opt.flat_velocity]] == before
    with pytest.raises(TrainingError, match=f"round 0, phase {phase}: non-finite gradient"):
        train(ds, hp)


def test_each_network_is_one_buffer_of_its_optimizer(tiny_data, monkeypatch):
    """Every weight and bias of each trained network, and both arrays of the
    label network's head, are views of that network's optimizer buffer,
    which no other network's arrays touch."""
    seen = {}
    real_label, real_wstep = adsq.trainer.train_labelnet, adsq.trainer.wstep_epoch

    def label(params, head, *args, optimizer, **kwargs):
        seen["label"] = params.arrays + [head.weight, head.bias], optimizer
        return real_label(params, head, *args, optimizer=optimizer, **kwargs)

    def wstep(params, *args, optimizer, **kwargs):
        seen[id(params)] = params.arrays, optimizer
        return real_wstep(params, *args, optimizer=optimizer, **kwargs)

    monkeypatch.setattr(adsq.trainer, "train_labelnet", label)
    monkeypatch.setattr(adsq.trainer, "wstep_epoch", wstep)
    state, _ = run_tiny(tiny_data)
    assert len(seen) == 3
    buffers = [opt.flat for _, opt in seen.values()]
    for arrays, opt in seen.values():
        assert opt.flat.size == sum(a.size for a in arrays)
        assert all(np.shares_memory(a, opt.flat) for a in arrays)
        assert not any(np.shares_memory(a, b) for a in arrays for b in buffers
                       if b is not opt.flat)
    trained = [state.label_params.arrays, state.imgx_params.arrays, state.imgy_params.arrays]
    held = [arrays for arrays, _ in seen.values()]
    for mine, theirs in zip(trained, held):
        assert all(a is b for a, b in zip(mine, theirs))


def everything(state):
    """The bytes of a run's codes and parameters, and its log rows."""
    arrays = [state.codes_x, state.codes_y]
    for name in ("label_params", "imgx_params", "imgy_params"):
        arrays += getattr(state, name).arrays
    return [a.tobytes() for a in arrays], [repr(row) for row in state.log_rows]


def test_runs_in_one_process_are_independent(tiny_data):
    """Seed 1, seed 2, then seed 1 again in one process: the two seed-1 runs
    give byte-identical codes, parameters and log rows, so no buffer is
    shared across runs or networks."""
    first, other, again = (run_tiny(tiny_data, seed=seed)[0] for seed in (1, 2, 1))
    assert not np.array_equal(first.codes_x, other.codes_x)
    assert everything(first) == everything(again)


def test_float32_features_train_as_their_float64_widening(tiny_data, monkeypatch):
    """A float32 ``Dataset`` keeps its features as given and trains to the
    very parameters, codes and log rows of the same values in float64: the
    encoder widens each batch and block exactly (blocks of 16 rows here)."""
    monkeypatch.setattr(adsq.encoder, "FORWARD_BLOCK_ROWS", 16)
    src = tiny_data[0]
    f32 = src.features.astype(np.float32)
    narrow = Dataset(features=f32, labels=src.labels)
    wide = Dataset(features=f32.astype(np.float64), labels=src.labels)
    assert narrow.features is f32 and wide.features.dtype == np.float64
    hp = HyperParams(**TINY)
    assert everything(train(narrow, hp)) == everything(train(wide, hp))


# Traced peak of the wide train below at the parent of the one-buffer
# optimizer, whose step took per-step gradient arrays.
WIDE_PEAK_BEFORE = 31873742


def test_wide_train_traced_peak_stays_put():
    """A wide network's gradient buffer lives for one phase: a buffer kept
    for the optimizer's life adds one network's size to the peak."""
    ds, _ = generate(SynthSpec(classes=10, dim=512, per_class=30, queries_per_class=1, seed=4))
    hp = HyperParams(k_half=16, encoder_hidden=(512, 512), semantic_dim=128, t_label=1,
                     outer_rounds=1, seed=4)
    state, peak = traced_peak(train, ds, hp)
    assert state.rounds_run == 1 and ds.n == 300
    assert peak <= 1.02 * WIDE_PEAK_BEFORE


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
    dist = np.abs(np.abs(u) - 1.0)
    return {"j1": hp.alpha * nll(outs.r), "j2": hp.beta * nll(u),
            "j3": hp.gamma * 2.0 * (lab.shape[0] - 1) * float(dist.sum()),
            "j4": hp.delta * float(((head.predict(u) - lab)**2).sum())}


def assert_label_row_matches_dense_reference(name):
    labels = hand_label_sets()[name]
    n, classes = labels.shape
    hp = HyperParams(k_half=3, semantic_dim=4, encoder_hidden=(6,))
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


@pytest.mark.parametrize("name", LABEL_SET_NAMES)
def test_label_row_matches_dense_reference(name):
    assert_label_row_matches_dense_reference(name)


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


def record_softplus(monkeypatch):
    """Lists of the sizes of the logits that ``bernoulli_nll``, the one
    softplus kernel, receives: 1-D for the own pairs, 2-D for the pattern x
    item blocks."""
    own, blocks = [], []
    original = adsq.numerics.bernoulli_nll

    def recording(x, *rest):
        (own if np.ndim(x) == 1 else blocks).append(np.size(x))
        return original(x, *rest)

    patch_everywhere(monkeypatch, "bernoulli_nll", original, recording)
    return own, blocks


def test_training_softplus_sees_no_item_pair_array(tiny_data, monkeypatch):
    """The pairwise likelihoods run over pattern x item logits in the
    full-set objective and in the label row, so no array softplus receives
    holds more than p x n entries."""
    own, blocks = record_softplus(monkeypatch)
    ds, _ = tiny_data
    p = ds.patterns.counts.size
    assert 2 <= p < ds.n
    train(ds, HyperParams(**TINY))
    assert own and blocks and max(own + blocks) <= p * ds.n


def test_training_similarity_and_softplus_blocks_stay_within_budget(monkeypatch):
    """Every label row distinct (p = n) and a budget of three pattern rows:
    no similarity block and no array softplus receives during training
    holds more than max(BLOCK_ELEMS, batch_size^2) entries."""
    labels = hand_label_sets()["distinct"]
    n = labels.shape[0]
    monkeypatch.setattr(adsq.data, "BLOCK_ELEMS", 3 * n)
    kernel = adsq.data.share_labels
    sizes = []

    def recording_kernel(words_a, words_b):
        block = kernel(words_a, words_b)
        sizes.append(block.size)
        return block

    patch_everywhere(monkeypatch, "share_labels", kernel, recording_kernel)
    own, blocks = record_softplus(monkeypatch)
    ds = Dataset(features=np.random.default_rng(0).normal(size=(n, 5)), labels=labels)
    hp = HyperParams(**TINY)
    assert ds.patterns.counts.size == n and hp.batch_size**2 < n * n
    train(ds, hp)
    # every logits block is seen: three pattern rows, then the last one
    assert set(blocks) == {3 * n, n} and own
    sizes += own + blocks
    assert sizes and max(sizes) <= max(adsq.data.BLOCK_ELEMS, hp.batch_size**2)


@pytest.mark.parametrize("variant", ["full", "sym"])
def test_training_computes_each_quantity_once(tiny_data, monkeypatch, variant):
    """Over a whole run: one encoder forward per SGD step (backward reuses
    it), one image objective per log row and none during SGD (the whole one
    for a wstep row, its code terms alone for a bstep row), one label loss
    per label phase (its log row), and one full-set forward per image
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
                                ("recoded_objective", adsq.imgnet, None),
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
    for key in ("full_objective", "recoded_objective"):
        assert calls[key, "train"] == nets * state.rounds_run, key
        assert sum(n for (k, _), n in calls.items() if k == key) == calls[key, "train"], key
    assert calls["labelnet_loss", "train"] == label_phases
    assert calls["labelnet_loss", "label"] == 0
    # plus the warm start of the codes before round 0
    assert sum(n for (key, _), n in calls.items() if key == "full-set image forward") \
        == nets * (state.rounds_run + 1)


@pytest.mark.parametrize("variant", ["full", "no-sem", "sym"])
def test_pairwise_nll_runs_per_round(tiny_data, monkeypatch, variant):
    """Each round's label row takes two pairwise likelihoods and each wstep
    row one per likelihood term its variant keeps; a bstep row takes none,
    so a round runs 2 x nets + 2 of them in the full variant, not 4 x nets + 2."""
    events = []
    nll, row = adsq.labelnet.pairwise_nll, adsq.trainer.log_row

    def counting_nll(*args):
        events.append("nll")
        return nll(*args)

    def counting_row(rnd, phase, terms):
        events.append((rnd, phase))
        return row(rnd, phase, terms)

    patch_everywhere(monkeypatch, "pairwise_nll", nll, counting_nll)
    monkeypatch.setattr(adsq.trainer, "log_row", counting_row)
    state = train(tiny_data[0], HyperParams(**{**TINY, "variant": variant}))
    assert state.rounds_run == TINY["outer_rounds"] == 2

    per_row, pending = Counter(), 0
    for event in events:  # each call counts toward the next log row
        if event == "nll":
            pending += 1
        else:
            per_row[event], pending = pending, 0
    assert pending == 0
    nets = 1 if variant == "sym" else 2
    likelihoods = 1 if variant == "no-sem" else 2  # per wstep row
    tags = ["x"] if nets == 1 else ["x", "y"]
    for rnd in range(state.rounds_run):
        assert per_row[rnd, "label"] == 2
        for tag in tags:
            assert (per_row[rnd, f"wstep_{tag}"], per_row[rnd, f"bstep_{tag}"]) == (likelihoods, 0)
        assert sum(n for (r, _), n in per_row.items() if r == rnd) == 2 + nets * likelihoods
    if variant == "full":
        assert sum(per_row.values()) == (2 * nets + 2) * state.rounds_run


@pytest.mark.parametrize("variant", list(Variant), ids=[v.value for v in Variant])
def test_bstep_row_equals_a_fresh_full_objective(tiny_data, monkeypatch, variant):
    """Every bstep row's terms, the three taken from the wstep row as well as
    the two recomputed, equal a fresh full-set evaluation bit for bit."""
    full, recoded = adsq.imgnet.full_objective, adsq.imgnet.recoded_objective
    sups, checked = [], []

    def recording_full(outs, dataset, codes, sup, hp):
        sups.append(sup)
        return full(outs, dataset, codes, sup, hp)

    def checking_recoded(terms, outs, dataset, codes, hp):
        got = recoded(terms, outs, dataset, codes, hp)
        fresh = full(outs, dataset, codes, sups[-1], hp)
        assert list(got) == list(fresh)
        assert [np.float64(v).tobytes() for v in got.values()] == \
            [np.float64(v).tobytes() for v in fresh.values()]
        checked.append(got)
        return got

    patch_everywhere(monkeypatch, "full_objective", full, recording_full)
    patch_everywhere(monkeypatch, "recoded_objective", recoded, checking_recoded)
    state = train(tiny_data[0], HyperParams(**{**TINY, "variant": variant}))
    bstep_rows = [r for r in state.log_rows if r.phase.startswith("bstep")]
    assert len(checked) == len(bstep_rows) > 0
    # the codes moved, so the recomputed terms are the new codes' own
    assert any(r.j3 != w.j3 for r, w in zip(bstep_rows, (r for r in state.log_rows
                                                         if r.phase.startswith("wstep"))))


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
        grid = [hp.lr_for_round(i) for i in range(7)]
        assert grid[0] == pytest.approx(1e-5)
        assert grid[-1] == pytest.approx(1e-2)
        ratios = [b / a for a, b in zip(grid[:-1], grid[1:])]
        assert all(r == pytest.approx(np.sqrt(10.0), rel=1e-12) for r in ratios)

    def test_clamped_at_last_point(self):
        hp = HyperParams(**TINY)
        assert hp.lr_for_round(100) == pytest.approx(hp.lr_max)

    @pytest.mark.parametrize("lo, hi", [(1e-5, 1e-2), (3e-7, 3e-7)])
    def test_rates_are_the_seven_point_grid_exactly(self, lo, hi):
        """Bit for bit the grid lo * ratio**i, i < 7, clamped at its last
        point: training outputs depend on every bit of the rate."""
        hp = HyperParams(**TINY, lr_min=lo, lr_max=hi)
        ratio = (hi / lo) ** (1.0 / 6)
        grid = [lo * ratio**i for i in range(7)]
        assert [hp.lr_for_round(r) for r in range(10)] == grid + [grid[-1]] * 3

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
