"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Training runs are shared through a session fixture so
the end-to-end, ablation, and determinism criteria reuse work.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from adsq.bstep import bstep_objective, compute_P, update_column
from adsq.codes import encode_matrix, pack
from adsq.config import HyperParams, Variant
from adsq.data import LabelPatterns
from adsq.encoder import NetOutputs, init_params
from adsq.imgnet import imgnet_grads
from adsq.labelnet import ClassifierHead, labelnet_grad
from adsq.metrics import RelevanceJudge, evaluate
from adsq.synth import SynthSpec, generate
from adsq.trainer import save_run, subseed, train
from fdcheck import (batch_dataset, batch_label_loss, batch_objective, fd_grad,
                     labels_for_similarity, max_rel_error, random_similarity)
from oracles import oracle_mean_ap, oracle_ph2, oracle_pn, oracle_pr, random_case
from references import hamming_distance

GRAD_TOL = 1e-5
ORACLE_TOL = 1e-12

FIXTURE_HP = dict(k_half=8, encoder_hidden=(64,), semantic_dim=32)


def report(num, name, ok, detail):
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def fixture_spec(seed):
    return SynthSpec(classes=4, dim=32, per_class=100, queries_per_class=25,
                     cluster_spread=0.5, center_scale=1.0, seed=seed)


def run_fixture(variant, seed):
    """Train one fixture configuration; returns state, mAP@100, seconds."""
    train_split, query_split = generate(fixture_spec(seed))
    judge = RelevanceJudge(query_labels=query_split.labels, db_labels=train_split.labels)
    hp = HyperParams(seed=seed, variant=variant, **FIXTURE_HP)
    t0 = time.perf_counter()
    state = train(train_split, hp)
    db = encode_matrix(train_split.features, state.imgx_params, state.imgy_params)
    queries = encode_matrix(query_split.features, state.imgx_params, state.imgy_params)
    score = evaluate(queries, db, judge, map_r=100).map
    return state, score, time.perf_counter() - t0


@pytest.fixture(scope="session")
def fixture_runs():
    runs = {}
    for variant, seed in itertools.product(("full", "no-both", "no-asym"), (7, 8, 9)):
        runs[(variant, seed)] = run_fixture(variant, seed)
    return runs


# ----------------------------------------------------------------- 1


def test_criterion_1_imgnet_gradient_fidelity():
    """Analytic image-objective gradient vs central finite differences of
    ``full_objective`` with the batch as the whole training set, 20 seeded
    instances x 4 ablation variants, within 1e-5, under 10 s."""
    t0 = time.perf_counter()
    worst = 0.0
    checks = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))       # batch <= 8
        k = int(rng.integers(1, 5))       # k_half <= 4
        sem = int(rng.integers(2, 5))
        hp = HyperParams(k_half=k, semantic_dim=sem, encoder_hidden=(4,),
                         alpha=1.0, beta=1.0, nu=10.0, eta=10.0)
        v = rng.uniform(-2, 2, (m, k))
        r_img = rng.normal(0, 1, (m, sem))
        r_sup = rng.normal(0, 1, (m, sem))
        w_sup = np.tanh(rng.normal(0, 1, (m, k)))
        codes = np.where(rng.random((m, k)) < 0.5, -1.0, 1.0)
        s_bin, s_signed = random_similarity(rng, m)
        dataset = batch_dataset(s_bin)

        def batch():
            return (NetOutputs(r=r_img, u=np.tanh(v)), NetOutputs(r=r_sup, u=w_sup),
                    codes, s_bin)

        for variant in (Variant.FULL, Variant.NO_ASYM, Variant.NO_SEM, Variant.NO_BOTH):
            hp_v = replace(hp, variant=variant)
            g_r, g_v = imgnet_grads(*batch(), hp_v)
            fd_v = fd_grad(lambda: sum(batch_objective(*batch(), hp_v, dataset).values()), v)
            fd_r = fd_grad(lambda: sum(batch_objective(*batch(), hp_v, dataset).values()), r_img)
            worst = max(worst, max_rel_error(g_v, fd_v))
            if np.any(fd_r) or np.any(g_r):
                worst = max(worst, max_rel_error(g_r, fd_r))
            checks += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= GRAD_TOL and elapsed < 10.0
    report(1, "image-net gradient fidelity", ok,
           f"max rel err {worst:.2e} over {checks} checks in {elapsed:.1f}s")
    assert worst <= GRAD_TOL
    assert elapsed < 10.0


# ----------------------------------------------------------------- 2


def test_criterion_2_labelnet_gradient_fidelity():
    """Same protocol for every label-objective term independently, against
    the full-set label loss with the batch as the whole set; the classifier
    targets are the labels whose shared-label similarity is the batch's."""
    t0 = time.perf_counter()
    term_configs = [dict(alpha=1, beta=0, gamma=0, delta=0),
                    dict(alpha=0, beta=1, gamma=0, delta=0),
                    dict(alpha=0, beta=0, gamma=1, delta=0),
                    dict(alpha=0, beta=0, gamma=0, delta=1),
                    dict(alpha=1, beta=1, gamma=0.01, delta=1)]
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        sem = int(rng.integers(2, 5))
        r = rng.normal(0, 1, (m, sem))
        # keep code magnitudes away from the regularizer kinks at 0 and 1
        omega = rng.uniform(0.05, 0.95, (m, k)) * np.where(rng.random((m, k)) < 0.5, -1, 1)
        s_bin, _ = random_similarity(rng, m)
        labels = labels_for_similarity(s_bin)
        classes = labels.shape[1]
        head = ClassifierHead(weight=rng.normal(0, 0.4, (classes, k)),
                              bias=rng.normal(0, 0.2, classes))
        for weights in term_configs:
            hp = HyperParams(k_half=k, semantic_dim=sem, encoder_hidden=(4,), **weights)
            outs = NetOutputs(r=r, u=omega)
            g_r, g_omega, g_head = labelnet_grad(outs, head, s_bin, labels, hp)

            def loss():
                return sum(batch_label_loss(r, omega, head, labels, hp).values())

            for arr, analytic in zip((r, omega, head.weight, head.bias),
                                     (g_r, g_omega, *g_head), strict=True):
                fd = fd_grad(loss, arr)
                if np.any(fd) or np.any(analytic):
                    worst = max(worst, max_rel_error(analytic, fd))
    elapsed = time.perf_counter() - t0
    ok = worst <= GRAD_TOL and elapsed < 10.0
    report(2, "label-net gradient fidelity", ok,
           f"max rel err {worst:.2e} in {elapsed:.1f}s")
    assert worst <= GRAD_TOL
    assert elapsed < 10.0


# ----------------------------------------------------------------- 3


def test_criterion_3_bstep_optimality():
    """50 seeded instances (n <= 10): each column update matches the
    2^n enumeration minimum and full sweeps never increase the objective."""
    t0 = time.perf_counter()
    column_checks = 0
    for seed in range(50):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, 5))
        hp = HyperParams(k_half=k, eta=float(rng.uniform(0.1, 10.0)),
                         encoder_hidden=(4,), semantic_dim=4)
        U = np.tanh(rng.normal(0, 1, (n, k)))
        s_bin, s_signed = random_similarity(rng, n)
        B = np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)
        P = compute_P(U, LabelPatterns(labels_for_similarity(s_bin)), hp)
        prev_obj = bstep_objective(U, B, s_signed, k, hp.eta)
        for sweep in range(2):
            for c in range(k):
                update_column(B, c, U, P)
                achieved = bstep_objective(U, B, s_signed, k, hp.eta)
                assert achieved <= prev_obj + 1e-9 * max(1.0, abs(prev_obj)), \
                    "objective increased"
                prev_obj = achieved
                best = min(
                    bstep_objective(U, cand_B, s_signed, k, hp.eta)
                    for cand_B in _column_candidates(B, c, n))
                assert achieved <= best + 1e-9 * max(1.0, abs(best)), \
                    f"column update misses enumeration minimum: {achieved} > {best}"
                column_checks += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report(3, "discrete-step optimality", ok,
           f"{column_checks} column updates matched enumeration in {elapsed:.1f}s")
    assert elapsed < 30.0


def _column_candidates(B, c, n):
    for cand in itertools.product((-1.0, 1.0), repeat=n):
        out = B.copy()
        out[:, c] = cand
        yield out


# ----------------------------------------------------------------- 4


def test_criterion_4_metric_oracles():
    """Every metric equals its definitional double-loop oracle to 1e-12
    on 20 random instances (n <= 50)."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        n_db = int(rng.integers(10, 51))
        n_q = int(rng.integers(2, 9))
        qc, dc, qlab, dlab = random_case(300 + seed, n_q=n_q, n_db=n_db, k=10)
        judge = RelevanceJudge(qlab, dlab)
        pq, pd = pack(qc), pack(dc)
        r_cut = int(rng.integers(1, n_db + 1))

        grid = (0.25, 0.5, 0.75, 1.0)
        n_list = [1, max(1, n_db // 3), n_db]
        # the one call `adsq eval` makes
        got = evaluate(pq, pd, judge, map_r=r_cut, recall_grid=grid, n_list=n_list)
        worst = max(worst, abs(got.map - oracle_mean_ap(qc, dc, qlab, dlab, r_cut)))
        worst = max(worst, abs(got.ph2 - oracle_ph2(qc, dc, qlab, dlab)))
        for (g1, p1), (g2, p2) in zip(got.pr, oracle_pr(qc, dc, qlab, dlab, grid),
                                      strict=True):
            assert g1 == g2
            worst = max(worst, abs(p1 - p2))
        for (n1, p1), (n2, p2) in zip(got.pn, oracle_pn(qc, dc, qlab, dlab, n_list),
                                      strict=True):
            assert n1 == n2
            worst = max(worst, abs(p1 - p2))
    elapsed = time.perf_counter() - t0
    ok = worst <= ORACLE_TOL and elapsed < 5.0
    report(4, "metric oracles", ok, f"max |diff| {worst:.2e} in {elapsed:.1f}s")
    assert worst <= ORACLE_TOL
    assert elapsed < 5.0


# ----------------------------------------------------------------- 5


def test_criterion_5_hamming_identity():
    """popcount distance == (k - <a,b>)/2 exactly for 1e4 pairs per width."""
    t0 = time.perf_counter()
    pairs_checked = 0
    for k in (8, 16, 48):
        rng = np.random.default_rng(k)
        a = np.where(rng.random((10_000, k)) < 0.5, -1.0, 1.0)
        b = np.where(rng.random((10_000, k)) < 0.5, -1.0, 1.0)
        pa, pb = pack(a), pack(b)
        dots = (a * b).sum(axis=1).astype(np.int64)
        expect = (k - dots) // 2
        got = np.array([hamming_distance(pa.payload[i], pb.payload[i]) for i in range(10_000)])
        assert np.array_equal(got, expect), f"identity violated at k={k}"
        pairs_checked += 10_000
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    report(5, "Hamming/inner-product identity", ok,
           f"{pairs_checked} pairs exact in {elapsed:.2f}s")
    assert elapsed < 1.0


# ----------------------------------------------------------------- 6


def test_criterion_6_end_to_end_separability(fixture_runs):
    """Trained full-variant codes reach mAP@100 >= 0.85 on the synthetic
    fixture while untrained random-init networks stay <= 0.45."""
    # guard: these must be the package defaults the criterion relies on
    hp = HyperParams(seed=7, **FIXTURE_HP)
    assert (hp.alpha, hp.beta, hp.gamma, hp.nu, hp.eta) == (1.0, 1.0, 1e-2, 10.0, 10.0)

    t0 = time.perf_counter()
    train_split, query_split = generate(fixture_spec(7))
    judge = RelevanceJudge(query_labels=query_split.labels, db_labels=train_split.labels)
    dims = [train_split.dim, *hp.encoder_hidden, hp.semantic_dim, hp.k_half]
    raw_x = init_params(dims, subseed(7, 2))
    raw_y = init_params(dims, subseed(7, 3))
    db0 = encode_matrix(train_split.features, raw_x, raw_y)
    q0 = encode_matrix(query_split.features, raw_x, raw_y)
    untrained = evaluate(q0, db0, judge, map_r=100).map
    overhead = time.perf_counter() - t0

    _, trained, train_seconds = fixture_runs[("full", 7)]
    elapsed = train_seconds + overhead
    ok = trained >= 0.85 and untrained <= 0.45 and elapsed < 120.0
    report(6, "end-to-end separability", ok,
           f"trained mAP@100 {trained:.3f} (>= 0.85), untrained {untrained:.3f} "
           f"(<= 0.45), {elapsed:.1f}s (< 120s)")
    assert trained >= 0.85
    assert untrained <= 0.45
    assert elapsed < 120.0


# ----------------------------------------------------------------- 7


def test_criterion_7_ablation_ordering(fixture_runs):
    """Averaged over seeds 7-9: full >= no-both and full >= no-asym."""
    means = {}
    for variant in ("full", "no-both", "no-asym"):
        means[variant] = float(np.mean([fixture_runs[(variant, s)][1]
                                        for s in (7, 8, 9)]))
    ok = means["full"] >= means["no-both"] and means["full"] >= means["no-asym"]
    report(7, "ablation ordering", ok,
           f"mAP full {means['full']:.3f} >= no-both {means['no-both']:.3f}, "
           f">= no-asym {means['no-asym']:.3f}")
    assert means["full"] >= means["no-both"]
    assert means["full"] >= means["no-asym"]


# ----------------------------------------------------------------- 8


def test_criterion_8_determinism(fixture_runs, tmp_path):
    """Two identically configured runs write bit-identical model and code
    files."""
    state_a, _, _ = fixture_runs[("full", 7)]
    state_b, _, _ = run_fixture("full", 7)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    paths_a = save_run(state_a, dir_a)
    paths_b = save_run(state_b, dir_b)
    binary = [p for p in map(str, paths_a) if not p.endswith(".csv")]
    identical = all((dir_a / name).read_bytes() == (dir_b / name).read_bytes()
                    for name in (p.rsplit("/", 1)[-1] for p in binary))
    report(8, "bitwise determinism", identical,
           f"{len(binary)} model/code files byte-identical across reruns")
    assert identical


# ----------------------------------------------------------------- 9


def test_criterion_9_numerical_robustness():
    """All loss terms stay finite with pre-activations up to 1e3 in
    magnitude, exercising the stable sigmoid/softplus paths."""
    rng = np.random.default_rng(900)
    m, k, sem = 6, 4, 5
    hp = HyperParams(k_half=k, semantic_dim=sem, encoder_hidden=(4,))
    big_v = rng.choice([-1e3, -10.0, 10.0, 1e3], size=(m, k))
    big_r = rng.choice([-1e3, -1.0, 1.0, 1e3], size=(m, sem))
    s_bin, s_signed = random_similarity(rng, m)
    codes = np.where(rng.random((m, k)) < 0.5, -1.0, 1.0)

    batch = (NetOutputs(r=big_r, u=np.tanh(big_v)),
             NetOutputs(r=big_r.copy(), u=np.tanh(big_v.copy())), codes, s_bin)
    fine = True
    for variant in (Variant.FULL, Variant.NO_ASYM, Variant.NO_SEM, Variant.NO_BOTH):
        bd = batch_objective(*batch, replace(hp, variant=variant))
        g_r, g_v = imgnet_grads(*batch, replace(hp, variant=variant))
        fine &= np.isfinite(sum(bd.values()))
        fine &= bool(np.all(np.isfinite(g_r)) and np.all(np.isfinite(g_v)))

    labels = labels_for_similarity(s_bin)
    head = ClassifierHead(weight=rng.normal(0, 0.4, (labels.shape[1], k)),
                          bias=np.zeros(labels.shape[1]))
    outs = NetOutputs(r=big_r, u=np.tanh(big_v))
    bd = batch_label_loss(outs.r, outs.u, head, labels, hp)
    g_r, g_omega, g_head = labelnet_grad(outs, head, s_bin, labels, hp)
    fine &= np.isfinite(sum(bd.values()))
    fine &= bool(all(np.all(np.isfinite(a)) for a in (g_r, g_omega, *g_head)))
    report(9, "numerical robustness", bool(fine),
           "all loss terms and gradients finite at |pre-activation| = 1e3")
    assert fine
