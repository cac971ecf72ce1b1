import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from adsq.bstep import bstep_objective, bstep_sweep, compute_P, update_column
from adsq.config import HyperParams
from adsq.data import LabelPatterns, build_similarity
from adsq.errors import TrainingError
from fdcheck import labels_for_similarity, random_similarity
from labelsets import LABEL_SET_NAMES, hand_label_sets


def hp_with(k, eta=10.0):
    return HyperParams(k_half=k, eta=eta, encoder_hidden=(4,), semantic_dim=4)


def patterns_for(s_signed):
    """Label patterns whose signed shared-label similarity is ``s_signed``."""
    return LabelPatterns(labels_for_similarity((s_signed + 1.0) / 2.0))


def random_instance(seed, n_max=10, k_max=4):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    hp = hp_with(k, eta=float(rng.uniform(0.1, 10.0)))
    U = np.tanh(rng.normal(0, 1, (n, k)))
    _, s_signed = random_similarity(rng, n)
    B = np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)
    return hp, U, s_signed, B


def dense_P(U, s_signed, hp):
    return -2.0 * hp.k_half * (s_signed.T @ U) - 2.0 * hp.eta * U


def sweep(B, U, similarity, hp, times):
    for _ in range(times):
        bstep_sweep(B, U, similarity, hp)


class TestComputeP:
    def test_hand_value(self):
        hp = hp_with(k=1, eta=10.0)
        P = compute_P(np.array([[0.5]]), LabelPatterns(np.ones((1, 1))), hp)
        assert P[0, 0] == pytest.approx(-11.0, abs=1e-12)

    def test_zero_outputs(self):
        hp = hp_with(k=2)
        P = compute_P(np.zeros((3, 2)),
                      patterns_for(random_similarity(np.random.default_rng(0), 3)[1]), hp)
        assert np.all(P == 0)

    def test_identity_similarity_eta_zero(self):
        """Every item alone: S_signed = 2 I - 1, so S_signed^T U = 2 U - colsum(U)."""
        hp = hp_with(k=1, eta=0.0)
        U = np.random.default_rng(1).normal(size=(4, 1))
        P = compute_P(U, LabelPatterns(np.eye(4)), hp)
        np.testing.assert_allclose(P, -2.0 * (2.0 * U - U.sum(axis=0)), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_P(np.zeros((3, 2)), LabelPatterns(np.eye(4)), hp_with(k=2))

    @pytest.mark.parametrize("name", LABEL_SET_NAMES)
    def test_patterns_match_dense_formula(self, name):
        labels = hand_label_sets()[name]
        hp = hp_with(k=3, eta=2.5)
        U = np.tanh(np.random.default_rng(2).normal(size=(labels.shape[0], 3)))
        dense = dense_P(U, 2.0 * build_similarity(labels) - 1.0, hp)
        np.testing.assert_allclose(compute_P(U, LabelPatterns(labels), hp), dense,
                                   rtol=1e-12, atol=1e-12)


class TestUpdateColumn:
    def test_hand_signs(self):
        B = np.ones((2, 1))
        col = update_column(B, 0, np.zeros((2, 1)), np.array([[-11.0], [3.0]]))
        np.testing.assert_array_equal(col, [1.0, -1.0])

    def test_zero_argument_maps_to_minus_one(self):
        B = np.ones((1, 1))
        assert update_column(B, 0, np.zeros((1, 1)), np.zeros((1, 1)))[0] == -1.0

    def test_out_of_range_column(self):
        B = np.ones((2, 2))
        with pytest.raises(IndexError):
            update_column(B, 5, np.zeros((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", range(12))
    def test_column_attains_enumeration_minimum(self, seed):
        """Every updated column ties or beats all 2^n candidate columns."""
        hp, U, s_signed, B = random_instance(seed)
        n, k = B.shape
        P = compute_P(U, patterns_for(s_signed), hp)
        for c in range(k):
            update_column(B, c, U, P)
            achieved = bstep_objective(U, B, s_signed, hp.k_half, hp.eta)
            best = min(
                bstep_objective(U, _with_column(B, c, cand), s_signed,
                                hp.k_half, hp.eta)
                for cand in itertools.product((-1.0, 1.0), repeat=n))
            assert achieved <= best + 1e-9 * max(1.0, abs(best))


def _with_column(B, c, col):
    out = B.copy()
    out[:, c] = col
    return out


class TestSweep:
    def test_consistent_fixed_point(self):
        """Codes already optimal for their own outputs stay unchanged."""
        rng = np.random.default_rng(0)
        k = 2
        hp = hp_with(k, eta=10.0)
        signs = np.where(rng.random((5, k)) < 0.5, -1.0, 1.0)
        U = 0.999 * signs
        s_signed = np.sign(signs @ signs.T + 0.5)  # consistent similarity
        B = signs.copy()
        sweep(B, U, patterns_for(s_signed), hp, 3)
        np.testing.assert_array_equal(B, signs)

    @pytest.mark.parametrize("seed", range(6))
    def test_objective_never_increases(self, seed):
        hp, U, s_signed, B = random_instance(seed, n_max=8, k_max=3)
        start = bstep_objective(U, B, s_signed, hp.k_half, hp.eta)
        sweep(B, U, patterns_for(s_signed), hp, 4)
        end = bstep_objective(U, B, s_signed, hp.k_half, hp.eta)
        assert end <= start + 1e-9 * max(1.0, abs(start))

    @pytest.mark.parametrize("name", LABEL_SET_NAMES)
    def test_patterns_sweep_like_dense(self, name):
        """Sweeps through patterns give the codes of column updates driven
        by the dense-formula P."""
        labels = hand_label_sets()[name]
        n, k = labels.shape[0], 3
        rng = np.random.default_rng(3)
        U = np.tanh(rng.normal(size=(n, k)))
        start = np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)
        by_patterns, dense = start.copy(), start.copy()
        sweep(by_patterns, U, LabelPatterns(labels), hp_with(k), 3)
        P = dense_P(U, 2.0 * build_similarity(labels) - 1.0, hp_with(k))
        for _ in range(3):
            for c in range(k):
                update_column(dense, c, U, P)
        np.testing.assert_array_equal(by_patterns, dense)

    def test_one_call_updates_each_column_once(self):
        hp, U, s_signed, B = random_instance(3)
        by_hand = B.copy()
        patterns = patterns_for(s_signed)
        P = compute_P(U, patterns, hp)
        for c in range(B.shape[1]):
            update_column(by_hand, c, U, P)
        bstep_sweep(B, U, patterns, hp)
        np.testing.assert_array_equal(B, by_hand)

    def test_idempotent_after_convergence(self):
        hp, U, s_signed, B = random_instance(4)
        patterns = patterns_for(s_signed)
        sweep(B, U, patterns, hp, 10)  # converges well before 10
        settled = B.copy()
        bstep_sweep(B, U, patterns, hp)
        np.testing.assert_array_equal(B, settled)

    def test_entries_stay_in_sign_domain(self):
        hp, U, s_signed, B = random_instance(5)
        sweep(B, U, patterns_for(s_signed), hp, 2)
        assert np.isin(B, (-1.0, 1.0)).all()

    def test_nan_output_raises_training_error(self):
        hp, U, s_signed, B = random_instance(6)
        U[0, 0] = np.nan
        with pytest.raises(TrainingError, match="non-finite"):
            bstep_sweep(B, U, patterns_for(s_signed), hp)

    def test_nan_guard_survives_optimize_flag(self):
        """The column guard is a raise, not an assert, so -O keeps it."""
        script = (
            "import numpy as np\n"
            "from adsq.bstep import bstep_sweep\n"
            "from adsq.config import HyperParams\n"
            "from adsq.data import LabelPatterns\n"
            "from adsq.errors import TrainingError\n"
            "U = np.full((3, 2), np.nan)\n"
            "hp = HyperParams(k_half=2, encoder_hidden=(4,), semantic_dim=4)\n"
            "try:\n"
            "    bstep_sweep(np.ones((3, 2)), U, LabelPatterns(np.ones((3, 1))), hp)\n"
            "except TrainingError:\n"
            "    print('raised')\n")
        paths = [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
                 os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "raised"
