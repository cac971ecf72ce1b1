import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adsq.labelnet import pair_residual
from adsq.numerics import bernoulli_nll, sigmoid_stable
from references import sigmoid_reference, softplus_stable

EDGES = [0.0, -0.0, 5e-324, 1e-300, 36.7, 37.0, 709.0, 746.0, 1e308]


class TestSigmoid:
    def test_zero(self):
        assert sigmoid_stable(0.0) == 0.5

    def test_analytic_point(self):
        # 1 / (1 + e^-ln3) = 1 / (1 + 1/3)
        assert sigmoid_stable(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_deep_negative_stays_positive(self):
        v = sigmoid_stable(-800.0)
        assert 0.0 < v <= 1e-300

    def test_deep_positive_stays_below_one(self):
        assert 0.0 < sigmoid_stable(800.0) < 1.0

    def test_no_overflow_up_to_1e4(self):
        x = np.array([-1e4, -1e3, 1e3, 1e4])
        v = sigmoid_stable(x)
        assert np.all(np.isfinite(v))
        assert np.all((v > 0) & (v < 1))

    def test_monotone(self):
        x = np.linspace(-30, 30, 2001)
        assert np.all(np.diff(sigmoid_stable(x)) >= 0)

    @given(st.floats(-50, 50))
    def test_symmetry(self, x):
        """sigma(x) + sigma(-x) = 1."""
        assert sigmoid_stable(x) + sigmoid_stable(-x) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("draw", [
    lambda: np.array(EDGES + [-e for e in EDGES]),
    lambda: 50.0 * np.random.default_rng(0).normal(size=(700, 700)),
], ids=["edges", "normal"])
def test_sigmoid_is_bit_identical_to_reference(draw):
    """At the edges of the double range, at the clamps and the branch point
    (including -0.0), and on a wide draw."""
    x = draw()
    got = sigmoid_stable(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert got.tobytes() == sigmoid_reference(x).tobytes()


@pytest.mark.parametrize("draw", [
    lambda: np.array([EDGES + [-e for e in EDGES]] * 2),
    lambda: 50.0 * np.random.default_rng(2).normal(size=(300, 700)),
], ids=["edges", "normal"])
def test_bernoulli_nll_is_bit_identical_to_softplus_form(draw):
    """Both labels at every edge value, and a wide draw with random labels:
    the in-place kernel equals ``softplus_stable(x) - s * x`` byte for byte,
    and leaves ``x`` as it was."""
    x = draw()
    s = np.random.default_rng(3).random(x.shape) < 0.5
    s[0], s[-1] = False, True
    before = x.copy()
    scratch, out = np.empty_like(x), np.empty_like(x)
    got = bernoulli_nll(x, s, scratch, out)
    assert got is out and x.tobytes() == before.tobytes()
    assert got.tobytes() == (softplus_stable(x) - s * x).tobytes()


def test_pair_residual_is_bit_identical_to_reference():
    rng = np.random.default_rng(1)
    a, b = 3.0 * rng.normal(size=(2, 40, 7))
    s = (rng.random((40, 40)) < 0.3).astype(np.float64)
    want = sigmoid_reference(0.5 * (a @ b.T)) - s
    np.fill_diagonal(want, 0.0)
    assert pair_residual(a, b, s, "probe").tobytes() == want.tobytes()


class TestSoftplus:
    def test_zero(self):
        assert softplus_stable(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_large_positive_asymptote(self):
        assert softplus_stable(1000.0) == pytest.approx(1000.0, rel=1e-12)

    def test_large_negative_asymptote(self):
        v = softplus_stable(-1000.0)
        assert 0.0 <= v <= 1e-300

    @settings(max_examples=200)
    @given(st.floats(-30, 30))
    def test_derivative_is_sigmoid(self, x):
        """d/dx log(1+e^x) = sigma(x), by central differences."""
        h = 1e-6
        numeric = (softplus_stable(x + h) - softplus_stable(x - h)) / (2 * h)
        assert numeric == pytest.approx(sigmoid_stable(x), abs=1e-6)

    def test_relative_accuracy_moderate_range(self):
        x = np.linspace(-30, 30, 601)
        exact = np.log1p(np.exp(x))  # safe in this range
        np.testing.assert_allclose(softplus_stable(x), exact, rtol=1e-12)


def test_negative_log_likelihood_identity():
    """-(s*L - softplus(L)) equals the negative log of the pair likelihood
    sigma(L) if s=1 else 1-sigma(L), at L in {-3, 0, 3}."""
    for lam in (-3.0, 0.0, 3.0):
        for s in (0, 1):
            p = sigmoid_stable(lam) if s == 1 else 1.0 - sigmoid_stable(lam)
            nll = -(s * lam - softplus_stable(lam))
            assert nll == pytest.approx(-math.log(p), abs=1e-12)
