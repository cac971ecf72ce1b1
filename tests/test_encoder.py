import struct

import numpy as np
import pytest

import adsq.encoder
from adsq.encoder import (EncoderParams, MomentumSGD, backward, flat_copy, forward,
                          init_params, load_params, save_params)
from adsq.errors import ConfigError, FormatError, TrainingError
from fdcheck import TOL, fd_grad, max_rel_error
from memtrace import traced_peak
from netparams import copy_params, grad_views, same_params


def zero_width_model(layer, rows, cols) -> bytes:
    """A hand-written two-layer model file (3 -> 4 -> 3) whose ``layer`` is
    ``rows`` x ``cols`` instead, with matching weight and bias bytes."""
    shapes = [(4, 3), (3, 4)]
    shapes[layer] = (rows, cols)
    blob = b"ADSQW001" + struct.pack("<I", len(shapes))
    for r, c in shapes:
        blob += struct.pack("<II", r, c) + np.zeros(r * c + r, dtype="<f8").tobytes()
    return blob


def probe_loss(params, x, coef_r, coef_v):
    """Scalar probe whose gradient enters exactly through the two slots."""
    outs = forward(params, x)
    v = outs.r @ params.weights[-1].T + params.biases[-1]
    return float((coef_r * outs.r).sum() + (coef_v * v).sum())


class TestInit:
    def test_deterministic(self):
        a = init_params([4, 8, 2], seed=123)
        b = init_params([4, 8, 2], seed=123)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_shapes(self):
        p = init_params([4, 8, 2], seed=0)
        assert [w.shape for w in p.weights] == [(8, 4), (2, 8)]
        assert all(np.all(b == 0) for b in p.biases)

    def test_bound_is_glorot(self):
        p = init_params([100, 50, 10], seed=0)
        bound = np.sqrt(6.0 / 150)
        assert np.max(np.abs(p.weights[0])) <= bound

    def test_too_few_dims(self):
        with pytest.raises(ConfigError):
            init_params([4], seed=0)
        with pytest.raises(ConfigError):
            init_params([4, 2], seed=0)


class TestForward:
    def test_zero_params_give_zero_outputs(self):
        p = init_params([3, 4, 2], seed=0)
        for w in p.weights:
            w[:] = 0.0
        outs = forward(p, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.all(outs.r == 0) and np.all(outs.u == 0)

    def test_single_item(self):
        p = init_params([3, 4, 2], seed=1)
        outs = forward(p, np.ones((1, 3)))
        assert outs.r.shape == (1, 4) and outs.u.shape == (1, 2)

    def test_tanh_range(self):
        p = init_params([3, 6, 4, 2], seed=2)
        outs = forward(p, np.random.default_rng(1).normal(size=(20, 3)))
        assert np.all(np.abs(outs.u) < 1)
        np.testing.assert_array_equal(outs.u, np.tanh(outs.r @ p.weights[-1].T + p.biases[-1]))

    def test_bitwise_repeatable(self):
        p = init_params([3, 5, 2], seed=3)
        x = np.random.default_rng(2).normal(size=(7, 3))
        a, b = forward(p, x), forward(p, x)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.r, b.r)

    def test_shape_mismatch(self):
        p = init_params([3, 4, 2], seed=0)
        with pytest.raises(ValueError):
            forward(p, np.zeros((2, 5)))

    def test_widened_input_is_dropped_after_the_first_layer(self):
        """A float32 input's float64 copy lives only until the first layer's
        output exists: with two hidden layers as wide as the input, the
        traced peak stays below three such arrays."""
        n, d = 2000, 64
        p = init_params([d, d, d, 8, 4], seed=0)
        x = np.random.default_rng(0).normal(size=(n, d)).astype(np.float32)
        outs, peak = traced_peak(forward, p, x)
        assert peak < 2.5 * 8 * n * d
        np.testing.assert_array_equal(outs.u, forward(p, x.astype(np.float64)).u)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        p = init_params([3, 4, 4, 2], seed=5)
        x = np.random.default_rng(3).normal(size=(6, 3))
        g = backward(p, forward(p, x, keep_hidden=True), np.zeros((6, 4)), np.zeros((6, 2)),
                     grad_views(p))
        assert len(g) == 2 * p.num_layers and all(np.all(a == 0) for a in g)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        """Module gate: 20 seeded configs, rel error <= 1e-5 at step 1e-6."""
        rng = np.random.default_rng(seed)
        hidden = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(0, 3)))]
        dims = [3, *hidden, 4, 2]
        p = init_params(dims, seed=seed)
        for b in p.biases:
            # generic point: fresh-init zero biases can park a rectifier
            # input exactly on its kink, where central differences lie
            b += rng.normal(scale=0.1, size=b.shape)
        x = rng.normal(size=(5, 3))
        coef_r = rng.normal(size=(5, 4))
        coef_v = rng.normal(size=(5, 2))
        analytic = backward(p, forward(p, x, keep_hidden=True), coef_r, coef_v, grad_views(p))
        for li in range(p.num_layers):
            for arr, ga in ((p.weights[li], analytic[li]),
                            (p.biases[li], analytic[p.num_layers + li])):
                numeric = fd_grad(lambda: probe_loss(p, x, coef_r, coef_v), arr)
                assert max_rel_error(ga, numeric) <= TOL

    def test_linear_net_closed_form(self):
        """No hidden layers, upstream only at the semantic slot: the
        semantic weight gradient is upstream^T x."""
        p = init_params([3, 4, 2], seed=7)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 3))
        up_r = rng.normal(size=(6, 4))
        g = backward(p, forward(p, x, keep_hidden=True), up_r, np.zeros((6, 2)), grad_views(p))
        np.testing.assert_allclose(g[0], up_r.T @ x, rtol=1e-12)
        np.testing.assert_allclose(g[p.num_layers], up_r.sum(axis=0), rtol=1e-12)
        assert np.all(g[1] == 0)

    def test_needs_kept_hidden_activations(self):
        """A plain forward keeps no hidden activations, so it cannot feed
        backward."""
        p = init_params([3, 4, 2], seed=0)
        outs = forward(p, np.zeros((2, 3)))
        assert outs.hidden is None
        with pytest.raises(ValueError, match="keep_hidden"):
            backward(p, outs, np.zeros((2, 4)), np.zeros((2, 2)), grad_views(p))

    def test_upstream_shape_mismatch(self):
        p = init_params([3, 4, 2], seed=0)
        outs = forward(p, np.zeros((2, 3)), keep_hidden=True)
        with pytest.raises(ValueError):
            backward(p, outs, np.zeros((2, 3)), np.zeros((2, 2)), grad_views(p))

    def test_upstream_v_shape_mismatch(self):
        p = init_params([3, 4, 2], seed=0)
        outs = forward(p, np.zeros((2, 3)), keep_hidden=True)
        with pytest.raises(ValueError, match=r"upstream_v shape \(2, 3\) != u shape \(2, 2\)"):
            backward(p, outs, np.zeros((2, 4)), np.zeros((2, 3)), grad_views(p))


class TestSgd:
    @staticmethod
    def _step(p, fill, lr, momentum, optimizer=None):
        if optimizer is None:
            optimizer = MomentumSGD(p.arrays, momentum=momentum, weight_decay=0.0)
        optimizer.step(np.full_like(optimizer.flat, fill), lr)

    def test_vanilla_step(self):
        p = init_params([3, 4, 2], seed=0)
        before = copy_params(p)
        self._step(p, 0.5, lr=0.1, momentum=0.0)
        np.testing.assert_allclose(p.weights[0], before.weights[0] - 0.05, rtol=1e-12)

    def test_zero_grad_zero_velocity_no_change(self):
        p = init_params([3, 4, 2], seed=1)
        before = copy_params(p)
        self._step(p, 0.0, lr=0.5, momentum=0.9)
        assert same_params(p, before)

    def test_two_momentum_steps_displace_2_9g(self):
        # v1 = g, v2 = 0.9 g + g; total displacement 2.9 g at lr = 1
        p = init_params([3, 4, 2], seed=2)
        before = copy_params(p)
        g = 0.25
        opt = MomentumSGD(p.arrays, momentum=0.9, weight_decay=0.0)
        for _ in range(2):
            self._step(p, g, lr=1.0, momentum=0.9, optimizer=opt)
        np.testing.assert_allclose(before.weights[0] - p.weights[0], 2.9 * g, rtol=1e-12)

    def test_nonfinite_gradient_aborts(self):
        p = init_params([3, 4, 2], seed=3)
        opt = MomentumSGD(p.arrays, momentum=0.9, weight_decay=0.0)
        bad, views = opt.new_grad()
        bad[:] = 1.0
        views[0][0, 0] = np.nan
        with pytest.raises(TrainingError):
            opt.step(bad, lr=0.1)

    @pytest.mark.parametrize("lr", [0.0, -0.1])
    def test_learning_rate_not_positive_changes_nothing(self, lr):
        p = init_params([3, 4, 2], seed=3)
        before = copy_params(p)
        opt = MomentumSGD(p.arrays, momentum=0.9, weight_decay=0.0)
        with pytest.raises(ValueError, match="learning rate must be positive"):
            opt.step(np.ones_like(opt.flat), lr)
        assert same_params(p, before) and not opt.flat_velocity.any()

    def test_steps_the_buffer_its_arrays_view(self):
        """The optimizer takes ``init_params``' one buffer as it is and steps
        it in place; velocity and each gradient buffer are buffers of their own."""
        p = init_params([3, 5, 4, 2], seed=4)
        flat = p.weights[0].base
        opt = MomentumSGD(p.arrays, momentum=0.9, weight_decay=0.0)
        assert opt.flat is flat and flat.size == sum(a.size for a in p.arrays)
        assert all(a is b for a, b in zip(opt.arrays, p.arrays))
        assert all(np.shares_memory(a, flat) for a in p.arrays)
        assert opt.flat_velocity.shape == flat.shape
        assert not np.shares_memory(opt.flat_velocity, flat)
        grad, views = opt.new_grad()
        assert all(np.shares_memory(g, grad) for g in views)
        assert not np.shares_memory(grad, flat) and not np.shares_memory(grad, opt.flat_velocity)
        assert [g.shape for g in views] == [a.shape for a in p.arrays]
        before = flat.copy()
        grad[:] = 1.0
        opt.step(grad, 0.1)
        np.testing.assert_allclose(p.weights[0], before[:p.weights[0].size].reshape(5, 3) - 0.1)

    @pytest.mark.parametrize("arrays", [
        lambda: [np.ones(4), np.ones(3)],                 # two buffers
        lambda: flat_copy([np.ones(4), np.ones(3)])[::-1],  # out of order
        lambda: flat_copy([np.ones(4), np.ones(3)])[:1],    # part of the buffer
        lambda: [flat_copy([np.ones((3, 4))])[0].T],        # not C-contiguous
    ], ids=["two-buffers", "out-of-order", "part", "transposed"])
    def test_refuses_arrays_that_are_not_one_buffer(self, arrays):
        with pytest.raises(ValueError, match="consecutive views of one float64 buffer"):
            MomentumSGD(arrays(), momentum=0.9, weight_decay=0.0)

    def test_gradient_of_another_layout_changes_nothing(self):
        p = init_params([3, 4, 2], seed=4)
        before = copy_params(p)
        opt = MomentumSGD(p.arrays, momentum=0.9, weight_decay=0.0)
        for grad in (np.ones(opt.flat.size - 1), np.ones((1, opt.flat.size))):
            with pytest.raises(ValueError, match="!= parameter buffer"):
                opt.step(grad, lr=0.1)
        assert same_params(p, before)
        assert not opt.flat_velocity.any()

    @pytest.mark.parametrize("index", range(6))
    def test_nan_in_any_layer_view_changes_nothing(self, index):
        """A NaN in the gradient view of any weight or bias stops the step
        before one parameter or velocity byte moves."""
        p = init_params([3, 5, 4, 2], seed=5)
        opt = MomentumSGD(p.arrays, momentum=0.9, weight_decay=5e-4)
        grad, views = opt.new_grad()
        grad[:] = 1.0
        opt.step(grad, 0.1)  # nonzero velocity
        before = opt.flat.tobytes(), opt.flat_velocity.tobytes()
        views[index].flat[-1] = np.nan
        with pytest.raises(TrainingError, match="non-finite gradient; aborting epoch"):
            opt.step(grad, 0.1)
        assert (opt.flat.tobytes(), opt.flat_velocity.tobytes()) == before

    def test_backward_fills_the_gradient_views(self):
        """Written into an optimizer's gradient buffer, backward's gradients
        equal the ones it writes into a buffer of its own."""
        p = init_params([3, 5, 4, 2], seed=6)
        rng = np.random.default_rng(6)
        outs = forward(p, rng.normal(size=(7, 3)), keep_hidden=True)
        up_r, up_v = rng.normal(size=(7, 4)), rng.normal(size=(7, 2))
        grad, views = MomentumSGD(p.arrays, momentum=0.9, weight_decay=0.0).new_grad()
        assert backward(p, outs, up_r, up_v, views) == views
        fresh = backward(p, outs, up_r, up_v, grad_views(p))
        assert grad.tobytes() == b"".join(g.tobytes() for g in fresh)

    @staticmethod
    def _multi_block_arrays(seed):
        # one buffer of 60 in 7-element blocks: blocks cross every array boundary
        rng = np.random.default_rng(seed)
        return flat_copy([rng.normal(size=(5, 6)), rng.normal(size=13), rng.normal(size=2),
                          rng.normal(size=(3, 5))])

    def test_blocked_step_is_bit_identical_to_textbook(self, monkeypatch):
        monkeypatch.setattr(adsq.encoder, "STEP_BLOCK_ELEMS", 7)
        momentum, wd = 0.9, 5e-4
        arrays = self._multi_block_arrays(0)
        ref = [a.copy() for a in arrays]
        ref_vel = [np.zeros_like(a) for a in arrays]
        opt = MomentumSGD(arrays, momentum=momentum, weight_decay=wd)
        rng = np.random.default_rng(1)
        for lr in (0.1, 0.03, 0.2):
            grads = [rng.normal(size=a.shape) for a in arrays]
            opt.step(np.concatenate([g.ravel() for g in grads]), lr)
            for a, g, vel in zip(ref, grads, ref_vel):
                vel *= momentum
                vel += g + wd * a
                a -= lr * vel
            assert [a.tobytes() for a in arrays] == [a.tobytes() for a in ref]
            assert opt.flat_velocity.tobytes() == b"".join(v.tobytes() for v in ref_vel)

    def test_nan_in_last_block_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(adsq.encoder, "STEP_BLOCK_ELEMS", 7)
        arrays = self._multi_block_arrays(2)
        opt = MomentumSGD(arrays, momentum=0.9, weight_decay=5e-4)
        opt.step(np.ones_like(opt.flat), 0.1)  # nonzero velocity
        before = opt.flat.tobytes(), opt.flat_velocity.tobytes()
        grads = np.ones_like(opt.flat)
        grads[-1] = np.nan
        with pytest.raises(TrainingError):
            opt.step(grads, 0.1)
        assert (opt.flat.tobytes(), opt.flat_velocity.tobytes()) == before

    def test_parameter_that_cannot_update_in_place_changes_nothing(self):
        arrays = [np.ones(4), np.ones((3, 4)).T]
        with pytest.raises(ValueError, match="C-contiguous"):
            MomentumSGD(arrays, momentum=0.9, weight_decay=0.0)
        assert np.array_equal(arrays[0], np.ones(4))


class TestModelFile:
    def test_round_trip(self, tmp_path):
        p = init_params([3, 5, 4, 2], seed=11)
        path = tmp_path / "net.net"
        save_params(path, p)
        q = load_params(path)
        assert all(np.array_equal(a, b) for a, b in zip(p.weights, q.weights))
        assert all(np.array_equal(a, b) for a, b in zip(p.biases, q.biases))

    def test_two_loads_share_no_memory(self, tmp_path):
        """Each load gives new float64 arrays, equal to the saved ones byte
        for byte in ``arrays`` order."""
        p = init_params([3, 5, 4, 2], seed=11)
        path = tmp_path / "net.net"
        save_params(path, p)
        q, again = load_params(path), load_params(path)
        assert [a.shape for a in q.arrays] == [a.shape for a in p.arrays]
        assert all(a.dtype == np.float64 for a in q.arrays)
        assert [a.tobytes() for a in q.arrays] == [a.tobytes() for a in p.arrays]
        assert not any(np.shares_memory(a, b) for a in q.arrays for b in again.arrays + p.arrays)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.net"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_params(path)

    def test_truncation(self, tmp_path):
        p = init_params([3, 4, 2], seed=0)
        path = tmp_path / "t.net"
        save_params(path, p)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(FormatError):
            load_params(path)

    def test_more_layers_than_the_file_holds(self, tmp_path):
        """A header claiming 100 layers over a three-layer file: the three
        are read, and the file is refused at the first missing header."""
        p = init_params([3, 5, 4, 2], seed=0)
        path = tmp_path / "m.net"
        save_params(path, p)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 100)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="truncated header"):
            load_params(path)

    def test_one_layer_model_refused(self, tmp_path):
        path = tmp_path / "one.net"
        save_params(path, EncoderParams(weights=[np.zeros((2, 3))], biases=[np.zeros(2)]))
        with pytest.raises(FormatError, match="one.net: model must have at least semantic "
                                              "and hash layers"):
            load_params(path)

    def test_layer_width_mismatch(self, tmp_path):
        # a 4x3 layer feeding a 2x5 layer: 4 outputs cannot drive 5 inputs
        p = EncoderParams(weights=[np.zeros((4, 3)), np.zeros((2, 5))],
                          biases=[np.zeros(4), np.zeros(2)])
        path = tmp_path / "w.net"
        save_params(path, p)
        with pytest.raises(FormatError, match="layer 1 takes 5 inputs"):
            load_params(path)

    @pytest.mark.parametrize("layer, rows, cols", [(1, 0, 4), (0, 4, 0), (0, 0, 0)])
    def test_zero_width_layer(self, tmp_path, layer, rows, cols):
        path = tmp_path / "z.net"
        path.write_bytes(zero_width_model(layer, rows, cols))
        with pytest.raises(FormatError, match=f"z.net: layer {layer} has zero width"):
            load_params(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind, layer", [("weights", 0), ("biases", 1)])
    def test_nonfinite_value_names_file_and_layer(self, tmp_path, kind, layer, value):
        p = init_params([3, 5, 4, 2], seed=12)
        getattr(p, kind)[layer].flat[-1] = value
        path = tmp_path / "bad.net"
        save_params(path, p)
        with pytest.raises(FormatError, match=f"bad.net: layer {layer} {kind} are not all finite"):
            load_params(path)
