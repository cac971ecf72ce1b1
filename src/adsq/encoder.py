"""Feed-forward encoder with hand-written forward/backward passes.

Layout is fixed: rectifier hidden layers, an identity-activation semantic
layer second from last, and a tanh hash head last. One instance serves the
label network and one serves each image network; the image pair shares the
topology but never the weights. A trained network's arrays are views of
one float64 buffer in ``EncoderParams.arrays`` order, which its
``MomentumSGD`` steps in place; ``backward`` writes into the views of a
gradient buffer that lives for one training phase. A loaded model is only
encoded, so ``load_params`` gives one plain array per weight matrix and bias.

Gradients flow in through two injection points: ``upstream_r`` at the
semantic-layer output and ``upstream_v`` at the hash-layer pre-activation,
which ``forward`` does not keep: it takes the tanh of its
``pre_activation`` in place. Encoding calls ``pre_activation`` itself, as it
needs only the sign. Only an SGD batch's ``forward`` keeps the activations
``backward`` reads; every many-row forward runs over the ``row_slices`` of
``FORWARD_BLOCK_ROWS`` rows. Model files (``ADSQW001``) are ``adsq.fileio``
containers: the layer count, then per layer rows, cols (both nonzero),
float64 weights and biases, all finite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, TrainingError
from .fileio import BinaryReader, write_binary

MODEL_MAGIC = b"ADSQW001"
# Rows per block of a many-row forward: a row count, not an element budget,
# since a budget would cut wide layers into blocks too short for fast GEMMs.
FORWARD_BLOCK_ROWS = 1024
# Elements per in-place block of an optimizer step (one scratch buffer).
STEP_BLOCK_ELEMS = 1 << 16


@dataclass
class EncoderParams:
    """Ordered affine layers; weights are (out, in), biases (out,)."""

    weights: list
    biases: list

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def arrays(self) -> list:
        """Every array, in the one order of ``backward``'s gradients and of optimizer state."""
        return self.weights + self.biases

    def on(self, arrays) -> "EncoderParams":
        """Params of these shapes on ``arrays``, given in ``arrays`` order; more are ignored."""
        n = self.num_layers
        return EncoderParams(list(arrays[:n]), list(arrays[n:2 * n]))


def views_of(flat, shapes) -> list:
    """Consecutive views of ``flat`` with ``shapes``, in their order."""
    ends = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    return [flat[i:j].reshape(shape) for shape, i, j in zip(shapes, ends, ends[1:])]


def flat_copy(arrays) -> list:
    """Copies of ``arrays``, back to back in one new float64 buffer."""
    return views_of(np.concatenate([np.ravel(a) for a in arrays]), [a.shape for a in arrays])


@dataclass
class NetOutputs:
    """Per-item activations: semantic features r, binary-like codes u, the
    tanh of the hash pre-activations, and (for backward() only) the input and
    each rectifier output."""

    r: np.ndarray
    u: np.ndarray
    hidden: list | None = None


def init_params(dims, seed) -> EncoderParams:
    """Glorot-uniform weights, zero biases, deterministic per seed, in one
    new buffer in ``EncoderParams.arrays`` order.

    ``dims`` chains input width through hidden widths to the semantic and
    hash widths; at least [input, semantic, hash] is required.
    """
    dims = [int(d) for d in dims]
    if len(dims) < 3:
        raise ConfigError(
            f"encoder needs at least [input, semantic, hash] widths, got {dims}")
    if any(d < 1 for d in dims):
        raise ConfigError(f"layer widths must be positive, got {dims}")
    rng = np.random.default_rng(seed)
    layers = list(zip(dims[:-1], dims[1:]))
    arrays = views_of(np.zeros(sum(fan_out * (fan_in + 1) for fan_in, fan_out in layers)),
                      [(o, i) for i, o in layers] + [(o,) for _, o in layers])
    for w, (fan_in, fan_out) in zip(arrays, layers):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return EncoderParams(weights=arrays[:len(layers)], biases=arrays[len(layers):])


def forward(params: EncoderParams, x, keep_hidden: bool = False) -> NetOutputs:
    """Outputs for the rows of ``x``. Only ``keep_hidden`` keeps the input and
    each rectifier output (for ``backward``); else each is dropped after use."""
    outs = pre_activation(params, x, keep_hidden)
    np.tanh(outs.u, out=outs.u)
    return outs


def pre_activation(params: EncoderParams, x, keep_hidden: bool) -> NetOutputs:
    """``forward`` before its last step: ``u`` holds the hash pre-activation,
    which ``forward`` takes the tanh of in place. Training features, a
    float32 ``Dataset``'s batch or block, are widened to float64 here, and
    the widened copy is dropped after the first layer unless kept."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.in_dim:
        raise ValueError(
            f"input shape {h.shape} does not match encoder input width {params.in_dim}")
    hidden = [h] if keep_hidden else None
    for w, b in zip(params.weights[:-2], params.biases[:-2]):
        h = h @ w.T
        h += b
        np.maximum(h, 0.0, out=h)
        if keep_hidden:
            hidden.append(h)
    r = h @ params.weights[-2].T
    r += params.biases[-2]
    v = r @ params.weights[-1].T
    v += params.biases[-1]
    return NetOutputs(r=r, u=v, hidden=hidden)


def row_slices(n: int):
    """The slices of ``FORWARD_BLOCK_ROWS`` rows or less that cover n rows."""
    for start in range(0, n, FORWARD_BLOCK_ROWS):
        yield slice(start, start + FORWARD_BLOCK_ROWS)


def forward_rows(params: EncoderParams, x) -> NetOutputs:
    """``forward(params, x)`` without hidden layers, one ``row_slices`` block at a time."""
    if len(x) <= FORWARD_BLOCK_ROWS:
        return forward(params, x)
    n, sem, k = len(x), params.weights[-2].shape[0], params.weights[-1].shape[0]
    outs = NetOutputs(np.empty((n, sem)), np.empty((n, k)))
    for rows in row_slices(n):
        block = forward(params, x[rows])
        outs.r[rows], outs.u[rows] = block.r, block.u
    return outs


def backward(params: EncoderParams, outs: NetOutputs, upstream_r, upstream_v, out) -> list:
    """Exact reverse-mode parameter gradients for the two injected upstreams,
    in ``params.arrays`` order, from the activations of
    ``forward(params, x, keep_hidden=True)``; the forward pass is never
    recomputed. They are written into the first arrays of ``out`` (views of
    a gradient buffer), which are returned."""
    hidden, r, u = outs.hidden, outs.r, outs.u
    if hidden is None:
        raise ValueError("backward needs the outputs of forward(..., keep_hidden=True)")
    if upstream_r.shape != r.shape:
        raise ValueError(f"upstream_r shape {upstream_r.shape} != r shape {r.shape}")
    if upstream_v.shape != u.shape:
        raise ValueError(f"upstream_v shape {upstream_v.shape} != u shape {u.shape}")

    n = params.num_layers
    grads = out[:2 * n]
    inputs, g = hidden + [r], upstream_v  # layer i reads inputs[i]
    for i in range(n - 1, -1, -1):
        np.matmul(g.T, inputs[i], out=grads[i])
        g.sum(axis=0, out=grads[n + i])
        if i == 0:
            break
        g = g @ params.weights[i]
        if i == n - 1:
            g += upstream_r  # the semantic layer is linear
        else:
            g *= inputs[i] > 0
    return grads


class MomentumSGD:
    """Classic momentum SGD over one buffer of parameters:

        velocity <- momentum * velocity + grad + weight_decay * param
        param    <- param - lr * velocity

    One optimizer owns one network (and its head): ``arrays``, C-contiguous
    consecutive views of one float64 buffer ``flat`` (as ``init_params`` and
    ``flat_copy`` give them), stepped in place, and the velocity buffer
    ``flat_velocity`` of the same layout. ``step`` takes a
    ``new_grad`` buffer and is the one gradient guard: a non-finite entry
    raises TrainingError before any byte moves. It checks, then updates, in
    blocks of ``STEP_BLOCK_ELEMS`` elements with one scratch buffer, which
    the check pass reads as bool; no gradient-sized temporary is made.
    """

    def __init__(self, arrays, momentum: float, weight_decay: float):
        self.arrays, self.flat = list(arrays), arrays[0].base
        self.shapes = [a.shape for a in self.arrays]
        if not (isinstance(self.flat, np.ndarray) and self.flat.dtype == np.float64
                and self.flat.shape == (sum(a.size for a in self.arrays),)
                and all(a.flags.c_contiguous and a.ctypes.data == v.ctypes.data
                        for a, v in zip(self.arrays, views_of(self.flat, self.shapes)))):
            raise ValueError("parameters must be C-contiguous consecutive views of one "
                             "float64 buffer to update in place")
        self.flat_velocity = np.zeros(self.flat.size)  # zero pages until a step writes them
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._scratch = np.empty(min(STEP_BLOCK_ELEMS, self.flat.size))

    def new_grad(self):
        """A new gradient buffer and its views, in ``arrays`` order."""
        grad = np.empty_like(self.flat)
        return grad, views_of(grad, self.shapes)

    def step(self, grad, lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if grad.shape != self.flat.shape:
            raise ValueError(f"gradient shape {grad.shape} != parameter buffer {self.flat.shape}")
        finite = self._scratch.view(bool)  # the check pass's mask, in the scratch's bytes
        for i in range(0, grad.size, STEP_BLOCK_ELEMS):  # every block, before any byte moves
            gb = grad[i:i + STEP_BLOCK_ELEMS]
            if not np.isfinite(gb, out=finite[:gb.size]).all():
                raise TrainingError("non-finite gradient; aborting epoch")
        for i in range(0, grad.size, STEP_BLOCK_ELEMS):
            block = slice(i, i + STEP_BLOCK_ELEMS)
            ab, gb, vb = self.flat[block], grad[block], self.flat_velocity[block]
            t = self._scratch[:ab.size]
            np.multiply(ab, self.weight_decay, out=t)
            t += gb
            vb *= self.momentum
            vb += t
            np.multiply(vb, lr, out=t)
            ab -= t


def save_params(path, params: EncoderParams):
    parts = [(params.num_layers,)]
    for w, b in zip(params.weights, params.biases):
        parts += [w.shape, np.asarray(w, dtype="<f8"), np.asarray(b, dtype="<f8")]
    write_binary(path, MODEL_MAGIC, *parts)


def load_params(path) -> EncoderParams:
    """The model at ``path``, one new array per weight matrix and bias: a
    loaded model is only encoded, never stepped."""
    weights, biases = [], []
    with BinaryReader(path, MODEL_MAGIC, "model") as r:
        (n_layers,) = r.header(1)
        for i in range(n_layers):
            rows, cols = r.header(2)
            if not rows or not cols:
                raise FormatError(f"{path}: layer {i} has zero width ({rows} x {cols})")
            if weights and cols != weights[-1].shape[0]:
                raise FormatError(f"{path}: layer {i} takes {cols} inputs but layer {i - 1} "
                                  f"gives {weights[-1].shape[0]}")
            weights.append(r.array("<f8", (rows, cols)))
            biases.append(r.array("<f8", (rows,)))
            for kind, a in (("weights", weights[-1]), ("biases", biases[-1])):
                if not np.isfinite(a).all():
                    raise FormatError(f"{path}: layer {i} {kind} are not all finite")
    if len(weights) < 2:
        raise FormatError(f"{path}: model must have at least semantic and hash layers")
    return EncoderParams(weights, biases)
