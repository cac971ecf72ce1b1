"""Feed-forward encoder with hand-written forward/backward passes.

Layout is fixed: rectifier hidden layers, an identity-activation semantic
layer second from last, and a tanh hash head last. One instance serves the
label network and one serves each image network; the image pair shares the
topology but never the weights.

Gradients flow in through two injection points: ``upstream_r`` at the
semantic-layer output and ``upstream_v`` at the hash-layer pre-activation,
which ``forward`` does not keep: it takes tanh in place. Only an SGD
batch's ``forward`` keeps the activations ``backward`` reads; every
many-row forward runs over the ``row_slices`` of ``FORWARD_BLOCK_ROWS``
rows. Model files (``ADSQW001``) are ``adsq.fileio`` containers: the layer
count, then per layer rows, cols (both nonzero), float64 weights and biases,
all finite.
"""

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


@dataclass
class NetOutputs:
    """Per-item activations: semantic features r, binary-like codes u, the
    tanh of the hash pre-activations, and (for backward() only) the input and
    each rectifier output."""

    r: np.ndarray
    u: np.ndarray
    hidden: list | None = None


def init_params(dims, seed) -> EncoderParams:
    """Glorot-uniform weights, zero biases, deterministic per seed.

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
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return EncoderParams(weights=weights, biases=biases)


def forward(params: EncoderParams, x, keep_hidden: bool = False) -> NetOutputs:
    """Outputs for the rows of ``x``. Only ``keep_hidden`` keeps the input and
    each rectifier output (for ``backward``); else each is dropped after use."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ValueError(
            f"input shape {x.shape} does not match encoder input width {params.in_dim}")
    hidden = [x] if keep_hidden else None
    h = x
    for w, b in zip(params.weights[:-2], params.biases[:-2]):
        h = h @ w.T
        h += b
        np.maximum(h, 0.0, out=h)
        if keep_hidden:
            hidden.append(h)
    r = h @ params.weights[-2].T
    r += params.biases[-2]
    u = r @ params.weights[-1].T
    u += params.biases[-1]
    np.tanh(u, out=u)
    return NetOutputs(r=r, u=u, hidden=hidden)


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


def backward(params: EncoderParams, outs: NetOutputs, upstream_r, upstream_v) -> list:
    """Exact reverse-mode parameter gradients for the two injected upstreams,
    in ``params.arrays`` order, from the activations of
    ``forward(params, x, keep_hidden=True)``; the forward pass is never
    recomputed."""
    hidden, r, u = outs.hidden, outs.r, outs.u
    if hidden is None:
        raise ValueError("backward needs the outputs of forward(..., keep_hidden=True)")
    upstream_r = np.asarray(upstream_r, dtype=np.float64)
    upstream_v = np.asarray(upstream_v, dtype=np.float64)
    if upstream_r.shape != r.shape:
        raise ValueError(f"upstream_r shape {upstream_r.shape} != r shape {r.shape}")
    if upstream_v.shape != u.shape:
        raise ValueError(f"upstream_v shape {upstream_v.shape} != u shape {u.shape}")

    n_layers = params.num_layers
    gw = [None] * n_layers
    gb = [None] * n_layers

    gw[-1] = upstream_v.T @ r
    gb[-1] = upstream_v.sum(axis=0)
    g = upstream_v @ params.weights[-1] + upstream_r

    gw[-2] = g.T @ hidden[-1]
    gb[-2] = g.sum(axis=0)
    g = g @ params.weights[-2]

    for i in range(n_layers - 3, -1, -1):
        g = g * (hidden[i + 1] > 0)
        gw[i] = g.T @ hidden[i]
        gb[i] = g.sum(axis=0)
        if i > 0:
            g = g @ params.weights[i]
    return gw + gb


class MomentumSGD:
    """Classic momentum SGD over the parameter arrays it is built with:

        velocity <- momentum * velocity + grad + weight_decay * param
        param    <- param - lr * velocity

    One optimizer owns the arrays and velocity of one network (and its head).
    ``step`` takes their gradients in that order and is the one gradient guard:
    a non-finite one raises TrainingError before any array moves. Each array is
    updated in place, never replaced, so it must be C-contiguous; a step runs
    over blocks of ``STEP_BLOCK_ELEMS`` elements with one scratch buffer.
    """

    def __init__(self, arrays, momentum: float, weight_decay: float):
        self.arrays = list(arrays)
        if not all(a.flags.c_contiguous for a in self.arrays):
            raise ValueError("parameters must be C-contiguous to update in place")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(a) for a in self.arrays]
        self._scratch = np.empty(min(STEP_BLOCK_ELEMS,
                                     max((a.size for a in self.arrays), default=0)))

    def step(self, grads, lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if len(grads) != len(self.arrays):
            raise ValueError(f"{len(grads)} gradients for {len(self.arrays)} parameter arrays")
        for a, g in zip(self.arrays, grads):
            if g.shape != a.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {a.shape}")
            if not np.isfinite(g).all():
                raise TrainingError("non-finite gradient; aborting epoch")
        for a, g, vel in zip(self.arrays, grads, self.velocity):
            a, g, vel = a.ravel(), g.ravel(), vel.ravel()  # views: a and vel are C-contiguous
            for i in range(0, a.size, STEP_BLOCK_ELEMS):
                block = slice(i, i + STEP_BLOCK_ELEMS)
                ab, gb, vb = a[block], g[block], vel[block]
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
            weights.append(r.array("<f8", (rows, cols)).astype(np.float64, copy=False))
            biases.append(r.array("<f8", (rows,)).astype(np.float64, copy=False))
            for kind, a in (("weights", weights[-1]), ("biases", biases[-1])):
                if not np.isfinite(a).all():
                    raise FormatError(f"{path}: layer {i} {kind} are not all finite")
    if len(weights) < 2:
        raise FormatError(f"{path}: model must have at least semantic and hash layers")
    return EncoderParams(weights=weights, biases=biases)
