"""Label-network objective, gradients, and training phase.

The label network embeds multi-hot label vectors. Its loss couples four
terms over all ordered within-batch pairs (i != j):

  sem_pair    pairwise likelihood on semantic features, logits 0.5 * r_i.r_j
  code_pair   same on tanh code outputs, logits 0.5 * w_i.w_j
  binary_reg  L1 pull of |code entries| toward 1 (or literal entries
              toward +1 when ``j3_literal`` is set)
  classify    squared error of the linear classifier readout vs true labels

The trained outputs (semantic rows and code rows for the whole training
set) are cached and later used as fixed supervision by the image networks.
"""

from dataclasses import dataclass

import numpy as np

from .config import HyperParams
from .data import Dataset
from .encoder import (EncoderParams, MomentumSGD, NetOutputs, backward, forward)
from .errors import TrainingError
from .numerics import check_finite, sigmoid_stable, softplus_stable


@dataclass
class ClassifierHead:
    """Linear readout from code space to label space."""

    weight: np.ndarray  # classes x k_half
    bias: np.ndarray    # classes

    def predict(self, omega):
        return omega @ self.weight.T + self.bias


def init_head(num_classes: int, k_half: int, seed) -> ClassifierHead:
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / (num_classes + k_half))
    return ClassifierHead(weight=rng.uniform(-bound, bound, size=(num_classes, k_half)),
                          bias=np.zeros(num_classes))


@dataclass
class LabelSupervision:
    """Cached label-network outputs, one row per label pattern: the network
    sees only the label row, so every item of pattern a has row a (item i
    reads row ``patterns.ids[i]`` of its dataset's ``LabelPatterns``)."""

    r_l: np.ndarray      # p x semantic_dim
    omega_l: np.ndarray  # p x k_half


@dataclass
class LabelLossBreakdown:
    """Weighted term contributions; they sum to ``total``."""

    sem_pair: float
    code_pair: float
    binary_reg: float
    classify: float

    @property
    def total(self) -> float:
        return self.sem_pair + self.code_pair + self.binary_reg + self.classify


@dataclass
class LabelGrads:
    r: np.ndarray
    omega: np.ndarray
    head_weight: np.ndarray
    head_bias: np.ndarray


def pairwise_nll(logits, sim_binary, counts):
    """Negative log-likelihood sum over ordered pairs of distinct items.
    Row a stands for counts[a] items that share its logits, so pair (a, b)
    weighs counts[a] * counts[b] and (a, a) counts[a] * (counts[a] - 1);
    unit counts zero the diagonal. The label loss's pairwise terms."""
    per_pair = softplus_stable(logits) - sim_binary * logits
    return float(((np.outer(counts, counts) - np.diag(counts)) * per_pair).sum())


def pair_residual(a, b, sim_binary, what):
    """sigma(theta) - s for the pair logits theta = 0.5 a b^T, zero on the
    diagonal: the upstream of a pairwise likelihood term. Non-finite
    logits raise TrainingError naming ``what``."""
    g = sigmoid_stable(check_finite(0.5 * (a @ b.T), f"{what} logits")) - sim_binary
    np.fill_diagonal(g, 0.0)
    return g


def binary_reg_value(omega, literal: bool, counts) -> float:
    """Per-item L1 distance of codes from the discrete target set, row a
    counted ``counts[a]`` times."""
    dist = np.abs(omega - 1.0) if literal else np.abs(np.abs(omega) - 1.0)
    return float((counts[:, None] * dist).sum())


def labelnet_loss(outs: NetOutputs, head: ClassifierHead, sim_binary, labels,
                  hp: HyperParams, counts=None) -> LabelLossBreakdown:
    """Loss over the rows of ``outs``, row a standing for counts[a] identical
    items (label patterns) and every term weighted so; without ``counts``
    each row is one item."""
    r, omega = outs.r, outs.u
    counts = np.ones(r.shape[0]) if counts is None else np.asarray(counts, dtype=np.float64)
    m = float(counts.sum())
    s = np.asarray(sim_binary, dtype=np.float64)
    lam = check_finite(0.5 * (r @ r.T), "sem_pair logits")
    theta = check_finite(0.5 * (omega @ omega.T), "code_pair logits")
    sem = check_finite(hp.alpha * pairwise_nll(lam, s, counts), "sem_pair term")
    code = check_finite(hp.beta * pairwise_nll(theta, s, counts), "code_pair term")
    # each item appears in 2*(m-1) ordered-pair slots
    reg = check_finite(
        hp.gamma * 2.0 * (m - 1) * binary_reg_value(omega, hp.j3_literal, counts),
        "binary_reg term")
    resid2 = (head.predict(omega) - np.asarray(labels, dtype=np.float64))**2
    classify = check_finite(hp.delta * float((counts[:, None] * resid2).sum()),
                            "classify term")
    return LabelLossBreakdown(sem_pair=sem, code_pair=code, binary_reg=reg,
                              classify=classify)


def labelnet_grad(outs: NetOutputs, head: ClassifierHead, sim_binary, labels,
                  hp: HyperParams) -> LabelGrads:
    """Exact gradients of the label loss w.r.t. r rows, code rows, and head;
    the loss itself is never evaluated here.

    The binary regularizer uses the subgradient convention that its slope
    is 0 exactly at |entry| = 1 (and at 0 in the literal form's kink).
    """
    r, omega = outs.r, outs.u
    m = r.shape[0]
    s = np.asarray(sim_binary, dtype=np.float64)

    # symmetric pair matrices: both slots fold into one product
    g_r = hp.alpha * (pair_residual(r, r, s, "sem_pair") @ r)
    g_omega = hp.beta * (pair_residual(omega, omega, s, "code_pair") @ omega)

    if hp.j3_literal:
        reg_slope = np.sign(omega - 1.0)
    else:
        reg_slope = np.sign(np.abs(omega) - 1.0) * np.sign(omega)
    g_omega = g_omega + hp.gamma * 2.0 * (m - 1) * reg_slope

    resid = head.predict(omega) - np.asarray(labels, dtype=np.float64)
    d = 2.0 * hp.delta * resid
    g_omega = g_omega + d @ head.weight
    g_head_w = d.T @ omega
    g_head_b = d.sum(axis=0)

    for name, g in (("r", g_r), ("omega", g_omega), ("head", g_head_w)):
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient ({name}) in label-network loss")
    return LabelGrads(r=g_r, omega=g_omega, head_weight=g_head_w, head_bias=g_head_b)


def iter_batches(n, batch_size, rng):
    """Shuffled index batches; a trailing remnant below 2 items is dropped."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        batch = order[start:start + batch_size]
        if batch.size >= 2:
            yield batch


def train_labelnet(params: EncoderParams, head: ClassifierHead, dataset: Dataset,
                   hp: HyperParams, *, epochs: int, lr: float, rng,
                   opt_net: MomentumSGD, opt_head: MomentumSGD) -> LabelSupervision:
    """Run ``epochs`` of minibatch SGD (per step one forward pass, the loss
    gradients, no loss value), then return the supervision cached from the
    final parameters over the full training set. Mutates ``params``,
    ``head`` and the optimizers in place."""
    labels_f = dataset.labels.astype(np.float64)
    for _ in range(epochs):
        for batch in iter_batches(dataset.n, hp.batch_size, rng):
            x = labels_f[batch]
            s_bin = dataset.patterns.block(batch)
            outs = forward(params, x, keep_hidden=True)
            grads = labelnet_grad(outs, head, s_bin, x, hp)
            upstream_v = grads.omega * (1.0 - outs.u**2)
            net_grads = backward(params, outs, grads.r, upstream_v)
            opt_net.step(params.weights + params.biases,
                         net_grads.weights + net_grads.biases, lr)
            opt_head.step([head.weight, head.bias],
                          [grads.head_weight, grads.head_bias], lr)

    return cache_supervision(params, dataset)


def cache_supervision(params: EncoderParams, dataset: Dataset) -> LabelSupervision:
    """The label network's per-pattern outputs over ``dataset``'s patterns."""
    # Taken from the n-row forward, whose GEMM gives equal rows for equal
    # label rows, so a gather by pattern id reproduces it exactly; a forward
    # over the p pattern rows blocks the GEMM differently and rounds apart.
    outs = forward(params, dataset.labels.astype(np.float64))
    first = dataset.patterns.first
    return LabelSupervision(r_l=outs.r[first], omega_l=outs.u[first])
