"""Label-network objective, gradients, and training phase.

The label network embeds multi-hot label vectors. Its loss couples four
terms over all ordered pairs of distinct items (i != j):

  sem_pair    pairwise likelihood on semantic features, logits 0.5 * r_i.r_j
  code_pair   same on tanh code outputs, logits 0.5 * w_i.w_j
  binary_reg  L1 pull of |code entries| toward 1 (or literal entries
              toward +1 when ``j3_literal`` is set)
  classify    squared error of the linear classifier readout vs true labels

``labelnet_loss`` is the loss over the whole training set, one output row
per label pattern, returned as the four weighted terms by name; ``labelnet_grad`` is its exact gradient with one batch
taken as the whole set. ``pairwise_nll`` is the value of every pairwise
likelihood term, here and in the image objective, summed over the row
blocks of ``LabelPatterns.row_blocks``. The trained ``NetOutputs`` are
cached per label pattern as fixed supervision for the image networks.
"""

from dataclasses import dataclass

import numpy as np

from .config import HyperParams
from .data import Dataset, LabelPatterns
from .encoder import EncoderParams, MomentumSGD, NetOutputs, backward, forward, forward_rows
from .numerics import check_finite, finite_terms, sigmoid_stable, softplus_stable


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


def pairwise_nll(sup_pat, img, pat: LabelPatterns, what) -> float:
    """Negative log-likelihood of the shared-label similarity of ``pat`` over
    ordered item pairs i != j, logits 0.5 sup_pat[ids[i]].img[j], summed over
    count-weighted pattern x item logits in the row blocks of
    ``pat.row_blocks``. Non-finite logits raise TrainingError naming
    ``what``."""
    total = 0.0
    for rows, similar in pat.row_blocks(img.shape[0]):
        logits = check_finite(0.5 * (sup_pat[rows] @ img.T), f"{what} logits")
        s = similar[:, pat.ids]
        total += float(pat.counts[rows] @ (softplus_stable(logits) - s * logits).sum(axis=1))
    # take out each item's own pair (s_ii = 1)
    own = check_finite(0.5 * np.einsum("ij,ij->i", sup_pat[pat.ids], img), f"{what} logits")
    return total - float((softplus_stable(own) - own).sum())


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


def labelnet_loss(sup: NetOutputs, head: ClassifierHead, patterns: LabelPatterns,
                  hp: HyperParams) -> dict:
    """Loss over all items of ``patterns`` from the per-pattern outputs ``sup``;
    pattern a counts counts[a] times and its label row is its target. Returns
    the weighted terms by name, in log-column order."""
    r, omega, counts, ids = sup.r, sup.u, patterns.counts, patterns.ids
    resid2 = (head.predict(omega) - patterns.rows)**2
    return finite_terms(
        sem_pair=hp.alpha * pairwise_nll(r, r[ids], patterns, "sem_pair"),
        code_pair=hp.beta * pairwise_nll(omega, omega[ids], patterns, "code_pair"),
        # each item appears in 2*(n-1) ordered-pair slots
        binary_reg=hp.gamma * 2.0 * (ids.size - 1) * binary_reg_value(omega, hp.j3_literal, counts),
        classify=hp.delta * float((counts[:, None] * resid2).sum()))


def labelnet_grad(outs: NetOutputs, head: ClassifierHead, sim_binary, labels, hp: HyperParams):
    """Exact gradients of ``labelnet_loss``, the batch taken as the whole set:
    (g_r, g_omega, [g_head_weight, g_head_bias]); the loss is never evaluated.

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
    return g_r, g_omega, [d.T @ omega, d.sum(axis=0)]


def iter_batches(n, batch_size, rng):
    """Shuffled index batches; a trailing remnant below 2 items is dropped."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        batch = order[start:start + batch_size]
        if batch.size >= 2:
            yield batch


def train_labelnet(params: EncoderParams, head: ClassifierHead, dataset: Dataset,
                   hp: HyperParams, *, epochs: int, lr: float, rng,
                   optimizer: MomentumSGD) -> NetOutputs:
    """Run ``epochs`` of minibatch SGD (per step one forward pass, the loss
    gradients, no loss value), then return the supervision cached from the
    final parameters over the full training set. ``optimizer`` owns
    ``params.arrays + [head.weight, head.bias]`` and updates them in place."""
    for _ in range(epochs):
        for batch in iter_batches(dataset.n, hp.batch_size, rng):
            x = dataset.labels[batch]
            outs = forward(params, x, keep_hidden=True)
            g_r, g_omega, g_head = labelnet_grad(outs, head, dataset.patterns.block(batch), x, hp)
            optimizer.step(backward(params, outs, g_r, g_omega * (1.0 - outs.u**2)) + g_head, lr)

    return cache_supervision(params, dataset)


def cache_supervision(params: EncoderParams, dataset: Dataset) -> NetOutputs:
    """The image networks' supervision: the label network's outputs, one row
    per label pattern, as the network sees only the label row (item i reads
    row ``patterns.ids[i]`` of ``dataset``'s ``LabelPatterns``)."""
    # Taken from the blocked n-row forward, whose GEMMs give equal rows for
    # equal label rows, so a gather by pattern id reproduces it exactly; a
    # forward over the p pattern rows blocks the GEMM differently and rounds apart.
    outs = forward_rows(params, dataset.labels)
    first = dataset.patterns.first
    return NetOutputs(r=outs.r[first], u=outs.u[first])
