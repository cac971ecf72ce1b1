"""Label-network objective, gradients, and training phase.

The label network embeds multi-hot label vectors. Its loss couples four
terms over all ordered pairs of distinct items (i != j):

  sem_pair    pairwise likelihood on semantic features, logits 0.5 * r_i.r_j
  code_pair   same on tanh code outputs, logits 0.5 * w_i.w_j
  binary_reg  two-sided L1 pull ||w| - 1| of code entries toward +-1; the one-sided
              |w - 1| is minimised by every entry at +1, so it is not offered
  classify    squared error of the linear classifier readout vs true labels

``labelnet_loss`` is the loss over the whole training set, one output row
per label pattern, returned as the four weighted terms by name;
``labelnet_grad`` is its exact gradient with one batch taken as the whole
set. ``pairwise_nll`` is the value of every pairwise likelihood term, here
and in the image objective: each row block of ``LabelPatterns.row_blocks``
is formed in place, in buffers reused across blocks, and its row sums are
weighted by the pattern counts in one product at the end; the items' own
pairs are taken out through the same kernel, in the first row of those
buffers. The trained ``NetOutputs`` are cached per label pattern as fixed
supervision for the image networks.
"""

from dataclasses import dataclass

import numpy as np

from .config import HyperParams
from .data import Dataset, LabelPatterns
from .encoder import EncoderParams, MomentumSGD, NetOutputs, backward, forward, forward_rows
from .numerics import bernoulli_nll, check_finite, finite_terms, sigmoid_stable


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
    ordered item pairs i != j, logits 0.5 sup_pat[ids[i]].img[j]: the sum of
    each pattern x item logit row, in the row blocks of ``pat.row_blocks``,
    weighted by the pattern counts in one product, less each item's own
    pair. Each block, and the own pairs, are formed in the same three float
    buffers and one bool buffer, of one block each.
    Non-finite logits raise TrainingError naming ``what``."""
    n = img.shape[0]
    step = pat.block_rows(n)
    logits, scratch, nll = np.empty((3, step, n))
    s = np.empty((step, n), dtype=bool)
    per_row = np.empty(pat.counts.size)
    for rows, similar in pat.row_blocks(n):
        m = similar.shape[0]
        x = np.matmul(sup_pat[rows], img.T, out=logits[:m])
        x *= 0.5
        check_finite(x, f"{what} logits")
        np.take(similar, pat.ids, axis=1, out=s[:m], mode="clip")  # ids lie in range
        bernoulli_nll(x, s[:m], scratch[:m], nll[:m]).sum(axis=1, out=per_row[rows])
    total = float(pat.counts @ per_row)
    # take out each item's own pair (s_ii = 1), in the first row of the same buffers
    own = np.einsum("ij,ij->i", sup_pat[pat.ids], img, out=logits[0])
    own *= 0.5
    check_finite(own, f"{what} logits")
    s[0] = True
    return total - float(bernoulli_nll(own, s[0], scratch[0], nll[0]).sum())


def pair_residual(a, b, sim_binary, what):
    """sigma(theta) - s for the pair logits theta = 0.5 a b^T, zero on the
    diagonal: the upstream of a pairwise likelihood term. Non-finite
    logits raise TrainingError naming ``what``."""
    g = sigmoid_stable(check_finite(0.5 * (a @ b.T), f"{what} logits"))
    g -= sim_binary
    g.flat[::g.shape[1] + 1] = 0.0
    return g


def binary_reg_value(omega, counts) -> float:
    """Per-item L1 distance of codes from the discrete target set, row a
    counted ``counts[a]`` times."""
    return float((counts[:, None] * np.abs(np.abs(omega) - 1.0)).sum())


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
        binary_reg=hp.gamma * 2.0 * (ids.size - 1) * binary_reg_value(omega, counts),
        classify=hp.delta * float((counts[:, None] * resid2).sum()))


def labelnet_grad(outs: NetOutputs, head: ClassifierHead, sim_binary, labels, hp: HyperParams,
                  head_out):
    """Exact gradients of ``labelnet_loss``, the batch taken as the whole set:
    (g_r, g_omega, [g_head_weight, g_head_bias]), the head's written into
    ``head_out``, a pair of arrays shaped as the head's weight and bias. The
    loss is never evaluated.

    The binary regularizer uses the subgradient convention that its slope
    is 0 exactly at |entry| = 1.
    """
    r, omega = outs.r, outs.u
    m = r.shape[0]

    # symmetric pair matrices: both slots fold into one product
    g_r = hp.alpha * (pair_residual(r, r, sim_binary, "sem_pair") @ r)
    g_omega = hp.beta * (pair_residual(omega, omega, sim_binary, "code_pair") @ omega)

    reg_slope = np.sign(np.abs(omega) - 1.0) * np.sign(omega)
    g_omega = g_omega + hp.gamma * 2.0 * (m - 1) * reg_slope

    resid = head.predict(omega) - np.asarray(labels, dtype=np.float64)
    d = 2.0 * hp.delta * resid
    g_omega = g_omega + d @ head.weight
    return g_r, g_omega, [np.matmul(d.T, omega, out=head_out[0]),
                          d.sum(axis=0, out=head_out[1])]


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
    final parameters over the full training set. ``params.arrays + [head.weight,
    head.bias]`` are ``optimizer.arrays``; the gradient buffer lives for this call."""
    grad, views = optimizer.new_grad()
    for _ in range(epochs):
        for batch in iter_batches(dataset.n, hp.batch_size, rng):
            x = dataset.labels[batch]
            outs = forward(params, x, keep_hidden=True)
            g_r, g_omega, _ = labelnet_grad(outs, head, dataset.patterns.block(batch), x, hp,
                                            views[-2:])
            backward(params, outs, g_r, g_omega * (1.0 - outs.u**2), views)
            optimizer.step(grad, lr)

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
