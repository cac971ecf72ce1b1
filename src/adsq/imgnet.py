"""Image-network objective with fixed label-network supervision.

There is one objective, over the whole training set. The semantic and
code likelihood terms run over ordered pairs i != j where the supervision
side carries index i and the image side index j; the asymmetric
inner-product term runs over all pairs including i = j, anchoring each
item's continuous output to its own discrete code. The balance term
pushes every bit's column sum toward zero.

``full_objective`` evaluates it for the diagnostics: its likelihood terms by
``labelnet.pairwise_nll``, its asymmetric term by ``LabelPatterns.signed``.
``imgnet_grads`` is its exact gradient with one batch taken as the whole
set; it enters the encoder at the hash pre-activation (quantization,
balance, code-likelihood and asymmetric terms) and at the semantic layer
(the semantic likelihood term, which never touches the hash head).

Which terms run is read from ``hp.variant`` alone (``Variant.keeps_sem``,
``Variant.keeps_asym``); a dropped term is neither computed nor
differentiated.
"""

from dataclasses import dataclass

import numpy as np

from .bstep import CodeMatrix
from .config import HyperParams
from .data import Dataset, LabelPatterns
from .encoder import EncoderParams, MomentumSGD, NetOutputs, backward, forward
from .labelnet import iter_batches, pair_residual, pairwise_nll
from .numerics import check_finite


@dataclass
class ImgBatchContext:
    """Everything one batch of the image objective needs, index-aligned."""

    u: np.ndarray           # batch x k_half, tanh outputs
    r_img: np.ndarray       # batch x semantic_dim
    r_sup: np.ndarray       # batch x semantic_dim, label-network semantic rows
    w_sup: np.ndarray       # batch x k_half, label-network code rows
    codes: np.ndarray       # batch x k_half, entries +-1
    sim_binary: np.ndarray  # batch x batch in {0,1}


@dataclass
class ImgLossBreakdown:
    """Weighted term contributions; they sum to ``total``. Terms the
    variant drops are reported as exactly 0.0 and are never computed."""

    sem_pair: float
    code_pair: float
    quant: float
    balance: float
    asym: float

    @property
    def total(self) -> float:
        return self.sem_pair + self.code_pair + self.quant + self.balance + self.asym


def make_context(batch, outs, sup: NetOutputs, code_matrix: CodeMatrix,
                 patterns: LabelPatterns) -> ImgBatchContext:
    """Batch context; ``patterns`` are those of the full training labels."""
    pid = patterns.ids[batch]
    return ImgBatchContext(u=outs.u, r_img=outs.r, r_sup=sup.r[pid],
                           w_sup=sup.u[pid], codes=code_matrix.codes[batch],
                           sim_binary=patterns.block(batch))


def _asym_fit(ctx: ImgBatchContext):
    """U B^T - k S_signed over the batch, with S_signed = 2 S - 1."""
    return ctx.u @ ctx.codes.T - ctx.u.shape[1] * (2.0 * ctx.sim_binary - 1.0)


def imgnet_grads(ctx: ImgBatchContext, hp: HyperParams):
    """Exact gradients of ``full_objective``, with the batch taken as the
    whole training set, w.r.t. the semantic outputs and the hash
    pre-activations: returns (g_r, g_v). The objective itself is never
    evaluated; non-finite pair logits raise TrainingError naming the term."""
    g_r = np.zeros_like(ctx.r_img)
    if hp.variant.keeps_sem:
        g_lam = pair_residual(ctx.r_sup, ctx.r_img, ctx.sim_binary, "sem_pair")
        g_r = hp.alpha * 0.5 * (g_lam.T @ ctx.r_sup)

    g_u = np.zeros_like(ctx.u)
    if hp.variant.keeps_asym:
        g_u += 2.0 * (_asym_fit(ctx) @ ctx.codes)
    g_theta = pair_residual(ctx.w_sup, ctx.u, ctx.sim_binary, "code_pair")
    g_u += hp.beta * 0.5 * (g_theta.T @ ctx.w_sup)
    g_u += 2.0 * hp.eta * (ctx.u - ctx.codes)
    g_u += 2.0 * hp.nu * ctx.u.sum(axis=0)
    g_v = g_u * (1.0 - ctx.u**2)
    return g_r, g_v


def wstep_epoch(params: EncoderParams, dataset: Dataset, code_matrix: CodeMatrix,
                sup: NetOutputs, hp: HyperParams, *, lr: float, rng,
                optimizer: MomentumSGD) -> None:
    """One epoch of weight updates with the discrete codes held fixed: per
    step one forward pass and the batch gradients, no objective value.
    ``optimizer`` owns ``params.arrays`` and updates them in place."""
    for batch in iter_batches(dataset.n, hp.batch_size, rng):
        outs = forward(params, dataset.features[batch], keep_hidden=True)
        ctx = make_context(batch, outs, sup, code_matrix, dataset.patterns)
        optimizer.step(backward(params, outs, *imgnet_grads(ctx, hp)), lr)


def full_objective(outs: NetOutputs, dataset: Dataset, code_matrix: CodeMatrix,
                   sup: NetOutputs, hp: HyperParams) -> ImgLossBreakdown:
    """Whole-training-set objective (a single batch spanning every item) of
    the network whose full-set outputs are ``outs``; one forward pass serves
    every call made with the same weights.

    The supervision side of each pairwise likelihood has one row per label
    pattern (see ``pairwise_nll``). The similarity enters the asymmetric
    term only through <U, S_signed B> = <U, ``pat.signed(B)``>. No n x n
    array is made."""
    pat = dataset.patterns
    u, codes = outs.u, code_matrix.codes
    n, k = codes.shape

    def asym():
        # ||U B^T - k S_signed||^2 with S_signed = 2 S - 1, every entry +-1
        return float(((u.T @ u) * (codes.T @ codes)).sum()) \
            - 2.0 * k * float((u * pat.signed(codes)).sum()) + float(k * k) * n * n

    v = hp.variant
    return ImgLossBreakdown(
        sem_pair=check_finite(hp.alpha * pairwise_nll(sup.r, outs.r, pat, "sem_pair"),
                              "sem_pair term") if v.keeps_sem else 0.0,
        code_pair=check_finite(hp.beta * pairwise_nll(sup.u, u, pat, "code_pair"),
                               "code_pair term"),
        quant=check_finite(hp.eta * float(((u - codes)**2).sum()), "quant term"),
        balance=check_finite(hp.nu * float((u.sum(axis=0)**2).sum()), "balance term"),
        asym=check_finite(asym(), "asym term") if v.keeps_asym else 0.0)
