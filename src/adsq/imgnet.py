"""Image-network objective with fixed label-network supervision.

Pairing is within-batch. The semantic and code likelihood terms run over
ordered pairs i != j where the supervision side carries index i and the
image side index j; the asymmetric inner-product term runs over all batch
pairs including i = j, anchoring each item's continuous output to its own
discrete code. The balance term pushes every bit's batch column sum
toward zero.

Gradients are the exact derivatives of the loss as computed here. They
enter the encoder at two points: the hash pre-activation (quantization,
balance, code-likelihood, and asymmetric terms) and the semantic layer
(the semantic likelihood term, which never touches the hash head).
"""

from dataclasses import dataclass

import numpy as np

from .bstep import CodeMatrix
from .config import HyperParams, TermMask, variant_loss_mask
from .data import Dataset, LabelPatterns
from .encoder import EncoderParams, MomentumSGD, NetOutputs, backward, forward
from .errors import TrainingError
from .labelnet import LabelSupervision, iter_batches, pair_residual, pairwise_nll
from .numerics import check_finite, softplus_stable


@dataclass
class ImgBatchContext:
    """Everything one batch of the image objective needs, index-aligned."""

    indices: np.ndarray
    u: np.ndarray           # batch x k_half, tanh outputs
    r_img: np.ndarray       # batch x semantic_dim
    r_sup: np.ndarray       # batch x semantic_dim, label-network semantic rows
    w_sup: np.ndarray       # batch x k_half, label-network code rows
    codes: np.ndarray       # batch x k_half, entries +-1
    sim_binary: np.ndarray  # batch x batch in {0,1}
    sim_signed: np.ndarray  # batch x batch in {-1,+1}


@dataclass
class ImgLossBreakdown:
    """Weighted term contributions; they sum to ``total``. Masked terms
    are reported as exactly 0.0 and are never computed."""

    sem_pair: float
    code_pair: float
    quant: float
    balance: float
    asym: float

    @property
    def total(self) -> float:
        return self.sem_pair + self.code_pair + self.quant + self.balance + self.asym


def make_context(batch, outs, sup: LabelSupervision, code_matrix: CodeMatrix,
                 patterns: LabelPatterns) -> ImgBatchContext:
    """Batch context; ``patterns`` are those of the full training labels."""
    batch = np.asarray(batch)
    s_bin = patterns.block(batch)
    s_signed = 2.0 * s_bin
    s_signed -= 1.0
    return ImgBatchContext(indices=batch, u=outs.u, r_img=outs.r,
                           r_sup=sup.r_l[batch], w_sup=sup.omega_l[batch],
                           codes=code_matrix.codes[batch],
                           sim_binary=s_bin, sim_signed=s_signed)


def _weighted_terms(variant, hp: HyperParams, u, codes, sem, code, asym) -> ImgLossBreakdown:
    """Weight and check each term the variant's mask keeps; ``sem``, ``code``
    and ``asym`` return the unweighted sums and are called only if kept."""
    mask = variant if isinstance(variant, TermMask) else variant_loss_mask(variant)
    raw = {"sem_pair": (hp.alpha, sem), "code_pair": (hp.beta, code),
           "quant": (hp.eta, lambda: float(((u - codes)**2).sum())),
           "balance": (hp.nu, lambda: float((u.sum(axis=0)**2).sum())),
           "asym": (1.0, asym)}
    terms = {}
    for name, (weight, value) in raw.items():
        keep = getattr(mask, name)
        terms[name] = check_finite(keep * weight * value(), f"{name} term") if keep else 0.0
    return ImgLossBreakdown(**terms)


def imgnet_loss(ctx: ImgBatchContext, hp: HyperParams, variant="full") -> ImgLossBreakdown:
    k = ctx.u.shape[1]

    def nll(sup, img, what):
        return pairwise_nll(check_finite(0.5 * (sup @ img.T), f"{what} logits"),
                            ctx.sim_binary)

    return _weighted_terms(
        variant, hp, ctx.u, ctx.codes,
        sem=lambda: nll(ctx.r_sup, ctx.r_img, "sem_pair"),
        code=lambda: nll(ctx.w_sup, ctx.u, "code_pair"),
        asym=lambda: float(((ctx.u @ ctx.codes.T - k * ctx.sim_signed)**2).sum()))


def imgnet_grads(ctx: ImgBatchContext, hp: HyperParams, variant="full"):
    """Exact gradients of imgnet_loss w.r.t. the semantic outputs and the
    hash pre-activations: returns (g_r, g_v). The loss itself is never
    evaluated; non-finite pair logits raise TrainingError naming the term."""
    mask = variant if isinstance(variant, TermMask) else variant_loss_mask(variant)
    k = ctx.u.shape[1]

    g_r = np.zeros_like(ctx.r_img)
    if mask.sem_pair:
        g_lam = pair_residual(ctx.r_sup, ctx.r_img, ctx.sim_binary, "sem_pair")
        g_r = mask.sem_pair * hp.alpha * 0.5 * (g_lam.T @ ctx.r_sup)

    g_u = np.zeros_like(ctx.u)
    if mask.asym:
        fit = ctx.u @ ctx.codes.T - k * ctx.sim_signed
        g_u += mask.asym * 2.0 * (fit @ ctx.codes)
    if mask.code_pair:
        g_theta = pair_residual(ctx.w_sup, ctx.u, ctx.sim_binary, "code_pair")
        g_u += mask.code_pair * hp.beta * 0.5 * (g_theta.T @ ctx.w_sup)
    if mask.quant:
        g_u += mask.quant * 2.0 * hp.eta * (ctx.u - ctx.codes)
    if mask.balance:
        g_u += mask.balance * 2.0 * hp.nu * ctx.u.sum(axis=0)
    g_v = g_u * (1.0 - ctx.u**2)

    for name, g in (("v", g_v), ("r", g_r)):
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient ({name}) in image-network loss")
    return g_r, g_v


def wstep_epoch(params: EncoderParams, dataset: Dataset, code_matrix: CodeMatrix,
                sup: LabelSupervision, hp: HyperParams, variant, *, lr: float, rng,
                optimizer: MomentumSGD) -> None:
    """One epoch of weight updates with the discrete codes held fixed: per
    step one forward pass and the gradients of imgnet_loss, no loss value.
    Mutates ``params`` and ``optimizer`` in place."""
    for batch in iter_batches(dataset.n, hp.batch_size, rng):
        outs = forward(params, dataset.features[batch], keep_hidden=True)
        ctx = make_context(batch, outs, sup, code_matrix, dataset.patterns)
        g_r, g_v = imgnet_grads(ctx, hp, variant)
        net_grads = backward(params, outs, g_r, g_v)
        optimizer.step(params.weights + params.biases,
                       net_grads.weights + net_grads.biases, lr)


def full_objective(outs: NetOutputs, dataset: Dataset, code_matrix: CodeMatrix,
                   sup: LabelSupervision, hp: HyperParams, variant) -> ImgLossBreakdown:
    """Whole-training-set objective (a single batch spanning every item) of
    the network whose full-set outputs are ``outs``; one forward pass serves
    every call made with the same weights.

    The similarity enters only through per-pattern sums of the dataset's
    label patterns: sum_ij s_ij x_i.y_j = <S_pat, X_pat Y_pat^T>. Only the
    softplus part of the pairwise likelihoods stays dense (n x n)."""
    pat = dataset.patterns
    u, codes = outs.u, code_matrix.codes
    n, k = codes.shape

    def sim_inner(x, y):
        return float((pat.sim * (pat.sums(x) @ pat.sums(y).T)).sum())

    def nll(sup, img, what):
        soft = softplus_stable(check_finite(0.5 * (sup @ img.T), f"{what} logits"))
        np.fill_diagonal(soft, 0.0)
        # the s_ij logit_ij part over i != j (s_ii = 1)
        return float(soft.sum()) - 0.5 * (sim_inner(sup, img) - float((sup * img).sum()))

    def asym():
        # ||U B^T - k S_signed||^2 with S_signed = 2 S - 1, every entry +-1
        signed = 2.0 * sim_inner(u, codes) - float(u.sum(axis=0) @ codes.sum(axis=0))
        return float(((u.T @ u) * (codes.T @ codes)).sum()) - 2.0 * k * signed \
            + float(k * k) * n * n

    return _weighted_terms(variant, hp, u, codes,
                           sem=lambda: nll(sup.r_l, outs.r, "sem_pair"),
                           code=lambda: nll(sup.omega_l, u, "code_pair"), asym=asym)
