"""Image-network objective with fixed label-network supervision.

There is one objective, over the whole training set. The semantic and
code likelihood terms run over ordered pairs i != j where the supervision
side carries index i and the image side index j; the asymmetric
inner-product term runs over all pairs including i = j, anchoring each
item's continuous output to its own discrete code. The balance term
pushes every bit's column sum toward zero.

``full_objective`` evaluates it for the diagnostics and returns its weighted
terms by name: its likelihood terms by ``labelnet.pairwise_nll``, its
asymmetric term by ``LabelPatterns.signed``. After a code update,
``recoded_objective`` recomputes only the two terms that read the codes
(quant and asym) and takes the other three from the result before it. The
codes are the trainer's plain n x k_half float64 array of +-1.
``imgnet_grads`` is its exact gradient with one batch taken as the whole
set, read from the batch's outputs and the supervision rows, +-1 code rows
and {0,1} similarity block that ``wstep_epoch`` gathers for it. It enters
the encoder at the hash pre-activation (quantization, balance,
code-likelihood and asymmetric terms) and at the semantic layer (the
semantic likelihood term, which never touches the hash head).

Which terms run is read from ``hp.variant`` alone (``Variant.keeps_sem``,
``Variant.keeps_asym``); a dropped term is neither computed nor
differentiated.
"""

import numpy as np

from .config import HyperParams
from .data import Dataset
from .encoder import EncoderParams, MomentumSGD, NetOutputs, backward, forward
from .labelnet import iter_batches, pair_residual, pairwise_nll
from .numerics import finite_terms


def imgnet_grads(outs: NetOutputs, sup: NetOutputs, codes, sim_binary, hp: HyperParams):
    """Exact gradients of ``full_objective``, with the batch taken as the
    whole training set, w.r.t. the semantic outputs and the hash
    pre-activations: returns (g_r, g_v); every argument holds the batch's
    rows in one order. The objective itself is never evaluated; non-finite
    pair logits raise TrainingError naming the term."""
    u = outs.u
    if hp.variant.keeps_sem:
        g_lam = pair_residual(sup.r, outs.r, sim_binary, "sem_pair")
        g_r = hp.alpha * 0.5 * (g_lam.T @ sup.r)
    else:
        g_r = np.zeros_like(outs.r)

    g_u = np.zeros_like(u)
    if hp.variant.keeps_asym:
        # U B^T - k S_signed over the batch, with S_signed = 2 S - 1
        g_u += 2.0 * ((u @ codes.T - u.shape[1] * (2.0 * sim_binary - 1.0)) @ codes)
    g_theta = pair_residual(sup.u, u, sim_binary, "code_pair")
    g_u += hp.beta * 0.5 * (g_theta.T @ sup.u)
    g_u += 2.0 * hp.eta * (u - codes)
    g_u += 2.0 * hp.nu * u.sum(axis=0)
    g_v = g_u * (1.0 - u**2)
    return g_r, g_v


def wstep_epoch(params: EncoderParams, dataset: Dataset, codes, sup: NetOutputs,
                hp: HyperParams, *, lr: float, rng, optimizer: MomentumSGD) -> None:
    """One epoch of weight updates with the discrete codes held fixed: per
    step one forward pass and the batch gradients, no objective value.
    ``params.arrays`` are ``optimizer.arrays``; the gradient buffer lives for this call."""
    grad, views = optimizer.new_grad()
    for batch in iter_batches(dataset.n, hp.batch_size, rng):
        outs = forward(params, dataset.features[batch], keep_hidden=True)
        pid = dataset.patterns.ids[batch]
        grads = imgnet_grads(outs, NetOutputs(r=sup.r[pid], u=sup.u[pid]), codes[batch],
                             dataset.patterns.block(batch), hp)
        backward(params, outs, *grads, views)
        optimizer.step(grad, lr)


def full_objective(outs: NetOutputs, dataset: Dataset, codes, sup: NetOutputs,
                   hp: HyperParams) -> dict:
    """Whole-training-set objective (a single batch spanning every item) of
    the network whose full-set outputs are ``outs``; one forward pass serves
    every call made with the same weights.

    The supervision side of each pairwise likelihood has one row per label
    pattern (see ``pairwise_nll``). The similarity enters the asymmetric
    term only through <U, S_signed B> = <U, ``pat.signed(B)``>. No n x n
    array is made. Returns the weighted terms by name, in log-column order;
    a term the variant drops is 0.0 and is never computed."""
    pat, u = dataset.patterns, outs.u
    sem_pair = hp.alpha * pairwise_nll(sup.r, outs.r, pat, "sem_pair") \
        if hp.variant.keeps_sem else 0.0
    code_pair = hp.beta * pairwise_nll(sup.u, u, pat, "code_pair")
    quant, asym = _code_terms(u, pat, codes, hp)
    return finite_terms(sem_pair=sem_pair, code_pair=code_pair, quant=quant,
                        balance=hp.nu * float((u.sum(axis=0)**2).sum()), asym=asym)


def recoded_objective(terms: dict, outs: NetOutputs, dataset: Dataset, codes,
                      hp: HyperParams) -> dict:
    """``full_objective`` after the codes changed: ``terms`` is its result for
    the same ``outs`` and supervision with the codes before. sem_pair,
    code_pair and balance do not read the codes, so they are taken from
    ``terms``; only quant and asym are computed, from ``codes``. Bit for bit
    a fresh ``full_objective`` call, without its two pairwise likelihoods."""
    quant, asym = _code_terms(outs.u, dataset.patterns, codes, hp)
    return finite_terms(**{**terms, "quant": quant, "asym": asym})


def _code_terms(u, pat, codes, hp: HyperParams):
    """(quant, asym), the two weighted terms that read the codes; asym is
    0.0, and never computed, where the variant drops it."""
    n, k = codes.shape
    quant = hp.eta * float(((u - codes)**2).sum())
    if not hp.variant.keeps_asym:
        return quant, 0.0
    # ||U B^T - k S_signed||^2 with S_signed = 2 S - 1, every entry +-1
    return quant, float(((u.T @ u) * (codes.T @ codes)).sum()) \
        - 2.0 * k * float((u * pat.signed(codes)).sum()) + float(k * k) * n * n
