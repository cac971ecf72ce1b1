"""Central finite differences used as the gradient oracle in several suites,
and the image and label objectives of one batch taken as the whole
training set."""

import numpy as np

from adsq.data import Dataset, LabelPatterns
from adsq.encoder import NetOutputs
from adsq.imgnet import full_objective
from adsq.labelnet import labelnet_loss

STEP = 1e-6
TOL = 1e-5


def fd_grad(fn, arr, step=STEP):
    """Central-difference gradient of scalar fn w.r.t. every entry of arr.

    fn is called with no arguments and must read ``arr`` by reference;
    entries are perturbed in place and restored.
    """
    grad = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        fp = fn()
        arr[idx] = orig - step
        fm = fn()
        arr[idx] = orig
        grad[idx] = (fp - fm) / (2 * step)
    return grad


def max_rel_error(analytic, numeric):
    """Max absolute difference normalized by the largest gradient entry."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.max(np.abs(numeric)), np.max(np.abs(analytic)), 1e-12)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def random_similarity(rng, n):
    """Random symmetric {0,1} similarity with unit diagonal, plus signed view."""
    s = (rng.random((n, n)) < 0.5).astype(np.float64)
    s = np.triu(s, 1)
    s = s + s.T
    np.fill_diagonal(s, 1.0)
    return s, 2.0 * s - 1.0


def labels_for_similarity(s):
    """A label matrix whose shared-label similarity is ``s`` (symmetric
    {0,1}, unit diagonal): one class per item plus one class per similar
    pair. Every row is distinct, so each item is its own label pattern."""
    m = s.shape[0]
    first, second = np.nonzero(np.triu(s, 1))
    pair_class = m + np.arange(first.size)
    labels = np.zeros((m, m + first.size), dtype=np.int8)
    labels[np.arange(m), np.arange(m)] = 1
    labels[first, pair_class] = 1
    labels[second, pair_class] = 1
    return labels


def batch_dataset(s):
    """A one-batch training set whose similarity is ``s``; the features
    are never read by ``full_objective``."""
    return Dataset(features=np.zeros((s.shape[0], 1)), labels=labels_for_similarity(s))


def batch_objective(ctx, hp, dataset=None):
    """``full_objective`` with the batch ``ctx`` (an ``ImgBatchContext``) as
    the whole training set; ``dataset`` is ``batch_dataset(ctx.sim_binary)``,
    built here when not given. The supervision is gathered per pattern,
    as patterns come sorted by key, not in item order."""
    dataset = batch_dataset(ctx.sim_binary) if dataset is None else dataset
    first = dataset.patterns.first
    sup = NetOutputs(r=ctx.r_sup[first], u=ctx.w_sup[first])
    return full_objective(NetOutputs(r=ctx.r_img, u=ctx.u), dataset, ctx.codes, sup, hp)


def batch_label_loss(r, omega, head, labels, hp):
    """``labelnet_loss`` with a batch of item rows ``r``, ``omega`` and label
    matrix ``labels`` (the classifier targets) taken as the whole set; items
    of one label pattern must share their rows. The supervision is gathered
    per pattern, as in ``batch_objective``."""
    pat = LabelPatterns(labels)
    sup = NetOutputs(r=r[pat.first], u=omega[pat.first])
    return labelnet_loss(sup, head, pat, hp)
