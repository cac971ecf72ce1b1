"""Discrete code optimization by cyclic coordinate descent over columns.

With network outputs U fixed, the code matrix B, a plain n x k_half float64
array with entries exactly +-1 updated in place, minimizes

    || U B^T - k_half * S_signed ||_F^2 + eta * || U - B ||_F^2

one column at a time. Because every candidate column has unit entries,
the self-interaction term is constant and each column has the closed-form
minimizer  -sign(2 * B_rest (U_rest^T u_col) + p_col)  where
P = -2 * k_half * S_signed^T U - 2 * eta * U.

The similarity is given as ``LabelPatterns``: S_signed^T U is
``LabelPatterns.signed(U)``, in O(n k + p^2 k) time and bounded blocks.

The objective depends on column c only through <b_c, arg_c>, so an update
changes it by exactly (b_new - b_old) . arg_c. Each update checks that this
change is finite and non-positive, in O(n), instead of recomputing the
O(n^2 k) objective; ``bstep_objective`` remains as the reference.
"""

import numpy as np

from .config import HyperParams
from .data import LabelPatterns
from .errors import TrainingError


def bstep_objective(U, B, sim_signed, k_half: int, eta: float) -> float:
    U = np.asarray(U, dtype=np.float64)
    fit = U @ B.T - k_half * np.asarray(sim_signed, dtype=np.float64)
    quant = U - B
    return float((fit**2).sum() + eta * (quant**2).sum())


def compute_P(U, patterns: LabelPatterns, hp: HyperParams) -> np.ndarray:
    """P for the shared-label similarity of ``patterns``."""
    if patterns.ids.shape != U.shape[:1]:
        raise ValueError(f"patterns cover {patterns.ids.size} items, U has {U.shape[0]} rows")
    return -2.0 * hp.k_half * patterns.signed(U) - 2.0 * hp.eta * U


def update_column(B, c: int, U, P) -> np.ndarray:
    """Replace column c of ``B`` in place with the exact minimizer over {-1,+1}^n,
    all other columns fixed, given ``U`` and the sweep's ``P``. sign(0) = +1, so
    a zero argument lands on -1 after the leading negation. Raises TrainingError
    if the argument is non-finite or the update would raise the objective."""
    k = B.shape[1]
    if not 0 <= c < k:
        raise IndexError(f"column index {c} out of range for {k} columns")
    cross = U.T @ U[:, c]
    cross[c] = 0.0  # the other columns alone, without copying them
    arg = 2.0 * (B @ cross) + P[:, c]
    if not np.all(np.isfinite(arg)):
        raise TrainingError(f"non-finite code-update argument in column {c}")
    new = np.where(arg >= 0, -1.0, 1.0)
    change = float((new - B[:, c]) @ arg)
    if change > 0.0:
        raise TrainingError(f"column {c} update raised the discrete objective by {change}")
    B[:, c] = new
    return B[:, c]


def bstep_sweep(B, U, patterns: LabelPatterns, hp: HyperParams) -> np.ndarray:
    """Update every column of ``B`` once, in place and in ascending order;
    each update checks that the objective does not increase (see
    ``update_column``)."""
    P = compute_P(U, patterns, hp)
    for c in range(B.shape[1]):
        update_column(B, c, U, P)
    return B
