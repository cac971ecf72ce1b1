"""Numerically stable elementwise kernels and the finiteness guards shared
by all loss terms.

The kernels take float64 arrays that ``check_finite`` has passed, as every
loss term's logits do, and check nothing themselves. Outputs stay finite
for any finite input, including |x| in the thousands where the naive
formulas overflow. ``finite_terms`` checks an objective's weighted terms,
given by name in log-column order.
"""

import numpy as np

from .errors import TrainingError

# Smallest positive normal double; sigmoid output is clamped into
# [_TINY, 1 - eps/2] so callers can safely take logs of either side.
_TINY = np.finfo(np.float64).tiny
_ONE_MINUS_EPS = np.nextafter(1.0, 0.0)


def check_finite(value, what):
    """Return ``value``; raise TrainingError naming ``what`` if any entry
    is NaN or Inf. Loss code calls this so that a diverged run fails with
    the trainer's round and phase attached, not a bare ValueError."""
    if not np.all(np.isfinite(value)):
        raise TrainingError(f"non-finite {what}")
    return value


def finite_terms(**terms):
    """Return ``terms``; raise TrainingError("non-finite <name> term") for
    the first term, in the given order, that is NaN or Inf."""
    for name, value in terms.items():
        check_finite(value, f"{name} term")
    return terms


def sigmoid_stable(x):
    """Logistic function 1/(1+e^-x) without overflow.

    Computed via e^-|x| so the exponential argument is never positive.
    The result is clamped to the open interval (0, 1): deep negative
    inputs return the smallest positive normal double instead of 0.
    """
    t = np.exp(-np.abs(x))
    return np.clip(np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t)), _TINY, _ONE_MINUS_EPS)


def softplus_stable(x):
    """log(1+e^x) computed as max(x,0) + log1p(e^-|x|).

    Exact to within a few ulp across the whole double range; the naive
    form overflows past x ~ 710.
    """
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
