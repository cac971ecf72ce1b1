"""Numerically stable scalar kernels and the finiteness guard shared by all
loss terms.

Both kernels accept scalars or numpy arrays and always compute in double
precision. Outputs stay finite for any finite input, including |x| in the
thousands where the naive formulas overflow.
"""

import numpy as np

from .errors import TrainingError

# Smallest positive normal double; sigmoid output is clamped into
# [_TINY, 1 - eps/2] so callers can safely take logs of either side.
_TINY = np.finfo(np.float64).tiny
_ONE_MINUS_EPS = np.nextafter(1.0, 0.0)


def _as_finite_array(x, name):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} requires finite input")
    return arr


def check_finite(value, what):
    """Return ``value``; raise TrainingError naming ``what`` if any entry
    is NaN or Inf. Loss code calls this so that a diverged run fails with
    the trainer's round and phase attached, not a bare ValueError."""
    if not np.all(np.isfinite(value)):
        raise TrainingError(f"non-finite {what}")
    return value


def sigmoid_stable(x):
    """Logistic function 1/(1+e^-x) without overflow.

    Computed via e^-|x| so the exponential argument is never positive.
    The result is clamped to the open interval (0, 1): deep negative
    inputs return the smallest positive normal double instead of 0.
    """
    arr = _as_finite_array(x, "sigmoid_stable")
    t = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    out = np.clip(out, _TINY, _ONE_MINUS_EPS)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def softplus_stable(x):
    """log(1+e^x) computed as max(x,0) + log1p(e^-|x|).

    Exact to within a few ulp across the whole double range; the naive
    form overflows past x ~ 710.
    """
    arr = _as_finite_array(x, "softplus_stable")
    out = np.maximum(arr, 0.0) + np.log1p(np.exp(-np.abs(arr)))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out
