"""Numerically stable elementwise kernels and the finiteness guards shared
by all loss terms.

The kernels take float64 arrays that ``check_finite`` has passed, as every
loss term's logits do, and check nothing themselves. Outputs stay finite
for any finite input, including |x| in the thousands where the naive
formulas overflow; ``sigmoid_stable`` works in place in its one output
array, and ``bernoulli_nll`` in the two buffers its caller gives it, so a
blocked caller reuses them for every block; it is the one softplus kernel.
``finite_terms`` checks an objective's weighted terms, given by name in
log-column order.
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
    if not np.isfinite(value).all():
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
    t = np.exp(-np.abs(x), out=np.empty(np.shape(x)))
    d = 1.0 + t
    np.divide(t, d, out=t)
    np.divide(1.0, d, out=t, where=x >= 0)
    np.maximum(t, _TINY, out=t)
    return np.minimum(t, _ONE_MINUS_EPS, out=t)


def bernoulli_nll(x, s, scratch, out):
    """softplus(x) - s x per entry, the negative log-likelihood of a boolean
    ``s`` under logits ``x``, into ``out``. softplus(x) is taken as
    max(x, 0) + log1p(e^-|x|), exact to within a few ulp across the whole
    double range (the naive form overflows past x ~ 710): log1p(e^-|x|)
    goes into ``scratch``, max(x, 0) plus it into ``out``, then s x into
    ``scratch`` and out of ``out`` (two plain passes: a ``where=s``
    subtraction is several times slower); ``x`` is left as it is."""
    np.abs(x, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    np.log1p(scratch, out=scratch)
    np.maximum(x, 0.0, out=out)
    out += scratch
    np.multiply(x, s, out=scratch)
    return np.subtract(out, scratch, out=out)
