"""Plain references for the packed-code layout, used only by the tests.

``unpack`` inverts ``adsq.codes.pack``; ``hamming_distance`` is the scalar
distance that ``adsq.codes.distances_to_all``'s word scan is checked against;
``quantize_sign`` is the +-1 sign that codes are defined by.
``sigmoid_reference`` is the plain form of ``adsq.numerics.sigmoid_stable``,
and ``softplus_stable`` the softplus that ``adsq.numerics.bernoulli_nll``
forms in place.
"""

import numpy as np


def unpack(packed) -> np.ndarray:
    """The +-1 float matrix of a ``PackedCodes``."""
    return np.unpackbits(packed.payload, axis=1, count=packed.k_total) * 2.0 - 1.0


def quantize_sign(values) -> np.ndarray:
    """Elementwise sign with sign(0) = +1."""
    return np.where(np.asarray(values) >= 0, 1.0, -1.0)


def hamming_distance(a, b) -> int:
    """Popcount of XOR over two packed rows of equal width."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"packed rows differ in length: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(np.bitwise_xor(a, b)).sum())


def sigmoid_reference(x) -> np.ndarray:
    """1/(1+e^-x) through e^-|x|, clamped to [tiny, 1 - eps/2], in plain
    numpy calls: the value ``sigmoid_stable`` must give bit for bit."""
    t = np.exp(-np.abs(x))
    return np.clip(np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t)),
                   np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))


def softplus_stable(x):
    """log(1+e^x) computed as max(x,0) + log1p(e^-|x|).

    Exact to within a few ulp across the whole double range; the naive
    form overflows past x ~ 710.
    """
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
