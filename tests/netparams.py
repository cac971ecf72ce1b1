"""Copy and comparison of encoder parameter sets for the tests."""

import numpy as np

from adsq.encoder import EncoderParams


def copy_params(p) -> EncoderParams:
    """An ``EncoderParams`` holding copies of every array of ``p``."""
    return EncoderParams([w.copy() for w in p.weights], [b.copy() for b in p.biases])


def same_params(a, b) -> bool:
    """Whether two ``EncoderParams`` hold exactly equal arrays, layer by layer."""
    return (len(a.weights) == len(b.weights)
            and all(np.array_equal(x, y) for x, y in zip(a.weights + a.biases,
                                                          b.weights + b.biases)))
