"""Comparison of encoder parameter sets for the tests."""

import numpy as np


def same_params(a, b) -> bool:
    """Whether two ``EncoderParams`` hold exactly equal arrays, layer by layer."""
    return (len(a.weights) == len(b.weights)
            and all(np.array_equal(x, y) for x, y in zip(a.weights + a.biases,
                                                          b.weights + b.biases)))
