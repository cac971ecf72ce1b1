"""Copy and comparison of encoder parameter sets for the tests."""

import numpy as np

from adsq.encoder import EncoderParams, MomentumSGD, flat_copy


def copy_params(p) -> EncoderParams:
    """An ``EncoderParams`` holding copies of every array of ``p``."""
    return EncoderParams([w.copy() for w in p.weights], [b.copy() for b in p.biases])


def same_params(a, b) -> bool:
    """Whether two ``EncoderParams`` hold exactly equal arrays, layer by layer."""
    return (len(a.weights) == len(b.weights)
            and all(np.array_equal(x, y) for x, y in zip(a.weights + a.biases,
                                                          b.weights + b.biases)))


def optimize(params, hp, head=None) -> MomentumSGD:
    """A new optimizer over ``params`` and ``head``. A head is first moved,
    with the params, onto one new buffer in place, so that every holder of
    them sees the optimizer's steps."""
    if head is None:
        return MomentumSGD(params.arrays, hp.momentum, hp.weight_decay)
    arrays = flat_copy(params.arrays + [head.weight, head.bias])
    moved = params.on(arrays)
    params.weights[:], params.biases[:] = moved.weights, moved.biases
    head.weight, head.bias = arrays[-2:]
    return MomentumSGD(arrays, hp.momentum, hp.weight_decay)
