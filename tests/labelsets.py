"""Hand-built label matrices that reach the edge cases of label patterns."""

import numpy as np


def hand_label_sets():
    """name -> n x classes int8 {0,1} label matrix with no all-zero row."""
    rng = np.random.default_rng(17)

    single = np.tile(np.array([1, 0, 1, 0, 0], dtype=np.int8), (12, 1))

    # every row distinct (p = n): the binary forms of 1..16 in 5 bits
    distinct = ((np.arange(1, 17)[:, None] >> np.arange(5)) & 1).astype(np.int8)

    # 70 classes, two words: rows meet in the first word, the second word,
    # both or neither, with repeats
    base = np.zeros((6, 70), dtype=np.int8)
    base[0, [0, 5]] = 1
    base[1, [5, 66]] = 1
    base[2, [66]] = 1
    base[3, [64, 69]] = 1
    base[4, [63]] = 1
    base[5, [1, 69]] = 1
    two_words = base[rng.integers(0, 6, 24)]
    two_words[:6] = base

    # six classes of which class 3 is never used
    unused = (rng.random((20, 6)) < 0.4).astype(np.int8)
    unused[:, 3] = 0
    unused[unused.sum(axis=1) == 0, 0] = 1

    return {"single": single, "distinct": distinct, "two_words": two_words,
            "unused_class": unused}


LABEL_SET_NAMES = tuple(hand_label_sets())
