"""Seeded synthetic benchmark: Gaussian class clusters with optional
multi-label overlap. Class centres are drawn uniformly from [-1, 1] in
every dimension, and ``cluster_spread`` is the standard deviation of the
items about their centre, so it alone sets how far apart the clusters are.
Items are emitted class-sorted, so with zero overlap the similarity matrix
is block diagonal. Train and query splits come from the same distribution
but are separate draws. Each split's features and labels are filled class
by class into one preallocated array each, with the draws per class in a
fixed order: normal, then random, then integers."""

from dataclasses import dataclass

import numpy as np

from .data import Dataset


@dataclass(frozen=True)
class SynthSpec:
    classes: int
    dim: int
    per_class: int
    queries_per_class: int
    cluster_spread: float = 0.5
    multilabel_overlap: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("classes", 2), ("dim", 1), ("per_class", 1), ("queries_per_class", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.cluster_spread <= 0:
            raise ValueError("cluster_spread must be positive")
        if not 0 <= self.multilabel_overlap <= 1:
            raise ValueError("multilabel_overlap must lie in [0, 1]")


def _make_split(rng, centers, spec: SynthSpec, per_class: int) -> Dataset:
    n = spec.classes * per_class
    feats = np.empty((n, spec.dim))
    labels = np.zeros((n, spec.classes), dtype=np.int8)
    for cls in range(spec.classes):
        rows = slice(cls * per_class, (cls + 1) * per_class)
        np.add(centers[cls], rng.normal(0.0, spec.cluster_spread, size=(per_class, spec.dim)),
               out=feats[rows])
        lab = labels[rows]
        lab[:, cls] = 1
        if spec.multilabel_overlap > 0:
            gains = rng.random(per_class) < spec.multilabel_overlap
            extra = rng.integers(0, spec.classes - 1, size=per_class)
            extra = np.where(extra >= cls, extra + 1, extra)  # never the own class
            lab[gains, extra[gains]] = 1
    return Dataset(features=feats, labels=labels)


def generate(spec: SynthSpec):
    """Return (train, query) datasets, deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    centers = rng.uniform(-1.0, 1.0, size=(spec.classes, spec.dim))
    train = _make_split(rng, centers, spec, spec.per_class)
    query = _make_split(rng, centers, spec, spec.queries_per_class)
    return train, query
