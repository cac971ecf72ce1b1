"""The benchmark's workloads and their seeded inputs.

Features and labels come from ``adsq.synth.generate`` with the run's
seed: Gaussian clusters, one per class, spread 0.5, 30 % multi-label
overlap, items class-sorted. Features never depend on the extra label,
so retrieval quality is not saturated.
"""

from dataclasses import dataclass

import numpy as np

OVERLAP = 0.3
SPREAD = 0.5
# A constant learning rate below the default grid (1e-5 rising to 1e-4 by
# round 2): on these inputs the grid collapses most items onto a handful
# of codes on most seeds, and on train-wide it diverges on some seeds.
# At 1e-6 the wide encoder still puts 1000 items on 8 to 22 codes.
LR = 3e-7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: int
    dim: int
    train_per_class: int
    db_per_class: int        # 0: the training set is the retrieval database
    queries_per_class: int
    k_half: int
    hidden: tuple
    semantic_dim: int
    t_label: int
    outer_rounds: int
    slices: int              # eval query slices; a round evaluates one of them
    encodes: int             # `adsq encode` runs of the database per round
    evals: int               # `adsq eval` runs of the round's slice per round
    searches: int            # search_topk calls per round
    setup_batch: int         # set-ups timed as one setup_s sample
    probe: bool = False      # also evaluate the fixed recall-rounding probe

    @property
    def n_train(self) -> int:
        return self.classes * self.train_per_class

    @property
    def n_db(self) -> int:
        return self.classes * (self.db_per_class or self.train_per_class)

    @property
    def n_queries(self) -> int:
        return self.classes * self.queries_per_class

    def slice_rows(self, s) -> np.ndarray:
        """Query rows of slice ``s``: the same share of every class."""
        per = self.queries_per_class // self.slices
        return (np.arange(self.classes)[:, None] * self.queries_per_class
                + s * per + np.arange(per)).ravel()

    def train_args(self):
        return ["--k-half", str(self.k_half),
                "--set", "encoder_hidden=" + ",".join(map(str, self.hidden)),
                "--set", f"semantic_dim={self.semantic_dim}",
                "--set", f"t_label={self.t_label}",
                "--set", f"outer_rounds={self.outer_rounds}",
                "--set", f"lr_min={LR}", "--set", f"lr_max={LR}"]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-pairwise",
        why="2000 items through a narrow encoder: the n-squared full-set objective "
            "and B-step dominate training",
        classes=10, dim=32, train_per_class=200, db_per_class=0, queries_per_class=20,
        k_half=16, hidden=(128,), semantic_dim=64, t_label=5, outer_rounds=1,
        slices=1, encodes=20, evals=6, searches=3000, setup_batch=50),
    Workload(
        name="train-wide",
        why="1000 items of 512-d features through a wide encoder: forward, backward "
            "and SGD dominate training, the pairwise terms do little",
        classes=10, dim=512, train_per_class=100, db_per_class=0, queries_per_class=20,
        k_half=16, hidden=(512, 512), semantic_dim=128, t_label=5, outer_rounds=1,
        slices=1, encodes=6, evals=8, searches=4000, setup_batch=8),
    Workload(
        name="retrieve-100k",
        why="a 1k-row model encodes a 100k-row database of 64-bit codes: encode, "
            "eval and search dominate",
        classes=21, dim=32, train_per_class=48, db_per_class=4762, queries_per_class=10,
        k_half=32, hidden=(64,), semantic_dim=32, t_label=5, outer_rounds=1,
        slices=5, encodes=2, evals=1, searches=100, setup_batch=2,
        probe=True),
)}


def make_inputs(w: Workload, seed: int, outdir, synth, data) -> dict:
    """Generate and write the workload's inputs; returns their paths.
    ``synth`` and ``data`` are the adsq modules, looked up at call time."""
    per = w.train_per_class + w.db_per_class
    pool, queries = synth.generate(synth.SynthSpec(
        classes=w.classes, dim=w.dim, per_class=per,
        queries_per_class=w.queries_per_class, cluster_spread=SPREAD,
        multilabel_overlap=OVERLAP, seed=seed))
    rows = np.arange(pool.n).reshape(w.classes, per)
    train_rows = rows[:, :w.train_per_class].ravel()
    paths = {k: f"{outdir}/{k}" for k in (
        "train.adsqf", "train.adsql", "query.adsqf", "query.adsql", "db.adsqf", "db.adsql")}
    data.write_features(paths["train.adsqf"], pool.features[train_rows])
    data.write_labels(paths["train.adsql"], pool.labels[train_rows])
    data.write_features(paths["query.adsqf"], queries.features)
    data.write_labels(paths["query.adsql"], queries.labels)
    for s in range(w.slices if w.slices > 1 else 0):
        part = w.slice_rows(s)
        paths[f"slice{s}.adsqf"], paths[f"slice{s}.adsql"] = (
            f"{outdir}/slice{s}.adsqf", f"{outdir}/slice{s}.adsql")
        data.write_features(paths[f"slice{s}.adsqf"], queries.features[part])
        data.write_labels(paths[f"slice{s}.adsql"], queries.labels[part])
    if w.db_per_class:
        db_rows = rows[:, w.train_per_class:].ravel()
        data.write_features(paths["db.adsqf"], pool.features[db_rows])
        data.write_labels(paths["db.adsql"], pool.labels[db_rows])
    else:
        paths["db.adsqf"], paths["db.adsql"] = paths["train.adsqf"], paths["train.adsql"]
    return paths


def make_probe(outdir, codes, data) -> dict:
    """Inputs that do not depend on the seed and meet the PR-curve
    recall-rounding fault: one query and 101 database items with equal
    codes, so the ranking is by index, and 100 relevant items ranked 55
    relevant, 1 irrelevant, 45 relevant. Recall 0.55 needs 55 hits, so
    its exact precision is 1.0."""
    paths = {k: f"{outdir}/probe_{k}" for k in ("db.adsqb", "query.adsqb", "db.adsql",
                                                 "query.adsql")}
    relevant = np.array([1] * 55 + [0] + [1] * 45, dtype=np.uint8)
    codes.write_codes(paths["db.adsqb"], codes.pack(np.ones((relevant.size, 8))))
    codes.write_codes(paths["query.adsqb"], codes.pack(np.ones((1, 8))))
    data.write_labels(paths["db.adsql"], np.stack([relevant, 1 - relevant], axis=1))
    data.write_labels(paths["query.adsql"], np.array([[1, 0]], dtype=np.uint8))
    return paths
