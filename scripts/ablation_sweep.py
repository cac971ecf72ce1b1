#!/usr/bin/env python3
"""Ablation / sensitivity sweep over variants, seeds, and one hyper-parameter.

Trains every (variant, seed) cell on the synthetic benchmark with the
library API (no files written) and prints a mAP@100 table. Use --param /
--values to scan a single hyper-parameter instead of variants, e.g.

    python scripts/ablation_sweep.py --param eta --values 0.1,1,10,100
"""

import argparse

import numpy as np

from adsq.codes import encode_matrix
from adsq.config import HyperParams, Variant, make_hyperparams
from adsq.metrics import RelevanceJudge, evaluate
from adsq.synth import SynthSpec, generate
from adsq.trainer import train

VARIANTS = tuple(v.value for v in Variant)


def cell_hyperparams(variant, seed, k_half, extra) -> HyperParams:
    """Settings of one table cell. ``extra`` maps a field name to a value,
    which may be a string; it overrides the defaults here and is converted
    to the field's type, as a config file's value would be."""
    return make_hyperparams({"k_half": k_half, "encoder_hidden": (64,), "semantic_dim": 32,
                             "seed": seed, "variant": variant, **extra})


def score(variant, seed, k_half, extra):
    spec = SynthSpec(classes=4, dim=32, per_class=100, queries_per_class=25,
                     cluster_spread=0.5, center_scale=1.0, seed=seed)
    train_split, query_split = generate(spec)
    state = train(train_split, cell_hyperparams(variant, seed, k_half, extra))
    db = encode_matrix(train_split.features, state.imgx_params, state.imgy_params)
    q = encode_matrix(query_split.features, state.imgx_params, state.imgy_params)
    judge = RelevanceJudge(query_labels=query_split.labels,
                           db_labels=train_split.labels)
    return evaluate(q, db, judge, map_r=100).map


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="7,8,9")
    ap.add_argument("--k-half", type=int, default=8)
    ap.add_argument("--param", default=None, help="hyper-parameter to scan")
    ap.add_argument("--values", default=None, help="comma-separated scan values")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    if args.param:
        values = [v.strip() for v in args.values.split(",")]
        rows = [(f"{args.param}={v}", {args.param: v}, "full") for v in values]
    else:
        rows = [(v, {}, v) for v in VARIANTS]

    print(f"{'config':<14} " + " ".join(f"seed{s:<4}" for s in seeds) + "  mean")
    for name, extra, variant in rows:
        vals = [score(variant, s, args.k_half, extra) for s in seeds]
        cells = " ".join(f"{v:.4f}  " for v in vals)
        print(f"{name:<14} {cells} {np.mean(vals):.4f}")


if __name__ == "__main__":
    main()
