#!/usr/bin/env python3
"""End-to-end demo on the synthetic cluster benchmark.

Generates data, trains the full model, encodes the database and query
splits, and prints retrieval metrics next to an untrained baseline.

    python scripts/run_fixture.py --out runs/demo --seed 7
"""

import argparse
import json
import os
import sys
import time

from adsq.cli import main as adsq_main
from adsq.config import Variant


def pipeline(out, seed, k_half=8, variant="full"):
    """The ``adsq`` argument lists of the demo, in order; every output goes
    under ``out``."""
    data, model = os.path.join(out, "data"), os.path.join(out, "model")
    return [
        ["synth", "--classes", "4", "--dim", "32", "--per-class", "100",
         "--queries-per-class", "25", "--spread", "0.5", "--seed", str(seed), "--out", data],
        ["train", "--features", f"{data}/train.adsqf", "--labels", f"{data}/train.adsql",
         "--out", model, "--k-half", str(k_half), "--seed", str(seed), "--variant", variant,
         "--set", "encoder_hidden=64", "--set", "semantic_dim=32"],
        ["encode", "--model", model, "--features", f"{data}/train.adsqf",
         "--out", f"{out}/db.adsqb"],
        ["encode", "--model", model, "--features", f"{data}/query.adsqf",
         "--out", f"{out}/query.adsqb"],
        ["eval", "--query-codes", f"{out}/query.adsqb", "--db-codes", f"{out}/db.adsqb",
         "--query-labels", f"{data}/query.adsql", "--db-labels", f"{data}/train.adsql",
         "--map-r", "100", "--out", f"{out}/metrics.csv"],
    ]


def run(argv):
    code = adsq_main(argv)
    if code != 0:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/fixture")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--k-half", type=int, default=8)
    ap.add_argument("--variant", default="full", choices=[v.value for v in Variant])
    args = ap.parse_args()

    t0 = time.perf_counter()
    for argv in pipeline(args.out, args.seed, args.k_half, args.variant):
        run(argv)

    print(f"\nfinished in {time.perf_counter() - t0:.1f}s; outputs under {args.out}/")
    with open(f"{args.out}/metrics.csv") as fh:
        for line in fh.read().splitlines():
            metric = line.split(",")[0]
            if metric in ("metric", "map", "ph2"):
                print(" ", line)
    with open(f"{args.out}/model/manifest.json") as fh:
        manifest = json.load(fh)
    print("  train wall-clock:", manifest["timings_s"]["train"], "s")


if __name__ == "__main__":
    main()
