#!/usr/bin/env python3
"""The synthetic cluster benchmark through the ``adsq`` commands: a table of
mAP@100 over variants x seeds, optionally x the values of one setting.

Each cell runs synth -> train -> encode -> eval through ``adsq.cli.main``
into ``--out/<row>-<seed>/`` and reads its ``map`` row back from that
directory's ``metrics.csv``. The train settings, ``FIXED`` and the cell's
own, reach ``adsq train`` as ``--set`` pairs; a scanned value wins over a
fixed one.

    python scripts/run_fixture.py --seeds 7 --variants full     # one demo run
    python scripts/run_fixture.py                                # the ablation table
    python scripts/run_fixture.py --variants full --scan eta=0.1,1,10,100
"""

import argparse
import os
import sys
import time

from adsq.cli import main as adsq_main
from adsq.config import Variant

FIXED = {"k_half": 8, "encoder_hidden": 64, "semantic_dim": 32}


def pipeline(out, seed, settings):
    """The ``adsq`` argument lists of one cell, in order; every output goes
    under ``out``. ``settings`` maps config keys to values over ``FIXED``."""
    data, model = os.path.join(out, "data"), os.path.join(out, "model")
    sets = [arg for key, value in {**FIXED, "seed": seed, **settings}.items()
            for arg in ("--set", f"{key}={value}")]
    return [
        ["synth", "--classes", "4", "--dim", "32", "--per-class", "100",
         "--queries-per-class", "25", "--spread", "0.5", "--seed", str(seed), "--out", data],
        ["train", "--features", f"{data}/train.adsqf", "--labels", f"{data}/train.adsql",
         "--out", model, *sets],
        ["encode", "--model", model, "--features", f"{data}/train.adsqf",
         "--out", f"{out}/db.adsqb"],
        ["encode", "--model", model, "--features", f"{data}/query.adsqf",
         "--out", f"{out}/query.adsqb"],
        ["eval", "--query-codes", f"{out}/query.adsqb", "--db-codes", f"{out}/db.adsqb",
         "--query-labels", f"{data}/query.adsql", "--db-labels", f"{data}/train.adsql",
         "--map-r", "100", "--out", f"{out}/metrics.csv"],
    ]


def score(out, seed, settings) -> float:
    """Run one cell under ``out``; the ``map`` value of its ``metrics.csv``."""
    for argv in pipeline(out, seed, settings):
        code = adsq_main(argv)
        if code != 0:
            sys.exit(code)
    with open(f"{out}/metrics.csv") as fh:
        return next(float(line.split(",")[2]) for line in fh if line.startswith("map,"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default="runs/fixture")
    ap.add_argument("--seeds", default="7,8,9")
    ap.add_argument("--variants", default=",".join(v.value for v in Variant))
    ap.add_argument("--scan", metavar="KEY=V1,V2,...", help="a row per variant and value")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    scans = [("", {})]  # (row name suffix, settings) per scanned value
    if args.scan:
        if "=" not in args.scan:
            ap.error(f"--scan expects KEY=V1,V2,..., got {args.scan!r}")
        key, values = args.scan.split("=", 1)
        scans = [(f"-{key}={value}", {key: value}) for value in values.split(",")]
    rows = [(variant + suffix, {"variant": variant, **scan})
            for variant in args.variants.split(",") for suffix, scan in scans]

    t0 = time.perf_counter()
    print(f"{'config':<14} " + " ".join(f"seed{s:<4}" for s in seeds) + "  mean")
    for name, settings in rows:
        vals = [score(os.path.join(args.out, f"{name}-{s}"), s, settings) for s in seeds]
        cells = " ".join(f"{v:.4f}  " for v in vals)
        print(f"{name:<14} {cells} {sum(vals) / len(vals):.4f}")
    print(f"finished in {time.perf_counter() - t0:.1f}s; outputs under {args.out}/")


if __name__ == "__main__":
    main()
