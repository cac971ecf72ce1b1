#!/usr/bin/env python3
"""SHA-256 of every output of a fixed set of runs, to check that a change
leaves them byte-identical.

Each run goes through ``adsq.cli.main`` into a directory of its own:

* ``fixture``: ``scripts/run_fixture.py``'s cell of the full variant at
  seed 7;
* ``variants``: its cell of each ``Variant`` at seed 8, the variant passed
  to ``adsq train`` as ``--set variant=...``;
* ``workloads``: each ``perfbench/workloads.py`` shape at seeds 1-3, its
  inputs from ``make_inputs``, trained with ``Workload.train_args()``,
  then the database and queries encoded and evaluated.

Prints one JSON object that maps each output's path, relative to the work
directory, to its SHA-256. Manifests are left out, since they hold
timings; ``train_log.csv`` is kept.

    python scripts/digests.py > before.json
    python scripts/digests.py --compare before.json after.json
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "perfbench")]

from adsq import cli, data, synth  # noqa: E402
from adsq.config import Variant  # noqa: E402
from run_fixture import pipeline  # noqa: E402

WORKLOAD_SEEDS = (1, 2, 3)


def fixture_runs(work):
    return [pipeline(os.path.join(work, "fixture-7"), 7, {"variant": "full"})]


def variant_runs(work):
    return [pipeline(os.path.join(work, f"variant-{v.value}-8"), 8, {"variant": v.value})
            for v in Variant]


def workload_runs(work):
    """Writes each shape's inputs now; the argument lists of its train,
    encodes and eval."""
    import workloads

    runs = []
    for w in workloads.WORKLOADS.values():
        for seed in WORKLOAD_SEEDS:
            out = os.path.join(work, f"{w.name}-{seed}")
            os.makedirs(out)
            paths = workloads.make_inputs(w, seed, out, synth, data)
            model = os.path.join(out, "model")
            runs.append([
                ["train", "--features", paths["train.adsqf"], "--labels", paths["train.adsql"],
                 "--out", model, "--seed", str(seed), *w.train_args()],
                ["encode", "--model", model, "--features", paths["db.adsqf"],
                 "--out", f"{out}/db.adsqb"],
                ["encode", "--model", model, "--features", paths["query.adsqf"],
                 "--out", f"{out}/query.adsqb"],
                ["eval", "--query-codes", f"{out}/query.adsqb", "--db-codes", f"{out}/db.adsqb",
                 "--query-labels", paths["query.adsql"], "--db-labels", paths["db.adsql"],
                 "--map-r", str(w.n_db), "--out", f"{out}/metrics.csv"]])
    return runs


GROUPS = {"fixture": fixture_runs, "variants": variant_runs, "workloads": workload_runs}


def digests(work, groups=tuple(GROUPS)) -> dict:
    """Run ``groups`` under the directory ``work``; the SHA-256 of each
    non-manifest file it then holds, keyed by relative path."""
    for group in groups:
        for run in GROUPS[group](work):
            for argv in run:
                if cli.main(argv) != 0:
                    raise SystemExit(f"adsq {' '.join(argv)} failed")
    return {str(path.relative_to(work)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(work).rglob("*"))
            if path.is_file() and not path.name.endswith("manifest.json")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="list the files whose digests differ between two outputs of this script")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text()) for path in args.compare)
        paths = a.keys() | b.keys()
        differ = sorted(p for p in paths if a.get(p) != b.get(p))
        for path in differ:
            print(f"differs: {path}")
        print(f"{len(differ)} of {len(paths)} files differ")
        return 1 if differ else 0
    with tempfile.TemporaryDirectory() as work:
        json.dump(digests(work), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
