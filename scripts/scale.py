#!/usr/bin/env python3
"""Training time and peak memory as the training set grows.

Each point (label kind, n) runs in a subprocess of its own, which makes n
items, trains one round (lr 3e-7, seed 1) and reports its train wall time,
the number p of distinct label rows, its own peak RSS (``ru_maxrss``) and
its minor page faults (``ru_minflt``, each a first touch of a fresh page).
BLAS threads default to 1. Label kinds:

  synth    adsq.synth clusters: 10 classes, 30 % multi-label overlap (p ~ 55)
  diverse  the same features with 40 random classes at 10 % density (p ~ n)

Widths (``WIDTHS``):

  pairwise  the train-pairwise workload's: k_half 16, hidden 128, semantic 64,
            t_label 5 (the default)
  default   HyperParams' own: k_half 8, hidden 4096 x 2, semantic 512, with
            t_label = t_img = 1; a point needs over 1 GB even at small n

    PYTHONPATH=src python scripts/scale.py                # n = 2k, 4k, 8k, 16k
    PYTHONPATH=src python scripts/scale.py --n 2000 8000
    PYTHONPATH=src python scripts/scale.py --widths default --n 2000 8000

Not a benchmark workload: a probe for how training scales with n and p.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

from adsq.config import HyperParams
from adsq.data import Dataset
from adsq.synth import SynthSpec, generate
from adsq.trainer import train

KINDS = ("synth", "diverse")
DEFAULT_N = (2000, 4000, 8000, 16000)
CLASSES = 10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# HyperParams overrides per --widths setting
WIDTHS = {
    "pairwise": dict(k_half=16, encoder_hidden=(128,), semantic_dim=64, t_label=5),
    "default": dict(k_half=8, encoder_hidden=(4096, 4096), semantic_dim=512,
                    t_label=1, t_img=1),
}


def make_dataset(kind, n, seed) -> Dataset:
    """n items of 32-d synth features with ``kind`` labels. The features are
    rounded to the float32 that ``adsq synth`` writes and ``adsq train``
    reads, so a point trains what the command trains."""
    train_split, _ = generate(SynthSpec(classes=CLASSES, dim=32, per_class=-(-n // CLASSES),
                                        queries_per_class=1, multilabel_overlap=0.3,
                                        seed=seed))
    features, labels = train_split.features[:n], train_split.labels[:n]
    if kind == "diverse":
        rng = np.random.default_rng(seed)
        labels = (rng.random((n, 40)) < 0.1).astype(np.int8)
        empty = np.flatnonzero(labels.sum(axis=1) == 0)
        labels[empty, rng.integers(0, 40, empty.size)] = 1
    return Dataset(features=features.astype(np.float32), labels=labels)


def run_point(kind, n, widths="pairwise", seed=1) -> dict:
    """Train one point in this process; returns its measurements."""
    ds = make_dataset(kind, n, seed)
    hp = HyperParams(**WIDTHS[widths], outer_rounds=1, lr_min=3e-7, lr_max=3e-7, seed=seed)
    t0 = time.perf_counter()
    train(ds, hp)
    seconds = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"kind": kind, "n": n, "p": int(ds.patterns.counts.size), "train_s": seconds,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "minflt": usage.ru_minflt}


def measure(kind, n, widths="pairwise") -> dict:
    """``run_point`` in a fresh subprocess, so each peak RSS is its own."""
    env = dict(os.environ)
    for name in BLAS_ENV:
        env.setdefault(name, "1")
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--point", kind, str(n),
                          "--widths", widths],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, nargs="+", default=DEFAULT_N, help="training set sizes")
    ap.add_argument("--widths", choices=WIDTHS, default="pairwise",
                    help="encoder widths and epochs (default: pairwise)")
    ap.add_argument("--point", nargs=2, metavar=("KIND", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.point:
        print(json.dumps(run_point(args.point[0], int(args.point[1]), args.widths)))
        return
    print(f"widths: {args.widths}, BLAS threads: "
          f"{os.environ.get('OPENBLAS_NUM_THREADS', '1')}, numpy {np.__version__}")
    print("| labels | n | p | train s | peak RSS MB | minor faults |")
    print("| --- | --- | --- | --- | --- | --- |")
    for kind in KINDS:
        for n in args.n:
            r = measure(kind, n, args.widths)
            print(f"| {kind} | {n} | {r['p']} | {r['train_s']:.2f} | {r['peak_rss_mb']:.0f} "
                  f"| {r['minflt']} |", flush=True)


if __name__ == "__main__":
    main()
