#!/usr/bin/env python3
"""Time and peak memory of the ``adsq train`` process as the training set grows.

Each point (label kind, n) writes the train-pairwise workload's inputs
(``perfbench/workloads.py``) at n items, n a multiple of its 10 classes,
and runs ``adsq train`` on them as a child process of its own: one round at
the workload's lr 3e-7, seed 1. It reports the child's load, train and save
wall times from its manifest, the number p of distinct label rows, and the
child's own peak RSS (``ru_maxrss``) and minor page faults (``ru_minflt``,
each a first touch of a fresh page); both cover the whole command, loading
and saving included. BLAS threads default to 1. Label kinds:

  synth    the workload's: 10 classes, 30 % multi-label overlap (p ~ 55)
  diverse  the same features with 40 random classes at 10 % density (p ~ n)

Widths (``WIDTHS``), each a list of ``adsq train`` arguments:

  pairwise  the workload's own ``train_args()``: k_half 16, hidden 128,
            semantic 64, t_label 5
  default   HyperParams' own widths: k_half 8, hidden 4096 x 2, semantic 512,
            with t_label = t_img = 1; a point needs over 1 GB even at small n

    PYTHONPATH=src python scripts/scale.py                # n = 2k, 4k, 8k, 16k
    PYTHONPATH=src python scripts/scale.py --n 2000 8000
    PYTHONPATH=src python scripts/scale.py --widths default --n 2000 8000

Not a benchmark workload: a probe for how training scales with n and p.
"""

import argparse
import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import workloads  # noqa: E402
from adsq import data, synth  # noqa: E402

KINDS = ("synth", "diverse")
DEFAULT_N = (2000, 4000, 8000, 16000)
WORKLOAD = workloads.WORKLOADS["train-pairwise"]
SEED = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# adsq train arguments per --widths setting
WIDTHS = {
    "pairwise": WORKLOAD.train_args(),
    "default": [arg for pair in ("t_label=1", "t_img=1", "outer_rounds=1",
                                 f"lr_min={workloads.LR}", f"lr_max={workloads.LR}")
                for arg in ("--set", pair)],
}


def measure(kind, n, widths="pairwise") -> dict:
    """Write one point's inputs, train them in a child ``adsq train`` and
    return its measurements; the child's peak RSS is its own."""
    if n % WORKLOAD.classes:
        raise ValueError(f"n = {n} is not a multiple of the workload's "
                         f"{WORKLOAD.classes} classes")
    env = dict(os.environ)
    for name in BLAS_ENV:
        env.setdefault(name, "1")
    with tempfile.TemporaryDirectory() as tmp:
        paths = workloads.make_inputs(
            dataclasses.replace(WORKLOAD, train_per_class=n // WORKLOAD.classes), SEED, tmp,
            synth, data)
        if kind == "diverse":
            rng = np.random.default_rng(SEED)
            labels = (rng.random((n, 40)) < 0.1).astype(np.int8)
            empty = np.flatnonzero(labels.sum(axis=1) == 0)
            labels[empty, rng.integers(0, 40, empty.size)] = 1
            data.write_labels(paths["train.adsql"], labels)
        model = os.path.join(tmp, "model")
        argv = [sys.executable, "-m", "adsq.cli", "train", "--features", paths["train.adsqf"],
                "--labels", paths["train.adsql"], "--out", model, "--seed", str(SEED),
                *WIDTHS[widths]]
        _, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, env), 0)
        if code := os.waitstatus_to_exitcode(status):
            raise RuntimeError(f"adsq train on {kind} n = {n} exited with {code}")
        with open(os.path.join(model, "manifest.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["timings_s"]
        p = data.LabelPatterns(data.load_labels(paths["train.adsql"])).counts.size
    return {"kind": kind, "n": n, "p": p, "load_s": seconds["load"],
            "train_s": seconds["train"], "save_s": seconds["save"],
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "minflt": usage.ru_minflt}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, nargs="+", default=DEFAULT_N,
                    help="training set sizes, each a multiple of 10")
    ap.add_argument("--widths", choices=WIDTHS, default="pairwise",
                    help="encoder widths and epochs (default: pairwise)")
    args = ap.parse_args(argv)
    print(f"widths: {args.widths}, BLAS threads: "
          f"{os.environ.get('OPENBLAS_NUM_THREADS', '1')}, numpy {np.__version__}")
    print("| labels | n | p | load s | train s | save s | peak RSS MB | minor faults |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for kind in KINDS:
        for n in args.n:
            r = measure(kind, n, args.widths)
            print(f"| {kind} | {n} | {r['p']} | {r['load_s']:.3f} | {r['train_s']:.2f} "
                  f"| {r['save_s']:.3f} | {r['peak_rss_mb']:.0f} | {r['minflt']} |", flush=True)


if __name__ == "__main__":
    main()
