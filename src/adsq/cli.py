"""Command-line surface: synth, train, encode, eval.

Every command writes a manifest JSON recording the resolved configuration,
seeds, SHA-256 digests of inputs (by command-line role, a model file by name)
and outputs, tool version, and wall-clock per phase; ``eval`` adds the seconds
of its scans, rankings, relevance rows and metric arithmetic, each summed over
query blocks. Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time

from . import __version__
from .codes import encode_matrix, load_codes, write_codes
from .config import load_config
from .data import FeatureRows, load_dataset, load_labels, write_features, write_labels
from .encoder import load_params
from .errors import AdsqError, ConfigError, DataError, FormatError
from .fileio import atomic_open, write_csv
from .metrics import RelevanceJudge, evaluate
from .synth import SynthSpec, generate
from .trainer import MODEL_FILES, save_run, train

DEFAULT_TOPN_GRID = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


def _sha256(path) -> str:
    h, chunk = hashlib.sha256(), bytearray(1 << 18)  # one reused chunk buffer
    view = memoryview(chunk)
    with open(path, "rb") as fh:
        while size := fh.readinto(chunk):
            h.update(view[:size])
    return h.hexdigest()


def _write_manifest(path, command, config, seeds, inputs, outputs, timings, hashed=None):
    """``inputs`` maps keys to paths; ``hashed``, input paths already hashed to SHA-256."""
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "seeds": seeds,
        "inputs": {key: (hashed or {}).get(p) or _sha256(p) for key, p in inputs.items()},
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
    }
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    spec = SynthSpec(classes=args.classes, dim=args.dim, per_class=args.per_class,
                     queries_per_class=args.queries_per_class,
                     cluster_spread=args.spread, center_scale=args.center_scale,
                     multilabel_overlap=args.overlap, seed=args.seed)
    splits = generate(spec)
    os.makedirs(args.out, exist_ok=True)
    written = []
    for name, split in zip(("train", "query"), splits):
        stem = os.path.join(args.out, name)
        write_features(stem + ".adsqf", split.features)
        write_labels(stem + ".adsql", split.labels)
        written += [stem + ".adsqf", stem + ".adsql"]
    _write_manifest(os.path.join(args.out, "manifest.json"), "synth",
                    dataclasses.asdict(spec), {"seed": spec.seed}, {}, written,
                    {"generate": time.perf_counter() - t0})
    return 0


def cmd_train(args) -> int:
    overrides = _parse_overrides(args.set)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.k_half is not None:
        overrides["k_half"] = args.k_half
    hp = load_config(args.config, overrides)

    t0 = time.perf_counter()
    dataset = load_dataset(args.features, args.labels)
    t_load = time.perf_counter()
    state = train(dataset, hp)
    t_train = time.perf_counter()
    written = save_run(state, args.out)
    _write_manifest(os.path.join(args.out, "manifest.json"), "train",
                    hp.to_dict(), {"seed": hp.seed},
                    {"features": args.features, "labels": args.labels}, written,
                    {"load": t_load - t0, "train": t_train - t_load,
                     "save": time.perf_counter() - t_train})
    return 0


def cmd_encode(args) -> int:
    t0 = time.perf_counter()
    img_paths = [os.path.join(args.model, name) for name in MODEL_FILES[1:]]
    manifest = os.path.join(args.model, "manifest.json")
    try:  # the training run's record of its outputs, so that two runs' files never mix
        with open(manifest, encoding="utf-8") as fh:
            recorded = dict(json.load(fh)["outputs"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{manifest}: no record of the model's files ({exc})") from exc
    hashed = {p: _sha256(p) for p in img_paths}
    for p in img_paths:
        if recorded.get(os.path.basename(p)) != hashed[p]:
            raise FormatError(f"{p} is not the file that {manifest} records")
    imgx, imgy = map(load_params, img_paths)
    with FeatureRows(args.features) as features:
        if len(features) == 0:
            raise AdsqError(f"{args.features}: no rows to encode")
        for path, params in zip(img_paths, (imgx, imgy)):
            if params.in_dim != features.dim:
                raise DataError(f"{args.features} has {features.dim} features per row, "
                                f"but {path} takes {params.in_dim}")
        names = [f"{path} on {args.features}" for path in img_paths]
        packed = encode_matrix(features, imgx, imgy, names)
    write_codes(args.out, packed)
    _write_manifest(args.out + ".manifest.json", "encode",
                    {"model": os.path.basename(os.path.normpath(args.model))},
                    {}, {"features": args.features, **dict(zip(MODEL_FILES[1:], img_paths))},
                    [args.out], {"encode": time.perf_counter() - t0}, hashed)
    return 0


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    known = {"map", "ph2", "pr", "pn"}
    if not wanted:
        raise AdsqError(f"no metric requested (choose from {sorted(known)})")
    for m in wanted:
        if m not in known:
            raise AdsqError(f"unknown metric {m!r} (choose from {sorted(known)})")
    query_codes = load_codes(args.query_codes)
    db_codes = load_codes(args.db_codes)
    judge = RelevanceJudge(query_labels=load_labels(args.query_labels),
                           db_labels=load_labels(args.db_labels))
    result = evaluate(query_codes, db_codes, judge, map_r=args.map_r,
                      n_list=[n for n in DEFAULT_TOPN_GRID if n <= db_codes.n])
    # (value, grid) pairs per metric, written in this order whatever --metrics says
    points = {"map": [(result.map, args.map_r)], "ph2": [(result.ph2, "")],
              "pr": [(p, recall) for recall, p in result.pr],
              "pn": [(p, n) for n, p in result.pn]}
    write_csv(args.out, ["metric", "k_total", "value", "grid"],
              [(m, db_codes.k_total, repr(value), grid)
               for m in points if m in wanted for value, grid in points[m]])
    _write_manifest(args.out + ".manifest.json", "eval",
                    {"metrics": wanted, "map_r": args.map_r}, {},
                    {role: getattr(args, role)
                     for role in ("query_codes", "db_codes", "query_labels", "db_labels")},
                    [args.out], {"eval": time.perf_counter() - t0, **result.seconds})
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="adsq",
        description="Asymmetric two-network semantic hashing: synthesize data, "
                    "train, encode, and evaluate binary codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic clustered dataset")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--queries-per-class", type=int, default=25)
    p.add_argument("--spread", type=float, default=0.5)
    p.add_argument("--center-scale", type=float, default=1.0)
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train networks and discrete codes")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k-half", type=int, default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key; flags win over the file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode features with a trained model")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eval", help="compute retrieval metrics")
    p.add_argument("--query-codes", required=True)
    p.add_argument("--db-codes", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--db-labels", required=True)
    p.add_argument("--metrics", default="map,ph2,pr,pn")
    p.add_argument("--map-r", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AdsqError, ValueError, OSError) as exc:
        print(f"adsq {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
