#!/usr/bin/env python3
"""adsq benchmark: one workload per process, end-to-end metrics with
tracing off, per-layer metrics in a separate traced run, and every output
checked against a computation made apart from the library.

    python3 perfbench/run.py --workload train-pairwise --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # each workload in its own process
    python3 perfbench/run.py --selftest                    # the checker on tiny inputs
    python3 perfbench/run.py --compare A.json B.json       # ratios of two result files

Run from the root of a source checkout; the program is imported from its
``src`` directory. The last line of standard output is the JSON result;
the full record, with the run environment, is written under
``perfbench/out/``. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

from tracing import SPANS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TOP_K = 100
# The speed kernel's time on the reference machine; see Speed.
CAL_REF_S = 0.070


class RoundFailed(Exception):
    pass


def pin_blas_threads() -> int:
    """Set the BLAS thread count before numpy loads; never above nproc."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import adsq from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import adsq
    if not os.path.abspath(adsq.__file__).startswith(src + os.sep):
        raise ImportError(f"adsq was imported from {adsq.__file__}, not from {src}")
    import adsq.cli  # noqa: F401  (loads every module the CLI uses)
    return adsq


def environment(threads, args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "blas_env": {v: os.environ[v] for v in BLAS_ENV},
            "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def timed(cli, argv) -> float:
    t0 = time.perf_counter()
    rc = cli.main(argv)
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise RoundFailed(f"adsq {argv[0]} exited with {rc}")
    return elapsed


def eval_args(query_codes, db_codes, query_labels, db_labels, out, map_r):
    return ["eval", "--query-codes", query_codes, "--db-codes", db_codes,
            "--query-labels", query_labels, "--db-labels", db_labels,
            "--metrics", "map,ph2,pr,pn", "--map-r", str(map_r), "--out", out]


class Speed:
    """The machine's speed, from a fixed numpy kernel (sort, elementwise,
    small matrix products, a pass over 16 MB) timed between a run's
    operations.

    The machine's speed wanders by tens of percent over minutes, and every
    timing of a run moves with it. Each time metric is therefore reported
    at a reference speed: its median is scaled by ``CAL_REF_S`` over the
    kernel's median time in the same run. The raw figures are kept in the
    run's record.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.ints = rng.integers(0, 64, 100_000)
        self.wide = rng.standard_normal((700, 700))
        self.square = rng.random((200, 200))
        self.stream = rng.random(2_000_000)   # 16 MB, streamed from memory
        self.samples = []

    def sample(self):
        np = self.np
        t0 = time.perf_counter()
        for _ in range(2):
            np.argsort(self.ints, kind="stable")
            np.logaddexp(0.0, self.wide).sum()
        for _ in range(5):
            self.square @ self.square
        for _ in range(2):
            np.multiply(self.stream, 1.0, out=self.stream)
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Reference time over measured time: below 1 on a slow machine."""
        return CAL_REF_S / statistics.median(self.samples)


def layer_values(before, after, queries, eval_calls):
    """Per-layer metrics from two tracer snapshots around one round."""
    sec = after[0] - before[0]
    calls = after[1] - before[1]
    work = after[2] - before[2]
    out = {f"{layer}_s": sec[layer] for layer, *_ in SPANS if layer != "synth.generate"}
    for layer in ("labelnet.labelnet_loss", "imgnet.full_objective", "bstep.bstep_objective",
                  "encoder.backward", "codes.distances_to_all", "metrics.relevance"):
        out[f"{layer}_calls"] = calls[layer]
    out["encoder.forward_rows"] = work["encoder.forward"]
    out["imgnet.wstep_rows_per_s"] = (work["imgnet.wstep_epoch"] / sec["imgnet.wstep_epoch"]
                                      if sec["imgnet.wstep_epoch"] else 0.0)
    out["trainer.rounds_run"] = work["trainer.train"] / max(calls["trainer.train"], 1)
    out["metrics.rankings_per_query"] = eval_calls / queries
    return out


def run_workload(w, args, threads) -> dict:
    import_program()
    import numpy as np
    from adsq import cli, codes, data, synth
    import check
    import workloads

    tracer = Tracer()
    if args.trace:
        tracer.install()
    speed = Speed()
    record = {"env": environment(threads, args), "problems": []}
    work = os.path.join(OUT, f"work-{w.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        tracer.enabled = bool(args.trace)
        # A set-up sample times a batch of set-ups, so that it lasts long
        # enough to measure; setup_s is the time of one set-up. The first
        # writes the inputs the rounds use, and each round takes one more
        # sample into a directory of its own, so that the samples spread
        # over the whole run.
        setup_s, generate_s = [], []

        def setup(outdir):
            speed.sample()
            generated = tracer.seconds["synth.generate"]
            t0 = time.perf_counter()
            for _ in range(w.setup_batch):
                made = workloads.make_inputs(w, args.seed, outdir, synth, data)
            setup_s.append((time.perf_counter() - t0) / w.setup_batch)
            generate_s.append((tracer.seconds["synth.generate"] - generated) / w.setup_batch)
            return made

        paths = setup(work)
        resetup = os.path.join(work, "setup")
        os.makedirs(resetup)

        model = os.path.join(work, "model")
        paths["db.adsqb"], paths["query.adsqb"] = (os.path.join(work, "db.adsqb"),
                                                   os.path.join(work, "query.adsqb"))
        train_argv = ["train", "--features", paths["train.adsqf"], "--labels",
                      paths["train.adsql"], "--out", model, "--seed", str(args.seed),
                      *w.train_args()]
        encode_argv = ["encode", "--model", model, "--features", paths["db.adsqf"],
                       "--out", paths["db.adsqb"]]
        query_argv = ["encode", "--model", model, "--features", paths["query.adsqf"],
                      "--out", paths["query.adsqb"]]
        # A round evaluates one query slice: (slice encode or None, eval argv, CSV)
        slices = []
        for s in range(w.slices):
            out_csv = os.path.join(work, f"metrics{s}.csv")
            if w.slices == 1:
                slices.append((None, eval_args(paths["query.adsqb"], paths["db.adsqb"],
                                               paths["query.adsql"], paths["db.adsql"],
                                               out_csv, w.n_db), out_csv))
                continue
            codes_path = os.path.join(work, f"slice{s}.adsqb")
            slices.append((["encode", "--model", model, "--features", paths[f"slice{s}.adsqf"],
                            "--out", codes_path],
                           eval_args(codes_path, paths["db.adsqb"], paths[f"slice{s}.adsql"],
                                     paths["db.adsql"], out_csv, w.n_db), out_csv))
        if w.probe:
            probe = workloads.make_probe(work, codes, data)
            probe_csv = os.path.join(work, "probe_metrics.csv")
            probe_argv = eval_args(probe["query.adsqb"], probe["db.adsqb"],
                                   probe["query.adsql"], probe["db.adsql"], probe_csv, 100)
        slice_size = w.n_queries // w.slices

        # Whole rounds only: another starts while it is expected to end
        # within --seconds, judged by the length of the round before it.
        rounds, round_s = [], 0.0
        results, repeats_differ = {}, 0
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start + round_s <= args.seconds:
            round_start = time.perf_counter()
            before = tracer.snapshot()
            s = len(rounds) % w.slices
            slice_encode, eval_argv, eval_csv = slices[s]
            r = {"slice": s}
            setup(resetup)
            speed.sample()
            r["train_s"] = [timed(cli, train_argv)]
            speed.sample()
            r["encode_s"] = [timed(cli, encode_argv) for _ in range(w.encodes)]
            timed(cli, query_argv)
            if slice_encode:
                timed(cli, slice_encode)
            speed.sample()
            calls = tracer.calls["codes.distances_to_all"]
            r["eval_s"] = [timed(cli, eval_argv) for _ in range(w.evals)]
            eval_calls = tracer.calls["codes.distances_to_all"] - calls
            if w.probe:
                tracer.enabled = False
                timed(cli, probe_argv)
                tracer.enabled = bool(args.trace)
            speed.sample()
            db = codes.load_codes(paths["db.adsqb"])
            qs = codes.load_codes(paths["query.adsqb"])
            r["latency_s"] = []
            for i in range(w.searches):
                qi = (len(rounds) * w.searches + i) % w.n_queries
                t0 = time.perf_counter()
                top = codes.search_topk(qs.payload[qi], db, k=TOP_K)
                r["latency_s"].append(time.perf_counter() - t0)
                # Each query's first result is kept, as a copy (the result
                # is a view that holds the whole ranking); repeats must match.
                if qi not in results:
                    results[qi] = top.copy()
                elif not np.array_equal(top, results[qi]):
                    repeats_differ += 1
            r["hashes"] = {os.path.basename(p): check.sha256(p) for p in (
                paths["db.adsqb"], paths["query.adsqb"],
                *(os.path.join(model, f) for f in (
                    "imgx.net", "imgy.net", "codes_x.adsqb", "codes_y.adsqb")))}
            r["eval_hash"] = check.sha256(eval_csv)
            r["layers"] = layer_values(before, tracer.snapshot(),
                                       slice_size * w.evals, eval_calls)
            rounds.append(r)
            round_s = time.perf_counter() - round_start
            r["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.enabled = False

        if repeats_differ:
            record["problems"].append(f"{repeats_differ} repeated searches gave another result")
        probe_failed = verify(w, args, record, rounds, paths, slices, results,
                              probe_csv if w.probe else None)
        samples = {"setup_s": setup_s, **{k: [t for r in rounds for t in r[k]] for k in (
            "train_s", "encode_s", "eval_s", "latency_s")}}
        raw = {
            "setup_s": statistics.median(samples["setup_s"]),
            "train_s": statistics.median(samples["train_s"]),
            "encode_rows_per_s": w.n_db / statistics.median(samples["encode_s"]),
            "eval_s": statistics.median(samples["eval_s"]),
            "search_p50_ms": 1e3 * statistics.median(samples["latency_s"]),
            "search_p95_ms": 1e3 * statistics.quantiles(samples["latency_s"], n=20)[18],
        }
        f = speed.factor()
        e2e = {name: (value / f if name.endswith("_per_s") else value * f,
                      "rows/s" if name.endswith("_per_s") else name.rsplit("_", 1)[1])
               for name, value in raw.items()}
        e2e["peak_rss_mb"] = (peak_rss_mb, "MB")
        e2e["map_all"] = (record["map_all"], "mAP")
        per_round = (1 + w.encodes + 1 + (w.slices > 1) + w.evals * slice_size
                     + w.searches + w.probe)
        record.update(rounds=len(rounds), samples=samples, raw=raw,
                      round_maxrss_mb=[r["maxrss_mb"] for r in rounds],
                      speed_samples=speed.samples, speed_factor=f,
                      attempted=len(rounds) * per_round, failed=len(rounds) * probe_failed)
        if args.trace:
            layers = {k: (statistics.median(r["layers"][k] for r in rounds), _unit(k))
                      for k in rounds[0]["layers"]}
            layers["synth.generate_s"] = (statistics.median(generate_s), "s")
            record["e2e_while_traced"] = {k: v for k, (v, _) in e2e.items()}
            chosen = layers
        else:
            chosen = e2e
        record["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in chosen.items()}
    except (RoundFailed, check.CheckError) as exc:
        record["problems"].append(str(exc))
    except Exception:  # the program raised: report it as an incorrect run
        record["problems"].append(traceback.format_exc())
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return record


def _unit(name):
    if name.endswith("_per_s"):
        return "rows/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_rows"):
        return "rows"
    return "count"


def verify(w, args, record, rounds, paths, slices, results, probe_csv) -> int:
    """Check every output; append problems to the record. Returns 1 when
    the probe query's PR points read the recall-rounding fault, else 0."""
    import numpy as np
    from adsq import codes, data, metrics
    import check
    problems = record["problems"]
    model = os.path.join(os.path.dirname(paths["db.adsqb"]), "model")
    for r in rounds[1:]:
        if r["hashes"] != rounds[0]["hashes"]:
            problems.append("outputs differ between rounds of the same seed")
        if r["eval_hash"] != rounds[r["slice"]]["eval_hash"]:
            problems.append(f"eval outputs of slice {r['slice']} differ between rounds")

    seen, finite = check.read_train_log(os.path.join(model, "train_log.csv"))
    if seen != w.outer_rounds:
        problems.append(f"train ran {seen} rounds, configured {w.outer_rounds}")
    if not finite:
        problems.append("train_log.csv has a non-finite or missing value")
    with open(os.path.join(model, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for name, digest in manifest["outputs"].items():
        if check.sha256(os.path.join(model, name)) != digest:
            problems.append(f"manifest digest of {name} does not match the file")
    for name in ("codes_x.adsqb", "codes_y.adsqb"):
        path = os.path.join(model, name)
        got, payload = check.read_codes(path)
        if got.shape != (w.n_train, w.k_half):
            problems.append(f"{name} has shape {got.shape}")
        if not np.array_equal(check.repack(got), payload) or \
                not np.array_equal(codes.load_codes(path).payload, payload):
            problems.append(f"{name} does not round-trip")

    layers_x = check.read_model(os.path.join(model, "imgx.net"))
    layers_y = check.read_model(os.path.join(model, "imgy.net"))
    encoded = {}
    for name, kind, n in (("database", "db", w.n_db), ("query", "query", w.n_queries)):
        path, feats = paths[f"{kind}.adsqb"], paths[f"{kind}.adsqf"]
        got, payload = check.read_codes(path)
        if got.shape != (n, 2 * w.k_half):
            problems.append(f"{name} codes have shape {got.shape}")
        if not np.array_equal(check.repack(got), payload) or \
                not np.array_equal(codes.load_codes(path).payload, payload):
            problems.append(f"{name} codes do not round-trip")
        wrong = check.check_encoded(got, layers_x, layers_y, check.read_features(feats))
        if wrong:
            problems.append(f"{wrong} {name} code bits differ from the recomputed signs")
        encoded[name] = got

    q_lab, db_lab = check.read_labels(paths["query.adsql"]), check.read_labels(paths["db.adsql"])
    ref = check.reference(encoded["query"], encoded["database"], q_lab, db_lab,
                          map_r=w.n_db, topk=TOP_K)
    # The quality figure covers every query, whichever slices the run evaluated.
    record["map_all"] = float(ref.ap.mean())

    db = codes.load_codes(paths["db.adsqb"])
    qs = codes.load_codes(paths["query.adsqb"])
    judge = metrics.RelevanceJudge(query_labels=data.load_labels(paths["query.adsql"]),
                                   db_labels=data.load_labels(paths["db.adsql"]))
    record["pr_rounding_queries"] = 0
    for s in sorted({r["slice"] for r in rounds}):
        slice_encode, _, eval_csv = slices[s]
        rows = w.slice_rows(s) if slice_encode else np.arange(w.n_queries)
        if slice_encode and not np.array_equal(check.read_codes(slice_encode[-1])[0],
                                               encoded["query"][rows]):
            problems.append(f"slice {s} codes differ from the query codes of its rows")
        part = ref.take(rows)
        values = check.read_metrics_csv(eval_csv)
        problems.extend(f"slice {s}: {p}" for p in check.compare_eval(values, part))
        points = [metrics.pr_curve(codes.PackedCodes(n=1, k_total=qs.k_total,
                                                     payload=qs.payload[qi:qi + 1]), db,
                                   metrics.RelevanceJudge(
                                       query_labels=judge.query_labels[qi:qi + 1],
                                       db_labels=judge.db_labels))
                  for qi in rows]
        answered = [p for p in points if p]
        for level, (recall, value) in enumerate(values["pr"]):
            mean = float(np.mean([p[level][1] for p in answered]))
            if abs(mean - value) > check.TOL:
                problems.append(f"slice {s}: eval PR at {recall} is {value}, "
                                f"its queries average {mean}")
        late, wrong = check.pr_disagreements(points, part)
        if wrong:
            problems.append(f"slice {s}: PR points of queries {[int(rows[i]) for i in wrong]} "
                            "disagree with the exact check")
        # Whether the rounding fault shows on a seeded query depends on the
        # ranking, so on the seed: it is recorded here and counted on the probe.
        record["pr_rounding_queries"] += len(late)

    wrong = check.search_mismatches(list(results.values()), list(results), ref)
    if wrong:
        problems.append(f"{wrong} search_topk results differ from the reference ranking")

    record["random_map_all"] = check.random_map(q_lab, db_lab, 2 * w.k_half, args.seed,
                                                map_r=w.n_db)
    if not record["map_all"] > record["random_map_all"]:
        problems.append(f"mAP {record['map_all']} does not beat random codes "
                        f"({record['random_map_all']})")
    if probe_csv is None:
        return 0
    probe = {k: os.path.join(os.path.dirname(probe_csv), f"probe_{k}") for k in (
        "db.adsqb", "query.adsqb", "db.adsql", "query.adsql")}
    ref = check.reference(check.read_codes(probe["query.adsqb"])[0],
                          check.read_codes(probe["db.adsqb"])[0],
                          check.read_labels(probe["query.adsql"]),
                          check.read_labels(probe["db.adsql"]), map_r=100, topk=1)
    values = check.read_metrics_csv(probe_csv)
    problems.extend("probe: " + p for p in check.compare_eval(values, ref))
    late, wrong = check.pr_disagreements([values["pr"]], ref)
    if wrong:
        problems.append("probe: PR points disagree with the exact check")
    return len(late)


def result_line(record) -> dict:
    return {"correct": not record["problems"], "attempted": record.get("attempted", 1),
            "failed": record.get("failed", 0), "metrics": record.get("metrics", {})}


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS does not bleed."""
    import workloads
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(name, json.dumps(result), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def compare(base_path, new_path) -> int:
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    for key in ("workload", "seed", "nproc", "blas", "blas_threads"):
        if base["env"].get(key) != new["env"].get(key):
            print(f"note: {key} differs: {base['env'].get(key)} vs {new['env'].get(key)}")
    print(f"machine speed factor: base {base.get('speed_factor', float('nan')):.4f}, "
          f"new {new.get('speed_factor', float('nan')):.4f}")
    print(f"{'metric':34} {'unit':>8} {'base':>14} {'new':>14} {'new/base':>9}")
    for name, b in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        n = new["metrics"][name]["value"]
        ratio = n / b["value"] if b["value"] else float("nan")
        print(f"{name:34} {b['unit']:>8} {b['value']:>14.6g} {n:>14.6g} {ratio:>9.4f}")
    return 0


def selftest() -> int:
    import_program()
    import numpy as np
    from adsq import codes, metrics
    import check

    def program_pr(ranked_relevance):
        # all database codes equal the query code, so the ranking is by index
        n = len(ranked_relevance)
        packed = codes.pack(np.ones((n + 1, 8)))
        db = codes.PackedCodes(n=n, k_total=8, payload=packed.payload[1:])
        q = codes.PackedCodes(n=1, k_total=8, payload=packed.payload[:1])
        labels = np.array(ranked_relevance, dtype=np.int8)[:, None]
        judge = metrics.RelevanceJudge(query_labels=np.ones((1, 1), dtype=np.int8),
                                       db_labels=labels)
        return metrics.pr_curve(q, db, judge)

    failures = check.selftest(program_pr)
    for f in failures:
        print("FAIL", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    threads = pin_blas_threads()
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if sys.flags.optimize:
        print("refusing to run under python -O: it drops the program's assert "
              "guards and so changes the work measured", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # SIGTERM unwinds like an exception, so the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    record = run_workload(workloads.WORKLOADS[args.workload], args, threads)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for problem in record["problems"]:
        print("problem:", problem, file=sys.stderr)
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
