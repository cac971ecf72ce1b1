"""Output checks computed apart from the adsq library.

Nothing here imports adsq. Files are parsed with their own readers,
codes are recomputed from the saved weights with a plain forward pass,
rankings come from the +-1 inner-product identity
``dist = (k - <q, d>) / 2`` on unpacked codes with ties broken by
database index, relevance is boolean label overlap, and every metric
follows its definition. PR-curve recall levels use exact integer
arithmetic: level j/20 of a query with ``total`` relevant items needs
``ceil(j * total / 20)`` hits.
"""

import csv
import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

CODES_MAGIC = b"ADSQB001"
FEATURE_MAGIC = b"ADSQF001"
LABEL_MAGIC = b"ADSQL001"
MODEL_MAGIC = b"ADSQW001"

PR_LEVELS = 20
TOPN_GRID = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
TOL = 1e-12


class CheckError(Exception):
    """An output file that cannot even be parsed."""


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read(path, magic, header_words):
    with open(path, "rb") as fh:
        blob = fh.read()
    head = len(magic) + 4 * header_words
    if len(blob) < head or blob[:len(magic)] != magic:
        raise CheckError(f"{path}: bad magic")
    return blob, struct.unpack_from(f"<{header_words}I", blob, len(magic)), head


def read_features(path) -> np.ndarray:
    blob, (n, dim), head = _read(path, FEATURE_MAGIC, 2)
    if len(blob) != head + 4 * n * dim:
        raise CheckError(f"{path}: size does not match header")
    return np.frombuffer(blob, dtype="<f4", offset=head).reshape(n, dim).astype(np.float64)


def read_labels(path) -> np.ndarray:
    blob, (n, c), head = _read(path, LABEL_MAGIC, 2)
    if len(blob) != head + n * c:
        raise CheckError(f"{path}: size does not match header")
    return np.frombuffer(blob, dtype=np.uint8, offset=head).reshape(n, c).copy()


def read_codes(path):
    """(+-1 int8 matrix, raw payload bytes) of a packed codes file. Bits
    are MSB-first, bit 1 is +1, rows padded with zero bits."""
    blob, (n, k), head = _read(path, CODES_MAGIC, 2)
    row_bytes = (k + 7) // 8
    if len(blob) != head + n * row_bytes:
        raise CheckError(f"{path}: size does not match header")
    payload = np.frombuffer(blob, dtype=np.uint8, offset=head).reshape(n, row_bytes)
    bits = np.unpackbits(payload, axis=1)
    if bits[:, k:].any():
        raise CheckError(f"{path}: nonzero padding bits")
    codes = np.where(bits[:, :k] == 1, 1, -1).astype(np.int8)
    return codes, payload


def repack(codes) -> np.ndarray:
    return np.packbits((np.asarray(codes) > 0).astype(np.uint8), axis=1)


def read_model(path) -> list:
    """[(W, b), ...] from an ADSQW001 file; W is (out, in)."""
    blob, (layers,), off = _read(path, MODEL_MAGIC, 1)
    out = []
    for _ in range(layers):
        rows, cols = struct.unpack_from("<II", blob, off)
        off += 8
        w = np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=off).reshape(rows, cols)
        off += 8 * rows * cols
        b = np.frombuffer(blob, dtype="<f8", count=rows, offset=off)
        off += 8 * rows
        out.append((w, b))
    if off != len(blob):
        raise CheckError(f"{path}: trailing bytes")
    return out


def hash_pre_activations(layers, x) -> np.ndarray:
    """Rectifier hidden layers, identity semantic layer, then the hash
    layer's pre-activation; its sign is the code (sign(0) = +1)."""
    h = x
    for w, b in layers[:-2]:
        h = np.maximum(h @ w.T + b, 0.0)
    for w, b in layers[-2:]:
        h = h @ w.T + b
    return h


def check_encoded(codes, layers_x, layers_y, x, margin=1e-9) -> int:
    """Number of code bits that disagree with the recomputed sign, not
    counting bits whose pre-activation lies within ``margin`` of 0."""
    v = np.concatenate([hash_pre_activations(layers_x, x),
                        hash_pre_activations(layers_y, x)], axis=1)
    if v.shape != codes.shape:
        return codes.size
    want = np.where(v >= 0, 1, -1)
    return int(((want != codes) & (np.abs(v) > margin)).sum())


def read_train_log(path):
    """(rounds seen, all loss cells finite) of a train_log.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    finite = bool(rows) and all(math.isfinite(float(v)) for r in rows
                                for k, v in r.items() if k not in ("round", "phase"))
    rounds = {int(r["round"]) for r in rows if r["phase"].startswith("bstep")}
    return len(rounds), finite


def read_metrics_csv(path) -> dict:
    """{'map': v, 'ph2': v, 'pr': [(recall, v)...], 'pn': [(n, v)...]}"""
    out = {"pr": [], "pn": []}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            value = float(row["value"])
            if row["metric"] in ("pr", "pn"):
                out[row["metric"]].append((float(row["grid"]), value))
            else:
                out[row["metric"]] = value
    return out


def pr_exact(ranked_rel):
    """Per recall level j/20: (exact precision, precision one hit later,
    whether j * total / 20 is a whole number); None with no relevant item.
    The second value is what a level that asks for one hit too many reads."""
    hit_ranks = np.flatnonzero(ranked_rel) + 1
    total = hit_ranks.size
    if total == 0:
        return None
    out = []
    for j in range(1, PR_LEVELS + 1):
        needed = (j * total + PR_LEVELS - 1) // PR_LEVELS
        late = (needed + 1) / int(hit_ranks[needed]) if needed < total else None
        out.append((needed / int(hit_ranks[needed - 1]), late, j * total % PR_LEVELS == 0))
    return out


def average_precision(ranked_rel, r_cutoff) -> float:
    total = int(ranked_rel.sum())
    if total == 0:
        return 0.0
    hits, score = 0, 0.0
    for rank in np.flatnonzero(ranked_rel[:r_cutoff]) + 1:
        hits += 1
        score += hits / int(rank)
    return score / min(r_cutoff, total)


@dataclass
class Reference:
    """Per-query ground truth for one (queries, database) pair."""

    ap: np.ndarray        # Q, AP@map_r
    ph2: np.ndarray       # Q, precision within Hamming radius 2
    pr: list              # Q entries: pr_exact() of the query
    pn: np.ndarray        # Q x len(pn_grid)
    pn_grid: tuple
    top: np.ndarray       # Q x topk database indices

    def take(self, rows) -> "Reference":
        """The ground truth of the queries in ``rows`` alone."""
        return Reference(ap=self.ap[rows], ph2=self.ph2[rows], pr=[self.pr[i] for i in rows],
                         pn=self.pn[rows], pn_grid=self.pn_grid, top=self.top[rows])


def reference(query_codes, db_codes, query_labels, db_labels, map_r=100, topk=100,
              block=16) -> Reference:
    n, k = db_codes.shape
    d = db_codes.astype(np.float32)
    dl = db_labels.astype(np.float32)
    grid = tuple(g for g in TOPN_GRID if g <= n)
    tie = np.arange(n, dtype=np.int64)
    nq = query_codes.shape[0]
    ap, ph2, pn = np.zeros(nq), np.zeros(nq), np.zeros((nq, len(grid)))
    pr, top = [], np.zeros((nq, topk), dtype=np.int64)
    for start in range(0, nq, block):
        q = query_codes[start:start + block].astype(np.float32)
        dist = ((k - q @ d.T) / 2).astype(np.int64)
        rel = (query_labels[start:start + block].astype(np.float32) @ dl.T) > 0
        for i in range(q.shape[0]):
            qi = start + i
            order = np.argsort(dist[i] * n + tie)
            ranked = rel[i][order]
            ap[qi] = average_precision(ranked, map_r)
            near = dist[i] <= 2
            ph2[qi] = rel[i][near].mean() if near.any() else 0.0
            cum = np.cumsum(ranked)
            pn[qi] = [cum[g - 1] / g for g in grid]
            pr.append(pr_exact(ranked))
            top[qi] = order[:topk]
    return Reference(ap=ap, ph2=ph2, pr=pr, pn=pn, pn_grid=grid, top=top)


def compare_eval(values: dict, ref: Reference) -> list:
    """Problems with an eval CSV's map, ph2 and pn rows, and the shape of
    its pr rows. PR values are checked per query by ``pr_disagreements``."""
    problems = []
    if abs(values.get("map", math.nan) - ref.ap.mean()) > TOL:
        problems.append(f"map {values.get('map')} != reference {ref.ap.mean()}")
    if abs(values.get("ph2", math.nan) - ref.ph2.mean()) > TOL:
        problems.append(f"ph2 {values.get('ph2')} != reference {ref.ph2.mean()}")
    pn = values["pn"]
    if [n for n, _ in pn] != list(ref.pn_grid):
        problems.append(f"pn grid {[n for n, _ in pn]} != {list(ref.pn_grid)}")
    else:
        for (n, v), want in zip(pn, ref.pn.mean(axis=0)):
            if abs(v - want) > TOL:
                problems.append(f"P@{n} {v} != reference {want}")
    levels = [r for r, _ in values["pr"]]
    want_levels = [j / PR_LEVELS for j in range(1, PR_LEVELS + 1)]
    if len(levels) != PR_LEVELS or any(abs(a - b) > 1e-9 for a, b in zip(levels, want_levels)):
        problems.append(f"pr recall levels {levels} != {want_levels}")
    return problems


def pr_disagreements(per_query_points, ref: Reference):
    """Compare the program's PR points, one list per query alone
    (``[(recall, precision), ...]``, empty with no relevant item), with the
    exact ones. Returns (late, wrong): queries where a level with a whole
    j * total / 20 reads the precision one hit later (the recall-rounding
    fault), and queries with any other disagreement."""
    late, wrong = [], []
    for qi, (got, want) in enumerate(zip(per_query_points, ref.pr)):
        if want is None or len(got) != len(want):
            if got or want is not None:
                wrong.append(qi)
            continue
        off = [(p, w) for (_, p), w in zip(got, want) if abs(p - w[0]) > TOL]
        if any(not (whole and one_later is not None and abs(p - one_later) <= TOL)
               for p, (_, one_later, whole) in off):
            wrong.append(qi)
        elif off:
            late.append(qi)
    return late, wrong


def search_mismatches(results, query_ids, ref: Reference) -> int:
    """Number of top-k results that differ from the reference ranking."""
    return sum(1 for qi, got in zip(query_ids, results)
               if not np.array_equal(np.asarray(got), ref.top[qi][:len(got)]))


def random_map(query_labels, db_labels, k, seed, map_r=100) -> float:
    """mAP@map_r of uniformly random +-1 codes on the same labels."""
    rng = np.random.default_rng(seed)
    q = np.where(rng.random((query_labels.shape[0], k)) < 0.5, 1, -1).astype(np.int8)
    d = np.where(rng.random((db_labels.shape[0], k)) < 0.5, 1, -1).astype(np.int8)
    return float(reference(q, d, query_labels, db_labels, map_r=map_r).ap.mean())


def _brute_order(q, d):
    dist = [int((q != row).sum()) for row in d]
    return sorted(range(len(d)), key=lambda j: (dist[j], j))


def selftest(pr_curve_of=None) -> list:
    """Run the checker on tiny inputs; return the list of checks that did
    not behave. ``pr_curve_of(ranked_relevance)``, when given, returns the
    program's PR points for one query whose database is ranked in the
    given order; the checker must flag them exactly when they differ from
    the exact values on the recall-rounding case."""
    failures = []
    rng = np.random.default_rng(7)
    q = np.where(rng.random((6, 12)) < 0.5, 1, -1).astype(np.int8)
    d = np.where(rng.random((40, 12)) < 0.5, 1, -1).astype(np.int8)
    ql = np.zeros((6, 3), dtype=np.uint8)
    ql[np.arange(6), rng.integers(0, 3, 6)] = 1
    dl = np.zeros((40, 3), dtype=np.uint8)
    dl[np.arange(40), rng.integers(0, 3, 40)] = 1
    ref = reference(q, d, ql, dl, map_r=10, topk=40, block=4)

    for qi in range(6):
        if list(ref.top[qi]) != _brute_order(q[qi], d):
            failures.append(f"reference ranking of query {qi} differs from brute force")
    rel = [[int((ql[i] & dl[j]).any()) for j in range(40)] for i in range(6)]
    for qi in range(6):
        flags = np.array([rel[qi][j] for j in _brute_order(q[qi], d)], dtype=bool)
        hits, score = 0, 0.0
        for rank, f in enumerate(flags[:10], start=1):
            if f:
                hits += 1
                score += hits / rank
        if abs(ref.ap[qi] - (score / min(10, flags.sum()) if flags.sum() else 0.0)) > TOL:
            failures.append(f"reference AP of query {qi} differs from brute force")

    wrong = ref.top.copy()
    first_gap = next(i for i in range(39)
                     if (q[0] != d[wrong[0, i]]).sum() != (q[0] != d[wrong[0, i + 1]]).sum())
    wrong[0, [first_gap, first_gap + 1]] = wrong[0, [first_gap + 1, first_gap]]
    if search_mismatches([wrong[0]], [0], ref) != 1:
        failures.append("a swapped ranking was not flagged")
    if search_mismatches([ref.top[1]], [1], ref) != 0:
        failures.append("a correct ranking was flagged")

    good = {"map": float(ref.ap.mean()), "ph2": float(ref.ph2.mean()),
            "pn": list(zip(ref.pn_grid, ref.pn.mean(axis=0))),
            "pr": [(j / PR_LEVELS, 0.0) for j in range(1, PR_LEVELS + 1)]}
    if compare_eval(good, ref):
        failures.append(f"correct metric values were flagged: {compare_eval(good, ref)}")
    if not compare_eval(dict(good, map=good["map"] + 1e-6), ref):
        failures.append("a wrong mAP value was not flagged")
    if not compare_eval(dict(good, pn=[(n, v + 1e-6) for n, v in good["pn"]]), ref):
        failures.append("a wrong P@N value was not flagged")

    # 100 relevant items ranked 55 relevant, 1 irrelevant, 45 relevant:
    # recall 0.55 needs exactly 55 hits, so its precision is 1.0.
    ranked = np.array([True] * 55 + [False] + [True] * 45)
    exact = pr_exact(ranked)
    if exact[10] != (1.0, 56 / 57, True) or exact[11][0] != 60 / 61:
        failures.append(f"exact PR levels 0.55/0.60 are {exact[10]}/{exact[11]}")
    case = Reference(ap=np.zeros(1), ph2=np.zeros(1), pr=[exact], pn=np.zeros((1, 0)),
                     pn_grid=(), top=np.zeros((1, 0), dtype=np.int64))
    right = [(j / PR_LEVELS, p) for j, (p, _, _) in enumerate(exact, start=1)]
    late = list(right)
    late[10] = (0.55, 56 / 57)
    off = list(right)
    off[10] = (0.55, 0.5)
    for points, want, what in ((right, ([], []), "exact PR points"),
                               (late, ([0], []), "a PR point one hit past its level"),
                               (off, ([], [0]), "a wrong PR point")):
        if pr_disagreements([points], case) != want:
            failures.append(f"{what}: verdict {pr_disagreements([points], case)}, "
                            f"expected {want}")
    if pr_curve_of is not None:
        program = pr_curve_of(ranked)
        differs = len(program) != len(exact) or any(
            abs(p - e[0]) > TOL for (_, p), e in zip(program, exact))
        if (pr_disagreements([program], case) != ([], [])) != differs:
            failures.append("the verdict on the program's PR points does not match "
                            "their comparison with the exact values")
    return failures
