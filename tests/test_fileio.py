"""The shared file container: atomic writes and checked reads.

Every writer goes through ``adsq.fileio.atomic_open``. The failure tests
make the temp file's second write raise, as a full disk would, after the
first part (the magic, a CSV header, the first JSON chunk) went through.
"""

import os

import numpy as np
import pytest

from adsq import cli, fileio
from adsq.codes import load_codes, pack, write_codes
from adsq.data import load_features, load_labels, write_features, write_labels
from adsq.encoder import init_params, load_params, save_params
from adsq.errors import FormatError
from adsq.trainer import CODE_FILES, MODEL_FILES, LogRow, TrainState, save_run

OLD = b"bytes of an earlier run\n"


class FailsOnSecondWrite:
    """File proxy whose first write goes through and whose second raises."""

    def __init__(self, fh):
        self._fh = fh
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError(28, "No space left on device")
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def fail_writes_to(monkeypatch, target):
    """Make every write-mode open of ``target``, or of a temp file named
    after it, fail on its second write."""
    real_open = open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "r" not in mode and os.path.basename(file).startswith(target.name):
            return FailsOnSecondWrite(fh)
        return fh
    monkeypatch.setattr(fileio, "open", failing_open, raising=False)


def tiny_state():
    params = init_params([3, 4, 2], seed=0)
    codes = np.ones((2, 2))
    rows = [LogRow(0, "label", 1.0, 0.5, 0.25, 0.125, 0.125, 0.0)] * 2
    return TrainState(label_params=params, imgx_params=params,
                      imgy_params=params, codes_x=codes, codes_y=codes, supervision=None,
                      log_rows=rows)


def write_eval_inputs(d):
    write_codes(d / "q.adsqb", pack(np.ones((2, 8))))
    write_codes(d / "db.adsqb", pack(np.ones((3, 8))))
    write_labels(d / "q.adsql", np.eye(2, dtype=np.int8))
    write_labels(d / "db.adsql", np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int8))
    return ["eval", "--query-codes", str(d / "q.adsqb"), "--db-codes", str(d / "db.adsqb"),
            "--query-labels", str(d / "q.adsql"), "--db-labels", str(d / "db.adsql"),
            "--map-r", "2", "--out", str(d / "metrics.csv")]


def run_eval(d):
    argv = write_eval_inputs(d)
    if cli.main(argv) != 0:
        raise OSError("adsq eval failed")


# (name, final file name, writer of that file into a directory, other files it may leave)
WRITERS = [
    ("features", "x.adsqf", lambda d: write_features(d / "x.adsqf", np.ones((3, 2))), ()),
    ("labels", "y.adsql", lambda d: write_labels(d / "y.adsql", np.eye(2)), ()),
    ("codes", "c.adsqb", lambda d: write_codes(d / "c.adsqb", pack(np.ones((2, 8)))), ()),
    ("params", "m.net", lambda d: save_params(d / "m.net", init_params([3, 4, 2], 0)), ()),
    ("manifest", "manifest.json",
     lambda d: cli._write_manifest(d / "manifest.json", "synth", {}, {}, [], [], {"t": 0.0}),
     ()),
    ("train-log", "train_log.csv", lambda d: save_run(tiny_state(), d),
     MODEL_FILES + CODE_FILES),
    ("metrics", "metrics.csv", run_eval,
     ("q.adsqb", "db.adsqb", "q.adsql", "db.adsql")),
]


@pytest.mark.parametrize("name, target, write, others", WRITERS, ids=[w[0] for w in WRITERS])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, name, target, write,
                                             others, existing):
    path = tmp_path / target
    if existing:
        path.write_bytes(OLD)
    fail_writes_to(monkeypatch, path)
    with pytest.raises(OSError):
        write(tmp_path)
    if existing:
        assert path.read_bytes() == OLD
    else:
        assert not path.exists()
    # nothing but the writer's other (complete) outputs: no temp file
    assert set(os.listdir(tmp_path)) - {target, *others} == set()


@pytest.mark.parametrize("name, target, write, others", WRITERS, ids=[w[0] for w in WRITERS])
def test_write_replaces_an_existing_file(tmp_path, name, target, write, others):
    path = tmp_path / target
    path.write_bytes(OLD)
    write(tmp_path)
    assert path.read_bytes() != OLD
    assert set(os.listdir(tmp_path)) - {target, *others} - {f"{target}.manifest.json"} == set()


# (format, writer of a valid file, loader)
FORMATS = [
    ("features", lambda p: write_features(p, np.arange(6.0).reshape(3, 2)), load_features),
    ("labels", lambda p: write_labels(p, np.eye(3)), load_labels),
    ("codes", lambda p: write_codes(p, pack(np.ones((3, 12)))), load_codes),
    ("params", lambda p: save_params(p, init_params([3, 4, 2], 0)), load_params),
]


@pytest.mark.parametrize("fmt, write, load", FORMATS, ids=[f[0] for f in FORMATS])
@pytest.mark.parametrize("cut, message", [
    (lambda blob: blob[:10], "truncated header"),
    (lambda blob: blob[:-1], "truncated payload"),
    (lambda blob: blob + b"\0", "trailing bytes"),
], ids=["short-header", "short-array", "trailing"])
def test_reader_rejects_damaged_file(tmp_path, fmt, write, load, cut, message):
    path = tmp_path / f"file.{fmt}"
    write(path)
    load(path)  # the undamaged file loads
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(FormatError, match=message) as err:
        load(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("fmt, write, load", FORMATS, ids=[f[0] for f in FORMATS])
def test_huge_header_is_rejected_before_allocating(tmp_path, fmt, write, load):
    path = tmp_path / f"file.{fmt}"
    write(path)
    blob = path.read_bytes()
    width = 4 if fmt == "params" else 8  # the model header is the layer count alone
    path.write_bytes(blob[:8] + b"\xff" * width + blob[8 + width:])
    with pytest.raises(FormatError, match="truncated"):
        load(path)


def test_reader_checks_magic(tmp_path):
    path = tmp_path / "f.adsqf"
    write_labels(path, np.eye(2))
    with pytest.raises(FormatError, match="feature-file magic"):
        load_features(path)
