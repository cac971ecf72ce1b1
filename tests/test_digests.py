import importlib.util
import json
import warnings
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_digests_repeat_and_compare_flags_a_change(digests, tmp_path, capsys):
    # the normal synth -> train -> encode -> eval path raises no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = digests.digests(tmp_path / "a", ["fixture"])
        second = digests.digests(tmp_path / "b", ["fixture"])
    assert first == second
    assert "fixture-7/model/train_log.csv" in first
    assert "fixture-7/db.adsqb" in first
    assert not any(path.endswith("manifest.json") for path in first)

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(first))
    b.write_text(json.dumps(second))
    assert digests.main(["--compare", str(a), str(b)]) == 0
    assert f"0 of {len(first)} files differ" in capsys.readouterr().out

    edited = dict(second, **{"fixture-7/db.adsqb": "0" * 64})
    del edited["fixture-7/metrics.csv"]
    b.write_text(json.dumps(edited))
    assert digests.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "differs: fixture-7/db.adsqb" in out and "differs: fixture-7/metrics.csv" in out
    assert f"2 of {len(first)} files differ" in out
