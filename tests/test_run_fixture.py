import csv
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_fixture.py"


@pytest.fixture(scope="module")
def fixture_script():
    spec = importlib.util.spec_from_file_location("run_fixture", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def train_config(cell):
    return json.loads((cell / "model" / "manifest.json").read_text())["config"]


def test_each_cell_prints_the_map_of_its_own_metrics(fixture_script, tmp_path, capsys):
    fixture_script.main(["--out", str(tmp_path), "--seeds", "7", "--variants", "full,sym"])
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    for variant in ("full", "sym"):
        cell = tmp_path / f"{variant}-7"
        with open(cell / "metrics.csv") as fh:
            value = next(float(r["value"]) for r in csv.DictReader(fh) if r["metric"] == "map")
        assert rows[variant] == [f"{value:.4f}"] * 2  # the cell and its mean
        config = train_config(cell)
        assert (config["variant"], config["seed"], config["k_half"]) == (variant, 7, 8)
        assert (config["encoder_hidden"], config["semantic_dim"]) == ([64], 32)


@pytest.mark.parametrize("key, value, want", [("eta", "0.5", 0.5), ("t_img", "3", 3),
                                              ("k_half", "4", 4)])
def test_scanned_value_reaches_train_as_its_field_type(fixture_script, tmp_path, capsys,
                                                      key, value, want):
    """A scanned setting wins over the fixed one, ``k_half`` included."""
    fixture_script.main(["--out", str(tmp_path), "--seeds", "7", "--variants", "full",
                         "--scan", f"{key}={value}"])
    assert f"full-{key}={value} " in capsys.readouterr().out
    got = train_config(tmp_path / f"full-{key}={value}-7")[key]
    assert got == want and type(got) is type(want)
