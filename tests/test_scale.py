import importlib.util
import math
from pathlib import Path

import pytest

from adsq.config import HyperParams, load_config

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scale.py"


@pytest.fixture(scope="module")
def scale():
    spec = importlib.util.spec_from_file_location("scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["synth", "diverse"])
def test_point_runs_in_a_subprocess_and_reports(scale, kind):
    """One n = 200 point per label kind: the child ``adsq train`` reports
    its load, train and save times, and its own peak RSS and minor page
    faults; the parent counts the label patterns."""
    r = scale.measure(kind, 200)
    assert (r["kind"], r["n"]) == (kind, 200)
    # synth labels repeat (10 classes, one extra at most); diverse ones rarely do
    assert (r["p"] <= 55) if kind == "synth" else (r["p"] > 150)
    assert r["train_s"] > 0 and math.isfinite(r["train_s"])
    for name in ("load_s", "save_s"):
        assert r[name] >= 0 and math.isfinite(r[name]), name
    assert r["peak_rss_mb"] > 0 and math.isfinite(r["peak_rss_mb"])
    assert type(r["minflt"]) is int and r["minflt"] >= 0


def test_n_must_be_a_multiple_of_the_classes(scale):
    with pytest.raises(ValueError, match=r"205 .* 10 classes"):
        scale.measure("synth", 205)


def test_pairwise_widths_are_the_workloads_train_args(scale):
    assert scale.WIDTHS["pairwise"] == scale.workloads.WORKLOADS["train-pairwise"].train_args()


def test_default_widths_are_the_hyperparams_defaults(scale):
    """``--widths default`` trains HyperParams' own widths, one epoch per
    phase and one round; checked without training, which needs over 1 GB
    at these widths."""
    args = scale.WIDTHS["default"]
    assert args[::2] == ["--set"] * (len(args) // 2)
    hp, defaults = load_config(None, args[1::2]), HyperParams()
    for name in ("k_half", "encoder_hidden", "semantic_dim"):
        assert getattr(hp, name) == getattr(defaults, name), name
    assert (hp.t_label, hp.t_img, hp.outer_rounds) == (1, 1, 1)
