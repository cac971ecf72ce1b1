import importlib.util
import math
from pathlib import Path

import pytest

from adsq.config import HyperParams

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scale.py"


@pytest.fixture(scope="module")
def scale():
    spec = importlib.util.spec_from_file_location("scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["synth", "diverse"])
def test_point_runs_in_a_subprocess_and_reports(scale, kind):
    """One n = 200 point per label kind: the child trains and reports its
    own time, pattern count, peak RSS and minor page faults."""
    r = scale.measure(kind, 200)
    assert (r["kind"], r["n"]) == (kind, 200)
    # synth labels repeat (10 classes, one extra at most); diverse ones rarely do
    assert (r["p"] <= 55) if kind == "synth" else (r["p"] > 150)
    assert r["train_s"] > 0 and math.isfinite(r["train_s"])
    assert r["peak_rss_mb"] > 0 and math.isfinite(r["peak_rss_mb"])
    assert type(r["minflt"]) is int and r["minflt"] >= 0


def test_default_widths_are_the_hyperparams_defaults(scale):
    """``--widths default`` trains HyperParams' own widths, one epoch per
    phase; checked without training, which needs over 1 GB at these widths."""
    defaults = HyperParams()
    widths = scale.WIDTHS["default"]
    for name in ("k_half", "encoder_hidden", "semantic_dim"):
        assert widths[name] == getattr(defaults, name), name
    assert (widths["t_label"], widths["t_img"]) == (1, 1)
