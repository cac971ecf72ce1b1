"""The names the benchmark under perfbench/ looks up in adsq must exist,
and the training settings it passes must load.

perfbench wraps functions by module attribute, calls the library
directly and sets config keys by name, so renaming or deleting one of
these breaks the benchmark without failing any other test.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from tracing import SPANS  # noqa: E402
from workloads import LR, WORKLOADS  # noqa: E402

import adsq.cli  # noqa: E402
from adsq.config import load_config  # noqa: E402

# adsq module names bound in perfbench by `from adsq import ...`
ADSQ_MODULES = ("cli", "codes", "data", "metrics", "synth")

CALLED = (
    ("adsq.metrics", "RelevanceJudge"),
    ("adsq.metrics", "pr_curve"),
    ("adsq.codes", "PackedCodes"),
    ("adsq.codes", "search_topk"),
    ("adsq.codes", "load_codes"),
    ("adsq.codes", "write_codes"),
    ("adsq.codes", "pack"),
    ("adsq.data", "load_labels"),
    ("adsq.data", "write_labels"),
    ("adsq.data", "write_features"),
    ("adsq.synth", "generate"),
    ("adsq.synth", "SynthSpec"),
)


@pytest.mark.parametrize("layer, module, attr", [s[:3] for s in SPANS],
                         ids=[s[0] for s in SPANS])
def test_traced_span_resolves(layer, module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer replaces the method in the class's own __dict__
        assert callable(vars(getattr(owner, cls_name))[meth])
    else:
        assert callable(getattr(owner, attr))


def _adsq_attributes(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ADSQ_MODULES):
            yield f"adsq.{node.value.id}", node.attr


def test_every_adsq_attribute_in_the_scripts_exists():
    used = {pair for script in ("run.py", "workloads.py")
            for pair in _adsq_attributes(PERFBENCH / script)}
    # the scan must see at least the names known to be called
    assert set(CALLED) <= used
    missing = [f"{m}.{a}" for m, a in sorted(used)
               if not hasattr(importlib.import_module(m), a)]
    assert not missing


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_training_settings_are_accepted(name, tmp_path, monkeypatch):
    """Each workload's ``adsq train`` arguments, resolved by ``cmd_train``
    itself, load into the settings the workload names; the missing input
    files then end the run."""
    w = WORKLOADS[name]
    resolved = []

    def record(path, pairs):
        resolved.append(load_config(path, pairs))
        return resolved[-1]

    monkeypatch.setattr(adsq.cli, "load_config", record)
    assert adsq.cli.main(["train", "--features", str(tmp_path / "f"), "--labels",
                          str(tmp_path / "l"), "--out", str(tmp_path / "o"), "--seed", "1",
                          *w.train_args()]) == 1
    (hp,) = resolved
    assert (hp.k_half, hp.encoder_hidden, hp.semantic_dim, hp.t_label, hp.outer_rounds) == \
        (w.k_half, w.hidden, w.semantic_dim, w.t_label, w.outer_rounds)
    assert hp.lr_min == hp.lr_max == LR
    assert hp.seed == 1
