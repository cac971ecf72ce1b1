import importlib.util
from pathlib import Path

import pytest

from adsq.config import Variant

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ablation_sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("ablation_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("param, value, want", [("t_img", "3", 3), ("k_half", "4", 4),
                                                ("eta", "0.5", 0.5)])
def test_scanned_value_takes_its_field_type(sweep, param, value, want):
    hp = sweep.cell_hyperparams("full", 7, 8, {param: value})
    got = getattr(hp, param)
    assert got == want and type(got) is type(want)


def test_cell_keeps_its_own_settings(sweep):
    hp = sweep.cell_hyperparams("no-sem", 9, 8, {})
    assert (hp.k_half, hp.seed, hp.variant) == (8, 9, Variant.NO_SEM)
    assert (hp.encoder_hidden, hp.semantic_dim) == ((64,), 32)
