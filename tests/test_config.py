import dataclasses
import json

import pytest

from adsq.config import (HyperParams, Variant, load_config, make_hyperparams,
                         parse_variant)
from adsq.errors import ConfigError


def test_shipped_defaults():
    hp = HyperParams()
    assert (hp.alpha, hp.beta) == (1.0, 1.0)
    assert hp.gamma == pytest.approx(1e-2)
    assert (hp.nu, hp.eta) == (10.0, 10.0)
    assert hp.momentum == 0.9
    assert hp.weight_decay == pytest.approx(5e-4)
    assert hp.batch_size == 32
    assert (hp.lr_min, hp.lr_max) == (1e-5, 1e-2)


def test_unknown_key_named_in_error():
    """Among them the settings that were removed: a config that sets one
    is refused, not run without it."""
    for key in ("not_a_key", "j3_literal", "refresh_labelnet", "lr_steps"):
        with pytest.raises(ConfigError, match=f"unknown config key: '{key}'"):
            make_hyperparams({key: 1})


@pytest.mark.parametrize("bad", [
    {"alpha": -1.0},
    {"k_half": 0},
    {"batch_size": 1},
    {"lr_min": 0.0},
    {"lr_min": 1e-2, "lr_max": 1e-5},
    {"t_label": -1},
    {"momentum": float("nan")},
    {"momentum": 1.5},
    {"weight_decay": -1.0},
    {"lr_max": float("inf")},
])
def test_invariant_violations_rejected(bad):
    with pytest.raises(ConfigError):
        make_hyperparams(bad)


@pytest.mark.parametrize("field, least", [("k_half", 1), ("batch_size", 2), ("t_label", 0),
                                          ("t_img", 0), ("outer_rounds", 0), ("seed", 0),
                                          ("semantic_dim", 1)])
def test_int_field_below_its_least_value_rejected_by_name(field, least):
    assert getattr(HyperParams(**{field: least}), field) == least
    with pytest.raises(ConfigError, match=field):
        HyperParams(**{field: least - 1})


def test_variant_parsing():
    assert parse_variant("no-asym") is Variant.NO_ASYM
    assert parse_variant(Variant.FULL) is Variant.FULL
    for value in ("nonsense", None, ["full"]):
        with pytest.raises(ConfigError, match="unknown variant"):
            parse_variant(value)


def test_string_coercion_for_cli_overrides():
    hp = make_hyperparams({"k_half": "4", "gamma": "0.5", "encoder_hidden": "16,8"})
    assert hp.k_half == 4
    assert hp.gamma == 0.5
    assert hp.encoder_hidden == (16, 8)


@pytest.mark.parametrize("key, value", [("t_img", 1.5), ("batch_size", 2.9), ("seed", 0.5),
                                        ("k_half", float("inf")), ("encoder_hidden", [16, 8.5])])
def test_fractional_int_value_rejected_by_name(key, value):
    with pytest.raises(ConfigError, match=key):
        make_hyperparams({key: value})


def test_fractional_int_value_in_config_file_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"t_img": 1.5}))
    with pytest.raises(ConfigError, match="t_img"):
        load_config(path)


def test_integral_float_is_an_int():
    hp = make_hyperparams({"batch_size": 2.0, "t_img": 3.0, "encoder_hidden": [16.0, 8]})
    assert (hp.batch_size, hp.t_img, hp.encoder_hidden) == (2, 3, (16, 8))
    assert type(hp.batch_size) is int and type(hp.t_img) is int


@pytest.mark.parametrize("field, value", [("t_img", 1.5), ("encoder_hidden", (64.5,)),
                                          ("k_half", "8"), ("k_half", True)])
def test_direct_construction_checks_int_fields_by_name(field, value):
    """Built directly, not through make_hyperparams, an int field still
    takes no fractional value, no string and no bool."""
    with pytest.raises(ConfigError, match=field):
        HyperParams(**{field: value})


@pytest.mark.parametrize("field, value", [("alpha", "1"), ("lr_min", "1e-3"),
                                          ("momentum", None), ("alpha", True),
                                          ("encoder_hidden", 64)])
def test_direct_construction_checks_float_fields_by_name(field, value):
    """Built directly, a float field takes a real number only, never a
    string, None or a bool, and encoder_hidden must be a list of widths."""
    with pytest.raises(ConfigError, match=field):
        HyperParams(**{field: value})


@pytest.mark.parametrize("value", [True, None, [1.0]], ids=repr)
def test_json_float_field_takes_only_a_number(value):
    with pytest.raises(ConfigError, match="alpha"):
        make_hyperparams({"alpha": value})


def test_float_fields_hold_floats():
    hp = make_hyperparams({"alpha": 2, "momentum": 0})
    assert (hp.alpha, hp.momentum) == (2.0, 0.0)
    assert type(hp.alpha) is float and type(HyperParams(nu=3).nu) is float


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"k_half": 6, "nu": 2.0}))
    hp = load_config(path, overrides={"nu": "5"})
    assert hp.k_half == 6
    assert hp.nu == 5.0


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(path)


def test_to_dict_round_trips():
    hp = HyperParams(k_half=4, variant="sym", encoder_hidden=(8, 4))
    again = make_hyperparams(hp.to_dict())
    assert again == hp


def test_momentum_zero_and_weight_decay_zero_are_valid():
    hp = make_hyperparams({"momentum": "0", "weight_decay": "0"})
    assert (hp.momentum, hp.weight_decay) == (0.0, 0.0)


def set_string(value) -> str:
    """The ``--set KEY=VALUE`` text of a config value."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    if isinstance(value, Variant):
        return value.value
    return str(value)


# every field away from its default, so that an ignored key would show
CHANGED = HyperParams(alpha=2.0, beta=0.5, gamma=0.25, delta=3.0, nu=1.5, eta=0.75,
                      k_half=12, lr_min=2e-5, lr_max=3e-3, t_label=7, t_img=5,
                      outer_rounds=9, batch_size=16, momentum=0.5, weight_decay=1e-3,
                      seed=11, encoder_hidden=(16, 8), semantic_dim=24,
                      variant=Variant.NO_SEM)


@pytest.mark.parametrize("field", dataclasses.fields(HyperParams), ids=lambda f: f.name)
def test_every_field_round_trips_from_its_set_string(field):
    value = getattr(CHANGED, field.name)
    assert value != field.default
    got = make_hyperparams({field.name: set_string(value)})
    assert getattr(got, field.name) == value
    assert type(getattr(got, field.name)) is type(value)
