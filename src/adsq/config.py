"""Run configuration: hyper-parameters, ablation variants, JSON loading."""

import dataclasses
import enum
import json
import math
import numbers
from dataclasses import dataclass

from .errors import ConfigError

LR_STEPS = 7  # points of the geometric learning-rate grid, lr_min to lr_max


class Variant(str, enum.Enum):
    """The one ablation switch of a run, read from ``HyperParams.variant``.

    FULL keeps every term. NO_ASYM drops the asymmetric inner-product
    term, NO_SEM drops the semantic pairwise term, NO_BOTH drops both.
    SYMMETRIC keeps all terms but trains a single image network whose
    weights serve both halves of the final code. The code_pair, quant and
    balance terms are always kept.
    """

    FULL = "full"
    NO_ASYM = "no-asym"
    NO_SEM = "no-sem"
    NO_BOTH = "no-both"
    SYMMETRIC = "sym"

    @property
    def keeps_sem(self) -> bool:
        """Whether the semantic pairwise likelihood term is kept."""
        return self not in (Variant.NO_SEM, Variant.NO_BOTH)

    @property
    def keeps_asym(self) -> bool:
        """Whether the asymmetric inner-product term is kept."""
        return self not in (Variant.NO_ASYM, Variant.NO_BOTH)


def parse_variant(value) -> Variant:
    try:
        return Variant(value)
    except ValueError:
        valid = ", ".join(v.value for v in Variant)
        raise ConfigError(f"unknown variant {value!r} (expected one of: {valid})") from None


@dataclass
class HyperParams:
    """All knobs of a training run.

    Loss weights: alpha/beta scale the two pairwise likelihood terms,
    gamma the label-network binary regularizer, delta the classification
    term, eta the quantization term, nu the bit-balance term.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1e-2
    delta: float = 1.0
    nu: float = 10.0
    eta: float = 10.0
    k_half: int = 8
    lr_min: float = 1e-5
    lr_max: float = 1e-2
    t_label: int = 25
    t_img: int = 3
    outer_rounds: int = 5
    batch_size: int = 32
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    encoder_hidden: tuple = (4096, 4096)
    semantic_dim: int = 512
    variant: Variant = Variant.FULL

    def __post_init__(self):
        for name, default in _DEFAULTS.items():
            check = _FIELD_CHECKS.get(type(default))
            if check is not None:
                setattr(self, name, check(name, getattr(self, name)))
        if not isinstance(self.encoder_hidden, (list, tuple)):
            raise ConfigError(f"encoder_hidden must be a list, got {self.encoder_hidden!r}")
        self.encoder_hidden = tuple(_as_int("encoder_hidden", w) for w in self.encoder_hidden)
        self.variant = parse_variant(self.variant)
        for name in ("alpha", "beta", "gamma", "delta", "nu", "eta", "weight_decay"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        for name, least in _INT_MINIMA.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not (0 < self.lr_min <= self.lr_max < math.inf):
            raise ConfigError(f"need 0 < lr_min <= lr_max < inf, got {self.lr_min}, "
                              f"{self.lr_max}")
        if any(w < 1 for w in self.encoder_hidden):
            raise ConfigError("encoder_hidden widths must be >= 1")

    def lr_for_round(self, round_index: int) -> float:
        """One point per outer round of the ``LR_STEPS``-point geometric grid
        from lr_min to lr_max, inclusive, clamped at the last point."""
        ratio = (self.lr_max / self.lr_min) ** (1.0 / (LR_STEPS - 1))
        return self.lr_min * ratio**min(round_index, LR_STEPS - 1)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["encoder_hidden"] = list(self.encoder_hidden)
        d["variant"] = self.variant.value
        return d


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(HyperParams)}
# the least value of each int field but encoder_hidden, whose widths are >= 1
_INT_MINIMA = {"k_half": 1, "batch_size": 2, "t_label": 0, "t_img": 0, "outer_rounds": 0,
               "seed": 0, "semantic_dim": 1}


def _as_int(name, value) -> int:
    """``value`` of int field ``name`` as an int: an integral number (2.0
    gives 2), never truncated, never a string or a bool."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and \
            (isinstance(value, numbers.Integral) or float(value).is_integer()):
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _as_float(name, value) -> float:
    """``value`` of float field ``name`` as a float: a real number, not a bool."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{name} must be a number, got {value!r}")


_FIELD_CHECKS = {int: _as_int, float: _as_float}


def _coerce(key, value):
    """A ``--set`` string as the type of the key's default; ``HyperParams``
    itself checks every value, JSON values as they are."""
    default = _DEFAULTS[key]
    if not isinstance(value, str) or isinstance(default, Variant):
        return value
    try:
        if isinstance(default, tuple):
            return tuple(int(v) for v in value.split(",") if v.strip())
        return type(default)(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for config key {key!r}: {value!r}") from exc


def make_hyperparams(mapping: dict) -> HyperParams:
    """Build HyperParams from a plain dict, rejecting unknown keys by name."""
    clean = {}
    for key, value in mapping.items():
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key: {key!r}")
        clean[key] = _coerce(key, value)
    return HyperParams(**clean)


def load_config(path=None, overrides=None) -> HyperParams:
    """Read a JSON config file and apply overrides on top; overrides win."""
    merged = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        merged.update(raw)
    if overrides:
        merged.update(overrides)
    return make_hyperparams(merged)
