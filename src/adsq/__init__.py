"""adsq: asymmetric two-network semantic hashing.

Training engine (label network + two asymmetric image networks with
alternating weight/code optimization), binary-code retrieval, and an
evaluation toolkit over compact Hamming codes.
"""

__version__ = "0.1.0"

from .config import HyperParams, TermMask, Variant, load_config, variant_loss_mask
from .data import Dataset, build_similarity, load_dataset
from .errors import (AdsqError, ConfigError, DataError, FormatError, TrainingError)

__all__ = [
    "__version__",
    "AdsqError", "ConfigError", "DataError", "FormatError", "TrainingError",
    "HyperParams", "TermMask", "Variant", "load_config", "variant_loss_mask",
    "Dataset", "build_similarity", "load_dataset",
]
