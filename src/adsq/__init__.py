"""adsq: asymmetric two-network semantic hashing.

Training engine (label network + two asymmetric image networks with
alternating weight/code optimization), binary-code retrieval, and an
evaluation toolkit over compact Hamming codes.
"""

__version__ = "0.1.0"

from .config import HyperParams, Variant, load_config
from .data import Dataset, load_dataset
from .errors import (AdsqError, ConfigError, DataError, FormatError, TrainingError)

__all__ = [
    "__version__",
    "AdsqError", "ConfigError", "DataError", "FormatError", "TrainingError",
    "HyperParams", "Variant", "load_config",
    "Dataset", "load_dataset",
]
