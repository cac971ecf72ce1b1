"""Exception hierarchy shared by all adsq modules."""


class AdsqError(Exception):
    """Base class for all adsq-specific errors."""


class FormatError(AdsqError):
    """A file does not conform to its declared binary format."""


class DataError(AdsqError):
    """A file parses but carries invalid values (NaN, all-zero label row, ...)."""


class ConfigError(AdsqError):
    """Invalid configuration key, value, or layer layout."""


class TrainingError(AdsqError):
    """Non-finite loss, logits, gradient or code-update argument, or a code
    update that would raise the objective, encountered during optimization."""
