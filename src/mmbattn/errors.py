"""Exception hierarchy shared across the package."""

from contextlib import contextmanager


class MMBAttnError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(MMBAttnError):
    """Tensor shapes incompatible with the requested operation."""


class ContractError(MMBAttnError):
    """An internal precondition was violated by the caller."""


class SchemaError(MMBAttnError):
    """Field schema inconsistent with the data it is applied to."""


class DataError(MMBAttnError):
    """Malformed input data: bad label, bad row width, empty or unreadable file."""


class SynthSpecError(MMBAttnError):
    """Invalid synthetic-data specification."""


class ConfigError(MMBAttnError):
    """Invalid or unknown configuration key or value."""


class MetricError(MMBAttnError):
    """Metric undefined for the given inputs (e.g. single-class AUC)."""


class CheckpointError(MMBAttnError):
    """Checkpoint file unreadable or incompatible with the current config."""


class TrainingError(MMBAttnError):
    """Training aborted, e.g. on a non-finite loss."""


@contextmanager
def naming(path):
    """Prefix package errors raised inside the block with ``path``."""
    try:
        yield
    except MMBAttnError as exc:
        raise type(exc)(f"{path}: {exc}") from None
