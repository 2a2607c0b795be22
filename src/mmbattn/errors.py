"""Exception hierarchy shared across the package: one class per kind of
input, plus two for the program itself."""

from contextlib import contextmanager


class MMBAttnError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MMBAttnError):
    """Bad config, schema or synth-spec file, or bad values for a config dataclass."""


class DataError(MMBAttnError):
    """Bad CSV content or header, a bad label, or a split AUC cannot score."""


class CheckpointError(MMBAttnError):
    """Checkpoint file unreadable or incompatible with the current config."""


class ContractError(MMBAttnError):
    """The caller broke a precondition, tensor shapes included."""


class TrainingError(MMBAttnError):
    """Training aborted, e.g. on a non-finite loss."""


@contextmanager
def naming(path):
    """Prefix package errors raised inside the block with ``path``."""
    try:
        yield
    except MMBAttnError as exc:
        raise type(exc)(f"{path}: {exc}") from None


@contextmanager
def reading(path, error_cls):
    """Raise ``error_cls`` naming ``path`` when the block cannot read it or
    decode it as UTF-8."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error_cls(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise error_cls(f"{path}: cannot read ({exc.strerror or exc})") from None
