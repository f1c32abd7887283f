"""Exception hierarchy shared by all engine modules, and one integer check."""

import numbers


class EngineError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(EngineError):
    """An argument violates an operation precondition."""


class UnsupportedConfigurationError(EngineError):
    """A configuration combination the engine deliberately does not support."""


class SchemaError(EngineError):
    """Input columns do not match the expected schema or feature order."""


class ContractViolationError(EngineError):
    """A fixed-input contract precondition was broken (lock, vocabulary, digest)."""


class AlignmentError(EngineError):
    """Two row sets that must be identical differ."""


class MalformedTreeError(EngineError):
    """A tree cannot be traversed: a cycle, an out-of-range child or feature
    index, or corrupt arrays."""


def _check_int(value, what: str, least=None) -> None:
    """An ``InvalidArgumentError`` unless ``value`` is an integer (a Python
    or numpy int, not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidArgumentError(f"{what} must be >= {least}, got {value}")
