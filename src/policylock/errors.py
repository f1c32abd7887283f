"""Exception hierarchy shared by all engine modules, and the number and
argument-type checks."""

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


def _is_real(value) -> bool:
    """A real number: a Python or numpy int or float, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_types(*pairs) -> None:
    """An ``InvalidArgumentError`` unless each ``(value, kind)`` pair's value
    is an instance of ``kind``, a class or a tuple of classes."""
    for value, kind in pairs:
        if not isinstance(value, kind):
            kinds = kind if isinstance(kind, tuple) else (kind,)
            raise InvalidArgumentError(
                f"expected a {' or '.join(k.__name__ for k in kinds)}, "
                f"got {type(value).__name__}")
