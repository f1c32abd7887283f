"""Exception hierarchy shared by all engine modules."""


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
