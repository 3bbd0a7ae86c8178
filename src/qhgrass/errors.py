"""Shared exception types."""


class InvalidInputError(ValueError):
    """Raised when arguments are outside an operation's documented domain."""


class InternalConsistencyError(RuntimeError):
    """Raised when an internal invariant fails (always a bug, never user error)."""
