"""Shared exception types."""


class CapacityError(Exception):
    """A configured resource bound (vertex count, partition size, ...) was exceeded."""


class IndeterminateError(Exception):
    """A tri-state membership query returned Unknown where a definite answer was required."""


class InvariantError(Exception):
    """An internal cross-check failed: a bug in graphfib, not bad input."""
