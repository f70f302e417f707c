"""Shared exception types, and the key check every JSON object reader makes."""


class CapacityError(Exception):
    """A configured resource bound (vertex count, partition size, ...) was exceeded."""


class IndeterminateError(Exception):
    """A tri-state membership query returned Unknown where a definite answer was required."""


class InvariantError(Exception):
    """An internal cross-check failed: a bug in graphfib, not bad input."""


def check_json_object(obj, kind, known):
    """Raise ``ValueError`` unless ``obj`` is a JSON object with no key outside ``known``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} JSON must be an object")
    unknown = set(obj) - set(known)
    if unknown:
        raise ValueError(f"{kind} JSON has unknown keys {sorted(unknown)}; known keys are {sorted(known)}")
