"""Shared exception types, and the one key check every JSON object reader makes.

Bad input raises ``ValueError`` (``OSError`` for a file that cannot be read);
the command line gives exit 2 for those two exceptions and for no other."""


class CapacityError(Exception):
    """A configured resource bound (vertex count, partition size, ...) was exceeded."""


class IndeterminateError(Exception):
    """A tri-state membership query returned Unknown where a definite answer was required."""


class InvariantError(Exception):
    """An internal cross-check failed: a bug in graphfib, not bad input."""


def check_json_object(obj, kind, required, optional=()):
    """The values of the ``required`` keys of the JSON object ``obj``, in order.

    Raises ``ValueError`` naming ``kind`` if ``obj`` is not an object, if it
    has a key outside ``required`` and ``optional``, or if a required key is
    missing (the first one is named).  Optional keys are read by the caller.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} JSON must be an object")
    known = (*required, *optional)
    unknown = set(obj) - set(known)
    if unknown:
        raise ValueError(f"{kind} JSON has unknown keys {sorted(unknown)}; known keys are {sorted(known)}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{kind} JSON missing key {key!r}")
    return tuple(obj[key] for key in required)
