"""Two-row set partitions: kernels of label words, enumeration, and the
value tuples with a given kernel.

A partition lives on ``k`` upper points ``0..k-1`` and ``l`` lower points
``k..k+l-1``.  It is the edgeless bilabelled graph with one vertex per
block and point ``i`` as label ``i`` of ``inputs + outputs`` (so its upper
points are what ``diagrams`` calls the lower row); a vertex no label names
is an empty block.  Every partition built here numbers its labels by
:func:`graphs.kernel`, its unlabelled vertices after them, so two partitions
are equal iff their diagrams are.  Its category operations are those of
``diagrams``, where composition can strand a block with no points.
"""

from __future__ import annotations

from itertools import permutations

from .diagrams import BilabelledGraph
from .errors import CapacityError, check_json_object
from .graphs import edgeless, kernel

PARTITION_POINT_BOUND = 10


def _partition(k, block_of, empty=0):
    """Point ``i`` in block ``block_of[i]``, the first ``k`` points upper, plus ``empty`` empty blocks."""
    labels = kernel(block_of)
    return BilabelledGraph(edgeless(max(labels, default=-1) + 1 + empty), labels[:k], labels[k:])


def from_blocks(k, l, blocks):
    """Build a partition from explicit blocks; empty lists make empty blocks."""
    block_of = {}
    for i, block in enumerate(blocks):
        for p in block:
            if not (0 <= p < k + l):
                raise ValueError(f"point {p} out of range")
            if p in block_of:
                raise ValueError(f"point {p} in two blocks")
            block_of[p] = i
    if len(block_of) != k + l:
        raise ValueError("blocks must cover every point")
    return _partition(k, [block_of[p] for p in range(k + l)], sum(not block for block in blocks))


def ker(a, b):
    """Coincidence pattern of two label tuples as a partition on len(a)+len(b) points."""
    return _partition(len(a), tuple(a) + tuple(b))


def kernel_tuples(n, p):
    """Every tuple of values in ``range(n)`` whose :func:`ker` is ``p``.

    Such a tuple gives each vertex of ``p`` its own value, so the tuples are
    the injective assignments of values to the vertices.  A partition with an
    unlabelled vertex, an empty block, is the kernel of no tuple.
    """
    points = p.inputs + p.outputs
    if len(set(points)) < p.graph.n:
        return
    for vals in permutations(range(n), p.graph.n):
        yield tuple(vals[v] for v in points)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_partitions(m):
    """All partitions of ``m`` points as block-of tuples (restricted growth
    strings), in lexicographic order."""
    if m > PARTITION_POINT_BOUND:
        raise CapacityError(f"partition enumeration capped at {PARTITION_POINT_BOUND} points, got {m}")
    if m == 0:
        return [()]
    out = []
    rgs = [0] * m

    def rec(i, mx):
        if i == m:
            out.append(tuple(rgs))
            return
        for v in range(mx + 2):
            rgs[i] = v
            rec(i + 1, max(mx, v))

    rec(1, 0)
    return out


def enumerate_set_partitions(k, l):
    """All partitions of ``k`` upper + ``l`` lower points (no empty blocks)."""
    return [_partition(k, rgs) for rgs in enumerate_partitions(k + l)]


# ---------------------------------------------------------------------------
# serialization


def partition_from_json(obj):
    k, l, blocks = check_json_object(obj, "partition", ("k", "l", "blocks"))
    if not all(type(x) is int and x >= 0 for x in (k, l)):
        raise ValueError("partition JSON fields 'k' and 'l' must be non-negative integers")
    if not isinstance(blocks, list) or not all(
        isinstance(b, list) and all(type(p) is int for p in b) for b in blocks
    ):
        raise ValueError("partition JSON blocks must be lists of integers")
    return from_blocks(k, l, blocks)
