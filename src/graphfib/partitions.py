"""Two-row set partitions: kernels of label words, enumeration, and the
value tuples with a given kernel.

A partition lives on ``k`` upper points ``0..k-1`` and ``l`` lower points
``k..k+l-1``.  Blocks carry no identity beyond their members, but a partition
may own *empty* blocks.  A partition is the edgeless bilabelled graph with
one vertex per block, and its category operations are those of
``diagrams`` on such graphs; composition can strand a block with no
boundary points left, an unlabelled vertex, which is an empty block.
"""

from __future__ import annotations

from itertools import permutations

from .errors import CapacityError, check_json_object
from .graphs import kernel

PARTITION_POINT_BOUND = 10


class SetPartition:
    """A partition of ``k + l`` points, stored with canonical block ids.

    Occupied blocks are numbered by first occurrence along the point order;
    empty blocks (if any) take the remaining ids.  Two partitions are equal
    iff they group the points identically and own the same number of empty
    blocks.
    """

    __slots__ = ("k", "l", "block_of", "num_blocks")

    def __init__(self, k, l, block_of, num_blocks=None):
        block_of = kernel(block_of)
        if len(block_of) != k + l:
            raise ValueError(f"expected {k + l} point assignments, got {len(block_of)}")
        used = max(block_of, default=-1) + 1
        if num_blocks is None:
            num_blocks = used
        if num_blocks < used:
            raise ValueError("num_blocks smaller than the number of occupied blocks")
        self.k = k
        self.l = l
        self.block_of = block_of
        self.num_blocks = num_blocks

    @property
    def num_empty_blocks(self):
        return self.num_blocks - max(self.block_of, default=-1) - 1

    def blocks(self):
        """Blocks as tuples of point indices; empty blocks trail."""
        out = [[] for _ in range(self.num_blocks)]
        for point, b in enumerate(self.block_of):
            out[b].append(point)
        return tuple(tuple(b) for b in out)

    def __eq__(self, other):
        return (
            isinstance(other, SetPartition)
            and self.k == other.k
            and self.l == other.l
            and self.block_of == other.block_of
            and self.num_blocks == other.num_blocks
        )

    def __hash__(self):
        return hash((self.k, self.l, self.block_of, self.num_blocks))

    def __repr__(self):
        return f"SetPartition({self.k}, {self.l}, {self.block_of}, num_blocks={self.num_blocks})"


def from_blocks(k, l, blocks):
    """Build a partition from explicit blocks; empty lists make empty blocks."""
    block_of = {}
    empty = 0
    for i, block in enumerate(blocks):
        if not block:
            empty += 1
            continue
        for p in block:
            if not (0 <= p < k + l):
                raise ValueError(f"point {p} out of range")
            if p in block_of:
                raise ValueError(f"point {p} in two blocks")
            block_of[p] = i
    if len(block_of) != k + l:
        raise ValueError("blocks must cover every point")
    occupied = len({b for b in block_of.values()})
    return SetPartition(k, l, [block_of[p] for p in range(k + l)], occupied + empty)


def ker(a, b):
    """Coincidence pattern of two label tuples as a partition on len(a)+len(b) points."""
    return SetPartition(len(a), len(b), tuple(a) + tuple(b))


def kernel_tuples(n, p):
    """Every tuple of values in ``range(n)`` whose :func:`ker` is ``p``.

    Such a tuple gives each block of ``p`` its own value, so the tuples are
    the injective assignments of values to the blocks.  A partition that
    owns an empty block is the kernel of no tuple.
    """
    if p.num_empty_blocks:
        return
    for vals in permutations(range(n), p.num_blocks):
        yield tuple(vals[b] for b in p.block_of)


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
    return [SetPartition(k, l, rgs) for rgs in enumerate_partitions(k + l)]


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
