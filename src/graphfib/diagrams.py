"""Bilabelled graphs and their category operations.

A bilabelled graph is a graph together with two tuples of vertex labels: the
``inputs`` (lower row, length ``k``) and ``outputs`` (upper row, length
``l``).  Labels may repeat and need not cover all vertices.  These objects
compose like linear maps: ``compose(d1, d2)`` glues the outputs of ``d2`` to
the inputs of ``d1``.  The edgeless diagrams are the set partitions of
``partitions``, a vertex per block and an unlabelled one per empty block, so
these operations are those of the partition category too.  Diagrams compare
literally; nothing here decides equality up to labelled isomorphism.
"""

from __future__ import annotations

from .errors import check_json_object
from .graphs import edgeless, f_union, glue, graph_from_json, kernel


class BilabelledGraph:
    __slots__ = ("graph", "inputs", "outputs")

    def __init__(self, graph, inputs=(), outputs=()):
        inputs = tuple(inputs)
        outputs = tuple(outputs)
        for v in inputs + outputs:
            if not (0 <= v < graph.n):
                raise ValueError(f"label {v} out of range for {graph.n} vertices")
        self.graph = graph
        self.inputs = inputs
        self.outputs = outputs

    @property
    def k(self):
        return len(self.inputs)

    @property
    def l(self):
        return len(self.outputs)

    def __eq__(self, other):
        """Literal equality, not equality up to labelled isomorphism."""
        return (
            isinstance(other, BilabelledGraph)
            and self.graph == other.graph
            and self.inputs == other.inputs
            and self.outputs == other.outputs
        )

    def __hash__(self):
        return hash((self.graph, self.inputs, self.outputs))

    def __repr__(self):
        return f"BilabelledGraph({self.graph!r}, {self.inputs}, {self.outputs})"


def m_diagram(k, l):
    """The single-vertex edgeless diagram whose labels all repeat that vertex;
    ``m_diagram(1, 1)`` is the identity."""
    return BilabelledGraph(edgeless(1), (0,) * k, (0,) * l)


# ---------------------------------------------------------------------------
# category operations


def tensor(d1, d2):
    """Side-by-side juxtaposition: the glued union over the empty overlap."""
    return bl_f_union(d1, d2, ())


def compose(d1, d2):
    """The composite ``d1 . d2``: outputs of ``d2`` glued to inputs of ``d1``.

    Requires ``d2.l == d1.k``.  The glued vertices are merged (which may
    create loops and collapse parallel edges), along boundary pairs that may
    repeat; the result keeps the inputs of ``d2`` and the outputs of ``d1``.
    """
    if d2.l != d1.k:
        raise ValueError(f"arity mismatch: {d2.l} outputs composed into {d1.k} inputs")
    return _composite(d1, d2, glue(d2.graph, d1.graph, zip(d2.outputs, d1.inputs)))


def _composite(d1, d2, glued):
    """The union ``glued`` of ``d2`` then ``d1``, with the inputs of ``d2`` and the outputs of ``d1``."""
    g, map2, map1 = glued
    return BilabelledGraph(g, tuple(map2[v] for v in d2.inputs), tuple(map1[v] for v in d1.outputs))


def involution(d):
    """Swap the two label rows."""
    return BilabelledGraph(d.graph, d.outputs, d.inputs)


def rotate_left(d):
    """Move the first input to the front of the outputs."""
    if d.k == 0:
        raise ValueError("rotate_left needs at least one input")
    return BilabelledGraph(d.graph, d.inputs[1:], (d.inputs[0],) + d.outputs)


def rotate_right(d):
    """Move the last output to the end of the inputs."""
    if d.l == 0:
        raise ValueError("rotate_right needs at least one output")
    return BilabelledGraph(d.graph, d.inputs + (d.outputs[-1],), d.outputs[:-1])


def bl_f_union(d1, d2, f):
    """Glued union along an overlap ``f`` between the two vertex sets.

    Labels are concatenated: inputs of ``d1`` then of ``d2``, same for
    outputs, all transported along the inclusion maps.
    """
    g, map1, map2 = f_union(d1.graph, d2.graph, f)
    return BilabelledGraph(
        g,
        tuple(map1[v] for v in d1.inputs) + tuple(map2[v] for v in d2.inputs),
        tuple(map1[v] for v in d1.outputs) + tuple(map2[v] for v in d2.outputs),
    )


def required_composition_pairs(d1, d2):
    """The overlap pairs forced by composing ``d1`` after ``d2``.

    Pair ``i`` identifies ``d2.outputs[i]`` with ``d1.inputs[i]``.  The set of
    pairs is a valid partial injection iff the two label tuples have equal
    kernels (same coincidence pattern); otherwise a ValueError is raised.
    """
    if d2.l != d1.k:
        raise ValueError(f"arity mismatch: {d2.l} outputs composed into {d1.k} inputs")
    if kernel(d1.inputs) != kernel(d2.outputs):
        raise ValueError("boundary label tuples have different kernels")
    return tuple(sorted(set(zip(d2.outputs, d1.inputs))))


def bl_f_compose(d1, d2, f):
    """Glued composition ``d1 ._f d2`` along an overlap extending the forced pairs."""
    required = required_composition_pairs(d1, d2)
    f = tuple(f)
    if not set(required) <= set(f):
        raise ValueError("overlap must contain every forced boundary pair")
    return _composite(d1, d2, f_union(d2.graph, d1.graph, f))


# ---------------------------------------------------------------------------
# serialization


def diagram_from_json(obj):
    graph, inputs, outputs = check_json_object(obj, "diagram", ("graph", "inputs", "outputs"))
    graph = graph_from_json(graph)
    for labels in (inputs, outputs):
        if not isinstance(labels, list) or not all(type(v) is int for v in labels):
            raise ValueError("diagram JSON labels must be lists of integers")
    return BilabelledGraph(graph, tuple(inputs), tuple(outputs))
