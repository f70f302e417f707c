"""Orbit bases and morphism-space dimensions for permutation groups.

For a permutation group ``H`` on ``n`` points, the tensors
``[That_H^{ab}]_{ji} = #{sigma in H : sigma(a) = i, sigma(b) = j}`` are
nonzero exactly on the orbit of the pair ``(a, b)``; distinct orbits have
disjoint supports, so picking one tensor per orbit yields a basis.  Restricting
to a normal closure ``A`` of words keeps exactly the orbits whose word
``a + reverse(b)`` lies in ``A``.  ``orbits`` lists the orbits and checks their
number against Burnside's count; ``orbit_basis`` assembles the basis and
certifies that its representatives are least in their orbits and increasing,
so no two share an orbit; ``dim_report`` formats it.

One function closes every group given by generators or by elements, coset
by coset, reading its input to the end; S_n is listed instead, and the kept
generators of Aut(g) are replayed through it from its elements on their
first read.  The closure's invariance is checked on the generators only: a
letter map is an automorphism of the free product, so if each generator
maps ``A`` into itself, so does every product of generators.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, filterfalse, permutations, product, repeat
from math import perm
from operator import eq, itemgetter, lt, mul

from .errors import CapacityError, IndeterminateError, InvariantError, check_json_object
from .freeprod import Membership, check_invariance, decide, reduce_word
from .graphs import automorphism_generators, graph_from_json
from .partitions import kernel_tuples
from .tensors import (
    build_partition_That,
    law_report,
    power_exceeds,
    tally,
    tensor_scale,
    zero_tensor,
)

DEFAULT_TUPLE_BOUND = 10**6
GROUP_POINT_BOUND = 10**6
THPART_TALLY_BOUND = 10**7  # group elements times kernel tuples one ``thpart`` check tallies


class PermutationGroup:
    """The group of permutations of ``0..degree-1`` generated by ``generators``,
    closed by :func:`_close`, with its elements sorted and the generators it
    kept.  A group listed instead, as Aut(g) is, replays that closure over its
    sorted elements when its generators are first read."""

    __slots__ = ("degree", "_generators", "elements")

    def __init__(self, degree, generators):
        # each generator is checked before it is looked up
        elements, self._generators = _close(degree, map(_permutation, generators, repeat(degree)))
        self.degree, self.elements = degree, tuple(sorted(elements))

    @classmethod
    def _listed(cls, degree, elements, generators=None):
        """The group with these sorted ``elements``, not closed again, keeping
        ``generators``; with none, they are replayed when first read."""
        self = cls.__new__(cls)
        self.degree, self.elements, self._generators = degree, elements, generators
        return self

    @property
    def generators(self):
        """The kept generators: for a group built without them, those
        :func:`_close` keeps from its sorted elements, found on the first read."""
        if self._generators is None:
            self._generators = _close(self.degree, self.elements)[1]
        return self._generators

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, order={len(self.elements)})"


def _close(degree, generators):
    """Dimino's closure: the set of elements ``generators`` generate and the
    tuple of those kept, each outside the group of those kept before it (so
    at most log2 of the order) and checked to be a permutation; seen ones are
    skipped in C.  The group grows by whole right cosets, each checked against
    ``GROUP_POINT_BOUND`` before it is stored, so a lazy ``generators`` is
    read to its end or to the bound, no further."""
    _check_degree(degree)
    _check_room(degree, 1)
    points = list(range(degree))
    ident = tuple(points)
    seen = {ident}
    kept = []
    moves = []  # right multiplication by each kept generator: s -> s o h
    for g in filterfalse(seen.__contains__, generators):
        if sorted(g) != points:
            raise ValueError(f"{g!r} is not a permutation of {degree} points")
        kept.append(g)
        moves.append(itemgetter(*g))  # a kept generator moves two points or more, so this gives tuples
        base = list(seen)
        reps = [ident]  # one element of each coset ``base o r``
        for r in reps:  # the list grows while it is read: r o s not yet seen starts a coset
            for move in moves:
                t = move(r)
                if t not in seen:
                    _check_room(degree, len(seen) + len(base))
                    seen.update(map(itemgetter(*t), base))
                    reps.append(t)
    return seen, tuple(kept)


def _check_degree(degree):
    if type(degree) is not int or degree < 0:
        raise ValueError(f"group degree must be a non-negative integer, got {degree!r}")


def _check_room(degree, order):
    """Refuse a group whose ``order`` times ``degree`` points pass ``GROUP_POINT_BOUND``."""
    if order * degree > GROUP_POINT_BOUND:
        raise CapacityError(f"group of degree {degree}: order times degree exceeds the bound {GROUP_POINT_BOUND}")


def _permutation(g, degree):
    """``g`` as a tuple, else a ``ValueError`` naming it unless its entries
    are integers.  Callers check this before sorting ``g``, since sorting
    mixed types fails without naming it, and before looking it up, since
    ``(0.0, 1.0)`` and ``(False, True)`` equal ``(0, 1)``."""
    g = tuple(g)
    if not set(map(type, g)) <= {int}:
        raise ValueError(f"{g!r} is not a permutation of {degree} points")
    return g


def group_from_elements(degree, elements):
    """The group whose elements are exactly ``elements``, else ``ValueError``.
    The list is closed to its end; each element lies in the group the list
    generates, so the two are equal when their sizes are."""
    elems = sorted({_permutation(e, degree) for e in elements})
    closed, kept = _close(degree, elems)
    if len(closed) != len(elems):
        raise ValueError("element list is not a permutation group")
    return PermutationGroup._listed(degree, tuple(elems), kept)


def symmetric_group(n):
    """S_n, listed, not closed: its elements are the permutations of ``range(n)``
    in lexicographic order, which is sorted.  ``n`` is checked as the constructor
    checks a degree, and each order 1, 2, 6, .., n! against the point bound, so no
    factorial past it is formed.  The generators are those the closure from the
    swap (0 1) and the n-cycle keeps: at n = 2 the n-cycle is the swap."""
    _check_degree(n)
    for order in accumulate(range(1, n + 1), mul):
        _check_room(n, order)
    swap_and_cycle = ((1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,))
    return PermutationGroup._listed(n, tuple(permutations(range(n))), swap_and_cycle[: (n >= 2) + (n >= 3)])


def graph_automorphism_group(g):
    """Aut(g), closed from the generators of its stabiliser chain as the search
    finds them, so a group above the point bound stops before the chain is
    complete.  Its kept generators, read only by ``check_invariance``, are
    replayed from its sorted elements on their first read: that keeps the
    generators a greedy pass over the automorphisms in order keeps."""
    return PermutationGroup._listed(g.n, PermutationGroup(g.n, automorphism_generators(g)).elements)


def group_from_json(obj):
    """A group given by ``degree`` with its ``elements``, as the automorphisms
    of a graph, or as a symmetric group."""
    if isinstance(obj, dict) and "elements" in obj:
        degree, elements = check_json_object(obj, "group", ("degree", "elements"))
        if not isinstance(elements, list) or not all(isinstance(e, list) for e in elements):
            raise ValueError("group JSON field 'elements' must be a list of permutations")
        return group_from_elements(degree, elements)
    if isinstance(obj, dict) and list(obj) == ["automorphisms_of"]:
        return graph_automorphism_group(graph_from_json(obj["automorphisms_of"]))
    if isinstance(obj, dict) and list(obj) == ["symmetric"]:
        return symmetric_group(obj["symmetric"])
    raise ValueError("group JSON needs 'degree' with 'elements', or 'automorphisms_of' or 'symmetric' alone")


# ---------------------------------------------------------------------------
# orbits of label pairs


OrbitClass = namedtuple("OrbitClass", ("a", "b", "size"))


def orbits(group, k, l, tuple_bound=DEFAULT_TUPLE_BOUND):
    """Orbits of ``H`` acting diagonally on pairs of label tuples.

    Listed by lexicographically least representative, which is also the
    stored representative.  A tuple ``t`` is least in its orbit exactly when
    each ``t[i]`` is least in its orbit under the stabiliser of ``t[:i]``,
    so a depth-first descent through point stabilisers (Butler 1991) lists
    the representatives in order.  An orbit's size is ``|H|`` over the order
    of its representative's stabiliser; once the stabiliser is trivial,
    every extension is its own orbit of size ``|H|``.  A count other than
    :func:`burnside_dim`'s raises ``InvariantError``.
    """
    n, m, order = group.degree, k + l, len(group.elements)
    if power_exceeds(n, m, tuple_bound):
        raise CapacityError(f"{n}^{m} label pairs exceed the bound {tuple_bound}")
    if m > tuple_bound:  # on 0 or 1 points the pairs are few, but each has k + l entries
        raise CapacityError(f"{m} labels exceed the bound {tuple_bound}")
    out = []
    stack = [((), group.elements)]  # a prefix and its stabiliser; an explicit stack, as labels may be many
    while stack:
        prefix, stab = stack.pop()
        if len(prefix) == m or len(stab) == 1:
            for rest in product(range(n), repeat=m - len(prefix)):
                t = prefix + rest
                out.append(OrbitClass(t[:k], t[k:], order // len(stab)))
            continue
        reached = set()
        children = []
        for x in range(n):
            if x not in reached:  # least in its orbit under ``stab``
                reached.update(s[x] for s in stab)
                children.append((prefix + (x,), [s for s in stab if s[x] == x]))
        stack += reversed(children)  # the least point is taken first
    if len(out) != burnside_dim(group, k, l):
        raise InvariantError("orbit count must match the Burnside count")
    return out


def build_That_H(group, a, b):
    """Counts of group elements sending ``a`` to the column and ``b`` to the row index."""
    return tally(zero_tensor(group.degree, len(a), len(b)), group.elements, a, b)


def burnside_dim(group, k, l):
    """Number of orbits on label pairs, by averaging fixed-point counts."""
    m, points = k + l, range(group.degree)
    total = sum(sum(map(eq, s, points)) ** m for s in group.elements)
    order = len(group.elements)
    if total % order:
        raise InvariantError("orbit-count average must be an integer")
    return total // order


# ---------------------------------------------------------------------------
# bases


def pair_word(a, b):
    """The word ``a + reverse(b)`` tested for membership, reduced."""
    return reduce_word(tuple(a) + tuple(reversed(b)))


def orbit_basis(group, closure, k, l, tuple_bound=DEFAULT_TUPLE_BOUND):
    """The orbit table and its YES orbits, a basis of the tensors :func:`build_That_H` builds for them.

    With ``closure=None`` every orbit is accepted.  Otherwise the closure's
    alphabet must be the group's points, and membership is well-defined on
    orbits because the closure is group-invariant (checked).  Each pair word
    is over the points, so :func:`decide` takes it unchecked.  An unknown
    verdict can be neither dropped nor kept, so it raises before the basis is
    certified.  The certificate reads every element, so it does not rest on
    the stabiliser descent in :func:`orbits`: each representative ``a + b``
    must be the least of its images under the group, read from the element
    columns, and the representatives must increase.  Then no two share an
    orbit, and each tensor is nonzero exactly on its orbit, as the identity is
    in the group, so the tensors have disjoint nonzero supports and are
    independent (their rank is the basis length).  No tensor is built.
    """
    if closure is None:
        table = [(o, Membership.YES) for o in orbits(group, k, l, tuple_bound)]
    else:
        if closure.alphabet_size != group.degree:
            raise ValueError("closure alphabet must match the group degree")
        check_invariance(group.generators, closure)
        table = [(o, decide(pair_word(o.a, o.b), closure)) for o in orbits(group, k, l, tuple_bound)]
    for o, verdict in table:
        if verdict is Membership.UNKNOWN:
            raise IndeterminateError(
                f"membership of orbit ({o.a}, {o.b}) is unknown under the chosen strategy"
            )
    basis = [o for o, verdict in table if verdict is Membership.YES]
    reps = [o.a + o.b for o in basis]
    if not all(map(lt, reps, reps[1:])):
        raise InvariantError("accepted orbits must be listed once each, by increasing representative")
    columns = list(zip(*group.elements))  # ``columns[x]``: the image of ``x`` under each element
    for t in reps:
        if min(zip(*map(columns.__getitem__, t)), default=()) != t:
            raise InvariantError(f"{t} is not the least label tuple of its orbit")
    return table, basis


def dim_report(group, closure, k, l, tuple_bound=DEFAULT_TUPLE_BOUND):
    """Dimension of the morphism space with the per-orbit audit trail of
    ``orbit_basis``, whose cross-checks it has passed."""
    table, basis = orbit_basis(group, closure, k, l, tuple_bound)
    return {
        "k": k,
        "l": l,
        "dim": len(basis),
        "rank": len(basis),
        "burnside": len(table),
        "orbits": [
            {
                "a": list(o.a),
                "b": list(o.b),
                "size": o.size,
                "accepted": verdict is Membership.YES,
            }
            for o, verdict in table
        ],
    }


# ---------------------------------------------------------------------------
# identity verifiers


def verify_THpart(group, p):
    """Group order times the exact-pattern tensor equals the matching orbit sum.

    The sum tallies every element for every tuple with kernel ``p``: the
    injective values on its vertices, none if one is unlabelled.  So the
    elements times the tuples are checked against ``THPART_TALLY_BOUND`` first.
    """
    n = group.degree
    k, l = p.k, p.l
    labelled = len(set(p.inputs + p.outputs)) == p.graph.n
    tallies = len(group.elements) * (perm(n, p.graph.n) if labelled else 0)
    if tallies > THPART_TALLY_BOUND:
        raise CapacityError(
            f"thpart check tallies {tallies} element-tuple pairs, above the bound {THPART_TALLY_BOUND}"
        )
    lhs = tensor_scale(build_partition_That(n, p), len(group.elements))
    rhs = zero_tensor(n, k, l)
    for vals in kernel_tuples(n, p):
        tally(rhs, group.elements, vals[:k], vals[k:])
    return law_report("thpart", lhs, rhs)

