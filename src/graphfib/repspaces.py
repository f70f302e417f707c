"""Orbit bases and morphism-space dimensions for permutation groups.

For a permutation group ``H`` on ``n`` points, the tensors
``[That_H^{ab}]_{ji} = #{sigma in H : sigma(a) = i, sigma(b) = j}`` are
supported on the orbit of the pair ``(a, b)``; distinct orbits have disjoint
supports, so picking one tensor per orbit yields a basis.  Restricting to a
normal closure ``A`` of words keeps exactly the orbits whose word
``a + reverse(b)`` lies in ``A``.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import NamedTuple

from .errors import CapacityError, IndeterminateError, InvariantError
from .freeprod import Membership, check_invariance, member, reduce_word
from .graphs import automorphisms
from .partitions import ker
from .tensors import (
    IntTensor,
    build_partition_That,
    compare_tensors,
    compose,
    exact_rank,
    tensor_add,
    tensor_product,
    tensor_scale,
    zero_tensor,
)

DEFAULT_TUPLE_BOUND = 10**6


class PermutationGroup:
    """A permutation group given by its full element list.

    Group axioms (identity, closure, inverses) are verified at construction;
    elements are stored sorted, acting on ``0..degree-1``.
    """

    __slots__ = ("degree", "elements")

    def __init__(self, degree, elements):
        elems = {tuple(e) for e in elements}
        ident = tuple(range(degree))
        for e in elems:
            if len(e) != degree or sorted(e) != list(ident):
                raise ValueError(f"{e!r} is not a permutation of {degree} points")
        if ident not in elems:
            raise ValueError("identity permutation missing")
        for s in elems:
            inv = [0] * degree
            for i, si in enumerate(s):
                inv[si] = i
            if tuple(inv) not in elems:
                raise ValueError(f"inverse of {s!r} missing")
            for t in elems:
                if tuple(s[t[i]] for i in range(degree)) not in elems:
                    raise ValueError("element set is not closed under composition")
        self.degree = degree
        self.elements = tuple(sorted(elems))

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, order={len(self.elements)})"


def from_generators(degree, generators):
    """Close a generator list under composition."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in generators]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = tuple(g[s[i]] for i in range(degree))
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return PermutationGroup(degree, seen)


def symmetric_group(n):
    return PermutationGroup(n, permutations(range(n)))


def graph_automorphism_group(g):
    return PermutationGroup(g.n, automorphisms(g))


def act(sigma, points):
    return tuple(sigma[x] for x in points)


# ---------------------------------------------------------------------------
# orbits of label pairs


class OrbitClass(NamedTuple):
    a: tuple
    b: tuple
    size: int


def orbits(group, k, l, tuple_bound=DEFAULT_TUPLE_BOUND):
    """Orbits of ``H`` acting diagonally on pairs of label tuples.

    Listed by lexicographically least representative, which is also the
    stored representative.
    """
    n = group.degree
    if n ** (k + l) > tuple_bound:
        raise CapacityError(f"{n}^{k + l} label pairs exceed the bound {tuple_bound}")
    visited = set()
    out = []
    for combined in product(range(n), repeat=k + l):
        if combined in visited:
            continue
        orbit = {act(s, combined) for s in group.elements}
        visited |= orbit
        out.append(OrbitClass(combined[:k], combined[k:], len(orbit)))
    return out


def build_That_H(group, a, b):
    """Counts of group elements sending ``a`` to the column and ``b`` to the row index."""
    n = group.degree
    k, l = len(a), len(b)
    entries = [0] * (n ** (k + l))
    ncols = n**k
    for s in group.elements:
        col = 0
        for x in a:
            col = col * n + s[x]
        row = 0
        for x in b:
            row = row * n + s[x]
        entries[row * ncols + col] += 1
    return IntTensor(n, k, l, entries)


def burnside_dim(group, k, l):
    """Number of orbits on label pairs, by averaging fixed-point counts."""
    m = k + l
    total = sum(sum(1 for i, si in enumerate(s) if si == i) ** m for s in group.elements)
    order = len(group.elements)
    if total % order:
        raise InvariantError("orbit-count average must be an integer")
    return total // order


# ---------------------------------------------------------------------------
# bases


def basis_full(g, k, l, tuple_bound=DEFAULT_TUPLE_BOUND):
    """One tensor per automorphism orbit of label pairs of ``g``.

    The family is verified linearly independent by an exact rank computation;
    a mismatch would be an internal invariant failure, not bad input.
    """
    group = graph_automorphism_group(g)
    orbs = orbits(group, k, l, tuple_bound)
    tensors = [build_That_H(group, o.a, o.b) for o in orbs]
    rank = exact_rank([t.entries for t in tensors])
    if not rank == len(orbs) == burnside_dim(group, k, l):
        raise InvariantError("orbit tensors must be independent")
    return list(zip(orbs, tensors))


def pair_word(a, b):
    """The word ``a + reverse(b)`` tested for membership, reduced."""
    return reduce_word(tuple(a) + tuple(reversed(b)))


def semidirect_orbit_table(group, closure, k, l, tuple_bound=DEFAULT_TUPLE_BOUND):
    """Each orbit with the membership verdict of its pair word."""
    if closure.alphabet_size != group.degree:
        raise ValueError("closure alphabet must match the group degree")
    check_invariance(group.elements, closure)
    return [
        (o, member(pair_word(o.a, o.b), closure))
        for o in orbits(group, k, l, tuple_bound)
    ]


def basis_semidirect(group, closure, k, l, tuple_bound=DEFAULT_TUPLE_BOUND):
    """The orbit tensors whose pair word lies in the closure.

    Membership is well-defined on orbits because the closure is
    group-invariant (checked).  An unknown verdict cannot be silently
    dropped or kept; it raises.
    """
    out = []
    for o, verdict in semidirect_orbit_table(group, closure, k, l, tuple_bound):
        if verdict is Membership.UNKNOWN:
            raise IndeterminateError(
                f"membership of orbit ({o.a}, {o.b}) is unknown under the chosen strategy"
            )
        if verdict is Membership.YES:
            out.append((o, build_That_H(group, o.a, o.b)))
    return out


def dim_report(group, closure, k, l, tuple_bound=DEFAULT_TUPLE_BOUND):
    """Dimension of the morphism space with the per-orbit audit trail.

    With ``closure=None`` all orbits count.  An unknown orbit verdict makes
    the dimension indeterminate and raises.  The report carries two
    cross-checks computed from scratch: the exact rank of the accepted
    tensors (must equal the dimension) and the Burnside orbit count (must
    equal the table length).
    """
    if closure is None:
        table = [(o, Membership.YES) for o in orbits(group, k, l, tuple_bound)]
    else:
        table = semidirect_orbit_table(group, closure, k, l, tuple_bound)
    for o, verdict in table:
        if verdict is Membership.UNKNOWN:
            raise IndeterminateError(
                f"membership of orbit ({o.a}, {o.b}) is unknown under the chosen strategy"
            )
    kept = [o for o, verdict in table if verdict is Membership.YES]
    rank = exact_rank([build_That_H(group, o.a, o.b).entries for o in kept])
    if rank != len(kept):
        raise InvariantError("accepted orbit tensors must be independent")
    if len(table) != burnside_dim(group, k, l):
        raise InvariantError("orbit count must match the Burnside count")
    return {
        "k": k,
        "l": l,
        "dim": len(kept),
        "rank": rank,
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
    """Group order times the exact-pattern tensor equals the matching orbit sum."""
    n = group.degree
    k, l = p.k, p.l
    lhs = tensor_scale(build_partition_That(n, p), len(group.elements))
    rhs = zero_tensor(n, k, l)
    for a in product(range(n), repeat=k):
        for b in product(range(n), repeat=l):
            if ker(a, b) == p:
                rhs = tensor_add(rhs, build_That_H(group, a, b))
    diff = compare_tensors(lhs, rhs)
    return {"law": "thpart", "ok": diff is None, "first_diff": diff}


def verify_repcat_tensor(group, a, b, c, d):
    """Product of two orbit tensors re-expands as a sum over translated pairs."""
    lhs = tensor_product(build_That_H(group, a, b), build_That_H(group, c, d))
    rhs = zero_tensor(group.degree, len(a) + len(c), len(b) + len(d))
    for eta in group.elements:
        rhs = tensor_add(rhs, build_That_H(group, tuple(a) + act(eta, c), tuple(b) + act(eta, d)))
    diff = compare_tensors(lhs, rhs)
    return {"law": "repcat-tensor", "ok": diff is None, "first_diff": diff}


def verify_repcat_compose(group, a, b, c, d):
    """Composite of two orbit tensors re-expands over elements matching the boundary."""
    if len(b) != len(c):
        raise ValueError("boundary tuples must have equal length")
    lhs = compose(build_That_H(group, c, d), build_That_H(group, a, b))
    rhs = zero_tensor(group.degree, len(a), len(d))
    for eta in group.elements:
        if act(eta, c) == tuple(b):
            rhs = tensor_add(rhs, build_That_H(group, a, act(eta, d)))
    diff = compare_tensors(lhs, rhs)
    return {"law": "repcat-compose", "ok": diff is None, "first_diff": diff}
