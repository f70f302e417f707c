"""Oracles and helpers the tests use and graphfib itself never calls.

Each lists or re-derives, by a route of its own, what a tested function
computes.  They import public graphfib names only.
"""

from collections import Counter
from itertools import permutations, product

from graphfib.diagrams import BilabelledGraph
from graphfib.errors import CapacityError
from graphfib.fibrations import closure_graphs
from graphfib.freeprod import Membership
from graphfib.graphs import (
    CANONICAL_VERTEX_BOUND,
    Graph,
    canonical_form,
    edgeless,
    enumerate_homomorphisms,
    kernel,
    mask_edges,
    mask_of,
)
from graphfib.repspaces import PermutationGroup, build_That_H
from graphfib.tensors import compose, law_report, tally, tensor_product, zero_tensor

# ---------------------------------------------------------------------------
# graphs


def shifted_union(k, h):
    """``k`` beside ``h``, the vertices of ``h`` renamed ``k.n`` on: the
    disjoint union written out, the oracle for gluing along no pairs."""
    return Graph(k.n + h.n, set(k.edges) | {(u + k.n, v + k.n) for u, v in h.edges})


def explicit_f_union(k, h, f):
    """The glued union numbered by hand: ``k`` keeps its names, a matched
    vertex of ``h`` takes its partner's, and the unmatched ones follow in
    their own order.  The oracle for ``f_union``'s quotient construction."""
    partner = {v: u for u, v in f}
    map_h = []
    fresh = k.n
    for v in range(h.n):
        if v in partner:
            map_h.append(partner[v])
        else:
            map_h.append(fresh)
            fresh += 1
    edges = set(k.edges) | {(map_h[u], map_h[v]) for u, v in h.edges}
    return Graph(fresh, edges), tuple(range(k.n)), tuple(map_h)


def graph_to_json(g):
    """A graph as the ``closure`` listing wrote it from a :class:`Graph`:
    ``{"n": .., "edges": [[u, v], ..]}``, edges sorted with ``u <= v``."""
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def closure_pairs(fib):
    """The fibres :func:`closure_graphs` lists, each built as a :class:`Graph`, with their words."""
    return [(Graph(n, edges), words) for n, edges, words in closure_graphs(fib)]


def canonical_key(g):
    """The isomorphism-class key of ``g``: its canonical form without the relabelling."""
    return canonical_form(g)[0]


def canonical_graph(g):
    """The canonical representative of the isomorphism class of ``g``."""
    (n, mask), perm = canonical_form(g)
    return Graph(n, mask_edges(n, mask)), perm


def enumerate_graphs(n, loops=False):
    """All isomorphism-class representatives on ``n`` vertices, in canonical order.

    With ``loops=False`` only loopless graphs are produced.  Each returned
    graph equals its own canonical representative.  Deleting a vertex of a
    graph leaves one on ``n - 1`` vertices, so the classes are the canonical
    keys of each class on ``n - 1`` vertices extended by one vertex in every
    way: every set of neighbours, with or without a loop when ``loops``.
    """
    if n > CANONICAL_VERTEX_BOUND:
        raise CapacityError(
            f"graph enumeration supported up to {CANONICAL_VERTEX_BOUND} vertices, got {n}"
        )
    if n < 1:
        return [Graph(n)]
    keys = set()
    for h in enumerate_graphs(n - 1, loops):
        # bit u of ``sub`` joins vertex u to the new vertex n - 1; bit n - 1 is its loop
        for sub in range(1 << (n - 1 + loops)):
            new = {(u, n - 1) for u in range(n) if sub >> u & 1}
            keys.add(canonical_key(Graph(n, h.edges | new)))
    return [Graph(n, mask_edges(n, mask)) for n, mask in sorted(keys)]


def components_partition(n, pairs):
    """The connected components of ``0..n-1`` under ``pairs`` as a block-of
    tuple, blocks numbered in the order of their least members, by a
    depth-first search from every vertex."""
    adjacent = [set() for _ in range(n)]
    for u, v in pairs:
        adjacent[u].add(v)
        adjacent[v].add(u)
    least = []
    for v in range(n):
        seen, stack = {v}, [v]
        while stack:
            for w in adjacent[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        least.append(min(seen))
    order = sorted(set(least))
    return tuple(order.index(x) for x in least)


def brute_force_counts(g, d, injective):
    """Edge-keeping vertex maps of the diagram ``d`` into ``g`` (given
    ``injective``, the injective ones), counted by (output images, input
    images): every vertex map tried, in order."""
    counts = Counter()
    for phi in product(range(g.n), repeat=d.graph.n):
        if injective and len(set(phi)) < len(phi):
            continue
        if all(g.has_edge(phi[u], phi[v]) for u, v in d.graph.edges):
            counts[tuple(phi[v] for v in d.outputs), tuple(phi[v] for v in d.inputs)] += 1
    return counts


# ---------------------------------------------------------------------------
# words


def restart_racg_member(comm, word):
    """Membership of ``word`` in the right-angled Coxeter closure whose
    commuting letters are the ordered pairs ``comm``, by repeated deletion:
    find the first letter with an equal letter after it and only letters it
    commutes with between, delete the two, and start again from the front.
    The oracle for the one-scan ``racg`` verdict."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(w):
            x = w[i]
            j = i + 1
            blocked = False
            while j < len(w) and w[j] != x:
                if (x, w[j]) not in comm:
                    blocked = True
                    break
                j += 1
            if not blocked and j < len(w):
                del w[j]
                del w[i]
                changed = True
                break
            i += 1
    return Membership.YES if not w else Membership.NO


# ---------------------------------------------------------------------------
# diagrams


def brute_force_diagram_key(d):
    """The least (adjacency mask, relabeled inputs, relabeled outputs) over
    every vertex permutation, tried one by one: a key up to labelled
    isomorphism."""
    n = d.graph.n
    best = None
    for sigma in permutations(range(n)):
        cand = (
            mask_of(n, [(sigma[u], sigma[v]) for u, v in d.graph.edges]),
            tuple(sigma[v] for v in d.inputs),
            tuple(sigma[v] for v in d.outputs),
        )
        if best is None or cand < best:
            best = cand
    return (n,) + best


def equal_diagrams(d1, d2):
    """Are two diagrams equal up to labelled isomorphism?"""
    return brute_force_diagram_key(d1) == brute_force_diagram_key(d2)


# ---------------------------------------------------------------------------
# partitions


def partition_key(d):
    """What an edgeless diagram is as a partition, however its vertices are
    numbered: its row split, the blocks of its points numbered by first
    occurrence, and its block count, unlabelled vertices (empty blocks)
    included."""
    return d.k, kernel(d.inputs + d.outputs), d.graph.n


def explicit_partition_tensor(p, q):
    """Place ``q`` to the right of ``p``, block ids of ``q`` shifted past those of ``p``."""
    shift = p.graph.n
    upper = p.inputs + tuple(b + shift for b in q.inputs)
    lower = p.outputs + tuple(b + shift for b in q.outputs)
    return BilabelledGraph(edgeless(shift + q.graph.n), upper, lower)


def explicit_partition_compose(p, q):
    """``p . q`` with ``q`` acting first, by relabelling blocks: the blocks of
    ``q`` are ``0..q.graph.n-1`` and those of ``p`` follow, and each glued
    pair of points renames one block's label to the other's.  Middle blocks
    that lose all their points survive as empty blocks."""
    if q.l != p.k:
        raise ValueError(f"arity mismatch: {q.l} lower points glued to {p.k} upper points")
    shift = q.graph.n
    label = list(range(shift + p.graph.n))
    for i in range(p.k):
        old, new = label[shift + p.inputs[i]], label[q.outputs[i]]
        label = [new if x == old else x for x in label]
    label = kernel(label)
    upper = tuple(label[b] for b in q.inputs)
    lower = tuple(label[shift + b] for b in p.outputs)
    return BilabelledGraph(edgeless(max(label, default=-1) + 1), upper, lower)


def explicit_partition_involution(p):
    """Swap the two rows."""
    return BilabelledGraph(p.graph, p.outputs, p.inputs)


# ---------------------------------------------------------------------------
# fibrations


def greatest_subgraph(fib, g):
    """The largest spanning subgraph of ``g`` that is a fibre.

    A graph is a fibre when generator copies cover its edges, so the union of
    all generator images inside ``g`` is a fibre and contains every spanning
    fibre subgraph.
    """
    return Graph(
        g.n,
        (
            (phi[u], phi[v])
            for d in fib.generators
            for phi in enumerate_homomorphisms(d.graph, g, injective=not fib.easy)
            for u, v in d.graph.edges
        ),
    )


# ---------------------------------------------------------------------------
# tensors


def build_partition_T(n, p):
    """0/1 tensor of a two-row partition: 1 iff same-block points agree,
    each point with the first point of its block."""
    k, l = p.k, p.l
    points = p.inputs + p.outputs
    agreeing = (
        vals
        for vals in product(range(n), repeat=k + l)
        if all(vals[i] == vals[points.index(b)] for i, b in enumerate(points))
    )
    return tally(zero_tensor(n, k, l), agreeing, range(k), range(k, k + l))


# ---------------------------------------------------------------------------
# permutation groups


def act(sigma, points):
    return tuple(sigma[x] for x in points)


def closed_symmetric_group(n):
    """S_n closed coset by coset from the swap (0 1) and the n-cycle, which
    are made only when the constructor reads them, after it has checked
    ``n``: the oracle for ``symmetric_group``'s listing, refusals included."""

    def swap_and_cycle():
        if n >= 2:
            yield (1, 0) + tuple(range(2, n))
            yield tuple(range(1, n)) + (0,)

    return PermutationGroup(n, swap_and_cycle())


def signed_permutation_traces(n):
    """Traces of all 2^n n! signed permutation matrices, via explicit matrices."""
    traces = []
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            mat = [[0] * n for _ in range(n)]
            for i in range(n):
                mat[perm[i]][i] = signs[i]
            traces.append(sum(mat[i][i] for i in range(n)))
    return traces


def verify_repcat_tensor(group, a, b, c, d):
    """Product of two orbit tensors re-expands as a sum over translated pairs."""
    lhs = tensor_product(build_That_H(group, a, b), build_That_H(group, c, d))
    rhs = zero_tensor(group.degree, len(a) + len(c), len(b) + len(d))
    for eta in group.elements:
        tally(rhs, group.elements, tuple(a) + act(eta, c), tuple(b) + act(eta, d))
    return law_report("repcat-tensor", lhs, rhs)


def verify_repcat_compose(group, a, b, c, d):
    """Composite of two orbit tensors re-expands over elements matching the boundary."""
    if len(b) != len(c):
        raise ValueError("boundary tuples must have equal length")
    lhs = compose(build_That_H(group, c, d), build_That_H(group, a, b))
    rhs = zero_tensor(group.degree, len(a), len(d))
    for eta in group.elements:
        if act(eta, c) == tuple(b):
            tally(rhs, group.elements, a, act(eta, d))
    return law_report("repcat-compose", lhs, rhs)
