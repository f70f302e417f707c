"""Finite graphs with loops: quotients, glued unions, homomorphisms and exact
canonical forms.

One constraint set-up, ``_constraints``, and one backtracking search,
``_walk``, serve every homomorphism query: ``_search`` lists its maps (plain,
injective, and the pinned first hits that find generators of the
automorphism group) and ``_count`` adds them into a tensor without building
any.  The search keeps a vertex's untried images as one integer bitmask,
the AND of its candidates and the host rows of its placed neighbours'
images, and places the second-to-last vertex in an inner loop of its own.
A host keeps a record of its neighbour lists, loops and rows; past
``EAGER_ROWS_BOUND`` vertices, a row is built when a search first reads it.
``glue`` merges pairs of vertices of two graphs into one graph; ``f_union``
glues along a partial injection and ``disjoint_union`` along none.
Adjacency masks number their cells in one table, ``cell_bits``; the
relabelled masks of a graph come from one packed column per cell,
``_relabel_columns``.  ``canonical_form`` takes their least and the
first permutation reaching it; ``mask_orbit`` returns them all, from which
the closure of a fibration files a labelled isomorphism class at once.

Vertices of an ``n``-vertex graph are always ``0..n-1``.  Edges are unordered
pairs stored as ``(u, v)`` tuples with ``u <= v``; a pair ``(v, v)`` is a loop.
There are no edge multiplicities: merging parallel edges is implicit in the
set representation.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, compress, count, islice, permutations
from math import factorial
from struct import calcsize

from .errors import CapacityError, check_json_object

# Canonical forms are computed by minimising over all vertex permutations,
# so they are only offered up to this many vertices.
CANONICAL_VERTEX_BOUND = 8
# Graphs read from JSON have at most this many vertices: the searches and
# tables allocate per vertex before any other bound is consulted.
GRAPH_VERTEX_BOUND = 10**6
# The overlaps of two graphs are listed only up to this many.
OVERLAP_BOUND = 10**6
# A host of at most this many vertices gets all its bitmask rows at once,
# each a word or two.  A larger one builds a row only when a search first
# reads it: all the rows of a sparse n-vertex host take up to n * n / 16 bytes.
EAGER_ROWS_BOUND = 64
# The rows built on first read are kept until they would take more than
# this many bits (32 MiB), and are then all dropped: a row costs no more to
# build again than the search spends reading it.
ROW_BITS_BOUND = 1 << 28
# Summing out a vertex of degree two walks, for each of its images, every
# pair of its two neighbours' images: a table is refused past this many.
SUM_OUT_PAIR_BOUND = 2 * 10**6


class Graph:
    """An undirected graph on vertices ``0..n-1``, loops allowed."""

    __slots__ = ("n", "edges", "_host")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        norm = set()
        for e in edges:
            u, v = e
            if u > v:
                u, v = v, u
            if u < 0 or v >= n:
                raise ValueError(f"edge {e!r} out of range for {n} vertices")
            norm.add((u, v))
        self.n = n
        self.edges = frozenset(norm)
        self._host = None  # the search record of _host, built on the first search into this graph at any size

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph({self.n}, {sorted(self.edges)})"

    def has_edge(self, u, v):
        return ((u, v) if u <= v else (v, u)) in self.edges


# ---------------------------------------------------------------------------
# constructors


def edgeless(n):
    return Graph(n, ())


def complete(n):
    return Graph(n, combinations(range(n), 2))


def path(n):
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def add_loops_everywhere(g):
    return Graph(g.n, set(g.edges) | {(v, v) for v in range(g.n)})


def disjoint_union(k, h):
    return glue(k, h, ())[0]


# ---------------------------------------------------------------------------
# partitions of the vertex set, quotients, glued unions


def kernel(values):
    """``values`` renamed by first occurrence: the first distinct value
    becomes 0, the next 1, and so on.  Such a block-of tuple, its blocks
    numbered by least member, is the one form every partition takes here.
    """
    seen = {}
    return tuple(seen.setdefault(v, len(seen)) for v in values)


def generated_partition(n, pairs):
    """Finest partition of ``0..n-1`` in which each given pair is merged, as
    its block-of tuple."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    fresh = count()
    block_of = []
    for x, p in enumerate(parent):  # p is x at its block's least member, else a lesser member, numbered already
        block_of.append(next(fresh) if p == x else block_of[p])
    return tuple(block_of)


def quotient(g, block_of):
    """Merge the vertices of each block: vertex ``v`` becomes ``block_of[v]``.

    ``block_of`` is a block-of tuple such as :func:`generated_partition`
    returns, so the blocks are ``0..max(block_of)``.  An edge joining two
    vertices of one block becomes a loop; parallel images collapse.
    """
    return Graph(max(block_of, default=-1) + 1, ((block_of[u], block_of[v]) for u, v in g.edges))


def glue(k, h, pairs):
    """The disjoint union of ``k`` and ``h`` with vertex ``u`` of ``k`` merged with
    vertex ``v`` of ``h`` for each pair ``(u, v)``; pairs may repeat or share a
    vertex.  Returns ``(graph, map_k, map_h)``, the merged classes numbered by
    least member.  An edge whose ends merge becomes a loop."""
    block_of = generated_partition(k.n + h.n, ((u, k.n + v) for u, v in pairs))
    bk, bh = block_of[:k.n], block_of[k.n:]
    edges = chain(((bk[u], bk[v]) for u, v in k.edges), ((bh[u], bh[v]) for u, v in h.edges))
    return Graph(max(block_of, default=-1) + 1, edges), bk, bh


def f_union(k, h, f):
    """Glue two graphs along a partial injective vertex correspondence.

    ``f`` is an iterable of pairs ``(u, v)`` meaning vertex ``u`` of ``k`` is
    identified with vertex ``v`` of ``h``; it must be injective in both
    coordinates.  Returns :func:`glue`'s ``(graph, map_k, map_h)``.  The result
    has ``k.n + h.n - len(f)`` vertices and never gains a loop that neither
    side had.
    """
    f = tuple(f)
    ks = [u for u, _ in f]
    hs = [v for _, v in f]
    if len(set(ks)) != len(f) or len(set(hs)) != len(f):
        raise ValueError("overlap must be injective in both coordinates")
    for u, v in f:
        if not (0 <= u < k.n and 0 <= v < h.n):
            raise ValueError("overlap pair out of range")
    return glue(k, h, f)


def enumerate_overlaps(nk, nh):
    """All partial injective correspondences between ``0..nk-1`` and ``0..nh-1``.

    Deterministic order: by size, then by the sorted left support, then by the
    right images.  The empty overlap comes first.  There are
    ``sum(comb(nk, s) * perm(nh, s))`` of them, counted one size at a time
    before any is listed; past ``OVERLAP_BOUND`` they are refused.
    """
    term = total = 1  # the overlaps of one size, and of every size so far
    for size in range(min(nk, nh)):
        term = term * (nk - size) * (nh - size) // (size + 1)
        total += term
        if total > OVERLAP_BOUND:
            raise CapacityError(
                f"{nk}- and {nh}-vertex graphs have more than {OVERLAP_BOUND} overlaps"
            )
    out = []
    for size in range(min(nk, nh) + 1):
        for left in combinations(range(nk), size):
            for right in permutations(range(nh), size):
                out.append(tuple(zip(left, right)))
    return out


# ---------------------------------------------------------------------------
# homomorphisms


class _Rows(dict):
    """The bitmask rows of a relation on the images of a large host, each
    built when first read and kept up to ``ROW_BITS_BOUND`` bits in all:
    ``rows[c]`` has bit ``x`` set for each image ``x`` in the list
    ``adj[c]``."""

    __slots__ = ("adj",)

    def __missing__(self, c):
        if len(self) * len(self.adj) >= ROW_BITS_BOUND:
            self.clear()
        row = self[c] = _mask(self.adj[c])
        return row


def _mask(images):
    """The bitmask of ``images``."""
    m = 0
    for c in images:
        m |= 1 << c
    return m


def _rows(adj):
    """The bitmask rows of the neighbour lists ``adj``: a list up to
    ``EAGER_ROWS_BOUND`` images, else a :class:`_Rows` reading ``adj``."""
    if len(adj) <= EAGER_ROWS_BOUND:
        return list(map(_mask, adj))
    rows = _Rows()
    rows.adj = adj
    return rows


def _walk(image, order, candidates, checks, injective=False, coef=None):
    """The one backtracking search.  It places every vertex in ``order`` but
    the last and, for each placing, hands over the images left to the last
    and, given ``coef``, the flat index: ``coef[u] * image[u]`` summed over
    the vertices placed.

    The vertices in ``order`` take images in turn; ``image`` holds the
    images of the others, and the search writes into it.  A vertex ``v``
    with checks takes the images in the bitmask ``candidates[v]`` (``-1``
    for every image) that are also in ``rows[image[u]]`` for each
    ``(u, rows)`` in ``checks[v]``, ``u`` a vertex earlier in ``order`` or
    outside it; ``rows`` maps an image to the bitmask of images it allows.
    A vertex without checks walks the list ``candidates[v]``: on a large
    host, each bit taken from a mask of every image would cost a pass over
    the whole mask.  Given ``injective``, no two vertices in ``order``
    share an image, but the last vertex's list comes whole.  A mask hands
    over its lowest bit first and a list its images in turn, so with lists
    in increasing order the placings come in lexicographic order; a
    consumer may stop at any of them.
    The second-to-last vertex takes its images in an inner loop of its own,
    with no level to leave and enter again for each; the stream handed over
    is the same as a level for it would give.
    """
    *above, last = order
    final, ends = candidates[last], checks[last]
    if not above:  # no caller checks a lone vertex, so ``ends`` is empty
        yield final, 0
        return
    top = len(above) - 1  # the level of the inner loop
    a, drop = coef[above[-1]] if coef else 0, injective and ends  # drop: the last vertex skips the images placed
    untried = [0] * top  # per level above the inner loop: a bitmask, or an iterator over a list
    index = [0] * (top + 1)  # given coef: per level, the flat index of the vertices placed above
    used = 0  # given injective: the bits of the images placed so far
    i = 0
    while True:
        # enter level i: the images left to its vertex by the levels above
        v = order[i]
        rels, m = checks[v], candidates[v]
        if rels:
            for u, rows in rels:
                m &= rows[image[u]]
            if injective:
                m &= ~used
        if i == top:  # the inner loop: each image c of v hands over the images left to the last vertex
            at = index[i]
            if rels:
                while m:
                    low = m & -m
                    m ^= low
                    image[v] = c = low.bit_length() - 1
                    x = final
                    for u, rows in ends:
                        x &= rows[image[u]]
                    if drop:
                        x &= ~(used | low)
                    yield x, at + a * c
            else:
                for c in m:
                    if not (injective and used >> c & 1):
                        image[v] = c
                        x = final
                        for u, rows in ends:
                            x &= rows[image[u]]
                        if drop:
                            x &= ~(used | 1 << c)
                        yield x, at + a * c
            rels, m = True, 0  # no image left to take here: back up
        elif not rels:
            m = iter(m)
        # take the next image at level i, backing up past the levels with none left
        while True:
            if rels:
                if m:
                    low = m & -m
                    m ^= low
                    c = low.bit_length() - 1
                    break
            else:
                for c in m:
                    if not (injective and used >> c & 1):
                        break
                else:
                    c = -1
                if c >= 0:
                    break
            if not i:
                return
            i -= 1
            if injective:
                used ^= 1 << image[order[i]]
            v = order[i]
            rels, m = checks[v], untried[i]
        untried[i] = m
        image[v] = c
        if injective:
            used |= 1 << c
        i += 1
        if coef:
            index[i] = index[i - 1] + coef[v] * c


def _bits(m):
    """The set bits of the bitmask ``m``, lowest first."""
    while m:
        low = m & -m
        m ^= low
        yield low.bit_length() - 1


def _search(image, order, candidates, checks, injective=False):
    """The maps of :func:`_walk`, each handed over as an image tuple when found."""
    if not order:
        yield tuple(image)
        return
    *above, v = order
    for m, _ in _walk(image, order, candidates, checks, injective):
        placed = {image[u] for u in above} if injective and not checks[v] else ()
        for image[v] in _bits(m) if checks[v] else (c for c in m if c not in placed):
            yield tuple(image)


def _count(entries, order, candidates, checks, coef, weights, scale, injective=False):
    """The maps of :func:`_walk`, each adding its weight into ``entries``, a
    flat tensor, at its flat index under ``coef``.

    A map weighs ``scale`` times ``t[image[u]][image[v]]`` for each
    ``(u, v, t)`` in ``weights``; ``image`` has one slot past the vertices,
    always 0, so ``u = len(checks)`` makes ``t = (vec,)`` a vector on the
    images of ``v``.  A last vertex with neither a coefficient nor weights
    is never placed: its number of images multiplies the weight of the others.
    """
    if not order:
        entries[0] += scale
        return
    image = [0] * (len(checks) + 1)
    *above, v = order
    a, rels = coef[v], checks[v]
    found = _walk(image, order, candidates, checks, injective, coef)
    if rels and not weights:  # the common case: a popcount, or one add per bit, for each placing
        if not a:
            for m, at in found:
                entries[at] += scale * m.bit_count()
        else:
            for m, at in found:
                while m:
                    low = m & -m
                    m ^= low
                    entries[at + a * (low.bit_length() - 1)] += scale
        return
    heavy = [(u, x, t) for u, x, t in weights if x != v]  # weighed once per placing of the others
    ws = [(u, t) for u, x, t in weights if x == v]  # these come from summing out, so the search is not injective
    final = candidates[v]
    if type(final) is list:  # a loop vector's images: a set tests each placed image at once, as a range does
        final = set(final)
    for m, at in found:
        w = scale
        for u, x, t in heavy:
            w *= t[image[u]][image[x]]
        if not (a or ws):
            left = m.bit_count() if rels else len(m) - (sum(image[u] in final for u in above) if injective else 0)
            entries[at] += w * left
            continue
        placed = {image[u] for u in above} if injective and not rels else ()
        for c in _bits(m) if rels else m:
            if c not in placed:
                x = w
                for u, t in ws:
                    x *= t[image[u]][c]
                entries[at + a * c] += x


def _host(g):
    """The record every search into ``g`` reads, built on first use and
    kept in ``g._host`` at any size: ``(adj, loops, rows)``, the neighbour
    lists (each edge both ways round, a loop once), the 0/1 vector of loops
    and the bitmask rows of ``adj`` (:func:`_rows`), a table of weight 1 on
    the host's arcs."""
    if g._host is None:
        adj, loops = [[] for _ in range(g.n)], [0] * g.n
        for a, b in g.edges:
            adj[a].append(b)
            if a == b:
                loops[a] = 1
            else:
                adj[b].append(a)
        g._host = adj, loops, _rows(adj)
    return g._host


def _constraints(k, g):
    """What a homomorphism ``k -> g`` must meet, as weights on the images of ``k``'s vertices.

    Returns ``(host, factors, vectors)``.  ``host`` is the rows of ``g``'s
    record (:func:`_host`).  Each edge ``(u, v)``, ``u < v``, of ``k``
    becomes the pair factor ``factors[u, v] = host``, and each loop
    ``(v, v)`` the vector ``vectors[v]``, the record's loop vector.
    """
    _, loops, rows = _host(g)
    return rows, {e: rows for e in k.edges if e[0] != e[1]}, {u: loops for u, v in k.edges if u == v}


def _breadth_first(adj):
    """The vertices of a graph with neighbour lists ``adj`` in breadth-first
    order: from each least vertex not yet reached, each vertex's neighbours
    in increasing order."""
    order, seen, head = [], [False] * len(adj), 0
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        while head < len(order):
            for w in sorted(adj[order[head]]):
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
            head += 1
    return order


def _levels(k, g, factors, vectors, rank=None):
    """The candidates and checks of :func:`_walk` for maps ``k -> g`` under
    factors of bitmask rows and vectors like those of :func:`_constraints`:
    a vertex with a vector takes the images it weighs above 0, any other
    every image, and each factor ``(u, v)``, ``u < v``, is checked at
    whichever endpoint the search reaches last, the one place any search
    sets its checks.  That is ``v`` in index order; given ``rank``, the
    position of each vertex in the search's order, it is the endpoint of
    higher rank.  A ``rank`` comes only with the host's own rows, which are
    symmetric, so a factor checked at ``u`` reads the same rows; a table of
    :func:`_sum_out` is not, and would have to be turned round first."""
    checks, candidates = [[] for _ in range(k.n)], [range(g.n)] * k.n
    for (u, v), rows in factors.items():
        if rank and rank[u] > rank[v]:
            u, v = v, u
        checks[v].append((u, rows))
        candidates[v] = -1
    for v, vec in vectors.items():
        images = [c for c, w in enumerate(vec) if w]
        candidates[v] = _mask(images) if checks[v] else images
    return candidates, checks


def enumerate_homomorphisms(k, g, injective=False):
    """All graph homomorphisms from ``k`` to ``g`` as a list of image tuples.

    A map takes edges to edges literally: a non-loop edge may land on a single
    vertex only if that vertex carries a loop.  Maps come in lexicographic
    order of the image tuple ``(phi(0), ..., phi(n-1))``.
    """
    _, factors, vectors = _constraints(k, g)
    order = list(range(k.n))  # a list: the search indexes it, and a range indexes slower
    return list(_search([0] * k.n, order, *_levels(k, g, factors, vectors), injective))


def _sum_out(k, g, factors, vectors, keep):
    """Sum out the vertices of ``k`` outside ``keep`` with at most two
    neighbours, one at a time, fewest first (from a heap of factor counts
    kept up to date), in place on the factors and vectors of
    :func:`_constraints`; return the scalar this puts on the count and the
    vertices summed out.  An isolated vertex becomes a factor of the
    scalar, a leaf a weight vector on its neighbour and a vertex of degree
    two a table on its two neighbours ``y < z``, ``g.n`` rows ``table[cy]
    = {cz: w}`` of nonzero weights, built by walking the weighted images of
    its factors, each read by the image of the vertex summed out: the host
    as the neighbour lists of its record, each of weight 1, and a table as
    its own rows from its first vertex, turned round once from its second.
    A table on a pair with a factor already is multiplied by it in place,
    keeping the entries it has.  A table whose walk would pass ``SUM_OUT_PAIR_BOUND``
    image pairs is refused before it is built.
    """
    n = g.n
    adj, _, host = _host(g)
    incident = [set() for _ in range(k.n)]  # each vertex's factors, kept up to date
    for e in factors:
        incident[e[0]].add(e)
        incident[e[1]].add(e)
    # (factor count, vertex) outside keep; counts only fall, and a stale entry is skipped
    heap = [(len(incident[v]), v) for v in range(k.n) if v not in keep]
    heapify(heap)
    ones = [1] * n
    scalar = 1
    summed = set()
    while scalar and heap:
        degree, x = heappop(heap)
        if x in summed or degree != len(incident[x]):
            continue
        if degree > 2:
            break
        summed.add(x)
        nbrs, rows = [], []  # per neighbour, for each image of x: the record's neighbours (weight 1) or a table's {image: weight}
        for e in sorted(incident[x]):
            t, y = factors.pop(e), e[1] if e[0] == x else e[0]
            nbrs.append(y)
            incident[y].remove(e)
            if t is not host and y < x:  # read from its second vertex, a table is turned round
                t, turned = [{} for _ in range(n)], t
                for cy, row in enumerate(turned):
                    for cx, w in row.items():
                        t[cx][cy] = w
            rows.append(adj if t is host else t)
        weight = vectors.pop(x, ones)
        if degree == 0:
            scalar *= sum(weight)
        elif degree == 1:
            summed_vec, ys = [0] * n, rows[0]
            for cx, w in enumerate(weight):
                for cy in ys[cx] if w else ():
                    summed_vec[cy] += w if ys is adj else w * ys[cx][cy]
            vectors[nbrs[0]] = [a * b for a, b in zip(vectors.get(nbrs[0], ones), summed_vec)]
        else:
            ys, zs = rows
            pairs = sum(len(ys[cx]) * len(zs[cx]) for cx, w in enumerate(weight) if w)  # also bounds the merge below
            if pairs > SUM_OUT_PAIR_BOUND:
                raise CapacityError(f"summing out a vertex walks {pairs} image pairs, past the bound {SUM_OUT_PAIR_BOUND}")
            table = [{} for _ in range(n)]
            for cx, w in enumerate(weight):
                for cy in ys[cx] if w else ():
                    wy, row = w if ys is adj else w * ys[cx][cy], table[cy]
                    for cz in zs[cx]:
                        row[cz] = row.get(cz, 0) + (wy if zs is adj else wy * zs[cx][cz])
            yz = tuple(nbrs)
            old = factors.get(yz)  # at most one factor per pair: the new table is multiplied by the old in place
            for cy, row in enumerate(table) if yz in factors else ():
                if row:
                    o = dict.fromkeys(adj[cy], 1) if old is host else old[cy]
                    table[cy] = {cz: w * o[cz] for cz, w in row.items() if cz in o}
            factors[yz] = table
            incident[yz[0]].add(yz)
            incident[yz[1]].add(yz)
        for y in nbrs:
            if y not in keep:
                heappush(heap, (len(incident[y]), y))
    return scalar, summed


def count_homomorphisms(k, g, entries, labels, injective=False):
    """Add to ``entries`` the homomorphisms from ``k`` to ``g`` (given
    ``injective``, the injective ones), counted by where the labels land.

    ``labels`` are vertices of ``k`` in digit order: ``entries`` is a flat
    list of ``g.n ** len(labels)`` counts, and a map ``phi`` counts at the
    index whose digits, base ``g.n``, are ``phi`` of ``labels``.  A plain
    count first sums out (:func:`_sum_out`); an injective one cannot, as a
    vertex summed out could share an image.  :func:`_count` counts the
    vertices left, in increasing order, checking each table left by the
    bitmask of each row's keys and multiplying out only weights above 1, so
    the cost follows the weighted maps of the vertices left.
    """
    coef = [0] * k.n  # an image c of v adds c * coef[v] to the flat index
    for j, v in enumerate(labels, 1):
        coef[v] += g.n ** (len(labels) - j)
    host, factors, vectors = _constraints(k, g)
    scalar, summed = (1, ()) if injective else _sum_out(k, g, factors, vectors, set(labels))
    if not scalar:
        return
    weights = [(k.n, v, (vec,)) for v, vec in vectors.items() if max(vec, default=0) > 1]
    for e, t in factors.items():
        if t is not host:  # a table left: the rows of its own keys, and a weight if an entry is above 1
            factors[e] = _rows(t)
            if any(w > 1 for row in t for w in row.values()):
                weights.append((*e, t))
    order = [v for v in range(k.n) if v not in summed]
    _count(entries, order, *_levels(k, g, factors, vectors), coef, weights, scalar, injective)


def automorphisms(g):
    """All automorphisms of ``g``, in lexicographic order: the full listing
    that :func:`automorphism_generators` is tested against.

    An injective endomorphism of a finite graph is bijective and its inverse
    again preserves edges (the edge count is finite), so injective
    homomorphisms ``g -> g`` are exactly the automorphisms.
    """
    return enumerate_homomorphisms(g, g, injective=True)


def automorphism_generators(g):
    """Generators of the automorphism group of ``g``, each handed over when found.

    A stabiliser-chain search (Sims 1970; Butler, *Fundamental Algorithms
    for Permutation Groups*, 1991) that never lists the group.  It searches
    ``g``'s vertices in breadth-first order (:func:`_breadth_first`), so
    that every vertex but the first of each component has a neighbour
    placed before it, and :func:`_levels` checks each edge at the endpoint
    that order reaches last.  Base points ``order[i]`` go from ``i = n-1``
    down to 0.  For each vertex ``c`` after ``order[i]`` in the order, of
    its colour (neighbour count and loop, read from the record of
    :func:`_host`) and outside its orbit under the generators found so far,
    one search pins ``order[:i]`` to themselves and ``order[i]`` to ``c``
    and stops at its first map.  The pinned vertices stay out of the
    search.  Every other vertex takes the unpinned vertices of its colour:
    one list per colour for the vertices without checks, one bitmask for
    those with, so a level costs no mask per vertex.  Which generators come
    out depends on that order, but the group they generate does not.  The
    generators found at levels ``i`` and above reach the whole orbit of
    ``order[i]`` under the automorphisms fixing ``order[:i]``, so they
    generate those automorphisms; at level 0, the whole group.  Each
    generator moves ``order[i]`` out of the orbit its predecessors reach,
    so none lies in the group they generate.
    """
    n = g.n
    adj, loops, _ = _host(g)
    order, rank = _breadth_first(adj), [0] * n
    for i, x in enumerate(order):
        rank[x] = i
    _, checks = _levels(g, g, _constraints(g, g)[1], {}, rank)
    colour = [(len(a), x) for a, x in zip(adj, loops)]
    candidates = [None] * n
    image = list(range(n))  # a search writes the images of order[i:], so order[:i] stay pinned to themselves
    found = []
    for i in reversed(range(n)):
        b = order[i]
        orbit, tails = {b}, None  # the orbit of b under the generators found so far, all fixing order[:i]
        for c in order[i + 1:]:
            if colour[c] != colour[b] or c in orbit:
                continue
            if tails is None:  # each colour's unpinned vertices, one list, or one mask for the vertices with checks
                tails = {}
                for j in order[i + 1:]:
                    key = colour[j], bool(checks[j])
                    if key not in tails:
                        tail = [x for x in order[i:] if colour[x] == colour[j]]
                        tails[key] = _mask(tail) if checks[j] else tail
                    candidates[j] = tails[key]
            candidates[b] = 1 << c if checks[b] else (c,)
            sigma = next(_search(image, order[i:], candidates, checks, True), None)
            if sigma is None:
                continue
            found.append(sigma)
            yield sigma
            todo = list(orbit)
            for x in todo:
                for s in found:
                    if s[x] not in orbit:
                        orbit.add(s[x])
                        todo.append(s[x])


# ---------------------------------------------------------------------------
# canonical forms


@lru_cache(maxsize=None)
def _cells(n):
    return tuple((u, v) for u in range(n) for v in range(u, n))


@lru_cache(maxsize=None)
def cell_bits(n):
    """The mask bit of each adjacency cell on ``n`` vertices: ``bits[u][v] ==
    bits[v][u]`` is ``1 << i`` for the ``i``-th cell of :func:`_cells`.  Only
    read up to ``CANONICAL_VERTEX_BOUND`` vertices, where masks are used;
    past it the ``n`` by ``n`` table is refused before it is built."""
    if n > CANONICAL_VERTEX_BOUND:
        raise CapacityError(f"canonical form supported up to {CANONICAL_VERTEX_BOUND} vertices, got {n}")
    bits = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(_cells(n)):
        bits[u][v] = bits[v][u] = 1 << i
    return tuple(map(tuple, bits))


@lru_cache(maxsize=None)
def _relabel_columns(n):
    """``(code, size, columns)``: ``columns[c]`` is the int of ``size`` bytes of slots
    of the narrowest native type ``code`` with a bit per cell, whose ``k``-th slot is
    the bit that the ``k``-th permutation of ``0..n-1`` (lexicographic) moves cell ``c``
    to.  Each column is built alone, its image pairs spread into slots by translation."""
    bits, cells = cell_bits(n), _cells(n)
    code = next(c for c in "BHILQ" if calcsize(c) * 8 >= len(cells))
    width, perms = calcsize(code), factorial(n)
    images = [int.from_bytes(bytes(s[u] for s in permutations(range(n))), "little") for u in range(n)]
    tables = [bytes(t).ljust(256, b"\0") for t in zip(*(b.to_bytes(width, sys.byteorder) for row in bits for b in row))]
    columns = []
    for u, v in cells:
        pairs = (n * images[u] + images[v]).to_bytes(perms, "little")  # n * s[u] + s[v] < 256: no carries
        column = bytearray(width * perms)
        for j, table in enumerate(tables):
            column[j::width] = pairs.translate(table)
        columns.append(int.from_bytes(column, sys.byteorder))
    return code, width * perms, tuple(columns)


def mask_of(n, edges):
    """The adjacency mask of the graph on ``n`` vertices with ``edges``, pairs in either order."""
    bits = cell_bits(n)
    return sum({bits[u][v] for u, v in edges})  # each cell once: the sum is the OR


def mask_edges(n, mask):
    """The cells of the adjacency mask ``mask`` on ``n`` vertices, as sorted
    ``(u, v)`` pairs with ``u <= v``."""
    cells = _cells(n)
    return [cells[i] for i in range(mask.bit_length()) if mask >> i & 1]


def mask_orbit(n, mask):
    """The adjacency mask ``mask`` on ``n`` vertices under every relabeling of the
    vertices, a memoryview of ``n!`` slots in the order of :func:`_relabel_columns`:
    the OR of its cells' columns.  Its distinct entries are the isomorphism class,
    labelled, and the least is :func:`canonical_form`'s mask.  Refused above
    ``CANONICAL_VERTEX_BOUND`` vertices."""
    code, size, columns = _relabel_columns(n)
    packed = 0
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            packed |= columns[i]
    return memoryview(packed.to_bytes(size, sys.byteorder)).cast(code)


def canonical_form(g):
    """``((n, mask), perm)``: the least adjacency mask over all vertex
    relabelings, and the lexicographically least permutation reaching it
    (``perm[v]`` is the new name of vertex ``v``).  Graphs above
    ``CANONICAL_VERTEX_BOUND`` vertices are refused."""
    masks = mask_orbit(g.n, mask_of(g.n, g.edges)).tolist()
    best = min(masks)
    return (g.n, best), next(islice(permutations(range(g.n)), masks.index(best), None))


# ---------------------------------------------------------------------------
# serialization


def parse_graph6(text):
    """Decode a (short-format) graph6 string into a loopless graph: the
    vertex count ``n``, then exactly ``ceil(n(n-1)/12)`` characters of six
    bits, the upper triangle column by column, its padding bits zero."""
    data = [ord(ch) - 63 for ch in text]
    if not data or any(x < 0 or x > 63 for x in data):
        raise ValueError("invalid graph6 characters")
    if data[0] == 63:
        raise ValueError("extended graph6 sizes are not supported")
    n = data[0]
    need = n * (n - 1) // 2
    size = 1 + (need + 5) // 6
    if len(data) != size:
        raise ValueError(f"graph6 string for {n} vertices must have {size} characters, got {len(data)}")
    bits = [x >> sh & 1 for x in data[1:] for sh in (5, 4, 3, 2, 1, 0)]
    if any(bits[need:]):
        raise ValueError("graph6 padding bits must be zero")
    return Graph(n, compress(((u, v) for v in range(1, n) for u in range(v)), bits))


def graph_from_json(obj):
    """A graph from ``{"n": .., "edges": [[u, v], ..]}`` or ``{"graph6": .., "loops": [v, ..]}``."""
    if isinstance(obj, dict) and "graph6" in obj:
        (text,) = check_json_object(obj, "graph", ("graph6",), ("loops",))
        if not isinstance(text, str):
            raise ValueError("graph JSON field 'graph6' must be a string")
        loops = obj.get("loops", [])
        if not isinstance(loops, list):
            raise ValueError("graph JSON field 'loops' must be a list of vertices")
        base = parse_graph6(text)
        edges = set(base.edges)
        for v in loops:
            if type(v) is not int or not (0 <= v < base.n):
                raise ValueError(f"loop vertex {v} out of range")
            edges.add((v, v))
        return Graph(base.n, edges)
    n, edges = check_json_object(obj, "graph", ("n", "edges"))
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("graph JSON field 'n' must be an integer")
    if n > GRAPH_VERTEX_BOUND:
        raise CapacityError(f"graph of {n} vertices exceeds the bound {GRAPH_VERTEX_BOUND}")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and type(e[0]) is int and type(e[1]) is int for e in edges
    ):
        raise ValueError("graph JSON edges must be pairs of integers")
    return Graph(n, map(tuple, edges))
