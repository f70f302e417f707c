"""Graph fibrations presented by generator diagrams.

A fibration assigns to certain graphs ("fibres") a normal closure of words
over the involutive free product on the fibre's vertex set.  The fibres are
the graphs whose edges are covered by copies of the generator graphs:
injective images for a *skew* fibration, arbitrary homomorphic images for an
*easy* one.  Edgeless graphs are fibres.

Every query about one graph makes one pass over the generator copies inside
it: the graph is a fibre when their images cover its edges, and a generator
diagram ``(H, a, b)`` contributes the word ``reverse(a) + b`` pushed through
each copy of ``H``, reduced where the map is met as in the closure's copy
list.  Those words, less those implied by earlier ones, generate the fibre's
normal closure, which a query builds once, in :func:`_fibre`.  A
fibration holds its inputs only: each query recomputes what it reads, and
finds the copies by a homomorphism search.  The closure of fibres is built
only to list them, on adjacency masks, from one ordered list per vertex
count of the distinct copy masks and reduced words of every generator map,
each word's ``xyxy`` letter pair found once.  Each listed fibre reads its
words from that list in one ordered scan, with no search, and its edges
from its own mask.  When every word of the list reads ``xyxy``, that scan
also prunes the words, keeping the first of each letter pair as the
``racg`` strategy would; any other list is pruned by
:func:`prune_reduced_words`, where a bounded search may keep two words of
one letter pair.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, permutations, product
from math import perm

from .diagrams import BilabelledGraph, diagram_from_json
from .errors import CapacityError, InvariantError, check_json_object
from .freeprod import (
    Membership,
    MembershipPolicy,
    NormalClosureSpec,
    check_invariance,
    commuting_pair,
    decide,
    member,
    policy_from_json,
    prune_reduced_words,
    reduce_word,
)
from .graphs import cell_bits, enumerate_homomorphisms, mask_edges, mask_orbit
from .tensors import power_exceeds

DEFAULT_MAX_VERTICES = 5
CLOSURE_MAP_BOUND = 10**6
CLOSURE_MASK_BOUND = 10**6  # labelled graphs the closure keeps filed at once


class GraphFibration(namedtuple("GraphFibration", ("generators", "easy", "max_vertices", "policy"))):
    """A fibration presented by generator diagrams: a checked named tuple,
    equal by its fields and read-only."""

    __slots__ = ()

    def __new__(cls, generators, easy=False, max_vertices=DEFAULT_MAX_VERTICES, policy=MembershipPolicy()):
        generators = tuple(generators)
        for d in generators:
            if not isinstance(d, BilabelledGraph):
                raise ValueError("fibration generators must be bilabelled graphs")
        if type(easy) is not bool:
            raise ValueError(f"easy must be true or false, got {easy!r}")
        if type(max_vertices) is not int or max_vertices < 1:
            raise ValueError(f"max_vertices must be an integer >= 1, got {max_vertices!r}")
        if not isinstance(policy, MembershipPolicy):
            raise ValueError(f"policy must be a MembershipPolicy, got {policy!r}")
        return super().__new__(cls, generators, easy, max_vertices, policy)


# ---------------------------------------------------------------------------
# the closure of fibres


def closure_graphs(fib):
    """All fibres up to isomorphism with their generator words: ``(n, edges,
    words)`` triples, canonical representatives, each with its sorted
    :func:`mask_edges`.

    Sorted by vertex count, then by canonical adjacency mask.  A graph is a
    fibre when generator copies cover its edges, so each one on ``n``
    vertices is reached from the edgeless graph on ``n`` vertices by adding
    those copies one at a time.  A copy is the image of a generator graph
    under a map to ``range(n)``: an injective one for a skew fibration, any
    one for an easy fibration.  Graphs are adjacency masks: the copy list on
    ``n`` vertices (:func:`_copy_table`) is made once, its distinct nonzero
    masks are the copies, and adding a copy is an OR.

    Masks are filed a whole isomorphism class at a time, so a mask not yet
    filed starts a new class: one pass over the relabelings gives its
    :func:`mask_orbit`, whose ``n!`` masks go straight into the filing, and
    the least of them, its canonical key, is the class's representative.
    Any other relabeling of the class reached later costs one set lookup.  The copies of every relabeling of
    a graph are the relabelings of its copies, so growing the
    representatives reaches every class.  A copy only adds cells, so masks
    are filed by edge count and the counts are read upward: when a count's
    representatives are read, no mask can land there any more and its set
    is dropped.  At most ``CLOSURE_MASK_BOUND`` masks are filed at once.
    Edge lists are read from the masks after the last vertex count, so that
    the filing of the largest count does not hold them.

    A representative's words are those :func:`fiber_generators` gives, read
    from the same list instead of found by a search: the maps whose copy
    mask lies inside the representative's are its homomorphisms, so its
    boundary words are the words of the pairs inside its mask, in the order
    of their first map (:func:`_table_words`).  Each pair's ``xyxy`` letter
    pair is found once, when the list is made.  When every nonempty word of
    the list reads ``xyxy``, the one scan that finds a fibre's words also
    prunes them: it keeps the first word of each letter pair, which is what
    :func:`prune_reduced_words` keeps of such words, as the ``racg``
    strategy answers an ``xyxy`` word YES exactly when its pair is kept.
    Any other list gives each fibre's distinct words to
    :func:`prune_reduced_words` under one ``auto`` policy made per closure,
    keyed by the words themselves: beside other words, a bounded search
    need not show ``yxyx`` implied by ``xyxy``.
    """
    top = fib.max_vertices
    cell_bits(top)  # refuses a bound past the canonical one before any work
    # every generator counts, edgeless ones too: the copy list reads their maps for the words.
    # The map count only grows with n, so counting at max_vertices covers every n.
    for h in (d.graph for d in fib.generators):
        if (power_exceeds(top, h.n, CLOSURE_MAP_BOUND) if fib.easy else perm(top, h.n) > CLOSURE_MAP_BOUND):
            raise CapacityError(
                f"a {h.n}-vertex generator has more than {CLOSURE_MAP_BOUND} maps into {top} vertices"
            )
    auto = fib.policy.replace(strategy="auto")
    members = []
    for n in range(top + 1):
        table = _copy_table(fib, n)
        xyxy = all(pair for _, w, pair in table if w)
        scan = [(c, pair if xyxy else w, w) for c, w, pair in table]  # a fibre keeps one word per key
        copies = {c for c, _, _ in table if c}
        counts = range(n * (n + 1) // 2 + 1)
        filed = [set() for _ in counts]  # by edge count: the masks filed
        reps = [[] for _ in counts]  # by edge count: the representatives
        filed[0].add(0)
        reps[0].append(0)
        live = 1
        for count in counts:
            live -= len(filed[count])
            filed[count] = None  # a copy adds cells, so no mask reached from here on lands in this count
            for x in reps[count]:
                for c in copies:
                    m = x | c
                    if m == x:
                        continue
                    k = m.bit_count()
                    if m in filed[k]:
                        continue
                    orbit, known = mask_orbit(n, m), len(filed[k])
                    filed[k].update(orbit)
                    live += len(filed[k]) - known
                    if live > CLOSURE_MASK_BOUND:
                        raise CapacityError(
                            f"the closure on {n} vertices files more than {CLOSURE_MASK_BOUND} labelled graphs at once"
                        )
                    reps[k].append(min(orbit))
        for m in sorted(chain.from_iterable(reps)):
            words = _table_words(scan, m)
            members.append((n, m, words if xyxy else prune_reduced_words(n, words, auto)))
    return [(n, mask_edges(n, m), words) for n, m, words in members]


def _copy_table(fib, n):
    """The distinct ``(copy mask, reduced boundary word)`` pairs of every
    generator map into ``range(n)``, in the order of their first map, each
    with the word's :func:`commuting_pair`: ``(mask, word, pair)``.

    Maps are met in the order :func:`_copy_words` meets them: by generator,
    then by image tuple in lexicographic order.  A copy mask is the OR of
    the :func:`cell_bits` of the edge images.  Edgeless generators are
    included; their maps have copy mask 0.  A map whose word reduces to the
    empty word still gives a pair, so that its mask counts for coverage.
    """
    pairs, bits = {}, cell_bits(n)  # a dict keeps each pair once, in first-map order
    for d in fib.generators:
        h, labels = d.graph, d.inputs[::-1] + d.outputs
        for phi in (product(range(n), repeat=h.n) if fib.easy else permutations(range(n), h.n)):
            c = 0
            for u, v in h.edges:
                c |= bits[phi[u]][phi[v]]  # an OR: an easy map can send two edges to one cell
            pairs[c, reduce_word(map(phi.__getitem__, labels))] = None
    return [(c, w, commuting_pair(w)) for c, w in pairs]


def _table_words(scan, m):
    """The words of the copies inside the graph with adjacency mask ``m``,
    one per nonempty key, ordered by first map: ``scan`` holds ``(copy mask,
    key, word)`` records in first-map order, keyed by the word itself or by
    its letter pair.

    A map whose copy mask lies inside ``m`` is a homomorphism into that
    graph (an injective one for a skew fibration).  The records come in
    first-map order, so a word's first record inside ``m`` is its first map
    there.  The closure lists only graphs that its copies cover, so copies
    inside ``m`` that leave one of its cells uncovered are a broken
    invariant.
    """
    words, covered, outside = {}, 0, ~m
    for c, key, w in scan:
        if not c & outside:
            covered |= c
            if key and key not in words:
                words[key] = w
    if covered != m:
        raise InvariantError("a listed fibre must be covered by the generator copies inside it")
    return tuple(words.values())


# ---------------------------------------------------------------------------
# generator copies inside one graph


def _copy_words(fib, g):
    """The distinct nonempty reduced boundary words of the generator copies
    inside ``g``, in first-map order, or None when their images do not cover
    ``g``'s edges.

    Copies are embeddings for a skew fibration and arbitrary homomorphisms
    for an easy one.  A generator diagram ``(H, a, b)`` gives the word
    ``reverse(a) + b`` pushed through each copy of ``H``, reduced where the
    map is met, as in :func:`_copy_table`.
    """
    if g.n > fib.max_vertices:
        raise CapacityError(
            f"fibre queries are bounded by max_vertices={fib.max_vertices}, graph has {g.n} vertices"
        )
    words, covered = {}, set()  # a dict keeps each word once, in first-map order
    for d in fib.generators:
        for phi in enumerate_homomorphisms(d.graph, g, injective=not fib.easy):
            words[reduce_word(map(phi.__getitem__, d.inputs[::-1] + d.outputs))] = None
            for u, v in d.graph.edges:
                a, b = phi[u], phi[v]
                covered.add((a, b) if a <= b else (b, a))
    return tuple(filter(None, words)) if covered == g.edges else None


def _fibre(fib, g, words):
    """The fibre over ``g``: the normal closure of ``g``'s :func:`_copy_words`, pruned
    by :func:`prune_reduced_words`; ``ValueError`` when ``g`` is not a fibre."""
    if words is None:
        raise ValueError("graph is not a fibre of this fibration")
    return NormalClosureSpec(g.n, prune_reduced_words(g.n, words, fib.policy), fib.policy)


def is_fiber(fib, g):
    """Is ``g`` a fibre?  Yes iff the generator images inside it cover its edges."""
    return _copy_words(fib, g) is not None


def fiber_generators(fib, g):
    """Generator words of the fibre over ``g``, on ``g``'s own vertex names: its
    copies' words, less each one that an exact ``auto`` answer finds implied by
    earlier ones (an unknown keeps it); ``ValueError`` when ``g`` is not a fibre."""
    return _fibre(fib, g, _copy_words(fib, g)).generators


def fiber_member(fib, g, word):
    """Tri-state membership of a word in the fibre over ``g``."""
    return member(word, _fibre(fib, g, _copy_words(fib, g)))


def diagram_member(fib, d):
    """Does a diagram belong to the category the fibration represents?

    Yes iff the underlying graph is a fibre and the diagram's boundary word
    lies in that fibre.  One pass over the generator copies answers both.
    """
    words = _copy_words(fib, d.graph)
    if words is None:
        return Membership.NO
    return member(d.inputs[::-1] + d.outputs, _fibre(fib, d.graph, words))


# ---------------------------------------------------------------------------
# fibrations from a single group of words


def fibration_from_group(g, closure, easy=False, max_vertices=DEFAULT_MAX_VERTICES):
    """The fibration generated by the output-only diagrams ``(g, (), w)``.

    ``closure`` is a normal-closure description over ``g``'s vertices.  For an
    easy fibration the closure must be preserved by every endomorphism of
    ``g``; this is checked, and an unknown membership during the check is an
    error.  Construction re-checks that every closure generator is recovered
    in the fibre over ``g`` itself.
    """
    if closure.alphabet_size != g.n:
        raise ValueError("closure alphabet must match the vertex count")
    if easy:
        check_invariance(enumerate_homomorphisms(g, g), closure)
    gens = tuple(BilabelledGraph(g, (), w) for w in closure.generators)
    fib = GraphFibration(
        gens, easy=easy, max_vertices=max(max_vertices, g.n), policy=closure.policy
    )
    if closure.generators:  # with none, ``g`` with edges need not be a fibre
        spec = _fibre(fib, g, _copy_words(fib, g))
        for w in closure.generators:  # checked and reduced by the closure's spec
            if decide(w, spec) is not Membership.YES:
                raise ValueError(f"generator word {w} is not recovered in its own fibre")
    return fib


# ---------------------------------------------------------------------------
# serialization


def fibration_from_json(obj, default_max_vertices=DEFAULT_MAX_VERTICES):
    (generators,) = check_json_object(obj, "fibration", ("generators",), ("easy", "max_vertices", "strategy"))
    if not isinstance(generators, list):
        raise ValueError("fibration JSON generators must be a list of diagrams")
    return GraphFibration(
        [diagram_from_json(d) for d in generators],
        easy=obj.get("easy", False),
        max_vertices=obj.get("max_vertices", default_max_vertices),
        policy=policy_from_json(obj.get("strategy", "auto")),
    )
