"""Graph fibrations: closures, fibre groups, and membership of diagrams."""

import json
import os
import resource
import subprocess
import sys
from collections import deque
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfib
from graphfib import fibrations, freeprod
from graphfib.cli import main
from graphfib.diagrams import BilabelledGraph, m_diagram
from graphfib.errors import CapacityError, IndeterminateError
from graphfib.fibrations import (
    GraphFibration,
    closure_graphs,
    diagram_member,
    fiber_generators,
    fiber_member,
    fibration_from_group,
    fibration_from_json,
    is_fiber,
)
from graphfib.freeprod import (
    STRATEGIES,
    Membership,
    MembershipPolicy,
    NormalClosureSpec,
    commuting_pair,
    member,
    policy_from_json,
    reduce_word,
)
from graphfib.graphs import (
    Graph,
    add_loops_everywhere,
    complete,
    cycle,
    disjoint_union,
    edgeless,
    enumerate_homomorphisms,
    enumerate_overlaps,
    generated_partition,
    mask_of,
    mask_orbit,
    path,
    quotient,
)
from graphfib.partitions import enumerate_partitions
from reference import canonical_graph, canonical_key, closure_pairs, enumerate_graphs, graph_to_json, greatest_subgraph


def commutator_generator(g):
    """One generator diagram per edge is overkill; a single edge suffices
    because fibre words are collected from all of its embeddings."""
    return BilabelledGraph(g, (), (0, 1, 0, 1))


def edge_fibration(bound=4, easy=False, **kwargs):
    kwargs.setdefault("policy", MembershipPolicy("racg"))
    return GraphFibration(
        [commutator_generator(complete(2))], easy=easy, max_vertices=bound, **kwargs
    )


def triangle_fibration(bound=4):
    return GraphFibration(
        [BilabelledGraph(complete(3), (), (0, 1, 0, 1))],
        max_vertices=bound,
        policy=MembershipPolicy("racg"),
    )


def closure_members(fib):
    """The fibres :func:`closure_graphs` lists, without their words."""
    return [g for g, _ in closure_pairs(fib)]


def layer_counts(graphs):
    counts = {}
    for g in graphs:
        counts[g.n] = counts.get(g.n, 0) + 1
    return [counts.get(n, 0) for n in range(max(counts) + 1)]


# ---------------------------------------------------------------------------
# closures


def test_edge_closure_is_all_loopless_graphs():
    fib = edge_fibration(bound=4)
    members = closure_members(fib)
    assert layer_counts(members) == [1, 1, 2, 4, 11]
    want = {canonical_key(g) for n in range(5) for g in enumerate_graphs(n)}
    assert {canonical_key(g) for g in members} == want


def test_triangle_closure_needs_every_edge_in_a_triangle():
    members = closure_members(triangle_fibration(bound=4))
    assert layer_counts(members) == [1, 1, 1, 2, 4]
    for g in members:
        for u, v in g.edges:
            assert any(
                g.has_edge(u, w) and g.has_edge(v, w)
                for w in range(g.n)
                if w not in (u, v)
            )


def test_easy_closure_adds_quotients():
    fib = edge_fibration(bound=3, easy=True)
    members = closure_members(fib)
    assert layer_counts(members) == [1, 2, 6, 20]
    want = {canonical_key(g) for n in range(4) for g in enumerate_graphs(n, loops=True)}
    assert {canonical_key(g) for g in members} == want


@pytest.mark.parametrize("bound, count", [(1, 3), (2, 9)])
def test_an_easy_eleven_vertex_generator_closes_at_small_bounds(bound, count):
    # the path has at most 2^11 maps into two vertices, far below the
    # closure's map bound
    fib = GraphFibration([BilabelledGraph(path(11), (), (0, 1))], easy=True, max_vertices=bound)
    members = closure_members(fib)
    assert len(members) == count
    want = {canonical_key(g) for n in range(bound + 1) for g in enumerate_graphs(n, loops=True) if is_fiber(fib, g)}
    assert {canonical_key(g) for g in members} == want


LOOP_GENERATOR = BilabelledGraph(Graph(1, [(0, 0)]), (), ())


@pytest.mark.parametrize(
    "generators, bound, counts",
    [
        ([commutator_generator(complete(2))], 7, [1, 1, 2, 4, 11, 34, 156, 1044]),  # OEIS A000088
        ([commutator_generator(complete(2)), LOOP_GENERATOR], 6, [1, 2, 6, 20, 90, 544, 5096]),  # OEIS A000666
    ],
    ids=["graphs", "graphs-with-loops"],
)
def test_closures_count_the_known_isomorphism_classes(generators, bound, counts):
    # every graph is covered by its edges and loops, so these closures hold
    # one graph per isomorphism class, counted without any labeller
    assert layer_counts(closure_members(GraphFibration(generators, max_vertices=bound))) == counts


@pytest.mark.parametrize(
    "fib",
    [
        edge_fibration(bound=5),
        GraphFibration([commutator_generator(complete(2)), LOOP_GENERATOR], max_vertices=4),
        edge_fibration(bound=4, easy=True),
        triangle_fibration(bound=5),
    ],
    ids=["skew-K2", "skew-K2-and-loop", "easy-K2", "skew-K3"],
)
def test_the_closure_files_each_class_with_one_orbit(fib, monkeypatch):
    # one pass over the relabelings per isomorphism class with edges, not one
    # per labelled graph reached
    calls = []

    def counted(n, mask):
        calls.append((n, mask))
        return mask_orbit(n, mask)

    monkeypatch.setattr(fibrations, "mask_orbit", counted)
    members = closure_members(fib)
    assert all(mask for _, mask in calls)
    assert len(calls) == len(members) - (fib.max_vertices + 1)


def test_is_fiber_and_capacity():
    fib = edge_fibration(bound=4)
    assert is_fiber(fib, path(3))
    assert is_fiber(fib, edgeless(0))
    assert not is_fiber(fib, Graph(1, [(0, 0)]))
    with pytest.raises(CapacityError):
        is_fiber(fib, edgeless(5))


def reference_closure(fib):
    """The closure by a plain worklist: every glued union, built as a quotient
    of the disjoint union, is canonicalised afresh, and every overlap is tried."""
    units = {}

    def add_unit(g):
        if 1 <= g.n <= fib.max_vertices:
            rep, _ = canonical_graph(g)
            units[canonical_key(rep)] = rep

    add_unit(edgeless(1))
    for d in fib.generators:
        add_unit(d.graph)
        if fib.easy:
            for block_of in enumerate_partitions(d.graph.n):
                add_unit(quotient(d.graph, block_of))
    members = {}
    queue = deque()

    def add(g):
        rep, _ = canonical_graph(g)
        key = canonical_key(rep)
        if key not in members:
            members[key] = rep
            queue.append(rep)

    for g in [edgeless(0), edgeless(1)] + list(units.values()):
        add(g)
    while queue:
        x = queue.popleft()
        for h in units.values():
            for f in enumerate_overlaps(x.n, h.n):
                if x.n + h.n - len(f) > fib.max_vertices:
                    continue
                merged = generated_partition(x.n + h.n, [(u, x.n + v) for u, v in f])
                add(quotient(disjoint_union(x, h), merged))
    return [members[key] for key in sorted(members)]


def reference_fiber_words(fib, g):
    """The generator words of the fibre over ``g`` by a spec of the words kept
    so far and a ``member`` query per candidate, under the fibration's policy
    with ``auto`` resolution."""
    raw_words = {}
    for d in fib.generators:
        for phi in enumerate_homomorphisms(d.graph, g, injective=not fib.easy):
            word = tuple(phi[v] for v in reversed(d.inputs)) + tuple(phi[v] for v in d.outputs)
            raw_words[word] = None
    policy = fib.policy.replace(strategy="auto")
    kept, spec = [], None
    for w in dict.fromkeys(filter(None, map(reduce_word, raw_words))):
        if kept:
            if spec is None:  # built for the first query after a kept word
                spec = NormalClosureSpec(g.n, kept, policy)
            if member(w, spec) is Membership.YES:
                continue
        kept.append(w)
        spec = None
    return tuple(kept)


policies = st.one_of(
    st.sampled_from(STRATEGIES).map(MembershipPolicy),
    st.integers(min_value=0, max_value=2).map(lambda d: MembershipPolicy("bounded-bfs", bfs_depth=d)),
)


@st.composite
def small_fibration(draw):
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        n = draw(st.integers(min_value=1, max_value=3))
        cells = [(u, v) for u in range(n) for v in range(u, n)]
        g = Graph(n, draw(st.sets(st.sampled_from(cells))))
        labels = st.lists(st.integers(min_value=0, max_value=n - 1), max_size=4)
        gens.append(BilabelledGraph(g, draw(labels), draw(labels)))
    return GraphFibration(
        gens,
        easy=draw(st.booleans()),
        max_vertices=draw(st.integers(min_value=1, max_value=4)),
        policy=draw(policies),
    )


@settings(max_examples=40, deadline=None)
@given(small_fibration())
def test_closure_and_is_fiber_match_a_reference_worklist(fib):
    want = reference_closure(fib)
    pairs = closure_pairs(fib)
    assert [g for g, _ in pairs] == want
    for g, words in pairs:
        assert words == fiber_generators(fib, g) == reference_fiber_words(fib, g)
    keys = {canonical_key(g) for g in want}
    for n in range(fib.max_vertices + 1):
        for g in enumerate_graphs(n, loops=True):
            fibre = canonical_key(g) in keys
            assert is_fiber(fib, g) == fibre
            best = greatest_subgraph(fib, g)
            assert best.edges <= g.edges and canonical_key(best) in keys
            if fibre:
                fiber_generators(fib, g)
            else:
                with pytest.raises(ValueError):
                    fiber_generators(fib, g)


BENCHMARK_SHAPES = {
    "K2": complete(2),
    "E2": edgeless(2),
    "E2-loop": Graph(2, [(1, 1)]),
    "P3": path(3),
    "K3": complete(3),
    "K2+K1": Graph(3, [(0, 1)]),
    "K2-loop": Graph(2, [(0, 1), (0, 0)]),  # skew with xyxy at 4 vertices: the closure benchmark's p90 slot
}
# The benchmark's word kinds over the vertices a word visits, and the policy
# it gives a fibration with a word that is not racg-eligible.
BENCHMARK_WORDS = {
    "racg": lambda p: p[:2] * 2,
    "finite": lambda p: p[:2],
    "infinite": lambda p: p if len(p) == 3 else p * 3,
}
BENCHMARK_BFS_JSON = {"bounded-bfs": {"depth": 1, "max_len": 8}}
BENCHMARK_BFS = policy_from_json(BENCHMARK_BFS_JSON)
BENCHMARK_FIBRATIONS = [
    (("K3",), "racg", (0, 1), False, 5),
    (("E2",), "racg", (0, 1), False, 6),
    (("E2-loop",), "racg", (0, 1), False, 6),
    (("E2-loop",), "racg", (0, 1), True, 6),
    (("K2", "P3"), "racg", (0, 1), False, 4),
    (("K2",), "racg", (0, 1), False, 5),
    (("K2-loop",), "racg", (0, 1), False, 4),
    (("K2-loop",), "racg", (0, 1), False, 5),
    (("K2-loop",), "racg", (0, 1), True, 4),
    (("K2-loop",), "racg", (0, 1), True, 5),
    (("E2",), "finite", (0, 1), False, 4),
    (("P3",), "finite", (0, 1), False, 4),
    (("K2+K1",), "finite", (0, 1), False, 4),
    (("P3",), "infinite", (0, 1, 2), False, 4),
    (("K3",), "infinite", (1, 0, 2), False, 4),
    (("K2+K1",), "infinite", (0, 1, 2), False, 4),
]
BENCHMARK_IDS = [
    "skew-K3-5", "skew-E2-6", "skew-E2loop-6", "easy-E2loop-6", "skew-K2+P3-4", "skew-K2-5",
    "skew-K2loop-4", "skew-K2loop-5", "easy-K2loop-4", "easy-K2loop-5",
    "finite-E2-4", "finite-P3-4", "finite-K2+K1-4", "infinite-P3-4", "infinite-K3-4", "infinite-K2+K1-4",
]


def assert_closure_matches_the_reference(fib):
    pairs = closure_pairs(fib)
    assert [g for g, _ in pairs] == reference_closure(fib)
    for g, words in pairs:
        assert words == fiber_generators(fib, g) == reference_fiber_words(fib, g)


def benchmark_fibration(shapes, kind, visited, easy, bound):
    word = BENCHMARK_WORDS[kind](visited)
    gens = [BilabelledGraph(BENCHMARK_SHAPES[s], (), word) for s in shapes]
    policy = MembershipPolicy() if kind == "racg" else BENCHMARK_BFS
    return GraphFibration(gens, easy=easy, max_vertices=bound, policy=policy)


@pytest.mark.parametrize("params", BENCHMARK_FIBRATIONS, ids=BENCHMARK_IDS)
def test_closure_matches_the_reference_at_benchmark_sizes(params):
    assert_closure_matches_the_reference(benchmark_fibration(*params))


# Boundary words over four letters: members and non-members of the benchmark
# fibres, reduced and not, each split into a diagram's inputs and outputs.
RELATION_WORDS = [(), (0, 1, 0, 1), (1, 0, 1, 0), (0, 1), (0, 1, 1, 0), (0, 2, 0, 2), (2, 1, 0, 1, 0, 1, 2, 1), (0, 1, 2, 3)]


@pytest.mark.parametrize("params", BENCHMARK_FIBRATIONS, ids=BENCHMARK_IDS)
def test_one_graph_queries_match_a_spec_of_the_fibre_generators(params):
    # fiber_member and diagram_member build the fibre's closure themselves;
    # their answers are those of a spec built from fiber_generators
    fib = benchmark_fibration(*params)
    for n in range(5):
        for g in enumerate_graphs(n, loops=True):
            words = [w for w in RELATION_WORDS if all(x < n for x in w)]
            if not is_fiber(fib, g):
                for w in words:
                    with pytest.raises(ValueError, match="graph is not a fibre"):
                        fiber_member(fib, g, w)
                    assert diagram_member(fib, BilabelledGraph(g, w[:2][::-1], w[2:])) is Membership.NO
                continue
            spec = NormalClosureSpec(n, fiber_generators(fib, g), fib.policy)
            for w in words:
                got = fiber_member(fib, g, w)
                assert got is member(w, spec)
                assert diagram_member(fib, BilabelledGraph(g, w[:2][::-1], w[2:])) is got


def word_kinds(fib, n):
    """Which nonempty words of the copy list on ``n`` vertices read ``xyxy``."""
    return {pair is not None for _, w, pair in fibrations._copy_table(fib, n) if w}


# K2 with xyxy and P3 with xy, under the benchmark's search policy: from 3
# vertices on, each copy list mixes the two kinds of word
MIXED_WORD_FIBRATION = GraphFibration(
    [BilabelledGraph(complete(2), (), (0, 1, 0, 1)), BilabelledGraph(path(3), (), (0, 1))],
    max_vertices=5,
    policy=BENCHMARK_BFS,
)
XYXY_BFS_FIBRATION = GraphFibration(
    [BilabelledGraph(BENCHMARK_SHAPES["K2-loop"], (), (0, 1, 0, 1))], max_vertices=4, policy=BENCHMARK_BFS
)


def test_a_closure_whose_copy_lists_mix_word_kinds_matches_the_reference():
    assert [word_kinds(MIXED_WORD_FIBRATION, n) for n in range(6)] == [set(), set(), {True}] + [{True, False}] * 3
    assert_closure_matches_the_reference(MIXED_WORD_FIBRATION)


# K2+K1 with (xy)^3 and P3 with xyxy, searched to depth 0: from 3 vertices
# on, each copy list mixes the two kinds of word, and the search cannot show
# ``1010`` implied by ``0101`` beside the (xy)^3 words
SKEW_MIXED_DEPTH_0 = GraphFibration(
    [
        BilabelledGraph(disjoint_union(complete(2), edgeless(1)), (), (0, 1) * 3),
        BilabelledGraph(path(3), (), (0, 1, 0, 1)),
    ],
    max_vertices=4,
    policy=policy_from_json({"bounded-bfs": {"depth": 0}}),
)


def test_a_mixed_word_list_keeps_two_xyxy_words_of_one_letter_pair():
    fib = SKEW_MIXED_DEPTH_0
    assert word_kinds(fib, 4) == {True, False}
    both = [edges for n, edges, words in closure_graphs(fib) if n == 4 and {(0, 1, 0, 1), (1, 0, 1, 0)} <= set(words)]
    assert both == [[(0, 1), (0, 2), (1, 2)], [(0, 1), (0, 3), (1, 2)]]
    assert_closure_matches_the_reference(fib)


@pytest.mark.parametrize("fib", [XYXY_BFS_FIBRATION, MIXED_WORD_FIBRATION], ids=["xyxy", "mixed"])
def test_the_closure_classifies_each_copy_once_and_makes_one_auto_policy(fib, monkeypatch):
    # the xyxy test runs once per distinct pair of each vertex count's copy
    # list, not once per fibre; a list of xyxy words alone never reaches
    # prune_reduced_words, and the auto policy is made once per closure
    want = [w for n in range(fib.max_vertices + 1) for _, w, _ in fibrations._copy_table(fib, n)]
    xyxy = all(word_kinds(fib, n) <= {True} for n in range(fib.max_vertices + 1))
    classified, replaced, replace = [], [], MembershipPolicy.replace

    def counted_pair(w):
        classified.append(w)
        return commuting_pair(w)

    def counted_replace(policy, **changes):
        replaced.append(changes)
        return replace(policy, **changes)

    def refuse(*args):
        raise AssertionError("a list of xyxy words was pruned by prune_reduced_words")

    monkeypatch.setattr(fibrations, "commuting_pair", counted_pair)
    monkeypatch.setattr(MembershipPolicy, "replace", counted_replace)
    if xyxy:
        monkeypatch.setattr(fibrations, "prune_reduced_words", refuse)
    closure_graphs(fib)
    assert classified == want
    assert replaced == [{"strategy": "auto"}]


def benchmark_fibration_json(shapes, kind, visited, easy, bound):
    """The JSON of the fibration that ``test_closure_matches_the_reference_at_benchmark_sizes`` builds."""
    return {
        "generators": [
            {"graph": graph_to_json(BENCHMARK_SHAPES[s]), "inputs": [], "outputs": list(BENCHMARK_WORDS[kind](visited))}
            for s in shapes
        ],
        "easy": easy,
        "max_vertices": bound,
        "strategy": "auto" if kind == "racg" else BENCHMARK_BFS_JSON,
    }


with open(os.path.join(os.path.dirname(__file__), "fixtures", "edge_fibration.json"), encoding="utf-8") as fh:
    EDGE_FIBRATION_JSON = json.load(fh)


@pytest.mark.parametrize(
    "fibration",
    [benchmark_fibration_json(*params) for params in BENCHMARK_FIBRATIONS] + [EDGE_FIBRATION_JSON],
    ids=BENCHMARK_IDS + ["edge-fibration-fixture"],
)
def test_the_closure_listing_matches_one_built_from_graphs(fibration, tmp_path, capsys):
    # the listing reads each fibre's edges from its mask; the oracle builds a
    # Graph per fibre and writes it as graph_to_json does
    graphs = []
    for n, edges, words in closure_graphs(fibration_from_json(fibration)):
        entry = graph_to_json(Graph(n, edges))
        entry["fiber_generators"] = [list(w) for w in words]
        graphs.append(entry)
    want = json.dumps({"count": len(graphs), "graphs": graphs}, sort_keys=True) + "\n"
    path = tmp_path / "fibration.json"
    path.write_text(json.dumps(fibration))
    assert main(["closure", str(path)]) == 0
    assert capsys.readouterr() == (want, "")


def renumbered(d, sigma):
    """The diagram ``d`` with vertex ``v`` renamed ``sigma[v]``, its labels along."""
    g = Graph(d.graph.n, [(sigma[u], sigma[v]) for u, v in d.graph.edges])
    return BilabelledGraph(g, [sigma[v] for v in d.inputs], [sigma[v] for v in d.outputs])


@pytest.mark.parametrize("shapes, kind, visited, easy, bound", BENCHMARK_FIBRATIONS, ids=BENCHMARK_IDS)
def test_renumbering_the_generators_keeps_the_closure(shapes, kind, visited, easy, bound):
    # a renumbered generator has the same copies, met in another order: the
    # fibres stay, and each word kept of one listing lies in the closure of
    # the other's words for that fibre, though the two may keep other words
    word = BENCHMARK_WORDS[kind](visited)
    gens = [BilabelledGraph(BENCHMARK_SHAPES[s], (), word) for s in shapes]
    policy = MembershipPolicy() if kind == "racg" else BENCHMARK_BFS
    bound = min(bound, 4)
    want = closure_graphs(GraphFibration(gens, easy=easy, max_vertices=bound, policy=policy))
    for sigmas in product(*(permutations(range(d.graph.n)) for d in gens)):
        fib = GraphFibration(map(renumbered, gens, sigmas), easy=easy, max_vertices=bound, policy=policy)
        got = closure_graphs(fib)
        assert [(n, edges) for n, edges, _ in got] == [(n, edges) for n, edges, _ in want]
        for (n, _, ours), (_, _, theirs) in zip(got, want):
            for words, other in ((ours, theirs), (theirs, ours)):
                spec = NormalClosureSpec(n, other, MembershipPolicy())
                assert all(member(w, spec) is Membership.YES for w in words)


def reference_copy_table(fib, n):
    """The copy table with each map's copy mask from :func:`mask_of` over the
    images of the generator's edges: the distinct ``(mask, reduced word)``
    pairs in the order of their first map, as :func:`fibrations._copy_table`
    lists them, each with the sorted letter pair of a word ``xyxy``."""
    pairs = []
    for d in fib.generators:
        h = d.graph
        for phi in (product(range(n), repeat=h.n) if fib.easy else permutations(range(n), h.n)):
            pair = (
                mask_of(n, [(phi[u], phi[v]) for u, v in h.edges]),
                reduce_word(tuple(phi[v] for v in d.inputs[::-1] + d.outputs)),
            )
            if pair not in pairs:
                pairs.append(pair)
    return [(c, w, tuple(sorted(set(w))) if len(w) == 4 and w[0] != w[1] and w[2:] == w[:2] else None) for c, w in pairs]


COPY_SHAPES = dict(BENCHMARK_SHAPES, **{"C4": cycle(4), "E1": edgeless(1)})


@pytest.mark.parametrize("easy", [False, True], ids=["skew", "easy"])
@pytest.mark.parametrize("shape", sorted(COPY_SHAPES))
def test_the_copy_table_matches_one_keyed_by_mask_of(shape, easy):
    h = COPY_SHAPES[shape]
    gen = BilabelledGraph(h, (h.n - 1,), tuple(range(h.n)) + (0,))
    fib = GraphFibration([gen, commutator_generator(complete(2))], easy=easy, max_vertices=5)
    for n in range(6):
        assert fibrations._copy_table(fib, n) == reference_copy_table(fib, n)


def test_an_easy_map_folding_two_edges_onto_one_cell_sets_that_cell_once():
    # (0, 1, 0) sends both edges of P3 to the cell (0, 1): an OR of their
    # bits gives that cell, a sum would give the next one, the loop (1, 1)
    fib = GraphFibration([BilabelledGraph(path(3), (), (0, 1, 2, 1))], easy=True, max_vertices=2)
    table = fibrations._copy_table(fib, 2)
    assert table == reference_copy_table(fib, 2)
    assert [w for c, w, _ in table if c == mask_of(2, [(0, 1)])] == [(0, 1, 0, 1), (1, 0, 1, 0)]
    assert [w for c, w, _ in table if c == mask_of(2, [(1, 1)])] == [()]


# ---------------------------------------------------------------------------
# fibre generators


def test_path_fibre_generators():
    fib = edge_fibration(bound=4)
    assert fiber_generators(fib, path(3)) == ((0, 1, 0, 1), (1, 2, 1, 2))


def test_easy_fibre_generators_match_skew_on_loopless():
    skew = edge_fibration(bound=3)
    easy = edge_fibration(bound=3, easy=True)
    assert fiber_generators(easy, path(3)) == fiber_generators(skew, path(3))


def test_triangle_fibre_generators_deduplicate():
    fib = triangle_fibration(bound=4)
    gens = fiber_generators(fib, complete(3))
    assert len(gens) == 3
    spec = NormalClosureSpec(3, list(gens), MembershipPolicy("racg"))
    from graphfib.freeprod import member

    for w in ((1, 0, 1, 0), (2, 0, 2, 0), (2, 1, 2, 1)):
        assert member(w, spec) is Membership.YES


def test_fiber_generators_requires_a_fibre():
    fib = triangle_fibration(bound=4)
    with pytest.raises(ValueError):
        fiber_generators(fib, path(3))


def test_fiber_member_tristate():
    fib = edge_fibration(bound=4)
    assert fiber_member(fib, path(3), (0, 1, 0, 1)) is Membership.YES
    assert fiber_member(fib, path(3), (2, 1, 0, 1, 0, 1, 2, 1)) is Membership.YES
    assert fiber_member(fib, path(3), (0, 1)) is Membership.NO
    assert fiber_member(fib, path(3), (0, 2, 0, 2)) is Membership.NO
    shallow = edge_fibration(bound=4, policy=MembershipPolicy("bounded-bfs", bfs_depth=0))
    assert fiber_member(shallow, path(3), (2, 1, 0, 1, 0, 1, 2, 1)) is Membership.UNKNOWN


# ---------------------------------------------------------------------------
# diagram membership


def test_diagram_member():
    fib = edge_fibration(bound=4)
    inside = BilabelledGraph(path(3), (0,), (1, 0, 1))
    assert diagram_member(fib, inside) is Membership.YES
    outside = BilabelledGraph(path(3), (0,), (1,))
    assert diagram_member(fib, outside) is Membership.NO
    # the boundary word 0 1 1 1 0 1 is reduced to the commutator 0 1 0 1 before the query
    assert diagram_member(fib, BilabelledGraph(path(3), (1, 0), (1, 1, 0, 1))) is Membership.YES
    assert diagram_member(fib, BilabelledGraph(path(3), (1, 0), (1, 2))) is Membership.NO
    not_fibre = BilabelledGraph(Graph(1, [(0, 0)]), (), ())
    assert diagram_member(fib, not_fibre) is Membership.NO
    with pytest.raises(CapacityError):
        diagram_member(fib, BilabelledGraph(edgeless(5), (), ()))


def test_diagram_member_scalars():
    fib = edge_fibration(bound=4)
    assert diagram_member(fib, BilabelledGraph(edgeless(0), (), ())) is Membership.YES
    assert diagram_member(fib, m_diagram(1, 1)) is Membership.YES


def test_diagram_member_enumerates_the_generator_copies_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_homomorphisms(*args, **kwargs)

    monkeypatch.setattr(fibrations, "enumerate_homomorphisms", counting)
    fib = edge_fibration(bound=4)
    assert diagram_member(fib, BilabelledGraph(path(3), (0,), (1, 0, 1))) is Membership.YES
    assert len(calls) == 1
    calls.clear()
    assert diagram_member(fib, BilabelledGraph(Graph(3, [(0, 1), (1, 1)]), (), ())) is Membership.NO
    assert len(calls) == 1


def counting_letter_checks(monkeypatch):
    """The words ``freeprod.validate_word`` reads from here on, one per call."""
    calls, validate_word = [], freeprod.validate_word

    def counting(letters, alphabet_size):
        calls.append(tuple(letters))
        return validate_word(letters, alphabet_size)

    monkeypatch.setattr(freeprod, "validate_word", counting)
    return calls


def test_a_one_graph_query_reads_each_fibre_word_once(monkeypatch):
    # the copies' words are reduced where their maps are met, so the fibre's
    # spec reads each kept word once, and the query reads its own word once
    fib = edge_fibration(bound=4)
    calls = counting_letter_checks(monkeypatch)
    assert diagram_member(fib, BilabelledGraph(cycle(4), (), (0, 1, 0, 1))) is Membership.YES
    assert len(calls) == 5 and len(set(calls)) == 4
    calls.clear()
    assert fiber_member(fib, cycle(4), (0, 1, 0, 1)) is Membership.YES
    assert len(calls) == 5 and len(set(calls)) == 4


def test_the_recovery_check_reads_each_fibre_word_once(monkeypatch):
    # the closure's own words are checked and reduced already, so only the
    # fibre's kept words are read
    closure = NormalClosureSpec(4, [(0, 1, 0, 1), (2, 3, 2, 3)])
    calls = counting_letter_checks(monkeypatch)
    fibration_from_group(cycle(4), closure)
    assert len(calls) == 4 and len(set(calls)) == 4


def test_the_capacity_error_names_the_query_bound():
    with pytest.raises(CapacityError, match="bounded by max_vertices=4, graph has 5 vertices"):
        is_fiber(edge_fibration(bound=4), edgeless(5))


# ---------------------------------------------------------------------------
# greatest fibre subgraph


def test_greatest_subgraph_strips_pendant_edges():
    fib = triangle_fibration(bound=4)
    host = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    best = greatest_subgraph(fib, host)
    assert best.n == 4
    assert best.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_greatest_subgraph_is_the_unique_maximal_fibre_subgraph():
    fib = triangle_fibration(bound=4)
    host = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    best = greatest_subgraph(fib, host)
    edges = sorted(host.edges)
    fibres = []
    for mask in range(1 << len(edges)):
        sub = Graph(host.n, [e for i, e in enumerate(edges) if mask >> i & 1])
        if is_fiber(fib, sub):
            fibres.append(sub.edges)
    maximal = [s for s in fibres if not any(s < t for t in fibres)]
    assert maximal == [best.edges]
    assert all(s <= best.edges for s in fibres)


# ---------------------------------------------------------------------------
# constructing fibrations from group data


def test_from_group_trivial_closure_gives_trivial_fibre_groups():
    g = disjoint_union(complete(2), edgeless(1))
    fib = fibration_from_group(g, NormalClosureSpec(3, []), max_vertices=3)
    pairs = closure_pairs(fib)
    assert all(not m.edges for m, _ in pairs)
    assert all(words == fiber_generators(fib, m) == () for m, words in pairs)


def test_from_group_commutator_closure():
    g = disjoint_union(complete(2), edgeless(1))
    spec = NormalClosureSpec(3, [(0, 1, 0, 1)], MembershipPolicy("racg"))
    fib = fibration_from_group(g, spec, max_vertices=4)
    assert fib.generators == (BilabelledGraph(g, (), (0, 1, 0, 1)),)
    assert fiber_member(fib, g, (0, 1, 0, 1)) is Membership.YES
    # the host graph has three vertices, so two-vertex graphs never appear
    assert layer_counts(closure_members(fib))[2] == 1


FIBRE_QUERIES_WITHOUT_A_CLOSURE = {
    "from-group-C7": ("""
spec = NormalClosureSpec(7, [(0, 1, 0, 1)])
fib = fibration_from_group(cycle(7), spec)
print(fib.max_vertices, fiber_member(fib, cycle(7), (0, 1, 0, 1)).value)
""", "7 yes"),
    "skew-K3-at-7": ("""
fib = GraphFibration([BilabelledGraph(complete(3), (), (0, 1, 0, 1))], max_vertices=7)
print(fib.max_vertices, is_fiber(fib, complete(3)))
""", "7 True"),
    "from-group-C9": ("""
spec = NormalClosureSpec(9, [(0, 1, 0, 1)])
fib = fibration_from_group(cycle(9), spec)
print(fib.max_vertices, fiber_member(fib, cycle(9), (0, 1, 0, 1)).value)
""", "9 yes"),
}


@pytest.mark.parametrize("case", sorted(FIBRE_QUERIES_WITHOUT_A_CLOSURE))
def test_fibre_queries_do_not_build_the_closure(case):
    # Listing every fibre on 7 vertices takes tens of seconds, and canonical
    # forms stop at 8 vertices; a query about one graph needs neither.  The
    # child process fails the test at its timeout instead of stalling.
    query, want = FIBRE_QUERIES_WITHOUT_A_CLOSURE[case]
    script = (
        "from graphfib.diagrams import BilabelledGraph\n"
        "from graphfib.fibrations import GraphFibration, fiber_member, fibration_from_group, is_fiber\n"
        "from graphfib.freeprod import NormalClosureSpec\n"
        "from graphfib.graphs import complete, cycle\n"
        + query
    )
    src = os.path.dirname(os.path.dirname(graphfib.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == want


def test_from_group_alphabet_mismatch():
    with pytest.raises(ValueError):
        fibration_from_group(path(3), NormalClosureSpec(2, []))


def test_from_group_easy_rejects_non_invariant_closure():
    spec = NormalClosureSpec(3, [(0, 1)], MembershipPolicy("bounded-bfs"))
    with pytest.raises(ValueError):
        fibration_from_group(path(3), spec, easy=True)


def test_from_group_easy_unknown_invariance_is_indeterminate():
    spec = NormalClosureSpec(3, [(0, 1, 0, 1)], MembershipPolicy("bounded-bfs", bfs_depth=0))
    with pytest.raises(IndeterminateError):
        fibration_from_group(path(3), spec, easy=True)


def test_from_group_easy_accepts_invariant_closure():
    g = disjoint_union(complete(2), edgeless(1))
    spec = NormalClosureSpec(3, [(0, 1, 0, 1)], MembershipPolicy("racg"))
    fib = fibration_from_group(g, spec, easy=True, max_vertices=3)
    assert is_fiber(fib, add_loops_everywhere(complete(2)))


# ---------------------------------------------------------------------------
# fully looped graphs appear exactly when an easy generator has an edge


def test_looped_graphs_in_easy_closures():
    easy = edge_fibration(bound=3, easy=True)
    for n in range(4):
        for base in enumerate_graphs(n):
            assert is_fiber(easy, add_loops_everywhere(base))
    skew = edge_fibration(bound=3)
    assert not is_fiber(skew, add_loops_everywhere(complete(2)))
    bare = GraphFibration([BilabelledGraph(edgeless(1), (), ())], easy=True, max_vertices=3)
    assert not is_fiber(bare, Graph(1, [(0, 0)]))


# ---------------------------------------------------------------------------
# serialization


def test_fibration_json_round_trip():
    fib = edge_fibration(bound=4, policy=MembershipPolicy("bounded-bfs", bfs_depth=3))
    obj = {
        "generators": [{"graph": {"n": 2, "edges": [[0, 1]]}, "inputs": [], "outputs": [0, 1, 0, 1]}],
        "easy": False,
        "max_vertices": 4,
        "strategy": {"bounded-bfs": {"depth": 3, "max_len": 24}},
    }
    back = fibration_from_json(obj)
    assert back.generators == fib.generators
    assert back.easy == fib.easy
    assert back.max_vertices == 4
    assert back.policy.strategy == "bounded-bfs"
    assert back.policy.bfs_depth == 3


def test_a_fibration_is_read_only_and_equal_by_its_fields():
    fib, same = edge_fibration(bound=4), edge_fibration(bound=4)
    for name in ("generators", "easy", "max_vertices", "policy", "extra"):
        with pytest.raises(AttributeError):
            setattr(fib, name, None)
    assert fib == same and hash(fib) == hash(same)
    assert fib != edge_fibration(bound=5) and fib != edge_fibration(bound=4, easy=True)


def test_fibration_json_rejects_garbage():
    with pytest.raises(ValueError):
        fibration_from_json({"generators": [], "strategy": {"dfs": {}}})
    with pytest.raises(ValueError):
        fibration_from_json([])
    for bad in (5, {"depth": "3"}, {"depth": -1}, {"depth": 3, "width": 2}):
        with pytest.raises(ValueError):
            fibration_from_json({"generators": [], "strategy": {"bounded-bfs": bad}})


def test_a_fibration_refuses_a_policy_that_is_not_a_membership_policy():
    for policy in ("auto", "racg", None, tuple(MembershipPolicy())):
        with pytest.raises(ValueError, match="policy must be a MembershipPolicy"):
            GraphFibration([commutator_generator(complete(2))], policy=policy)
