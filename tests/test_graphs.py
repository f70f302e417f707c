"""Graph primitives: quotients, unions, homomorphism counts, canonical forms."""

from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfib.errors import CapacityError
from graphfib.graphs import (
    Graph,
    add_loops_everywhere,
    automorphism_generators,
    automorphisms,
    canonical_form,
    cell_bits,
    complete,
    cycle,
    disjoint_union,
    edgeless,
    enumerate_homomorphisms,
    enumerate_overlaps,
    f_union,
    generated_partition,
    glue,
    graph_from_json,
    mask_edges,
    mask_of,
    mask_orbit,
    parse_graph6,
    path,
    quotient,
)
from graphfib.partitions import enumerate_partitions
from reference import (
    canonical_key,
    components_partition,
    enumerate_graphs,
    explicit_f_union,
    graph_to_json,
    shifted_union,
)


def small_graphs():
    out = []
    for n in range(5):
        out.extend(enumerate_graphs(n))
    return out


# ---------------------------------------------------------------------------
# construction and validation


def test_graph_normalizes_and_validates():
    g = Graph(3, [(2, 1), (1, 2), (0, 0)])
    assert g.edges == frozenset({(1, 2), (0, 0)})
    assert g.has_edge(2, 1) and g.has_edge(1, 2)
    assert (0, 0) in g.edges and (1, 1) not in g.edges
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(1, [(-1, 0)])


def test_constructors():
    assert complete(3).edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert path(3).edges == frozenset({(0, 1), (1, 2)})
    assert Graph(0, []).n == 0
    looped = add_loops_everywhere(path(2))
    assert looped.edges == frozenset({(0, 1), (0, 0), (1, 1)})
    both = disjoint_union(complete(2), edgeless(1))
    assert both.n == 3 and both.edges == frozenset({(0, 1)})


# ---------------------------------------------------------------------------
# quotients


def test_quotient_path_endpoints_merged():
    g = quotient(path(3), (0, 1, 0))
    assert g == Graph(2, [(0, 1)])


def test_quotient_singletons_is_identity():
    for g in small_graphs():
        assert quotient(g, tuple(range(g.n))) == g


def test_quotient_edge_to_loop():
    g = quotient(complete(2), (0, 0))
    assert g.n == 1 and g.edges == frozenset({(0, 0)})


def test_iterated_quotients_compose():
    """Quotienting twice equals quotienting once by the joined partition."""
    for g in small_graphs():
        if g.n > 4:
            continue
        for block_of in enumerate_partitions(g.n):
            q1 = quotient(g, block_of)
            assert q1.n == len(set(block_of))
            for block_of2 in enumerate_partitions(q1.n):
                joined = tuple(block_of2[b] for b in block_of)
                assert quotient(g, joined) == quotient(q1, block_of2)


# ---------------------------------------------------------------------------
# f-unions


def test_f_union_empty_overlap_is_disjoint_union():
    g, mk, mh = f_union(complete(2), path(3), ())
    want = shifted_union(complete(2), path(3))
    assert g.n == want.n and g.edges == want.edges
    assert disjoint_union(complete(2), path(3)) == want
    assert list(mk) == [0, 1] and list(mh) == [2, 3, 4]


def test_f_union_full_identification_is_idempotent():
    e = complete(2)
    g, mk, mh = f_union(e, e, ((0, 0), (1, 1)))
    assert g.n == 2 and g.edges == frozenset({(0, 1)})
    assert list(mk) == list(mh)


def test_f_union_glue_two_edges_into_path():
    g, _, _ = f_union(complete(2), complete(2), ((1, 0),))
    assert canonical_key(g) == canonical_key(path(3))


def test_f_union_size_formula_and_no_new_loops():
    for k in (complete(2), path(3), complete(3)):
        for h in (complete(2), path(3)):
            for f in enumerate_overlaps(k.n, h.n):
                g, mk, mh = f_union(k, h, f)
                assert g.n == k.n + h.n - len(f)
                assert not any(u == v for u, v in g.edges)
                for u, v in f:
                    assert mk[u] == mh[v]


def test_f_union_rejects_bad_overlaps():
    with pytest.raises(ValueError):
        f_union(complete(2), complete(2), ((0, 5),))
    with pytest.raises(ValueError):
        f_union(complete(2), complete(2), ((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        f_union(complete(2), complete(2), ((0, 0), (1, 0)))


def test_f_union_commutes_up_to_isomorphism():
    for k in (path(3), complete(3)):
        for h in (complete(2), path(3)):
            for f in enumerate_overlaps(k.n, h.n):
                left, _, _ = f_union(k, h, f)
                right, _, _ = f_union(h, k, tuple((v, u) for u, v in f))
                assert canonical_key(left) == canonical_key(right)


@st.composite
def small_graph(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    cells = [(u, v) for u in range(n) for v in range(u, n)]
    return Graph(n, draw(st.sets(st.sampled_from(cells))) if cells else ())


@st.composite
def glue_instance(draw):
    k, h = draw(small_graph()), draw(small_graph())
    size = draw(st.integers(min_value=0, max_value=min(k.n, h.n)))
    left = draw(st.permutations(range(k.n)))[:size]
    right = draw(st.permutations(range(h.n)))[:size]
    return k, h, tuple(zip(left, right))


@settings(max_examples=200, deadline=None)
@given(glue_instance())
def test_f_union_matches_the_explicit_numbering(case):
    k, h, f = case
    assert f_union(k, h, f) == explicit_f_union(k, h, f)


@st.composite
def glue_pairs(draw):
    """Two small graphs and any pairs between them: repeated, sharing a
    vertex on either side, or none."""
    k, h = draw(small_graph()), draw(small_graph())
    if not (k.n and h.n):
        return k, h, []
    pair = st.tuples(st.integers(0, k.n - 1), st.integers(0, h.n - 1))
    return k, h, draw(st.lists(pair, max_size=6))


@settings(max_examples=200, deadline=None)
@given(glue_pairs())
def test_glue_is_the_quotient_of_the_shifted_union_by_its_pairs(case):
    k, h, pairs = case
    union = shifted_union(k, h)
    block_of = components_partition(union.n, [(u, k.n + v) for u, v in pairs])
    g, mk, mh = glue(k, h, pairs)
    assert g == quotient(union, block_of)
    assert mk + mh == block_of
    injective = all(len({p[side] for p in pairs}) == len(pairs) for side in (0, 1))
    if injective:
        assert (g, mk, mh) == f_union(k, h, pairs)


def test_f_union_numbers_every_small_overlap_as_glue_does():
    # f_union numbers the glued vertices itself; glue's union-find is the
    # oracle, on every overlap between graphs of at most 3 vertices
    graphs = [g for n in range(4) for g in enumerate_graphs(n, loops=True)]
    for k in graphs:
        for h in graphs:
            for f in enumerate_overlaps(k.n, h.n):
                assert f_union(k, h, f) == glue(k, h, f)


def test_enumerate_overlaps_counts():
    assert len(enumerate_overlaps(2, 2)) == 7
    assert len(enumerate_overlaps(3, 3)) == 34
    assert len(enumerate_overlaps(0, 3)) == 1


# ---------------------------------------------------------------------------
# homomorphisms


def test_hom_edge_into_triangle():
    homs = enumerate_homomorphisms(complete(2), complete(3))
    assert len(homs) == 6
    assert homs == sorted(homs)
    assert all(a != b for a, b in homs)


def test_hom_single_vertex_goes_anywhere():
    for g in (complete(3), path(3), edgeless(4)):
        assert len(enumerate_homomorphisms(edgeless(1), g)) == g.n


def test_hom_triangle_into_edge_impossible():
    assert enumerate_homomorphisms(complete(3), complete(2)) == []


def test_hom_null_graph_has_one_empty_map():
    assert enumerate_homomorphisms(Graph(0, []), complete(3)) == [()]


def test_hom_loop_semantics():
    loop = Graph(1, [(0, 0)])
    assert enumerate_homomorphisms(complete(2), loop) == [(0, 0)]
    assert enumerate_homomorphisms(complete(2), edgeless(1)) == []
    assert enumerate_homomorphisms(loop, complete(2)) == []
    assert enumerate_homomorphisms(loop, loop) == [(0,)]


def test_hom_injectivity():
    inj = enumerate_homomorphisms(path(3), complete(3), injective=True)
    assert len(inj) == 6
    assert all(len(set(m)) == 3 for m in inj)


def edge_keeping_maps(k, g, injective):
    """Every vertex map ``k -> g`` in lexicographic order, filtered: the oracle of the search."""
    return [
        phi
        for phi in product(range(g.n), repeat=k.n)
        if all(g.has_edge(phi[u], phi[v]) for u, v in k.edges) and not (injective and len(set(phi)) < k.n)
    ]


@settings(max_examples=200, deadline=None)
@given(small_graph(), small_graph(), st.booleans())
def test_enumeration_lists_every_edge_keeping_map_in_order(k, g, injective):
    assert enumerate_homomorphisms(k, g, injective) == edge_keeping_maps(k, g, injective)


@st.composite
def hosts_with_high_edges(draw):
    # 31 to 70 vertices, every edge and loop among the last eight: the
    # search's bitmasks of images run past one 30-bit digit
    n = draw(st.integers(31, 70))
    cells = [(u, v) for u in range(n - 8, n) for v in range(u, n)]
    return Graph(n, draw(st.sets(st.sampled_from(cells), max_size=12)))


@settings(max_examples=40, deadline=None)
@given(small_graph(3), hosts_with_high_edges(), st.booleans())
def test_enumeration_with_multi_digit_masks_lists_every_edge_keeping_map(k, g, injective):
    assert enumerate_homomorphisms(k, g, injective) == edge_keeping_maps(k, g, injective)


def test_hom_counts_moebius_scalar_shadow():
    """Total maps split by image pattern: hom = sum of injective over merges."""
    hosts = [complete(2), complete(3), path(3), disjoint_union(complete(2), edgeless(1))]
    for k in small_graphs():
        if k.n > 4:
            continue
        for g in hosts:
            total = len(enumerate_homomorphisms(k, g))
            by_merge = 0
            for block_of in enumerate_partitions(k.n):
                q = quotient(k, block_of)
                by_merge += len(enumerate_homomorphisms(q, g, injective=True))
            assert total == by_merge


# ---------------------------------------------------------------------------
# automorphisms


def test_automorphism_counts():
    assert len(automorphisms(complete(2))) == 2
    assert automorphisms(edgeless(1)) == [(0,)]
    assert len(automorphisms(disjoint_union(complete(2), edgeless(1)))) == 2
    assert len(automorphisms(path(3))) == 2
    assert len(automorphisms(complete(4))) == 24


def test_automorphisms_form_a_group():
    for g in (path(3), complete(3), disjoint_union(complete(2), edgeless(1))):
        auts = set(automorphisms(g))
        assert tuple(range(g.n)) in auts
        for s in auts:
            inv = tuple(sorted(range(g.n), key=lambda v: s[v]))
            assert inv in auts
            for t in auts:
                assert tuple(t[s[v]] for v in range(g.n)) in auts


@settings(max_examples=200, deadline=None)
@given(small_graph())
def test_automorphisms_are_the_edge_preserving_permutations_in_order(g):
    preserving = [p for p in permutations(range(g.n)) if all(g.has_edge(p[u], p[v]) for u, v in g.edges)]
    assert automorphisms(g) == preserving


def test_the_generator_search_hands_over_a_generator_before_finishing():
    # 30! automorphisms: the first generator comes from one pinned search
    assert next(automorphism_generators(edgeless(30))) == tuple(range(28)) + (29, 28)


# ---------------------------------------------------------------------------
# canonical forms


def test_canonical_key_relabel_invariance():
    a = path(3)
    b = Graph(3, [(2, 0), (0, 1)])
    assert canonical_key(a) == canonical_key(b)


def test_canonical_key_separates():
    assert canonical_key(complete(2)) != canonical_key(edgeless(2))
    assert canonical_key(complete(3)) != canonical_key(path(3))


def test_canonical_key_capacity_bound():
    with pytest.raises(CapacityError):
        canonical_key(edgeless(9))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_key_invariant_under_permutation(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    cells = [(u, v) for u in range(n) for v in range(u, n)]
    chosen = data.draw(st.sets(st.sampled_from(cells)))
    g = Graph(n, chosen)
    perm = data.draw(st.permutations(range(n)))
    relabeled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    assert canonical_key(g) == canonical_key(relabeled)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_canonical_perm_is_the_first_permutation_reaching_the_least_mask(data):
    n = data.draw(st.integers(min_value=0, max_value=6))
    cells = [(u, v) for u in range(n) for v in range(u, n)]
    g = Graph(n, data.draw(st.sets(st.sampled_from(cells)) if cells else st.just(())))
    masks = {perm: mask_of(n, [(perm[u], perm[v]) for u, v in g.edges]) for perm in permutations(range(n))}
    least = min(masks.values())
    ties = [perm for perm, m in masks.items() if m == least]
    assert canonical_form(g) == ((n, least), ties[0])


def test_a_mask_reads_pairs_in_either_order():
    # cells row-major with the diagonal: on 3 vertices (0, 1) is bit 1 and (2, 2) bit 5
    assert mask_of(3, [(1, 0), (2, 2)]) == mask_of(3, [(0, 1), (2, 2)]) == 0b100010
    assert mask_of(0, []) == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_mask_is_that_of_its_graph(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=12))  # loops and both orders
    g = Graph(n, pairs)
    mask = mask_of(n, pairs)
    assert mask == mask_of(n, [(v, u) for u, v in pairs]) == mask_of(n, g.edges)
    assert Graph(n, mask_edges(n, mask)).edges == g.edges
    assert mask_edges(n, mask) == sorted(g.edges)


@pytest.mark.parametrize("n", range(9))
def test_cell_bits_and_mask_edges_read_one_numbering(n):
    # cells row-major with the diagonal, each pair in both orders
    cells = [(u, v) for u in range(n) for v in range(u, n)]
    bits = cell_bits(n)
    assert all(bits[u][v] == bits[v][u] == 1 << i for i, (u, v) in enumerate(cells))
    assert mask_edges(n, (1 << len(cells)) - 1) == cells
    assert all(mask_edges(n, 1 << i) == [cell] for i, cell in enumerate(cells))


def test_cell_bits_are_refused_past_the_canonical_bound():
    for call in (lambda: cell_bits(9), lambda: mask_of(9, [(0, 1)]), lambda: mask_of(1000, [])):
        with pytest.raises(CapacityError):
            call()


def relabelled_masks(n, mask):
    """The oracle for :func:`mask_orbit`: the mask of each relabeled graph, one permutation at a
    time, in lexicographic order."""
    g = Graph(n, mask_edges(n, mask))
    return [mask_of(n, [(perm[u], perm[v]) for u, v in g.edges]) for perm in permutations(range(n))]


@pytest.mark.parametrize("n", range(5))
def test_the_orbit_of_every_small_mask_is_every_relabelling(n):
    cells = n * (n + 1) // 2  # loops included: 1,024 masks on 4 vertices
    for mask in range(1 << cells):
        orbit = mask_orbit(n, mask)
        assert orbit.tolist() == relabelled_masks(n, mask)
        assert min(orbit) == canonical_key(Graph(n, mask_edges(n, mask)))[1]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_orbit_of_a_mask_is_every_relabelling(data):
    n = data.draw(st.integers(min_value=0, max_value=6))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n * (n + 1) // 2) - 1))
    orbit = mask_orbit(n, mask)
    assert orbit.tolist() == relabelled_masks(n, mask)
    assert min(orbit) == canonical_key(Graph(n, mask_edges(n, mask)))[1]


def bipartite(a, b):
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


# the spiders with legs 1, 2, 3 and 1, 2, 4 are asymmetric trees; a loop on the long leg's end keeps them so
ASYMMETRIC = {
    7: Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 6)]),
    8: Graph(8, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 7)]),
}
AT_THE_BOUND = [
    pytest.param(g, id=f"{name}-{n}")
    for n, (a, b) in ((7, (3, 4)), (8, (4, 4)))
    for name, g in (
        ("edgeless", edgeless(n)),
        ("loop", Graph(n, [(n - 1, n - 1)])),
        ("cycle", cycle(n)),
        (f"K{a},{b}", bipartite(a, b)),
        ("asymmetric-tree", ASYMMETRIC[n]),
        ("full", add_loops_everywhere(complete(n))),
    )
]


@pytest.mark.parametrize("g", AT_THE_BOUND)
def test_orbits_and_canonical_forms_at_the_bound_match_one_permutation_at_a_time(g):
    n, mask = g.n, mask_of(g.n, g.edges)
    orbit = mask_orbit(n, mask)
    assert orbit.tolist() == relabelled_masks(n, mask)
    masks = {perm: mask_of(n, [(perm[u], perm[v]) for u, v in g.edges]) for perm in permutations(range(n))}
    least = min(masks.values())
    ties = [perm for perm, m in masks.items() if m == least]
    assert canonical_form(g) == ((n, least), ties[0])
    if g is ASYMMETRIC[n]:
        assert len(set(orbit)) == factorial(n)


@pytest.mark.parametrize("n", range(9))
def test_the_relabelings_fill_one_slot_per_permutation_wide_enough_for_every_cell(n):
    cells = n * (n + 1) // 2
    masks = mask_orbit(n, (1 << cells) - 1)
    assert masks.itemsize * 8 >= cells
    assert masks.itemsize == (1 if n <= 3 else 2 if n <= 5 else 4 if n <= 7 else 8)  # the narrowest that holds them
    assert len(masks) == factorial(n)
    assert set(masks) == {(1 << cells) - 1}


def test_the_orbit_of_a_mask_has_the_capacity_bound():
    for n, mask in ((9, 0), (9, 1), (12, 3)):
        with pytest.raises(CapacityError):
            mask_orbit(n, mask)
    with pytest.raises(CapacityError):
        canonical_form(edgeless(9))


# ---------------------------------------------------------------------------
# enumeration and partitions of vertex sets


def reference_graph_masks(n, loops):
    """The least masks of the graphs on ``n`` vertices, found one candidate
    mask at a time: a mask over the allowed cells is kept unless some
    relabeling lowers it, and the check stops at the first that does."""
    cells = [(u, v) for u in range(n) for v in range(u, n)]
    index = {cell: i for i, cell in enumerate(cells)}
    moves = [[index[min(p[u], p[v]), max(p[u], p[v])] for u, v in cells] for p in permutations(range(n))]
    allowed = [i for i, (u, v) in enumerate(cells) if loops or u != v]
    masks = []
    for sub in range(1 << len(allowed)):
        bits = [c for j, c in enumerate(allowed) if sub >> j & 1]
        mask = sum(1 << c for c in bits)
        if all(sum(1 << tab[c] for c in bits) >= mask for tab in moves[1:]):
            masks.append(mask)
    return sorted(masks)


@pytest.mark.parametrize("n, loops", [(n, False) for n in range(6)] + [(n, True) for n in range(5)])
def test_enumerate_graphs_matches_the_minimality_check(n, loops):
    assert [mask_of(g.n, g.edges) for g in enumerate_graphs(n, loops)] == reference_graph_masks(n, loops)


def test_enumerate_graphs_counts():
    assert [len(enumerate_graphs(n)) for n in range(6)] == [1, 1, 2, 4, 11, 34]
    assert [len(enumerate_graphs(n, loops=True)) for n in range(4)] == [1, 2, 6, 20]


def test_enumerate_graphs_yields_canonical_representatives():
    reps = enumerate_graphs(4, loops=True)
    keys = [canonical_key(g) for g in reps]
    assert len(keys) == len(set(keys))


def test_generated_and_joined_partitions():
    assert generated_partition(4, [(0, 1), (2, 3)]) == (0, 0, 1, 1)
    assert generated_partition(5, [(4, 1), (3, 0), (1, 2)]) == (0, 1, 1, 0, 1)
    assert generated_partition(0, []) == ()


@st.composite
def merged_pairs(draw, max_n=8):
    """A vertex count and up to eight pairs of its vertices to merge."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        return n, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=8))


@settings(max_examples=300, deadline=None)
@given(merged_pairs())
def test_generated_partition_numbers_components_by_least_member(case):
    n, pairs = case
    assert generated_partition(n, pairs) == components_partition(n, pairs)


# ---------------------------------------------------------------------------
# serialization


def test_graph_json_round_trip():
    g = Graph(3, [(0, 0), (1, 2)])
    obj = graph_to_json(g)
    assert obj == {"n": 3, "edges": [[0, 0], [1, 2]]}
    back = graph_from_json(obj)
    assert back.n == g.n and back.edges == g.edges


def test_graph_json_rejects_a_bool_vertex_count():
    with pytest.raises(ValueError):
        graph_from_json({"n": True, "edges": []})


def test_graph6_reader():
    g = parse_graph6("Bw")
    assert g.n == 3 and g.edges == complete(3).edges
    withloops = graph_from_json({"graph6": "Bw", "loops": [0]})
    assert (0, 0) in withloops.edges and (1, 1) not in withloops.edges
    # exactly 1 + ceil(n(n-1)/12) characters, the padding bits zero
    for text in ("", "Bw~~~~", "Bx"):
        with pytest.raises(ValueError):
            parse_graph6(text)
