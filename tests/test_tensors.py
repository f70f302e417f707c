"""Exact integer tensors from homomorphism counts and their identities."""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphfib import graphs, tensors
from graphfib.diagrams import (
    BilabelledGraph,
    bl_f_compose,
    bl_f_union,
    m_diagram,
    required_composition_pairs,
    rotate_left,
)
from graphfib.graphs import (
    BIT_LIST_BOUND,
    EAGER_ROWS_BOUND,
    Graph,
    automorphism_generators,
    complete,
    cycle,
    disjoint_union,
    edgeless,
    enumerate_homomorphisms,
    enumerate_overlaps,
    path,
)
from graphfib.partitions import enumerate_set_partitions, from_blocks, ker
from graphfib.tensors import (
    IntTensor,
    adjoint,
    build_partition_That,
    build_T,
    build_That,
    compare_tensors,
    compose,
    exact_rank,
    moebius_expand,
    tally,
    tensor_add,
    tensor_from_json,
    tensor_product,
    tensor_scale,
    tensor_to_csv,
    tensor_to_json,
    verify_functor,
    verify_that_sums,
    zero_tensor,
)
from reference import brute_force_counts, build_partition_T

EDGE_DIAGRAM = BilabelledGraph(complete(2), (0,), (1,))
HOSTS = [complete(2), complete(3), path(3), disjoint_union(complete(2), edgeless(1))]


def falling(n, k):
    out = 1
    for i in range(k):
        out *= n - i
    return out


def all_tuples(n, m):
    out = [()]
    for _ in range(m):
        out = [t + (x,) for t in out for x in range(n)]
    return out


# ---------------------------------------------------------------------------
# the tensor container


def test_int_tensor_addressing():
    t = IntTensor(2, 1, 1, [1, 2, 3, 4])
    assert t.shape() == (2, 1, 1)
    assert t.entry((0,), (0,)) == 1
    assert t.entry((0,), (1,)) == 2
    assert t.entry((1,), (0,)) == 3
    assert any(t.entries)
    assert not any(zero_tensor(3, 1, 2).entries)


def test_int_tensor_validates_length():
    with pytest.raises(ValueError):
        IntTensor(2, 1, 1, [1, 2, 3])


def test_a_tensor_is_not_hashable():
    # ``tally`` counts into the entries in place, so a hash would go stale
    with pytest.raises(TypeError):
        hash(zero_tensor(2, 1, 1))


def test_compare_tensors_locates_first_difference():
    a = IntTensor(2, 1, 1, [1, 2, 3, 4])
    b = IntTensor(2, 1, 1, [1, 2, 5, 4])
    diff = compare_tensors(a, b)
    assert diff == {"row": [1], "col": [0], "lhs": 3, "rhs": 5}
    assert compare_tensors(a, a) is None
    with pytest.raises(ValueError):
        compare_tensors(a, zero_tensor(2, 2, 1))


# ---------------------------------------------------------------------------
# building from homomorphism counts


def test_identity_diagram_tensor():
    t = build_T(complete(3), m_diagram(1, 1))
    assert t.entries == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_pair_diagram_tensor():
    t = build_T(complete(2), m_diagram(0, 2))
    assert t.shape() == (2, 0, 2)
    assert t.entries == [1, 0, 0, 1]


def test_edge_diagram_tensor_is_adjacency():
    t = build_T(complete(3), EDGE_DIAGRAM)
    assert t.entries == [0, 1, 1, 1, 0, 1, 1, 1, 0]
    assert build_That(complete(3), EDGE_DIAGRAM).entries == t.entries


def test_scalar_diagram_counts_all_homomorphisms():
    t = build_T(complete(3), BilabelledGraph(complete(3), (), ()))
    assert t.shape() == (3, 0, 0) and t.entries == [6]
    assert build_That(complete(3), BilabelledGraph(complete(3), (), ())).entries == [6]


def test_that_zero_when_diagram_is_larger_than_host():
    t = build_That(complete(2), BilabelledGraph(edgeless(3), (0,), (2,)))
    assert not any(t.entries)


def test_that_counts_injectively():
    d = BilabelledGraph(edgeless(2), (0,), (1,))
    t = build_T(complete(2), d)
    that = build_That(complete(2), d)
    assert t.entries == [1, 1, 1, 1]
    assert that.entries == [0, 1, 1, 0]


def test_loop_labelled_diagram():
    d = BilabelledGraph(Graph(1, [(0, 0)]), (0,), (0,))
    assert not any(build_T(complete(3), d).entries)
    looped = Graph(2, [(0, 0), (0, 1)])
    t = build_T(looped, d)
    assert t.entry((0,), (0,)) == 1 and t.entry((1,), (1,)) == 0


# ---------------------------------------------------------------------------
# algebra on tensors


def test_compose_is_matrix_product():
    a = IntTensor(2, 1, 1, [1, 2, 3, 4])
    b = IntTensor(2, 1, 1, [5, 6, 7, 8])
    assert compose(a, b).entries == [19, 22, 43, 50]
    with pytest.raises(ValueError):
        compose(a, zero_tensor(2, 1, 2))


def test_adjoint_transposes():
    t = IntTensor(2, 2, 1, [1, 2, 3, 4, 5, 6, 7, 8])
    back = adjoint(adjoint(t))
    assert back.entries == t.entries and back.shape() == t.shape()
    assert adjoint(t).shape() == (2, 1, 2)
    assert adjoint(t).entry((0, 1), (0,)) == t.entry((0,), (0, 1))


def test_add_scale_shape_checks():
    a = IntTensor(2, 1, 1, [1, 2, 3, 4])
    assert tensor_add(a, a).entries == [2, 4, 6, 8]
    assert tensor_scale(a, -1).entries == [-1, -2, -3, -4]
    with pytest.raises(ValueError):
        tensor_add(a, zero_tensor(2, 1, 2))


def at(t, outputs, inputs):
    """The layout's oracle: rows listed by output multi-index and columns by
    input one, each in ``itertools.product`` order, read row after row."""
    rows, cols = list(product(range(t.n), repeat=t.l)), list(product(range(t.n), repeat=t.k))
    return t.entries[rows.index(tuple(outputs)) * len(cols) + cols.index(tuple(inputs))]


def sample_tensor(n, k, l, salt):
    rng = random.Random(f"{n}-{k}-{l}-{salt}")
    return IntTensor(n, k, l, [rng.choice((0, 0, 1, 2, 7)) for _ in range(n ** (k + l))])


@pytest.mark.parametrize("n, k, l", list(product(range(4), range(3), range(3))))
def test_the_linear_operations_follow_the_layout(n, k, l):
    a, b = sample_tensor(n, k, l, "a"), sample_tensor(n, l, k, "b")  # b.l == a.k, so a . b composes
    outs, ins = list(product(range(n), repeat=l)), list(product(range(n), repeat=k))
    adj, ab_product = adjoint(a), tensor_product(a, b)
    assert adj.shape() == (n, l, k) and ab_product.shape() == (n, k + l, l + k)
    for idx, (o, i) in enumerate(product(outs, ins)):
        assert a.entry(o, i) == at(a, o, i)
        assert at(adj, i, o) == at(a, o, i)
        bumped = IntTensor(n, k, l, [x + (j == idx) for j, x in enumerate(a.entries)])
        assert compare_tensors(a, bumped) == {"row": list(o), "col": list(i), "lhs": at(a, o, i), "rhs": at(a, o, i) + 1}
        for o2, i2 in product(ins, outs):  # the legs of b
            assert at(ab_product, o + o2, i + i2) == at(a, o, i) * at(b, o2, i2)
    ab = compose(a, b)
    assert ab.shape() == (n, l, l)
    for o, i in product(outs, repeat=2):
        assert at(ab, o, i) == sum(at(a, o, m) * at(b, m, i) for m in ins)
    # labels repeat within the outputs and across the two sides
    outputs, inputs, maps = (1, 1)[:l], (0, 1)[:k], list(product(range(n), repeat=2))
    counts = Counter((tuple(phi[v] for v in outputs), tuple(phi[v] for v in inputs)) for phi in maps)
    t = tally(zero_tensor(n, k, l), maps, inputs, outputs)
    assert all(at(t, o, i) == counts[o, i] for o, i in product(outs, ins))
    assert sum(t.entries) == len(maps)


def test_exact_rank():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 2], [2, 5]]) == 2
    assert exact_rank([[10**20, 1], [0, 10**20], [10**20, 10**20 + 1]]) == 2
    assert exact_rank([[2, 4, 6], [1, 3, 5], [0, 1, 2]]) == 2


# ---------------------------------------------------------------------------
# the counting functor


def test_functor_laws_on_hand_picked_pairs():
    pairs = [
        (EDGE_DIAGRAM, m_diagram(1, 1)),
        (m_diagram(2, 1), EDGE_DIAGRAM),
        (BilabelledGraph(path(3), (0, 2), (1,)), BilabelledGraph(complete(2), (0,), (1, 1))),
        (BilabelledGraph(Graph(2, [(0, 0)]), (0,), (1,)), m_diagram(0, 2)),
    ]
    for g in HOSTS:
        for d1, d2 in pairs:
            for report in verify_functor(g, d1, d2):
                assert report["ok"], report


def test_interchange_of_tensor_and_compose_numerically():
    a = build_T(complete(3), EDGE_DIAGRAM)
    b = build_T(complete(3), m_diagram(1, 1))
    lhs = compose(tensor_product(a, b), tensor_product(b, a))
    rhs = tensor_product(compose(a, b), compose(b, a))
    assert compare_tensors(lhs, rhs) is None


def test_that_sum_rules_on_hand_picked_pairs():
    pairs = [
        (EDGE_DIAGRAM, m_diagram(1, 1)),
        (BilabelledGraph(path(3), (0,), (2,)), EDGE_DIAGRAM),
        (m_diagram(1, 2), m_diagram(2, 1)),
    ]
    for g in HOSTS:
        for d1, d2 in pairs:
            for report in verify_that_sums(g, d1, d2):
                assert report["ok"], report


def test_composition_of_mismatched_kernels_is_zero():
    d1 = BilabelledGraph(edgeless(2), (0, 1), ())
    d2 = BilabelledGraph(edgeless(1), (), (0, 0))
    for g in HOSTS:
        reports = verify_that_sums(g, d1, d2)
        laws = [r["law"] for r in reports]
        assert "compose-zero" in laws
        assert all(r["ok"] for r in reports), reports


def test_that_sums_glue_no_diagram_larger_than_the_host(monkeypatch):
    # 3 + 2 vertices into K3: overlaps of fewer than two pairs glue a diagram
    # of four or five vertices, which no injective map fits
    g, d1, d2 = complete(3), BilabelledGraph(path(3), (0,), (2,)), EDGE_DIAGRAM
    glued, sides = [], {}
    for name in ("bl_f_union", "bl_f_compose"):
        def gluing(a, b, f, glue=getattr(tensors, name)):
            d = glue(a, b, f)
            glued.append(d.graph.n)
            return d

        monkeypatch.setattr(tensors, name, gluing)
    report = tensors.law_report

    def recording(law, lhs, rhs):
        sides[law] = rhs
        return report(law, lhs, rhs)

    monkeypatch.setattr(tensors, "law_report", recording)
    reports = verify_that_sums(g, d1, d2)
    assert all(r["ok"] for r in reports), reports
    assert [r["law"] for r in reports] == ["union-sum", "compose-sum", "adjoint-left", "adjoint-right"]
    # the 6 overlaps of two pairs, and the 2 of them that hold the forced
    # pair, each glue three vertices; the 8 smaller overlaps are never glued
    assert glued == [3] * 8
    # the sums over every overlap, none dropped
    union_sum = zero_tensor(g.n, d1.k + d2.k, d1.l + d2.l)
    for f in enumerate_overlaps(d1.graph.n, d2.graph.n):
        union_sum = tensor_add(union_sum, build_That(g, bl_f_union(d1, d2, f)))
    compose_sum = zero_tensor(g.n, d2.k, d1.l)
    for f in enumerate_overlaps(d2.graph.n, d1.graph.n):
        if set(required_composition_pairs(d1, d2)) <= set(f):
            compose_sum = tensor_add(compose_sum, build_That(g, bl_f_compose(d1, d2, f)))
    assert sides["union-sum"] == union_sum and sides["compose-sum"] == compose_sum


def test_moebius_expansion():
    diagrams = [
        EDGE_DIAGRAM,
        BilabelledGraph(path(3), (0,), (1, 2)),
        BilabelledGraph(complete(3), (0, 1), (2,)),
        BilabelledGraph(Graph(4, [(0, 1), (2, 3)]), (0, 2), (1, 3)),
    ]
    for g in HOSTS:
        for d in diagrams:
            assert moebius_expand(g, d)["ok"]


def test_left_rotation_shuffles_indices():
    d = BilabelledGraph(path(3), (0, 2), (1,))
    g = complete(3)
    t = build_T(g, d)
    rt = build_T(g, rotate_left(d))
    for x in range(3):
        for j in all_tuples(3, d.l):
            for rest in all_tuples(3, d.k - 1):
                assert rt.entry((x,) + j, rest) == t.entry(j, (x,) + rest)


@st.composite
def small_graphs(draw, max_n, min_n=0):
    n = draw(st.integers(min_n, max_n))
    cells = [(u, v) for u in range(n) for v in range(u, n)]
    return Graph(n, draw(st.lists(st.sampled_from(cells), unique=True)) if cells else [])


@st.composite
def small_diagrams(draw, max_n=3, max_labels=2):
    g = draw(small_graphs(max_n))
    labels = st.lists(st.integers(0, g.n - 1), max_size=max_labels) if g.n else st.just([])
    return BilabelledGraph(g, draw(labels), draw(labels))


def assert_builders_match_brute_force(g, d):
    for t, injective in ((build_T(g, d), False), (build_That(g, d), True)):
        counts = brute_force_counts(g, d, injective)
        for j in all_tuples(g.n, d.l):
            for i in all_tuples(g.n, d.k):
                assert t.entry(j, i) == counts[j, i]


@settings(max_examples=150, deadline=None)
@given(small_graphs(4, min_n=2), small_diagrams())
@example(edgeless(0), BilabelledGraph(edgeless(2), (0,), (1,)))
@example(edgeless(0), BilabelledGraph(edgeless(0)))
@example(Graph(1, [(0, 0)]), BilabelledGraph(path(3), (0,), (2,)))
def test_builders_match_a_brute_force_count_over_all_vertex_maps(g, d):
    assert_builders_match_brute_force(g, d)


@st.composite
def five_vertex_diagrams(draw):
    """A tree on 2 to 5 vertices plus up to 3 more edges or loops, and at
    most two labels, so that unlabelled leaves, degree-two vertices between
    labels, tables merged into an existing factor and loops on summed-out
    vertices turn up."""
    n = draw(st.integers(2, 5))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    cells = [(u, v) for u in range(n) for v in range(u, n)]
    labels = draw(st.lists(st.integers(0, n - 1), max_size=2))
    cut = draw(st.integers(0, len(labels)))
    graph = Graph(n, tree + draw(st.lists(st.sampled_from(cells), max_size=3)))
    return BilabelledGraph(graph, labels[:cut], labels[cut:])


# A triangle with a loop, so that tables hold weights above one.
KITE_HOST = Graph(3, [(0, 1), (0, 2), (1, 2), (2, 2)])
# a host with loops on three of its four vertices, one of them isolated
SPARSE_LOOPED_HOST = Graph(4, [(0, 1), (1, 2), (0, 0), (2, 2), (3, 3)])
# K4 with a loop, where only injectivity keeps a vertex off its neighbour's image
LOOPED_K4 = Graph(4, complete(4).edges | {(3, 3)})


# From the fifth example on, each reaches a path of the search's inner loop,
# which places the second-to-last vertex and hands over the images left to
# the last, or of the counting loops after it.  T is the plain count, That
# the injective one, which sums nothing out.
@settings(max_examples=150, deadline=None)
@given(small_graphs(3, min_n=2), five_vertex_diagrams())
@example(KITE_HOST, BilabelledGraph(cycle(4), (0,), (2,)))  # the second table merges into the first
@example(KITE_HOST, BilabelledGraph(Graph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]), (0,), (1,)))  # a theta graph: two more tables with weights above 1 multiply with the first
@example(KITE_HOST, BilabelledGraph(Graph(5, [(0, 4), (4, 3), (3, 2), (2, 1)]), (0,), (1,)))  # tables summed on
@example(KITE_HOST, BilabelledGraph(Graph(4, [(0, 1), (1, 2), (2, 3), (1, 1), (2, 2)]), (0,), (3,)))  # summed loops
@example(SPARSE_LOOPED_HOST, BilabelledGraph(Graph(1, [(0, 0)]), (0,), ()))  # a one-vertex order
@example(KITE_HOST, BilabelledGraph(path(2), (0,), ()))  # T: one vertex left, weighted; That: a listed first vertex
@example(complete(4), EDGE_DIAGRAM)  # a two-vertex order, whose inner loop is level 0
@example(KITE_HOST, BilabelledGraph(Graph(3, [(0, 2)]), (), (1,)))  # That: a listed second-to-last, a checked last
@example(complete(4), BilabelledGraph(Graph(3, [(0, 2)]), (), (1,)))  # ... with a fourth image to take
@example(KITE_HOST, BilabelledGraph(Graph(3, [(0, 1)]), (0,), ()))  # That: a checked second-to-last, an unchecked last
@example(complete(4), BilabelledGraph(Graph(3, [(0, 1)]), (0,), ()))  # ... with a fourth image to take
@example(LOOPED_K4, BilabelledGraph(path(4), (0,), (3,)))  # That: both checked, the last off the other's image
@example(KITE_HOST, BilabelledGraph(path(3), (0,), (1,)))  # T: a weighted last vertex after summing out
def test_builders_match_a_brute_force_count_on_five_vertex_diagrams(g, d):
    assert_builders_match_brute_force(g, d)  # at most 3^5 maps each drawn, 4^4 in an example


@settings(max_examples=60, deadline=None)
@given(small_graphs(4, min_n=2), small_diagrams(), small_diagrams(), small_diagrams())
@example(edgeless(0), m_diagram(1, 1), m_diagram(1, 0), BilabelledGraph(edgeless(2), (0,), (1,)))
@example(Graph(1, [(0, 0)]), BilabelledGraph(path(2), (0,), (1,)), m_diagram(0, 1), BilabelledGraph(path(3), (0,), (2,)))
def test_every_verifier_report_holds_on_random_diagrams(g, d1, d2, d):
    reports = verify_functor(g, d1, d2) + verify_that_sums(g, d1, d2) + [moebius_expand(g, d)]
    assert all(r["ok"] for r in reports), reports


# ---------------------------------------------------------------------------
# the counter against the enumerator


def enumerated_T(g, d):
    """The reference count: every homomorphism listed by the enumerator, tallied once."""
    return tally(zero_tensor(g.n, d.k, d.l), enumerate_homomorphisms(d.graph, g), d.inputs, d.outputs)


@st.composite
def sparse_diagrams(draw):
    """Up to 7 vertices and few edges and labels, so that loops, repeated
    labels, unlabelled isolated vertices and unlabelled components turn up."""
    n = draw(st.integers(0, 7))
    cells = [(u, v) for u in range(n) for v in range(u, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(cells), max_size=9)) if cells else [])
    labels = st.lists(st.integers(0, n - 1), max_size=3) if n else st.just([])
    return BilabelledGraph(g, draw(labels), draw(labels))


@st.composite
def hosts(draw):
    n, loops = draw(st.integers(0, 5)), draw(st.booleans())
    cells = [(u, v) for u in range(n) for v in range(u, n) if loops or u != v]
    return Graph(n, draw(st.lists(st.sampled_from(cells), unique=True)) if cells else [])


@settings(max_examples=250, deadline=None)
@given(hosts(), sparse_diagrams())
def test_build_T_matches_the_tally_of_every_enumerated_map(g, d):
    assert build_T(g, d) == enumerated_T(g, d)


def enumerated_That(g, d):
    """The reference injective count: every injective map listed by the enumerator, tallied once."""
    maps = enumerate_homomorphisms(d.graph, g, injective=True)
    return tally(zero_tensor(g.n, d.k, d.l), maps, d.inputs, d.outputs)


# in the last three examples the last vertex is unlabelled
@settings(max_examples=250, deadline=None)
@given(hosts(), sparse_diagrams())
@example(complete(4), BilabelledGraph(path(3), (0, 1), (1, 0, 0)))  # 0 labelled thrice, 1 input and output
@example(complete(3), BilabelledGraph(edgeless(0)))  # the empty diagram
@example(complete(2), BilabelledGraph(path(3), (0,), (2,)))  # more vertices than the host
@example(SPARSE_LOOPED_HOST, BilabelledGraph(Graph(3, [(0, 1), (1, 2), (2, 2)]), (0,), ()))  # looped last vertex
@example(SPARSE_LOOPED_HOST, BilabelledGraph(Graph(3, [(0, 1), (2, 2)]), (0,), (1,)))  # ... and no neighbour
@example(complete(5), BilabelledGraph(Graph(3, [(0, 1)]), (0,), (1,)))  # isolated last vertex
def test_build_That_matches_the_tally_of_every_enumerated_injective_map(g, d):
    assert build_That(g, d) == enumerated_That(g, d)


@st.composite
def hosts_past_the_eager_rows_bound(draw):
    # every edge and loop among the last eight vertices, so that rows are
    # built when first read and span several 30-bit digits
    n = draw(st.integers(EAGER_ROWS_BOUND + 1, EAGER_ROWS_BOUND + 8))
    cells = [(u, v) for u in range(n - 8, n) for v in range(u, n)]
    return Graph(n, draw(st.sets(st.sampled_from(cells), max_size=14)))


@settings(max_examples=100, deadline=None)
@given(hosts_past_the_eager_rows_bound(), five_vertex_diagrams())
@example(Graph(68, [(64, 65), (64, 66), (65, 66), (66, 66), (66, 67)]), BilabelledGraph(cycle(4), (0,), (2,)))
def test_build_T_matches_the_enumerator_on_hosts_past_the_eager_rows_bound(g, d):
    assert build_T(g, d) == enumerated_T(g, d)


@settings(max_examples=100, deadline=None)
@given(hosts_past_the_eager_rows_bound(), five_vertex_diagrams())
@example(Graph(68, [(64, 65), (64, 66), (65, 66), (66, 66), (66, 67)]), BilabelledGraph(cycle(4), (0,), (2,)))
def test_build_That_matches_the_enumerator_on_hosts_past_the_eager_rows_bound(g, d):
    assert build_That(g, d) == enumerated_That(g, d)


@settings(max_examples=30, deadline=None)
@given(small_graphs(3), hosts_past_the_eager_rows_bound(), st.booleans())
@example(Graph(3, [(0, 1), (1, 2), (2, 2)]), Graph(68, [(64, 65), (65, 66), (66, 66), (66, 67)]), False)
def test_enumeration_matches_brute_force_in_order_on_hosts_past_the_eager_rows_bound(k, g, injective):
    # the search reads rows built from the host record's neighbour lists
    # when first read; the oracle tries every vertex map, in order
    maps = [
        phi
        for phi in product(range(g.n), repeat=k.n)
        if all(g.has_edge(phi[u], phi[v]) for u, v in k.edges) and not (injective and len(set(phi)) < k.n)
    ]
    assert enumerate_homomorphisms(k, g, injective) == maps


LOOPED_HOST = Graph(3, [(0, 1), (1, 2), (2, 2)])


CORNER_CASES = pytest.mark.parametrize(
    "g, d",
    [
        (edgeless(0), EDGE_DIAGRAM),
        (edgeless(0), BilabelledGraph(path(3))),
        (edgeless(0), BilabelledGraph(edgeless(0))),
        (complete(3), BilabelledGraph(edgeless(0))),
        (complete(3), BilabelledGraph(Graph(2, [(0, 1), (1, 1)]), (0,), ())),
        (complete(3), BilabelledGraph(Graph(3, [(0, 1), (1, 2), (2, 2)]), (0,), ())),
        (LOOPED_HOST, BilabelledGraph(Graph(3, [(0, 1), (1, 2), (2, 2)]), (0,), ())),
        (LOOPED_HOST, BilabelledGraph(disjoint_union(complete(2), complete(3)), (0,), (1, 0))),
        (LOOPED_HOST, BilabelledGraph(disjoint_union(path(2), edgeless(2)), (1,), (1,))),
        (complete(4), BilabelledGraph(disjoint_union(path(7), complete(4)), (0,), (6,))),
    ],
    ids=[
        "empty-host",
        "empty-host-unlabelled",
        "empty-both",
        "empty-diagram",
        "loop-on-loopless-host",
        "summed-loop-on-loopless-host",
        "summed-loop",
        "unlabelled-triangle",
        "unlabelled-isolated",
        "path-beside-a-clique",
    ],
)


@CORNER_CASES
def test_build_T_matches_the_enumerator_on_corner_cases(g, d):
    assert build_T(g, d) == enumerated_T(g, d)


@CORNER_CASES
def test_build_That_matches_the_enumerator_on_corner_cases(g, d):
    assert build_That(g, d) == enumerated_That(g, d)


# ---------------------------------------------------------------------------
# the table of set bits against the bits taken off each mask


def with_and_without_the_bit_table(search, host):
    """``search`` on a fresh copy of ``host``, first with the record's table
    of set bits, then with ``BIT_LIST_BOUND`` at 0, so that the search takes
    each mask's images off the mask, as it does past the bound.  Each copy
    gets a record of its own."""
    results = []
    for bound in (BIT_LIST_BOUND, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "BIT_LIST_BOUND", bound)
            copy = Graph(host.n, host.edges)
            results.append(search(copy))
            assert (graphs._host(copy)[3] is None) == (host.n > bound)
    return results


# the examples reach each place a mask is read: a weighted count, a last
# vertex labelled (an add per image) and unlabelled (a popcount), the inner
# loop of an injective count, and a last vertex weighted after summing out
@settings(max_examples=100, deadline=None)
@given(small_graphs(4, min_n=2), five_vertex_diagrams())
@example(KITE_HOST, BilabelledGraph(Graph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]), (0,), (1,)))
@example(complete(4), BilabelledGraph(complete(3), (0,), (2,)))
@example(complete(4), BilabelledGraph(complete(3), (0,), ()))
@example(LOOPED_K4, BilabelledGraph(path(4), (0,), (3,)))
@example(KITE_HOST, BilabelledGraph(path(3), (0,), (1,)))
def test_counts_read_the_same_images_from_the_bit_table_as_off_each_mask(g, d):
    table, fallback = with_and_without_the_bit_table(lambda h: (build_T(h, d), build_That(h, d)), g)
    assert table == fallback


@settings(max_examples=100, deadline=None)
@given(small_graphs(4), small_graphs(4, min_n=1), st.booleans())
@example(path(3), complete(4), True)
def test_enumeration_lists_the_same_maps_in_order_with_and_without_the_bit_table(k, g, injective):
    table, fallback = with_and_without_the_bit_table(lambda h: enumerate_homomorphisms(k, h, injective), g)
    assert table == fallback


@pytest.mark.parametrize(
    "g",
    [cycle(6), complete(4), LOOPED_K4, disjoint_union(cycle(3), cycle(3)), path(5), edgeless(3), KITE_HOST,
     Graph(9, [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)] + [(i, i + 3) for i in range(6)])],
)
def test_automorphism_generators_come_in_the_same_order_with_and_without_the_bit_table(g):
    table, fallback = with_and_without_the_bit_table(lambda h: list(automorphism_generators(h)), g)
    assert table == fallback


# One vertex past the bound the search takes its images off each mask: a
# circulant on offsets 1 and 3, with two loops.
PAST_THE_BIT_LIST_BOUND = Graph(
    BIT_LIST_BOUND + 1,
    [(i, (i + s) % (BIT_LIST_BOUND + 1)) for i in range(BIT_LIST_BOUND + 1) for s in (1, 3)] + [(0, 0), (5, 5)],
)


@pytest.mark.parametrize(
    "d",
    [
        BilabelledGraph(complete(3), (0,), (2,)),  # a labelled last vertex
        BilabelledGraph(complete(3), (0,), ()),  # an unlabelled last vertex
        BilabelledGraph(path(3), (0,), (2,)),  # a table of weights above 1
        BilabelledGraph(cycle(4), (0,), (2,)),  # two tables multiplied
        BilabelledGraph(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (3, 3)]), (1,), ()),  # a loop vector
    ],
)
def test_counts_into_a_host_one_past_the_bit_list_bound_match_brute_force(d):
    assert graphs._host(PAST_THE_BIT_LIST_BOUND)[3] is None
    assert_builders_match_brute_force(PAST_THE_BIT_LIST_BOUND, d)


def test_unlabelled_parts_multiply_the_count():
    # beside the labelled vertex: a looped vertex has 1 image, an edge 5 maps
    # (two along each host edge, one onto the loop)
    d = BilabelledGraph(Graph(4, [(1, 1), (2, 3)]), (0,), ())
    assert build_T(LOOPED_HOST, d).entries == [5, 5, 5]
    assert not any(build_T(complete(3), d).entries)


# ---------------------------------------------------------------------------
# partition tensors


def test_partition_tensor_is_block_indicator():
    p = ker("a", "a")
    t = build_partition_T(3, p)
    assert t.entries == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    that = build_partition_That(3, p)
    assert that.entries == t.entries
    q = ker("", "aa")
    assert build_partition_T(2, q).entries == [1, 0, 0, 1]


def test_partition_tensor_loose_vs_exact():
    p = ker("ab", "")
    loose = build_partition_T(2, p)
    exact = build_partition_That(2, p)
    assert loose.entries == [1, 1, 1, 1]
    assert exact.entries == [0, 1, 1, 0]


def test_partition_tensors_match_embedded_diagrams():
    n = 3
    for k in range(3):
        for l in range(3 - k):
            for p in enumerate_set_partitions(k, l):
                assert set(p.inputs + p.outputs) == set(range(p.graph.n))
                assert compare_tensors(build_partition_T(n, p), build_T(edgeless(n), p)) is None
                exact = build_partition_That(n, p)
                assert compare_tensors(exact, build_That(edgeless(n), p)) is None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_exact_partition_tensor_is_the_kernel_indicator(m, n, data):
    k = data.draw(st.integers(0, m))
    p = data.draw(st.sampled_from(enumerate_set_partitions(k, m - k)))
    p = BilabelledGraph(edgeless(p.graph.n + data.draw(st.integers(0, 2))), p.inputs, p.outputs)
    t = build_partition_That(n, p)
    for a in product(range(n), repeat=k):
        for b in product(range(n), repeat=m - k):
            assert t.entry(b, a) == (ker(a, b) == p)


def test_empty_blocks_scale_the_loose_tensor_and_kill_the_exact_one():
    p = from_blocks(1, 1, [[0, 1], []])
    loose = tensor_scale(build_partition_T(3, p), 3)
    assert compare_tensors(loose, build_T(edgeless(3), p)) is None
    assert not any(build_partition_That(3, p).entries)


# ---------------------------------------------------------------------------
# serialization


def test_tensor_json_round_trip():
    t = build_T(complete(3), EDGE_DIAGRAM)
    obj = tensor_to_json(t)
    assert obj == {"n": 3, "k": 1, "l": 1, "entries": t.entries}
    assert tensor_from_json(obj) == t
    with pytest.raises(ValueError):
        tensor_from_json({"n": 2, "k": 1, "l": 1, "entries": [1]})


def test_tensor_csv():
    t = IntTensor(2, 1, 1, [1, 2, 3, 4])
    assert tensor_to_csv(t) == "1,2\n3,4\n"
