"""Bilabelled graph calculus: tensor, compose, involution, rotations, gluing."""

import pytest

from graphfib.diagrams import (
    BilabelledGraph,
    bl_f_compose,
    bl_f_union,
    compose,
    diagram_from_json,
    involution,
    m_diagram,
    required_composition_pairs,
    rotate_left,
    rotate_right,
    tensor,
)
from graphfib.graphs import (
    Graph,
    complete,
    edgeless,
    enumerate_overlaps,
    f_union,
    generated_partition,
    path,
    quotient,
)
from graphfib.partitions import enumerate_set_partitions, ker
from reference import (
    brute_force_diagram_key,
    equal_diagrams,
    explicit_partition_compose,
    explicit_partition_involution,
    explicit_partition_tensor,
    shifted_union,
)

ZERO = BilabelledGraph(Graph(0, []), (), ())

# pool of small diagrams reused by the law checks; arities vary on purpose
POOL = [
    m_diagram(1, 1),
    m_diagram(0, 2),
    m_diagram(2, 1),
    BilabelledGraph(complete(2), (0,), (1,)),
    BilabelledGraph(path(3), (0, 2), (1,)),
    BilabelledGraph(complete(3), (0,), (1, 2)),
    BilabelledGraph(Graph(2, [(0, 0)]), (0, 1), (1,)),
    BilabelledGraph(edgeless(2), (0, 1), (1, 0)),
]


def test_labels_must_exist():
    with pytest.raises(ValueError):
        BilabelledGraph(edgeless(1), (1,), ())
    with pytest.raises(ValueError):
        BilabelledGraph(Graph(0, []), (), (0,))


def test_m_diagrams():
    m = m_diagram(2, 3)
    assert m.graph.n == 1 and m.inputs == (0, 0) and m.outputs == (0, 0, 0)


# ---------------------------------------------------------------------------
# tensor


def test_tensor_unit():
    k = BilabelledGraph(complete(2), (0,), (1,))
    assert equal_diagrams(tensor(ZERO, k), k)
    assert equal_diagrams(tensor(k, ZERO), k)


def test_tensor_of_identities():
    t = tensor(m_diagram(1, 1), m_diagram(1, 1))
    assert equal_diagrams(t, BilabelledGraph(edgeless(2), (0, 1), (0, 1)))


def test_tensor_shifts_second_factor():
    t = tensor(m_diagram(0, 2), m_diagram(1, 1))
    assert t.graph.n == 2
    assert t.inputs == (1,) and t.outputs == (0, 0, 1)


# ---------------------------------------------------------------------------
# compose


def test_compose_identity():
    for d in POOL:
        if d.l == 1:
            assert equal_diagrams(compose(m_diagram(1, 1), d), d)
        if d.k == 1:
            assert equal_diagrams(compose(d, m_diagram(1, 1)), d)


def test_compose_arity_mismatch():
    with pytest.raises(ValueError):
        compose(m_diagram(2, 1), m_diagram(1, 1))


def test_compose_worked_example():
    """A two-input three-output diagram under a three-input one: the glued
    graph picks up one new edge and keeps the dangling vertex."""
    k = BilabelledGraph(Graph(3, [(1, 2)]), (2, 0), (0, 1, 2))
    h = BilabelledGraph(
        Graph(4, [(0, 3), (0, 2), (1, 2), (2, 3)]), (2, 1, 0), (0, 3, 1, 3, 2, 1)
    )
    got = compose(h, k)
    want = BilabelledGraph(
        Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
        (2, 0),
        (2, 3, 1, 3, 0, 1),
    )
    assert equal_diagrams(got, want)


def test_compose_contracts_chains():
    """Repeated labels force transitive identifications."""
    d1 = BilabelledGraph(edgeless(1), (0, 0), ())
    d2 = BilabelledGraph(edgeless(2), (), (0, 1))
    got = compose(d1, d2)
    assert got.graph.n == 1
    assert equal_diagrams(got, BilabelledGraph(edgeless(1), (), ()))


def test_compose_matches_partition_composition():
    p = ker("aaa", "baac")
    q = ker("abcd", "ecbb")
    got = compose(q, p)
    want = explicit_partition_compose(q, p)
    assert equal_diagrams(got, want)
    assert ker(got.inputs, got.outputs) == ker(want.inputs, want.outputs)


# ---------------------------------------------------------------------------
# involution


def test_involution():
    assert equal_diagrams(involution(m_diagram(1, 1)), m_diagram(1, 1))
    d = BilabelledGraph(edgeless(2), (0,), (1,))
    assert involution(d).inputs == (1,) and involution(d).outputs == (0,)
    for x in POOL:
        assert equal_diagrams(involution(involution(x)), x)


# ---------------------------------------------------------------------------
# rotations


def test_rotate_moves_single_input_down():
    k = BilabelledGraph(complete(2), (0,), ())
    assert rotate_left(k) == BilabelledGraph(complete(2), (), (0,))
    assert rotate_right(rotate_left(k)) == k


def test_rotate_pair_partition():
    assert equal_diagrams(rotate_right(m_diagram(0, 2)), m_diagram(1, 1))
    assert equal_diagrams(rotate_left(m_diagram(1, 1)), m_diagram(0, 2))


def test_rotate_round_trips_on_single_vertex_diagrams():
    for k in range(1, 4):
        for l in range(1, 4):
            m = m_diagram(k, l)
            assert rotate_right(rotate_left(m)) == m
            assert rotate_left(rotate_right(m)) == m


def test_rotate_definition():
    d = BilabelledGraph(path(3), (0, 1), (2, 2))
    left = rotate_left(d)
    assert left.inputs == (1,) and left.outputs == (0, 2, 2)
    right = rotate_right(d)
    assert right.inputs == (0, 1, 2) and right.outputs == (2,)


def test_rotate_arity_errors():
    with pytest.raises(ValueError):
        rotate_left(m_diagram(0, 2))
    with pytest.raises(ValueError):
        rotate_right(m_diagram(2, 0))


def test_rotation_realizable_by_composition():
    """Moving the last output up is the same as capping against a duality
    pair tensored onto an identity strand."""
    for d in POOL:
        if d.l == 0:
            continue
        top = m_diagram(2, 0)
        for _ in range(d.l - 1):
            top = tensor(m_diagram(1, 1), top)
        realized = compose(top, tensor(d, m_diagram(1, 1)))
        assert equal_diagrams(realized, rotate_right(d))


# ---------------------------------------------------------------------------
# category laws up to isomorphism


def test_tensor_associative():
    """Literally, not only up to labelled isomorphism."""
    for a in POOL[:4]:
        for b in POOL[2:6]:
            for c in POOL[4:]:
                assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))


def test_compose_associative():
    a = BilabelledGraph(complete(2), (0,), (1, 1))
    b = BilabelledGraph(path(3), (0, 2), (1,))
    c = BilabelledGraph(complete(3), (0,), (1, 2))
    # arities: c: 1 -> 2, b: 2 -> 1, a: 1 -> 2
    assert equal_diagrams(compose(a, compose(b, c)), compose(compose(a, b), c))


def test_involution_antihomomorphism():
    a = BilabelledGraph(complete(2), (0,), (1, 1))
    b = BilabelledGraph(path(3), (1, 2), (0,))
    ab = compose(b, a)
    assert equal_diagrams(involution(ab), compose(involution(a), involution(b)))


def test_interchange_law():
    a = BilabelledGraph(complete(2), (0,), (1,))
    b = BilabelledGraph(path(3), (1,), (0, 2))
    c = m_diagram(2, 1)
    d = BilabelledGraph(edgeless(2), (0,), (1,))
    lhs = compose(tensor(a, b), tensor(c, d))
    rhs = tensor(compose(a, c), compose(b, d))
    assert equal_diagrams(lhs, rhs)


# ---------------------------------------------------------------------------
# gluing along overlaps


def test_bl_f_union_empty_is_tensor():
    for a in POOL[:4]:
        for b in POOL[4:]:
            shift = a.graph.n
            want = BilabelledGraph(
                shifted_union(a.graph, b.graph),
                a.inputs + tuple(v + shift for v in b.inputs),
                a.outputs + tuple(v + shift for v in b.outputs),
            )
            assert bl_f_union(a, b, ()) == want
            assert tensor(a, b) == want


def test_bl_f_union_single_vertex_pileup():
    got = bl_f_union(m_diagram(0, 2), m_diagram(1, 1), ((0, 0),))
    assert got.graph.n == 1
    assert got.inputs == (0,) and got.outputs == (0, 0, 0)


def test_bl_f_union_with_scalar_unit():
    for d in POOL:
        assert equal_diagrams(bl_f_union(d, ZERO, ()), d)


def test_bl_f_union_matches_graph_union():
    d1 = BilabelledGraph(path(3), (0,), (2,))
    d2 = BilabelledGraph(complete(2), (0,), (1,))
    for f in enumerate_overlaps(3, 2):
        glued = bl_f_union(d1, d2, f)
        g, mk, mh = f_union(path(3), complete(2), f)
        assert glued.graph.n == g.n and glued.graph.edges == g.edges
        assert glued.inputs == (mk[0], mh[0])
        assert glued.outputs == (mk[2], mh[1])


def test_bl_f_union_rejects_bad_overlap():
    with pytest.raises(ValueError):
        bl_f_union(m_diagram(1, 1), m_diagram(1, 1), ((0, 3),))


def test_required_composition_pairs():
    d1 = BilabelledGraph(edgeless(2), (0, 1, 0), ())
    d2 = BilabelledGraph(edgeless(2), (), (0, 1, 0))
    assert required_composition_pairs(d1, d2) == ((0, 0), (1, 1))
    bad = BilabelledGraph(edgeless(2), (0, 0, 1), ())
    with pytest.raises(ValueError):
        required_composition_pairs(bad, d2)


def test_bl_f_compose_restricted_equals_compose():
    d1 = BilabelledGraph(complete(2), (0, 1), (1,))
    d2 = BilabelledGraph(path(3), (0,), (0, 2))
    f = required_composition_pairs(d1, d2)
    assert equal_diagrams(bl_f_compose(d1, d2, f), compose(d1, d2))


def test_bl_f_compose_missing_pair_rejected():
    d1 = BilabelledGraph(complete(2), (0, 1), (1,))
    d2 = BilabelledGraph(path(3), (0,), (0, 2))
    with pytest.raises(ValueError):
        bl_f_compose(d1, d2, ())


def test_bl_f_compose_larger_overlap_against_quotient_oracle():
    d1 = BilabelledGraph(complete(2), (0,), (1,))
    d2 = BilabelledGraph(path(3), (0,), (2,))
    f = ((2, 0), (0, 1))  # the required pair (2,0) plus an extra gluing
    got = bl_f_compose(d1, d2, f)
    g = shifted_union(d2.graph, d1.graph)
    merged = generated_partition(g.n, [(u, 3 + v) for u, v in f])
    want = BilabelledGraph(quotient(g, merged), (merged[0],), (merged[3 + 1],))
    assert equal_diagrams(got, want)


# ---------------------------------------------------------------------------
# the partition embedding is a functor


def test_embedding_commutes_with_operations():
    parts = enumerate_set_partitions(1, 2) + enumerate_set_partitions(2, 1)
    for p in parts:
        for q in parts:
            lhs = explicit_partition_tensor(p, q)
            rhs = tensor(p, q)
            assert equal_diagrams(lhs, rhs)
            if q.l == p.k:
                lhs = explicit_partition_compose(p, q)
                rhs = compose(p, q)
                assert equal_diagrams(lhs, rhs)
        lhs = explicit_partition_involution(p)
        rhs = involution(p)
        assert equal_diagrams(lhs, rhs)


# ---------------------------------------------------------------------------
# the tests' equality up to labelled isomorphism


def test_the_diagram_oracle_is_label_sensitive_and_relabel_invariant():
    d = BilabelledGraph(path(3), (0,), (2,))
    relabeled = BilabelledGraph(Graph(3, [(1, 0), (0, 2)]), (1,), (2,))
    assert brute_force_diagram_key(d) == brute_force_diagram_key(relabeled)
    assert equal_diagrams(d, relabeled)
    flipped = BilabelledGraph(path(3), (0,), (1,))
    assert brute_force_diagram_key(d) != brute_force_diagram_key(flipped)
    unlabeled = BilabelledGraph(path(3), (0,), ())
    assert brute_force_diagram_key(d) != brute_force_diagram_key(unlabeled)


# ---------------------------------------------------------------------------
# serialization


def test_diagram_json_round_trip():
    d = BilabelledGraph(Graph(2, [(0, 0), (0, 1)]), (0,), (1, 1))
    obj = {"graph": {"n": 2, "edges": [[0, 0], [0, 1]]}, "inputs": [0], "outputs": [1, 1]}
    assert diagram_from_json(obj) == d
