"""Set partitions: kernels, enumeration, calculus, and the diagram embedding."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfib.diagrams import BilabelledGraph, compose, involution, tensor
from graphfib.errors import CapacityError
from graphfib.graphs import edgeless, kernel
from graphfib.partitions import (
    enumerate_partitions,
    enumerate_set_partitions,
    from_blocks,
    ker,
    kernel_tuples,
    partition_from_json,
)
from reference import (
    explicit_partition_compose,
    explicit_partition_involution,
    explicit_partition_tensor,
    partition_key,
)

BELL = [1, 1, 2, 5, 15, 52]


# ---------------------------------------------------------------------------
# kernels


def test_ker_display_example():
    p = ker("aaa", "baac")
    assert (p.k, p.l) == (3, 4)
    assert p == BilabelledGraph(edgeless(3), (0, 0, 0), (1, 0, 0, 2))


def test_ker_empty():
    p = ker("", "")
    assert p == BilabelledGraph(edgeless(0))


def test_ker_crossing():
    p = ker("ab", "ba")
    assert p == BilabelledGraph(edgeless(2), (0, 1), (1, 0))


def test_ker_one_line_word():
    p = ker("aabacbdd", "")
    assert p == BilabelledGraph(edgeless(4), (0, 0, 1, 0, 2, 1, 3, 3))
    assert p == ker("ccecgeaa", "")


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), max_size=8),
    st.permutations(range(5)),
)
def test_ker_invariant_under_letter_renaming(word, relabel):
    renamed = [relabel[x] for x in word]
    cut = len(word) // 2
    assert ker(word[:cut], word[cut:]) == ker(renamed[:cut], renamed[cut:])


@st.composite
def partitions_with_empty_blocks(draw, max_points=4):
    """A partition of at most ``max_points`` points owning up to two empty blocks."""
    m = draw(st.integers(0, max_points))
    k = draw(st.integers(0, m))
    p = draw(st.sampled_from(enumerate_set_partitions(k, m - k)))
    return BilabelledGraph(edgeless(p.graph.n + draw(st.integers(0, 2))), p.inputs, p.outputs)


@settings(max_examples=300, deadline=None)
@given(partitions_with_empty_blocks(), st.integers(0, 4))
def test_kernel_tuples_are_the_tuples_whose_kernel_is_the_partition(p, n):
    got = list(kernel_tuples(n, p))
    want = {v for v in product(range(n), repeat=p.k + p.l) if ker(v[: p.k], v[p.k :]) == p}
    assert len(got) == len(set(got))
    assert set(got) == want


def test_kernel_tuples_of_empty_blocks_and_of_no_points():
    assert list(kernel_tuples(3, from_blocks(1, 1, [[0, 1], []]))) == []
    assert list(kernel_tuples(2, from_blocks(0, 0, [[]]))) == []
    assert list(kernel_tuples(0, ker("", ""))) == [()]


# ---------------------------------------------------------------------------
# enumeration


def test_partition_counts_are_bell_numbers():
    for m, want in enumerate(BELL):
        assert len(enumerate_partitions(m)) == want


def test_rgs_in_lexicographic_order():
    seqs = enumerate_partitions(4)
    assert seqs == sorted(seqs)
    assert seqs[0] == (0, 0, 0, 0)
    assert seqs[-1] == (0, 1, 2, 3)
    assert len(set(seqs)) == len(seqs) == 15


def test_two_line_enumeration_counts():
    for k in range(4):
        for l in range(4):
            if k + l < len(BELL):
                assert len(enumerate_set_partitions(k, l)) == BELL[k + l]


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        enumerate_partitions(11)


# ---------------------------------------------------------------------------
# structure and operations


def test_from_blocks_keeps_empty_blocks():
    p = from_blocks(1, 1, [[0, 1], []])
    assert p == BilabelledGraph(edgeless(2), (0,), (0,))
    assert p != from_blocks(1, 1, [[0, 1]])


def test_partition_tensor():
    p = ker("a", "a")
    q = ker("", "bb")
    t = tensor(p, q)
    assert (t.k, t.l) == (1, 3)
    assert partition_key(t) == partition_key(ker("a", "abb"))


def test_partition_compose_worked_example():
    """Blocks that die in the middle row survive as empty blocks."""
    p = ker("aaa", "baac")
    q = ker("abcd", "ecbb")
    qp = compose(q, p)
    assert (qp.k, qp.l) == (3, 4)
    assert partition_key(qp) == partition_key(from_blocks(3, 4, [[0, 1, 2, 4, 5, 6], [3], [], []]))
    assert qp.graph.n - len(set(qp.inputs + qp.outputs)) == 2
    assert qp.graph.n == 4


def test_partition_compose_arity_check():
    with pytest.raises(ValueError):
        compose(ker("a", "a"), ker("aa", "aaa"))


def test_partition_involution():
    p = ker("ab", "abb")
    q = involution(p)
    assert (q.k, q.l) == (3, 2)
    assert involution(q) == p


def small_partitions():
    """Every partition with at most two upper and two lower points, each
    with no empty block and with one."""
    return [
        BilabelledGraph(edgeless(p.graph.n + empty), p.inputs, p.outputs)
        for k in range(3)
        for l in range(3)
        for p in enumerate_set_partitions(k, l)
        for empty in (0, 1)
    ]


def test_diagram_operations_match_the_explicit_partition_calculus():
    parts = small_partitions()
    for p in parts:
        assert partition_key(involution(p)) == partition_key(explicit_partition_involution(p))
        for q in parts:
            assert partition_key(tensor(p, q)) == partition_key(explicit_partition_tensor(p, q))
            if q.l == p.k:
                assert partition_key(compose(p, q)) == partition_key(explicit_partition_compose(p, q))


# ---------------------------------------------------------------------------
# a partition is its edgeless diagram


def test_embed_identity_and_pair():
    assert ker("a", "a") == BilabelledGraph(edgeless(1), (0,), (0,))
    assert ker("", "aa") == BilabelledGraph(edgeless(1), (), (0, 0))


def test_embed_crossing():
    assert ker("ab", "ba") == BilabelledGraph(edgeless(2), (0, 1), (1, 0))


def test_embed_keeps_empty_blocks_as_isolated_vertices():
    d = from_blocks(0, 2, [[0, 1], []])
    assert d.graph.n == 2
    assert d.graph.edges == frozenset()
    assert d.outputs[0] == d.outputs[1]


def test_embedding_round_trips_through_ker():
    for k in range(3):
        for l in range(3):
            for p in enumerate_set_partitions(k, l):
                assert ker(p.inputs, p.outputs) == p


def assert_numbered_canonically(d):
    """``d`` is edgeless and its labels are numbered by first occurrence, so
    they name vertices ``0..m-1`` and its unlabelled vertices come after."""
    points = d.inputs + d.outputs
    assert isinstance(d, BilabelledGraph)
    assert d.graph.edges == frozenset()
    assert points == kernel(points)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=6), st.integers(0, 2), st.data())
def test_every_reading_of_a_partition_is_one_literal_diagram(word, empty, data):
    """Each reader numbers its diagram canonically, so two readings of one
    partition, however its blocks are listed, compare equal literally."""
    k = data.draw(st.integers(0, len(word)))
    l = len(word) - k
    blocks = [[p for p, v in enumerate(word) if v == x] for x in set(word)] + [[]] * empty
    blocks = [data.draw(st.permutations(b)) for b in data.draw(st.permutations(blocks))]
    readings = [from_blocks(k, l, blocks), partition_from_json({"k": k, "l": l, "blocks": blocks})]
    if not empty:
        readings.append(ker(word[:k], word[k:]))
        readings.extend(p for p in enumerate_set_partitions(k, l) if p == readings[0])
        assert len(readings) == 4
    for d in readings:
        assert_numbered_canonically(d)
        assert d == readings[0]
    assert readings[0].graph.n == len(set(word)) + empty


def test_enumerated_partitions_are_numbered_canonically_and_distinct():
    for k in range(3):
        for l in range(3):
            parts = enumerate_set_partitions(k, l)
            for p in parts:
                assert_numbered_canonically(p)
            assert len(set(parts)) == len(parts) == BELL[k + l]


# ---------------------------------------------------------------------------
# serialization


def test_partition_json_round_trip():
    p = from_blocks(2, 1, [[0, 2], [1], []])
    obj = {"k": 2, "l": 1, "blocks": [[0, 2], [1], []]}
    assert partition_from_json(obj) == p


def test_partition_json_rejects_bad_cover():
    with pytest.raises(ValueError):
        partition_from_json({"k": 1, "l": 1, "blocks": [[0]]})
    with pytest.raises(ValueError):
        partition_from_json({"k": 1, "l": 0, "blocks": [[0], [0]]})
