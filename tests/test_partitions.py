"""Set partitions: kernels, enumeration, calculus, and the diagram embedding."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfib.errors import CapacityError
from graphfib.diagrams import BilabelledGraph, compose, involution, tensor
from graphfib.graphs import edgeless
from graphfib.partitions import (
    SetPartition,
    enumerate_partitions,
    enumerate_set_partitions,
    from_blocks,
    ker,
    kernel_tuples,
    partition_from_json,
)
from reference import (
    equal_diagrams,
    explicit_partition_compose,
    explicit_partition_involution,
    explicit_partition_tensor,
    partition_diagram,
    through_diagrams,
)

BELL = [1, 1, 2, 5, 15, 52]


# ---------------------------------------------------------------------------
# kernels


def test_ker_display_example():
    p = ker("aaa", "baac")
    assert (p.k, p.l) == (3, 4)
    assert p.block_of == (0, 0, 0, 1, 0, 0, 2)
    assert p.num_blocks == 3


def test_ker_empty():
    p = ker("", "")
    assert (p.k, p.l, p.num_blocks) == (0, 0, 0)


def test_ker_crossing():
    p = ker("ab", "ba")
    assert p.blocks() == ((0, 3), (1, 2))


def test_ker_one_line_word():
    p = ker("aabacbdd", "")
    assert p.blocks() == ((0, 1, 3), (2, 5), (4,), (6, 7))
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
    return SetPartition(k, m - k, p.block_of, p.num_blocks + draw(st.integers(0, 2)))


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
    assert p.num_blocks == 2
    assert p.num_empty_blocks == 1
    assert p != from_blocks(1, 1, [[0, 1]])


def test_partition_tensor():
    p = ker("a", "a")
    q = ker("", "bb")
    t = through_diagrams(tensor, p, q)
    assert (t.k, t.l) == (1, 3)
    assert t.blocks() == ((0, 1), (2, 3))


def test_partition_compose_worked_example():
    """Blocks that die in the middle row survive as empty blocks."""
    p = ker("aaa", "baac")
    q = ker("abcd", "ecbb")
    qp = through_diagrams(compose, q, p)
    assert (qp.k, qp.l) == (3, 4)
    assert qp.blocks() == ((0, 1, 2, 4, 5, 6), (3,), (), ())
    assert qp.num_empty_blocks == 2
    assert qp.num_blocks == 4


def test_partition_compose_arity_check():
    with pytest.raises(ValueError):
        through_diagrams(compose, ker("a", "a"), ker("aa", "aaa"))


def test_partition_involution():
    p = ker("ab", "abb")
    q = through_diagrams(involution, p)
    assert (q.k, q.l) == (3, 2)
    assert through_diagrams(involution, q) == p


def small_partitions():
    """Every partition with at most two upper and two lower points, each
    with no empty block and with one."""
    return [
        SetPartition(k, l, p.block_of, p.num_blocks + empty)
        for k in range(3)
        for l in range(3)
        for p in enumerate_set_partitions(k, l)
        for empty in (0, 1)
    ]


def test_operations_through_diagrams_match_the_explicit_calculus():
    parts = small_partitions()
    for p in parts:
        assert through_diagrams(involution, p) == explicit_partition_involution(p)
        for q in parts:
            assert through_diagrams(tensor, p, q) == explicit_partition_tensor(p, q)
            if q.l == p.k:
                assert through_diagrams(compose, p, q) == explicit_partition_compose(p, q)


# ---------------------------------------------------------------------------
# embedding into bilabelled graphs


def test_embed_identity_and_pair():
    ident = partition_diagram(ker("a", "a"))
    assert equal_diagrams(ident, BilabelledGraph(edgeless(1), (0,), (0,)))
    pair = partition_diagram(ker("", "aa"))
    assert equal_diagrams(pair, BilabelledGraph(edgeless(1), (), (0, 0)))


def test_embed_crossing():
    d = partition_diagram(ker("ab", "ba"))
    assert equal_diagrams(d, BilabelledGraph(edgeless(2), (0, 1), (1, 0)))


def test_embed_keeps_empty_blocks_as_isolated_vertices():
    p = from_blocks(0, 2, [[0, 1], []])
    d = partition_diagram(p)
    assert d.graph.n == 2
    assert d.graph.edges == frozenset()
    assert d.outputs[0] == d.outputs[1]


def test_embedding_round_trips_through_ker():
    for k in range(3):
        for l in range(3):
            for p in enumerate_set_partitions(k, l):
                d = partition_diagram(p)
                back = ker(d.inputs, d.outputs)
                assert back.block_of == p.block_of
                assert d.graph.n == p.num_blocks


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
