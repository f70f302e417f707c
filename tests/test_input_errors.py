"""Input errors raised by library calls that no other test makes in-process."""

import pytest

from graphfib.diagrams import BilabelledGraph, bl_f_compose
from graphfib.fibrations import GraphFibration
from graphfib.graphs import complete, cycle, graph_from_json, parse_graph6
from graphfib.tensors import compose, tensor_product, zero_tensor

EDGE = BilabelledGraph(complete(2), (0,), (1,))
TWO_OUTPUTS = BilabelledGraph(complete(2), (0,), (0, 1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bl_f_compose(EDGE, TWO_OUTPUTS, ()), "arity mismatch: 2 outputs composed into 1 inputs"),
        (lambda: cycle(2), "cycle needs at least 3 vertices"),
        (lambda: parse_graph6("~??~"), "extended graph6 sizes are not supported"),
        (lambda: zero_tensor(2, 1, 1).entry((0, 0), (0,)), "multi-index lengths must match the tensor legs"),
        (lambda: zero_tensor(2, 1, 1).entry((0,), ()), "multi-index lengths must match the tensor legs"),
        (lambda: tensor_product(zero_tensor(2, 1, 1), zero_tensor(3, 1, 1)), "tensor factors must share the leg size"),
        (lambda: compose(zero_tensor(2, 1, 1), zero_tensor(3, 1, 1)), "composed tensors must share the leg size"),
        (lambda: GraphFibration([complete(2)]), "fibration generators must be bilabelled graphs"),
    ],
    ids=[
        "bl_f_compose-arity",
        "cycle-2",
        "graph6-extended-size",
        "entry-long-outputs",
        "entry-short-inputs",
        "tensor_product-leg-sizes",
        "compose-leg-sizes",
        "fibration-non-diagram",
    ],
)
def test_bad_input_raises_a_value_error_naming_it(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "edge",
    [[0], [0, 1, 1], [0, True], [False, 1], [0, 1.0], (0, 1), {"0": 1}, "01", 0, None],
    ids=["one-entry", "three-entries", "bool", "bool-first", "float", "tuple", "object", "string", "int", "null"],
)
def test_an_edge_that_is_not_a_pair_of_integers_is_refused(edge):
    with pytest.raises(ValueError) as info:
        graph_from_json({"n": 2, "edges": [[0, 1], edge]})
    assert str(info.value) == "graph JSON edges must be pairs of integers"


def test_an_edge_out_of_range_is_named_as_a_pair():
    with pytest.raises(ValueError) as info:
        graph_from_json({"n": 2, "edges": [[0, 1], [1, 2]]})
    assert str(info.value) == "edge (1, 2) out of range for 2 vertices"
