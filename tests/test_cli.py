"""End-to-end command line checks driven through the in-process entry point."""

import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfib
from graphfib import cli, repspaces, tensors
from graphfib.cli import main
from graphfib.diagrams import diagram_from_json
from graphfib.freeprod import closure_from_json
from graphfib.graphs import graph_from_json
from graphfib.partitions import partition_from_json
from graphfib.repspaces import OrbitClass, dim_report, verify_THpart
from graphfib.tensors import (
    build_T,
    build_That,
    moebius_expand,
    tensor_from_json,
    tensor_to_json,
    verify_functor,
    verify_that_sums,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_child(*argv, timeout=10, memory=1 << 30):
    """Run the CLI in a child process, so that a runaway computation fails
    the test at the timeout or at an address-space limit of ``memory``
    bytes (1 GiB) instead of stalling the suite or the machine."""
    src = os.path.dirname(os.path.dirname(graphfib.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "graphfib.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (memory, memory)),
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# tensor


def test_tensor_counts_all_homomorphisms(capsys):
    payload = run_json(capsys, "tensor", fx("k3.json"), fx("edge_diagram.json"))
    assert payload == {"n": 3, "k": 1, "l": 1, "entries": [0, 1, 1, 1, 0, 1, 1, 1, 0]}


def test_tensor_injective_mode_differs(capsys):
    hom = run_json(capsys, "tensor", fx("k2.json"), fx("pair_points_diagram.json"))
    inj = run_json(
        capsys, "tensor", fx("k2.json"), fx("pair_points_diagram.json"), "--mode", "inj"
    )
    assert hom["entries"] == [1, 1, 1, 1]
    assert inj["entries"] == [0, 1, 1, 0]


def test_tensor_csv_output(capsys):
    code, out, _ = run(
        capsys, "tensor", fx("k3.json"), fx("edge_diagram.json"), "--format", "csv"
    )
    assert code == 0
    assert out == "0,1,1\n1,0,1\n1,1,0\n"


@pytest.mark.parametrize(
    "k, l, json_out",
    [(0, 1, '{"entries": [], "k": 0, "l": 1, "n": 0}\n'), (1, 0, '{"entries": [], "k": 1, "l": 0, "n": 0}\n')],
)
def test_tensor_into_the_empty_graph(capsys, tmp_path, k, l, json_out):
    # no map of a labelled vertex into no vertices: n^l rows of n^k columns,
    # so one empty row when l = 0 and none when l >= 1; CSV ends each listing
    # with one newline either way
    host = write_json(tmp_path, "empty.json", {"n": 0, "edges": []})
    point = write_json(tmp_path, "point.json", {"graph": {"n": 1, "edges": []}, "inputs": [0] * k, "outputs": [0] * l})
    assert run(capsys, "tensor", host, point, "--format", "csv") == (0, "\n", "")
    assert run(capsys, "tensor", host, point, "--format", "json") == (0, json_out, "")


def test_tensor_accepts_graph6_input(capsys):
    payload = run_json(capsys, "tensor", fx("k3_graph6.json"), fx("identity_diagram.json"))
    assert payload["entries"] == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_tensor_refuses_a_tensor_above_the_tuple_bound(capsys, tmp_path):
    graph = write_json(tmp_path, "graph.json", {"n": 60, "edges": []})
    diagram = write_json(
        tmp_path,
        "diagram.json",
        {"graph": {"n": 1, "edges": []}, "inputs": [0] * 4, "outputs": [0] * 4},
    )
    code, out, err = run(capsys, "tensor", graph, diagram)
    assert code == 3 and out == "" and err.startswith("capacity:")
    assert "Traceback" not in err


def test_tensor_counts_walks_that_enumeration_cannot_list(tmp_path):
    # a 12-vertex path into K9 has 9 * 8^11 (about 7.7e10) maps; labelled at
    # both ends it counts the walks of length 11, the entries of A^11
    n, length = 9, 11
    host = write_json(tmp_path, "k9.json", {"n": n, "edges": [[u, v] for u in range(n) for v in range(u + 1, n)]})
    walk = {"n": length + 1, "edges": [[i, i + 1] for i in range(length)]}
    diagram = write_json(tmp_path, "path.json", {"graph": walk, "inputs": [0], "outputs": [length]})
    code, out, err = run_in_child("tensor", host, diagram)
    assert code == 0, err
    adjacency = [[int(i != j) for j in range(n)] for i in range(n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(length):
        power = [[sum(power[i][m] * adjacency[m][j] for m in range(n)) for j in range(n)] for i in range(n)]
    assert json.loads(out)["entries"] == [power[i][j] for j in range(n) for i in range(n)]


def test_tensor_sums_out_a_long_path_in_time(tmp_path):
    # Maps of a path into a looped vertex 0 joined to an unlooped vertex 1
    # are strings with no two adjacent 1s: with the first vertex at 0 and at
    # 1 there are F(n + 1) and F(n) of them.
    n = 2000
    host = write_json(tmp_path, "host.json", {"n": 2, "edges": [[0, 0], [0, 1]]})
    walk = {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}
    diagram = write_json(tmp_path, "path.json", {"graph": walk, "inputs": [0], "outputs": []})
    code, out, err = run_in_child("tensor", host, diagram)
    assert code == 0, err
    fib = [0, 1]  # F(0), F(1)
    while len(fib) < n + 2:
        fib.append(fib[-1] + fib[-2])
    assert json.loads(out)["entries"] == [fib[n + 1], fib[n]]


def test_tensor_sums_out_a_20000_vertex_path_in_linear_time(tmp_path):
    # Each vertex summed out updates the factor counts of its neighbours
    # only; recounting every factor at each step took minutes here.  Into K2
    # a path is fixed by the image of its first vertex.
    n = 20000
    walk = {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}
    diagram = write_json(tmp_path, "walk.json", {"graph": walk, "inputs": [0], "outputs": []})
    code, out, err = run_in_child("tensor", fx("k2.json"), diagram, timeout=20)
    assert code == 0, err
    assert json.loads(out)["entries"] == [1, 1]


def test_a_sum_out_table_past_the_pair_bound_exits_3(tmp_path):
    # each of the three degree-2 vertices of an unlabelled K_{2,3} is summed
    # out onto the two others by a table that walks deg(c)^2 image pairs per
    # host vertex c: into a 3,000-leaf star, 9,003,000 pairs, counted and
    # refused before a table that ran out of memory under 1 GiB is built
    k23 = {"graph": {"n": 5, "edges": [[a, b] for a in range(2) for b in range(2, 5)]}, "inputs": [], "outputs": []}
    star = {"n": 3001, "edges": [[0, v] for v in range(1, 3001)]}
    code, out, err = run_in_child("tensor", write_json(tmp_path, "star.json", star), write_json(tmp_path, "k23.json", k23))
    assert code == 3 and out == "" and err.startswith("capacity:")
    assert "Traceback" not in err


def test_a_sum_out_table_at_the_pair_bound_answers_in_512_mib(tmp_path):
    # Into a 1,413-leaf star an unlabelled K_{2,3} walks 1,997,982 image
    # pairs a table, just inside the pair bound, and must answer in half the
    # memory the other child runs get.  With the two-vertex side on the
    # centre the other three take any leaves, 1,413^3 maps; with it on
    # leaves the other three all take the centre, 1,413^2 maps.
    k23 = {"graph": {"n": 5, "edges": [[a, b] for a in range(2) for b in range(2, 5)]}, "inputs": [], "outputs": []}
    star = {"n": 1414, "edges": [[0, v] for v in range(1, 1414)]}
    files = write_json(tmp_path, "star.json", star), write_json(tmp_path, "k23.json", k23)
    code, out, err = run_in_child("tensor", *files, memory=512 << 20)
    assert (code, err) == (0, "")
    assert json.loads(out)["entries"] == [2823148566]


def test_an_answer_past_the_integer_digit_limit_is_printed(capsys, tmp_path):
    # 1000^1434 has 4,303 digits, past the 4,300 that Python turns into text
    # by default; JSON input keeps that limit.
    host = write_json(tmp_path, "host.json", {"n": 1000, "edges": []})
    points = write_json(tmp_path, "points.json", {"graph": {"n": 1434, "edges": []}, "inputs": [], "outputs": []})
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    entry = "1" + "0" * 4302
    code, out, err = run(capsys, "tensor", host, points)
    assert code == 0 and out == f'{{"entries": [{entry}], "k": 0, "l": 0, "n": 1000}}\n', err
    code, out, err = run(capsys, "tensor", host, points, "--format", "csv")
    assert code == 0 and out == entry + "\n", err
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 1' + "0" * 4999 + ', "edges": []}')
    code, out, err = run(capsys, "tensor", str(huge), points)
    assert (code, out) == (2, "") and err.startswith("error:")


@pytest.mark.parametrize("matched, count", [(False, 0), (True, 100)])
def test_tensor_prunes_at_tables_of_summed_vertices(tmp_path, matched, count):
    # In a subdivided K4 the six middle vertices are summed into tables on
    # the four branch vertices, which keep no edge between them: only the
    # tables can stop the search short of the 100^4 maps of the branch
    # vertices.  Into a perfect matching every branch vertex takes one image.
    edges = []
    for middle, (a, b) in enumerate(itertools.combinations(range(4), 2), start=4):
        edges += [[a, middle], [middle, b]]
    diagram = write_json(tmp_path, "k4.json", {"graph": {"n": 10, "edges": edges}, "inputs": [], "outputs": []})
    matching = [[2 * i, 2 * i + 1] for i in range(50)] if matched else []
    host = write_json(tmp_path, "host.json", {"n": 100, "edges": matching})
    code, out, err = run_in_child("tensor", host, diagram)
    assert code == 0, err
    assert json.loads(out)["entries"] == [count]


# ---------------------------------------------------------------------------
# verify


def test_verify_functor_fixtures_pass(capsys):
    payload = run_json(capsys, "verify", "functor", fx("functor_checks.json"))
    assert payload["ok"] is True
    assert payload["failures"] == []
    assert payload["law"] == "functor"
    assert payload["checks"] >= 6


def test_verify_reports_a_corrupted_frozen_tensor(capsys):
    code, out, _ = run(capsys, "verify", "functor", fx("functor_checks_bad.json"))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    failure = payload["failures"][0]
    assert failure["law"] == "frozen-right"
    assert failure["first_diff"] == {"row": [0], "col": [1], "lhs": 0, "rhs": 7}


def test_verify_injective_sum_rules(capsys):
    payload = run_json(capsys, "verify", "that", fx("that_checks.json"))
    assert payload["ok"] is True


def test_verify_moebius(capsys):
    payload = run_json(capsys, "verify", "moebius", fx("moebius_checks.json"))
    assert payload["ok"] is True and payload["checks"] == 2


def test_verify_partition_average(capsys):
    payload = run_json(capsys, "verify", "thpart", fx("thpart_checks.json"))
    assert payload["ok"] is True


def test_verify_thpart_past_the_tally_bound_exits_3(tmp_path):
    # S8 x S2 (80,640 elements) times the 10!/4! tuples of six singleton
    # blocks is about 1.2 * 10^10 tallies, inside every other bound
    k8_k2 = {"n": 10, "edges": [[u, v] for u in range(8) for v in range(u + 1, 8)] + [[8, 9]]}
    singletons = {"k": 3, "l": 3, "blocks": [[point] for point in range(6)]}
    fixtures = write_json(
        tmp_path, "checks.json", {"checks": [{"group": {"automorphisms_of": k8_k2}, "partition": singletons}]}
    )
    code, out, err = run_in_child("verify", "thpart", fixtures, timeout=30)
    assert code == 3 and out == "" and err.startswith("capacity:")
    assert "above the bound 10000000" in err and "Traceback" not in err


def test_verify_refuses_a_tensor_above_the_tuple_bound(capsys, tmp_path):
    host = {"n": 60, "edges": [[i, (i + 1) % 60] for i in range(60)]}
    point = {"graph": {"n": 1, "edges": []}, "inputs": [0, 0], "outputs": [0, 0]}
    check = {"graph": host, "left": point, "right": point}
    fixtures = write_json(tmp_path, "checks.json", {"checks": [check]})
    code, out, err = run(capsys, "verify", "functor", fixtures)
    assert code == 3 and out == "" and err.startswith("capacity:")
    assert "Traceback" not in err


def test_verify_builds_each_side_once(capsys, monkeypatch):
    # one check with both sides frozen: T(left) and T(right) once for the
    # frozen comparisons and the tensor, compose and adjoint laws, the tensor
    # and composite diagrams and the two involutions
    calls = []

    def counting(g, d):
        calls.append(d)
        return build_T(g, d)

    monkeypatch.setattr(cli, "build_T", counting)
    monkeypatch.setattr(tensors, "build_T", counting)
    payload = run_json(capsys, "verify", "functor", fx("functor_checks.json"))
    assert payload["ok"] is True and payload["checks"] == 6
    assert len(calls) == 6


def test_verify_refuses_too_many_overlaps(tmp_path):
    # two edgeless 10-vertex diagrams have sum_s C(10, s)^2 s! = 234,662,231
    # overlaps; they are counted, not listed
    host = {"n": 2, "edges": [[0, 1]]}
    empty = {"graph": {"n": 10, "edges": []}, "inputs": [], "outputs": []}
    fixtures = write_json(tmp_path, "checks.json", {"checks": [{"graph": host, "left": empty, "right": empty}]})
    code, out, err = run_in_child("verify", "that", fixtures)
    assert code == 3 and out == "" and err.startswith("capacity:")
    assert "more than 1000000 overlaps" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "frozen",
    [
        # 10^(10^8) entries would take minutes to compute; the shape check stops early
        {"n": 10, "k": 100000000, "l": 0, "entries": []},
        {"n": -3, "k": 1, "l": 1, "entries": [0] * 9},
        {"n": 3, "k": True, "l": 1, "entries": [0] * 9},
        {"n": 3, "k": 1, "l": 1, "entries": [False, True, True, True, False, True, True, True, False]},
    ],
)
def test_verify_rejects_a_malformed_frozen_tensor_at_once(tmp_path, frozen):
    with open(fx("functor_checks.json"), encoding="utf-8") as fh:
        check = json.load(fh)["checks"][0]
    check["expect"] = {"left": frozen}
    fixtures = write_json(tmp_path, "checks.json", {"checks": [check]})
    code, out, err = run_in_child("verify", "functor", fixtures)
    assert code == 2 and out == "" and err.startswith("error:")
    assert "Traceback" not in err


def test_verify_rejects_malformed_fixtures(capsys):
    code, _, err = run(capsys, "verify", "functor", fx("k3.json"))
    assert code == 2 and "error" in err


# ---------------------------------------------------------------------------
# dim


def test_dim_of_the_edge_commutator_fixture(capsys):
    payload = run_json(
        capsys, "dim", fx("group_swap3.json"), fx("abab3_closure.json"), "0", "2"
    )
    assert payload["dim"] == 2
    assert payload["rank"] == 2
    assert payload["burnside"] == 5
    accepted = [o for o in payload["orbits"] if o["accepted"]]
    assert [o["b"] for o in accepted] == [[0, 0], [2, 2]]


def test_dim_without_a_closure_counts_orbits(capsys):
    payload = run_json(capsys, "dim", fx("group_s3.json"), fx("null.json"), "1", "1")
    assert payload["dim"] == payload["burnside"] == 2


def test_dim_with_the_full_filter(capsys):
    payload = run_json(
        capsys, "dim", fx("group_s2_elements.json"), fx("full_filter2.json"), "1", "1"
    )
    assert payload["dim"] == 2 and payload["burnside"] == 2


def test_orbits_dim_null_and_thpart_on_aut_g_never_replay_its_generators(capsys, tmp_path, monkeypatch):
    # only an invariance check reads the greedy generators of an automorphism group
    group = {"automorphisms_of": {"n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]}}
    path = write_json(tmp_path, "group.json", group)
    pair = {"k": 1, "l": 1, "blocks": [[0], [1]]}
    checks = write_json(tmp_path, "checks.json", {"checks": [{"group": group, "partition": pair}]})
    commands = [("orbits", path, "2", "1"), ("dim", path, fx("null.json"), "2", "1"), ("verify", "thpart", checks)]
    answers = [run(capsys, *argv) for argv in commands]
    assert all(code == 0 and err == "" for code, _, err in answers)
    monkeypatch.setattr(repspaces.PermutationGroup, "_greedy", lambda *args: pytest.fail("generators replayed"))
    assert [run(capsys, *argv) for argv in commands] == answers


@pytest.mark.parametrize(
    "command, digest",
    [
        (("orbits",), "bfc3979f3fce523f099891866d0423e127521ecc78ad02c55034db3722076851"),
        (("dim", fx("null.json")), "ac9f118e590aa7d95dc99d01d7429da1449b85a6714d04ade61cd1a1eef7c4e3"),
    ],
    ids=["orbits", "dim"],
)
def test_the_largest_symmetric_group_at_three_and_three_labels(tmp_path, command, digest):
    # S8 lists 40,320 elements; the digest is that of the output of S8 closed
    # coset by coset from the swap and the 8-cycle, and there are Bell(6) orbits
    group = write_json(tmp_path, "s8.json", {"symmetric": 8})
    code, out, err = run_in_child(command[0], group, *command[1:], "3", "3", timeout=60)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(json.loads(out)["orbits"]) == 203


def test_dim_exits_indeterminate_when_the_strategy_is_too_shallow(capsys):
    code, _, err = run(
        capsys, "dim", fx("group_swap3.json"), fx("abab3_bfs0.json"), "0", "4"
    )
    assert code == 4 and err.startswith("indeterminate:")


def test_dim_rejects_a_malformed_bfs_strategy(capsys, tmp_path):
    words = write_json(
        tmp_path,
        "words.json",
        {"alphabet": 3, "generators": [["a", "b", "a", "b"]], "strategy": {"bounded-bfs": 5}},
    )
    code, _, err = run(capsys, "dim", fx("group_swap3.json"), words, "0", "2")
    assert code == 2 and err.startswith("error:") and "bounded-bfs" in err


def test_dim_rejects_bool_letters(tmp_path):
    group = write_json(tmp_path, "group.json", {"degree": 3, "elements": [[0, 1, 2]]})
    words = write_json(
        tmp_path,
        "words.json",
        {"alphabet": 3, "generators": [[True, False, True, False]], "strategy": "racg"},
    )
    code, out, err = run_in_child("dim", group, words, "0", "0")
    assert code == 2 and out == "" and err.startswith("error:") and "invalid letter" in err
    assert "Traceback" not in err


def test_dim_exits_indeterminate_when_invariance_cannot_be_certified(tmp_path, capsys):
    group = write_json(tmp_path, "group.json", {"symmetric": 3})
    words = write_json(
        tmp_path, "words.json", {"alphabet": 3, "generators": [[0, 1]], "strategy": {"bounded-bfs": {"depth": 0}}}
    )
    code, out, err = run(capsys, "dim", group, words, "1", "1")
    assert code == 4 and out == ""
    assert err.strip() == "indeterminate: cannot certify invariance of the closure for (0, 1) under (1, 0, 2)"


def test_dim_rejects_negative_label_counts(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", fx("group_s3.json"), fx("null.json"), "-1", "2"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def test_dim_exits_indeterminate_when_an_orbit_word_is_unknown(capsys, tmp_path):
    # the trivial group keeps no generator, so check_invariance queries
    # nothing and the unknown verdict surfaces in orbit_basis
    group = write_json(tmp_path, "group.json", {"degree": 3, "elements": [[0, 1, 2]]})
    words = write_json(
        tmp_path,
        "words.json",
        {"alphabet": 3, "generators": [[0, 1]], "strategy": {"bounded-bfs": {"depth": 0}}},
    )
    code, out, err = run(capsys, "dim", group, words, "1", "1")
    assert code == 4 and out == ""
    assert err == "indeterminate: membership of orbit ((0,), (1,)) is unknown under the chosen strategy\n"


def test_dim_reports_a_broken_invariant_with_exit_5(capsys, monkeypatch):
    # (1, 0) in place of (0, 1): a listing of the true length whose second representative is not least
    listing = [OrbitClass((0,), (0,), 3), OrbitClass((1,), (0,), 6)]
    monkeypatch.setattr("graphfib.repspaces.orbits", lambda *args: listing)
    code, out, err = run(capsys, "dim", fx("group_s3.json"), fx("null.json"), "1", "1")
    assert code == 5 and out == "" and err.startswith("internal invariant broken:")


def test_dim_on_many_label_pairs_builds_no_dense_tensor_per_orbit(tmp_path):
    # 40,000 orbits of one label pair each: a dense 200^2 tensor per orbit would take 12 GiB
    group = write_json(tmp_path, "group.json", {"degree": 200, "elements": [list(range(200))]})
    code, out, err = run_in_child("dim", group, fx("null.json"), "1", "1", timeout=30)
    assert code == 0, err
    report = json.loads(out)
    assert report["dim"] == report["burnside"] == 40000


def test_dim_on_a_long_label_tuple_on_one_point(tmp_path):
    # the one orbit's representative has 100,000 labels; a lazy step nested per label would overflow the C stack
    group = write_json(tmp_path, "group.json", {"symmetric": 1})
    code, out, err = run_in_child("dim", group, fx("null.json"), "60000", "40000", timeout=30)
    assert code == 0, err
    report = json.loads(out)
    assert report["dim"] == report["burnside"] == 1


def test_dim_stops_a_coset_table_on_a_wide_alphabet_before_it_fills_memory(tmp_path):
    # relators (x_0 x_i)^3 on 12,000 letters: an infinite Coxeter group whose
    # enumeration defines rows of 12,000 slots.  20,000 of them would take
    # 1.9 GB; the cell bound stops it at 1,666, and every one-letter word
    # is refused by its parity.
    n = 12000
    group = write_json(tmp_path, "group.json", {"degree": n, "elements": [list(range(n))]})
    words = write_json(tmp_path, "words.json", {"alphabet": n, "generators": [[0, i, 0, i, 0, i] for i in range(1, n)]})
    code, out, err = run_in_child("dim", group, words, "1", "0", timeout=30)
    assert (code, err) == (0, ""), err
    report = json.loads(out)
    assert report["dim"] == 0 and report["burnside"] == len(report["orbits"]) == n
    assert not any(o["accepted"] for o in report["orbits"])


def test_dim_refuses_one_letter_words_by_parity_in_one_step_each(tmp_path):
    # relators (x_i x_{i+1})^3 on 12,000 letters: the cell bound stops the
    # coset table, and bounded search refuses each word x_i by its parity.
    # The pivot of x_{i+1} holds x_i until the basis is reduced; unreduced,
    # each query stepped down the chain to x_0, 72 million steps in all.
    n = 12000
    group = write_json(tmp_path, "group.json", {"degree": n, "elements": [list(range(n))]})
    words = write_json(tmp_path, "words.json", {"alphabet": n, "generators": [[i, i + 1] * 3 for i in range(n - 1)]})
    code, out, err = run_in_child("dim", group, words, "1", "0", timeout=8)
    assert (code, err) == (0, ""), err
    report = json.loads(out)
    assert report["dim"] == 0 and report["burnside"] == len(report["orbits"]) == n


# ---------------------------------------------------------------------------
# closure


def test_closure_lists_all_fibres_with_their_generators(capsys):
    payload = run_json(capsys, "closure", fx("edge_fibration.json"))
    assert payload["count"] == 19
    by_n = {}
    for entry in payload["graphs"]:
        by_n[entry["n"]] = by_n.get(entry["n"], 0) + 1
    assert by_n == {0: 1, 1: 1, 2: 2, 3: 4, 4: 11}
    edge = next(e for e in payload["graphs"] if e["n"] == 2 and e["edges"])
    assert edge["fiber_generators"] == [[0, 1, 0, 1]]
    lonely = next(e for e in payload["graphs"] if e["n"] == 1)
    assert lonely["fiber_generators"] == []


@pytest.mark.parametrize("params", [5, {"depth": 3, "width": 2}])
def test_closure_rejects_a_malformed_bfs_strategy(capsys, tmp_path, params):
    with open(fx("edge_fibration.json"), encoding="utf-8") as fh:
        fibration = json.load(fh)
    fibration["strategy"] = {"bounded-bfs": params}
    path = write_json(tmp_path, "fibration.json", fibration)
    code, out, err = run(capsys, "closure", path)
    assert code == 2 and out == "" and err.startswith("error:")


def test_closure_rejects_an_unknown_strategy_name(capsys, tmp_path):
    with open(fx("edge_fibration.json"), encoding="utf-8") as fh:
        fibration = json.load(fh)
    fibration["strategy"] = "shuffle"
    path = write_json(tmp_path, "fibration.json", fibration)
    code, out, err = run(capsys, "closure", path)
    assert code == 2 and out == "" and err.startswith("error:")
    assert "Traceback" not in err and "shuffle" in err


K2_GENERATOR = {"graph": {"n": 2, "edges": [[0, 1]]}, "inputs": [], "outputs": [0, 1, 0, 1]}
EASY_LOOPED_AND_EDGELESS = {
    "generators": [
        K2_GENERATOR,
        {"graph": {"n": 2, "edges": [[0, 1], [1, 1]]}, "inputs": [0], "outputs": [1]},
        {"graph": {"n": 2, "edges": []}, "inputs": [1], "outputs": [0, 1, 0]},
    ],
    "easy": True,
    "max_vertices": 3,
}


def test_closure_listing_runs_no_homomorphism_search(capsys, tmp_path, monkeypatch):
    # the listed fibres' words come from the closure's copy table; the search
    # serves queries about one graph only
    inputs = [fx("edge_fibration.json"), write_json(tmp_path, "easy.json", EASY_LOOPED_AND_EDGELESS)]
    want = [run(capsys, "closure", path) for path in inputs]

    def refuse(*args, **kwargs):
        raise AssertionError("the closure listing ran a homomorphism search")

    monkeypatch.setattr(graphfib.fibrations, "enumerate_homomorphisms", refuse)
    for path, (code, out, err) in zip(inputs, want):
        assert code == 0 and err == ""
        assert run(capsys, "closure", path) == (0, out, "")


def test_closure_of_commutator_words_resolves_no_membership_strategy(capsys, monkeypatch):
    # every word of the edge fibration reads xyxy, so the commuting pairs
    # prune each fibre's words and no verdict function is made
    want = run(capsys, "closure", fx("edge_fibration.json"))
    assert want[0] == 0 and want[2] == ""

    def refuse(*args, **kwargs):
        raise AssertionError("the closure listing resolved a membership strategy")

    monkeypatch.setattr(graphfib.freeprod, "_decider", refuse)
    assert run(capsys, "closure", fx("edge_fibration.json")) == want


# K2 with xyxy and P3 with xy: from 3 vertices on its copy lists hold words
# of both kinds, so its fibres' words take the general path, not the xyxy scan
MIXED_WORD_FIBRATION = {
    "generators": [K2_GENERATOR, {"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, "inputs": [], "outputs": [0, 1]}],
    "max_vertices": 4,
    "strategy": {"bounded-bfs": {"depth": 1, "max_len": 8}},
}


@pytest.mark.parametrize("words", ["xyxy", "mixed"])
def test_closure_refuses_a_fibre_its_copies_do_not_cover_with_exit_5(capsys, monkeypatch, tmp_path, words):
    # a table without the one-edge copies on cell (0, 1) is not closed under
    # relabeling: the closure still reaches the one-edge class through other
    # cells, and its representative, the edge 0-1, has no copy inside it
    real = graphfib.fibrations._copy_table

    def broken(fib, n):
        return [(c, w, pair) for c, w, pair in real(fib, n) if c != 1 << 1]

    monkeypatch.setattr(graphfib.fibrations, "_copy_table", broken)
    path = fx("edge_fibration.json") if words == "xyxy" else write_json(tmp_path, "mixed.json", MIXED_WORD_FIBRATION)
    code, out, err = run(capsys, "closure", path)
    assert code == 5 and out == ""
    assert err == "internal invariant broken: a listed fibre must be covered by the generator copies inside it\n"
    assert "Traceback" not in err


P9_GENERATOR = {"graph": {"n": 9, "edges": [[v, v + 1] for v in range(8)]}, "inputs": [], "outputs": [0, 1]}
P11_GENERATOR = {"graph": {"n": 11, "edges": [[v, v + 1] for v in range(10)]}, "inputs": [], "outputs": [0, 1]}
E30_GENERATOR = {"graph": {"n": 30, "edges": []}, "inputs": [], "outputs": []}


@pytest.mark.parametrize(
    "fibration, code, message",
    [
        ({"generators": [K2_GENERATOR], "max_vertices": 9}, 3, "canonical form supported up to 8 vertices"),
        ({"generators": [], "max_vertices": 9}, 3, "canonical form supported up to 8 vertices"),
        ({"generators": [P11_GENERATOR], "easy": True}, 3, "11-vertex generator has more than 1000000 maps"),
        ({"generators": [P9_GENERATOR], "easy": True}, 3, "9-vertex generator has more than 1000000 maps"),
        ({"generators": [P11_GENERATOR], "max_vertices": 3}, 0, ""),
        (
            {"generators": [K2_GENERATOR, E30_GENERATOR], "easy": True, "max_vertices": 3},
            3,
            "30-vertex generator has more than 1000000 maps",
        ),
    ],
    ids=[
        "k2-nine-vertices",
        "no-generators-nine-vertices",
        "easy-eleven-vertex-generator",
        "easy-nine-vertex-generator",
        "skew-eleven-vertex-generator",
        "easy-thirty-vertex-edgeless-generator",
    ],
)
def test_closure_size_bounds_exit_cleanly(tmp_path, fibration, code, message):
    # nine-vertex fibres cannot be canonically labelled, and an easy path on
    # nine or eleven vertices has more maps into five vertices (5^9, 5^11) than
    # the closure walks; a skew generator larger than the bound has no copy in
    # any fibre and is simply never used.  An edgeless generator adds no copy,
    # but the copy table lists its 3^30 maps once per vertex count.
    got, out, err = run_in_child("closure", write_json(tmp_path, "fibration.json", fibration))
    assert got == code, err
    assert "Traceback" not in err
    if code:
        assert out == "" and err.startswith("capacity:") and message in err
    else:
        assert json.loads(out)["count"] == 4 and err == ""


def test_a_closure_past_the_mask_bound_exits_3(tmp_path):
    # every graph with loops on 7 vertices is a fibre: 2^28 labelled graphs,
    # up to C(28, 14) of them with one edge count.  Filing them stops at the
    # bound of 10^6 after some seconds, where listing them all would run for
    # hours.
    loop = {"graph": {"n": 1, "edges": [[0, 0]]}, "inputs": [], "outputs": []}
    fibration = {"generators": [K2_GENERATOR, loop], "max_vertices": 7}
    code, out, err = run_in_child("closure", write_json(tmp_path, "fibration.json", fibration), timeout=60)
    assert code == 3 and out == "" and err.startswith("capacity:")
    assert "more than 1000000 labelled graphs" in err and "Traceback" not in err


@pytest.mark.parametrize("bound, code", [(7, 0), (8, 3)])
def test_the_skew_edge_closure_at_the_mask_bound(tmp_path, bound, code):
    # the relabelings are largest here, 7! and 8! slots a cell: every graph
    # on 7 vertices is a fibre, one per isomorphism class (1253 up to 7
    # vertices), while the 2^28 labelled graphs on 8 pass the filing bound
    with open(fx("edge_fibration.json"), encoding="utf-8") as fh:
        fibration = json.load(fh)
    fibration["max_vertices"] = bound
    got, out, err = run_in_child("closure", write_json(tmp_path, "fibration.json", fibration), timeout=30)
    assert got == code, err
    if code:
        assert out == "" and err.startswith("capacity:")
        assert "more than 1000000 labelled graphs" in err and "Traceback" not in err
    else:
        assert err == "" and json.loads(out)["count"] == 1253


# ---------------------------------------------------------------------------
# orbits


def test_orbits_listing(capsys):
    payload = run_json(capsys, "orbits", fx("group_swap3.json"), "0", "2")
    assert payload["count"] == payload["burnside"] == 5
    assert [o["b"] for o in payload["orbits"]] == [[0, 0], [0, 1], [0, 2], [2, 0], [2, 2]]
    assert [o["size"] for o in payload["orbits"]] == [2, 2, 2, 2, 1]


def test_orbits_refuses_a_count_that_misses_the_burnside_count_with_exit_5(capsys, monkeypatch):
    real = graphfib.repspaces.burnside_dim
    monkeypatch.setattr("graphfib.repspaces.burnside_dim", lambda group, k, l: real(group, k, l) + 1)
    code, out, err = run(capsys, "orbits", fx("group_swap3.json"), "0", "2")
    assert code == 5 and out == ""
    assert err == "internal invariant broken: orbit count must match the Burnside count\n"


def test_dim_refuses_a_count_that_misses_the_burnside_count_with_exit_5(capsys, monkeypatch):
    real = graphfib.repspaces.burnside_dim
    monkeypatch.setattr("graphfib.repspaces.burnside_dim", lambda group, k, l: real(group, k, l) + 1)
    code, out, err = run(capsys, "dim", fx("group_swap3.json"), fx("null.json"), "0", "2")
    assert code == 5 and out == ""
    assert err == "internal invariant broken: orbit count must match the Burnside count\n"


def test_orbits_respects_the_configured_tuple_bound(capsys):
    code, _, err = run(
        capsys,
        "--config",
        fx("config_tight.json"),
        "orbits",
        fx("group_s3.json"),
        "1",
        "1",
    )
    assert code == 3 and err.startswith("capacity:")


@pytest.mark.parametrize("degree", [3, 1, 0])
@pytest.mark.parametrize("command", ["orbits", "dim"])
def test_a_huge_label_count_exits_3_at_once(tmp_path, command, degree):
    # 3^(3*10^8) label pairs would take minutes to compute; on 1 or 0 points
    # there are few pairs, but one of 3*10^8 entries fills the memory limit.
    # The bound check stops early.
    group = write_json(tmp_path, "group.json", {"symmetric": degree})
    words = [fx("null.json")] if command == "dim" else []
    code, out, err = run_in_child(command, group, *words, "300000000", "0")
    assert code == 3 and out == "" and err.startswith("capacity:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "group, message",
    [
        ({"symmetric": True}, "non-negative integer"),
        ({"degree": True, "elements": [[0]]}, "non-negative integer"),
        ({"degree": 3, "elements": [[0, 1, 2], [1, 2, 0]]}, "not a permutation group"),
        ({"elements": [[0, 1]]}, "group JSON missing key 'degree'"),
    ],
)
def test_orbits_rejects_a_malformed_group(capsys, tmp_path, group, message):
    path = write_json(tmp_path, "group.json", group)
    code, out, err = run(capsys, "orbits", path, "1", "1")
    assert code == 2 and out == "" and message in err


GROUP_FORMS = "group JSON needs 'degree' with 'elements', or 'automorphisms_of' or 'symmetric' alone"
NOT_A_LIST = "group JSON field 'elements' must be a list of permutations"
# A 20-cycle, the identity and two commuting transpositions, which sort
# before the cycle: the transpositions close to a group as long as the list,
# without the cycle, and the cycle then generates S_20, past the point bound.
SWAPS_THEN_CYCLE = [
    list(range(1, 20)) + [0],
    list(range(16)) + [17, 16, 18, 19],
    list(range(20)),
    list(range(18)) + [19, 18],
]


@pytest.mark.parametrize(
    "group, code, err",
    [
        ({"degree": True, "elements": [[0]]}, 2, "error: group degree must be a non-negative integer, got True\n"),
        ({"degree": "2", "elements": [[0, 1]]}, 2, "error: group degree must be a non-negative integer, got '2'\n"),
        ({"degree": -1, "elements": []}, 2, "error: group degree must be a non-negative integer, got -1\n"),
        ({"degree": 2, "elements": [[0, 1.0]]}, 2, "error: (0, 1.0) is not a permutation of 2 points\n"),
        ({"degree": 2, "elements": [["a", "b"]]}, 2, "error: ('a', 'b') is not a permutation of 2 points\n"),
        ({"degree": 2, "elements": [[1, 0, 2]]}, 2, "error: (1, 0, 2) is not a permutation of 2 points\n"),
        ({"degree": 2, "elements": 5}, 2, f"error: {NOT_A_LIST}\n"),
        ({"degree": 2, "elements": [[0, 1], 1]}, 2, f"error: {NOT_A_LIST}\n"),
        ({"degree": 3, "elements": [[0, 1, 2], [1, 2, 0]]}, 2, "error: element list is not a permutation group\n"),
        # the first two close to a group as long as the list; the third is read all the same
        ({"degree": 3, "elements": [[0, 1, 2], [1, 2, 0], [2, 2, 2]]}, 2,
         "error: (2, 2, 2) is not a permutation of 3 points\n"),
        ({"degree": 20, "elements": SWAPS_THEN_CYCLE}, 3,
         "capacity: group of degree 20: order times degree exceeds the bound 1000000\n"),
        ({"degree": 2, "elements": [[0, 1]], "order": 1}, 2,
         "error: group JSON has unknown keys ['order']; known keys are ['degree', 'elements']\n"),
        ({"elements": [[0, 1]]}, 2, "error: group JSON missing key 'degree'\n"),
        ({"symmetric": 2, "degree": 2}, 2, f"error: {GROUP_FORMS}\n"),
        ({}, 2, f"error: {GROUP_FORMS}\n"),
        ([], 2, f"error: {GROUP_FORMS}\n"),
        ({"symmetric": 2.5}, 2, "error: group degree must be a non-negative integer, got 2.5\n"),
        ({"symmetric": -1}, 2, "error: group degree must be a non-negative integer, got -1\n"),
        ({"automorphisms_of": {"n": 2, "edges": [[0, 5]]}}, 2, "error: edge (0, 5) out of range for 2 vertices\n"),
    ],
)
def test_a_bad_group_gets_its_exact_message(capsys, tmp_path, group, code, err):
    path = write_json(tmp_path, "group.json", group)
    assert run(capsys, "orbits", path, "1", "0") == (code, "", err)


@pytest.mark.parametrize(
    "generators, err",
    [
        ([[True]], "invalid letter True"),
        ([[1.0]], "invalid letter 1.0"),
        ([[-1]], "letter -1 out of range for alphabet of 3"),
        ([[3]], "letter 3 out of range for alphabet of 3"),
        ([["d"]], "letter 'd' out of range for alphabet of 3"),
        ([["A"]], "invalid letter 'A'"),
        ([["ab"]], "invalid letter 'ab'"),
        ([[None]], "invalid letter None"),
        ([[[0]]], "invalid letter [0]"),
        ([[0, 3], [1, "A"]], "letter 3 out of range for alphabet of 3"),
        ([["a", 1.0]], "invalid letter 1.0"),
        ([5], "word JSON must be a list of letters"),
    ],
)
def test_a_bad_word_gets_its_exact_message(capsys, tmp_path, generators, err):
    group = write_json(tmp_path, "group.json", {"degree": 3, "elements": [[0, 1, 2]]})
    words = write_json(tmp_path, "words.json", {"alphabet": 3, "generators": generators})
    assert run(capsys, "dim", group, words, "0", "0") == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("group", [{"degree": 30000000, "elements": []}, {"symmetric": 3000}])
def test_orbits_refuses_a_group_that_stores_too_many_points(capsys, tmp_path, group):
    path = write_json(tmp_path, "group.json", group)
    code, out, err = run(capsys, "orbits", path, "0", "0")
    assert code == 3 and out == "" and err.startswith("capacity:")


HUGE_GRAPH = {"n": 10**9, "edges": []}
ONE_VERTEX = {"graph": {"n": 1, "edges": []}, "inputs": [], "outputs": []}


@pytest.mark.parametrize(
    "argv",
    [
        ("tensor", ("host", HUGE_GRAPH), ("diagram", ONE_VERTEX)),
        ("tensor", ("host", HUGE_GRAPH), ("diagram", ONE_VERTEX), "--mode", "inj"),
        ("tensor", ("host", {"n": 2, "edges": []}), ("diagram", {**ONE_VERTEX, "graph": HUGE_GRAPH})),
        ("orbits", ("group", {"automorphisms_of": HUGE_GRAPH}), "0", "0"),
    ],
    ids=["tensor-host", "tensor-inj-host", "tensor-diagram", "orbits-automorphisms"],
)
def test_a_graph_above_the_vertex_bound_exits_3_before_allocating(tmp_path, argv):
    # a billion vertices would need per-vertex lists of gigabytes; each
    # (name, object) pair is written to a JSON file first
    args = [write_json(tmp_path, a[0] + ".json", a[1]) if isinstance(a, tuple) else a for a in argv]
    code, out, err = run_in_child(*args)
    assert code == 3 and out == "" and err.startswith("capacity:")
    assert "Traceback" not in err


def test_orbits_stops_listing_automorphisms_at_the_point_bound(tmp_path):
    # the 11! = 39.9M automorphisms of 11 isolated vertices are never listed:
    # the group stops growing once order times degree passes the bound
    path = write_json(tmp_path, "group.json", {"automorphisms_of": {"n": 11, "edges": []}})
    code, out, err = run_in_child("orbits", path, "0", "0")
    assert code == 3 and out == "" and err.startswith("capacity:")
    assert "Traceback" not in err


def test_orbits_on_a_large_edgeless_graph_stops_within_a_few_levels(tmp_path):
    # each search of the stabiliser chain leaves the pinned vertices out and
    # gives every other vertex the least free image of its colour, so the
    # point bound stops 20,000 isolated vertices after a few levels instead
    # of quadratic scans over used images
    path = write_json(tmp_path, "group.json", {"automorphisms_of": {"n": 20000, "edges": []}})
    code, out, err = run_in_child("orbits", path, "0", "0")
    assert code == 3 and out == "" and err.startswith("capacity:")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# large sparse hosts


def cycle_graph(n):
    return {"n": n, "edges": [[v, (v + 1) % n] for v in range(n)]}


K2_ONE_OUTPUT = {"graph": {"n": 2, "edges": [[0, 1]]}, "inputs": [], "outputs": [0]}


@pytest.mark.parametrize("n, mode", [(20000, "inj"), (200000, "hom")], ids=["inj-20000", "hom-200000"])
def test_k2_into_a_large_cycle_exits_cleanly(tmp_path, n, mode):
    # every vertex of a cycle has two neighbours.  Injective maps take the
    # second vertex's images from the row of the first one's image instead
    # of testing all 20,000; the count sums the second vertex out and walks
    # the first one's list of images, not a 200,000-bit mask, and builds no
    # row it does not read
    graph = write_json(tmp_path, "graph.json", cycle_graph(n))
    diagram = write_json(tmp_path, "diagram.json", K2_ONE_OUTPUT)
    code, out, err = run_in_child("tensor", graph, diagram, "--mode", mode, timeout=20)
    assert code == 0 and err == ""
    assert out == json.dumps({"n": n, "k": 0, "l": 1, "entries": [2] * n}, sort_keys=True) + "\n"


def test_k2_beside_an_isolated_vertex_into_a_large_cycle_exits_cleanly(tmp_path):
    # the unlabelled isolated vertex comes last, so each injective map of K2
    # adds its 19,998 free images at once instead of listing 8 * 10^8 maps
    n = 20000
    graph = write_json(tmp_path, "graph.json", cycle_graph(n))
    diagram = write_json(tmp_path, "diagram.json", {"graph": {"n": 3, "edges": [[0, 1]]}, "inputs": [], "outputs": [0]})
    code, out, err = run_in_child("tensor", graph, diagram, "--mode", "inj", timeout=20)
    assert code == 0 and err == ""
    assert json.loads(out)["entries"] == [39996] * n


def test_k2_beside_a_looped_vertex_into_a_large_looped_cycle_counts_in_linear_time(tmp_path):
    # the looped vertex comes last with the loop vector's list of images and
    # no checks, so each injective map of K2 subtracts the images it placed
    # from that list: a test against the whole list per placing would make
    # 80,000 placings scan 40,000 images each
    n = 40000
    graph = write_json(tmp_path, "graph.json", {"n": n, "edges": cycle_graph(n)["edges"] + [[v, v] for v in range(n)]})
    k2_loop = {"graph": {"n": 3, "edges": [[0, 1], [2, 2]]}, "inputs": [], "outputs": []}
    code, out, err = run_in_child("tensor", graph, write_json(tmp_path, "diagram.json", k2_loop), "--mode", "inj", timeout=10)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": n, "k": 0, "l": 0, "entries": [2 * n * (n - 2)]}


def test_tensor_that_runs_out_of_memory_exits_3(tmp_path):
    # a tuple_bound of 10^13 admits the 1000^4 entries of four labels on
    # one vertex into 1,000 vertices, which the 1 GiB child cannot hold
    config = write_json(tmp_path, "config.json", {"tuple_bound": 10**13})
    graph = write_json(tmp_path, "graph.json", {"n": 1000, "edges": []})
    diagram = write_json(tmp_path, "diagram.json", {"graph": {"n": 1, "edges": []}, "inputs": [0, 0], "outputs": [0, 0]})
    assert run_in_child("--config", config, "tensor", graph, diagram, timeout=20) == (3, "", "capacity: out of memory\n")


def test_k4_into_a_large_cycle_drops_its_rows_past_the_bit_bound(tmp_path):
    # K4 has no map into a cycle, but its second vertex reads the row of
    # each of the 50,000 images of the first.  Kept, those rows would take
    # about 150 MB, past the 160 MiB this child may address; dropped at
    # ROW_BITS_BOUND bits, they stay within 32 MiB
    graph = write_json(tmp_path, "graph.json", cycle_graph(50000))
    k4 = {"graph": {"n": 4, "edges": [[u, v] for u in range(4) for v in range(u + 1, 4)]}, "inputs": [], "outputs": [0]}
    code, out, err = run_in_child("tensor", graph, write_json(tmp_path, "k4.json", k4), timeout=20, memory=160 << 20)
    assert code == 0 and err == ""
    assert json.loads(out) == {"n": 50000, "k": 0, "l": 1, "entries": [0] * 50000}


def test_orbits_on_100000_isolated_vertices_exits_3_quickly(tmp_path):
    # the searches leave the pinned vertices out and share one list per
    # colour, so a level costs no bitmask of every vertex
    path = write_json(tmp_path, "group.json", {"automorphisms_of": {"n": 100000, "edges": []}})
    code, out, err = run_in_child("orbits", path, "0", "0")
    assert code == 3 and out == "" and err.startswith("capacity:")
    assert "Traceback" not in err


def relabelled_cycle(n, seed):
    perm = random.Random(seed).sample(range(n), n)
    return {"n": n, "edges": [[perm[v], perm[(v + 1) % n]] for v in range(n)]}


def sparse_graph(n, m, seed):
    # sorted vertex pairs drawn until m distinct edges are held
    rng, edges = random.Random(seed), set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return {"n": n, "edges": [list(e) for e in sorted(edges)]}


@pytest.mark.parametrize(
    "graph, count",
    [(relabelled_cycle(24, 0), 1), (sparse_graph(60, 80, 3), 56)],
    ids=["relabelled-c24", "sparse-60-80"],
)
def test_orbits_of_a_sparse_graph_numbered_out_of_adjacency_order_exits_quickly(tmp_path, graph, count):
    # the stabiliser chain searches the graph in breadth-first order, each
    # edge checked at the endpoint that order reaches last, so every vertex
    # but a component's first has a placed neighbour to check; in index
    # order, a vertex with no earlier neighbour walks every image and
    # neither search ends within a minute
    path = write_json(tmp_path, "group.json", {"automorphisms_of": graph})
    code, out, err = run_in_child("orbits", path, "1", "0", timeout=20)
    assert code == 0 and err == ""
    assert json.loads(out)["count"] == json.loads(out)["burnside"] == count


def test_orbits_refuses_a_group_above_the_order_bound(capsys, tmp_path):
    path = write_json(tmp_path, "group.json", {"symmetric": 9})
    code, out, err = run(capsys, "orbits", path, "0", "1")
    assert code == 3 and out == "" and err.startswith("capacity:")
    assert "Traceback" not in err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
small_graphs = st.integers(0, 5).flatmap(
    lambda n: st.fixed_dictionaries(
        {"n": st.just(n), "edges": st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=2), max_size=6)}
    )
)
group_objects = st.one_of(
    json_values,
    st.fixed_dictionaries({"symmetric": st.integers(-2, 8) | json_values}),
    st.integers(0, 8).flatmap(
        lambda d: st.fixed_dictionaries(
            {
                "degree": st.just(d) | json_values,
                "elements": st.just([list(range(d))])
                | st.lists(
                    st.permutations(range(d)) | st.lists(st.integers(-1, 8), max_size=8) | json_values,
                    max_size=4,
                )
                | json_values,
            }
        )
    ),
    st.fixed_dictionaries({"automorphisms_of": small_graphs | json_values}),
)


@settings(max_examples=150, deadline=None)
@given(group=group_objects)
def test_orbits_survives_arbitrary_group_json(tmp_path_factory, group):
    path = tmp_path_factory.mktemp("group") / "group.json"
    path.write_text(json.dumps(group))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["orbits", str(path), "1", "1"])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


def run_quietly(argv):
    """Exit code and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


scalars = st.none() | st.booleans() | st.integers(-2, 6) | st.floats(allow_nan=False) | st.text(max_size=3)


@st.composite
def well_formed_graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    cells = [[u, v] for u in range(n) for v in range(u, n)]
    return {"n": n, "edges": draw(st.lists(st.sampled_from(cells), max_size=8)) if cells else []}


@st.composite
def well_formed_diagrams(draw):
    graph = draw(well_formed_graphs(3))
    labels = st.lists(st.integers(0, graph["n"] - 1), max_size=3) if graph["n"] else st.just([])
    return {"graph": graph, "inputs": draw(labels), "outputs": draw(labels)}


def half_well_formed(well_formed, *junk):
    """Well-formed values half of the time (``|`` would flatten them into one of many branches)."""
    return st.booleans().flatmap(lambda ok: well_formed if ok else st.one_of(*junk))


graph_objects = half_well_formed(
    well_formed_graphs(6),
    json_values,
    st.fixed_dictionaries({"n": scalars, "edges": json_values}),
    st.fixed_dictionaries({"n": st.just(2), "edges": st.lists(st.lists(scalars, max_size=3), max_size=2)}),
    st.fixed_dictionaries(
        {"graph6": st.sampled_from(["Bw", "A_", "@"]) | scalars, "loops": st.lists(scalars, max_size=2)}
    ),
)
label_lists = st.lists(scalars, max_size=2) | json_values
diagram_objects = half_well_formed(
    well_formed_diagrams(),
    json_values,
    st.fixed_dictionaries({"graph": well_formed_graphs(3), "inputs": label_lists, "outputs": label_lists}),
    st.fixed_dictionaries({"graph": json_values, "inputs": st.just([]), "outputs": st.just([])}),
)


@st.composite
def well_formed_partitions(draw):
    k, l = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    block_of = draw(st.lists(st.integers(0, 2), min_size=k + l, max_size=k + l))
    return {"k": k, "l": l, "blocks": [[p for p, b in enumerate(block_of) if b == i] for i in range(3)]}


partition_objects = half_well_formed(
    well_formed_partitions(),
    json_values,
    st.fixed_dictionaries(
        {"k": scalars, "l": scalars, "blocks": st.lists(st.lists(scalars, max_size=3), max_size=3)}
    ),
)
# Groups of at most 5 points keep a partition sum over all group elements quick.
small_groups = half_well_formed(
    st.fixed_dictionaries({"symmetric": st.integers(0, 4)})
    | st.fixed_dictionaries({"automorphisms_of": well_formed_graphs(5)}),
    json_values,
    st.fixed_dictionaries({"symmetric": st.integers(-1, 4) | st.booleans() | st.text(max_size=2)}),
    st.integers(0, 4).flatmap(
        lambda d: st.fixed_dictionaries(
            {"degree": st.just(d), "elements": st.lists(st.permutations(range(d)), max_size=3) | json_values}
        )
    ),
    st.fixed_dictionaries({"automorphisms_of": small_graphs}),
)
frozen = st.dictionaries(
    st.sampled_from(["left", "right", "other"]),
    st.just({"n": 2, "k": 1, "l": 1, "entries": [0, 1, 1, 0]}) | json_values,
    max_size=2,
)
pair_checks = half_well_formed(
    st.fixed_dictionaries(
        {"graph": well_formed_graphs(6), "left": well_formed_diagrams(), "right": well_formed_diagrams()}
    ),
    st.fixed_dictionaries(
        {"graph": graph_objects, "left": diagram_objects, "right": diagram_objects},
        optional={"expect": frozen},
    ),
)
CHECKS = {
    "functor": pair_checks,
    "that": pair_checks,
    "moebius": st.fixed_dictionaries({"graph": graph_objects, "diagram": diagram_objects}),
    "thpart": st.fixed_dictionaries({"group": small_groups, "partition": partition_objects}),
}


@settings(max_examples=100, deadline=None)
@given(graph=graph_objects, diagram=diagram_objects, mode=st.sampled_from(["hom", "inj"]))
def test_tensor_survives_arbitrary_json(tmp_path_factory, graph, diagram, mode):
    path = tmp_path_factory.mktemp("tensor")
    (path / "graph.json").write_text(json.dumps(graph))
    (path / "diagram.json").write_text(json.dumps(diagram))
    code, err = run_quietly(["tensor", str(path / "graph.json"), str(path / "diagram.json"), "--mode", mode])
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


def run_on_objects(tmp_path_factory, command, objects, rest=()):
    """Exit code and stdout of one in-process run of ``command``, each JSON
    object of ``objects`` written to a file and passed in order, then ``rest``."""
    path = tmp_path_factory.mktemp(command[0])
    files = []
    for i, obj in enumerate(objects):
        files.append(str(path / f"input{i}.json"))
        (path / f"input{i}.json").write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, *files, *rest])
    return code, out.getvalue()


def tensor_stdout(tmp_path_factory, graph, diagram, mode):
    """Stdout of one in-process ``tensor`` run, which must succeed."""
    code, out = run_on_objects(tmp_path_factory, ["tensor"], [graph, diagram], ["--mode", mode])
    assert code == 0
    return out


def renumbered_graph(graph, pi):
    return {"n": graph["n"], "edges": [[pi[u], pi[v]] for u, v in graph["edges"]]}


def renumbered_diagram(diagram, sigma):
    """The diagram with vertex ``v`` renamed ``sigma[v]``, its labels along."""
    return {
        "graph": renumbered_graph(diagram["graph"], sigma),
        "inputs": [sigma[v] for v in diagram["inputs"]],
        "outputs": [sigma[v] for v in diagram["outputs"]],
    }


@settings(max_examples=100, deadline=None)
@given(graph=well_formed_graphs(4), diagram=well_formed_diagrams(), mode=st.sampled_from(["hom", "inj"]), data=st.data())
def test_renumbering_the_diagram_keeps_the_tensor(tmp_path_factory, graph, diagram, mode, data):
    # the labels move with their vertices, so every map keeps its label images
    sigma = data.draw(st.permutations(range(diagram["graph"]["n"])))
    want = tensor_stdout(tmp_path_factory, graph, diagram, mode)
    assert tensor_stdout(tmp_path_factory, graph, renumbered_diagram(diagram, sigma), mode) == want


@settings(max_examples=100, deadline=None)
@given(graph=well_formed_graphs(4), diagram=well_formed_diagrams(), mode=st.sampled_from(["hom", "inj"]), data=st.data())
def test_renumbering_the_host_moves_every_leg(tmp_path_factory, graph, diagram, mode, data):
    # composing each map with pi moves the entry at (c_1, ..., c_m) to
    # (pi(c_1), ..., pi(c_m)), whichever leg a digit of the flat index is
    n = graph["n"]
    pi = data.draw(st.permutations(range(n)))
    before = json.loads(tensor_stdout(tmp_path_factory, graph, diagram, mode))
    legs = before["k"] + before["l"]
    moved = [None] * len(before["entries"])
    for x, value in enumerate(before["entries"]):
        moved[sum(pi[x // n**j % n] * n**j for j in range(legs))] = value
    after = json.loads(tensor_stdout(tmp_path_factory, renumbered_graph(graph, pi), diagram, mode))
    assert after == dict(before, entries=moved)


@pytest.mark.parametrize("law", ["functor", "that", "moebius"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_renumbering_the_checks_keeps_the_verdict(tmp_path_factory, law, data):
    # renumbering a check's host moves the entries of both sides of its law
    # alike, and renumbering a diagram's vertices, its labels along, keeps
    # the diagram's tensor: each law holds or fails as before, and the
    # reports are as many.  No check has frozen tensors, which would move.
    sides = ("diagram",) if law == "moebius" else ("left", "right")
    checks = data.draw(
        st.lists(st.fixed_dictionaries({"graph": well_formed_graphs(4), **dict.fromkeys(sides, well_formed_diagrams())}),
                 min_size=1, max_size=2)
    )
    renamed = []
    for check in checks:
        pi = data.draw(st.permutations(range(check["graph"]["n"])))
        moved = {"graph": renumbered_graph(check["graph"], pi)}
        for side in sides:
            sigma = data.draw(st.permutations(range(check[side]["graph"]["n"])))
            moved[side] = renumbered_diagram(check[side], sigma)
        renamed.append(moved)

    def verdict(checks):
        code, out = run_on_objects(tmp_path_factory, ["verify", law], [{"checks": checks}])
        return code, out and {key: json.loads(out)[key] for key in ("ok", "checks")}

    assert verdict(renamed) == verdict(checks)


@st.composite
def groups_and_closures(draw):
    """A group's JSON with the JSON of a word closure over its points: S_2 to
    S_4, Aut of a graph on at most 5 vertices, or the rotations of a 4-cycle
    fixing a fifth point as an element list; with no closure, a racg closure
    (some letter pairs xyxy and all their images), or a finite-model closure
    (all images of one word, some times with every letter pair commuting)."""
    rotations = [[(x + r) % 4 for x in range(4)] + [4] for r in range(4)]
    group = draw(
        st.builds(lambda n: {"symmetric": n}, st.integers(2, 4))
        | st.builds(lambda g: {"automorphisms_of": g}, well_formed_graphs(5))
        | st.just({"degree": 5, "elements": rotations})
    )
    h = repspaces.group_from_json(group)
    n = h.degree
    kind = draw(st.sampled_from(["null", "racg", "finite-model"] if n >= 2 else ["null"]))
    if kind == "null":
        return group, None
    letters = st.integers(0, n - 1)
    if kind == "racg":
        pairs = draw(st.lists(st.tuples(letters, letters).filter(lambda p: p[0] != p[1]), min_size=1, max_size=3))
        seeds = [(x, y, x, y) for x, y in pairs]
    else:
        seeds = [tuple(draw(st.lists(letters, min_size=1, max_size=4)))]
    words = {tuple(s[x] for x in w) for s in h.elements for w in seeds}
    if kind == "finite-model" and draw(st.booleans()):
        words |= {(x, y, x, y) for x, y in itertools.combinations(range(n), 2)}
    return group, {"alphabet": n, "generators": sorted(map(list, words)), "strategy": kind}


def conjugated(group, pi):
    """The group's JSON with each element ``s`` replaced by ``pi s pi^-1``."""
    if "automorphisms_of" in group:
        return {"automorphisms_of": renumbered_graph(group["automorphisms_of"], pi)}
    if "elements" in group:
        elements = []
        for s in group["elements"]:
            t = [0] * len(s)
            for x, y in enumerate(s):
                t[pi[x]] = pi[y]
            elements.append(t)
        return dict(group, elements=elements)
    return group


@settings(max_examples=150, deadline=None)
@given(case=groups_and_closures(), m=st.integers(0, 4), data=st.data())
def test_conjugating_the_group_keeps_the_dimension(tmp_path_factory, case, m, data):
    # pi sends orbits to orbits of the same size and each pair word to its
    # renamed word, so dim, burnside, rank and the sizes of the accepted and
    # refused orbits stay; an indeterminate verdict stays indeterminate
    k = data.draw(st.integers(0, m))
    group, closure = case
    pi = data.draw(st.permutations(range(repspaces.group_from_json(group).degree)))
    renamed = None if closure is None else dict(closure, generators=[[pi[x] for x in w] for w in closure["generators"]])

    def outcome(group, closure):
        code, out = run_on_objects(tmp_path_factory, ["dim"], [group, closure], [str(k), str(m - k)])
        if code:
            return code
        report = json.loads(out)
        sizes = collections.Counter((o["size"], o["accepted"]) for o in report["orbits"])
        return report["dim"], report["burnside"], report["rank"], sizes

    assert outcome(conjugated(group, pi), renamed) == outcome(group, closure)


@settings(max_examples=150, deadline=None)
@given(group=groups_and_closures().map(lambda case: case[0]), m=st.integers(0, 4), data=st.data())
def test_conjugating_the_group_keeps_the_orbit_sizes(tmp_path_factory, group, m, data):
    k = data.draw(st.integers(0, m))
    pi = data.draw(st.permutations(range(repspaces.group_from_json(group).degree)))

    def outcome(group):
        code, out = run_on_objects(tmp_path_factory, ["orbits"], [group], [str(k), str(m - k)])
        assert code == 0
        listing = json.loads(out)
        return listing["count"], listing["burnside"], collections.Counter(o["size"] for o in listing["orbits"])

    assert outcome(conjugated(group, pi)) == outcome(group)


@pytest.mark.parametrize("law", sorted(CHECKS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verify_survives_arbitrary_json(tmp_path_factory, law, data):
    fixtures = data.draw(
        half_well_formed(st.fixed_dictionaries({"checks": st.lists(CHECKS[law], max_size=2)}), json_values)
    )
    path = tmp_path_factory.mktemp("verify") / "checks.json"
    path.write_text(json.dumps(fixtures))
    code, err = run_quietly(["verify", law, str(path)])
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err


strategies = st.sampled_from(["auto", "racg", "finite-model", "bounded-bfs", "shuffle"]) | st.fixed_dictionaries(
    {"bounded-bfs": st.fixed_dictionaries({}, optional={"depth": st.integers(-1, 2), "max_len": st.integers(-1, 8)})}
)


@st.composite
def well_formed_closures(draw):
    alphabet = draw(st.integers(0, 5))
    letters = st.integers(0, alphabet - 1) | st.sampled_from("abcde"[:alphabet])
    word = st.lists(letters, max_size=4) if alphabet else st.just([])
    return {"alphabet": alphabet, "generators": draw(st.lists(word, max_size=3)), "strategy": draw(strategies)}


closure_objects = st.none() | half_well_formed(
    well_formed_closures(),
    json_values,
    st.fixed_dictionaries(
        {"alphabet": scalars, "generators": st.lists(st.lists(scalars, max_size=3), max_size=2) | json_values},
        optional={"strategy": strategies | json_values},
    ),
)


@settings(max_examples=60, deadline=None)
@given(group=small_groups, closure=closure_objects, k=st.integers(0, 2), l=st.integers(0, 2))
def test_dim_survives_arbitrary_json(tmp_path_factory, group, closure, k, l):
    path = tmp_path_factory.mktemp("dim")
    (path / "group.json").write_text(json.dumps(group))
    (path / "words.json").write_text(json.dumps(closure))
    code, err = run_quietly(["dim", str(path / "group.json"), str(path / "words.json"), str(k), str(l)])
    assert code in (0, 2, 3, 4, 5), err
    assert "Traceback" not in err


# Closures stop at 4 vertices: every size key is at most 4 or not a number.
sizes = st.integers(-1, 4) | st.none() | st.booleans() | st.text(max_size=2)
fibration_objects = half_well_formed(
    st.fixed_dictionaries(
        {
            "generators": st.lists(well_formed_diagrams(), max_size=2),
            "easy": st.booleans(),
            "max_vertices": st.integers(1, 4),
            "strategy": strategies,
        }
    ),
    json_values,
    st.fixed_dictionaries(
        {"generators": st.lists(diagram_objects, max_size=2) | json_values, "max_vertices": sizes},
        optional={"easy": scalars, "strategy": strategies | json_values},
    ),
)


@settings(max_examples=60, deadline=None)
@given(fibration=fibration_objects)
def test_closure_survives_arbitrary_json(tmp_path_factory, fibration):
    path = tmp_path_factory.mktemp("closure")
    (path / "fibration.json").write_text(json.dumps(fibration))
    (path / "config.json").write_text(json.dumps({"max_vertices": 4}))
    code, err = run_quietly(["--config", str(path / "config.json"), "closure", str(path / "fibration.json")])
    assert code in (0, 2, 3, 4, 5), err
    assert "Traceback" not in err


def test_closure_search_on_a_four_vertex_racg_fibration_stops(tmp_path):
    # auto falls back to bounded-bfs on these fibre words; its visited set is capped
    fibration = write_json(
        tmp_path,
        "fibration.json",
        {
            "easy": False,
            "generators": [
                {"graph": {"n": 3, "edges": [[0, 1], [1, 2], [1, 1]]}, "inputs": [0, 2, 1], "outputs": [2, 0]},
                {"graph": {"n": 3, "edges": [[1, 1], [0, 2], [0, 0], [2, 2]]}, "inputs": [0, 1], "outputs": []},
            ],
            "strategy": "racg",
            "max_vertices": 4,
        },
    )
    config = write_json(tmp_path, "config.json", {"max_vertices": 4})
    code, _, err = run_in_child("--config", config, "closure", fibration)
    assert code in (0, 4), err
    assert "Traceback" not in err


def test_orbits_rejects_a_label_count_that_is_not_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbits", fx("group_s3.json"), "x", "1"])
    assert exc.value.code == 2
    assert "label count must be a non-negative integer, got 'x'" in capsys.readouterr().err


def test_orbits_rejects_negative_label_counts(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbits", fx("group_s3.json"), "1", "-2"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output oracle: stdout is the library's payload as json.dumps writes it


def dumped(payload):
    return json.dumps(payload, sort_keys=True) + "\n"


def fixture_json(name):
    with open(fx(name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "graph, diagram, mode",
    [("k3.json", "edge_diagram.json", "hom"), ("k3_graph6.json", "pair_points_diagram.json", "inj"),
     ("k2.json", "identity_diagram.json", "hom")],
)
def test_tensor_prints_the_tensor_as_json_dumps_does(capsys, graph, diagram, mode):
    g, d = graph_from_json(fixture_json(graph)), diagram_from_json(fixture_json(diagram))
    t = build_That(g, d) if mode == "inj" else build_T(g, d)
    assert run(capsys, "tensor", fx(graph), fx(diagram), "--mode", mode) == (0, dumped(tensor_to_json(t)), "")


def verify_reports(law, check):
    if law == "thpart":
        return [verify_THpart(repspaces.group_from_json(check["group"]), partition_from_json(check["partition"]))]
    if law == "moebius":
        return [moebius_expand(graph_from_json(check["graph"]), diagram_from_json(check["diagram"]))]
    frozen = {side: tensor_from_json(t) for side, t in check.get("expect", {}).items()}
    verify = verify_functor if law == "functor" else verify_that_sums
    return verify(graph_from_json(check["graph"]), diagram_from_json(check["left"]), diagram_from_json(check["right"]), frozen)


@pytest.mark.parametrize(
    "law, fixtures, code",
    [("functor", "functor_checks.json", 0), ("functor", "functor_checks_bad.json", 1), ("that", "that_checks.json", 0),
     ("moebius", "moebius_checks.json", 0), ("thpart", "thpart_checks.json", 0)],
)
def test_verify_prints_its_reports_as_json_dumps_does(capsys, law, fixtures, code):
    reports = [(i, rep) for i, check in enumerate(fixture_json(fixtures)["checks"]) for rep in verify_reports(law, check)]
    failures = [{"check": i, "law": rep["law"], "first_diff": rep["first_diff"]} for i, rep in reports if not rep["ok"]]
    payload = {"law": law, "checks": len(reports), "ok": not failures, "failures": failures}
    assert run(capsys, "verify", law, fx(fixtures)) == (code, dumped(payload), "")


@pytest.mark.parametrize(
    "group, words, k, l",
    [("group_swap3.json", "abab3_closure.json", 0, 2), ("group_s3.json", "null.json", 1, 1),
     ("group_s2_elements.json", "full_filter2.json", 1, 1), ("group_swap3.json", "abab3_closure.json", 2, 2)],
)
def test_dim_prints_its_report_as_json_dumps_does(capsys, group, words, k, l):
    closure = fixture_json(words)
    closure = None if closure is None else closure_from_json(closure)
    payload = dim_report(repspaces.group_from_json(fixture_json(group)), closure, k, l)
    assert run(capsys, "dim", fx(group), fx(words), str(k), str(l)) == (0, dumped(payload), "")


@pytest.mark.parametrize(
    "group, k, l", [("group_swap3.json", 0, 2), ("group_s3.json", 1, 1), ("group_s2_elements.json", 2, 1)]
)
def test_orbits_prints_its_listing_as_json_dumps_does(capsys, group, k, l):
    h = repspaces.group_from_json(fixture_json(group))
    orbs = [{"a": list(o.a), "b": list(o.b), "size": o.size} for o in repspaces.orbits(h, k, l)]
    payload = {"k": k, "l": l, "count": len(orbs), "burnside": repspaces.burnside_dim(h, k, l), "orbits": orbs}
    assert run(capsys, "orbits", fx(group), str(k), str(l)) == (0, dumped(payload), "")


# ---------------------------------------------------------------------------
# exit codes and flags


def test_bad_input_exit_codes(capsys, tmp_path):
    assert run(capsys, "tensor", fx("broken.json"), fx("edge_diagram.json"))[0] == 2
    assert run(capsys, "tensor", fx("missing.json"), fx("edge_diagram.json"))[0] == 2
    assert run(capsys, "closure", fx("broken.json"))[0] == 2
    assert run(capsys, "closure", fx("missing.json"))[0] == 2
    for generators in (5, None):
        code, _, err = run(capsys, "closure", write_json(tmp_path, "fibration.json", {"generators": generators}))
        assert code == 2 and "generators" in err and "Traceback" not in err
    words = write_json(tmp_path, "words.json", {"alphabet": 3, "generators": 5})
    code, _, err = run(capsys, "dim", fx("group_swap3.json"), words, "0", "2")
    assert code == 2 and "'generators'" in err
    for group, field in (
        ({"degree": 3, "elements": 5}, "'elements'"),
        ({"degree": 3, "elements": [5]}, "'elements'"),
        ({"degree": 2, "elements": [[0, 1], ["a", "b"]]}, "('a', 'b') is not a permutation"),
        ({"automorphisms_of": {"graph6": 5}}, "'graph6'"),
        ({"automorphisms_of": {"graph6": "Bw", "loops": 5}}, "'loops'"),
        ({"automorphisms_of": {"graph6": "Bw~~~~"}}, "graph6 string for 3 vertices must have 2 characters"),
    ):
        code, _, err = run(capsys, "orbits", write_json(tmp_path, "group.json", group), "0", "1")
        assert code == 2 and field in err, (group, err)
    code, _, err = run(
        capsys,
        "--config",
        fx("config_unknown.json"),
        "orbits",
        fx("group_s3.json"),
        "1",
        "1",
    )
    assert code == 2 and "config JSON has unknown keys" in err
    assert run(capsys, "--threads", "0", "orbits", fx("group_s3.json"), "1", "1")[0] == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("strategy", "shuffle"),
        ("bfs_depth", 6),
        ("bfs_max_len", 24),
        ("coset_cap", 1),
        ("bigint", False),
        ("partition_bound", 1),
    ],
)
def test_config_rejects_keys_no_subcommand_reads(capsys, tmp_path, key, value):
    config = write_json(tmp_path, "config.json", {key: value})
    code, out, err = run(
        capsys, "--config", config, "dim", fx("group_swap3.json"), fx("abab3_closure.json"), "1", "1"
    )
    assert code == 2 and out == "" and "config JSON has unknown keys" in err


@pytest.mark.parametrize("flag", [["--config", ""], ["--config="]], ids=["separate", "joined"])
def test_an_empty_config_path_fails_to_open(capsys, flag):
    # an empty path is a path: it is opened, not taken for no config
    code, out, err = run(capsys, *flag, "orbits", fx("group_s3.json"), "1", "1")
    assert (code, out) == (2, "") and err.startswith("error: [Errno 2] ")


def test_tensor_rejects_a_bool_vertex_count(capsys, tmp_path):
    graph = write_json(tmp_path, "graph.json", {"n": True, "edges": []})
    code, out, err = run(capsys, "tensor", graph, fx("identity_diagram.json"))
    assert code == 2 and out == "" and "'n' must be an integer" in err


def test_tensor_rejects_a_bool_label(capsys, tmp_path):
    diagram = write_json(
        tmp_path, "diagram.json", {"graph": {"n": 1, "edges": []}, "inputs": [True], "outputs": []}
    )
    code, out, err = run(capsys, "tensor", fx("k2.json"), diagram)
    assert code == 2 and out == "" and "labels must be lists of integers" in err


def test_tensor_rejects_a_bool_edge_endpoint(capsys, tmp_path):
    graph = write_json(tmp_path, "graph.json", {"n": 2, "edges": [[0, True]]})
    code, out, err = run(capsys, "tensor", graph, fx("identity_diagram.json"))
    assert code == 2 and out == "" and "edges must be pairs of integers" in err


EDGE_GENERATOR = {"graph": {"n": 2, "edges": [[0, 1]]}, "inputs": [], "outputs": [0, 1, 0, 1]}
POINT = {"n": 1, "edges": []}
POINT_DIAGRAM = {"graph": POINT, "inputs": [0], "outputs": [0]}
PARTITION = {"k": 1, "l": 1, "blocks": [[0, 1]], "n": 2}


def functor_check_with(**expect_left):
    """The first functor fixture check, its frozen left tensor changed by ``expect_left``."""
    with open(fx("functor_checks.json"), encoding="utf-8") as fh:
        check = json.load(fh)["checks"][0]
    check["expect"]["left"].update(expect_left)
    return {"checks": [check]}


# Each input names a key or holds a value that a reader once ignored or
# misread, so that the command went on and exited 0.
@pytest.mark.parametrize(
    "argv, files",
    [
        (["closure", "{a}"], {"a": {"generators": [EDGE_GENERATOR], "easy": "no", "max_vertices": 3}}),
        (["closure", "{a}"], {"a": {"generators": [EDGE_GENERATOR], "max_vertices": True}}),
        (["closure", "{a}"], {"a": {"generators": [EDGE_GENERATOR], "max_vertices": 2.5}}),
        (["closure", "{a}"], {"a": {"generators": [EDGE_GENERATOR], "max_vertices": 3, "stratgy": "racg"}}),
        (["closure", "{a}"], {"a": {"generators": [EDGE_GENERATOR], "max_vertice": 2}}),
        (["dim", "{a}", "{b}", "1", "1"], {"a": {"symmetric": 1}, "b": {"alphabet": True, "generators": []}}),
        (["dim", "{a}", "{b}", "1", "1"], {"a": {"symmetric": 2}, "b": {"alphabet": 2, "generators": [], "x": 1}}),
        (["orbits", "{a}", "1", "1"], {"a": {"symmetric": 2, "degree": 2, "elements": [[0, 1], [1, 0]]}}),
        (["tensor", "{a}", fx("edge_diagram.json")], {"a": {"n": 1, "edges": [], "loops": [0]}}),
        (["tensor", "{a}", fx("edge_diagram.json")], {"a": {"graph6": "Bw", "n": 3}}),
        (["tensor", fx("k2.json"), "{a}"], {"a": {**POINT_DIAGRAM, "k": 1}}),
        (["verify", "thpart", "{a}"], {"a": {"checks": [{"group": {"symmetric": 2}, "partition": PARTITION}]}}),
        (["verify", "functor", "{a}"], {"a": functor_check_with(shape=[3, 1, 1])}),
        (["verify", "moebius", "{a}"], {"a": {"checks": [{"graph": POINT, "diagram": POINT_DIAGRAM, "note": ""}]}}),
        (["verify", "moebius", "{a}"], {"a": {"checks": [], "version": 1}}),
    ],
    ids=[
        "fibration-easy-string",
        "fibration-max-vertices-bool",
        "fibration-max-vertices-float",
        "fibration-misspelt-strategy",
        "fibration-misspelt-max-vertices",
        "closure-alphabet-bool",
        "closure-misspelt-strategy",
        "group-two-forms",
        "graph-loops-beside-n",
        "graph6-beside-n",
        "diagram-unknown-key",
        "partition-unknown-key",
        "tensor-unknown-key",
        "fixture-check-unknown-key",
        "fixtures-unknown-key",
    ],
)
def test_json_readers_refuse_what_they_once_ignored_or_misread(capsys, tmp_path, argv, files):
    paths = {name: write_json(tmp_path, f"{name}.json", obj) for name, obj in files.items()}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and out == "" and err.startswith("error:"), err


@pytest.mark.parametrize(
    "argv",
    [
        ["tensor", "{deep}", fx("edge_diagram.json")],
        ["tensor", fx("k2.json"), "{deep}"],
        ["verify", "functor", "{deep}"],
        ["dim", "{deep}", fx("abab3_closure.json"), "0", "2"],
        ["dim", fx("group_s3.json"), "{deep}", "0", "2"],
        ["closure", "{deep}"],
        ["orbits", "{deep}", "0", "1"],
        ["--config", "{deep}", "orbits", fx("group_s3.json"), "0", "1"],
    ],
)
def test_deeply_nested_json_is_bad_input(capsys, tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run(capsys, *(arg.format(deep=deep) for arg in argv))
    assert (code, out) == (2, "") and err == f"error: {deep}: JSON nested too deeply\n"


@pytest.mark.parametrize("content", [b'{"a": 1,}', b"\xff\xfe{}"], ids=["trailing-comma", "not-utf-8"])
def test_a_json_file_that_cannot_be_read_is_named(capsys, tmp_path, content):
    # the second of two input files: the message says which one is bad
    words = tmp_path / "words.json"
    words.write_bytes(content)
    code, out, err = run(capsys, "dim", fx("group_s3.json"), str(words), "1", "1")
    assert (code, out) == (2, "") and err.startswith(f"error: {words}: "), err


UNREADABLE_JSON = [
    (b'{\r\n"generators": [],\r\n}', "Expecting property name enclosed in double quotes: line 3 column 1 (char 20)"),
    (b'{\r"generators": [],\r}', "Expecting property name enclosed in double quotes: line 3 column 1 (char 20)"),
    (b'"a\r\nb"', "Invalid control character at: line 1 column 3 (char 2)"),
    (b"[" + b" " * 9000 + b"\xff]", "'utf-8' codec can't decode byte 0xff in position 9001: invalid start byte"),
    (b"\xef\xbb\xbf{}", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("{}".encode("utf-16"), "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b'["\xc3', "'utf-8' codec can't decode byte 0xc3 in position 2: unexpected end of data"),
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b"[" * 100000, "JSON nested too deeply"),
]


@pytest.mark.parametrize(
    "content, message",
    UNREADABLE_JSON,
    ids=["crlf", "lone-cr", "crlf-in-string", "bad-byte-past-8k", "utf-8-bom", "utf-16", "truncated", "empty", "deep"],
)
def test_an_unreadable_json_file_gets_the_message_of_a_text_mode_read(capsys, tmp_path, content, message):
    # line ends count as in text mode, "\r\n" and a lone "\r" as one "\n";
    # a bad byte's position counts from the start of the file
    path = tmp_path / "fibration.json"
    path.write_bytes(content)
    assert run(capsys, "closure", str(path)) == (2, "", f"error: {path}: {message}\n")


def test_a_directory_given_as_a_json_file_is_named(capsys, tmp_path):
    assert run(capsys, "closure", str(tmp_path)) == (2, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")


MUTATED_COMMANDS = [
    ["tensor", "k3.json", "edge_diagram.json"],
    ["tensor", "k3_graph6.json", "pair_points_diagram.json", "--mode", "inj"],
    ["tensor", "k2.json", "identity_diagram.json"],
    ["verify", "functor", "functor_checks.json"],
    ["verify", "functor", "functor_checks_bad.json"],
    ["verify", "that", "that_checks.json"],
    ["verify", "moebius", "moebius_checks.json"],
    ["verify", "thpart", "thpart_checks.json"],
    ["dim", "group_swap3.json", "abab3_closure.json", "0", "2"],
    ["dim", "group_s3.json", "abab3_bfs0.json", "0", "2"],
    ["closure", "edge_fibration.json"],
    ["orbits", "group_s2_elements.json", "0", "1"],
    ["--config", "config_tight.json", "orbits", "group_s3.json", "0", "1"],
]
REPLACEMENTS = (None, True, -1, 0, 2, 1.5, "a", "x", [], [0], [[0, 1]], {}, {"n": 1})
DELETED = object()


def value_paths(obj, path=()):
    """The path to ``obj`` and, at any depth, to each value of an object and
    to the first three items of each list."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj[:3]) if isinstance(obj, list) else ()
    for key, value in items:
        yield from value_paths(value, path + (key,))


def mutated(obj, path, value):
    """A copy of ``obj`` with the value at ``path`` replaced by ``value``, or removed for ``DELETED``."""
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def test_every_mutated_input_exits_with_a_code_and_a_named_error(tmp_path):
    """Each fixture input, one value at a time replaced by a value of another
    type or shape, or removed, gives exit 0-4 with no exception escaping
    ``main`` and no error message that is only a quoted key."""
    runs, wrong = 0, []
    for argv in MUTATED_COMMANDS:
        args = [fx(a) if a.endswith(".json") else a for a in argv]
        for i, name in enumerate(argv):
            if not name.endswith(".json"):
                continue
            with open(fx(name), encoding="utf-8") as fh:
                original = json.load(fh)
            for path in value_paths(original):
                for value in REPLACEMENTS + ((DELETED,) if path else ()):
                    mutant = write_json(tmp_path, name, mutated(original, path, value))
                    runs += 1
                    try:
                        code, err = run_quietly(args[:i] + [mutant] + args[i + 1 :])
                    except Exception as exc:
                        code, err = None, f"raised {type(exc).__name__}: {exc}"
                    if code not in range(5) or re.fullmatch(r"error: '[^']*'\n", err):
                        shown = "deleted" if value is DELETED else json.dumps(value)
                        wrong.append(f"{' '.join(argv)}: {name} at {list(path)} = {shown}: {code} {err.strip()}")
    assert runs >= 4965
    assert not wrong, f"{len(wrong)} of {runs} runs:\n" + "\n".join(wrong[:40])


@pytest.mark.parametrize("k", [True, -1, 1.0])
def test_verify_thpart_rejects_a_partition_size_that_is_not_a_non_negative_int(capsys, tmp_path, k):
    check = {"group": {"symmetric": 2}, "partition": {"k": k, "l": 0, "blocks": [[0]]}}
    fixtures = write_json(tmp_path, "checks.json", {"checks": [check]})
    code, out, err = run(capsys, "verify", "thpart", fixtures)
    assert code == 2 and out == "" and "'k' and 'l' must be non-negative integers" in err


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_parity_flags_are_accepted(capsys):
    payload = run_json(
        capsys,
        "--seed",
        "7",
        "--threads",
        "2",
        "--bigint",
        "orbits",
        fx("group_s3.json"),
        "1",
        "1",
    )
    assert payload["count"] == 2


def test_output_is_byte_identical_across_runs(capsys):
    args = ("dim", fx("group_swap3.json"), fx("abab3_closure.json"), "1", "1")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second and first[0] == 0
    args = ("closure", fx("edge_fibration.json"))
    assert run(capsys, *args) == run(capsys, *args)


def test_one_process_reuses_the_parser_without_carrying_state(capsys):
    argvs = [
        ["orbits", fx("group_s3.json"), "1", "-2"],
        ["--config", fx("config_tight.json"), "orbits", fx("group_s3.json"), "1", "1"],
        ["orbits", fx("group_s3.json"), "1", "1"],
        ["tensor", fx("k3.json"), fx("edge_diagram.json")],
    ]
    in_process = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, capsys.readouterr().out))
    assert [code for code, _ in in_process] == [2, 3, 0, 0]
    assert in_process == [run_in_child(*argv)[:2] for argv in argvs]
    assert cli.build_parser() is cli.build_parser()


# ---------------------------------------------------------------------------
# command lines: a plain one is read from the parser's own actions, and every
# other one reaches argparse, which writes every usage, help and error text

COMMANDS = ("tensor", "verify", "dim", "closure", "orbits")


def argparse_reading(argv):
    """``vars`` of argparse's namespace for ``argv``, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_exits_0_with_argparse_usage_on_stdout(capsys, command):
    argv = [command, "-h"] if command else ["-h"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith(f"usage: graphfib {command or ''}".rstrip() + " [-h]")
    if command is None:
        assert out == cli.build_parser().format_help()


# The usage argparse writes, pinned as literals: one table builds both the
# parser and the plain reader, so comparing the two cannot see a dropped,
# renamed or reordered argument, and a literal can.
USAGE = {
    None: (
        "usage: graphfib [-h] [--config CONFIG] [--seed SEED] [--threads THREADS]\n"
        "                [--bigint]\n"
        "                {tensor,verify,dim,closure,orbits} ...\n"
    ),
    "tensor": (
        "usage: graphfib tensor [-h] [--mode {hom,inj}] [--format {json,csv}]\n"
        "                       graph diagram\n"
    ),
    "verify": "usage: graphfib verify [-h] {functor,that,moebius,thpart} fixtures\n",
    "dim": "usage: graphfib dim [-h] group words k l\n",
    "closure": "usage: graphfib closure [-h] fibration\n",
    "orbits": "usage: graphfib orbits [-h] group k l\n",
}


@pytest.mark.parametrize("command", USAGE)
def test_the_usage_of_each_parser_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    if command is None:
        assert cli.build_parser().format_usage() == USAGE[None]
    with pytest.raises(SystemExit):
        main([command, "-h"] if command else ["-h"])
    out = capsys.readouterr().out
    assert out[: out.index("\n\n") + 1] == USAGE[command]  # -h opens with the parser's usage


@pytest.mark.parametrize(
    "declined, plain",
    [
        (["--mode=inj"], ["--mode", "inj"]),
        (["--mo", "inj"], ["--mode", "inj"]),
        (["--format", "csv", "--format", "json"], ["--format", "json"]),
        (["--format=csv", "--mode=inj"], ["--mode", "inj", "--format", "csv"]),
    ],
)
def test_option_forms_left_to_argparse_read_as_the_plain_form(capsys, declined, plain):
    argv = ["tensor", fx("k2.json"), fx("pair_points_diagram.json")]
    assert argparse_reading(argv + declined) == argparse_reading(argv + plain)
    assert run(capsys, *argv, *declined) == run(capsys, *argv, *plain)


def test_top_level_flags_before_the_subcommand_still_parse(capsys):
    argv = ["tensor", fx("k3.json"), fx("edge_diagram.json"), "--format", "csv"]
    flagged = ["--seed", "7", "--threads", "2", "--bigint", *argv]
    assert argparse_reading(flagged) == {**argparse_reading(argv), "seed": 7, "threads": 2, "bigint": True}
    assert run(capsys, *flagged) == run(capsys, *argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["tensor", fx("k3.json"), fx("edge_diagram.json"), "extra"],
        ["dim", fx("group_s3.json"), fx("null.json"), "1"],
        ["tensor", fx("k3.json"), fx("edge_diagram.json"), "--mode"],
        ["tensor", fx("k3.json"), fx("edge_diagram.json"), "--mode", "all"],
        ["verify", "laws", fx("functor_checks.json")],
        ["closure", fx("edge_fibration.json"), "--mode", "inj"],
    ],
    ids=["extra-positional", "missing-positional", "option-without-value", "outside-choices", "law-outside-choices", "foreign-option"],
)
def test_a_wrong_command_line_exits_2_with_argparse_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: graphfib ") and "error: " in err


ARGV_TOKENS = [
    *COMMANDS, "g.json", "d.json", "", "-", "--", "-1", "+3", "3_0", "٣", "0", "2",
    "--mode", "--mode=inj", "--mo", "--format", "--format=csv", "--form", "-h", "--help",
    "--config", "--config=c.json", "--seed", "--seed=7", "--threads", "--bigint", "--big",
    "hom", "inj", "json", "csv", "xml", "functor", "that", "moebius", "thpart", "laws",
]

PLAIN_ARGV = [
    ["tensor", "g.json", "d.json", "--mode", "inj", "--format", "csv"],
    ["tensor", "--format", "json", "g.json", "--mode", "hom", "d.json"],
    ["verify", "moebius", "f.json"],
    ["dim", "g.json", "w.json", "+3", "3_0"],
    ["closure", "f.json"],
    ["orbits", "g.json", "٣", "0"],
]


@st.composite
def command_lines(draw):
    """Random tokens, or a plain command line with up to two tokens edited."""
    tokens = st.sampled_from(ARGV_TOKENS)
    if draw(st.booleans()):
        return draw(st.lists(tokens, max_size=8))
    argv = list(draw(st.sampled_from(PLAIN_ARGV)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        if edit == "insert":
            argv.insert(i, draw(tokens))
        elif i < len(argv):
            argv[i:i + 1] = [draw(tokens)] if edit == "replace" else []
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["tensor", "-h"],
        ["tensor", "g.json", "d.json", "--mode=inj"],
        ["tensor", "g.json", "d.json", "--mo", "inj"],
        ["tensor", "g.json", "d.json", "--format", "csv", "--format", "json"],
        ["--seed", "7", "tensor", "g.json", "d.json"],
        ["tensor", "--", "g.json", "d.json"],
        ["tensor", "g.json", "d.json", "extra"],
        ["dim", "g.json", "w.json", "1"],
        ["dim", "g.json", "w.json", "1", "x"],
        ["verify", "laws", "f.json"],
        ["closure", "-"],
        ["frobnicate"],
        [],
    ],
)
def test_the_plain_reader_declines_what_only_argparse_reads(argv):
    assert cli._plain_args(argv) is None


@settings(max_examples=400, deadline=None)
@given(argv=command_lines())
def test_the_plain_reader_agrees_with_argparse_or_declines(argv):
    reading = cli._plain_args(argv)
    theirs = argparse_reading(argv)
    if not isinstance(theirs, dict):  # argparse exits: it writes the message
        assert reading is None
    else:
        assert reading is None or vars(reading) == theirs


def test_every_subcommand_argument_is_one_the_plain_reader_reads():
    # the plain reader knows these keywords only: a ``nargs`` or an ``action``
    # would be misread, not declined, and an option's value starts as its default
    for _, _, positionals, options in cli._COMMANDS.values():
        for keywords in (*positionals.values(), *options.values()):
            assert set(keywords) <= {"type", "choices", "default", "help"}
        assert all(flag.startswith("--") and "default" in kw for flag, kw in options.items())


@pytest.mark.parametrize("argv", PLAIN_ARGV)
def test_a_plain_command_line_never_reaches_argparse(monkeypatch, argv):
    parser = cli.build_parser()
    want = argparse_reading(argv)
    monkeypatch.setattr(parser, "parse_args", lambda *a: pytest.fail("argparse ran"))
    assert vars(cli._plain_args(argv)) == want
