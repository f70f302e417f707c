"""Acceptance gate: eleven exact checks, one printed pass/fail line each.

Every comparison is integer-exact.  Oracles are independent of the code
under test wherever the checked statement has two sides: dimension tables
come from a rewriting-system word problem and from explicit signed
permutation matrices, closure contents from brute-force graph predicates,
corruption controls from frozen tensors, and the tensors of a fibration's
diagrams from the orbits of the group it comes from.
"""

import random
import time
from itertools import combinations, product

from graphfib.diagrams import BilabelledGraph
from graphfib.fibrations import (
    GraphFibration,
    diagram_member,
    fiber_generators,
    fiber_member,
    fibration_from_group,
    is_fiber,
)
from graphfib.freeprod import Membership, MembershipPolicy, NormalClosureSpec, apply_letter_map
from graphfib.graphs import (
    Graph,
    add_loops_everywhere,
    automorphisms,
    complete,
    cycle,
    disjoint_union,
    edgeless,
    enumerate_overlaps,
    f_union,
    path,
    quotient,
)
from graphfib.partitions import enumerate_partitions, enumerate_set_partitions, ker
from graphfib.repspaces import (
    build_That_H,
    burnside_dim,
    dim_report,
    graph_automorphism_group,
    orbit_basis,
    orbits,
    symmetric_group,
    verify_THpart,
)
from graphfib.tensors import (
    build_partition_That,
    build_T,
    compare_tensors,
    exact_rank,
    moebius_expand,
    tensor_scale,
    verify_functor,
    verify_that_sums,
)
from reference import canonical_key, closure_pairs, enumerate_graphs, greatest_subgraph, signed_permutation_traces

HOSTS = [complete(2), complete(3), path(3), disjoint_union(complete(2), edgeless(1))]
EDGE_DIAGRAM = BilabelledGraph(complete(2), (0,), (1,))
SEED = 20260817


class _criterion:
    """Prints the one-line verdict whether the body passes or raises."""

    def __init__(self, num, label):
        self.num = num
        self.label = label

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def elapsed(self):
        return time.monotonic() - self.t0

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.num:2d} [{self.label}]: {status} ({self.elapsed():.2f}s)")
        return False


def random_graph(rng, n):
    edges = []
    for u in range(n):
        for v in range(u, n):
            if rng.random() < (0.15 if u == v else 0.5):
                edges.append((u, v))
    return Graph(n, edges)


def random_diagram(rng, k=None):
    n = rng.randint(1, 3)
    g = random_graph(rng, n)
    if k is None:
        k = rng.randint(0, 2)
    l = rng.randint(0, 2)
    return BilabelledGraph(
        g,
        tuple(rng.randrange(n) for _ in range(k)),
        tuple(rng.randrange(n) for _ in range(l)),
    )


def seeded_pairs():
    """200 diagram pairs, every other one arranged to be composable."""
    rng = random.Random(SEED)
    pairs = []
    for i in range(200):
        d2 = random_diagram(rng)
        d1 = random_diagram(rng, k=d2.l if i % 2 == 0 else None)
        pairs.append((d1, d2))
    return pairs


def commutator_diagram(g):
    return BilabelledGraph(g, (), (0, 1, 0, 1))


# ---------------------------------------------------------------------------


def test_criterion_01_functor_laws():
    with _criterion(1, "counting functor laws") as c:
        pairs = seeded_pairs()
        for g in HOSTS:
            for d1, d2 in pairs:
                for rep in verify_functor(g, d1, d2):
                    assert rep["ok"], rep
        assert c.elapsed() < 10.0


def test_criterion_02_overlap_sum_rules():
    with _criterion(2, "injective-count overlap sums") as c:
        pairs = seeded_pairs()
        pairs.append(
            (
                BilabelledGraph(edgeless(2), (0, 1), ()),
                BilabelledGraph(edgeless(1), (), (0, 0)),
            )
        )
        zero_cases = 0
        for g in HOSTS:
            for d1, d2 in pairs:
                for rep in verify_that_sums(g, d1, d2):
                    assert rep["ok"], rep
                    zero_cases += rep["law"] == "compose-zero"
        assert zero_cases >= len(HOSTS)
        assert c.elapsed() < 30.0


def test_criterion_03_moebius_expansion():
    with _criterion(3, "all counts from injective counts") as c:
        diagrams = [
            EDGE_DIAGRAM,
            BilabelledGraph(path(3), (0,), (1, 2)),
            BilabelledGraph(complete(3), (0, 1), (2,)),
            BilabelledGraph(Graph(4, [(0, 1), (2, 3)]), (0, 2), (1, 3)),
            BilabelledGraph(path(5), (0, 4), (2,)),
            BilabelledGraph(cycle(5), (0,), (2, 3)),
        ]
        assert max(d.graph.n for d in diagrams) == 5
        for g in HOSTS:
            for d in diagrams:
                rep = moebius_expand(g, d)
                assert rep["ok"], rep
        assert c.elapsed() < 10.0


def test_criterion_04_orbit_rank_equals_burnside():
    with _criterion(4, "orbit tensors independent, count matches") as c:
        for g in HOSTS:
            group = graph_automorphism_group(g)
            for k in range(5):
                for l in range(5 - k):
                    orbs = orbits(group, k, l)
                    rows = [build_That_H(group, o.a, o.b).entries for o in orbs]
                    assert exact_rank(rows) == len(orbs) == burnside_dim(group, k, l)
        assert c.elapsed() < 10.0


def test_criterion_05_partition_average_identity():
    with _criterion(5, "group average of exact-pattern tensors"):
        groups = [
            symmetric_group(2),
            symmetric_group(3),
            graph_automorphism_group(disjoint_union(complete(2), edgeless(1))),
        ]
        for group in groups:
            for k in range(5):
                for l in range(5 - k):
                    for p in enumerate_set_partitions(k, l):
                        rep = verify_THpart(group, p)
                        assert rep["ok"], rep


def test_criterion_06_edge_commutator_dimension_table():
    with _criterion(6, "semidirect dimension table, no unknowns"):
        group = graph_automorphism_group(disjoint_union(complete(2), edgeless(1)))
        closure = NormalClosureSpec(3, [(0, 1, 0, 1)], MembershipPolicy("racg"))
        assert dim_report(group, closure, 0, 2)["dim"] == 2
        by_m = {0: 1, 1: 0, 2: 2, 3: 0, 4: 9}
        for k in range(5):
            for l in range(5 - k):
                table = orbit_basis(group, closure, k, l)[0]
                assert all(v is not Membership.UNKNOWN for _, v in table)
                report = dim_report(group, closure, k, l)
                assert report["dim"] == by_m[k + l]


def test_criterion_07_hyperoctahedral_character_sums():
    with _criterion(7, "signed permutation character sums") as c:
        for n in (2, 3):
            group = symmetric_group(n)
            gens = [(i, j, i, j) for i, j in combinations(range(n), 2)]
            closure = NormalClosureSpec(n, gens, MembershipPolicy("racg"))
            traces = signed_permutation_traces(n)
            assert len(traces) == 2**n * len(group)
            for k in range(5):
                for l in range(5 - k):
                    total = sum(t ** (k + l) for t in traces)
                    assert total % len(traces) == 0
                    dim = len(orbit_basis(group, closure, k, l)[1])
                    assert dim == total // len(traces)
        two = signed_permutation_traces(2)
        assert sum(t**2 for t in two) // 8 == 1
        assert sum(t**4 for t in two) // 8 == 4
        assert c.elapsed() < 30.0


def all_loopless_keys(bound):
    out = set()
    for n in range(bound + 1):
        for g in enumerate_graphs(n, loops=False):
            out.add(canonical_key(g))
    return out


def every_edge_in_a_triangle(g):
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return all(adj[u] & adj[v] for u, v in g.edges)


def test_criterion_08_closure_contents():
    with _criterion(8, "edge and triangle closures") as c:
        edge_fib = GraphFibration(
            [commutator_diagram(complete(2))], max_vertices=5, policy=MembershipPolicy("racg")
        )
        got = {canonical_key(g) for g, _ in closure_pairs(edge_fib)}
        assert got == all_loopless_keys(5)

        triangle_fib = GraphFibration(
            [commutator_diagram(complete(3))], max_vertices=5, policy=MembershipPolicy("racg")
        )
        got = {canonical_key(g) for g, _ in closure_pairs(triangle_fib)}
        want = set()
        for n in range(6):
            for g in enumerate_graphs(n, loops=False):
                if every_edge_in_a_triangle(g):
                    want.add(canonical_key(g))
        assert got == want
        assert c.elapsed() < 60.0


def fixture_fibrations():
    return [
        GraphFibration(
            [commutator_diagram(complete(2))], max_vertices=3, policy=MembershipPolicy("racg")
        ),
        GraphFibration(
            [commutator_diagram(complete(3))], max_vertices=4, policy=MembershipPolicy("racg")
        ),
        GraphFibration(
            [commutator_diagram(complete(2))],
            easy=True,
            max_vertices=3,
            policy=MembershipPolicy("racg"),
        ),
        GraphFibration([], easy=True, max_vertices=3),
    ]


def test_criterion_09_fibration_axioms():
    with _criterion(9, "fibration axioms and greatest fibres"):
        for fib in fixture_fibrations():
            with_gens = closure_pairs(fib)
            members = [g for g, _ in with_gens]

            # invariance under the graph's own symmetries
            for g, gens in with_gens:
                assert gens == fiber_generators(fib, g)
                for sigma in automorphisms(g):
                    for w in gens:
                        assert fiber_member(fib, g, apply_letter_map(sigma, w)) is Membership.YES

            # generator words survive gluing into any union inside the bound
            for g, gens in with_gens:
                if not gens:
                    continue
                for h in members:
                    for f in enumerate_overlaps(g.n, h.n):
                        union, mk, _ = f_union(g, h, f)
                        if union.n > fib.max_vertices:
                            continue
                        assert is_fiber(fib, union)
                        for w in gens:
                            mapped = apply_letter_map(mk, w)
                            assert fiber_member(fib, union, mapped) is Membership.YES

            # easy fibrations push generator words through vertex merges
            if fib.easy:
                for g, gens in with_gens:
                    for vmap in enumerate_partitions(g.n):
                        merged = quotient(g, vmap)
                        assert is_fiber(fib, merged)
                        for w in gens:
                            mapped = apply_letter_map(vmap, w)
                            assert fiber_member(fib, merged, mapped) is Membership.YES

        # the greatest fibre inside a host contains every fibre subgraph
        skew_edge, triangle, easy_edge, easy_empty = fixture_fibrations()
        cases = [
            (skew_edge, path(3), path(3)),
            (triangle, Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), Graph(4, [(0, 1), (0, 2), (1, 2)])),
            (easy_edge, Graph(3, [(0, 1), (1, 1)]), Graph(3, [(0, 1), (1, 1)])),
            (easy_empty, path(3), edgeless(3)),
        ]
        for fib, host, want in cases:
            best = greatest_subgraph(fib, host)
            assert best.n == want.n and best.edges == want.edges
            for size in range(len(host.edges) + 1):
                for subset in combinations(sorted(host.edges), size):
                    sub = Graph(host.n, subset)
                    if is_fiber(fib, sub):
                        assert set(sub.edges) <= set(best.edges)

        # fullness triggers exactly for easy fibrations with an edged generator
        looped_point = Graph(1, [(0, 0)])
        assert is_fiber(easy_edge, looped_point)
        for n in range(4):
            for g in enumerate_graphs(n, loops=False):
                assert is_fiber(easy_edge, add_loops_everywhere(g))
        assert not is_fiber(skew_edge, looped_point)
        assert not is_fiber(easy_empty, looped_point)


def test_criterion_10_negative_controls():
    with _criterion(10, "corrupted fixtures are caught and localized"):
        diff_keys = {"row", "col", "lhs", "rhs"}

        # removing any single edge from any host changes the frozen tensor
        for g in HOSTS:
            frozen = build_T(g, EDGE_DIAGRAM)
            for e in sorted(g.edges):
                corrupt = Graph(g.n, set(g.edges) - {e})
                diff = compare_tensors(build_T(corrupt, EDGE_DIAGRAM), frozen)
                assert diff is not None and set(diff) == diff_keys
                assert diff["lhs"] != diff["rhs"]

        # flipping any single label of the probe diagrams is caught too
        probes = [EDGE_DIAGRAM, BilabelledGraph(edgeless(2), (0,), (1,))]
        for g in HOSTS:
            for d in probes:
                frozen = build_T(g, d)
                labels = (list(d.inputs), list(d.outputs))
                for side in (0, 1):
                    for pos, old in enumerate(labels[side]):
                        for new in range(d.graph.n):
                            if new == old:
                                continue
                            ins, outs = [list(d.inputs), list(d.outputs)]
                            (ins if side == 0 else outs)[pos] = new
                            flipped = BilabelledGraph(d.graph, ins, outs)
                            diff = compare_tensors(build_T(g, flipped), frozen)
                            assert diff is not None and set(diff) == diff_keys

        # a corrupted partition fails the group-average identity's frozen side
        group = symmetric_group(2)
        frozen = tensor_scale(build_partition_That(2, ker("a", "a")), len(group))
        wrong = tensor_scale(build_partition_That(2, ker("a", "b")), len(group))
        diff = compare_tensors(wrong, frozen)
        assert diff is not None and set(diff) == diff_keys
        assert verify_THpart(group, ker("a", "a"))["ok"]


def every_diagram(max_vertices=3, max_labels=4):
    """Every diagram on a loopless graph with labelled vertices, one to
    ``max_vertices`` of them, and at most ``max_labels`` labels, split every
    way into inputs and outputs."""
    for n in range(1, max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        for size in range(len(pairs) + 1):
            for edges in combinations(pairs, size):
                for m in range(max_labels + 1):
                    for labels in product(range(n), repeat=m):
                        for k in range(m + 1):
                            yield BilabelledGraph(Graph(n, edges), labels[:k], labels[k:])


def theorem_mismatches(group, closure, accepted):
    """The ``(k, l)``, ``k + l <= 4``, at which a tensor in ``accepted[k, l]``
    is nonzero off the orbits whose pair word ``closure`` accepts, or at which
    their exact rank differs from ``dim``."""
    found = []
    for k in range(5):
        for l in range(5 - k):
            report = dim_report(group, closure, k, l)
            support = set()
            for o in report["orbits"]:
                if o["accepted"]:
                    entries = build_That_H(group, o["a"], o["b"]).entries
                    support.update(i for i, x in enumerate(entries) if x)
            tensors = accepted.get((k, l), [])
            inside = all(i in support for t in tensors for i, x in enumerate(t.entries) if x)
            if not inside or exact_rank([t.entries for t in tensors]) != report["dim"]:
                found.append((k, l))
    return found


def test_criterion_11_diagram_tensors_span_the_orbit_spaces():
    # The paper's theorem joins the two sides: the tensors of the diagrams a
    # fibration built from K and a word closure accepts span the space whose
    # dimension ``dim`` gives for Aut(K) and that closure.
    with _criterion(11, "diagram tensors span the orbit spaces") as c:
        racg = MembershipPolicy("racg")
        k2_k1 = disjoint_union(complete(2), edgeless(1))
        abab = NormalClosureSpec(3, [(0, 1, 0, 1)], racg)
        xyxy = NormalClosureSpec(3, [(i, j, i, j) for i, j in combinations(range(3), 2)], racg)
        cases = [(k2_k1, abab, False, 846), (k2_k1, abab, True, 893), (edgeless(3), xyxy, False, 161)]
        for host, closure, easy, members in cases:
            fib = fibration_from_group(host, closure, easy)
            group = graph_automorphism_group(host)
            accepted, seen = {}, 0
            for d in every_diagram():
                seen += 1
                verdict = diagram_member(fib, d)
                assert verdict is not Membership.UNKNOWN
                if verdict is Membership.YES:
                    accepted.setdefault((d.k, d.l), []).append(build_T(host, d))
            assert seen == 4649 and sum(map(len, accepted.values())) == members
            assert theorem_mismatches(group, closure, accepted) == []

        # negative control: the closure with no words accepts fewer orbits on
        # four labels than the last case's diagrams span, and the check sees it
        wordless = NormalClosureSpec(3, [], racg)
        assert theorem_mismatches(group, wordless, accepted) == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
        assert c.elapsed() < 10.0
