"""Orbit bases, Burnside counts, and semidirect morphism-space dimensions."""

import random
from collections import Counter
from itertools import combinations, permutations, product
from math import perm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphfib import repspaces
from graphfib.errors import CapacityError, IndeterminateError, InvariantError
from graphfib.freeprod import (
    Membership,
    MembershipPolicy,
    NormalClosureSpec,
    apply_letter_map,
    check_invariance,
    decide,
    member,
)
from graphfib.graphs import (
    Graph,
    automorphism_generators,
    automorphisms,
    complete,
    cycle,
    disjoint_union,
    edgeless,
    path,
)
from graphfib.partitions import enumerate_set_partitions, from_blocks
from graphfib.repspaces import (
    GROUP_POINT_BOUND,
    OrbitClass,
    PermutationGroup,
    build_That_H,
    burnside_dim,
    dim_report,
    graph_automorphism_group,
    group_from_elements,
    orbit_basis,
    orbits,
    pair_word,
    symmetric_group,
    verify_THpart,
)
from graphfib.tensors import exact_rank
from reference import act, closed_symmetric_group, verify_repcat_compose, verify_repcat_tensor

EDGE_PLUS_POINT = disjoint_union(complete(2), edgeless(1))


def abab3_closure(strategy="racg", **bounds):
    """The edge-commutator closure of the 3-vertex edge-plus-point host."""
    return NormalClosureSpec(3, [(0, 1, 0, 1)], MembershipPolicy(strategy, **bounds))


# ---------------------------------------------------------------------------
# groups


def test_permutation_group_validates_axioms():
    g = group_from_elements(2, [(0, 1), (1, 0)])
    assert len(g) == 2 and g.degree == 2
    with pytest.raises(ValueError):
        group_from_elements(2, [(1, 0)])
    with pytest.raises(ValueError):
        group_from_elements(2, [(0, 1), (0, 0)])
    with pytest.raises(ValueError):
        group_from_elements(3, [(0, 1, 2), (1, 0, 2), (0, 2, 1)])


def test_from_generators_closes():
    assert len(PermutationGroup(3, [(1, 0, 2), (1, 2, 0)])) == 6
    assert len(PermutationGroup(3, [(1, 2, 0)])) == 3
    assert len(PermutationGroup(4, [])) == 1


def test_symmetric_and_automorphism_groups():
    assert [len(symmetric_group(n)) for n in range(1, 5)] == [1, 2, 6, 24]
    aut = graph_automorphism_group(EDGE_PLUS_POINT)
    assert aut.degree == 3 and len(aut) == 2
    assert aut.elements == ((0, 1, 2), (1, 0, 2))


def test_group_from_elements_checks_each_element_once(monkeypatch):
    real = repspaces._permutation
    checked = []
    monkeypatch.setattr(repspaces, "_permutation", lambda g, degree: checked.append(g) or real(g, degree))
    group = group_from_elements(3, [list(p) for p in permutations(range(3))])
    assert len(group) == 6 and len(checked) == 6


def assert_matches_the_full_listing(g):
    """The stabiliser-chain group against the group closed from every
    automorphism in lexicographic order: the same elements and the same
    kept generators.  Every generator the search hands over is kept."""
    found = list(automorphism_generators(g))
    assert len(PermutationGroup(g.n, found).generators) == len(found)
    group, oracle = graph_automorphism_group(g), PermutationGroup(g.n, automorphisms(g))
    assert group.elements == oracle.elements
    assert group.generators == oracle.generators


@st.composite
def graphs_with_loops(draw, max_n):
    n = draw(st.integers(0, max_n))
    cells = [(u, v) for u in range(n) for v in range(u, n)]
    return Graph(n, draw(st.sets(st.sampled_from(cells))) if cells else ())


@settings(max_examples=300, deadline=None)
@given(graphs_with_loops(7))
def test_the_stabiliser_chain_search_matches_the_full_listing(g):
    assert_matches_the_full_listing(g)


def benchmark_shape(name, n):
    """The shapes whose automorphism groups the ``dim`` benchmark builds."""
    half = n // 2
    return {
        "cycle": [(i, (i + 1) % n) for i in range(n)],
        "wheel": [(0, i) for i in range(1, n)] + [(i, i % (n - 1) + 1) for i in range(1, n)],
        "bipartite": [(i, j) for i in range(half) for j in range(half, n)],
        "prism": [(i, (i + 1) % half) for i in range(half)]
        + [(i + half, (i + 1) % half + half) for i in range(half)] + [(i, i + half) for i in range(half)],
        "triangles": [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        "matching": [(2 * i, 2 * i + 1) for i in range(half)],
    }[name]


@pytest.mark.parametrize(
    "name, n",
    [("cycle", 6), ("wheel", 6), ("bipartite", 6), ("prism", 6), ("triangles", 6), ("matching", 6),
     ("cycle", 7), ("wheel", 7), ("bipartite", 7), ("cycle", 8), ("wheel", 8), ("prism", 8)],
)
def test_the_stabiliser_chain_search_matches_the_full_listing_on_benchmark_shapes(name, n):
    perm = random.Random(n).sample(range(n), n)
    g = Graph(n, [(perm[u], perm[v]) for u, v in benchmark_shape(name, n)])
    assert_matches_the_full_listing(g)


@pytest.mark.parametrize(
    "g",
    [
        cycle(65),
        path(66),
        Graph(66, [*cycle(65).edges, (0, 65)]),
        Graph(70, [*cycle(70).edges, (0, 0), (35, 35)]),
        disjoint_union(cycle(33), cycle(33)),
    ],
    ids=["c65", "p66", "c65-pendant", "c70-two-loops", "two-c33"],
)
def test_the_stabiliser_chain_search_matches_the_full_listing_past_the_eager_rows_bound(g):
    # hosts past EAGER_ROWS_BOUND read rows built on first use, in the
    # chain's searches and in the full listing alike
    assert_matches_the_full_listing(g)


@pytest.mark.parametrize("n", [24, 40])
def test_a_relabelled_cycle_has_the_conjugated_group_of_the_cycle(n):
    # numbered at random, most vertices of the cycle have no lower-numbered
    # neighbour; the chain searches them in breadth-first order, each edge
    # checked at the endpoint that order reaches last, and finds the group anyway
    perm = random.Random(0).sample(range(n), n)
    relabelled = Graph(n, [(perm[u], perm[v]) for u, v in cycle(n).edges])
    inverse = sorted(range(n), key=perm.__getitem__)
    conjugated = {tuple(perm[s[inverse[x]]] for x in range(n)) for s in graph_automorphism_group(cycle(n)).elements}
    assert len(conjugated) == 2 * n
    assert set(graph_automorphism_group(relabelled).elements) == conjugated


def test_the_stabiliser_chain_searches_the_graph_itself(monkeypatch):
    # the search order goes to the checks, so no renumbered copy of the graph gets a host record
    import graphfib.graphs

    hosts, host = [], graphfib.graphs._host
    monkeypatch.setattr(graphfib.graphs, "_host", lambda h: hosts.append(h) or host(h))
    perm = random.Random(0).sample(range(24), 24)
    g = Graph(24, [(perm[u], perm[v]) for u, v in cycle(24).edges])
    assert len(PermutationGroup(24, automorphism_generators(g))) == 48
    assert hosts and all(h is g for h in hosts)


def test_generators_are_kept_only_when_they_enlarge_the_group():
    group = PermutationGroup(3, [(0, 1, 2), (1, 0, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0)])
    assert group.generators == ((1, 0, 2), (0, 2, 1))
    assert len(group) == 6
    assert symmetric_group(1).generators == symmetric_group(0).generators == ()


@pytest.mark.parametrize("degree", [-1, True, 2.0, "2", None])
def test_constructor_rejects_a_degree_that_is_not_a_non_negative_int(degree):
    with pytest.raises(ValueError):
        PermutationGroup(degree, [])


@pytest.mark.parametrize(
    "generator", [(0, 0), (0,), (1.0, 0.0), (True, False), "10", (0.0, 1.0), (False, True)]
)
def test_constructor_rejects_a_generator_that_is_not_a_permutation(generator):
    with pytest.raises(ValueError):
        PermutationGroup(2, [generator])


def test_the_order_bound_admits_s8():
    assert len(symmetric_group(8)) == 40320 <= GROUP_POINT_BOUND


def test_the_point_bound_refuses_s9_and_wide_groups_before_storing_them():
    for make in (
        lambda: symmetric_group(9),
        lambda: symmetric_group(3000),
        lambda: symmetric_group(10**12),
        lambda: PermutationGroup(GROUP_POINT_BOUND + 1, []),
    ):
        with pytest.raises(CapacityError):
            make()


@pytest.mark.parametrize("n", range(9))
def test_the_listed_symmetric_group_is_the_closed_one(n):
    group, oracle = symmetric_group(n), closed_symmetric_group(n)
    assert group.degree == oracle.degree == n
    assert group.generators == oracle.generators
    assert group.elements == oracle.elements


@pytest.mark.parametrize("n", [9, 3000, 10**6, 10**12, -1, True, 2.0, "2", None, [3]])
def test_the_listed_symmetric_group_refuses_what_the_closed_one_refuses(n):
    with pytest.raises((ValueError, CapacityError)) as listed:
        symmetric_group(n)
    with pytest.raises((ValueError, CapacityError)) as closed:
        closed_symmetric_group(n)
    assert type(listed.value) is type(closed.value)
    assert str(listed.value) == str(closed.value)


def test_aut_g_replays_its_generators_only_when_they_are_read(monkeypatch):
    calls = []  # one entry per closure
    monkeypatch.setattr(repspaces, "_close", lambda *args, real=repspaces._close: calls.append(args) or real(*args))
    group = graph_automorphism_group(cycle(6))
    assert len(calls) == 1
    assert len(group) == 12 and len(orbits(group, 1, 1)) == 4  # pairs at distance 0 to 3
    assert len(calls) == 1
    generators = group.generators
    assert len(calls) == 2 and calls[1] == (6, group.elements)
    assert group.generators is generators and len(calls) == 2
    monkeypatch.undo()
    assert generators == PermutationGroup(6, automorphisms(cycle(6))).generators


def test_act():
    assert act((1, 0, 2), (0, 1, 2, 0)) == (1, 0, 2, 1)
    assert act((1, 0), ()) == ()


# ---------------------------------------------------------------------------
# the group layer against the element-list code it replaced


def reference_closure(degree, generators):
    """Breadth-first closure of the identity under composition with ``generators``."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in generators]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = tuple(g[s[i]] for i in range(degree))
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def reference_is_group(degree, elements):
    """Identity, inverses and closure under composition, checked over all pairs."""
    elems = {tuple(e) for e in elements}
    if tuple(range(degree)) not in elems:
        return False
    for s in elems:
        inv = [0] * degree
        for i, si in enumerate(s):
            inv[si] = i
        if tuple(inv) not in elems:
            return False
        for t in elems:
            if tuple(s[t[i]] for i in range(degree)) not in elems:
                return False
    return True


def permutations_of(degree):
    return st.permutations(range(degree)).map(tuple)


@st.composite
def generator_lists(draw, min_degree=0, max_degree=5):
    degree = draw(st.integers(min_degree, max_degree))
    return degree, draw(st.lists(permutations_of(degree), max_size=4))


@settings(max_examples=200, deadline=None)
@given(generator_lists())
def test_constructor_matches_the_reference_closure(case):
    degree, gens = case
    group = PermutationGroup(degree, gens)
    assert group.elements == tuple(sorted(reference_closure(degree, gens)))
    assert 2 ** len(group.generators) <= len(group)
    assert reference_closure(degree, group.generators) == set(group.elements)
    kept = []  # greedy: a generator is kept exactly when it lies outside the group of those kept before it
    for g in map(tuple, gens):
        if g not in reference_closure(degree, kept):
            kept.append(g)
    assert group.generators == tuple(kept)


def test_a_lazy_stream_is_not_read_past_the_generator_that_crosses_the_point_bound():
    def swap_cycle_then_sentinel():
        yield (1, 0) + tuple(range(2, 9))
        yield tuple(range(1, 9)) + (0,)  # with the swap it generates S9: 9! * 9 points
        pytest.fail("the stream was read past the generator that crossed the bound")

    with pytest.raises(CapacityError) as exc:
        PermutationGroup(9, swap_cycle_then_sentinel())
    assert str(exc.value) == f"group of degree 9: order times degree exceeds the bound {GROUP_POINT_BOUND}"


@settings(max_examples=300, deadline=None)
@given(generator_lists(max_degree=4), st.data())
def test_group_from_elements_accepts_exactly_the_groups(case, data):
    degree, gens = case
    whole = sorted(reference_closure(degree, gens))
    if data.draw(st.booleans()):
        elements = whole
    else:
        elements = data.draw(st.lists(st.sampled_from(whole), max_size=len(whole)))
        elements += data.draw(st.lists(permutations_of(degree), max_size=2))
    if reference_is_group(degree, elements):
        assert set(group_from_elements(degree, elements).elements) == set(elements)
    else:
        with pytest.raises(ValueError):
            group_from_elements(degree, elements)


def invariance_outcome(maps, closure):
    try:
        check_invariance(maps, closure)
    except ValueError:
        return "escapes"
    return "invariant"


@st.composite
def closures_with_groups(draw):
    degree, gens = draw(generator_lists(min_degree=2))
    letters = st.integers(0, degree - 1)
    if draw(st.booleans()):
        pairs = st.lists(letters, min_size=2, max_size=2, unique=True)
        words = [(x, y, x, y) for x, y in draw(st.lists(pairs, min_size=1, max_size=3))]
        policy = MembershipPolicy("racg")
    else:
        words = draw(st.lists(st.lists(letters, min_size=1, max_size=6), min_size=1, max_size=3))
        policy = MembershipPolicy("finite-model")
    return PermutationGroup(degree, gens), NormalClosureSpec(degree, words, policy)


@settings(max_examples=200, deadline=None)
@given(closures_with_groups())
def test_invariance_under_generators_decides_invariance_under_the_group(case):
    group, closure = case
    assume(all(member(w, closure) is not Membership.UNKNOWN for w in closure.generators))
    by_generators = invariance_outcome(group.generators, closure)
    assert by_generators == invariance_outcome(group.elements, closure)


@pytest.fixture(scope="module")
def combinatorics():
    return pytest.importorskip("sympy.combinatorics")


@settings(max_examples=50, deadline=None)
@given(case=generator_lists(min_degree=1))
def test_group_order_matches_sympy(combinatorics, case):
    degree, gens = case
    perms = [combinatorics.Permutation(list(g)) for g in [tuple(range(degree))] + gens]
    assert len(PermutationGroup(degree, gens)) == combinatorics.PermutationGroup(perms).order()


# ---------------------------------------------------------------------------
# orbits and Burnside counts


def test_orbits_of_the_swap_group():
    aut = graph_automorphism_group(EDGE_PLUS_POINT)
    got = orbits(aut, 0, 1)
    assert got == [OrbitClass((), (0,), 2), OrbitClass((), (2,), 1)]


def test_orbit_representatives_are_lex_least_and_partition_everything():
    group = symmetric_group(3)
    got = orbits(group, 1, 1)
    assert sum(o.size for o in got) == 9
    seen = set()
    for o in got:
        combined = o.a + o.b
        orbit = {act(s, combined) for s in group.elements}
        assert combined == min(orbit)
        assert not (orbit & seen)
        seen |= orbit
    assert len(seen) == 9


@st.composite
def small_groups(draw):
    """``S_n`` for n <= 4 (``S_0`` has degree 0) or Aut of a graph on <= 5 vertices."""
    if draw(st.booleans()):
        return symmetric_group(draw(st.integers(0, 4)))
    n = draw(st.integers(0, 5))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    return graph_automorphism_group(Graph(n, edges))


@settings(max_examples=300, deadline=None)
@given(
    # closed generator lists add intransitive and cyclic actions, whose
    # stabilisers shrink in other patterns than those of S_n and Aut(G)
    st.one_of(small_groups(), generator_lists().map(lambda case: PermutationGroup(*case))),
    st.integers(0, 4),
    st.data(),
)
def test_orbits_match_the_orbits_under_act(group, m, data):
    k = data.draw(st.integers(0, m))
    got = orbits(group, k, m - k)
    assert burnside_dim(group, k, m - k) == len(got)
    seen = set()
    for o in got:
        assert (len(o.a), len(o.b)) == (k, m - k)
        combined = o.a + o.b
        orbit = {act(s, combined) for s in group.elements}
        assert (o.size, combined) == (len(orbit), min(orbit))
        assert seen.isdisjoint(orbit)
        seen |= orbit
    assert seen == set(product(range(group.degree), repeat=m))
    reps = [o.a + o.b for o in got]
    assert reps == sorted(reps)


def test_orbits_of_the_empty_tuple_and_of_degree_zero():
    assert orbits(symmetric_group(3), 0, 0) == [OrbitClass((), (), 1)]
    assert orbits(symmetric_group(0), 0, 0) == [OrbitClass((), (), 1)]
    assert orbits(symmetric_group(0), 1, 1) == []


def test_orbits_of_s8_on_six_labels_are_the_restricted_growth_strings():
    # a tuple's orbit under S_n is its kernel; its least point numbers the
    # blocks in order of first appearance, and the orbit has perm(n, blocks) points
    strings = [t for t in product(range(6), repeat=6) if all(t[i] <= max(t[:i], default=-1) + 1 for i in range(6))]
    assert len(strings) == 203  # Bell(6)
    want = [OrbitClass(t[:3], t[3:], perm(8, max(t) + 1)) for t in strings]
    assert orbits(symmetric_group(8), 3, 3) == want


def stirling2(t, j):
    """Partitions of ``t`` points into ``j`` nonempty blocks: S(t, j) = j S(t-1, j) + S(t-1, j-1)."""
    if t == 0 or j == 0:
        return int(t == j)
    return j * stirling2(t - 1, j) + stirling2(t - 1, j - 1)


@pytest.mark.parametrize("m", range(9))
def test_orbit_counts_of_symmetric_groups_are_sums_of_stirling_numbers(m):
    # the orbit of a t-tuple under S_m is its kernel, a partition of the t
    # positions into at most m blocks; once m >= t that is every partition,
    # counted by the Bell number
    for t in range(5):
        want = sum(stirling2(t, j) for j in range(m + 1))
        assert m < t or want == [1, 1, 2, 5, 15][t]
        for k in range(t + 1):
            assert len(orbits(symmetric_group(m), k, t - k)) == want


def test_orbits_of_the_12_cycle_automorphisms_on_four_labels():
    group = graph_automorphism_group(cycle(12))
    got = orbits(group, 2, 2)
    assert len(got) == burnside_dim(group, 2, 2) == 868
    assert sum(o.size for o in got) == 12**4


def test_orbits_of_a_long_label_tuple_on_one_point():
    # 3,000 labels: a walk that recursed once per label would overflow the stack
    one_point = group_from_elements(1, [[0]])
    assert orbits(one_point, 3000, 0) == [OrbitClass((0,) * 3000, (), 1)]


def test_orbits_respects_tuple_bound():
    with pytest.raises(CapacityError):
        orbits(symmetric_group(3), 1, 1, tuple_bound=8)


def test_burnside_counts():
    assert burnside_dim(symmetric_group(3), 1, 2) == 5
    assert burnside_dim(symmetric_group(3), 1, 1) == 2
    aut = graph_automorphism_group(EDGE_PLUS_POINT)
    assert [burnside_dim(aut, 0, m) for m in range(5)] == [1, 2, 5, 14, 41]
    trivial = PermutationGroup(2, [(0, 1)])
    assert burnside_dim(trivial, 1, 1) == 4
    for group in (symmetric_group(2), symmetric_group(3), aut):
        for k, l in ((0, 2), (1, 1), (2, 1)):
            assert burnside_dim(group, k, l) == len(orbits(group, k, l))


# ---------------------------------------------------------------------------
# orbit tensors


def test_orbit_tensor_of_the_swap():
    t = build_That_H(symmetric_group(2), (0,), (1,))
    assert t.entries == [0, 1, 1, 0]
    assert build_That_H(symmetric_group(2), (), ()).entries == [2]


@settings(max_examples=100, deadline=None)
@given(generator_lists(min_degree=1, max_degree=4), st.data())
def test_orbit_tensor_matches_a_direct_count_over_the_elements(case, data):
    degree, gens = case
    group = PermutationGroup(degree, gens)
    points = st.lists(st.integers(0, degree - 1), max_size=2)
    a, b = data.draw(points), data.draw(points)
    t = build_That_H(group, a, b)
    for i in product(range(degree), repeat=len(a)):
        for j in product(range(degree), repeat=len(b)):
            assert t.entry(j, i) == sum(1 for s in group.elements if act(s, a) == i and act(s, b) == j)
    # the least image of a + b over the element columns is the least (i, j) of a nonzero entry
    columns = list(zip(*group.elements))
    least = min(zip(*map(columns.__getitem__, tuple(a) + tuple(b))), default=())
    pairs = product(product(range(degree), repeat=len(a)), product(range(degree), repeat=len(b)))
    assert least == min(i + j for i, j in pairs if t.entry(j, i))


def test_orbit_tensors_have_disjoint_supports_and_stabilizer_entries():
    group = symmetric_group(3)
    support = {}
    for o in orbits(group, 1, 1):
        t = build_That_H(group, o.a, o.b)
        assert sum(t.entries) == len(group)
        stab = len(group) // o.size
        for idx, e in enumerate(t.entries):
            assert e in (0, stab)
            if e:
                assert idx not in support
                support[idx] = o
    assert len(support) == 9


def test_basis_full_sizes():
    assert len(orbit_basis(graph_automorphism_group(complete(3)), None, 1, 1)[1]) == 2
    assert len(orbit_basis(graph_automorphism_group(path(3)), None, 1, 1)[1]) == 5
    aut = graph_automorphism_group(EDGE_PLUS_POINT)
    pairs = [(o, build_That_H(aut, o.a, o.b)) for o in orbit_basis(aut, None, 0, 2)[1]]
    assert len(pairs) == 5
    assert all(isinstance(o, OrbitClass) for o, _ in pairs)


@st.composite
def groups_with_optional_closures(draw):
    """A group of :func:`small_groups`, with no closure or with the racg
    closure of a few letter pairs and all their images."""
    group = draw(small_groups())
    n = group.degree
    if n < 2 or draw(st.booleans()):
        return group, None
    letters = st.integers(0, n - 1)
    seeds = draw(st.lists(st.tuples(letters, letters).filter(lambda p: p[0] != p[1]), min_size=1, max_size=3))
    words = {act(s, (x, y, x, y)) for s in group.elements for x, y in seeds}
    return group, NormalClosureSpec(n, sorted(words), MembershipPolicy("racg"))


@settings(max_examples=150, deadline=None)
@given(groups_with_optional_closures(), st.integers(0, 3), st.data())
def test_the_orbit_certificate_agrees_with_exact_rank(case, m, data):
    group, closure = case
    k = data.draw(st.integers(0, m))
    table, basis = orbit_basis(group, closure, k, m - k)
    assert exact_rank([build_That_H(group, o.a, o.b).entries for o in basis]) == len(basis)
    assert len(basis) == sum(1 for _, verdict in table if verdict is Membership.YES)
    for o, _ in table:
        t = o.a + o.b
        assert t == min(act(s, t) for s in group.elements)


# The rotations of a 4-cycle fixing a fifth point: an intransitive cyclic
# group, given as an element list.
ROTATIONS_AND_A_FIXED_POINT = group_from_elements(5, [(0, 1, 2, 3, 4), (1, 2, 3, 0, 4), (2, 3, 0, 1, 4), (3, 0, 1, 2, 4)])


@st.composite
def groups_with_closures_of_each_kind(draw):
    """S3, S4, the rotations above or Aut of a graph on <= 5 vertices, with no
    closure, a racg closure (a few letter pairs and all their images), or a
    finite-model closure (all images of one word, some times with every
    letter pair commuting, so that the quotient is finite)."""
    group = draw(
        st.one_of(
            st.sampled_from([symmetric_group(3), symmetric_group(4), ROTATIONS_AND_A_FIXED_POINT]),
            small_groups(),
        )
    )
    n = group.degree
    kind = draw(st.sampled_from(["null", "racg", "finite"] if n >= 2 else ["null"]))
    if kind == "null":
        return group, None
    letters = st.integers(0, n - 1)
    if kind == "racg":
        seeds = draw(st.lists(st.tuples(letters, letters).filter(lambda p: p[0] != p[1]), min_size=1, max_size=3))
        words = {act(s, (x, y, x, y)) for s in group.elements for x, y in seeds}
        return group, NormalClosureSpec(n, sorted(words), MembershipPolicy("racg"))
    seed = tuple(draw(st.lists(letters, min_size=1, max_size=4)))
    words = {act(s, seed) for s in group.elements}
    if draw(st.booleans()):
        words |= {(x, y, x, y) for x, y in combinations(range(n), 2)}
    return group, NormalClosureSpec(n, sorted(words), MembershipPolicy("finite-model"))


def dim_outcome(group, closure, k, l):
    """What of a ``dim`` report does not depend on how the points are
    numbered, or ``"indeterminate"`` when a finite-model quotient is not
    shown finite."""
    try:
        report = dim_report(group, closure, k, l)
    except IndeterminateError:
        return "indeterminate"
    sizes = Counter((o["size"], o["accepted"]) for o in report["orbits"])
    return report["dim"], report["burnside"], report["rank"], sizes


@settings(max_examples=200, deadline=None)
@given(groups_with_closures_of_each_kind(), st.integers(0, 4), st.data())
def test_renumbering_the_points_keeps_the_dimension(case, m, data):
    """Conjugate the group by a permutation ``pi`` of its points and rename
    the closure's letters by ``pi``.  Orbits go to orbits of the same size,
    and a pair word to its renamed word, so the dimension, the Burnside
    count, the rank and the sizes of the accepted and refused orbits stay.
    Without a closure this is the relation for ``orbits``, whose listing the
    report holds.  Up to 4 labels: a reduced word of 3 letters or fewer is a
    member of a racg closure only if it is empty, so shorter pair words
    would leave every racg verdict to free reduction."""
    group, closure = case
    k = data.draw(st.integers(0, m))
    n = group.degree
    pi = data.draw(st.permutations(range(n)))
    conjugated = []  # pi s pi^-1 sends pi[x] to pi[s[x]]
    for s in group.elements:
        t = [0] * n
        for x in range(n):
            t[pi[x]] = pi[s[x]]
        conjugated.append(t)
    renamed = None if closure is None else NormalClosureSpec(n, [act(pi, w) for w in closure.generators], closure.policy)
    assert dim_outcome(group_from_elements(n, conjugated), renamed, k, m - k) == dim_outcome(group, closure, k, m - k)


def test_the_certificate_refuses_a_representative_that_is_not_least(monkeypatch):
    # (1, 0) lies in the orbit of (0, 1) under S_3, so it is not least in its orbit
    listing = [OrbitClass((0,), (0,), 3), OrbitClass((1,), (0,), 6)]
    monkeypatch.setattr("graphfib.repspaces.orbits", lambda *args: listing)
    with pytest.raises(InvariantError, match="not the least label tuple of its orbit"):
        orbit_basis(symmetric_group(3), None, 1, 1)


def test_the_certificate_refuses_an_orbit_listed_twice(monkeypatch):
    listing = [OrbitClass((0,), (1,), 6), OrbitClass((0,), (1,), 6)]  # in place of ((0,), (0,)), then ((0,), (1,))
    monkeypatch.setattr("graphfib.repspaces.orbits", lambda *args: listing)
    with pytest.raises(InvariantError, match="listed once each, by increasing representative"):
        orbit_basis(symmetric_group(3), None, 1, 1)


def test_one_dim_call_reads_the_element_columns_once():
    class CountingGroup:
        """``symmetric_group(3)``, counting reads of its elements."""

        def __init__(self):
            self.group, self.reads = symmetric_group(3), 0
            self.degree, self.generators = self.group.degree, self.group.generators

        @property
        def elements(self):
            self.reads += 1
            return self.group.elements

    reads = []
    for m, count in ((1, 2), (2, 14)):
        group = CountingGroup()
        assert len(orbit_basis(group, None, m, m)[1]) == count
        reads.append(group.reads)
    assert reads[0] == reads[1]


def test_pair_word_reduces_the_glued_boundary():
    assert pair_word((0, 1), (1, 0)) == (0, 1, 0, 1)
    assert pair_word((0,), (0,)) == ()
    assert pair_word((), (0, 1)) == (1, 0)


# ---------------------------------------------------------------------------
# semidirect restriction


def test_invariance_guard_rejects_asymmetric_closures():
    bad = NormalClosureSpec(2, [(0,)])
    with pytest.raises(ValueError):
        check_invariance(symmetric_group(2).elements, bad)
    check_invariance(symmetric_group(2).elements, NormalClosureSpec(2, [(0, 1, 0, 1)]))


def commutator_closure(alphabet, pairs):
    return NormalClosureSpec(alphabet, [(x, y, x, y) for x, y in pairs], MembershipPolicy("racg"))


def test_invariance_decides_each_distinct_image_once(monkeypatch):
    maps = symmetric_group(4).elements
    closure = commutator_closure(4, [(x, y) for x in range(4) for y in range(4) if x != y])
    images = {apply_letter_map(phi, w) for phi in maps for w in closure.generators}
    calls = []

    def counting(word, spec):
        calls.append(word)
        return decide(word, spec)

    monkeypatch.setattr("graphfib.freeprod.decide", counting)
    check_invariance(maps, closure)
    assert len(calls) == len(images) == 12 < len(maps) * len(closure.generators)
    assert set(calls) == images


def plain_invariance_message(maps, closure):
    for phi in maps:
        for w in closure.generators:
            if member(apply_letter_map(phi, w), closure) is not Membership.YES:
                return f"closure is not invariant: image of {w} under {phi} escapes"


def test_invariance_names_the_first_escaping_image_as_a_plain_loop_does():
    # bcbc escapes; it is the image of acac under (1 0 2) and of abab under (1 2 0)
    closure = commutator_closure(3, [(0, 1), (0, 2)])
    for maps in (symmetric_group(3).elements, symmetric_group(3).elements[::-1]):
        with pytest.raises(ValueError) as exc:
            check_invariance(maps, closure)
        assert str(exc.value) == plain_invariance_message(maps, closure)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_invariance_under_any_letter_maps_answers_as_a_plain_loop_does(data):
    # one-to-one maps skip the reduction of their images; the others do not
    n = data.draw(st.integers(2, 4))
    letters = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(letters, letters).filter(lambda p: p[0] != p[1]), min_size=1, max_size=4))
    letter_map = st.one_of(st.permutations(range(n)), st.lists(letters, min_size=n, max_size=n)).map(tuple)
    maps = data.draw(st.lists(letter_map, max_size=4))
    closure = commutator_closure(n, pairs)
    try:
        check_invariance(maps, closure)
        message = None
    except ValueError as exc:
        message = str(exc)
    assert message == plain_invariance_message(maps, closure)


def test_invariance_is_checked_on_generators_only():
    trivial = PermutationGroup(3, [])
    shallow = abab3_closure(strategy="bounded-bfs", bfs_depth=0, bfs_max_len=0)
    assert member((0, 1, 0, 1), shallow) is Membership.UNKNOWN
    assert dim_report(trivial, shallow, 0, 0)["dim"] == 1


def test_orbit_table_verdicts_for_the_edge_commutator():
    aut = graph_automorphism_group(EDGE_PLUS_POINT)
    table = orbit_basis(aut, abab3_closure(), 0, 2)[0]
    verdicts = {(o.a, o.b): v for o, v in table}
    assert len(table) == 5
    assert verdicts[((), (0, 0))] is Membership.YES
    assert verdicts[((), (2, 2))] is Membership.YES
    assert verdicts[((), (0, 1))] is Membership.NO
    assert verdicts[((), (0, 2))] is Membership.NO
    assert verdicts[((), (2, 0))] is Membership.NO


def test_basis_semidirect_keeps_the_accepted_orbits():
    aut = graph_automorphism_group(EDGE_PLUS_POINT)
    basis = orbit_basis(aut, abab3_closure(), 0, 2)[1]
    assert [(o.a, o.b) for o in basis] == [((), (0, 0)), ((), (2, 2))]
    for o in basis:
        assert sum(build_That_H(aut, o.a, o.b).entries) == 2


def test_dimension_table_of_the_edge_commutator_fixture():
    aut = graph_automorphism_group(EDGE_PLUS_POINT)
    closure = abab3_closure()
    by_m = {0: 1, 1: 0, 2: 2, 3: 0, 4: 9}
    counts = {0: 1, 1: 2, 2: 5, 3: 14, 4: 41}
    for k in range(5):
        for l in range(5 - k):
            report = dim_report(aut, closure, k, l)
            m = k + l
            assert report["dim"] == by_m[m] == report["rank"]
            assert report["burnside"] == counts[m] == len(report["orbits"])
            assert sum(1 for o in report["orbits"] if o["accepted"]) == report["dim"]


def test_dim_report_without_closure_counts_all_orbits():
    report = dim_report(symmetric_group(3), None, 1, 1)
    assert report["dim"] == report["burnside"] == 2
    assert all(o["accepted"] for o in report["orbits"])


def test_unknown_orbit_verdicts_raise():
    aut = graph_automorphism_group(EDGE_PLUS_POINT)
    shallow = abab3_closure(strategy="bounded-bfs", bfs_depth=0)
    with pytest.raises(IndeterminateError):
        dim_report(aut, shallow, 0, 4)
    with pytest.raises(IndeterminateError):
        orbit_basis(aut, shallow, 0, 4)


def test_alphabet_mismatch_is_rejected():
    aut = graph_automorphism_group(EDGE_PLUS_POINT)
    with pytest.raises(ValueError):
        orbit_basis(aut, NormalClosureSpec(2, [(0, 1, 0, 1)]), 0, 2)


# ---------------------------------------------------------------------------
# identity verifiers


def test_partition_average_identity():
    groups = [
        symmetric_group(2),
        symmetric_group(3),
        graph_automorphism_group(EDGE_PLUS_POINT),
    ]
    for group in groups:
        for k in range(4):
            for l in range(4 - k):
                for p in enumerate_set_partitions(k, l):
                    assert verify_THpart(group, p)["ok"]


def test_partition_average_identity_with_an_empty_block():
    p = from_blocks(1, 1, [[0, 1], []])
    report = verify_THpart(symmetric_group(2), p)
    assert report["ok"]


def test_orbit_tensor_product_and_composition_expansions():
    group = symmetric_group(3)
    assert verify_repcat_tensor(group, (0,), (1,), (0, 1), (2,))["ok"]
    assert verify_repcat_tensor(group, (), (0, 0), (1,), ())["ok"]
    assert verify_repcat_compose(group, (0,), (1, 2), (0, 1), (2,))["ok"]
    assert verify_repcat_compose(group, (0, 1), (0,), (2,), (1, 1))["ok"]
    with pytest.raises(ValueError):
        verify_repcat_compose(group, (0,), (1,), (0, 1), (2,))
