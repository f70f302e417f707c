"""Words over involutive generators and normal-closure membership."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfib import freeprod
from graphfib.freeprod import (
    STRATEGIES,
    Membership,
    MembershipPolicy,
    NormalClosureSpec,
    apply_letter_map,
    closure_from_json,
    coset_table,
    inverse,
    member,
    policy_from_json,
    prune_reduced_words,
    quotient_order_if_finite,
    racg_eligible,
    reduce_word,
    validate_word,
)
from reference import restart_racg_member

words = st.lists(st.integers(min_value=0, max_value=3), max_size=12).map(tuple)


def commutator_spec(alphabet, pairs, strategy="auto"):
    gens = [(x, y, x, y) for x, y in pairs]
    return NormalClosureSpec(alphabet, gens, MembershipPolicy(strategy))


# ---------------------------------------------------------------------------
# reduction and arithmetic


def test_reduce_examples():
    assert reduce_word((0, 0, 1, 1)) == ()
    assert reduce_word((0, 1, 1, 0)) == ()
    assert reduce_word((0, 1, 0, 1)) == (0, 1, 0, 1)
    assert reduce_word(()) == ()


@settings(max_examples=100, deadline=None)
@given(words)
def test_reduce_idempotent(w):
    assert reduce_word(reduce_word(w)) == reduce_word(w)


@settings(max_examples=100, deadline=None)
@given(words, words)
def test_reduce_is_multiplicative(u, v):
    assert reduce_word(u + v) == reduce_word(reduce_word(u) + reduce_word(v))


@settings(max_examples=200, deadline=None)
@given(words, words, st.data())
def test_a_splice_of_reduced_words_reduces_like_the_whole_word(u, g, data):
    u, g = reduce_word(u), reduce_word(g)
    pos = data.draw(st.integers(min_value=0, max_value=len(u)))
    assert freeprod._splice(u, pos, g) == reduce_word(u[:pos] + g + u[pos:])


def test_inverse_reads_backwards():
    assert inverse((0, 1, 2)) == (2, 1, 0)


@settings(max_examples=100, deadline=None)
@given(words)
def test_inverse_involutive_and_cancels(w):
    assert inverse(inverse(w)) == reduce_word(w)
    assert reduce_word(w + inverse(w)) == ()
    assert reduce_word(inverse(w) + w) == ()


def test_multiply_example():
    assert reduce_word((0, 1) + (1, 0)) == ()


def test_apply_letter_map_can_merge_letters():
    assert apply_letter_map({0: 2, 1: 2}, (0, 1)) == ()
    assert apply_letter_map((2, 2), (0, 1)) == ()
    assert apply_letter_map({0: 1, 1: 0}, (0, 1, 0)) == (1, 0, 1)


def test_validate_word():
    validate_word((0, 2), 3)
    with pytest.raises(ValueError):
        validate_word((0, 3), 3)
    with pytest.raises(ValueError):
        validate_word((-1,), 3)


# ---------------------------------------------------------------------------
# closure specs


def test_spec_normalizes_generators():
    spec = NormalClosureSpec(2, [(0, 0), (0, 1, 1, 0), (1, 0), (1, 0)])
    assert spec.generators == ((1, 0),)
    with pytest.raises(ValueError):
        NormalClosureSpec(2, [(0, 2)])


def test_racg_eligibility():
    assert racg_eligible(((0, 1, 0, 1), (1, 2, 1, 2)))
    assert not racg_eligible(((0, 0, 0, 0),))
    assert not racg_eligible(((0, 1),))
    assert not racg_eligible(((0, 1, 0, 1), (0, 1)))


# ---------------------------------------------------------------------------
# coset enumeration


def test_quotient_orders():
    assert quotient_order_if_finite(NormalClosureSpec(3, [(0, 1), (1, 2)])) == 2
    assert quotient_order_if_finite(commutator_spec(2, [(0, 1)])) == 4
    assert quotient_order_if_finite(NormalClosureSpec(1, [])) == 2
    assert quotient_order_if_finite(commutator_spec(3, [(0, 1), (0, 2), (1, 2)])) == 8


def test_quotient_order_cap_returns_none():
    # the free product of three involutions modulo one commutator is infinite,
    # which the split certificate shows before any coset is defined
    spec = NormalClosureSpec(3, [(0, 1, 0, 1)])
    assert quotient_order_if_finite(spec) is None


def splits(n, relators):
    """The free-product certificate on relators as ``coset_table`` hands them over."""
    return freeprod._splits_infinitely(n, [r for r in map(reduce_word, relators) if r])


def enumerated_table(n, relators, cap):
    """``coset_table`` by plain enumeration, with the certificate switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freeprod, "_splits_infinitely", lambda n, relators: False)
        return coset_table(n, relators, cap)


@pytest.mark.parametrize(
    "n, relators, certified, order",
    [
        (3, [(0, 1)], True, None),
        (4, [(0, 1, 2)], True, None),
        (3, [(0, 1, 2)], False, 4),
        (3, [(0, 1), (1, 2)], False, 2),
        (2, [], True, None),
        (1, [], False, 2),
    ],
)
def test_free_product_certificate_examples(n, relators, certified, order):
    assert splits(n, relators) is certified
    table = coset_table(n, relators, 20000)
    assert (None if table is None else len(table)) == order


@pytest.mark.parametrize("cap", [1, 5, 23, 24, 40])
def test_the_cell_bound_caps_the_cosets_at_the_slots_it_holds(monkeypatch, cap):
    # the Coxeter presentation of S4 needs 24 cosets of 3 slots each; a cell
    # bound of 3 * cap to 3 * cap + 2 slots stops it as a cap of ``cap`` cosets would
    n, relators = 3, [(0, 1) * 3, (1, 2) * 3, (0, 2) * 2]
    expected = coset_table(n, relators, cap)
    for cells in range(n * cap, n * cap + n):
        monkeypatch.setattr(freeprod, "COSET_CELL_BOUND", cells)
        assert coset_table(n, relators, freeprod.COSET_BOUND) == expected


def test_the_cell_bound_keeps_the_coset_bound_up_to_1000_letters():
    assert freeprod.COSET_CELL_BOUND // 1000 == freeprod.COSET_BOUND


relator_sets = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=4).map(tuple),
            max_size=4,
        ),
    )
)


@settings(max_examples=60, deadline=None)
@given(relator_sets)
def test_free_product_certificate_agrees_with_enumeration(case):
    n, relators = case
    certified = splits(n, relators)
    table = enumerated_table(n, relators, 2000)
    if certified:
        # a free product of two nontrivial groups is infinite: no cap completes
        # it, so a relator set that enumerates is never certified
        assert table is None
        assert enumerated_table(n, relators, 20000) is None
    # the certificate only ever short-cuts an overflow
    assert coset_table(n, relators, 2000) == table


def sympy_order(n, relators):
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    free, *letters = free_group(",".join(f"x{i}" for i in range(n)))
    words = []
    for r in relators:
        w = free.identity
        for x in r:
            w *= letters[x]
        words.append(w)
    return FpGroup(free, [x**2 for x in letters] + words).order()


@pytest.mark.parametrize(
    "n, relators",
    [
        # finite quotients met by the closure benchmark workload
        (4, [(0, 2, 1), (0, 3, 1), (2, 0, 3), (2, 1, 3)]),
        (4, [(0, 1), (0, 3), (1, 2)]),
        (4, [(0, 1, 2), (1, 0, 3), (2, 0, 3)]),
        (4, [(0, 2, 1), (2, 0, 3)]),
        (3, [(0, 1, 2)]),
        # Coxeter groups: right-angled on three letters, dihedral, and S4
        (3, [(0, 1, 0, 1), (0, 2, 0, 2), (1, 2, 1, 2)]),
        (2, [(0, 1) * 5]),
        (3, [(0, 1) * 3, (1, 2) * 3, (0, 2) * 2]),
        (1, []),
    ],
)
def test_coset_table_orders_match_sympy(n, relators):
    pytest.importorskip("sympy")
    assert len(coset_table(n, relators, 20000)) == sympy_order(n, relators)


# ---------------------------------------------------------------------------
# membership


def test_membership_flagship_triple():
    for strategy in ("racg", "auto"):
        spec = commutator_spec(3, [(0, 1)], strategy=strategy)
        assert member((0, 1, 0, 1), spec) is Membership.YES
        assert member((0, 1), spec) is Membership.NO
        assert member((0, 2, 0, 2), spec) is Membership.NO


def test_membership_requires_alphabet_letters():
    spec = commutator_spec(3, [(0, 1)])
    with pytest.raises(ValueError):
        member((0, 3), spec)


def test_finite_model_membership():
    spec = commutator_spec(2, [(0, 1)], strategy="finite-model")
    assert member((0, 1, 0, 1), spec) is Membership.YES
    assert member((0, 1), spec) is Membership.NO
    assert member((0,), spec) is Membership.NO
    assert member((), spec) is Membership.YES


def test_racg_agrees_with_finite_model_on_complete_commutation():
    """With all pairs commuting the group is elementary abelian, so both
    exact strategies must agree on every short word."""
    pairs = [(0, 1), (0, 2), (1, 2)]
    shuffle = commutator_spec(3, pairs, strategy="racg")
    table = commutator_spec(3, pairs, strategy="finite-model")
    stack = [()]
    for w in stack:
        if len(w) < 8:
            stack.extend(w + (x,) for x in range(3))
        assert member(w, shuffle) is member(w, table)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2), max_size=10).map(tuple),
    st.integers(min_value=0, max_value=2),
)
def test_membership_conjugation_invariant(w, x):
    spec = commutator_spec(3, [(0, 1)], strategy="racg")
    assert member(w, spec) is member(reduce_word((x,) + w + (x,)), spec)


@st.composite
def racg_cases(draw):
    """At most 6 letters, a set of commuting pairs, and words to decide.

    The members are reduced products of conjugates ``u xyxy u^-1`` of those
    pairs, and words ``w w'^-1`` with ``w'`` made from ``w`` by swapping
    adjacent commuting letters, which are such products too and make letters
    cancel across several others.  Each member also comes with one letter put
    in somewhere, and random reduced words come last."""
    n = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True) if n > 1 else st.just([]))
    comm = {q for p in pairs for q in (p, p[::-1])}
    letters = st.integers(0, n - 1)
    conjugate = (
        st.tuples(st.lists(letters, max_size=5).map(tuple), st.sampled_from(pairs)).map(
            lambda c: c[0] + c[1] * 2 + c[0][::-1]
        )
        if pairs
        else st.just(())
    )
    members = draw(st.lists(st.lists(conjugate, max_size=4).map(lambda cs: reduce_word(sum(cs, ()))), max_size=3))
    for _ in range(draw(st.integers(0, 3))):
        w = draw(st.lists(letters, max_size=10))
        swapped = list(w)
        for i in draw(st.lists(st.integers(0, max(len(w) - 2, 0)), max_size=20)):
            if tuple(swapped[i : i + 2]) in comm:
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        members.append(reduce_word(w + swapped[::-1]))
    words = [(w, True) for w in members]
    for w in members:
        pos = draw(st.integers(0, len(w)))
        words.append((reduce_word(w[:pos] + (draw(letters),) + w[pos:]), False))
    words += [(w, False) for w in draw(st.lists(st.lists(letters, max_size=16).map(reduce_word), max_size=4))]
    return n, comm, words


@settings(max_examples=300, deadline=None)
@given(racg_cases())
def test_the_racg_scan_agrees_with_the_restart_loop(case):
    n, comm, words = case
    spec = commutator_spec(n, [p for p in comm if p[0] < p[1]], strategy="racg")
    for w, known_member in words:
        got = member(w, spec)
        assert got is restart_racg_member(comm, w)
        if known_member:
            assert got is Membership.YES


def test_bounded_bfs_is_sound_and_admits_unknown():
    spec = commutator_spec(3, [(0, 1)], strategy="bounded-bfs")
    assert member((0, 1, 0, 1), spec) is Membership.YES
    assert member((2, 0, 1, 0, 1, 2), spec) is Membership.YES
    assert member((0, 1), spec) is Membership.NO
    assert member((0, 2), spec) is Membership.NO
    shallow = NormalClosureSpec(3, spec.generators, spec.policy.replace(bfs_depth=0))
    assert member((2, 0, 1, 0, 1, 2), shallow) is Membership.UNKNOWN


def test_bounded_bfs_answers_unknown_past_the_node_bound(monkeypatch):
    spec = commutator_spec(3, [(0, 1)], strategy="bounded-bfs")
    assert member((2, 0, 1, 0, 1, 2), spec) is Membership.YES
    monkeypatch.setattr(freeprod, "BFS_NODE_BOUND", 1)
    assert member((2, 0, 1, 0, 1, 2), spec) is Membership.UNKNOWN


# ---------------------------------------------------------------------------
# parity vectors over GF(2)


def test_the_parity_basis_is_reduced():
    # x_i + x_{i+1}: before back-substitution each pivot holds the leading
    # bit of the one below it, and a query walks the whole chain down to x_0
    pivots = freeprod._gf2_pivots([0b11, 0b110, 0b1100, 0b11000])
    assert pivots == {1: 0b11, 2: 0b101, 3: 0b1001, 4: 0b10001}
    assert not freeprod._gf2_in_span(0b10000, pivots)
    assert freeprod._gf2_in_span(0b10100, pivots)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=8), st.integers(0, 255))
def test_the_parity_basis_matches_a_brute_force_span(vectors, target):
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    pivots = freeprod._gf2_pivots(vectors)
    assert 2 ** len(pivots) == len(span) and set(pivots.values()) <= span
    assert all(v.bit_length() - 1 == h for h, v in pivots.items())
    assert not any(v >> b & 1 for h, v in pivots.items() for b in pivots if b != h)
    assert freeprod._gf2_in_span(target, pivots) is (target in span)


def test_bounded_bfs_never_contradicts_racg():
    spec = commutator_spec(3, [(0, 1), (1, 2)])
    bfs = NormalClosureSpec(
        3, spec.generators, MembershipPolicy("bounded-bfs", bfs_depth=3, bfs_max_len=12)
    )
    racg = NormalClosureSpec(3, spec.generators, MembershipPolicy("racg"))
    stack = [()]
    for w in stack:
        if len(w) < 5:
            stack.extend(w + (x,) for x in range(3))
        got = member(w, bfs)
        if got is not Membership.UNKNOWN:
            assert got is member(w, racg)


# ---------------------------------------------------------------------------
# the decider a spec keeps


def verdict(word, spec):
    try:
        return member(word, spec)
    except ValueError:
        return "refused"


small_words = st.lists(st.integers(min_value=0, max_value=2), max_size=8).map(tuple)
closure_generators = st.one_of(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda p: p[0] != p[1]).map(lambda p: p * 2),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=5).map(tuple), max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(closure_generators, st.sampled_from(STRATEGIES), st.lists(small_words, min_size=1, max_size=8), st.data())
def test_a_spec_answers_like_a_fresh_equal_spec_per_query(gens, strategy, queries, data):
    policy = MembershipPolicy(strategy, bfs_depth=2, bfs_max_len=10)
    shared = NormalClosureSpec(3, gens, policy)
    for w in data.draw(st.permutations(queries)):
        assert verdict(w, shared) == verdict(w, NormalClosureSpec(3, gens, policy))


@pytest.mark.parametrize("gens", [[(0, 1, 0, 1)], [(0, 1, 2)], [(0, 1, 0, 1, 0, 1)]])
def test_the_strategy_is_resolved_once_per_spec(monkeypatch, gens):
    calls = []

    def counting_racg_eligible(generators):
        calls.append(generators)
        return racg_eligible(generators)

    monkeypatch.setattr(freeprod, "racg_eligible", counting_racg_eligible)
    spec = NormalClosureSpec(3, gens)
    assert member((), spec) is Membership.YES
    assert calls == []
    for w in [(0, 1, 0, 1), (0, 1), (2, 0, 1, 0, 1, 2), (1, 2), ()]:
        member(w, spec)
    assert len(calls) == 1
    member((0, 1), NormalClosureSpec(3, gens))
    assert len(calls) == 2


def test_a_racg_refusal_is_raised_on_every_call():
    spec = NormalClosureSpec(3, [(0, 1, 2)], MembershipPolicy("racg"))
    assert member((), spec) is Membership.YES
    for _ in range(2):
        with pytest.raises(ValueError, match="racg"):
            member((0, 1), spec)


def test_a_spec_is_immutable():
    spec = commutator_spec(3, [(0, 1)])
    member((0, 1), spec)
    for name in ("alphabet_size", "generators", "policy", "_decide", "extra"):
        with pytest.raises(AttributeError):
            setattr(spec, name, None)
    assert spec.generators == ((0, 1, 0, 1),)


def test_a_spec_that_answered_stays_equal_to_a_fresh_one():
    for strategy in STRATEGIES:
        used, fresh = commutator_spec(2, [(0, 1)], strategy), commutator_spec(2, [(0, 1)], strategy)
        assert member((0, 1, 0, 1), used) is Membership.YES
        assert used == fresh and hash(used) == hash(fresh)
        assert used != commutator_spec(3, [(0, 1)], strategy)


# ---------------------------------------------------------------------------
# pruning implied words


def pruned(alphabet_size, words, policy):
    """What :func:`prune_reduced_words` keeps of the words of a spec, as a
    fibre keeps its copies' words."""
    return prune_reduced_words(alphabet_size, NormalClosureSpec(alphabet_size, words, policy).generators, policy)


def reference_pruned_words(alphabet_size, words, policy):
    """The words :func:`pruned` keeps, by a spec of the kept words and a
    ``member`` query per candidate, under the policy's bounds with ``auto``."""
    policy = policy.replace(strategy="auto")
    kept = []
    for w in dict.fromkeys(filter(None, (reduce_word(w) for w in words))):
        if not kept or member(w, NormalClosureSpec(alphabet_size, kept, policy)) is not Membership.YES:
            kept.append(w)
    return tuple(kept)


def test_pruning_reduces_deduplicates_and_drops_empty_words():
    shallow = MembershipPolicy("bounded-bfs", bfs_depth=0)
    words = [(), (0, 0), (1, 2, 2), (1,), (0, 1, 1, 2), (0, 2), [1]]
    assert pruned(3, words, shallow) == ((1,), (0, 2))
    assert pruned(3, [], shallow) == ()
    with pytest.raises(ValueError, match="out of range"):
        pruned(2, [(0, 2)], shallow)


def test_pruning_drops_a_word_implied_by_those_kept_before_it():
    assert pruned(2, [(0, 1, 0, 1), (1, 0, 1, 0)], MembershipPolicy()) == ((0, 1, 0, 1),)
    # (0, 2) lies in <<(0, 1), (1, 2)>>, but not in <<(0, 1)>>: order matters
    assert pruned(3, [(0, 1), (1, 2), (0, 2)], MembershipPolicy()) == ((0, 1), (1, 2))
    assert pruned(3, [(0, 2), (0, 1), (1, 2)], MembershipPolicy()) == ((0, 2), (0, 1))


def test_pruning_under_racg_resolves_as_auto():
    words = [(0, 1), (1, 2), (0, 2)]
    with pytest.raises(ValueError, match="racg"):
        member((1, 2), NormalClosureSpec(3, words[:1], MembershipPolicy("racg")))
    assert pruned(3, words, MembershipPolicy("racg")) == ((0, 1), (1, 2))


pruning_policies = st.one_of(
    st.sampled_from(STRATEGIES).map(lambda s: MembershipPolicy(s, bfs_depth=2, bfs_max_len=10)),
    st.integers(min_value=0, max_value=2).map(lambda d: MembershipPolicy("bounded-bfs", bfs_depth=d)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(small_words, max_size=6), pruning_policies)
def test_pruning_agrees_with_a_spec_and_member_loop(words, policy):
    assert pruned(3, words, policy) == reference_pruned_words(3, words, policy)


def test_pruning_resolves_the_strategy_once_per_kept_set(monkeypatch):
    eligible, deciders = [], []

    def counting_racg_eligible(generators):
        eligible.append(generators)
        return racg_eligible(generators)

    def counting_decider(*args):
        deciders.append(args[1])
        return decider(*args)

    decider = freeprod._decider
    monkeypatch.setattr(freeprod, "racg_eligible", counting_racg_eligible)
    monkeypatch.setattr(freeprod, "_decider", counting_decider)
    # the first word is kept with no query, and so is the only word of a list
    assert pruned(3, [(0, 1, 0, 1), (0, 0)], MembershipPolicy()) == ((0, 1, 0, 1),)
    assert deciders == []
    # every kept word reads xyxy: the racg strategy answers, once per kept set
    words = [(0, 1, 0, 1), (1, 0, 1, 0), (2, 1, 0, 1, 0, 2), (1, 2, 1, 2), (2, 1, 2, 1)]
    assert pruned(4, words, MembershipPolicy()) == ((0, 1, 0, 1), (1, 2, 1, 2))
    assert deciders == [((0, 1, 0, 1),), ((0, 1, 0, 1), (1, 2, 1, 2))]
    assert eligible == deciders
    # a kept set is resolved for the first word after it, and then answers until a word is kept
    deciders.clear()
    eligible.clear()
    words = [(0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 2), (1, 2, 1, 2), (0, 2, 0, 2), (2,), (0, 1), (0,)]
    assert pruned(3, words, MembershipPolicy()) == ((0, 1, 0, 1), (0, 1, 2), (2,), (0,))
    assert deciders == [((0, 1, 0, 1),), ((0, 1, 0, 1), (0, 1, 2)), ((0, 1, 0, 1), (0, 1, 2), (2,))]
    assert eligible == deciders


@st.composite
def commutator_heavy_words(draw):
    """Words over 4 or 5 letters, most of them ``xyxy`` or its reversal."""
    n = draw(st.integers(min_value=4, max_value=5))
    letters = st.integers(min_value=0, max_value=n - 1)
    pairs = st.tuples(letters, letters).filter(lambda p: p[0] != p[1])
    commutator = pairs.map(lambda p: p * 2)
    word = st.one_of(
        commutator,
        commutator.map(lambda w: w[::-1]),
        st.lists(letters, min_size=1, max_size=3).map(tuple),
    )
    return n, draw(st.lists(word, max_size=8))


@settings(max_examples=100, deadline=None)
@given(commutator_heavy_words(), pruning_policies)
def test_pruning_commutator_heavy_lists_agrees_with_a_spec_and_member_loop(case, policy):
    n, words = case
    want = reference_pruned_words(n, words, policy)
    assert pruned(n, words, policy) == want
    distinct = dict.fromkeys(filter(None, map(reduce_word, words)))
    assert prune_reduced_words(n, distinct, policy) == want


# ---------------------------------------------------------------------------
# serialization


def test_closure_json_letter_strings():
    spec = closure_from_json(
        {"alphabet": 3, "generators": [["a", "b", "a", "b"]], "strategy": "racg"}
    )
    assert spec.alphabet_size == 3
    assert spec.generators == ((0, 1, 0, 1),)
    assert spec.policy.strategy == "racg"


def test_closure_json_integer_letters_and_bfs_object():
    spec = closure_from_json(
        {
            "alphabet": 2,
            "generators": [[0, 1, 0, 1]],
            "strategy": {"bounded-bfs": {"depth": 3, "max_len": 10}},
        }
    )
    assert spec.policy.strategy == "bounded-bfs"
    assert spec.policy.bfs_depth == 3 and spec.policy.bfs_max_len == 10


def test_closure_json_rejects_bad_input():
    with pytest.raises(ValueError):
        closure_from_json({"alphabet": 2, "generators": [["z"]], "strategy": "racg"})
    with pytest.raises(ValueError):
        closure_from_json({"alphabet": 2, "generators": [], "strategy": "shuffle"})
    for params in (5, [3], {"depth": 3, "width": 2}, {"max_len": True}):
        with pytest.raises(ValueError):
            closure_from_json(
                {"alphabet": 2, "generators": [], "strategy": {"bounded-bfs": params}}
            )


# The entries that take a word from a caller: each reads its letters by validate_word.
LETTER_CHECKS = {
    "validate_word": lambda w: validate_word(w, 3),
    "NormalClosureSpec": lambda w: NormalClosureSpec(3, [w]),
    "member": lambda w: member(w, NormalClosureSpec(3, [])),
    "closure_from_json": lambda w: closure_from_json({"alphabet": 3, "generators": [w]}),
}


@pytest.mark.parametrize("kind", [list, tuple])
@pytest.mark.parametrize(
    "word, want",
    [
        ([], ()),
        ([0], (0,)),
        ([0, 1, 2], (0, 1, 2)),
        ([2, 2, 0], (2, 2, 0)),
        (["a", "c"], (0, 2)),
        ([0, "b", 2], (0, 1, 2)),
        (["c", 1], (2, 1)),
    ],
)
def test_a_word_reads_int_and_string_letters(word, want, kind):
    word = kind(word)
    assert validate_word(word, 3) == want
    generators = tuple(filter(None, [reduce_word(want)]))
    assert NormalClosureSpec(3, [word]).generators == generators
    assert pruned(3, [word], MembershipPolicy()) == generators
    assert member(word, NormalClosureSpec(3, [want])) is Membership.YES
    assert member(word, NormalClosureSpec(3, [])) is (Membership.NO if generators else Membership.YES)


@pytest.mark.parametrize("check", LETTER_CHECKS)
@pytest.mark.parametrize("place", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize(
    "bad, message",
    [
        (True, "invalid letter True"),
        (False, "invalid letter False"),
        (1.0, "invalid letter 1.0"),
        (1.5, "invalid letter 1.5"),
        (-1, "letter -1 out of range for alphabet of 3"),
        (3, "letter 3 out of range for alphabet of 3"),
        ("d", "letter 'd' out of range for alphabet of 3"),
        ("A", "invalid letter 'A'"),
        ("ab", "invalid letter 'ab'"),
        (None, "invalid letter None"),
        ([0], "invalid letter [0]"),
    ],
)
def test_a_bad_letter_gets_its_message_wherever_it_stands(bad, message, place, check):
    word = [0, "b"]
    word.insert(place, bad)
    for kind in (list, tuple):
        with pytest.raises(ValueError) as got:
            LETTER_CHECKS[check](kind(word))
        assert str(got.value) == message


@pytest.mark.parametrize("check", LETTER_CHECKS)
def test_a_word_must_be_a_list_or_a_tuple(check):
    for word in (5, "ab", range(2), {0: 0}):
        with pytest.raises(ValueError) as got:
            LETTER_CHECKS[check](word)
        assert str(got.value) == "word JSON must be a list of letters"


def test_a_spec_refuses_a_policy_that_is_not_a_membership_policy():
    for policy in ("racg", "auto", None, tuple(MembershipPolicy())):
        with pytest.raises(ValueError, match="policy must be a MembershipPolicy"):
            NormalClosureSpec(2, [(0, 1, 0, 1)], policy)


# ---------------------------------------------------------------------------
# membership policy


@pytest.mark.parametrize(
    "fields",
    [
        {"strategy": "shuffle"},
        {"strategy": None},
        {"bfs_depth": -1},
        {"bfs_max_len": -1},
        {"bfs_depth": "6"},
        {"bfs_depth": True},
        {"bfs_max_len": None},
        {"bfs_max_len": 2.0},
    ],
)
def test_membership_policy_rejects_bad_fields(fields):
    with pytest.raises(ValueError):
        MembershipPolicy(**fields)


def test_membership_policy_accepts_the_least_bounds():
    policy = MembershipPolicy("bounded-bfs", bfs_depth=0, bfs_max_len=0)
    assert (policy.bfs_depth, policy.bfs_max_len) == (0, 0)


def test_membership_policy_is_immutable_and_replace_checks():
    policy = MembershipPolicy()
    with pytest.raises(AttributeError):
        policy.strategy = "racg"
    assert policy.strategy == "auto"
    assert policy.replace(bfs_depth=2) == MembershipPolicy(bfs_depth=2)
    assert hash(policy.replace()) == hash(policy)
    with pytest.raises(ValueError):
        policy.replace(bfs_max_len=-1)


@pytest.mark.parametrize(
    "policy",
    [MembershipPolicy(s) for s in STRATEGIES]
    + [MembershipPolicy("bounded-bfs", bfs_depth=0, bfs_max_len=9)],
)
def test_policy_json_round_trip(policy):
    # the JSON forms: a strategy name, or an object with bounded-bfs's bounds
    obj = policy.strategy
    if obj == "bounded-bfs":
        obj = {"bounded-bfs": {"depth": policy.bfs_depth, "max_len": policy.bfs_max_len}}
    assert policy_from_json(obj) == policy
