"""Words over a free product of order-2 generators, and normal-closure membership.

The ambient group has one involutive generator per letter ``0..n-1`` and no
other relations.  Words are tuples of letters; reduction cancels adjacent
equal letters, and the inverse of a reduced word is its reversal.

Membership in a normal closure is answered by one of three strategies:

* ``finite-model``: run coset enumeration over the quotient presentation and
  trace the word; exact whenever the quotient is recognized finite within
  ``COSET_BOUND`` cosets (fewer past 1,000 letters: ``COSET_CELL_BOUND``
  caps the table's slots).  A quotient that splits as a free product of two
  nontrivial factors is recognized infinite before enumeration starts, with
  the same outcome as an enumeration that overflows the bound.
* ``racg``: applicable when every closure generator is a commutator-shaped
  word ``xyxy`` with ``x != y``; the quotient is then a right-angled Coxeter
  group, and one left-to-right scan that cancels each letter against an equal
  one reached across letters it commutes with decides the word problem
  exactly.
* ``bounded-bfs``: a semi-decision.  A parity check over GF(2) gives sound
  "no" answers; otherwise breadth-first insertion of generators, each
  reduced only at its two junctions, searches for a cancellation to the
  empty word, giving "yes" or "unknown".  The search is bounded in depth,
  in word length and in the words it visits (``BFS_NODE_BOUND``).

A spec resolves its strategy on its first query and keeps the verdict
function, so later queries reuse the commuting pairs, the coset table, or
the search moves and parity pivots.  :func:`prune_reduced_words` keeps no
spec: it makes one verdict function per set of kept words, so the ``racg``
strategy is the one statement of right-angled Coxeter membership, but for
``fibrations.closure_graphs``' scan of all-``xyxy`` lists by letter pair, which is
exact: an ``xyxy`` word is a ``racg`` member exactly when its pair is kept.
"""

from __future__ import annotations

from collections import Counter, deque, namedtuple
from enum import Enum
from functools import cached_property, lru_cache, partial

from .errors import IndeterminateError, check_json_object
from .graphs import generated_partition


class Membership(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


STRATEGIES = ("auto", "racg", "finite-model", "bounded-bfs")
# Words one ``bounded-bfs`` search may visit before it answers UNKNOWN.
BFS_NODE_BOUND = 10**4
# Cosets one enumeration may define before the quotient counts as not shown
# finite, behind ``finite-model`` and behind ``auto``'s choice of strategy.
COSET_BOUND = 20000
# Table slots, cosets times letters, one enumeration may hold: the coset
# bound on an alphabet of 1,000 letters.  A larger alphabet stops at fewer
# cosets, before their rows fill memory.
COSET_CELL_BOUND = 2 * 10**7


class MembershipPolicy(namedtuple("MembershipPolicy", ("strategy", "bfs_depth", "bfs_max_len"))):
    """How membership queries are answered: the strategy and its bounds.

    ``bfs_depth`` and ``bfs_max_len`` bound the ``bounded-bfs`` search.  A
    policy is immutable, because one instance is every caller's default;
    :meth:`replace` makes a checked copy.
    """

    __slots__ = ()

    def __new__(cls, strategy="auto", bfs_depth=6, bfs_max_len=24):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown membership strategy {strategy!r}")
        for name, value in (("bfs_depth", bfs_depth), ("bfs_max_len", bfs_max_len)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        return super().__new__(cls, strategy, bfs_depth, bfs_max_len)

    def replace(self, **changes):
        return MembershipPolicy(**{**self._asdict(), **changes})


# ---------------------------------------------------------------------------
# words


def reduce_word(letters):
    out = []
    for x in letters:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _splice(u, pos, g):
    """``reduce_word(u[:pos] + g + u[pos:])`` for reduced ``u`` and ``g``.

    Letters cancel only outward from the two junctions: ``g`` from its
    front against ``u[:pos]`` and from its back against ``u[pos:]``, and
    once ``g`` is gone the two parts of ``u`` against each other.
    """
    a, b, lo, hi, n = pos, pos, 0, len(g), len(u)
    while a and lo < hi and u[a - 1] == g[lo]:
        a -= 1
        lo += 1
    while b < n and lo < hi and g[hi - 1] == u[b]:
        b += 1
        hi -= 1
    if lo == hi:
        while a and b < n and u[a - 1] == u[b]:
            a -= 1
            b += 1
    return u[:a] + g[lo:hi] + u[b:]


def inverse(w):
    # every letter is an involution, so reversal inverts
    return reduce_word(reversed(tuple(w)))


def apply_letter_map(mapping, w):
    """Push a word through a letter substitution and reduce."""
    return reduce_word(mapping[x] for x in w)


_LETTERS = {chr(ord("a") + v): v for v in range(26)}  # letter strings, "a" to "z"


def validate_word(letters, alphabet_size):
    """The word a list or tuple of letters names, read in one pass.  A letter
    is an ``int`` or one of ``"a"`` to ``"z"``; the first bad letter is the
    one reported."""
    if not isinstance(letters, (list, tuple)):
        raise ValueError("word JSON must be a list of letters")
    word = []
    for x in letters:
        v = x if type(x) is int else _LETTERS.get(x) if isinstance(x, str) else None
        if v is None:
            raise ValueError(f"invalid letter {x!r}")
        if not 0 <= v < alphabet_size:
            raise ValueError(f"letter {x!r} out of range for alphabet of {alphabet_size}")
        word.append(v)
    return tuple(word)


# ---------------------------------------------------------------------------
# normal-closure specifications


class NormalClosureSpec(namedtuple("NormalClosureSpec", ("alphabet_size", "generators", "policy"))):
    """A normal closure ``<<generators>>`` inside the free product on
    ``alphabet_size`` involutive letters, plus the policy used to answer
    membership queries against it.

    A spec is a checked named tuple, equal by its three fields and
    read-only, so the verdict function that :func:`decide` keeps in the
    instance dict as ``_decide`` after the first query cannot go stale.
    Its generators are the checked, reduced, distinct and nonempty words
    of ``generators``, in the order of their first appearance.
    """

    def __new__(cls, alphabet_size, generators, policy=MembershipPolicy()):
        if not isinstance(policy, MembershipPolicy):
            raise ValueError(f"policy must be a MembershipPolicy, got {policy!r}")
        words = (reduce_word(validate_word(g, alphabet_size)) for g in generators)
        return super().__new__(cls, alphabet_size, tuple(dict.fromkeys(filter(None, words))), policy)

    def __setattr__(self, name, value):
        raise AttributeError("NormalClosureSpec is immutable")

    @cached_property
    def _decide(self):
        return _decider(*self)

    @property
    def strategy(self):
        # The benchmark's tracer (perfbench/tracing.py) reads ``spec.strategy``
        # to attribute verdicts; it cannot follow the move into ``policy``.
        return self.policy.strategy


# ---------------------------------------------------------------------------
# parity vectors over GF(2)


def _parity(w):
    m = 0
    for x in w:
        m ^= 1 << x
    return m


def _gf2_pivots(vectors):
    """Reduced echelon basis of the GF(2) span of bit-vectors, keyed by leading
    bit: back-substitution, lowest pivot first, leaves no pivot holding another's."""
    pivots = {}
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            if h in pivots:
                v ^= pivots[h]
            else:
                pivots[h] = v
                break
    for h in sorted(pivots):
        rest = pivots[h] ^ (1 << h)
        while rest:
            b = rest.bit_length() - 1
            rest ^= 1 << b
            if b in pivots:
                pivots[h] ^= pivots[b]
    return pivots


def _gf2_in_span(target, pivots):
    """Is ``target`` in the span of the reduced echelon basis ``pivots``?  At
    most one step per pivot bit of ``target``, as a pivot adds no other."""
    while target:
        h = target.bit_length() - 1
        if h not in pivots:
            return False
        target ^= pivots[h]
    return True


# ---------------------------------------------------------------------------
# coset enumeration (all generators involutive, trivial subgroup)


class _Overflow(Exception):
    """Raised inside :func:`coset_table` when a definition would pass its bound."""


def coset_table(alphabet_size, relators, max_cosets):
    """Complete coset table of ``<x_0..x_{n-1} | x_i^2, relators>`` or None.

    Returns the table as a list of rows (one per group element, row ``c``
    maps letter ``x`` to ``table[c][x]``) with coset 0 the identity, or None
    when enumeration exceeds ``max_cosets`` cosets, or ``COSET_CELL_BOUND``
    slots, one per coset and letter.  A quotient that splits as a free
    product of two nontrivial factors is infinite, so it gets that None at
    once, without enumerating.
    """
    n = alphabet_size
    relators = [reduce_word(r) for r in relators]
    relators = [r for r in relators if r]
    if _splits_infinitely(n, relators):
        return None
    max_cosets = min(max_cosets, COSET_CELL_BOUND // max(n, 1))
    table = [[None] * n]
    p = [0]

    def rep(c):
        r = c
        while p[r] != r:
            r = p[r]
        while p[c] != r:
            p[c], c = r, p[c]
        return r

    def define(c, x):
        if len(table) >= max_cosets:
            raise _Overflow
        d = len(table)
        table.append([None] * n)
        p.append(d)
        table[c][x] = d
        table[d][x] = c

    def coincidence(a, b):
        queue = deque()

        def merge(u, v):
            u, v = rep(u), rep(v)
            if u != v:
                u, v = min(u, v), max(u, v)
                p[v] = u
                queue.append(v)

        merge(a, b)
        while queue:
            dead = queue.popleft()
            for x in range(n):
                d = table[dead][x]
                if d is None:
                    continue
                table[d][x] = None
                mu, nu = rep(dead), rep(d)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x])
                elif table[nu][x] is not None:
                    merge(mu, table[nu][x])
                else:
                    table[mu][x] = nu
                    table[nu][x] = mu

    def scan_and_fill(alpha, r):
        f, i = alpha, 0
        b, j = alpha, len(r) - 1
        while True:
            while i <= j and table[f][r[i]] is not None:
                f = table[f][r[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][r[j]] is not None:
                b = table[b][r[j]]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][r[i]] = b
                table[b][r[i]] = f
                return
            define(f, r[i])

    try:
        alpha = 0
        while alpha < len(table):
            if p[alpha] != alpha:
                alpha += 1
                continue
            for r in relators:
                scan_and_fill(alpha, r)
                if p[alpha] != alpha:
                    break
            if p[alpha] == alpha:
                for x in range(n):
                    if table[alpha][x] is None:
                        define(alpha, x)
            alpha += 1
    except _Overflow:
        return None

    live = [c for c in range(len(table)) if p[c] == c]
    index = {c: i for i, c in enumerate(live)}
    return [[index[rep(table[c][x])] for x in range(n)] for c in live]


def _splits_infinitely(n, relators):
    """True when the quotient splits as a free product of two nontrivial factors.

    Letters that share a relator are joined; each class of letters, with the
    relators over it, is a free factor of the quotient.  A factor is
    nontrivial when its relators' parity vectors span less than its letters
    over GF(2), since a nonzero functional vanishing on them maps it onto
    Z/2.  A free product of two nontrivial groups is infinite, so coset
    enumeration would overflow at any cap; two factors need two blocks.
    ``relators`` must be reduced and nonempty, as :func:`coset_table` passes
    them.
    """
    block_of = generated_partition(n, (pair for r in relators for pair in zip(r, r[1:])))
    blocks = Counter(block_of)
    if len(blocks) < 2:
        return False
    nontrivial = sum(
        len(_gf2_pivots(_parity(r) for r in relators if block_of[r[0]] == b)) < size
        for b, size in blocks.items()
    )
    return nontrivial >= 2


@lru_cache(maxsize=256)
def _cached_table(alphabet_size, generators):
    return coset_table(alphabet_size, generators, COSET_BOUND)


def quotient_order_if_finite(spec):
    """Order of the quotient by the closure, or None if not shown finite."""
    table = _cached_table(spec.alphabet_size, spec.generators)
    return None if table is None else len(table)


# ---------------------------------------------------------------------------
# strategy: right-angled Coxeter quotients


def commuting_pair(w):
    """The unordered letter pair ``(x, y)``, ``x < y``, when ``w`` reads ``xyxy`` or
    ``yxyx`` with two distinct letters, else None."""
    if len(w) == 4 and w[0] != w[1] and w[0] == w[2] and w[1] == w[3]:
        return (w[0], w[1]) if w[0] < w[1] else (w[1], w[0])
    return None


def racg_eligible(generators):
    """True when every generator reads ``xyxy`` with two distinct letters."""
    return all(commuting_pair(w) is not None for w in generators)


def _racg_member(comm, word):
    """Cancel ``word`` in one left-to-right scan (Tits 1969); ``comm`` holds
    the ordered pairs of distinct commuting letters.  Each new letter looks
    back over the kept letters it commutes with: an equal one met there
    cancels with it, else the new letter is kept.  What is kept is always a
    shortest word for the prefix read, so the word is a member exactly when
    none is kept."""
    kept = []
    for x in word:
        j = len(kept) - 1
        while j >= 0 and (x, kept[j]) in comm:
            j -= 1
        if j >= 0 and kept[j] == x:
            del kept[j]
        else:
            kept.append(x)
    return Membership.NO if kept else Membership.YES


# ---------------------------------------------------------------------------
# strategy: bounded search


def _bounded_bfs_decider(generators, depth, max_len):
    """The ``bounded-bfs`` verdict function, with its moves and pivots made once."""
    if not generators:
        return lambda word: Membership.NO
    pivots = _gf2_pivots([_parity(g) for g in generators])
    moves = set(generators) | {inverse(g) for g in generators}
    return partial(_bounded_bfs_member, pivots, moves, depth, max_len)


def _bounded_bfs_member(pivots, moves, depth, max_len, word):
    # abelianized over GF(2), membership in the closure forces membership in
    # the subgroup spanned by the generator parity vectors
    if not _gf2_in_span(_parity(word), pivots):
        return Membership.NO
    visited = {word}
    frontier = [word]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for g in moves:
                for pos in range(len(u) + 1):
                    v = _splice(u, pos, g)
                    if not v:
                        return Membership.YES
                    if len(v) <= max_len and v not in visited:
                        visited.add(v)
                        if len(visited) > BFS_NODE_BOUND:
                            return Membership.UNKNOWN
                        nxt.append(v)
        if not nxt:
            break
        frontier = nxt
    return Membership.UNKNOWN


# ---------------------------------------------------------------------------
# dispatch


def _table_member(table, word):
    c = 0
    for x in word:
        c = table[c][x]
    return Membership.YES if c == 0 else Membership.NO


def _decider(alphabet_size, generators, policy):
    """The verdict function for the closure of the reduced ``generators`` under ``policy``:
    ``auto`` tries ``racg``, then ``finite-model``, then ``bounded-bfs``."""
    strategy = policy.strategy
    if strategy in ("auto", "racg") and racg_eligible(generators):
        comm = {q for p in map(commuting_pair, generators) for q in (p, p[::-1])}
        return partial(_racg_member, comm)
    if strategy == "racg":
        raise ValueError("racg strategy requires every generator to read xyxy with x != y")
    if strategy != "bounded-bfs":
        table = _cached_table(alphabet_size, generators)
        if table is not None:
            return partial(_table_member, table)
        if strategy == "finite-model":
            return lambda word: Membership.UNKNOWN
    return _bounded_bfs_decider(generators, policy.bfs_depth, policy.bfs_max_len)


def member(word, spec):
    """Tri-state membership of ``word`` in the normal closure of ``spec``:
    the word is checked against the alphabet, reduced, and passed to :func:`decide`."""
    return decide(reduce_word(validate_word(word, spec.alphabet_size)), spec)


def decide(w, spec):
    """Tri-state membership of ``w``, a reduced word over ``spec``'s alphabet.

    The empty word is a member before any strategy is resolved.  The first
    other query keeps :func:`_decider`'s verdict function in the spec's
    instance dict, through the ``_decide`` cached property; a ``racg``
    refusal keeps nothing, so every query that reaches it raises.  ``w`` is
    not checked.
    """
    if not w:
        return Membership.YES
    return spec._decide(w)


def prune_reduced_words(alphabet_size, words, policy):
    """The checked, reduced, distinct and nonempty ``words``, less each one that an
    ``auto`` query under ``policy``'s search bounds answers YES against the words
    kept before it.

    The first word is kept outright, as the closure of no words holds no
    nonempty reduced word.  Each later word is answered by one verdict
    function of :func:`_decider` per set of kept words.
    """
    kept, decider = [], None
    # ``replace`` builds and validates a new policy, so skip it when the policy is ``auto`` already
    auto = policy if policy.strategy == "auto" else policy.replace(strategy="auto")
    for w in words:
        if kept and decider is None:  # made for the first query after a kept word
            decider = _decider(alphabet_size, tuple(kept), auto)
        if not kept or decider(w) is not Membership.YES:
            kept.append(w)
            decider = None
    return tuple(kept)


def check_invariance(maps, closure):
    """Require every letter map in ``maps`` to send the closure into itself.

    Each map must send the alphabet into itself: its images go to
    :func:`decide` unchecked.  It suffices that each map sends each closure generator into the closure.
    An image outside raises ``ValueError``, and one of unknown membership
    :class:`IndeterminateError`, so only members repeat: each is decided once.
    """
    members = set()
    for phi in maps:
        one_to_one = len(set(phi)) == len(phi)  # then it keeps a reduced word reduced
        for w in closure.generators:
            image = tuple(map(phi.__getitem__, w)) if one_to_one else apply_letter_map(phi, w)
            got = Membership.YES if image in members else decide(image, closure)
            if got is Membership.NO:
                raise ValueError(f"closure is not invariant: image of {w} under {phi} escapes")
            if got is Membership.UNKNOWN:
                raise IndeterminateError(
                    f"cannot certify invariance of the closure for {w} under {phi}"
                )
            members.add(image)


# ---------------------------------------------------------------------------
# serialization


def closure_from_json(obj):
    alphabet, raw_gens = check_json_object(obj, "closure", ("alphabet", "generators"), ("strategy",))
    if type(alphabet) is not int or alphabet < 0:
        raise ValueError(f"closure JSON field 'alphabet' must be an integer >= 0, got {alphabet!r}")
    if not isinstance(raw_gens, list):
        raise ValueError("closure JSON field 'generators' must be a list of words")
    return NormalClosureSpec(alphabet, raw_gens, policy_from_json(obj.get("strategy", "auto")))


def policy_from_json(obj):
    """Parse a strategy name or ``{"bounded-bfs": {"depth": .., "max_len": ..}}``."""
    if not isinstance(obj, dict):
        return MembershipPolicy(obj)
    (params,) = check_json_object(obj, "strategy", ("bounded-bfs",))
    check_json_object(params, "bounded-bfs", (), ("depth", "max_len"))
    return MembershipPolicy("bounded-bfs", **{f"bfs_{key}": value for key, value in params.items()})

