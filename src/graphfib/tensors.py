"""Exact integer tensors counted from graph homomorphisms.

A tensor with ``k`` input and ``l`` output legs of size ``n`` keeps its
``n^(k+l)`` entries in one flat list.  The layout is stated here once: the
flat index of a label assignment is the base-``n`` number whose digits are
the images of the output labels, then of the input labels.  So the list is
``n^l`` rows of ``n^k`` columns (:func:`_rows`), a row for each output
multi-index.

``build_T(g, d)`` counts all homomorphisms of the diagram ``d`` into ``g``,
bucketed by where the labels land: entry ``(j, i)`` counts maps sending the
inputs to the multi-index ``i`` and the outputs to ``j``.  ``build_That``
counts injective maps only.

Neither lists the homomorphisms: ``graphs.count_homomorphisms`` adds each
map's weight into the entries from inside its search.  For ``build_T`` it
first sums out each unlabelled vertex with at most two neighbours into a
weight vector or a sparse table on its neighbours (the functor law
``T(d1 o d2) = T(d1) T(d2)`` applied inside one diagram), so a path
labelled at both ends costs one table of at most ``n^2`` entries per inner
vertex and the ``n^2`` pairs of end images, however many walks it counts.
``tally`` counts the maps the other builders list (group elements,
partition value tuples), one per map at the index of its label images.

The verifiers in this module recompute both sides of an identity from
scratch and report the first differing entry, if any.
"""

from __future__ import annotations

from .diagrams import (
    BilabelledGraph,
    bl_f_compose,
    bl_f_union,
    compose as compose_diagrams,
    involution,
    required_composition_pairs,
    tensor as tensor_diagrams,
)
from .errors import check_json_object
from .graphs import count_homomorphisms, enumerate_overlaps, quotient
from .partitions import enumerate_partitions, kernel_tuples


class IntTensor:
    """A dense integer tensor with ``k`` input and ``l`` output legs of size ``n``.

    Entries are plain Python integers in a flat list, laid out as the
    module docstring states.
    """

    __slots__ = ("n", "k", "l", "entries")

    def __init__(self, n, k, l, entries):
        entries = list(entries)
        if power_exceeds(n, k + l, len(entries)) or n ** (k + l) != len(entries):
            raise ValueError(f"expected {n}^{k + l} entries, got {len(entries)}")
        self.n = n
        self.k = k
        self.l = l
        self.entries = entries

    def shape(self):
        return (self.n, self.k, self.l)

    def entry(self, outputs, inputs):
        if len(outputs) != self.l or len(inputs) != self.k:
            raise ValueError("multi-index lengths must match the tensor legs")
        idx = 0
        for x in (*outputs, *inputs):
            idx = idx * self.n + x
        return self.entries[idx]

    def __eq__(self, other):
        return (
            isinstance(other, IntTensor)
            and self.shape() == other.shape()
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"IntTensor(n={self.n}, k={self.k}, l={self.l})"


def power_exceeds(n, e, bound):
    """Whether ``n ** e > bound``, for ``n, e >= 0``.

    Multiplies one factor at a time and stops once the product passes
    ``bound``, so an exponent read from JSON never builds a huge integer.
    """
    if n < 2:
        return n**e > bound
    value = 1
    for _ in range(e):
        value *= n
        if value > bound:
            return True
    return False


def zero_tensor(n, k, l):
    return IntTensor(n, k, l, [0] * (n ** (k + l)))


def _rows(t):
    """The ``n^l`` rows of ``n^k`` entries of ``t``, one per output multi-index."""
    cols, entries = t.n**t.k, t.entries
    return [entries[r * cols : (r + 1) * cols] for r in range(t.n**t.l)]


# ---------------------------------------------------------------------------
# linear operations


def tensor_product(a, b):
    """Kronecker product: a row of ``a`` then a row of ``b`` make a row, and so do columns."""
    if a.n != b.n:
        raise ValueError("tensor factors must share the leg size")
    rows_b = _rows(b)
    entries = []
    for row_a in _rows(a):
        for row_b in rows_b:
            entries += [x * y for x in row_a for y in row_b]
    return IntTensor(a.n, a.k + b.k, a.l + b.l, entries)


def compose(a, b):
    """Matrix product ``a . b``; the inputs of ``a`` consume the outputs of ``b``."""
    if a.n != b.n:
        raise ValueError("composed tensors must share the leg size")
    if a.k != b.l:
        raise ValueError(f"arity mismatch: {a.k} inputs composed with {b.l} outputs")
    rows_b, cols = _rows(b), range(a.n**b.k)
    entries = []
    for row_a in _rows(a):
        row = [0] * len(cols)
        for x, row_b in zip(row_a, rows_b):
            if x:
                for c in cols:
                    if row_b[c]:
                        row[c] += x * row_b[c]
        entries += row
    return IntTensor(a.n, b.k, a.l, entries)


def adjoint(a):
    """Transpose: the columns of ``a`` are the rows of its adjoint."""
    entries = []
    for col in zip(*_rows(a)):
        entries += col
    return IntTensor(a.n, a.l, a.k, entries)


def tensor_add(a, b):
    if a.shape() != b.shape():
        raise ValueError("tensor sum needs equal shapes")
    return IntTensor(a.n, a.k, a.l, [x + y for x, y in zip(a.entries, b.entries)])


def tensor_scale(a, c):
    return IntTensor(a.n, a.k, a.l, [c * x for x in a.entries])


def compare_tensors(a, b):
    """First differing entry of two equal-shaped tensors, or None."""
    if a.shape() != b.shape():
        raise ValueError("compared tensors must have equal shapes")
    if a.entries == b.entries:  # one comparison in C; the loop below only finds the first difference
        return None
    for idx, (x, y) in enumerate(zip(a.entries, b.entries)):
        if x != y:
            digits = []  # the flat index in base n: outputs' images, then inputs'
            for _ in range(a.l + a.k):
                idx, digit = divmod(idx, a.n)
                digits.insert(0, digit)
            return {"row": digits[: a.l], "col": digits[a.l :], "lhs": x, "rhs": y}


def exact_rank(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return 0
    m, ncols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, m) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pivot_row = mat[r]
        pval = pivot_row[col]
        for i in range(r + 1, m):
            row_i = mat[i]
            factor = row_i[col]
            for c in range(col + 1, ncols):
                row_i[c] = (pval * row_i[c] - factor * pivot_row[c]) // prev
            row_i[col] = 0
        prev = pval
        rank += 1
        r += 1
        if r == m:
            break
    return rank


# ---------------------------------------------------------------------------
# builders


def tally(t, maps, inputs, outputs):
    """Add one to ``t`` at ``(phi(outputs), phi(inputs))`` for each map ``phi``; return ``t``.

    A map is any sequence indexed by the label points, such as a group
    element or a partition's value tuple.
    """
    n, entries, labels = t.n, t.entries, (*outputs, *inputs)
    for phi in maps:
        idx = 0
        for v in labels:
            idx = idx * n + phi[v]
        entries[idx] += 1
    return t


def build_T(g, d):
    """Homomorphism counts of a diagram into ``g``, bucketed by label images."""
    t = zero_tensor(g.n, d.k, d.l)
    count_homomorphisms(d.graph, g, t.entries, (*d.outputs, *d.inputs))
    return t


def _that_sum(g, k, l, diagrams):
    """Sum of the injective-count tensors of ``diagrams``; one with more vertices than ``g`` adds zero."""
    t = zero_tensor(g.n, k, l)
    for d in diagrams:
        if d.graph.n <= g.n:
            count_homomorphisms(d.graph, g, t.entries, (*d.outputs, *d.inputs), injective=True)
    return t


def build_That(g, d):
    """Injective homomorphism counts; zero outright when ``d`` has too many vertices."""
    return _that_sum(g, d.k, d.l, [d])


def build_partition_That(n, p):
    """0/1 tensor that is 1 exactly when the value pattern *equals* the
    partition ``p``; zero if ``p`` owns an unlabelled vertex, whose images
    :func:`build_That` would count."""
    return tally(zero_tensor(n, p.k, p.l), kernel_tuples(n, p), range(p.k), range(p.k, p.k + p.l))


# ---------------------------------------------------------------------------
# identity verifiers


def law_report(law, lhs, rhs):
    """The report of one identity: its name, whether both sides agree, and the first difference."""
    diff = compare_tensors(lhs, rhs)
    return {"law": law, "ok": diff is None, "first_diff": diff}


def _frozen_reports(frozen, left, right):
    """Regression comparisons of the two side tensors against the tensors
    ``frozen`` keyed by side, ``left`` or ``right``."""
    sides = {"left": left, "right": right}
    return [law_report(f"frozen-{side}", sides[side], frozen[side]) for side in sorted(frozen or {})]


def verify_functor(g, d1, d2, frozen=None):
    """Counting is functorial: check it on a concrete pair of diagrams.

    Covers the tensor law, the composition law when arities allow, and the
    adjoint law for both diagrams.  Given ``frozen``, tensors keyed by
    side, the reports open with ``T(d1)`` and ``T(d2)`` compared with them.
    """
    t1, t2 = build_T(g, d1), build_T(g, d2)
    reports = _frozen_reports(frozen, t1, t2)
    reports.append(law_report("tensor", build_T(g, tensor_diagrams(d1, d2)), tensor_product(t1, t2)))
    if d2.l == d1.k:
        reports.append(law_report("compose", build_T(g, compose_diagrams(d1, d2)), compose(t1, t2)))
    for name, d, t in (("adjoint-left", d1, t1), ("adjoint-right", d2, t2)):
        reports.append(law_report(name, build_T(g, involution(d)), adjoint(t)))
    return reports


def verify_that_sums(g, d1, d2, frozen=None):
    """Injective counts expand over glued unions: check both sum rules.

    The product of two injective-count tensors is the sum over all overlaps
    of the glued union's tensor; composition sums over overlaps extending the
    forced boundary pairs, and is identically zero when the boundary kernels
    disagree.  An overlap that glues a diagram with more vertices than
    ``g``, whose term is zero, is dropped before it is glued.  Given
    ``frozen``, tensors keyed by side, the reports open with ``That(d1)``
    and ``That(d2)`` compared with them.
    """
    t1, t2 = build_That(g, d1), build_That(g, d2)
    reports = _frozen_reports(frozen, t1, t2)
    lhs = tensor_product(t1, t2)
    fits = d1.graph.n + d2.graph.n - g.n  # the fewest overlap pairs that glue a diagram no larger than g
    unions = (bl_f_union(d1, d2, f) for f in enumerate_overlaps(d1.graph.n, d2.graph.n) if len(f) >= fits)
    reports.append(law_report("union-sum", lhs, _that_sum(g, d1.k + d2.k, d1.l + d2.l, unions)))

    if d2.l == d1.k:
        lhs = compose(t1, t2)
        try:
            forced = set(required_composition_pairs(d1, d2))
        except ValueError:
            reports.append(law_report("compose-zero", lhs, zero_tensor(g.n, d2.k, d1.l)))
        else:
            composites = (
                bl_f_compose(d1, d2, f)
                for f in enumerate_overlaps(d2.graph.n, d1.graph.n)
                if len(f) >= fits and forced <= set(f)
            )
            reports.append(law_report("compose-sum", lhs, _that_sum(g, d2.k, d1.l, composites)))

    for name, d, t in (("adjoint-left", d1, t1), ("adjoint-right", d2, t2)):
        reports.append(law_report(name, build_That(g, involution(d)), adjoint(t)))
    return reports


def moebius_expand(g, d):
    """All counts equal the sum of injective counts over vertex merges.

    The two sides come from different algorithms: the left sums out
    vertices (``build_T``), the right counts the injective maps of every
    merge with nothing summed out.
    """
    merged = (
        BilabelledGraph(quotient(d.graph, b), [b[v] for v in d.inputs], [b[v] for v in d.outputs])
        for b in enumerate_partitions(d.graph.n)
    )
    return law_report("moebius", build_T(g, d), _that_sum(g, d.k, d.l, merged))


# ---------------------------------------------------------------------------
# serialization


def tensor_to_json(t):
    return {"n": t.n, "k": t.k, "l": t.l, "entries": list(t.entries)}


def tensor_from_json(obj):
    n, k, l, entries = check_json_object(obj, "tensor", ("n", "k", "l", "entries"))
    if not all(type(x) is int and x >= 0 for x in (n, k, l)):
        raise ValueError("tensor JSON fields 'n', 'k' and 'l' must be non-negative integers")
    if not isinstance(entries, list) or not all(type(e) is int for e in entries):
        raise ValueError("tensor JSON entries must be a list of integers")
    return IntTensor(n, k, l, entries)


def tensor_to_csv(t):
    """One line per row (output multi-index), its entries comma separated."""
    return "\n".join(",".join(str(x) for x in row) for row in _rows(t)) + "\n"
