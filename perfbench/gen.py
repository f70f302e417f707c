"""Seeded input generator for the graphfib benchmark.

``make_tasks(workload, seed, size, workdir)`` writes the JSON inputs of one
workload into ``workdir`` and returns the fixed task list.  Each task is one
``graphfib`` command line.  The same (workload, seed, size) always gives the
same files and the same list; the program under test sees only the files.

Every workload is a fixed schedule of task slots.  A slot fixes the shape of
its inputs (graph, diagram, group, word pattern, label count); the seed
relabels vertices and points and draws label positions.  Answers change with
the seed, the work behind them hardly does, so a run measures the program and
not the draw.  ``size="smoke"`` keeps one small task per class.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations

WORKLOADS = ("hom", "closure", "dim")

# Largest host.n ** diagram.n for which the tensor oracle enumerates every
# vertex map.
BRUTE_FORCE_MAPS = 60000


# ---------------------------------------------------------------------------
# graphs as (n, sorted edge list)


def norm_edges(edges):
    return sorted({(u, v) if u <= v else (v, u) for u, v in edges})


def graph_json(n, edges):
    return {"n": n, "edges": [list(e) for e in norm_edges(edges)]}


def relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def path_edges(v):
    return [(i, i + 1) for i in range(v - 1)]


def cycle_edges(v):
    return [(i, (i + 1) % v) for i in range(v)]


def clique_edges(v):
    return list(combinations(range(v), 2))


# ---------------------------------------------------------------------------
# permutation groups


def compose_perm(s, t):
    return tuple(s[i] for i in t)


def close_group(degree, gens):
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = compose_perm(g, s)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return sorted(seen)


def symmetric_on(points, degree):
    """Generators of the symmetric group on ``points`` inside S_degree."""
    gens = []
    if len(points) >= 2:
        swap = list(range(degree))
        swap[points[0]], swap[points[1]] = swap[points[1]], swap[points[0]]
        gens.append(tuple(swap))
        cyc = list(range(degree))
        for i, p in enumerate(points):
            cyc[p] = points[(i + 1) % len(points)]
        gens.append(tuple(cyc))
    return gens


# One permutation per degree for ``cyclic`` groups, of order 4, 6, 4 and 12.
CYCLE_TYPES = {4: (1, 2, 3, 0), 5: (1, 2, 0, 4, 3), 6: (1, 2, 3, 0, 5, 4), 7: (1, 2, 0, 4, 5, 6, 3)}


def conjugate(g, perm):
    """The permutation ``perm g perm^-1``: g relabelled along perm."""
    out = [0] * len(g)
    for i, gi in enumerate(g):
        out[perm[i]] = perm[gi]
    return tuple(out)


def explicit_group(kind, degree, perm):
    """Elements of a small group on ``degree`` points, relabelled along perm.

    ``kind`` is ``dihedral``, ``cyclic`` or ``blocks`` (symmetric groups on
    two disjoint blocks of points).
    """
    if kind == "dihedral":
        gens = [tuple((i + 1) % degree for i in range(degree)), tuple((-i) % degree for i in range(degree))]
    elif kind == "cyclic":
        gens = [CYCLE_TYPES[degree]]
    else:
        cut = degree // 2
        gens = symmetric_on(list(range(cut)), degree) + symmetric_on(list(range(cut, degree)), degree)
    return close_group(degree, [conjugate(g, perm) for g in gens])


def symmetric_graph(name, n, perm):
    """A named graph on ``n`` vertices, relabelled along perm, whose
    automorphism group has order 8 to 144."""
    half = n // 2
    shapes = {
        "cycle": lambda: cycle_edges(n),
        "wheel": lambda: [(0, i) for i in range(1, n)] + [(i, i % (n - 1) + 1) for i in range(1, n)],
        "bipartite": lambda: [(i, j) for i in range(half) for j in range(half, n)],
        "prism": lambda: cycle_edges(half) + [(i + half, (i + 1) % half + half) for i in range(half)]
        + [(i, i + half) for i in range(half)],
        "triangles": lambda: [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        "matching": lambda: [(2 * i, 2 * i + 1) for i in range(half)],
    }
    return graph_json(n, [(perm[u], perm[v]) for u, v in shapes[name]()])


# ---------------------------------------------------------------------------
# words


def reduce_word(word):
    out = []
    for x in word:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def orbit_closure(rng, elements, base_words, strategy):
    """Closure JSON whose generators are the images of ``base_words`` under
    every group element, so the closure is invariant by construction."""
    degree = len(elements[0])
    gens = []
    for w in base_words:
        for s in elements:
            image = reduce_word(s[x] for x in w)
            if image and image not in gens:
                gens.append(image)
    rng.shuffle(gens)
    as_letters = rng.random() < 0.5
    return {
        "alphabet": degree,
        "generators": [[chr(97 + x) if as_letters else x for x in w] for w in gens],
        "strategy": strategy,
    }


# ---------------------------------------------------------------------------
# the task list


class TaskList:
    """Writes input files and collects the task list."""

    def __init__(self, workdir, size):
        self.workdir = workdir
        self.smoke = size == "smoke"
        self.tasks = []

    def file(self, name, obj):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def task(self, cls, argv, check):
        tid = f"{len(self.tasks):03d}-{cls}"
        self.tasks.append({"id": tid, "cls": cls, "argv": argv, "check": check})

    def slots(self, full, smoke):
        """The parameter grid of a class: ``full``, or ``smoke`` in smoke mode."""
        return smoke if self.smoke else full

    def name(self, suffix):
        return f"t{len(self.tasks):03d}-{suffix}.json"


# ``hom``: every host is a fixed graph (circulant, with loops on fixed
# vertices) relabelled by the seed, and every diagram a fixed shape whose
# label vertices the seed draws.  Homomorphism counts, and the partial maps
# the search visits, do not change under relabelling, so each task costs the
# same on every seed.
def circulant(n, offsets, loops=()):
    edges = {tuple(sorted((i, (i + o) % n))) for i in range(n) for o in offsets}
    return sorted(edges) + [(v, v) for v in loops]


def regular(n, d):
    """A d-regular circulant on n vertices (d odd needs n even)."""
    return circulant(n, tuple(range(1, d // 2 + 1)) + ((n // 2,) if d % 2 else ()))


# Trees as parent lists: vertex i > 0 hangs off an earlier vertex, so every
# prefix of the vertices is a subtree and a d-regular host has n * d**j
# partial maps at depth j.
TREES = {
    4: ((0, 1, 1), (0, 0, 0)),
    5: ((0, 1, 2, 3), (0, 1, 1, 3), (0, 0, 1, 1)),
    6: ((0, 1, 2, 3, 4), (0, 1, 1, 2, 2), (0, 0, 0, 1, 4)),
    7: ((0, 1, 2, 3, 4, 5), (0, 1, 2, 2, 4, 4), (0, 0, 1, 1, 2, 2)),
}
# (host vertices, host degree, tree vertices, labels).  The twelve largest
# trees sit together in cost, so the 90th percentile falls among equal-cost
# tasks.
TREE_SLOTS = (((8, 3, 5, 1), (9, 4, 5, 2), (8, 4, 5, 3), (8, 3, 6, 0), (8, 2, 7, 2), (9, 2, 7, 1))
              + ((9, 6, 5, 2), (9, 4, 6, 1), (8, 4, 6, 3), (8, 3, 7, 2)) * 2
              + ((9, 4, 7, 2), (8, 4, 7, 1), (9, 4, 7, 3), (8, 4, 7, 0)) * 3)
HEAVY_SLOTS = ((8, 5, 7, 2),) * 2
CYCLE_SLOTS = tuple((n, v, k) for n in range(6, 10) for v in range(4, 7) for k in (1, 3))
CLIQUE_SLOTS = tuple((n, v, k) for v in (3, 4) for n in range(6, 10) for k in (0, 2))
INJECTIVE_SLOTS = tuple((n, v, k) for n in (7, 8, 9) for v in (4, 5, 6) for k in (1, 2))
# Verify fixtures: (vertices, edges, inputs, outputs) of small diagrams.
SMALL = {
    "edge": (2, [(0, 1)], [0], [1]), "point": (1, [], [0], [0]), "path": (3, [(0, 1), (1, 2)], [0], [2]),
    "tri": (3, [(0, 1), (1, 2), (0, 2)], [0, 1], [2]), "loop": (2, [(0, 1), (1, 1)], [0], [1]),
    "pair": (2, [], [0], [1]), "cup": (2, [(0, 1)], [], [0, 1]), "fork": (3, [(0, 1), (0, 2)], [1, 2], [0]),
}
VERIFY_PAIRS = (("edge", "edge"), ("path", "point"), ("tri", "edge"), ("loop", "pair"), ("cup", "edge"),
                ("fork", "tri"), ("edge", "cup"), ("pair", "loop"), ("point", "path"), ("edge", "fork"),
                ("path", "loop"), ("tri", "cup"))
MOEBIUS_SHAPES = (("path", 3), ("tri", 3), ("fork", 3), ("square", 4), ("star", 4), ("path", 5), ("kite", 4),
                  ("cycle", 5), ("path", 4))


def _shape(name, v):
    return {"path": path_edges(v), "tri": clique_edges(3), "fork": [(0, 1), (0, 2)], "square": cycle_edges(4),
            "star": [(0, i) for i in range(1, v)], "kite": [(0, 1), (1, 2), (0, 2), (2, 3)],
            "cycle": cycle_edges(v)}[name]


def _hom(b, rng):
    def tensor_task(cls, n, hedges, v, dedges, labels, mode, fmt):
        k = labels // 2
        dg = {"graph": graph_json(v, dedges), "inputs": [rng.randrange(v) for _ in range(k)],
              "outputs": [rng.randrange(v) for _ in range(labels - k)]}
        g = b.file(b.name("host"), graph_json(n, relabel(rng, n, hedges)))
        d = b.file(b.name("diagram"), dg)
        oracle = "tensor" if n ** v <= BRUTE_FORCE_MAPS else "tensor-shape"
        b.task(cls, ["tensor", g, d, "--mode", mode, "--format", fmt], {"oracle": oracle, "mode": mode, "format": fmt})

    fmts = ("json", "csv")
    for i, (n, deg, v, labels) in enumerate(b.slots(TREE_SLOTS, [(5, 2, 4, 2)])):
        parents = TREES[v][i % len(TREES[v])]
        tensor_task("tree-regular", n, regular(n, deg), v, [(p, c + 1) for c, p in enumerate(parents)],
                    labels, "hom", fmts[i % 2])
    for n, deg, v, labels in b.slots(HEAVY_SLOTS, [(6, 3, 4, 2)]):
        tensor_task("path-heavy", n, regular(n, deg), v, path_edges(v), labels, "hom", "json")
    for i, (n, v, labels) in enumerate(b.slots(CYCLE_SLOTS, [(5, 4, 1)])):
        tensor_task("cycle", n, circulant(n, (1, 2), loops=(0,) * (i % 2)), v, cycle_edges(v), labels,
                    ("hom", "inj")[i % 2], fmts[i // 2 % 2])
    for i, (n, v, labels) in enumerate(b.slots(CLIQUE_SLOTS, [(5, 3, 2)])):
        dense = circulant(n, range(2, n // 2 + 1), loops=(0, 2)[: i % 3])
        tensor_task("clique", n, dense, v, clique_edges(v), labels, ("hom", "inj")[i % 2], fmts[i // 2 % 2])
    for i, (n, v, labels) in enumerate(b.slots(INJECTIVE_SLOTS, [(5, 4, 1)])):
        edges = path_edges(v) if i % 2 else [(p, c + 1) for c, p in enumerate(TREES[v][-1])]
        tensor_task("injective", n, circulant(n, (1, 3)), v, edges, labels, "inj", fmts[i % 2])

    def small(name):
        v, edges, inputs, outputs = SMALL[name]
        return {"graph": graph_json(v, edges), "inputs": inputs, "outputs": outputs}

    def host(n):
        return graph_json(n, relabel(rng, n, circulant(n, (1, 2), loops=(0,))))

    for law in ("functor", "that"):
        for i, (left, right) in enumerate(b.slots(VERIFY_PAIRS, VERIFY_PAIRS[:1])):
            checks = [{"graph": host(4 + (i + j) % 2), "left": small(left), "right": small(right)} for j in range(2)]
            b.task(f"verify-{law}", ["verify", law, b.file(b.name(law), {"checks": checks})], {"oracle": "verify"})
    for name, v in b.slots(MOEBIUS_SHAPES, MOEBIUS_SHAPES[:1]):
        dg = {"graph": graph_json(v, _shape(name, v)), "inputs": [0], "outputs": [v - 1]}
        checks = [{"graph": host(n), "diagram": dg} for n in (5, 6)]
        b.task("verify-moebius", ["verify", "moebius", b.file(b.name("moebius"), {"checks": checks})],
               {"oracle": "verify"})


# ``closure``: the slot grid fixes each generator graph and the vertices its
# boundary word visits.  The seed splits the word between inputs and outputs
# and relabels generators whose words are all racg-eligible.  Other words are
# decided with coset tables that tasks of one pass share through the
# coset-table cache; which tables a task finds there depends on the vertex
# names, so those generators keep theirs and cost the same on every seed.
GENERATOR_GRAPHS = {
    "K2": (2, [(0, 1)]), "E2": (2, []), "K2-loop": (2, [(0, 1), (0, 0)]), "E2-loop": (2, [(1, 1)]),
    "P3": (3, [(0, 1), (1, 2)]), "K3": (3, clique_edges(3)), "K2+K1": (3, [(0, 1)]),
    "P3-loop": (3, [(0, 1), (1, 2), (1, 1)]),
}
TWO = ("K2", "E2", "K2-loop", "E2-loop")
THREE = ("P3", "K3", "K2+K1", "P3-loop")
PAIRS = ((0, 1), (0, 2), (1, 2))
# Word shapes over the visited vertices: xyxy is racg-eligible, xy has a
# finite quotient on its letters, xyz (or (xy)^3) leads to coset tables
# that overflow on most fibres.
WORDS = {"racg": lambda p: p[:2] * 2, "finite": lambda p: p[:2], "infinite": lambda p: p if len(p) == 3 else p * 3}
# (class, easy, max_vertices, ((generator graph, word kind, visited vertices), ...))
# The fourteen K2-loop slots of the first line cost alike and rank just below
# the eleven slowest tasks, so the 90th percentile falls among equal-cost
# tasks.
CLOSURE_SLOTS = (
    [("skew-racg", False, 4, ((g, "racg", (0, 1)),)) for g in TWO] * 14
    + [("skew-racg", False, 4, ((g, "racg", p),)) for g in THREE for p in PAIRS] * 2
    + [("skew-finite", False, 4, ((g, "finite", (0, 1)),)) for g in TWO + THREE]
    + [("skew-infinite", False, 4, ((g, "infinite", p),)) for g in THREE for p in ((0, 1, 2), (1, 0, 2))]
    + [("skew-2gen", False, 4, ((a, "racg", (0, 1)), (c, "racg", (0, 1)))) for a in TWO[:2] for c in THREE[:2]]
    + [("easy", True, 4, ((g, "racg", (0, 1)),)) for g in ("E2", "E2-loop") * 4 + ("K2",)]
    + [("skew-mv5", False, 5, (("K3", "racg", (0, 1)),))] * 2
    + [("sparse-mv6", False, 6, (("E2", "racg", (0, 1)),)), ("sparse-mv6", True, 6, (("E2-loop", "racg", (0, 1)),))]
)
SMOKE_CLOSURE = (("skew-racg", False, 3, (("K2", "racg", (0, 1)),)),
                 ("skew-finite", False, 3, (("P3", "finite", (0, 1)),)))


def _closure(b, rng):
    for cls, easy, max_vertices, gens in b.slots(CLOSURE_SLOTS, SMOKE_CLOSURE):
        diagrams = []
        for name, kind, visited in gens:
            v, edges = GENERATOR_GRAPHS[name]
            perm = rng.sample(range(v), v) if all(k == "racg" for _, k, _ in gens) else list(range(v))
            word = [perm[x] for x in WORDS[kind](visited)]
            split = rng.randint(0, len(word) // 2)
            diagrams.append({"graph": graph_json(v, [(perm[x], perm[y]) for x, y in edges]),
                             "inputs": word[:split][::-1], "outputs": word[split:]})
        strategy = "auto"
        if any(kind != "racg" for _, kind, _ in gens):
            # auto falls back to bounded search here; keep that search small
            strategy = {"bounded-bfs": {"depth": 1, "max_len": 8}}
        obj = {"generators": diagrams, "easy": easy, "max_vertices": max_vertices, "strategy": strategy}
        b.task(cls, ["closure", b.file(b.name("fibration"), obj)], {"oracle": "closure", "max_vertices": max_vertices})


# ``dim``: groups, label counts and word shapes are fixed per slot.  The seed
# relabels each group along a random permutation, and the closure words with
# it, so orbit counts, verdicts and the work behind them are the same on
# every seed.
AUT_GRAPHS = (("cycle", 6), ("wheel", 6), ("bipartite", 6), ("prism", 6), ("triangles", 6), ("matching", 6),
              ("cycle", 7), ("wheel", 7), ("bipartite", 7), ("cycle", 8), ("wheel", 8), ("prism", 8))
ELEMENT_GROUPS = tuple((kind, d) for kind in ("dihedral", "cyclic", "blocks") for d in (5, 6, 7))
PARTITIONS = {2: ([[0], [1]], [[0, 1]]), 3: ([[0], [1], [2]], [[0, 1], [2]], [[0, 2], [1]], [[0, 1, 2]])}


def _group(rng, spec):
    """(group JSON, its elements, the relabelling) for a slot's group."""
    kind, arg = spec
    degree = arg if kind == "symmetric" else arg[1]
    perm = rng.sample(range(degree), degree)
    if kind == "symmetric":
        return {"symmetric": arg}, close_group(arg, symmetric_on(list(range(arg)), arg)), perm
    if kind == "elements":
        elements = explicit_group(arg[0], arg[1], perm)
        shuffled = [list(e) for e in elements]
        rng.shuffle(shuffled)
        return {"degree": degree, "elements": shuffled}, elements, perm
    g = symmetric_graph(arg[0], arg[1], perm)
    return {"automorphisms_of": g}, automorphisms_by_search(g), perm


def _dim_slots(smoke):
    """(what, group, k + l) per task."""
    if smoke:
        sym, aut, elem = ("symmetric", 4), ("automorphisms", ("cycle", 4)), ("elements", ("dihedral", 4))
        return ([("orbits", g, 2) for g in (sym, aut, elem)]
                + [(what, sym, 2) for what in ("dim-all", "dim-racg", "dim-finite", "thpart")])
    aut = [("automorphisms", a) for a in AUT_GRAPHS]
    elem = [("elements", e) for e in ELEMENT_GROUPS]
    sym = [("symmetric", 4), ("symmetric", 5)]
    slots = [("orbits", ("symmetric", n), m) for n in (4, 5) for m in (3, 4, 5)] * 2
    slots += [("orbits", g, m) for g, m in zip(aut, [2, 3] * 6)]
    slots += [("orbits", g, m) for g, m in zip(elem, [2, 3, 4] * 3)]
    slots += [("dim-all", g, m) for g, m in zip(sym * 2 + aut[:4] + elem[:4], (2, 2, 4, 3) + (2, 3) * 4)]
    for what in ("dim-racg", "dim-finite"):
        slots += [(what, g, m) for g, m in zip(sym * 2 + aut + elem, (2, 2, 4, 3) + (2, 3) * 11)]
    # larger label counts, where exact_rank dominates the task
    slots += [("dim-all", ("symmetric", 4), 5), ("dim-all", ("symmetric", 5), 4), ("dim-racg", ("symmetric", 5), 4)]
    slots += [("dim-all", g, 3) for g in aut[9:]]
    slots += [("thpart", g, m) for g, m in zip(sym + aut[1::3] + elem[1::3], (3, 2) + (2, 3) * 4)]
    slots += [("orbits", ("symmetric", 6), 3)]
    return slots


def _dim(b, rng):
    for i, (what, spec, m) in enumerate(_dim_slots(b.smoke)):
        cls = f"{what}-{spec[0]}"
        k = i % (m + 1)
        if what == "thpart":
            parts = PARTITIONS[m]
            checks = [{"group": _group(rng, spec)[0], "partition": {"k": k, "l": m - k, "blocks": parts[(i + j) % len(parts)]}}
                      for j in range(2)]
            b.task(cls, ["verify", "thpart", b.file(b.name("thpart"), {"checks": checks})], {"oracle": "verify"})
            continue
        obj, elements, perm = _group(rng, spec)
        gpath = b.file(b.name("group"), obj)
        check = {"oracle": "orbits" if what == "orbits" else "dim", "elements": elements}
        if what == "orbits":
            b.task(cls, ["orbits", gpath, str(k), str(m - k)], check)
            continue
        words = None
        if what != "dim-all":
            x, y, z, w = perm[:4]
            if what == "dim-racg":
                base = [(x, y, x, y)] + ([(z, w, z, w)] if i % 2 else [])
                strategy = ("auto", "racg")[i // 2 % 2]
            else:
                # letter identifications plus every commutator: the quotient
                # is a finite elementary abelian 2-group
                base = [(x, y)] + [(p, q, p, q) for p, q in combinations(range(len(perm)), 2)]
                strategy = ("auto", "finite-model")[i // 2 % 2]
            words = orbit_closure(rng, elements, base, strategy)
        wpath = b.file(b.name("words"), words)
        b.task(cls, ["dim", gpath, wpath, str(k), str(m - k)], check)


def automorphisms_by_search(gobj):
    """All automorphisms of a graph JSON by backtracking over vertex images."""
    n = gobj["n"]
    adj = {(u, v) for u, v in gobj["edges"]} | {(v, u) for u, v in gobj["edges"]}
    out = []
    image = []

    def extend(v):
        if v == n:
            out.append(tuple(image))
            return
        for c in range(n):
            if c in image:
                continue
            if ((v, v) in adj) != ((c, c) in adj):
                continue
            if all(((u, v) in adj) == ((image[u], c) in adj) for u in range(v)):
                image.append(c)
                extend(v + 1)
                image.pop()

    extend(0)
    return out


def make_tasks(workload, seed, size, workdir):
    """Write the inputs of one workload into ``workdir``; return its task list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    b = TaskList(workdir, size)
    {"hom": _hom, "closure": _closure, "dim": _dim}[workload](b, rng)
    return b.tasks
