"""Independent checks of task outputs, run after the timed phase.

Nothing here imports graphfib.  Each check takes a task (with the ``check``
record the generator attached), its exit code and its stdout text, and
returns an error string or None.
"""

from __future__ import annotations

import json
from itertools import product

from gen import close_group


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _tensor_entries(text, fmt):
    if fmt == "json":
        obj = json.loads(text)
        return obj["entries"], (obj["n"], obj["k"], obj["l"])
    return [int(x) for line in text.splitlines() for x in line.split(",")], None


def _brute_force_tensor(host, dg, injective):
    """Count every vertex map of the diagram graph into the host."""
    n, v = host["n"], dg["graph"]["n"]
    hedges = {tuple(e) for e in host["edges"]} | {(b, a) for a, b in host["edges"]}
    dedges = [tuple(e) for e in dg["graph"]["edges"]]
    ins, outs = dg["inputs"], dg["outputs"]
    ncols = n ** len(ins)
    entries = [0] * (n ** (len(ins) + len(outs)))
    for phi in product(range(n), repeat=v):
        if injective and len(set(phi)) != v:
            continue
        if all((phi[a], phi[b]) in hedges for a, b in dedges):
            col = row = 0
            for x in ins:
                col = col * n + phi[x]
            for x in outs:
                row = row * n + phi[x]
            entries[row * ncols + col] += 1
    return entries


def _regular_tree_total(host, dg):
    """n * d**(v-1) when the diagram is a tree and the host d-regular and
    loopless (every homomorphism then extends one edge at a time), else None."""
    n, v = host["n"], dg["graph"]["n"]
    edges = dg["graph"]["edges"]
    if len(edges) != v - 1 or any(a == b for a, b in edges + host["edges"]):
        return None
    parent = list(range(v))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    if len({find(x) for x in range(v)}) != 1:
        return None
    degree = [0] * n
    for a, b in host["edges"]:
        degree[a] += 1
        degree[b] += 1
    if len(set(degree)) != 1:
        return None
    return n * degree[0] ** (v - 1)


def check_tensor(task, text):
    chk = task["check"]
    host, dg = _load(task["argv"][1]), _load(task["argv"][2])
    entries, shape = _tensor_entries(text, chk["format"])
    n, k, l = host["n"], len(dg["inputs"]), len(dg["outputs"])
    if shape is not None and shape != (n, k, l):
        return f"shape {shape} != {(n, k, l)}"
    if len(entries) != n ** (k + l):
        return f"{len(entries)} entries, expected {n ** (k + l)}"
    injective = chk["mode"] == "inj"
    if chk["oracle"] == "tensor":
        want = _brute_force_tensor(host, dg, injective)
        if entries != want:
            bad = next(i for i, (x, y) in enumerate(zip(entries, want)) if x != y)
            return f"entry {bad}: program {entries[bad]}, brute force {want[bad]}"
        return None
    total = None if injective else _regular_tree_total(host, dg)
    if total is not None and sum(entries) != total:
        return f"entry sum {sum(entries)} != n*d^(v-1) = {total}"
    if min(entries) < 0:
        return "negative count"
    return None


def check_verify(task, text):
    obj = json.loads(text)
    if obj.get("ok") is not True or obj.get("failures"):
        return f"verification not ok: {obj.get('failures')}"
    return None


def _orbits_by_union_find(elements, k, l):
    """Orbits of the group on label tuples: components under a generating set."""
    degree = len(elements[0])
    gens, group = [], {tuple(range(degree))}
    for s in elements:
        if s not in group:
            gens.append(s)
            group = set(close_group(degree, gens))
    m = k + l
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    tuples = list(product(range(degree), repeat=m))
    for t in tuples:
        parent[t] = t
    for t in tuples:
        for s in gens:
            a, b = find(t), find(tuple(s[x] for x in t))
            if a != b:
                parent[max(a, b)] = min(a, b)
    sizes = {}
    for t in tuples:
        r = find(t)
        sizes[r] = sizes.get(r, 0) + 1
    # the root of each class is its least tuple, so sorting roots lists
    # orbits by least representative
    return [(list(r[:k]), list(r[k:]), sizes[r]) for r in sorted(sizes)]


def check_orbits(task, text):
    obj = json.loads(text)
    k, l = obj["k"], obj["l"]
    want = _orbits_by_union_find(task["check"]["elements"], k, l)
    have = [(o["a"], o["b"], o["size"]) for o in obj["orbits"]]
    if have != want:
        return f"orbits differ from union-find: {len(have)} listed, {len(want)} found"
    if obj["burnside"] != len(have):
        return f"burnside {obj['burnside']} != {len(have)} orbits"
    if task["argv"][0] == "orbits":
        if obj["count"] != len(have):
            return f"count {obj['count']} != {len(have)} orbits"
    elif obj["rank"] != obj["dim"] or obj["dim"] != sum(o["accepted"] for o in obj["orbits"]):
        return f"rank {obj['rank']} / dim {obj['dim']} disagree with the accepted orbits"
    return None


def check_closure(task, text):
    obj = json.loads(text)
    sizes = [g["n"] for g in obj["graphs"]]
    if obj["count"] != len(sizes):
        return f"count {obj['count']} != {len(sizes)} listed"
    if sizes != sorted(sizes) or (sizes and sizes[-1] > task["check"]["max_vertices"]):
        return "listing out of order or above max_vertices"
    return None


def _degrees(graph):
    """Sorted degree sequence, a loop counting two."""
    degree = [0] * graph["n"]
    for a, b in graph["edges"]:
        degree[a] += 1
        degree[b] += 1
    return sorted(degree)


def invariant(task, code, text):
    """A figure of the answer that the seed does not change.

    The seed only relabels vertices and points and moves labels, so a
    tensor's entry sum (all homomorphisms), an orbit count or dimension, and
    the isomorphism invariants of each closure fibre stay the same on every
    seed.  ``expected.json`` records these figures from the default seed and
    every seed is checked against them.
    """
    if code != 0:
        return [code]
    oracle = task["check"]["oracle"]
    if oracle in ("tensor", "tensor-shape"):
        return [code, sum(_tensor_entries(text, task["check"]["format"])[0])]
    obj = json.loads(text)
    if oracle == "verify":
        return [code, obj.get("ok")]
    if oracle == "orbits":
        return [code, obj["count"], obj["burnside"]]
    if oracle == "dim":
        return [code, obj["dim"], obj["rank"], len(obj["orbits"])]
    fibres = sorted([g["n"], len(g["edges"]), sum(a == b for a, b in g["edges"]), _degrees(g),
                     len(g["fiber_generators"])] for g in obj["graphs"])
    return [code, obj["count"], fibres]


CHECKS = {
    "tensor": check_tensor,
    "tensor-shape": check_tensor,
    "verify": check_verify,
    "orbits": check_orbits,
    "dim": check_orbits,
    "closure": check_closure,
}


def check(task, code, text):
    """None when the output passes, else why it does not.

    Exit codes 3 (capacity) and 4 (indeterminate) are answers, so only exit 0
    outputs are checked against the oracles.
    """
    if code in (3, 4):
        return None
    if code != 0:
        return f"exit {code}"
    try:
        return CHECKS[task["check"]["oracle"]](task, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
