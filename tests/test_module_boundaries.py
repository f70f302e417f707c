"""No graphfib module imports another module's private (underscore) names,
reads an underscore attribute it does not define itself, imports a name it
never uses, relies on ``assert``, which ``python -O`` strips, defines a
class inside a function, which makes a new class on every call, or catches
``KeyError`` or ``TypeError``, which would let a missing key or a bug pass
for bad input; every public function, class or method of a public class
has a reader in ``src/`` or a stated reason to stay, and then a reader in
the tests; every private one has a reader in its own module; every
``*_from_json`` reader is public and lives outside ``cli``; every
``:func:``, ``:meth:`` and ``:class:`` reference in a docstring or comment
names something that exists; and the tests' oracles in ``reference.py``
import public graphfib names only."""

import ast
import os
import re
from collections import Counter

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "graphfib")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def private_imports(source):
    """``(module, name)`` for each underscore name imported from graphfib."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "graphfib":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((module, alias.name))
    return found


def test_the_scan_sees_relative_and_absolute_imports():
    source = (
        "from .graphs import _cell_index, edgeless\n"
        "from graphfib.graphs import _cells\n"
        "from os import _exit\n"
    )
    assert private_imports(source) == [("graphs", "_cell_index"), ("graphfib.graphs", "_cells")]


@pytest.mark.parametrize("filename", MODULES)
def test_no_private_cross_module_imports(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        assert private_imports(fh.read()) == []


def test_the_test_oracles_import_public_names_only():
    with open(os.path.join(ROOT, "tests", "reference.py"), encoding="utf-8") as fh:
        assert private_imports(fh.read()) == []


# namedtuple's documented methods and attribute, underscored only to stay clear of field names
NAMEDTUPLE_API = {"_asdict", "_fields", "_make", "_replace"}


def foreign_private_reads(source):
    """``(line, name)`` for each underscore attribute that ``source`` reads
    and does not itself define, as a function, method or class, by assigning
    it, or in ``__slots__``: another module's or library's private internals.
    Dunder names and :data:`NAMEDTUPLE_API` are public."""
    tree = ast.parse(source)
    defined = set(NAMEDTUPLE_API)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            defined.add(node.attr)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in node.targets):
            defined.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "attr", "")
        dunder = name.startswith("__") and name.endswith("__")
        if is_attribute_read(node) and name.startswith("_") and not dunder and name not in defined:
            found.append((node.lineno, name))
    return sorted(found)


def test_the_scan_finds_private_attributes_defined_elsewhere():
    source = (
        "import argparse\n"
        "class Group:\n"
        "    __slots__ = ('_gens',)\n"
        "    def _close(self):\n"
        "        return self._gens, self._close, self.__class__\n"
        "def actions(parser, spec):\n"
        "    spec._seen = set()\n"
        "    return parser._actions, argparse._StoreAction, spec._seen, spec._asdict(), spec._fields\n"
        "def defaults(p):\n"
        "    return p.__dict__, p._defaults, p.__private\n"
    )
    assert foreign_private_reads(source) == [
        (8, "_StoreAction"),
        (8, "_actions"),
        (10, "__private"),
        (10, "_defaults"),
    ]


@pytest.mark.parametrize("filename", MODULES)
def test_no_private_attributes_read_from_elsewhere(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        assert foreign_private_reads(fh.read()) == []


def misplaced_readers(sources):
    """``(module, name)`` for each function in ``sources`` (module name to
    source text) named ``*_from_json`` that is private or defined in ``cli``:
    a JSON reader lives, public, in the module that owns what it reads."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and node.name.endswith("_from_json"):
                if node.name.startswith("_") or module == "cli":
                    found.append((module, node.name))
    return sorted(found)


def test_the_scan_finds_private_readers_and_readers_in_the_cli():
    sources = {
        "cli": "def _group_from_json(obj):\n    pass\ndef config_from_json(obj):\n    pass\n",
        "graphs": "def graph_from_json(obj):\n    pass\nclass Graph:\n    def _edges_from_json(self):\n        pass\n",
        "tensors": "def tensor_to_json(t):\n    pass\n",
    }
    assert misplaced_readers(sources) == [
        ("cli", "_group_from_json"),
        ("cli", "config_from_json"),
        ("graphs", "_edges_from_json"),
    ]


def test_every_json_reader_is_public_and_outside_the_cli():
    sources = {}
    for filename in MODULES:
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            sources[filename[:-3]] = fh.read()
    assert misplaced_readers(sources) == []


def assert_lines(source):
    """Line numbers of the ``assert`` statements in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_the_scan_finds_assert_statements():
    source = "def f(x):\n    assert x > 0, 'positive'\n    return x\nassert f(1)\n"
    assert assert_lines(source) == [2, 4]


@pytest.mark.parametrize("filename", MODULES)
def test_no_assert_statements(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        assert assert_lines(fh.read()) == []


def nested_classes(source):
    """Line numbers of the ``class`` statements in ``source`` that sit inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend(inner.lineno for inner in ast.walk(node) if isinstance(inner, ast.ClassDef))
    return sorted(set(found))


def test_the_scan_finds_classes_defined_in_functions():
    source = (
        "class Top:\n    class Inner:\n        pass\n"
        "    def method(self):\n        class InMethod(Exception):\n            pass\n"
        "def f():\n    def g():\n        class Deep:\n            pass\n"
        "    class Local:\n        pass\n"
        "async def h():\n    class InCoroutine:\n        pass\n"
    )
    assert nested_classes(source) == [5, 9, 11, 14]


@pytest.mark.parametrize("filename", MODULES)
def test_no_class_defined_in_a_function(filename):
    # a class statement in a function body makes a new class on every call
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        assert nested_classes(fh.read()) == []


def key_or_type_handlers(source):
    """Line numbers of the ``except`` clauses in ``source`` that name ``KeyError`` or ``TypeError``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(c, "id", getattr(c, "attr", None)) in ("KeyError", "TypeError") for c in caught):
                found.append(node.lineno)
    return sorted(found)


def test_the_scan_finds_key_and_type_error_handlers():
    source = (
        "try:\n    f()\nexcept KeyError as exc:\n    pass\n"
        "try:\n    g()\nexcept (ValueError, builtins.TypeError):\n    pass\n"
        "except OSError:\n    pass\n"
        "try:\n    h()\nexcept:\n    pass\n"
    )
    assert key_or_type_handlers(source) == [3, 7]


@pytest.mark.parametrize("filename", MODULES)
def test_no_key_or_type_error_handlers(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        assert key_or_type_handlers(fh.read()) == []


def unused_imports(source):
    """Names bound by an import in ``source`` and never read; ``__future__`` is skipped."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            bound.extend((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from .graphs import Graph, edgeless as empty, mask_of\n"
        "def f(n):\n"
        "    return empty(n), os.path.sep\n"
    )
    assert unused_imports(source) == ["system", "Graph", "mask_of"]


@pytest.mark.parametrize("filename", [f for f in MODULES if f != "__init__.py"])
def test_no_unused_imports(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def unread_public_names(sources):
    """``(module, name)`` for each public top-level function, class or
    UPPER_CASE constant in ``sources`` (module name to source text) that no
    module reads outside the name's own definition, under its own name or the
    alias it was imported as."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[module, node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.isupper() and not target.id.startswith("_"):
                        defined[module, target.id] = node
    read = set()
    for module, tree in trees.items():
        origin = {name: (m, name) for m, name in defined if m == module}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("graphfib.")):
                for alias in node.names:
                    origin[alias.asname or alias.name] = (node.module.split(".")[-1], alias.name)
        for statement in tree.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and node.id in origin and defined.get(origin[node.id]) is not statement:
                    read.add(origin[node.id])
    return sorted(set(defined) - read)


def test_the_scan_finds_public_names_nothing_reads():
    sources = {
        "graphs": (
            "def edgeless(n):\n    return n\n"
            "def path(n):\n    return path(n - 1)\n"
            "def _cells(n):\n    pass\n"
            "class Graph:\n    pass\n"
        ),
        "cli": (
            "from .graphs import edgeless as empty, Graph\n"
            "from graphfib.graphs import path\n"
            "def main():\n    return empty(1)\n"
        ),
    }
    assert unread_public_names(sources) == [("cli", "main"), ("graphs", "Graph"), ("graphs", "path")]


def test_the_scan_finds_constants_nothing_reads():
    sources = {
        "partitions": (
            "BOUND = 10\n"
            "BELL = [1, 1, 2]\n"
            "_CACHE = {}\n"
            "lower_Case = 1\n"
            "def blocks(n):\n    return n > BOUND\n"
        ),
        "cli": (
            "from .partitions import blocks\n"
            "LIMIT = 3\n"
            "def main():\n    return blocks(LIMIT)\n"
        ),
    }
    assert unread_public_names(sources) == [("cli", "main"), ("partitions", "BELL")]


def is_attribute_read(node):
    """Whether ``node`` reads an attribute (``x.name``, not ``x.name = ...``)."""
    return isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)


def unread_public_methods(sources):
    """``(module, "Class.method")`` for each public method of a public class
    in ``sources`` (module name to source text) whose name no module reads
    as an attribute outside the method's own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = Counter(node.attr for tree in trees.values() for node in ast.walk(tree) if is_attribute_read(node))
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for method in cls.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        own = sum(is_attribute_read(node) and node.attr == method.name for node in ast.walk(method))
                        if reads[method.name] == own:
                            unread.append((module, f"{cls.name}.{method.name}"))
    return sorted(unread)


def test_the_scan_finds_public_methods_nothing_reads():
    sources = {
        "graphs": (
            "class Graph:\n"
            "    def has_edge(self, u, v):\n        return self.has_edge(v, u)\n"
            "    def degree(self, v):\n        return v\n"
            "    def size(self):\n        self.order = 0\n"
            "    def order(self):\n        return self.degree(0)\n"
            "    def _cells(self):\n        pass\n"
            "class _Rows(dict):\n    def build(self):\n        pass\n"
        ),
        "cli": "def main(g):\n    return g.size()\n",
    }
    assert unread_public_methods(sources) == [("graphs", "Graph.has_edge"), ("graphs", "Graph.order")]


def unread_private_names(source):
    """Each private (underscore, not dunder) top-level function, class or
    constant in ``source`` that nothing in the module reads outside the
    name's own definition.  Other modules may not import it, so it is dead."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node
    defined = {name: node for name, node in defined.items() if name.startswith("_") and not name.startswith("__")}
    read = set()
    for statement in tree.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and node.id in defined and defined[node.id] is not statement:
                read.add(node.id)
    return sorted(set(defined) - read)


def test_the_scan_finds_private_names_their_module_never_reads():
    source = (
        "__version__ = '1'\n"
        "_BOUND = 3\n"
        "_CACHE = {}\n"
        "def _cells(n):\n    return _cells(n - 1)\n"
        "def _mask(images):\n    return images\n"
        "class _Rows(dict):\n    pass\n"
        "def rows(n):\n    return _Rows(), _mask(n) > _BOUND\n"
    )
    assert unread_private_names(source) == ["_CACHE", "_cells"]


@pytest.mark.parametrize("filename", MODULES)
def test_every_private_name_is_read_in_its_module(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        assert unread_private_names(fh.read()) == []


def tracer_names(source):
    """``(module, name)`` for each graphfib function or class that the benchmark
    tracer's source wraps (its ``TRACED`` table) or reads off a module."""
    modules = {f[:-3] for f in MODULES}
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            names.update((module, attr.split(".")[0]) for module, attr, _ in ast.literal_eval(node.value))
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            names.add((node.value.id, node.attr))
    return names


def test_the_tracer_scan_reads_the_table_and_module_attributes():
    source = (
        "TRACED = (('graphs', 'quotient', 'graphs.quotient'), ('repspaces', 'PermutationGroup.__init__', 'x'))\n"
        "def hook(modules, spec):\n"
        "    freeprod = modules['freeprod']\n"
        "    return freeprod.racg_eligible(spec.generators)\n"
    )
    assert tracer_names(source) == {
        ("graphs", "quotient"),
        ("repspaces", "PermutationGroup"),
        ("freeprod", "racg_eligible"),
    }


# Public names, and public methods as "Class.method", that nothing in src/
# reads and that stay, besides those the benchmark tracer binds or reads
# (perfbench/tracing.py).  Each computes something no other public name
# does, and its reason names the test that checks it against the paper.
KEPT = {
    ("diagrams", "m_diagram"): "constructor: the one-vertex diagrams, identity and duality pairs among them "
    "(test_diagrams.py::test_compose_identity, ::test_rotation_realizable_by_composition)",
    ("diagrams", "rotate_left"): "paper operation: rotation (test_diagrams.py::test_rotate_pair_partition)",
    ("diagrams", "rotate_right"): "paper operation: rotation, a composite with duality pairs "
    "(test_diagrams.py::test_rotation_realizable_by_composition)",
    ("fibrations", "diagram_member"): "paper operation: membership of a diagram in the category "
    "(test_fibrations.py::test_diagram_member)",
    ("fibrations", "fiber_member"): "paper operation: membership of a word in a fibre "
    "(test_acceptance.py::test_criterion_09_fibration_axioms)",
    ("fibrations", "fibration_from_group"): "paper operation: the fibration of a group of words "
    "(test_fibrations.py::test_from_group_commutator_closure)",
    ("graphs", "add_loops_everywhere"): "constructor (test_acceptance.py::test_criterion_09_fibration_axioms)",
    ("graphs", "complete"): "constructor (test_graphs.py::test_constructors)",
    ("graphs", "cycle"): "constructor (test_acceptance.py::test_criterion_03_moebius_expansion)",
    ("graphs", "disjoint_union"): "constructor: the glued union over no pairs, the tests' two-component hosts "
    "(test_graphs.py::test_constructors)",
    ("graphs", "path"): "constructor (test_graphs.py::test_constructors)",
    ("partitions", "enumerate_set_partitions"): "paper: the morphisms of the partition category, Bell many "
    "(test_partitions.py::test_two_line_enumeration_counts)",
    ("graphs", "Graph.has_edge"): "the brute-force oracles' edge test, in either order "
    "(test_graphs.py::test_automorphisms_are_the_edge_preserving_permutations_in_order)",
    ("tensors", "IntTensor.entry"): "one entry by its output and input label tuples, as the paper indexes "
    "(test_tensors.py::test_builders_match_a_brute_force_count_over_all_vertex_maps)",
}


def test_every_public_name_has_a_reader_or_a_reason():
    sources = {}
    for filename in MODULES:
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            sources[filename[:-3]] = fh.read()
    with open(os.path.join(ROOT, "perfbench", "tracing.py"), encoding="utf-8") as fh:
        traced = tracer_names(fh.read())
    unread = set(unread_public_names(sources)) | set(unread_public_methods(sources))
    assert sorted(unread - traced - set(KEPT)) == []
    assert sorted(set(KEPT) - unread) == []  # a kept name that gained a reader leaves the list


def names_the_tests_read(sources):
    """``(module, name)`` for each graphfib name that one of ``sources`` (test
    source texts) reads: under the name or alias it imported it as from
    ``graphfib.<module>``, or as an attribute of a module it imported from
    ``graphfib``.  An import alone is no read."""
    read = set()
    for text in sources:
        tree = ast.parse(text)
        origin, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "graphfib":
                for alias in node.names:
                    if node.module == "graphfib":
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        origin[alias.asname or alias.name] = (node.module.split(".")[-1], alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in origin:
                read.add(origin[node.id])
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                read.add((modules[node.value.id], node.attr))
    return read


def test_the_scan_finds_the_names_tests_read():
    sources = [
        "from graphfib.graphs import path, cycle as ring, complete\n"
        "from graphfib import fibrations\n"
        "def test_ring():\n    assert ring(3) and fibrations.diagram_member\n",
        "from graphfib.diagrams import m_diagram\n"
        "from os import path\n"
        "def test_join():\n    return path.join('a', 'b')\n",
    ]
    assert names_the_tests_read(sources) == {("graphs", "cycle"), ("fibrations", "diagram_member")}


def test_every_kept_name_is_read_by_a_test():
    tests = os.path.join(ROOT, "tests")
    sources = []
    for filename in sorted(os.listdir(tests)):
        if filename.endswith(".py"):
            with open(os.path.join(tests, filename), encoding="utf-8") as fh:
                sources.append(fh.read())
    attributes = {node.attr for text in sources for node in ast.walk(ast.parse(text)) if is_attribute_read(node)}
    methods = {(module, name) for module, name in KEPT if name.partition(".")[2] in attributes}
    assert sorted(set(KEPT) - names_the_tests_read(sources) - methods) == []


REFERENCE = re.compile(r":(?:func|meth|class):`([\w.]+)`")


def module_names(tree):
    """The names a module binds at its top level: definitions, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def stale_references(sources):
    """``(module, line, name)`` for each ``:func:``, ``:meth:`` or ``:class:``
    reference in ``sources`` (module name to source text) that names nothing:
    not a module-level name of its own module, not ``module.name`` for a
    module-level name of another, and not a method of a class it sits in."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    names = {module: module_names(tree) for module, tree in trees.items()}
    found = []
    for module, text in sources.items():
        classes = [node for node in ast.walk(trees[module]) if isinstance(node, ast.ClassDef)]
        for match in REFERENCE.finditer(text):
            line, name = text.count("\n", 0, match.start()) + 1, match.group(1)
            owner, _, attr = name.rpartition(".")
            methods = {
                node.name
                for cls in classes
                if cls.lineno <= line <= cls.end_lineno
                for node in cls.body
                if isinstance(node, ast.FunctionDef)
            }
            if name not in names[module] | methods and attr not in names.get(owner, ()):
                found.append((module, line, name))
    return sorted(found)


def test_the_scan_finds_references_to_names_that_do_not_exist():
    sources = {
        "repspaces": (
            "from .graphs import kernel\n"
            "class Group:\n"
            '    """Closed by :func:`_close`; see :meth:`generators`, not :meth:`_greedy`."""\n'
            "    def generators(self):\n"
            '        """Replayed by :func:`_close`, which has no :func:`order`."""\n'
            "def _close(degree):\n"
            '    """Reads :func:`kernel`, :func:`graphs.kernel`, :func:`graphs.cells`, :class:`Group`, :meth:`generators`."""\n'
        ),
        "graphs": "def kernel(g):\n    pass\n",
    }
    assert stale_references(sources) == [
        ("repspaces", 3, "_greedy"),
        ("repspaces", 5, "order"),
        ("repspaces", 7, "generators"),
        ("repspaces", 7, "graphs.cells"),
    ]


def test_every_docstring_reference_names_something_that_exists():
    sources = {}
    for filename in MODULES:
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            sources[filename[:-3]] = fh.read()
    assert stale_references(sources) == []
