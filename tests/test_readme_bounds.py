"""Every module-level ``*_BOUND`` constant in ``src/graphfib/`` is named in
README.md as `` `NAME` = value ``, with the value the code holds.  A
``DEFAULT_`` constant may instead be stated as the documented default of its
config key, `` `key` (config, default value) ``."""

import ast
import importlib
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "graphfib")
VALUE = r"(\d[\d,]*(?:\^\d+)?(?: \* \d[\d,]*(?:\^\d+)?)*)"


def bound_constants():
    """``(module, name)`` for each module-level assignment to a ``*_BOUND`` name."""
    found = []
    for filename in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                found += [(filename[:-3], t.id) for t in node.targets if isinstance(t, ast.Name) and t.id.endswith("_BOUND")]
    return found


def readme_value(text):
    """The integer a README value such as ``2 * 10^6``, ``20,000`` or ``2^28`` reads."""
    product = 1
    for factor in text.split(" * "):
        base, _, exponent = factor.replace(",", "").partition("^")
        product *= int(base) ** int(exponent or 1)
    return product


def documented_values(readme, name):
    """Every value README.md states for the constant ``name``."""
    values = re.findall(rf"`{name}` = {VALUE}", readme)
    if name.startswith("DEFAULT_"):
        key = name[len("DEFAULT_"):].lower()
        values += re.findall(rf"`{key}` \(config, default {VALUE}\)", readme)
    return [readme_value(v) for v in values]


def test_the_scan_reads_the_value_forms_of_the_readme():
    assert [readme_value(v) for v in ("10^6", "2 * 10^6", "20,000", "2^28", "64")] == [10**6, 2 * 10**6, 20000, 1 << 28, 64]
    readme = "| `A_BOUND` = 2 * 10^7 slots | `tuple_bound` (config, default 10^6) | `A_BOUND` = 3 |"
    assert documented_values(readme, "A_BOUND") == [2 * 10**7, 3]
    assert documented_values(readme, "DEFAULT_TUPLE_BOUND") == [10**6]
    assert documented_values(readme, "B_BOUND") == []


def test_the_scan_finds_every_bound_constant():
    found = bound_constants()
    assert ("graphs", "GRAPH_VERTEX_BOUND") in found and ("repspaces", "DEFAULT_TUPLE_BOUND") in found
    assert len(found) == len(set(found))


@pytest.mark.parametrize("module, name", bound_constants())
def test_the_readme_states_each_bound_as_the_code_holds_it(module, name):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        values = documented_values(fh.read(), name)
    assert values, f"README.md never states `{name}` = value"
    assert set(values) == {getattr(importlib.import_module(f"graphfib.{module}"), name)}
