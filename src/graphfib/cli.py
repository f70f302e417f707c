"""Command line interface.

Subcommands:

* ``tensor``: count a diagram's homomorphisms into a graph as a tensor.
* ``verify``: re-derive both sides of an identity over fixture files.
* ``dim``: morphism-space dimension for a permutation group and word closure.
* ``closure``: list the fibres of a fibration with their generator words.
* ``orbits``: label-pair orbits of a permutation group.

Exit codes: 0 success, 1 failed verification, 2 bad input, 3 capacity bound
hit or memory exhausted, 4 indeterminate membership, 5 broken internal
invariant (a bug).  All output is deterministic: JSON goes through one shared
encoder with sorted keys, listings are canonically ordered.  Every argument
is declared once, in one table (``_OPTIONS`` and ``_COMMANDS``): argparse is
built from it and writes every usage, help and error message, and a plain
command line is read from the same table without running argparse.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import CapacityError, IndeterminateError, InvariantError, check_json_object
from .fibrations import DEFAULT_MAX_VERTICES, closure_graphs, fibration_from_json
from .freeprod import closure_from_json
from .graphs import graph_from_json
from .diagrams import diagram_from_json
from .partitions import partition_from_json
from .repspaces import (
    DEFAULT_TUPLE_BOUND,
    dim_report,
    group_from_json,
    orbits,
    verify_THpart,
)
from .tensors import (
    build_T,
    build_That,
    moebius_expand,
    power_exceeds,
    tensor_from_json,
    tensor_to_csv,
    tensor_to_json,
    verify_functor,
    verify_that_sums,
)


class Config:
    """Bounds read by the subcommands: ``closure`` defaults a fibration's
    ``max_vertices``; ``tensor``, ``verify``, ``dim`` and ``orbits`` cap label
    tuples at ``tuple_bound``.  Membership strategies and their bounds belong
    to the word-closure and fibration JSON, not to the config."""

    __slots__ = ("max_vertices", "tuple_bound")

    DEFAULTS = {"max_vertices": DEFAULT_MAX_VERTICES, "tuple_bound": DEFAULT_TUPLE_BOUND}

    def __init__(self, overrides):
        check_json_object(overrides, "config", (), self.DEFAULTS)
        for key, default in self.DEFAULTS.items():
            value = overrides.get(key, default)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"config key {key!r} must be a positive integer")
            setattr(self, key, value)


def _load_json(path):
    with open(path, "rb", buffering=0) as fh:  # decoded below, its line ends turned as text mode turns them
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # bad syntax, or a byte that is not UTF-8
        raise ValueError(f"{path}: {exc}") from None


def _write(render, payload):
    """Write ``render(payload)`` to stdout with Python's limit on the digits of
    an integer turned into text lifted, since an exact answer may exceed it.
    JSON input keeps the limit, which spares the parser quadratic time."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        sys.stdout.write(render(payload))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# Every payload is built fresh for its command, so no container holds itself
# and the encoder's per-container cycle check would only cost time.
_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _print(payload):
    _write(lambda p: _ENCODER.encode(p) + "\n", payload)


# ---------------------------------------------------------------------------
# subcommands


def _check_tensor_size(n, legs, config):
    """Refuse a tensor of ``n^legs`` entries above the configured bound."""
    if power_exceeds(n, legs, config.tuple_bound):
        raise CapacityError(f"{n}^{legs} tensor entries exceed the bound {config.tuple_bound}")


def cmd_tensor(args, config):
    g = graph_from_json(_load_json(args.graph))
    d = diagram_from_json(_load_json(args.diagram))
    _check_tensor_size(g.n, d.k + d.l, config)
    t = build_That(g, d) if args.mode == "inj" else build_T(g, d)
    if args.format == "csv":
        _write(tensor_to_csv, t)
    else:
        _print(tensor_to_json(t))
    return 0


def _parse_check(law, check):
    """One fixture check read: the function giving its law reports, with the
    leg size and leg count of its largest tensor.  A ``functor`` or ``that``
    check's reports compare against the tensors frozen into it, keyed by side
    (``left``, ``right``)."""
    if law == "thpart":
        group, p = check_json_object(check, "fixture check", ("group", "partition"))
        group, p = group_from_json(group), partition_from_json(p)
        return lambda: [verify_THpart(group, p)], group.degree, p.k + p.l
    if law == "moebius":
        g, d = check_json_object(check, "fixture check", ("graph", "diagram"))
        g, d = graph_from_json(g), diagram_from_json(d)
        return lambda: [moebius_expand(g, d)], g.n, d.k + d.l
    g, d1, d2 = check_json_object(check, "fixture check", ("graph", "left", "right"), ("expect",))
    g, d1, d2 = graph_from_json(g), diagram_from_json(d1), diagram_from_json(d2)
    expect = check.get("expect", {})
    check_json_object(expect, "fixture 'expect'", (), ("left", "right"))
    frozen = {side: tensor_from_json(expect[side]) for side in sorted(expect)}
    verify = verify_functor if law == "functor" else verify_that_sums
    return lambda: verify(g, d1, d2, frozen), g.n, d1.k + d1.l + d2.k + d2.l


def cmd_verify(args, config):
    (checks,) = check_json_object(_load_json(args.fixtures), "fixtures", ("checks",))
    if not isinstance(checks, list):
        raise ValueError("fixtures JSON field 'checks' must be a list")
    parsed = [_parse_check(args.law, check) for check in checks]
    for _, n, legs in parsed:
        _check_tensor_size(n, legs, config)
    failures = []
    count = 0
    for idx, (reports, _, _) in enumerate(parsed):
        for rep in reports():
            count += 1
            if not rep["ok"]:
                failures.append({"check": idx, "law": rep["law"], "first_diff": rep["first_diff"]})
    _print({"law": args.law, "checks": count, "ok": not failures, "failures": failures})
    return 1 if failures else 0


def cmd_dim(args, config):
    group = group_from_json(_load_json(args.group))
    words = _load_json(args.words)
    closure = None if words is None else closure_from_json(words)
    report = dim_report(group, closure, args.k, args.l, tuple_bound=config.tuple_bound)
    _print(report)
    return 0


def cmd_closure(args, config):
    fib = fibration_from_json(_load_json(args.fibration), default_max_vertices=config.max_vertices)
    listing = [{"edges": edges, "fiber_generators": words, "n": n} for n, edges, words in closure_graphs(fib)]
    _print({"count": len(listing), "graphs": listing})
    return 0


def cmd_orbits(args, config):
    group = group_from_json(_load_json(args.group))
    orbs = orbits(group, args.k, args.l, tuple_bound=config.tuple_bound)  # checked against Burnside's count
    _print(
        {
            "k": args.k,
            "l": args.l,
            "count": len(orbs),
            "burnside": len(orbs),
            "orbits": [{"a": list(o.a), "b": list(o.b), "size": o.size} for o in orbs],
        }
    )
    return 0


# ---------------------------------------------------------------------------
# the command line, declared once


def _label_count(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"label count must be a non-negative integer, got {text!r}")
    return value


# Every argument is declared once, by its name and the keywords
# ``add_argument`` takes: ``build_parser`` adds them to argparse, and
# ``_plain_args`` reads plain command lines from them.  A subcommand is its
# function, help, positionals in order and options; each of its arguments
# takes one value, and every option names its default.
_OPTIONS = {
    "--config": {"default": None, "help": "JSON file overriding default bounds"},
    "--seed": {"type": int, "default": 0, "help": "seed accepted for interface parity; commands are deterministic"},
    "--threads": {"type": int, "default": 1, "help": "accepted for interface parity; execution is single-threaded"},
    "--bigint": {"action": "store_true", "default": False,
                 "help": "accepted for interface parity; integers are always arbitrary precision"},
}
_LABEL_COUNT = {"type": _label_count}
_COMMANDS = {
    "tensor": (cmd_tensor, "homomorphism-count tensor of a diagram into a graph", {"graph": {}, "diagram": {}}, {
        "--mode": {"choices": ("hom", "inj"), "default": "hom",
                   "help": "count all homomorphisms (hom) or injective ones only (inj)"},
        "--format": {"choices": ("json", "csv"), "default": "json"},
    }),
    "verify": (cmd_verify, "re-derive both sides of an identity over fixtures",
               {"law": {"choices": ("functor", "that", "moebius", "thpart")}, "fixtures": {}}, {}),
    "dim": (cmd_dim, "morphism-space dimension for a group and a word closure",
            {"group": {}, "words": {}, "k": _LABEL_COUNT, "l": _LABEL_COUNT}, {}),
    "closure": (cmd_closure, "list the fibres of a fibration", {"fibration": {}}, {}),
    "orbits": (cmd_orbits, "label-pair orbits of a permutation group",
               {"group": {}, "k": _LABEL_COUNT, "l": _LABEL_COUNT}, {}),
}
# The namespace each subcommand's bare name gives, which ``_plain_args`` copies.
_BARE = {
    name: {**{flag[2:]: kw["default"] for flag, kw in (*_OPTIONS.items(), *options.items())}, "command": name, "func": func}
    for name, (func, _, _, options) in _COMMANDS.items()
}


@functools.cache
def build_parser():
    """The argument parser, built once per process from the table: ``parse_args``
    keeps no state between calls and returns a fresh namespace each time."""
    parser = argparse.ArgumentParser(prog="graphfib", description=__doc__.splitlines()[0])
    for flag, keywords in _OPTIONS.items():
        parser.add_argument(flag, **keywords)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for arg, keywords in (*positionals.items(), *options.items()):
            p.add_argument(arg, **keywords)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, read from the
    table when ``argv`` is plain: a subcommand, then its positionals in order
    and its own options, each at most once as ``--opt value``, every value
    passing its ``type`` and ``choices``.  None for any other command line,
    which argparse then reads, so that it writes every message."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    args, options = argparse.Namespace(), dict(command[3])
    values, positionals, tokens = vars(args), iter(command[2].items()), iter(argv[1:])
    values.update(_BARE[argv[0]])
    for token in tokens:
        if token.startswith("-"):  # an option, given once, with a value that is no option
            dest, keywords, token = token[2:], options.pop(token, None), next(tokens, "-")
            if token.startswith("-"):
                return None
        else:
            dest, keywords = next(positionals, (None, None))
        if keywords is None:
            return None
        try:
            value = keywords["type"](token) if "type" in keywords else token
        except (argparse.ArgumentTypeError, ValueError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
    return None if next(positionals, None) else args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        config = Config({} if args.config is None else _load_json(args.config))
        if args.threads < 1:
            raise ValueError("--threads must be at least 1")
        return args.func(args, config)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # a bound set past what memory holds, as a large tuple_bound can be
        print("capacity: out of memory", file=sys.stderr)
        return 3
    except IndeterminateError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return 4
    except InvariantError as exc:
        print(f"internal invariant broken: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
