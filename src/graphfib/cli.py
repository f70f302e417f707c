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
encoder with sorted keys, listings are canonically ordered.  argparse writes
every usage, help and error message, and a plain command line is read from
the same declarations without running argparse.
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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
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
# entry point


def _label_count(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"label count must be a non-negative integer, got {text!r}"
        )
    return value


@functools.cache
def build_parser():
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls and returns a fresh namespace each time."""
    parser = argparse.ArgumentParser(prog="graphfib", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON file overriding default bounds")
    parser.add_argument("--seed", type=int, default=0, help="seed accepted for interface parity; commands are deterministic")
    parser.add_argument("--threads", type=int, default=1, help="accepted for interface parity; execution is single-threaded")
    parser.add_argument("--bigint", action="store_true", help="accepted for interface parity; integers are always arbitrary precision")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tensor", help="homomorphism-count tensor of a diagram into a graph")
    p.add_argument("graph")
    p.add_argument("diagram")
    p.add_argument(
        "--mode",
        choices=("hom", "inj"),
        default="hom",
        help="count all homomorphisms (hom) or injective ones only (inj)",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("verify", help="re-derive both sides of an identity over fixtures")
    p.add_argument("law", choices=("functor", "that", "moebius", "thpart"))
    p.add_argument("fixtures")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dim", help="morphism-space dimension for a group and a word closure")
    p.add_argument("group")
    p.add_argument("words")
    p.add_argument("k", type=_label_count)
    p.add_argument("l", type=_label_count)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("closure", help="list the fibres of a fibration")
    p.add_argument("fibration")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("orbits", help="label-pair orbits of a permutation group")
    p.add_argument("group")
    p.add_argument("k", type=_label_count)
    p.add_argument("l", type=_label_count)
    p.set_defaults(func=cmd_orbits)

    return parser


@functools.cache
def _plain_commands():
    """``build_parser``'s declarations as ``_plain_args`` reads them: for each
    subcommand, the namespace its bare name gives, its positionals in order
    and its long options by name.  A subcommand with any action other than a
    single-valued store (``-h`` aside) or with a required option is left out."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    top = {a.dest: a.default for a in parser._actions if a.default is not argparse.SUPPRESS}
    commands = {}
    for name, p in sub.choices.items():
        actions = [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
        plain = (type(a) is argparse._StoreAction and a.nargs is None for a in actions)
        if all(plain) and not any(a.required and a.option_strings for a in actions):
            values = {**top, "command": name, **{a.dest: a.default for a in actions}, **p._defaults}
            options = {s: a for a in actions for s in a.option_strings if s.startswith("--")}
            commands[name] = values, [a for a in actions if not a.option_strings], options
    return commands


def _plain_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, read from the
    parser's own actions when ``argv`` is plain: a subcommand, then its
    positionals in order and its own long options, each at most once as
    ``--opt value``, every value passing the action's ``type`` and
    ``choices``.  None for any other command line, which argparse then reads,
    so that argparse writes every usage, help and error message."""
    command = _plain_commands().get(argv[0]) if argv else None
    if command is None:
        return None
    values, positionals, options = command
    values, options = dict(values), dict(options)
    positionals, tokens = iter(positionals), iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):  # an option, given once, with a value that is no option
            action, token = options.pop(token, None), next(tokens, "-")
            if token.startswith("-"):
                return None
        else:
            action = next(positionals, None)
        if action is None:
            return None
        try:
            value = action.type(token) if action.type else token
        except (argparse.ArgumentTypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return None if next(positionals, None) else argparse.Namespace(**values)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        config = Config(_load_json(args.config) if args.config else {})
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
