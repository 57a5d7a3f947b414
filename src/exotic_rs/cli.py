"""Command-line interface.

Subcommands::

    insert <word> [--trace] [--json]           word -> pair
    bump --pair <file|-> [--trace]             pair -> word
    table <n> [--json]                         the full correspondence, grouped by shape
    cells <n>                                  words grouped by the shape insertion gives them
    count <n>                                  tableau counts per shape + the sum-of-squares identity
    verify <property> <n> [--json]             run one verifier and report
    render --pair <file|->                     pretty-print a pair

Exit codes: 0 success, 1 a verified property failed, 2 usage or parse errors
(including budget refusals); a closed output pipe ends ``main`` on SIGPIPE.
Data goes to stdout, diagnostics to stderr.
Words are space-separated signed integers ("-3 6 4 -7 2 -5 1", minus = bar);
pairs are JSON objects {"T": {"left": [...], "right": [...]}, "R": ...} with
rows stored wall-outward.
"""

from __future__ import annotations

import _signal  # the C module behind `signal`, loaded at start-up; `signal` builds three enums on import
import argparse
import math
import sys

from .bitableaux import Bitableau
from .correspondence import (
    CorrespondencePair,
    insertion,
    insertion_with_trace,
    reverse_bumping,
    reverse_bumping_with_trace,
)
from .partitions import Bipartition, count_bitableaux
from .signed_perm import _INTEGER, SignedPermutation, _text
from .verify import VERIFIERS, BudgetExceededError, _group_by_shape, _shapes, cells, run_verifier, verify_counting


def _size(text: str) -> int:
    """The argparse type of a size: an optional sign and ASCII digits, as in words."""
    if _INTEGER.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    return int(text)


def _json(x: Bitableau | Bipartition | tuple[int, ...]) -> str:
    """What ``json.dumps`` prints for ``x.to_json()``, or for a word's text, built on the list repr of ints."""
    if isinstance(x, Bitableau):
        return f'{{"left": {[*map(list, x.left)]}, "right": {[*map(list, x.right)]}}}'
    if isinstance(x, Bipartition):
        return f'{{"mu": {[*x.mu.parts]}, "nu": {[*x.nu.parts]}}}'
    return f'"{_text(x)}"'  # a word's text needs no escaping


def _read_pair(path: str) -> CorrespondencePair:
    import json  # here, not at import: only bump and render read JSON
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    try:
        obj = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as err:  # RecursionError: nested too deep
        raise ValueError(f"pair input is not valid JSON: {err}") from None
    return CorrespondencePair.from_json(obj)


def _render_pair(pair: CorrespondencePair) -> str:
    lines = ["T:"]
    if pair.T.size:
        lines.append(pair.T.render())
    lines.append("R:")
    if pair.R.size:
        lines.append(pair.R.render())
    return "\n".join(lines)


def cmd_insert(args: argparse.Namespace) -> int:
    word = SignedPermutation.from_text(args.word)
    pair, records = insertion_with_trace(word) if args.trace else (insertion(word), ())
    if args.json and args.trace:
        import json
        print(json.dumps({**pair.to_json(), "trace": [r.to_json() for r in records]}))
    elif args.json:
        print(f'{{"T": {_json(pair.T)}, "R": {_json(pair.R)}}}')
    else:
        if args.trace:
            for rec in records:
                hops = (f"{s.value}->{s.target!r}" + (f" displacing {s.displaced}" if s.displaced is not None else "") for s in rec.steps)
                print(f"letter {rec.letter}: {', '.join(hops)}")
        print(_render_pair(pair))
    return 0


def cmd_bump(args: argparse.Namespace) -> int:
    pair = _read_pair(args.pair)
    if args.trace:
        import json
        word, records = reverse_bumping_with_trace(pair)
        print(json.dumps({"word": word.to_text(), "trace": [r.to_json() for r in records]}))
    else:
        print(reverse_bumping(pair).to_text())
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    dumped: dict[int, str] = {}  # each tableau's JSON, rendered once; by identity, as the tableaux are the cached ones
    js = lambda t: dumped.get(id(t)) or dumped.setdefault(id(t), _json(t))
    if args.json:
        # Rows are kept as JSON text and written block by block, laid out as json.dumps would.
        row = lambda w, T, R: f'{{"word": {_json(w)}, "T": {js(T)}, "R": {js(R)}}}'
        blocks = _group_by_shape(args.n, row).items()
        sys.stdout.write("[")
        for i, (shape, rows) in enumerate(blocks):
            sys.stdout.write(f'{", " if i else ""}{{"shape": {_json(shape)}, "words": [{", ".join(rows)}]}}')
        print("]")
        return 0
    line = lambda w, T, R: f"{_text(w)}\t{js(T)}\t{js(R)}"
    for shape, lines in _group_by_shape(args.n, line).items():
        print(f"# {shape.to_text()}")
        print(*lines, sep="\n")
    return 0


def cmd_cells(args: argparse.Namespace) -> int:
    for shape, words in cells(args.n).items():
        print(f"{shape.to_text()} ({len(words)}):")
        for w in words:
            print(f"  {w.to_text()}")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    report = verify_counting(args.n)
    shapes = _shapes(args.n)
    total = 0
    for bp in shapes:
        c = count_bitableaux(bp)
        total += c * c
        print(f"{bp.to_text()} {c}")
    order = 2**args.n * math.factorial(args.n)
    print(f"shapes {len(shapes)}; sum of squares {total}; group order {order}; "
          f"{'OK' if report.ok else 'MISMATCH'}")
    return 0 if report.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verifier(args.property, args.n)
    if args.json:
        import json
        print(json.dumps(report.to_json()))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def cmd_render(args: argparse.Namespace) -> int:
    print(_render_pair(_read_pair(args.pair)))
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command; when ``command`` names one, the parser of that command alone."""
    pair = {"required": True, "help": "path to the pair JSON, or - for stdin"}
    size, flag = {"type": _size}, {"action": "store_true"}
    commands = {  # name: (help, handler, (flag or name, add_argument keywords)...)
        "insert": ("map a word to its pair of bitableaux", cmd_insert, (
            ("word", {"help": 'space-separated signed letters, e.g. "2 -1 3" ("" for n=0)'}),
            ("--trace", {**flag, "help": "include the bump-by-bump trace"}),
            ("--json", {**flag, "help": "emit the pair as JSON (default: pictures)"}),
        )),
        "bump": ("map a pair of bitableaux back to its word", cmd_bump, (
            ("--pair", pair), ("--trace", {**flag, "help": "emit JSON with the removal trace"}),
        )),
        "table": ("print the whole correspondence for size n", cmd_table, (("n", size), ("--json", flag))),
        "cells": ("group the words of size n by shape", cmd_cells, (("n", size),)),
        "count": ("standard-bitableau counts per shape of size n", cmd_count, (("n", size),)),
        "verify": ("run one verifier", cmd_verify, (
            ("property", {"help": " | ".join(VERIFIERS)}),
            ("n", size), ("--json", flag),
        )),
        "render": ("pretty-print a pair JSON file", cmd_render, (("--pair", pair),)),
    }
    narrowed = command in commands
    parser = argparse.ArgumentParser(prog="exotic-rs", description=__doc__.splitlines()[0])
    # Narrowed only: it keeps the usage line listing every command; in the full build it renames "argument command:".
    metavar = {"metavar": "{" + ",".join(commands) + "}"} if narrowed else {}
    sub = parser.add_subparsers(dest="command", required=True, **metavar)
    for name in [command] if narrowed else commands:
        help_text, handler, arguments = commands[name]
        p = sub.add_parser(name, help=help_text)
        for arg, keywords in arguments:
            p.add_argument(arg, **keywords)
        p.set_defaults(func=handler)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BudgetExceededError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> int:
    if hasattr(_signal, "SIGPIPE"):  # a closed pipe (`| head`) ends the process quietly
        _signal.signal(_signal.SIGPIPE, _signal.SIG_DFL)
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
