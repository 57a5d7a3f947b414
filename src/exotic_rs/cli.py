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

import argparse
import json
import math
import signal
import sys

from .correspondence import (
    CorrespondencePair,
    insertion,
    insertion_with_trace,
    reverse_bumping,
    reverse_bumping_with_trace,
)
from .partitions import count_bitableaux, enumerate_bipartitions
from .signed_perm import _INTEGER, SignedPermutation, _text
from .verify import BudgetExceededError, _group_by_shape, cells, run_verifier, verify_counting


def _size(text: str) -> int:
    """The argparse type of a size: an optional sign and ASCII digits, as in words."""
    if _INTEGER.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    return int(text)


def _read_pair(path: str) -> CorrespondencePair:
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
    if args.json:
        obj = pair.to_json()
        if args.trace:
            obj["trace"] = [r.to_json() for r in records]
        print(json.dumps(obj))
    else:
        if args.trace:
            for rec in records:
                hops = ", ".join(
                    f"{s.value}->{s.target!r}"
                    + (f" displacing {s.displaced}" if s.displaced is not None else "")
                    for s in rec.steps
                )
                print(f"letter {rec.letter}: {hops}")
        print(_render_pair(pair))
    return 0


def cmd_bump(args: argparse.Namespace) -> int:
    pair = _read_pair(args.pair)
    if args.trace:
        word, records = reverse_bumping_with_trace(pair)
        print(json.dumps({"word": word.to_text(), "trace": [r.to_json() for r in records]}))
    else:
        print(reverse_bumping(pair).to_text())
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.json:
        # Rows are kept as JSON text and written block by block, laid out as json.dumps would.
        row = lambda w, T, R: json.dumps({"word": _text(w), "T": T.to_json(), "R": R.to_json()})
        blocks = _group_by_shape(args.n, row).items()
        sys.stdout.write("[")
        for i, (shape, rows) in enumerate(blocks):
            sys.stdout.write(f'{", " if i else ""}{{"shape": {json.dumps(shape.to_json())}, "words": [{", ".join(rows)}]}}')
        print("]")
        return 0
    line = lambda w, T, R: f"{_text(w)}\t{json.dumps(T.to_json())}\t{json.dumps(R.to_json())}"
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
    shapes = enumerate_bipartitions(args.n)
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
        print(json.dumps(report.to_json()))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def cmd_render(args: argparse.Namespace) -> int:
    print(_render_pair(_read_pair(args.pair)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="exotic-rs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("insert", help="map a word to its pair of bitableaux")
    p.add_argument("word", help='space-separated signed letters, e.g. "2 -1 3" ("" for n=0)')
    p.add_argument("--trace", action="store_true", help="include the bump-by-bump trace")
    p.add_argument("--json", action="store_true", help="emit the pair as JSON (default: pictures)")
    p.set_defaults(func=cmd_insert)

    p = sub.add_parser("bump", help="map a pair of bitableaux back to its word")
    p.add_argument("--pair", required=True, help="path to the pair JSON, or - for stdin")
    p.add_argument("--trace", action="store_true", help="emit JSON with the removal trace")
    p.set_defaults(func=cmd_bump)

    p = sub.add_parser("table", help="print the whole correspondence for size n")
    p.add_argument("n", type=_size)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("cells", help="group the words of size n by shape")
    p.add_argument("n", type=_size)
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("count", help="standard-bitableau counts per shape of size n")
    p.add_argument("n", type=_size)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run one verifier")
    p.add_argument("property", help="golden | roundtrip | inverse | counting | transition | wtilde | embedding")
    p.add_argument("n", type=_size)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="pretty-print a pair JSON file")
    p.add_argument("--pair", required=True, help="path to the pair JSON, or - for stdin")
    p.set_defaults(func=cmd_render)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BudgetExceededError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> int:
    if hasattr(signal, "SIGPIPE"):  # a closed pipe (`| head`) ends the process quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
