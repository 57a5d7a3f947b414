#!/usr/bin/env python3
"""Sweep every verifier across its full default budget and print a report.

This is the long-form version of ``exotic-rs verify``: one line per
(property, size) combination, a final tally, and exit code 1 if anything
failed (2 for a malformed EXOTIC_RS_MAX_N).  Each property is checked at
n = 0, 1, 2, ... up to the largest size its verifier accepts (golden only at
n = 3).  With --json each line is instead a JSON object: one per (property,
size) with its property, n, checked, failures (a count) and elapsed_s, then
the totals (properties, checked, failures, elapsed_s).  Sizes beyond the
built-in budgets can be unlocked with --max-n (which sets EXOTIC_RS_MAX_N).

Usage::

    python scripts/run_checks.py                 # everything, default budgets
    python scripts/run_checks.py -p roundtrip -p transition
    python scripts/run_checks.py --max-n 7       # spend more time, check more
    python scripts/run_checks.py --json          # machine-readable, one object a line
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

from exotic_rs import VERIFIERS, BudgetExceededError, run_verifier
from exotic_rs.cli import _size
from exotic_rs.verify import _limit


def _max_n(text: str) -> int:
    """The argparse type of --max-n: a size as the CLI reads one, and not negative."""
    if (n := _size(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-p",
        "--properties",
        action="append",
        choices=sorted(VERIFIERS),
        help="restrict to these properties (repeatable; default: all)",
    )
    parser.add_argument("--max-n", type=_max_n, help="raise every budget-limited sweep to this size")
    parser.add_argument("--json", action="store_true", help="print one JSON object per line")
    args = parser.parse_args()

    if args.max_n is not None:
        os.environ["EXOTIC_RS_MAX_N"] = str(args.max_n)
    try:
        _limit(0)  # a malformed EXOTIC_RS_MAX_N stops the run before any property prints
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    properties = list(dict.fromkeys(args.properties or sorted(VERIFIERS)))  # a repeated -p runs once
    failures = 0
    checks = 0
    started = time.perf_counter()
    for prop in properties:
        # A verifier refuses a size beyond its budget before doing any work.
        for n in [3] if prop == "golden" else itertools.count():
            t0 = time.perf_counter()
            try:
                report = run_verifier(prop, n)
            except BudgetExceededError:
                break
            dt = time.perf_counter() - t0
            if args.json:
                print(json.dumps({"property": prop, "n": n, "checked": report.checked,
                                  "failures": len(report.failures), "elapsed_s": dt}))
            else:
                print(f"{report.summary()}  [{dt:.2f}s]")
            checks += report.checked
            failures += len(report.failures)
    total = time.perf_counter() - started
    if args.json:
        print(json.dumps({"properties": len(properties), "checked": checks, "failures": failures, "elapsed_s": total}))
    else:
        status = "all OK" if failures == 0 else f"{failures} FAILURES"
        print(f"-- {checks} checks across {len(properties)} properties in {total:.1f}s: {status}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
