#!/usr/bin/env python3
"""Sweep every verifier across its full default budget and print a report.

This is the long-form version of ``exotic-rs verify``: one line per
(property, size) combination, a final tally, and exit code 1 if anything
failed.  Each property is checked at n = 0, 1, 2, ... up to the largest size
its verifier accepts (golden only at n = 3), which EXOTIC_RS_MAX_N raises;
every verifier refuses a malformed or negative value first, so the script
then exits 2 with nothing printed.  With --json each line is a JSON object:
one per (property, size) with its property, n, checked, failures (a count)
and elapsed_s, then the totals (properties, checked, failures, elapsed_s).

Usage::

    python scripts/run_checks.py                     # everything, default budgets
    python scripts/run_checks.py -p roundtrip -p transition
    EXOTIC_RS_MAX_N=7 python scripts/run_checks.py   # spend more time, check more
    python scripts/run_checks.py --json              # machine-readable, one object a line
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

from exotic_rs import VERIFIERS, BudgetExceededError, run_verifier


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-p",
        "--properties",
        action="append",
        choices=sorted(VERIFIERS),
        help="restrict to these properties (repeatable; default: all)",
    )
    parser.add_argument("--json", action="store_true", help="print one JSON object per line")
    args = parser.parse_args()

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
            except ValueError as err:  # a malformed or negative EXOTIC_RS_MAX_N: every verifier refuses it first
                print(f"error: {err}", file=sys.stderr)
                return 2
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
