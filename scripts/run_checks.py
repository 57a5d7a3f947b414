#!/usr/bin/env python3
"""Sweep every verifier across its full default budget and print a report.

This is the long-form version of ``exotic-rs verify``: one line per
(property, size) combination, a final tally, and a non-zero exit code if
anything failed.  With --json each line is instead a JSON object: one per
(property, size) with its property, n, checked, failures (a count) and
elapsed_s, then the totals (properties, checked, failures, elapsed_s).
Sizes beyond the built-in budgets can be unlocked with --max-n (which sets
EXOTIC_RS_MAX_N for the run).

Usage::

    python scripts/run_checks.py                 # everything, default budgets
    python scripts/run_checks.py -p roundtrip -p transition
    python scripts/run_checks.py --max-n 7       # spend more time, check more
    python scripts/run_checks.py --json          # machine-readable, one object a line
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from exotic_rs import (
    COUNT_BUDGET,
    PAIR_BUDGET,
    WORD_BUDGET,
    VERIFIERS,
    run_verifier,
)

# Highest size each property is checked at (the budgets the library enforces).
DEFAULT_TOP = {
    "golden": 3,
    "roundtrip": PAIR_BUDGET,
    "inverse": PAIR_BUDGET,
    "counting": COUNT_BUDGET,
    "transition": PAIR_BUDGET,
    "wtilde": PAIR_BUDGET,
    "embedding": WORD_BUDGET,
}


def sizes_for(prop: str, top: int) -> list[int]:
    if prop == "golden":
        return [3]
    return list(range(top + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-p",
        "--properties",
        action="append",
        choices=sorted(VERIFIERS),
        help="restrict to these properties (repeatable; default: all)",
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="raise every budget-limited sweep to this size",
    )
    parser.add_argument("--json", action="store_true", help="print one JSON object per line")
    args = parser.parse_args()

    if args.max_n is not None:
        os.environ["EXOTIC_RS_MAX_N"] = str(args.max_n)

    properties = args.properties or sorted(DEFAULT_TOP)
    failures = 0
    checks = 0
    started = time.perf_counter()
    for prop in properties:
        top = DEFAULT_TOP[prop]
        if args.max_n is not None and prop != "golden":
            top = max(top, args.max_n)
        for n in sizes_for(prop, top):
            t0 = time.perf_counter()
            report = run_verifier(prop, n)
            dt = time.perf_counter() - t0
            if args.json:
                print(json.dumps({"property": prop, "n": n, "checked": report.checked,
                                  "failures": len(report.failures), "elapsed_s": dt}))
            else:
                print(f"{report.summary()}  [{dt:.2f}s]")
            checks += report.checked
            if not report.ok:
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
