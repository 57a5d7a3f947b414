#!/usr/bin/env python3
"""Benchmark harness for exotic-rs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-n5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload prints its metrics one per line ("name value unit") and, as the
last line, a JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced run.  ``--workload all`` runs every workload
both ways, each in its own process.  The exit code is 0 whenever a result
line was printed (``correct`` says whether every output was right) and 2
when the benchmark cannot run, e.g. outside a checkout of the repository.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import HostProbe
from tracing import LAYERS, Summary
from workloads import SRC, SWEEP_N5, WORKLOADS, Tally

SETUP_REPEATS = 5

END_TO_END = {  # name: unit
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "insert_ms": "ms",
    "reverse_ms": "ms",
    "peak_rss_mb": "MB",
}

VERIFY_SPANS = {name: fn for name, fn, _, _ in SWEEP_N5}  # sweep report name: verify function
SLOT_SEARCHES = ("insertable_positions", "available_positions", "first_column_insertables")
CLI_FACTS = (
    "cli.interpreter_ms", "cli.import_ms", "cli.run_ms.insert", "cli.run_ms.bump", "cli.run_ms.table",
    "cli.table_ms_p50", "cli.insert_ms_p90", "cli.bump_ms_p90", "cli.table_ms_p90",
)

PER_LAYER = {  # name: (unit, better)
    "bitableaux.constructions_per_word": ("count", "lower"),
    "bitableaux.construct_us": ("us", "lower"),
    **{f"bitableaux.{f}{k}": u for f in SLOT_SEARCHES for k, u in (("_us", ("us", "lower")), (".calls", ("count", "lower")))},
    "bitableaux.enumerate_standard_s": ("s", "lower"),
    "correspondence.hops_per_word": ("count", "lower"),
    "correspondence.insertion_us_per_hop": ("us", "lower"),
    "correspondence.reverse_us_per_hop": ("us", "lower"),
    "correspondence.insertion.calls": ("count", "lower"),
    "correspondence.reverse_bumping.calls": ("count", "lower"),
    "correspondence.reverse_bumping.distinct_ratio": ("ratio", "higher"),
    "correspondence.second_decrement_us": ("us", "lower"),
    "correspondence.second_decrement.calls": ("count", "lower"),
    "correspondence.bump_once_us": ("us", "lower"),
    **{f"partitions.{f}{k}": u for f in ("max_gamma", "max_delta") for k, u in ((".calls", ("count", "lower")), ("_us", ("us", "lower")))},
    "partitions.enumerate_bipartitions_us": ("us", "lower"),
    "partitions.count_bitableaux_us": ("us", "lower"),
    "signed_perm.enumerate_s": ("s", "lower"),
    "signed_perm.constructions": ("count", "lower"),
    "signed_perm.iota_embed_us": ("us", "lower"),
    "signed_perm.derive_w_tilde_us": ("us", "lower"),
    **{f"verify.{v}{k}": u for v in VERIFY_SPANS for k, u in (("_s", ("s", "lower")), (".checks_per_s", ("1/s", "higher")))},
    "verify.iter_pairs_s": ("s", "lower"),
    **{name: ("ms", "lower") for name in CLI_FACTS},
    **{f"{layer}.self_frac": ("ratio", "lower") for layer in LAYERS},
    "trace.harness_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}


def layer_metrics(s: Summary, facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass; see README.md for definitions."""

    def calls(span: str) -> int:
        return s.stats(span).calls

    def us(span: str) -> float:
        st = s.stats(span)
        return st.total_ns / st.calls / 1e3 if st.calls else 0.0

    def secs(span: str) -> float:
        return s.stats(span).total_ns / 1e9

    def family(span: str) -> tuple[int, int]:
        both = (s.stats(span), s.stats(span + "_with_trace"))
        return sum(x.outer_calls for x in both), sum(x.outer_ns for x in both)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    ins_calls, ins_ns = family("correspondence.insertion")
    rev_calls, rev_ns = family("correspondence.reverse_bumping")
    ins_hops, rev_hops = facts["insertion_hops"], facts["reverse_hops"]
    checks = facts.get("checks", {})
    m = {
        "bitableaux.constructions_per_word": ratio(calls("bitableaux.Bitableau.__post_init__"), ins_calls + rev_calls),
        "bitableaux.construct_us": us("bitableaux.Bitableau.__post_init__"),
        "bitableaux.enumerate_standard_s": secs("bitableaux.enumerate_standard_bitableaux"),
        "correspondence.hops_per_word": ratio(ins_hops + rev_hops, ins_calls + rev_calls),
        "correspondence.insertion_us_per_hop": ratio(ins_ns / 1e3, ins_hops),
        "correspondence.reverse_us_per_hop": ratio(rev_ns / 1e3, rev_hops),
        "correspondence.insertion.calls": ins_calls,
        "correspondence.reverse_bumping.calls": rev_calls,
        "correspondence.reverse_bumping.distinct_ratio": ratio(len(s.inputs.get("correspondence.reverse_bumping", ())), rev_calls),
        "correspondence.second_decrement_us": us("correspondence.second_decrement"),
        "correspondence.second_decrement.calls": calls("correspondence.second_decrement"),
        "correspondence.bump_once_us": us("correspondence.bump_once"),
        "partitions.enumerate_bipartitions_us": us("partitions.enumerate_bipartitions"),
        "partitions.count_bitableaux_us": us("partitions.count_bitableaux"),
        "signed_perm.enumerate_s": secs("signed_perm.enumerate_signed_permutations"),
        "signed_perm.constructions": calls("signed_perm.SignedPermutation.__post_init__"),
        "signed_perm.iota_embed_us": us("signed_perm.iota_embed"),
        "signed_perm.derive_w_tilde_us": us("signed_perm.derive_w_tilde"),
        "verify.iter_pairs_s": secs("verify.iter_pairs"),
        "trace.harness_frac": ratio(s.harness_ns, s.wall_ns),
        "trace.overhead_frac": ratio(s.wall_ns / 1e9 - facts["untraced_s"], facts["untraced_s"]),
        "trace.spans": s.spans,
    }
    for f in SLOT_SEARCHES:
        m[f"bitableaux.{f}_us"] = us(f"bitableaux.{f}")
        m[f"bitableaux.{f}.calls"] = calls(f"bitableaux.{f}")
    for f in ("max_gamma", "max_delta"):
        m[f"partitions.{f}.calls"] = calls(f"partitions.{f}")
        m[f"partitions.{f}_us"] = us(f"partitions.{f}")
    for name, fn in VERIFY_SPANS.items():
        m[f"verify.{name}_s"] = secs(f"verify.{fn}")
        m[f"verify.{name}.checks_per_s"] = ratio(checks.get(name, 0), secs(f"verify.{fn}"))
    cli = facts.get("cli", {})
    m.update({name: cli.get(name, 0.0) for name in CLI_FACTS})
    m.update({f"{layer}.self_frac": ratio(s.layer_self_ns[layer], s.wall_ns) for layer in LAYERS})
    return m


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for (ru_maxrss is in KiB)."""
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict[str, tuple[float, str]]]:
    workload = WORKLOADS[name]()
    probe = HostProbe(workload.host_factor)
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(seed)
        setup.append((time.perf_counter() - t0) / probe.unit_factor())
    if trace:
        tally, summary, facts = workload.traced(seconds)
        values, units = layer_metrics(summary, facts), {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        tally, values = workload.measure(seconds, probe)
        values.update(setup_s=statistics.median(setup), peak_rss_mb=peak_rss_mb())
        units = END_TO_END
        f = probe.factors
        print(f"# host factor: median {statistics.median(f)}, min {min(f)}, max {max(f)} over {len(f)} probes "
              "(end-to-end timings are divided by it; see hostspeed.py)")
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    return tally, {k: (values[k], units[k]) for k in units}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a child process."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            child = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = child.stdout.splitlines()
            print(f"## {name} --trace {trace}")
            print("\n".join(lines[:-1]))
            if child.returncode != 0 or not lines:
                print(child.stderr, file=sys.stderr)
                return child.returncode or 2
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": (v["value"], v["unit"]) for k, v in result["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="exotic-rs benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "exotic_rs" / "__init__.py").is_file():
        print(f"error: no exotic_rs package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    tally, metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"failed_frac {tally.failed / tally.attempted if tally.attempted else 1.0} ({tally.failed} of {tally.attempted})")
    for note in tally.notes:
        print(f"FAILED: {note}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(result_line(correct, max(tally.attempted, 1), tally.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
