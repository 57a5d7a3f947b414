"""Tests of the benchmark harness itself (not of exotic_rs).

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
They use tiny inputs, so they take a few seconds.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostProbe  # noqa: E402
from tracing import LAYERS, read_spans  # noqa: E402
from workloads import CliCold, LongWords, Sweep, Tally, cli_cycle, random_words, run_sweep  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")
SMALL_PLAN = (
    ("golden", "verify_golden_n3", 3, 96),
    ("roundtrip", "verify_roundtrip", 3, 96),
    ("transition", "verify_transition", 3, 176),
    ("cells", "cells", 3, (48, 10)),
)


def test_same_seed_gives_same_words():
    assert random_words(7, 400, 3) == random_words(7, 400, 3)
    assert random_words(7, 400, 3) != random_words(8, 400, 3)
    first, second = LongWords(n=30, pool=4), LongWords(n=30, pool=4)
    first.setup(11)
    second.setup(11)
    assert [w.letters for w in first.words] == [w.letters for w in second.words]


def test_words_are_signed_permutations():
    for word in random_words(3, 9, 20):
        assert sorted(abs(x) for x in word) == list(range(1, 10))


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_pass_reports_every_per_layer_metric_and_accounts_for_wall_time():
    sweep = Sweep(SMALL_PLAN)
    sweep.setup(0)
    tally, summary, facts = sweep.traced(1)
    assert (tally.attempted, tally.failed) == (8, 0)
    metrics = run.layer_metrics(summary, facts)
    assert set(metrics) == set(run.PER_LAYER)
    assert all(NAME.fullmatch(name) for name in metrics)
    shares = sum(metrics[f"{layer}.self_frac"] for layer in LAYERS) + metrics["trace.harness_frac"]
    assert shares == pytest.approx(1.0)
    assert metrics["verify.transition.checks_per_s"] > 0
    header, arrays = read_spans(workloads.SPAN_DIR / "sweep-n5.spans")
    assert header["spans"] == summary.spans == len(arrays[0])


def test_uninstall_restores_the_package():
    sweep = Sweep(SMALL_PLAN)
    sweep.setup(0)
    P = sweep.P
    before = (P.verify.VERIFIERS["roundtrip"], P.correspondence.insertion, vars(P.bitableaux.Bitableau)["__post_init__"])
    workloads.traced_pass(P, "test", run_sweep, P, SMALL_PLAN[:1], Tally())
    after = (P.verify.VERIFIERS["roundtrip"], P.correspondence.insertion, vars(P.bitableaux.Bitableau)["__post_init__"])
    assert before == after


def test_wrong_check_count_is_a_failure_not_a_crash():
    sweep = Sweep(SMALL_PLAN)
    sweep.setup(0)
    tally = Tally()
    run_sweep(sweep.P, (("counting", "verify_counting", 3, 999), ("roundtrip", "verify_roundtrip", 99, 0)), tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert "expected 999" in tally.notes[0]
    assert "BudgetExceededError" in tally.notes[1]


def test_wrong_round_trip_is_a_failure(monkeypatch):
    long = LongWords(n=12, pool=3)
    long.setup(5)
    tally = Tally()
    long.round_trips(long.words, tally, [], [])
    assert (tally.attempted, tally.failed) == (3, 0)
    monkeypatch.setattr(long.P.correspondence, "reverse_bumping", lambda pair: long.words[0].inverse())
    long.round_trips(long.words, tally, [], [])
    assert (tally.attempted, tally.failed) == (6, 3)


def test_corrupted_cli_outputs_are_failures():
    word = "2 7 5 -6 4 -3 1"
    pair = '{"T": {"left": [], "right": []}, "R": {"left": [], "right": []}}'

    def fake(args, stdin):
        return 0.1, 0, {"insert": pair + "\n", "bump": "1 2 3\n", "table": "# mu=[];nu=[]\n"}[args[0]]

    tally, times = Tally(), {"insert": [], "bump": [], "table": []}
    cli_cycle(fake, word, tally, times)
    assert (tally.attempted, tally.failed) == (3, 2)  # the bump and table outputs are wrong
    cli_cycle(lambda args, stdin: (0.1, 1, ""), word, tally, times)
    assert (tally.attempted, tally.failed) == (6, 5)


def test_in_process_cli_cycle_passes_the_gate():
    cli = CliCold()
    tally, times = Tally(), {"insert": [], "bump": [], "table": []}
    cli.in_process(workloads.load_package(), ["2 7 5 -6 4 -3 1"], tally, times)
    assert (tally.attempted, tally.failed) == (3, 0)


def test_wrong_insertion_in_the_sweep_is_a_failure(monkeypatch):
    sweep = Sweep(SMALL_PLAN)
    sweep.setup(0)
    tally, _ = sweep.measure(1, HostProbe())
    assert (tally.attempted, tally.failed) == (4 + 48 + 48, 0)
    wrong = sweep.pairs[0]
    monkeypatch.setattr(sweep.P.correspondence, "insertion", lambda w: wrong)
    tally, _ = sweep.measure(1, HostProbe())
    assert tally.attempted == 100
    assert tally.failed >= 47  # every pair but one fails to round-trip, and verifiers fail too


def test_each_unit_is_scaled_by_the_probes_around_it():
    probe = HostProbe(iter([1.0, 3.0, 0.5]).__next__)
    assert probe.unit_factor() == 2.0
    assert probe.unit_factor() == 1.75
    assert probe.factors == [1.0, 3.0, 0.5]
