"""The benchmark's workloads: set-up, the measured pass with its correctness
gate, and the traced pass that feeds the per-layer metrics.

Every workload object has ``setup(seed)``, ``measure(seconds)`` and
``traced(seconds)``.  ``measure(seconds, probe)`` returns a :class:`Tally`
and the end-to-end metrics it owns, each unit of work's time divided by the
host factor ``probe`` measures around it (see hostspeed.py); ``traced`` returns a :class:`Tally`, the
:class:`~tracing.Summary` of its traced pass, and the facts the per-layer
metrics need that spans cannot give (untraced wall time, hops per word,
check counts, CLI timings).  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from hostspeed import HostProbe, host_factor
from tracing import LAYERS, Summary, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

LONG_N = 400        # the ROADMAP's random-word size
LONG_POOL = 64      # words generated per seed; a run cycles through them
CLI_N = 7           # letters per CLI word
CLI_POOL = 256
CLI_TIMEOUT_S = 60
BARE_SPAWN_S = 0.08  # nominal spawn-to-exit time of `python -c pass`

# Bytecode caching is on for the package whatever the environment says, so
# that imports and CLI start-up cost the same in every environment: what a
# user of an installed package sees.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"} | {"PYTHONPATH": str(SRC)}

# sha256 of `exotic-rs table 4` stdout.  The CLI output is frozen, so any
# change to it is a failure of the run.
TABLE4_SHA256 = "10ba9d33afa4cbc431f0fb7f08b55ec35f4842ed9cd2e73876f1a06184dff24e"

# (report name, function in exotic_rs.verify, n, exact check count).
# For cells the count is (words, shapes).
SWEEP_N5 = (
    ("golden", "verify_golden_n3", 3, 96),
    ("roundtrip", "verify_roundtrip", 5, 7680),
    ("inverse", "verify_inverse", 5, 3840),
    ("transition", "verify_transition", 5, 26460),
    ("wtilde", "verify_wtilde", 5, 3840),
    ("embedding", "verify_embedding", 5, 3840),
    ("counting", "verify_counting", 5, 36),
    ("cells", "cells", 5, (3840, 36)),
)


@dataclass
class Tally:
    """Operations attempted and failed; the first few failures are kept."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


def load_package() -> SimpleNamespace:
    """Import exotic_rs afresh from the checkout's src/, so that set-up can
    be repeated and each repetition starts with empty caches."""
    for name in [m for m in sys.modules if m == "exotic_rs" or m.startswith("exotic_rs.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False
    package = importlib.import_module("exotic_rs")
    return SimpleNamespace(
        package=package, **{layer: importlib.import_module(f"exotic_rs.{layer}") for layer in LAYERS}
    )


def random_words(seed: int, n: int, count: int) -> list[tuple[int, ...]]:
    """``count`` signed permutations of size n, uniformly random, from ``seed``."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        mags = list(range(1, n + 1))
        rng.shuffle(mags)
        words.append(tuple(m if rng.random() < 0.5 else -m for m in mags))
    return words


def repeat_units(seconds: float, unit, items) -> float:
    """Call unit(item) for successive items while one more call is expected
    to end within ``seconds`` (judged by the last call); at least once.
    Returns the wall time."""
    start = time.perf_counter()
    last = 0.0
    for done, item in enumerate(items):
        t0 = time.perf_counter()
        if done and t0 - start + last > seconds:
            break
        unit(item)
        last = time.perf_counter() - t0
    return time.perf_counter() - start


def traced_pass(P: SimpleNamespace, workload: str, fn, *args) -> tuple[Summary, dict[str, int]]:
    """Run fn(*args) with spans on, write the spans, and reduce them.

    Also returns the hops the kernels made: every word given to insertion
    and every pair given to reverse bumping is replayed untraced through the
    ``*_with_trace`` variant, whose records hold one step per hop.
    """
    tracer = Tracer()
    tracer.install({layer: getattr(P, layer) for layer in LAYERS}, P.package)
    try:
        tracer.timed(fn, *args)
    finally:
        tracer.uninstall()
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(SPAN_DIR / f"{workload}.spans")
    summary = tracer.summary()
    C = P.correspondence

    def hops(family: str, replay) -> int:
        inputs = summary.inputs.get(family, {})
        return sum(count * sum(len(rec.steps) for rec in replay(x)[1]) for x, count in inputs.items())

    return summary, {
        "insertion_hops": hops("correspondence.insertion", C.insertion_with_trace),
        "reverse_hops": hops("correspondence.reverse_bumping", C.reverse_bumping_with_trace),
    }


def median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def p90_ms(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1] * 1e3 if len(samples) >= 2 else median_ms(samples)


def _failure(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


# -- sweep-n5 ------------------------------------------------------------------


def run_sweep(P: SimpleNamespace, plan, tally: Tally, after=None) -> dict[str, float]:
    """Run each verifier of the plan once; returns its wall time by name.
    ``after(i, seconds)``, if given, runs after the i-th verifier, outside
    its timing."""
    times = {}
    for i, (name, fn_name, n, want) in enumerate(plan):
        t0 = time.perf_counter()
        try:
            result = getattr(P.verify, fn_name)(n)
            times[name] = time.perf_counter() - t0
            ok, what = _sweep_result_ok(P, name, n, result, want)
        except Exception as err:  # a verifier that raises is a failed check, not a crash
            times[name] = time.perf_counter() - t0
            ok, what = False, _failure(err)
        tally.record(ok, f"{name} n={n}: {what}")
        if after is not None:
            after(i, times[name])
    return times


def _sweep_result_ok(P, name, n, result, want) -> tuple[bool, str]:
    if name == "cells":
        sizes_ok = all(len(ws) == P.partitions.count_bitableaux(bp) ** 2 for bp, ws in result.items())
        got = (sum(len(ws) for ws in result.values()), len(result))
        return sizes_ok and got == want, f"{got[0]} words over {got[1]} shapes, expected {want}"
    return result.ok and result.checked == want, f"{result.summary()}, expected {want} checks"


class Sweep:
    """Every verifier once at n = 5 (golden at 3) plus cells(5).  After each
    verifier, an eighth of the words are inserted and an eighth of the pairs
    reverse-bumped, each call timed on its own.  The seed is ignored: the
    inputs are all 3,840 words and all 3,840 pairs.  One sweep is one run;
    its length is set by its work, not by ``seconds``."""

    name = "sweep-n5"
    host_factor = staticmethod(host_factor)

    def __init__(self, plan=SWEEP_N5) -> None:
        self.plan = plan
        self.checks = {name: (want[0] if isinstance(want, tuple) else want) for name, _, _, want in plan}

    def setup(self, seed: int) -> None:
        P = load_package()
        top = max(n for _, _, n, _ in self.plan)
        for n in range(top + 1):
            for bp in P.partitions.enumerate_bipartitions(n):
                P.partitions.count_bitableaux(bp)
                P.bitableaux.enumerate_standard_bitableaux(bp)
        self.words = P.signed_perm.enumerate_signed_permutations(top)
        self.pairs = list(P.verify.iter_pairs(top))
        self.P = P

    def measure(self, seconds: float, probe: HostProbe):
        tally, image, back, errors = Tally(), {}, {}, {}
        parts = len(self.plan)
        verifier_s, ins, rev = [], [], []
        C = self.P.correspondence

        def timed_calls(fn, inputs, samples: list[float], out: dict) -> None:
            for x in inputs:
                try:
                    t0 = time.perf_counter()
                    out[x] = fn(x)
                    samples.append(time.perf_counter() - t0)
                except Exception as err:  # counted as a failure below: x has no image
                    errors[x] = f"{fn.__name__}({x}): {_failure(err)}"

        def directions(i: int, seconds: float) -> None:
            verifier_s.append(seconds / probe.unit_factor())
            i_raw, r_raw = [], []
            timed_calls(C.insertion, self.words[i::parts], i_raw, image)
            timed_calls(C.reverse_bumping, self.pairs[i::parts], r_raw, back)
            f = probe.unit_factor()
            ins.extend(x / f for x in i_raw)
            rev.extend(x / f for x in r_raw)

        run_sweep(self.P, self.plan, tally, after=directions)
        for w in self.words:
            tally.record(w in image, errors.get(w, ""))
        for pair in self.pairs:
            word = back.get(pair)
            ok = word is not None and image.get(word) == pair
            tally.record(ok, errors.get(pair, f"{pair.to_json()} reverse-bumps to {word}, which inserts elsewhere"))
        return tally, {
            "throughput_per_s": sum(self.checks.values()) / sum(verifier_s),
            "insert_ms": median_ms(ins),
            "reverse_ms": median_ms(rev),
        }

    def traced(self, seconds: float):
        tally = Tally()
        t0 = time.perf_counter()
        run_sweep(self.P, self.plan, tally)
        untraced = time.perf_counter() - t0
        summary, hops = traced_pass(self.P, self.name, run_sweep, self.P, self.plan, tally)
        return tally, summary, {"untraced_s": untraced, "checks": self.checks, **hops}


# -- long-words ----------------------------------------------------------------


class LongWords:
    """Seeded random signed permutations at n = 400: insert, reverse-bump,
    compare; the two directions are timed apart."""

    name = "long-words"
    host_factor = staticmethod(host_factor)

    def __init__(self, n: int = LONG_N, pool: int = LONG_POOL) -> None:
        self.n, self.pool = n, pool

    def setup(self, seed: int) -> None:
        P = load_package()
        SP = P.signed_perm.SignedPermutation
        self.words = [SP(w) for w in random_words(seed, self.n, self.pool)]
        warm = SP(random_words(seed, 8, 1)[0])
        P.correspondence.reverse_bumping(P.correspondence.insertion(warm))
        self.P = P

    def round_trips(self, words, tally: Tally, ins: list[float], rev: list[float], probe: HostProbe | None = None) -> None:
        """Insert, reverse-bump and compare each word; each direction's time
        goes to ins / rev, divided by the host factor around it if ``probe``."""
        C = self.P.correspondence

        def scaled(seconds: float) -> float:
            return seconds / probe.unit_factor() if probe else seconds

        for w in words:
            try:
                t0 = time.perf_counter()
                pair = C.insertion(w)
                ins.append(scaled(time.perf_counter() - t0))
                t0 = time.perf_counter()
                back = C.reverse_bumping(pair)
                rev.append(scaled(time.perf_counter() - t0))
            except Exception as err:  # counted as a failed word
                tally.record(False, f"word {w.letters[:8]}...: {_failure(err)}")
                continue
            tally.record(back == w, f"word {w.letters[:8]}... came back as {back.letters[:8]}...")

    def measure(self, seconds: float, probe: HostProbe):
        tally, ins, rev = Tally(), [], []
        repeat_units(seconds, lambda w: self.round_trips([w], tally, ins, rev, probe), itertools.cycle(self.words))
        return tally, {
            "throughput_per_s": 1 / statistics.median(a + b for a, b in zip(ins, rev)) if ins else 0.0,
            "insert_ms": median_ms(ins),
            "reverse_ms": median_ms(rev),
        }

    def traced(self, seconds: float):
        tally, done = Tally(), []

        def untraced_word(w) -> None:
            self.round_trips([w], tally, [], [])
            done.append(w)

        t0 = time.perf_counter()
        repeat_units(seconds / 3, untraced_word, itertools.cycle(self.words))
        untraced = time.perf_counter() - t0
        summary, hops = traced_pass(self.P, self.name, self.round_trips, done, tally, [], [])
        return tally, summary, {"untraced_s": untraced, **hops}


# -- cli-cold ------------------------------------------------------------------


def spawn(argv: list[str], stdin: str = "") -> tuple[float, int, str]:
    """Run the interpreter with ``argv`` from the checkout, src/ on its path,
    and wait for it.  Returns (seconds from spawn to exit, exit code or -1
    on timeout, stdout)."""
    t0 = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, *argv],
            input=stdin, capture_output=True, text=True, cwd=ROOT, env=CHILD_ENV, timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return time.perf_counter() - t0, -1, ""
    return time.perf_counter() - t0, done.returncode, done.stdout


def run_spawned(args: list[str], stdin: str) -> tuple[float, int, str]:
    """One ``exotic-rs`` command in a fresh process."""
    return spawn(["-m", "exotic_rs.cli", *args], stdin)


def check_insert(code: int, out: str) -> bool:
    if code != 0:
        return False
    try:
        obj = json.loads(out)
    except json.JSONDecodeError:
        return False
    return isinstance(obj, dict) and set(obj) == {"T", "R"}


def check_bump(code: int, out: str, word: str) -> bool:
    return code == 0 and out == word + "\n"


def check_table(code: int, out: str) -> bool:
    return code == 0 and hashlib.sha256(out.encode()).hexdigest() == TABLE4_SHA256


def cli_cycle(run, word: str, tally: Tally, times: dict[str, list[float]]) -> None:
    """One closed-loop cycle: insert --json, bump --pair - on its output,
    table 4.  ``run(args, stdin)`` returns (seconds, exit code, stdout)."""
    dt, code, out = run(["insert", "--json", word], "")
    times["insert"].append(dt)
    tally.record(check_insert(code, out), f"insert {word!r}: exit {code}")
    dt, code, back = run(["bump", "--pair", "-"], out)
    times["bump"].append(dt)
    tally.record(check_bump(code, back, word), f"bump of {word!r}: exit {code}, printed {back!r}")
    dt, code, out = run(["table", "4"], "")
    times["table"].append(dt)
    tally.record(check_table(code, out), f"table 4: exit {code}, {len(out)} characters, digest mismatch")


def spawn_factor() -> float:
    """Host factor for process start-up: a bare ``python -c pass`` now
    ÷ its nominal time.  In-process Python work does not track it."""
    return spawn(["-c", "pass"])[0] / BARE_SPAWN_S


class CliCold:
    """A closed loop with one client; every command is a fresh process."""

    name = "cli-cold"
    host_factor = staticmethod(spawn_factor)

    def setup(self, seed: int) -> None:
        self.words = [" ".join(map(str, w)) for w in random_words(seed, CLI_N, CLI_POOL)]
        run_spawned(["insert", "--json", self.words[0]], "")

    def measure(self, seconds: float, probe: HostProbe):
        tally = Tally()
        times: dict[str, list[float]] = {"insert": [], "bump": [], "table": []}

        def cycle(w: str) -> None:
            raw: dict[str, list[float]] = {k: [] for k in times}
            cli_cycle(run_spawned, w, tally, raw)
            f = probe.unit_factor()
            for k, xs in raw.items():
                times[k].extend(x / f for x in xs)

        repeat_units(seconds, cycle, itertools.cycle(self.words))
        cycles = [sum(t) for t in zip(*times.values())]
        return tally, {
            "throughput_per_s": len(times) / statistics.median(cycles),
            "insert_ms": median_ms(times["insert"]),
            "reverse_ms": median_ms(times["bump"]),
        }

    def in_process(self, P: SimpleNamespace, words, tally: Tally, times: dict[str, list[float]]) -> None:
        def run(args: list[str], stdin: str) -> tuple[float, int, str]:
            out, err = io.StringIO(), io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(stdin)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    t0 = time.perf_counter()
                    code = P.cli.run(args)
                    dt = time.perf_counter() - t0
            finally:
                sys.stdin = saved
            return dt, code, out.getvalue()

        for w in words:
            cli_cycle(run, w, tally, times)

    def traced(self, seconds: float):
        tally = Tally()
        spawned: dict[str, list[float]] = {"insert": [], "bump": [], "table": []}
        repeat_units(seconds / 2, lambda w: cli_cycle(run_spawned, w, tally, spawned), itertools.cycle(self.words))
        floor = statistics.median(spawn(["-c", "pass"])[0] for _ in range(5))
        imported = statistics.median(spawn(["-c", "import exotic_rs.cli"])[0] for _ in range(5))

        P = load_package()
        in_proc: dict[str, list[float]] = {"insert": [], "bump": [], "table": []}
        done: list[str] = []

        def untraced_cycle(w: str) -> None:
            self.in_process(P, [w], tally, in_proc)
            done.append(w)

        t0 = time.perf_counter()
        repeat_units(seconds / 6, untraced_cycle, iter(self.words))
        untraced = time.perf_counter() - t0
        summary, hops = traced_pass(P, self.name, self.in_process, P, done, tally, {k: [] for k in in_proc})
        facts = {
            "untraced_s": untraced,
            **hops,
            "cli": {
                "cli.interpreter_ms": floor * 1e3,
                "cli.import_ms": (imported - floor) * 1e3,
                **{f"cli.run_ms.{k}": median_ms(v) for k, v in in_proc.items()},
                "cli.table_ms_p50": median_ms(spawned["table"]),
                **{f"cli.{k}_ms_p90": p90_ms(v) for k, v in spawned.items()},
            },
        }
        return tally, summary, facts


WORKLOADS = {w.name: w for w in (Sweep, LongWords, CliCold)}
