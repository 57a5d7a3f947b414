"""The exotic-rs command: subcommands, formats, and exit codes."""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import exotic_rs
from conftest import child_env
from exotic_rs import (
    Report,
    SignedPermutation,
    enumerate_bipartitions,
    enumerate_signed_permutations,
    insertion,
    load_golden_table,
)
from exotic_rs import cli
from exotic_rs.cli import run

COMMANDS = ["insert", "bump", "table", "cells", "count", "verify", "render"]
MIXED_WORD = "2 7 5 -6 4 -3 1"
MIXED_ASCII = "T:\n4 1 | 2 7\n5 3 | 6\nR:\n2 1 | 3 7\n5 4 | 6\n"
EMPTY_PAIR_JSON = '{"T": {"left": [], "right": []}, "R": {"left": [], "right": []}}'


def invoke(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestInsert:
    def test_ascii_rendering_of_a_seven_letter_word(self, capsys):
        code, out, err = invoke(capsys, ["insert", MIXED_WORD])
        assert (code, err) == (0, "")
        assert out == MIXED_ASCII

    def test_empty_word_as_json(self, capsys):
        code, out, _ = invoke(capsys, ["insert", "", "--json"])
        assert code == 0
        assert out == EMPTY_PAIR_JSON + "\n"

    def test_json_trace_structure(self, capsys):
        code, out, _ = invoke(capsys, ["insert", "-2 1", "--json", "--trace"])
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"T", "R", "trace"}
        assert obj["trace"][0] == {
            "k": 1,
            "letter": -2,
            "steps": [{"value": 2, "side": "right", "row": 1, "col": 1, "displaced": None}],
        }

    def test_ascii_trace_names_each_letter(self, capsys):
        code, out, _ = invoke(capsys, ["insert", "-2 1", "--trace"])
        assert code == 0
        assert out.splitlines()[0] == "letter -2: 2->(right r1 c1)"
        assert out.splitlines()[1].startswith("letter 1:")

    def test_ascii_flag_is_an_unknown_argument(self, capsys):
        code, _, err = invoke(capsys, ["insert", "1", "--ascii"])
        assert code == 2
        assert "unrecognized arguments: --ascii" in err

    def test_bad_words_exit_2_with_a_diagnostic(self, capsys):
        code, _, err = invoke(capsys, ["insert", "1 x"])
        assert code == 2
        assert "token 2" in err
        code, _, err = invoke(capsys, ["insert", "1 1"])
        assert code == 2
        assert "magnitudes" in err
        # int() would read "1_0" as 10, and this word as a permutation of 1..10.
        code, out, err = invoke(capsys, ["insert", "2 1_0 3 4 5 6 7 8 9 1"])
        assert (code, out) == (2, "")
        assert "token 2: '1_0' is not a signed integer" in err


class TestBump:
    def test_reads_a_pair_from_a_file(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(insertion_pair_json(MIXED_WORD)))
        code, out, _ = invoke(capsys, ["bump", "--pair", str(path)])
        assert (code, out) == (0, MIXED_WORD + "\n")

    def test_reads_a_pair_from_stdin(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, ["bump", "--pair", "-"], stdin_text=EMPTY_PAIR_JSON, monkeypatch=monkeypatch
        )
        assert (code, out) == (0, "\n")

    def test_trace_is_json_with_word_and_steps(self, capsys, monkeypatch):
        pair_json = json.dumps(insertion_pair_json(MIXED_WORD))
        code, out, _ = invoke(
            capsys, ["bump", "--pair", "-", "--trace"], stdin_text=pair_json, monkeypatch=monkeypatch
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["word"] == MIXED_WORD
        assert [rec["k"] for rec in obj["trace"]] == list(range(7, 0, -1))
        step = obj["trace"][0]["steps"][0]
        assert set(step) == {"value", "side", "row", "col", "shape", "to", "emit"}

    def test_pair_file_is_closed(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(insertion_pair_json(MIXED_WORD)))
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "exotic_rs.cli",
             "bump", "--pair", str(path)],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert (done.returncode, done.stdout) == (0, MIXED_WORD + "\n")
        assert "ResourceWarning" not in done.stderr

    def test_missing_pair_argument_exits_2(self, capsys):
        code, _, err = invoke(capsys, ["bump"])
        assert code == 2
        assert "--pair" in err

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        code, _, err = invoke(capsys, ["bump", "--pair", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in err

    def test_invalid_json_exits_2(self, capsys, monkeypatch):
        code, _, err = invoke(
            capsys, ["bump", "--pair", "-"], stdin_text="{nope", monkeypatch=monkeypatch
        )
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("command", ["bump", "render"])
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, out, err = invoke(capsys, [command, "--pair", str(path)])
        assert (code, out) == (2, "")
        assert "not valid JSON" in err

    def test_mismatched_shapes_exit_2(self, capsys, monkeypatch):
        bad = '{"T": {"left": [[1]], "right": []}, "R": {"left": [], "right": [[1]]}}'
        code, _, err = invoke(
            capsys, ["bump", "--pair", "-"], stdin_text=bad, monkeypatch=monkeypatch
        )
        assert code == 2
        assert "share one shape" in err

    def test_bool_entries_exit_2(self, capsys, monkeypatch):
        bad = '{"T": {"left": [[true]], "right": []}, "R": {"left": [[1]], "right": []}}'
        code, out, err = invoke(
            capsys, ["bump", "--pair", "-"], stdin_text=bad, monkeypatch=monkeypatch
        )
        assert (code, out, err) == (2, "", "error: entries must be positive integers, got True in left row 1\n")


class TestPipeRoundTrip:
    @pytest.mark.parametrize("n", range(5))
    def test_insert_json_piped_into_bump_reproduces_every_word(self, capsys, monkeypatch, n):
        for w in enumerate_signed_permutations(n):
            code, pair_json, _ = invoke(capsys, ["insert", w.to_text(), "--json"])
            assert code == 0
            code, out, _ = invoke(
                capsys, ["bump", "--pair", "-"], stdin_text=pair_json, monkeypatch=monkeypatch
            )
            assert code == 0
            assert out == w.to_text() + "\n"

    def test_bump_then_insert_reproduces_the_pair_bytes(self, capsys, monkeypatch):
        pair_json = json.dumps(insertion_pair_json(MIXED_WORD))
        code, word_out, _ = invoke(
            capsys, ["bump", "--pair", "-"], stdin_text=pair_json, monkeypatch=monkeypatch
        )
        assert code == 0
        code, pair_out, _ = invoke(capsys, ["insert", word_out.strip(), "--json"])
        assert code == 0
        assert pair_out == pair_json + "\n"


class TestRender:
    def test_renders_a_pair_file(self, capsys, monkeypatch):
        pair_json = json.dumps(insertion_pair_json(MIXED_WORD))
        code, out, _ = invoke(
            capsys, ["render", "--pair", "-"], stdin_text=pair_json, monkeypatch=monkeypatch
        )
        assert (code, out) == (0, MIXED_ASCII)

    def test_renders_the_empty_pair(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, ["render", "--pair", "-"], stdin_text=EMPTY_PAIR_JSON, monkeypatch=monkeypatch
        )
        assert (code, out) == (0, "T:\nR:\n")


class TestTable:
    def test_size_three_table_matches_the_frozen_rows(self, capsys):
        code, out, _ = invoke(capsys, ["table", "3"])
        assert code == 0
        lines = out.splitlines()
        headers = [line for line in lines if line.startswith("# ")]
        data = [line for line in lines if line and not line.startswith("#")]
        assert len(headers) == 10
        assert len(data) == 48
        got = {
            (word, t_json, r_json)
            for word, t_json, r_json in (line.split("\t") for line in data)
        }
        frozen = {
            (row["word"], json.dumps(row["T"]), json.dumps(row["R"]))
            for row in load_golden_table()["rows"]
        }
        assert got == frozen

    def test_json_table_has_one_block_per_shape(self, capsys):
        code, out, _ = invoke(capsys, ["table", "2", "--json"])
        assert code == 0
        blocks = json.loads(out)
        assert len(blocks) == 5
        assert sum(len(b["words"]) for b in blocks) == 8

    @pytest.mark.parametrize("n", [0, 3])
    def test_json_table_is_laid_out_as_json_dumps(self, capsys, n):
        code, out, _ = invoke(capsys, ["table", str(n), "--json"])
        assert code == 0
        assert out == json.dumps(json.loads(out)) + "\n"

    @pytest.mark.parametrize("n, digest", [
        (5, "5d980690b72d9a2a754308e8e2901aefdf2ef25f8a61f5612bf9df717a4bc362"),
        (6, "054bcf378e307e67bb655071f6ec3b6a2128d6314ca91600c4139ef62afe9f9b"),
    ], ids=["5", "6"])
    def test_json_table_is_pinned(self, capsys, n, digest):
        code, out, _ = invoke(capsys, ["table", str(n), "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_each_tableau_is_rendered_once(self, capsys, monkeypatch):
        # 76 standard tableaux of size 4; rendered per word, T and R, that was 2 * 384 renderings.
        rendered = []
        real = cli._json
        monkeypatch.setattr(cli, "_json", lambda x: rendered.append(x) or real(x))
        code, _, _ = invoke(capsys, ["table", "4"])
        assert code == 0
        assert len(rendered) == sum(map(len, map(exotic_rs.enumerate_standard_bitableaux, enumerate_bipartitions(4)))) == 76

    def test_beyond_budget_exits_2(self, capsys):
        code, _, err = invoke(capsys, ["table", "7"])
        assert code == 2
        assert "EXOTIC_RS_MAX_N" in err

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_a_closed_pipe_is_not_a_usage_error(self):
        # As in `exotic-rs table 5 | head -1`: the reader leaves after one line.
        proc = subprocess.Popen(
            [sys.executable, "-m", "exotic_rs.cli", "table", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        )
        assert proc.stdout.readline().startswith(b"# ")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == -signal.SIGPIPE
        assert err == b""


class TestJsonText:
    """`insert --json` and `table` build their JSON on the list repr; it must read as json.dumps writes it."""

    @pytest.mark.parametrize("n", range(7))
    def test_every_tableau_and_shape_of_size_up_to_six(self, n):
        for bp in enumerate_bipartitions(n):
            assert cli._json(bp) == json.dumps(bp.to_json())
            for t in exotic_rs.enumerate_standard_bitableaux(bp):
                assert cli._json(t) == json.dumps(t.to_json())

    def test_insert_json_of_every_word_up_to_size_four_and_of_long_words(self, capsys):
        rng = random.Random(25)
        long_words = [[rng.choice((-1, 1)) * m for m in rng.sample(range(1, 201), 200)] for _ in range(4)]
        words = [w.to_text() for n in range(5) for w in enumerate_signed_permutations(n)]
        assert len(words) == 443
        for text in words + [" ".join(map(str, w)) for w in long_words]:
            code, out, err = invoke(capsys, ["insert", "--json", text])
            assert (code, out, err) == (0, json.dumps(insertion_pair_json(text)) + "\n", "")

    def test_only_the_commands_that_read_or_trace_load_json(self):
        # Under -S, `site` imports nothing, so sys.modules holds what the commands pulled in.
        script = "\n".join([
            "import io, sys",
            "from exotic_rs import cli",
            'codes = [cli.run(["insert", "--json", "2 -1 3"]), cli.run(["table", "3"]), cli.run(["table", "3", "--json"])]',
            'loaded = "json" in sys.modules',
            "sys.stdin = io.StringIO(sys.argv[1])",
            'codes += [cli.run(argv) for argv in (["bump", "--pair", "-"], ["insert", "--json", "--trace", "2 -1 3"],'
            ' ["verify", "roundtrip", "3", "--json"])]',
            "print(loaded, codes, file=sys.stderr)",
        ])
        done = subprocess.run(
            [sys.executable, "-S", "-c", script, json.dumps(insertion_pair_json("2 -1 3"))],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "False [0, 0, 0, 0, 0, 0]\n")
        assert "\n2 -1 3\n" in done.stdout


class TestCells:
    def test_size_two_headers_and_membership(self, capsys):
        code, out, _ = invoke(capsys, ["cells", "2"])
        assert code == 0
        lines = out.splitlines()
        headers = [line for line in lines if not line.startswith("  ")]
        members = [line.strip() for line in lines if line.startswith("  ")]
        assert headers == [
            "mu=[1,1];nu=[] (1):",
            "mu=[1];nu=[1] (4):",
            "mu=[2];nu=[] (1):",
            "mu=[];nu=[1,1] (1):",
            "mu=[];nu=[2] (1):",
        ]
        assert len(members) == 8
        assert set(members) == {w.to_text() for w in enumerate_signed_permutations(2)}

    @pytest.mark.parametrize("n, digest", [
        (5, "adcc351b809532538875d26f4e183323fd63f05a5236d981ce01c835b9355bd6"),
        (6, "edc1c86df590ebbdb608f2a2040cad1a680f426530f622a12b4af72c3528ce79"),
    ], ids=["5", "6"])
    def test_output_is_pinned(self, capsys, n, digest):
        code, out, _ = invoke(capsys, ["cells", str(n)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCount:
    def test_size_three_summary_line(self, capsys):
        code, out, _ = invoke(capsys, ["count", "3"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 11
        assert lines[-1] == "shapes 10; sum of squares 48; group order 48; OK"

    def test_size_zero(self, capsys):
        code, out, _ = invoke(capsys, ["count", "0"])
        assert code == 0
        assert out.splitlines()[-1] == "shapes 1; sum of squares 1; group order 1; OK"

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "exotic_rs.cli.verify_counting",
            lambda n: Report("counting", n, 1, ({"sum_of_squares": 0, "group_order": 1},)),
        )
        code, out, _ = invoke(capsys, ["count", "1"])
        assert code == 1
        assert out.splitlines()[-1].endswith("MISMATCH")


class TestVerify:
    def test_golden_summary(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "golden", "3"])
        assert (code, out) == (0, "golden n=3: OK (96 checks)\n")

    def test_json_report(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "counting", "4", "--json"])
        assert code == 0
        obj = json.loads(out)
        assert obj == {"property": "counting", "n": 4, "checked": 20, "failures": []}

    def test_failing_report_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "exotic_rs.cli.run_verifier",
            lambda name, n: Report(name, n, 4, ({"word": "1"},)),
        )
        code, out, _ = invoke(capsys, ["verify", "roundtrip", "1"])
        assert code == 1
        assert "FAILED (1 of 4 checks)" in out

    def test_beyond_budget_exits_2(self, capsys):
        code, _, err = invoke(capsys, ["verify", "roundtrip", "7"])
        assert code == 2
        assert "exceeds the budget" in err

    def test_a_negative_size_limit_exits_2(self, capsys, monkeypatch):
        # It would leave every budget at its default, so the limit is refused even where the size is within it.
        monkeypatch.setenv("EXOTIC_RS_MAX_N", "-1")
        assert invoke(capsys, ["verify", "counting", "3"]) == (2, "", "error: EXOTIC_RS_MAX_N must be >= 0, got '-1'\n")

    @pytest.mark.parametrize("value, rule", [("abc", "an integer"), ("-1", ">= 0")])
    def test_golden_refuses_a_malformed_or_negative_size_limit(self, capsys, monkeypatch, value, rule):
        # No value of the limit changes golden's table, but golden refuses a bad one as every verifier does.
        monkeypatch.setenv("EXOTIC_RS_MAX_N", value)
        assert invoke(capsys, ["verify", "golden", "3"]) == (2, "", f"error: EXOTIC_RS_MAX_N must be {rule}, got {value!r}\n")

    def test_unknown_property_exits_2(self, capsys):
        code, _, err = invoke(capsys, ["verify", "nope", "3"])
        assert code == 2
        assert "unknown property" in err

    def test_golden_at_other_sizes_exits_2(self, capsys):
        code, _, err = invoke(capsys, ["verify", "golden", "4"])
        assert code == 2
        assert "fixed at n=3" in err

    def test_verifiers_pass_with_asserts_stripped(self):
        for prop in ("roundtrip", "transition"):
            done = subprocess.run(
                [sys.executable, "-O", "-m", "exotic_rs.cli", "verify", prop, "4"],
                capture_output=True, text=True, env=child_env(), timeout=120,
            )
            assert done.returncode == 0, done.stderr
            assert done.stdout.startswith(f"{prop} n=4: OK")


RUN_CHECKS = Path(__file__).resolve().parents[1] / "scripts" / "run_checks.py"

# The default sweep's check count for each property at n = 0, 1, 2, ... up to its budget (golden only at n = 3).
DEFAULT_SWEEP = {
    "counting": [1, 2, 5, 10, 20, 36, 65, 110, 185],
    "embedding": [1, 2, 8, 48, 384, 3840, 46080],
    "golden": [None, None, None, 96],
    "inverse": [1, 2, 8, 48, 384, 3840, 46080],
    "roundtrip": [2, 4, 16, 96, 768, 7680, 92160],
    "transition": [0, 2, 18, 176, 2004, 26460, 399576],
    "wtilde": [0, 2, 8, 48, 384, 3840, 46080],
}


def run_checks(*args, max_n=None):
    """Run scripts/run_checks.py under -S, so that it sees only the standard library and the package.

    The inherited EXOTIC_RS_MAX_N is replaced by max_n, if given (see :func:`child_env`).
    PYTHONOPTIMIZE passes through, so the script runs optimized whenever the suite does.
    """
    env = child_env()
    if max_n is not None:
        env["EXOTIC_RS_MAX_N"] = max_n
    return subprocess.run(
        [sys.executable, "-S", str(RUN_CHECKS), *args], capture_output=True, text=True, env=env, timeout=120,
    )


class TestRunChecks:
    def test_json_lines(self):
        done = run_checks("--json")
        assert done.returncode == 0, done.stderr
        *rows, totals = map(json.loads, done.stdout.splitlines())
        assert [(row["property"], row["n"], row["checked"], row["failures"]) for row in rows] == [
            (prop, n, checked, 0)
            for prop, counts in DEFAULT_SWEEP.items() for n, checked in enumerate(counts) if checked is not None
        ]
        assert all(set(row) == {"property", "n", "checked", "failures", "elapsed_s"} for row in rows)
        assert totals == {"properties": 7, "checked": 680580, "failures": 0, "elapsed_s": totals["elapsed_s"]}
        assert totals["elapsed_s"] >= sum(row["elapsed_s"] for row in rows) >= 0

    def test_a_repeated_property_runs_once_in_the_order_first_given(self):
        done = run_checks("-p", "counting", "-p", "golden", "-p", "counting", "--json")
        assert done.returncode == 0, done.stderr
        *rows, totals = map(json.loads, done.stdout.splitlines())
        assert [(row["property"], row["n"]) for row in rows] == [
            *(("counting", n) for n in range(len(DEFAULT_SWEEP["counting"]))), ("golden", 3),
        ]
        assert (totals["properties"], totals["checked"]) == (2, sum(DEFAULT_SWEEP["counting"]) + 96)

    @pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
    def test_a_failure_exits_1_and_is_counted(self, capsys, monkeypatch, flags):
        spec = importlib.util.spec_from_file_location("run_checks", RUN_CHECKS)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        real = script.run_verifier
        monkeypatch.setattr(
            script, "run_verifier",
            lambda prop, n: Report(prop, n, 96, ({"word": "1"},)) if prop == "golden" else real(prop, n),
        )
        monkeypatch.setattr("sys.argv", ["run_checks.py", "-p", "golden", "-p", "counting", *flags])
        assert script.main() == 1
        out = capsys.readouterr().out
        if flags:
            *rows, totals = map(json.loads, out.splitlines())
            assert [row["failures"] for row in rows] == [1] + [0] * len(DEFAULT_SWEEP["counting"])
            assert totals["failures"] == 1
        else:
            assert out.endswith(" 1 FAILURES\n")

    def test_the_size_is_read_from_the_environment_alone(self):
        done = run_checks("-p", "counting", "--max-n", "7")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.endswith("run_checks.py: error: unrecognized arguments: --max-n 7\n")

    def test_a_negative_environment_stops_before_any_property(self):
        # A negative size would leave every budget at its default and quietly run the default sweep.
        done = run_checks("-p", "golden", "-p", "counting", max_n="-1")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: EXOTIC_RS_MAX_N must be >= 0, got '-1'\n"

    def test_malformed_environment_exits_2(self):
        # Exit 1 would mean a property failed.
        done = run_checks("-p", "counting", max_n="abc")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: EXOTIC_RS_MAX_N must be an integer, got 'abc'\n"

    def test_malformed_environment_stops_before_any_property(self):
        # golden runs first and refuses the value before it prints, as every verifier does.
        done = run_checks("-p", "golden", "-p", "counting", max_n="abc")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: EXOTIC_RS_MAX_N must be an integer, got 'abc'\n"


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        code, out, err = invoke(capsys, ["frobnicate"])
        assert (code, out) == (2, "")
        assert "argument command: invalid choice: 'frobnicate'" in err

    def test_no_arguments_exits_2(self, capsys):
        assert invoke(capsys, [])[0] == 2

    # int() also reads non-ASCII digits, underscores and surrounding blanks; sizes do not.
    @pytest.mark.parametrize("argv", [["count", "\u0663"], ["table", "1_0"], ["verify", "golden", " 3"]])
    def test_sizes_read_only_sign_and_ascii_digits(self, capsys, argv):
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert f"argument n: invalid integer: {argv[-1]!r}" in err

    def test_a_plus_sign_is_read_and_a_negative_size_refused(self, capsys):
        assert invoke(capsys, ["count", "+3"])[:2] == invoke(capsys, ["count", "3"])[:2]
        code, out, err = invoke(capsys, ["count", "-1"])
        assert (code, out) == (2, "")
        assert "n must be >= 0" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = invoke(capsys, ["--help"])
        assert code == 0
        assert "insert" in out and "verify" in out

    # A command in argv[0] builds its own subparser only; what the user sees must not tell the two builds apart.
    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["-h", "insert"], ["frobnicate"], ["--json", "table", "2"],
        *([name, "-h"] for name in COMMANDS), *([name] for name in COMMANDS),
        ["insert", "2 -1", "--bogus"], ["insert", "2 -1", "--js"], ["table", "x"], ["table", "2", "extra"],
        ["verify", "golden"], ["bump", "--pair"], ["count", "2"], None,
    ], ids=repr)
    def test_each_command_parses_as_with_every_subparser(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("sys.argv", ["exotic-rs", "count", "x"])  # what run() reads when argv is None
        narrowed = invoke(capsys, argv)
        full_build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full_build())
        assert narrowed == invoke(capsys, argv)

    def test_a_command_in_argv0_builds_its_subparser_alone(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser("table").parse_args(["insert", "2 -1"])
        assert "invalid choice: 'insert'" in capsys.readouterr().err

    def test_import_leaves_out_the_slow_stdlib_modules(self):
        # Every command pays for what `import exotic_rs.cli` imports.  Under -S, `site` imports nothing, so
        # sys.modules holds what the package pulled in.
        slow = ["dataclasses", "inspect", "typing", "importlib.resources", "pathlib", "signal", "json"]
        done = subprocess.run(
            [sys.executable, "-S", "-c", f"import exotic_rs.cli, sys; print(*[m for m in {slow!r} if m in sys.modules])"],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")


def insertion_pair_json(word_text: str) -> dict:
    return insertion(SignedPermutation.from_text(word_text)).to_json()
