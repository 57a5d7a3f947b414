"""Verifier reports, budgets, the frozen n=3 table, and cell decomposition."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
import types
from collections import Counter
from pathlib import Path

import pytest

import exotic_rs
from conftest import child_env, outcome_of_step
from exotic_rs import bitableaux, cli, correspondence, partitions, verify
from exotic_rs import (
    COUNT_BUDGET,
    PAIR_BUDGET,
    WORD_BUDGET,
    Bipartition,
    Bitableau,
    BudgetExceededError,
    CorrespondencePair,
    Partition,
    Report,
    SignedPermutation,
    cells,
    count_bitableaux,
    derive_w_tilde,
    enumerate_bipartitions,
    enumerate_signed_permutations,
    enumerate_standard_bitableaux,
    insertion,
    iter_pairs,
    load_golden_table,
    reverse_bumping_with_trace,
    run_verifier,
    verify_counting,
    verify_embedding,
    verify_golden_n3,
    verify_inverse,
    verify_roundtrip,
    verify_transition,
    verify_wtilde,
)
from exotic_rs.correspondence import ClassificationError, FirstRemoval

SWEEPS = [*sorted(verify.VERIFIERS), "cells"]  # every entry point that enumerates, so every caller of the budget check


def sweep_call(sweep):
    return cells if sweep == "cells" else verify.VERIFIERS[sweep]


class TestPublicNames:
    def test_the_star_import_binds_no_submodule(self):
        # The package's imports bind each submodule as an attribute, which the tests patch through; __all__ leaves them out.
        exported = {}
        exec("from exotic_rs import *", exported)
        assert [name for name in exported if isinstance(exported[name], types.ModuleType)] == []
        assert sorted(set(exported) - {"__builtins__"}) == sorted(exotic_rs.__all__)
        assert all(isinstance(getattr(exotic_rs, name), types.ModuleType) for name in ("bitableaux", "partitions", "verify"))


class TestReport:
    def test_ok_summary(self):
        report = Report("roundtrip", 3, 96)
        assert report.ok
        assert report.summary() == "roundtrip n=3: OK (96 checks)"

    def test_failure_summary_names_the_first_failure(self):
        report = Report("roundtrip", 3, 5, ({"word": "1 2"},))
        assert not report.ok
        assert report.summary() == (
            'roundtrip n=3: FAILED (1 of 5 checks); first failure: {"word": "1 2"}'
        )

    def test_json_form(self):
        report = Report("counting", 2, 5)
        assert report.to_json() == {"property": "counting", "n": 2, "checked": 5, "failures": []}


class TestGoldenTable:
    def test_table_has_48_distinct_rows_covering_all_words(self):
        data = load_golden_table()
        assert data["n"] == 3
        rows = data["rows"]
        assert len(rows) == 48
        words = {SignedPermutation.from_text(row["word"]) for row in rows}
        assert words == set(enumerate_signed_permutations(3))

    def test_table_shapes_fill_each_cell_quadratically(self):
        data = load_golden_table()
        shapes = Counter()
        for row in data["rows"]:
            pair = CorrespondencePair.from_json({"T": row["T"], "R": row["R"]})
            shapes[pair.shape] += 1
        for bp in enumerate_bipartitions(3):
            assert shapes[bp] == count_bitableaux(bp) ** 2

    def test_verifier_checks_both_directions(self):
        report = verify_golden_n3()
        assert report.ok
        assert report.checked == 96

    def test_verifier_is_fixed_at_n3(self):
        with pytest.raises(ValueError, match="fixed at n=3"):
            verify_golden_n3(4)

    @pytest.mark.parametrize("limit", [None, "7", "abc"])
    @pytest.mark.parametrize("n", [-1, 0, 4])
    def test_other_sizes_are_refused_before_the_limit_is_read(self, monkeypatch, n, limit):
        # The budget's refusal would suggest EXOTIC_RS_MAX_N, which cannot make the table another size.
        if limit is not None:
            monkeypatch.setenv("EXOTIC_RS_MAX_N", limit)
        with pytest.raises(ValueError, match=r"\Athe golden table is fixed at n=3\Z"):
            verify_golden_n3(n)

    def test_a_wrong_insertion_is_named_by_its_word(self, monkeypatch):
        real, wrong = verify.insertion, insertion(SignedPermutation.from_text("1 2 3"))
        monkeypatch.setattr(verify, "insertion", lambda w: wrong if w.to_text() == "2 -1 3" else real(w))
        got = {"T": {"left": [[1, 2, 3]], "right": []}, "R": {"left": [[1, 2, 3]], "right": []}}
        assert verify_golden_n3() == Report("golden", 3, 96, ({"word": "2 -1 3", "direction": "insertion", "got": got},))

    def test_a_wrong_reverse_bump_is_named_by_its_word(self, monkeypatch):
        real, target = verify.reverse_bumping, insertion(SignedPermutation.from_text("2 -1 3"))
        monkeypatch.setattr(verify, "reverse_bumping", lambda pair: SignedPermutation((1, 2, 3)) if pair == target else real(pair))
        assert verify_golden_n3() == Report("golden", 3, 96, ({"word": "2 -1 3", "direction": "reverse", "got": "1 2 3"},))

    @pytest.mark.parametrize("change, rows, distinct", [(lambda rows: rows[:-1], 47, 47),
                                                        (lambda rows: [*rows[:-1], rows[0]], 48, 47)], ids=["short", "repeat"])
    def test_a_table_without_48_distinct_words_fails(self, monkeypatch, change, rows, distinct):
        # Every row it keeps passes both directions, so the table record is the one failure.
        table = load_golden_table()
        monkeypatch.setattr(verify, "load_golden_table", lambda: {**table, "rows": change(table["rows"])})
        assert verify_golden_n3() == Report("golden", 3, 2 * rows, ({"direction": "table", "rows": rows, "distinct_words": distinct},))


class TestVerifiers:
    @pytest.mark.parametrize(
        "verifier, n, checked",
        [
            (verify_roundtrip, 2, 16),     # 8 words + 8 pairs
            (verify_inverse, 2, 8),
            (verify_counting, 3, 10),
            (verify_transition, 2, 18),
            (verify_wtilde, 2, 8),
            (verify_embedding, 2, 8),
        ],
    )
    def test_small_sizes_pass_with_exact_check_counts(self, verifier, n, checked):
        report = verifier(n)
        assert report.ok
        assert report.n == n
        assert report.checked == checked

    @pytest.mark.parametrize("verifier", [verify_roundtrip, verify_inverse, verify_wtilde, verify_embedding])
    def test_degenerate_size_zero(self, verifier):
        assert verifier(0).ok

    def test_embedding_keeps_no_image(self):
        # The certificate keeps nothing per word; a memo of the 3,840 images at n = 5 peaks near 0.8 MB.
        assert verify_embedding(5).ok  # warm up
        tracemalloc.start()
        try:
            assert verify_embedding(5).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_an_image_that_does_not_decode_is_looked_up_among_the_images(self, monkeypatch):
        # Each image written backwards is sigma composed with i -> 2n + 1 - i, which commutes with sigma: still
        # one-to-one, mirror symmetric and compatible with inverses.  It does not decode, as it is not the formula's
        # image, so the certificate fails at the first word; the exact pass embeds each word and its inverse, keeps
        # every image, and finds no collision.
        real, embedded = verify._iota_embed, []
        monkeypatch.setattr(verify, "_iota_embed", lambda letters: embedded.append(letters) or real(letters)[::-1])
        assert verify_embedding(3) == Report("embedding", 3, 48)
        assert embedded[:2] == [(1, 2, 3), (1, 2, 3)] and len(embedded) == 1 + 2 * 48

    def test_an_image_off_the_mirror_fails_the_mirror_condition(self, monkeypatch):
        # The image of 2 -1 3 is declared not mirror symmetric.  Only the exact pass asks that, as the certificate compares
        # each image with the formula's; so the first embedding, the certificate's of 1 2 3, is wrong.  The certificate
        # fails at its first word, and the exact pass, which gets every real image, names 2 -1 3 alone.
        real, real_mirror, embedded = verify._iota_embed, verify.is_mirror_symmetric, []

        def embed(letters):
            embedded.append(letters)
            return real(letters)[::-1] if len(embedded) == 1 else real(letters)

        monkeypatch.setattr(verify, "_iota_embed", embed)
        monkeypatch.setattr(verify, "is_mirror_symmetric", lambda sigma: sigma != (1, 4, 2, 5, 3, 6) and real_mirror(sigma))
        record = {"word": "2 -1 3", "image": [1, 4, 2, 5, 3, 6], "reason": "mirror condition"}
        assert verify_embedding(3) == Report("embedding", 3, 48, (record,))
        assert embedded[:2] == [(1, 2, 3), (1, 2, 3)]

    def test_an_image_off_the_mirror_that_decodes_fails_both_inverse_checks(self, monkeypatch):
        # The image of 2 -1 3 with its last two entries swapped: sigma(1..3) is unchanged, so it still decodes, but it
        # is off the mirror, so the certificate fails and the exact pass runs.  Its word and -2 1 3, the word's inverse,
        # each compare their inverse's image with the inverse of their own, and one side of each comparison is the
        # swapped image.  A check that reads only sigma(1..n) of the inverse image would miss -2 1 3.
        real, swapped = verify._iota_embed, (1, 4, 2, 5, 6, 3)
        monkeypatch.setattr(verify, "_iota_embed", lambda letters: swapped if letters == (2, -1, 3) else real(letters))
        assert real((2, -1, 3)) == (1, 4, 2, 5, 3, 6)
        assert verify_embedding(3) == Report("embedding", 3, 48, (
            {"word": "2 -1 3", "image": list(swapped), "reason": "mirror condition"},
            {"word": "2 -1 3", "reason": "inverse not respected"},
            {"word": "-2 1 3", "reason": "inverse not respected"},
        ))

    @pytest.mark.parametrize("image", [(0, 2, 3, 5), (1, 1, 4, 4)])
    def test_an_image_that_is_not_a_permutation_is_named_not_inverted(self, monkeypatch, image):
        # Both images of 2 -1 are mirror symmetric, as their entries sum in mirror pairs; (0, 2, 3, 5) leaves 1..4,
        # which permutation_inverse cannot invert, and (1, 1, 4, 4) repeats entries.  The exact pass names the image and
        # skips its inverse; -2 1, the inverse of 2 -1, compares the faulty image with its own inverse.
        real = verify._iota_embed
        monkeypatch.setattr(verify, "_iota_embed", lambda letters: image if letters == (2, -1) else real(letters))
        assert verify_embedding(2) == direct_embedding(2) == Report("embedding", 2, 8, (
            {"word": "2 -1", "image": list(image), "reason": "not a permutation"},
            {"word": "-2 1", "reason": "inverse not respected"},
        ))

    def test_a_passing_embedding_sweep_embeds_each_word_once(self, monkeypatch):
        # And inverts each word once, in the same order: the mutation matrix's _inverse row relies on that.
        calls, inverted, real, real_inverse = [], [], verify._iota_embed, verify._inverse
        monkeypatch.setattr(verify, "_iota_embed", lambda letters: calls.append(letters) or real(letters))
        monkeypatch.setattr(verify, "_inverse", lambda letters: inverted.append(letters) or real_inverse(letters))
        assert verify_embedding(5).ok
        assert len(calls) == 3840 and calls == inverted == [w.letters for w in enumerate_signed_permutations(5)]

    @pytest.mark.parametrize(
        "image, inverse",
        [
            ("swap_last_two", False),
            ("image_of_identity", False),
            ("reversed", False),
            (None, True),
            # Both at once: the image decodes to 1 2 3 and its inverse to the faulty inverse, so only the decoding of
            # the image itself tells the certificate that the word is wrong.
            ("image_of_identity", True),
        ],
    )
    def test_the_embedding_certificate_hides_no_failure(self, monkeypatch, image, inverse):
        # A fault at one word of size 3, for each of the 48 words: its image is changed, or its inverse is replaced by
        # the inverse of 1 2 3, or both.  The report is the direct evaluation's.  A fault that puts 1 2 3's image or
        # inverse in place of its own changes nothing at 1 2 3; every other case fails.
        real_embed, real_inverse, identity = verify._iota_embed, verify._inverse, (1, 2, 3)
        change = {"swap_last_two": lambda sigma: (*sigma[:-2], sigma[-1], sigma[-2]),
                  "image_of_identity": lambda sigma: real_embed(identity),
                  "reversed": lambda sigma: sigma[::-1],
                  None: lambda sigma: sigma}[image]
        failing = 0
        for w in enumerate_signed_permutations(3):
            with monkeypatch.context() as patch:
                patch.setattr(verify, "_iota_embed",
                              lambda letters: change(real_embed(letters)) if letters == w.letters else real_embed(letters))
                if inverse:
                    patch.setattr(verify, "_inverse", lambda letters: identity if letters == w.letters else real_inverse(letters))
                report = verify_embedding(3)
                assert report == direct_embedding(3), w.to_text()
                failing += not report.ok
        assert failing == (47 if image == "image_of_identity" or inverse else 48)

    def test_transition_builds_no_step_objects_on_passing_steps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a passing step built a trace object")

        for name in ("RemovalStep", "Position", "Partition", "Bipartition", "FirstRemoval",
                     "Continue", "TerminateUnbarred", "TerminateBarred"):
            monkeypatch.setattr(correspondence, name, refuse)
        keys = []
        real = correspondence._classify
        monkeypatch.setattr(correspondence, "_classify", lambda *key: keys.append(key) or real(*key))
        report = verify_transition(4)
        assert report.ok
        assert report.checked == 2004
        # The rule runs once per distinct (mu, nu, c, i).
        assert len(keys) == len(set(keys)) == 60

    def test_passing_pair_checks_build_no_validated_objects(self, monkeypatch):
        for n in range(5):  # warm the tableau cache: its tableaux are validated once, when enumerated
            for bp in enumerate_bipartitions(n):
                enumerate_standard_bitableaux(bp)

        def refuse(self):
            raise AssertionError("a passing check built a validated object")

        monkeypatch.setattr(bitableaux.Bitableau, "__post_init__", refuse)
        monkeypatch.setattr(correspondence.CorrespondencePair, "__post_init__", refuse)
        for verifier, checked in [(verify_roundtrip, 768), (verify_inverse, 384), (verify_wtilde, 384), (verify_transition, 2004)]:
            report = verifier(4)
            assert report.ok
            assert report.checked == checked

    def test_wtilde_walks_each_trie_node_and_reduces_once_per_box_of_n(self, monkeypatch):
        walks = []
        real = correspondence._remove
        monkeypatch.setattr(correspondence, "_remove", lambda *args: walks.append(args) or real(*args))
        assert verify_wtilde(4).ok
        # One walk per distinct (state, box) of the size-4 cells, one _reduce per T and box of n among its cell's R
        # (bump_once's step, apart from the walk's k = n cascade), and one walk per distinct (state, box) of the
        # size-3 cells for the reduced pairs' words.  Once per code-walk node, that was 1216 + 160 + 132; flat,
        # one per (pair, k) and one per (distinct reduced pair, k), 384 * 4 + 48 * 3 = 1680.
        assert len(walks) == 360 + 160 + 66 == 586

    def test_downward_pass_places_each_distinct_move_once(self, monkeypatch):
        places = []
        real = correspondence._place
        monkeypatch.setattr(correspondence, "_place", lambda *args: places.append(args[1]) or real(*args))
        assert verify_roundtrip(4).ok
        # One placement per distinct move of the downward pass, the letter back into the child, by the size of the
        # state it gives back: once per nonempty prefix, that was 8 + 48 + 192 + 384 = 632; flat, 384 * 4 = 1536.
        assert len(places) == 8 + 48 + 144 + 160 == 360

    @pytest.mark.parametrize("verifier", [verify_inverse, verify_roundtrip])
    def test_pair_sweep_walks_each_trie_node_once(self, monkeypatch, verifier):
        walks = []
        real = correspondence._remove
        monkeypatch.setattr(correspondence, "_remove", lambda *args: walks.append(args) or real(*args))
        assert verifier(4).ok
        # One walk per distinct (state, box), by the size of the state it leaves, the mirror image of the
        # placements above; once per node of each T's code walk, that was 1216; flat, one per (pair, k) or per
        # word: 384 * 4 = 1536.
        assert len(walks) == 160 + 144 + 48 + 8 == 360

    def test_one_memo_spans_every_cell_of_a_call(self, monkeypatch):
        # The kernel calls of one call at n = 5, by depth d, read off the size n + 1 - d of the rows a removal
        # starts from and the size d of the rows a placement leaves: once per distinct input, however many cells
        # reach it.  A memo per cell would repeat the deep ones, which tableaux of many shapes share.
        removed, placed = Counter(), Counter()
        real_remove, real_place = correspondence._remove, correspondence._place
        monkeypatch.setattr(correspondence, "_remove", lambda z, *args: removed.update([6 - sum(map(len, z))]) or real_remove(z, *args))
        monkeypatch.setattr(correspondence, "_place", lambda z, *args: placed.update([sum(map(len, z)) + 1]) or real_place(z, *args))
        assert verify_inverse(5).ok
        assert sum(map(len, cells(5).values())) == 3840
        assert [removed[d] for d in range(1, 6)] == [760, 800, 360, 80, 10]
        assert [placed[d] for d in range(1, 6)] == [10, 80, 360, 800, 760]
        assert sum(removed.values()) == sum(placed.values()) == 2010

    def test_run_verifier_by_name(self):
        assert run_verifier("golden", 3).ok
        assert run_verifier("counting", 4).ok

    def test_run_verifier_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown property"):
            run_verifier("nope", 3)


class TestRoundtripByCounting:
    def test_pair_half_runs_nothing_when_every_word_passes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the pair half ran although every word passed")

        for module in (correspondence, verify):
            for name in ("_insert", "insertion", "reverse_bumping"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        report = verify_roundtrip(4)
        assert report.ok
        assert report.checked == 768


class TestDownwardPass:
    """Roundtrip and transition certified by one pass down the distinct states that removal reaches."""

    def test_each_distinct_move_runs_its_kernels_once(self, monkeypatch):
        # By depth d, read off the size n + 1 - d of the state a move leaves, which a placement gives back: the same
        # distinct moves as the walk of inverse (test_one_memo_spans_every_cell_of_a_call).
        removed, placed = Counter(), Counter()
        real_remove, real_place = correspondence._remove, correspondence._place
        monkeypatch.setattr(correspondence, "_remove", lambda z, *args: removed.update([6 - sum(map(len, z))]) or real_remove(z, *args))
        monkeypatch.setattr(correspondence, "_place", lambda z, *args: placed.update([5 - sum(map(len, z))]) or real_place(z, *args))
        assert verify_roundtrip(5).ok
        assert [removed[d] for d in range(1, 6)] == [placed[d] for d in range(1, 6)] == [760, 800, 360, 80, 10]
        removed.clear(), placed.clear()
        assert verify_transition(5).ok
        assert [removed[d] for d in range(1, 6)] == [760, 800, 360, 80, 10] and not placed

    def test_past_the_default_budget(self, monkeypatch):
        monkeypatch.setenv("EXOTIC_RS_MAX_N", "7")
        assert verify_roundtrip(7) == Report("roundtrip", 7, 1_290_240)  # 2^7 * 7! words and as many pairs
        assert verify_transition(7) == Report("transition", 7, 6_807_360)

    def test_a_wrong_hook_count_moves_no_transition_count(self, monkeypatch):
        # count_bitableaux now disagrees with the cells of shapes holding (2, 1), so transition checks pair by pair.
        real = partitions._hook_count
        monkeypatch.setattr(partitions, "_hook_count", lambda parts: 3 if parts == (2, 1) else real(parts))
        assert verify_transition(4) == Report("transition", 4, 2004)

    @pytest.mark.parametrize("change", ["repeat", "drop"])
    def test_a_cell_that_is_not_exactly_its_shape_is_not_certified(self, change):
        # The pass takes the checked cells (TestCellCheck) as its premise, so it certifies nothing when one of size 4
        # repeats a tableau or lacks one; the verifiers then check every pair flat.
        tables = list(verify._cell_tables(4))
        assert verify._descend(4, tables) == 0 and verify._descend(4, tables, {}) == 2004
        s = next(s for s, (_, rows, _, _) in enumerate(tables) if len(rows) > 1)
        edit = {"repeat": lambda seq: (seq[0], *seq[:-1]), "drop": lambda seq: seq[1:]}[change]
        tables[s] = tuple(map(edit, tables[s]))
        assert verify._descend(4, tables) is None and verify._descend(4, tables, {}) is None


class TestMutationMatrix:
    """One-point corruptions at n = 3 of the private functions that the verifiers claim to check: each
    verifier that claims a function fails, naming the corrupted case, and no other verifier fails."""

    @pytest.mark.parametrize(
        "module, name, point, value, failing",
        [
            (verify, "_w_tilde", (2, -1, 3), ((-2, -1), 3),
             {"wtilde": [{"word": "2 -1 3", "reduced_word": "2 -1", "expected_reduced": "-2 -1"}]}),
            (verify, "_inverse", (2, -1, 3), (2, 1, 3),
             {"inverse": [{"word": "2 -1 3", "swapped_word": "-2 1 3"}],
              "embedding": [{"word": "2 -1 3", "reason": "inverse not respected"}]}),
            # The image of 1 2 3, which comes first; and 2 -1 3 is the inverse of -2 1 3.
            (verify, "_iota_embed", (2, -1, 3), (1, 2, 3, 4, 5, 6),
             {"embedding": [{"word": "2 -1 3", "collides_with": "1 2 3"},
                            {"word": "2 -1 3", "reason": "inverse not respected"},
                            {"word": "-2 1 3", "reason": "inverse not respected"}]}),
            (partitions, "_hook_count", (2, 1), 3,
             {"counting": [{"sum_of_squares": 48 + 2 * (3 * 3 - 2 * 2), "group_order": 48}]}),
        ],
    )
    def test_each_claimed_function_is_caught(self, monkeypatch, module, name, point, value, failing):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda arg: value if arg == point else real(arg))
        for prop in ("roundtrip", "inverse", "counting", "transition", "wtilde", "embedding"):
            failures = run_verifier(prop, 3).failures
            expected = failing.get(prop, [])
            assert len(failures) == len(expected), prop
            for got, want in zip(failures, expected):
                assert want.items() <= got.items(), prop

    def test_cells_refuses_a_pair_outside_the_enumeration(self, monkeypatch, capsys):
        # Shape ((1, 1), (1,)) lists its first tableau in place of its second: the words whose T or R is the
        # dropped tableau insert to a valid pair that no cell lists.
        real, shape = bitableaux._enumerate, ((1, 1), (1,))
        first, _, *rest = real(*shape)
        monkeypatch.setattr(bitableaux, "_enumerate", lambda mu, nu: (first, first, *rest) if (mu, nu) == shape else real(mu, nu))
        with pytest.raises(ValueError, match=r"^word '[-0-9 ]+': pair outside the enumeration$"):
            cells(3)
        assert cli.run(["cells", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "pair outside the enumeration" in err

    @pytest.mark.parametrize("shape", [((1, 1), (1,)), ((2, 1), ())], ids=["one_of_three", "both_of_two"])
    def test_enumerate_is_caught(self, monkeypatch, shape):
        # One size-3 shape lists its first tableau in place of its second: one of three, or both of its two.  The patch
        # builds a new tuple and leaves the cached one alone; the n = 3 verifiers enumerate no size-4 shape, so no cache
        # entry is built through it.
        real = bitableaux._enumerate
        first, dropped, *rest = real(*shape)
        monkeypatch.setattr(bitableaux, "_enumerate", lambda mu, nu: (first, first, *rest) if (mu, nu) == shape else real(mu, nu))
        reports = {prop: run_verifier(prop, 3) for prop in ("roundtrip", "inverse", "counting", "transition", "wtilde", "embedding")}
        assert {prop for prop, report in reports.items() if report.failures} == {"roundtrip"}
        # Roundtrip names each word whose T or R was dropped: it comes back, but its pair lies outside the enumeration.
        reached = [w.to_text() for w in enumerate_signed_permutations(3) if dropped in (insertion(w).T, insertion(w).R)]
        assert reports["roundtrip"].failures == tuple(
            {"word": w, "came_back_as": w, "reason": "pair outside the enumeration"} for w in reached)
        assert len(reached) == 2 * (len(rest) + 2) - 1
        # The cell's trie gives the listed-twice tableau a leaf of its own, so inverse, transition and wtilde check each
        # listed pair, as the direct evaluations do; a repeated pair passes their checks.  Wtilde reads each pair's reduced
        # word at its own reduced T and R, so the pairs of the listed-twice tableau reduce as they do by themselves.
        for prop, direct in (("inverse", direct_inverse), ("transition", direct_transition), ("wtilde", direct_wtilde)):
            assert (reports[prop].checked, []) == direct(3)


class TestBudgets:
    def test_pair_verifiers_refuse_beyond_budget(self):
        with pytest.raises(BudgetExceededError, match="set EXOTIC_RS_MAX_N"):
            verify_roundtrip(PAIR_BUDGET + 1)

    def test_word_verifiers_refuse_beyond_budget(self):
        with pytest.raises(BudgetExceededError):
            verify_embedding(WORD_BUDGET + 1)

    def test_count_verifiers_refuse_beyond_budget(self):
        with pytest.raises(BudgetExceededError):
            verify_counting(COUNT_BUDGET + 1)

    def test_environment_variable_raises_the_limit(self, monkeypatch):
        monkeypatch.setenv("EXOTIC_RS_MAX_N", str(COUNT_BUDGET + 1))
        assert verify_counting(COUNT_BUDGET + 1).ok

    def test_environment_variable_cannot_lower_the_limit(self, monkeypatch):
        monkeypatch.setenv("EXOTIC_RS_MAX_N", "1")
        assert verify_counting(COUNT_BUDGET).ok

    # Every entry point reads the variable through the one budget check, and refuses a bad value at a size within the
    # default budget, before it runs: golden too, though no value of the variable changes what it checks.
    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_malformed_environment_variable_is_rejected(self, monkeypatch, sweep):
        monkeypatch.setenv("EXOTIC_RS_MAX_N", "plenty")
        with pytest.raises(ValueError, match=r"\AEXOTIC_RS_MAX_N must be an integer, got 'plenty'\Z"):
            sweep_call(sweep)(3)

    @pytest.mark.parametrize("sweep", SWEEPS)
    @pytest.mark.parametrize("value", ["1_0", "\u0669", " 9"])
    def test_only_ascii_integers_are_read_from_the_environment(self, monkeypatch, value, sweep):
        # The rule of the word parser: an optional sign and ASCII digits.
        monkeypatch.setenv("EXOTIC_RS_MAX_N", value)
        with pytest.raises(ValueError, match=rf"\AEXOTIC_RS_MAX_N must be an integer, got {re.escape(repr(value))}\Z"):
            sweep_call(sweep)(3)

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_negative_environment_variable_is_rejected(self, monkeypatch, sweep):
        # It would leave every budget at its default, so a run would quietly check no more than without it.
        monkeypatch.setenv("EXOTIC_RS_MAX_N", "-1")
        with pytest.raises(ValueError, match=r"\AEXOTIC_RS_MAX_N must be >= 0, got '-1'\Z"):
            sweep_call(sweep)(3)

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_signed_environment_variable_is_accepted(self, monkeypatch, sweep):
        # Counting, the one sweep cheap past its default budget, shows that the signed value raises it.
        n = COUNT_BUDGET + 1 if sweep == "counting" else 3
        monkeypatch.setenv("EXOTIC_RS_MAX_N", f"+{n}")
        result = sweep_call(sweep)(n)
        assert result.ok if sweep != "cells" else sum(map(len, result.values())) == 2**n * math.factorial(n)

    def test_negative_sizes_are_rejected(self):
        with pytest.raises(ValueError):
            verify_roundtrip(-1)

    @pytest.mark.parametrize("n", [True, False, 1.5, 2.0, "3"], ids=repr)
    def test_sizes_are_exact_integers(self, n):
        # Unrefused, a bool would reach the report as "n": true, and a float would raise TypeError from range; golden
        # would check its n = 3 table for 3.0 and report "n": 3.
        for prop in ("golden", "roundtrip", "inverse", "counting", "transition", "wtilde", "embedding"):
            with pytest.raises(ValueError, match=rf"\An must be an integer, got {re.escape(repr(n))}\Z"):
                run_verifier(prop, n)
        with pytest.raises(ValueError, match=rf"\An must be an integer, got {re.escape(repr(n))}\Z"):
            cells(n)


class TestCells:
    @pytest.mark.parametrize("n", range(4))
    def test_cells_partition_the_group(self, n):
        decomposition = cells(n)
        assert list(decomposition) == enumerate_bipartitions(n)
        members = [w for cell in decomposition.values() for w in cell]
        assert len(members) == len(set(members)) == 2**n * math.factorial(n)
        assert set(members) == set(enumerate_signed_permutations(n))

    @pytest.mark.parametrize("n", range(4))
    def test_each_cell_is_quadratic_in_the_shape_count(self, n):
        for bp, cell in cells(n).items():
            assert len(cell) == count_bitableaux(bp) ** 2
            assert all(insertion(w).shape == bp for w in cell)

    @pytest.mark.parametrize("n", range(6))
    def test_carried_word_sweep_agrees_with_flat_insertion(self, n):
        # The word sweep carries each prefix's state and R's box rows down the enumeration; the oracle inserts every
        # word by itself through the public insertion and groups the pairs by shape.
        oracle = {bp: [] for bp in enumerate_bipartitions(n)}
        for w in enumerate_signed_permutations(n):
            pair = insertion(w)
            oracle[pair.shape].append((w.letters, pair.T, pair.R))
        assert list(verify._group_by_shape(n, lambda letters, T, R: (letters, T, R)).items()) == list(oracle.items())

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_the_word_sweep_leaves_no_cycle_behind(self, sweep):
        # A recursion that refers to itself, as a nested one does, lives in a cycle: unless it is deleted after the
        # sweep, its memo or buffers outlive the call until the collector runs.
        call, n = sweep_call(sweep), 3 if sweep == "golden" else 5
        call(n)
        gc.collect()
        gc.disable()
        try:
            call(n)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "n, prefix, letter, row, word",
        [
            # Placing 1 into the T of -2 3 gives row 1; 3 -2 reaches that T too, later.
            (4, (-2, 3), 1, 2, "-2 3 1 4"),
            # Placing 4 into the T of 2 -1 gives row 0; the prefix -1 2 reaches that T first.
            (4, (2, -1), 4, 1, "-1 2 4 3"),
            (5, (3, -1, 2), -4, 4, "-1 3 2 -4 5"),
            # Rows that no box of size n has, past the last one or negative, name no R: read as digits of base 2n,
            # these would carry into or borrow from the row of the letter before and name another R of the same cell.
            (2, (2,), 1, 4, "2 1"),
            (3, (1, -3), -2, -4, "1 -3 -2"),
        ],
    )
    def test_a_wrong_row_is_refused_at_the_first_word_through_it(self, monkeypatch, n, prefix, letter, row, word):
        # The first placement of the letter into the prefix's T gives a wrong row: the sweep's memo keeps it for every
        # word through that move, while the public insertion that names the refused word gets the right one.  The
        # flat sweep of each word from the empty T refused the same first word.
        state, real, corrupted = correspondence._insert(prefix)[0], correspondence._place, []

        def corrupt(z, placed, steps):
            hit = not corrupted and placed == letter and correspondence._frozen(z) == state
            m = real(z, placed, steps)
            if hit:
                assert m != row
                corrupted.append(m)
                return row
            return m

        monkeypatch.setattr(correspondence, "_place", corrupt)
        with pytest.raises(ValueError, match=rf"^word '{word}': pair outside the enumeration$"):
            cells(n)
        assert len(corrupted) == 1


class TestPairEnumeration:
    """iter_pairs yields the pairs of the cells that verify._cell_tables checks, once per tableau as its table is built
    (TestCellCheck), unchecked: the same values, in the same order, as one validated pair each."""

    @pytest.mark.parametrize("n", range(6))
    def test_each_pair_is_the_validated_pair_in_order(self, n):
        assert list(iter_pairs(n)) == [CorrespondencePair(t, r) for cell in verify._cells(n) for t in cell for r in cell]

    @pytest.mark.parametrize("n, tableaux", [(0, 1), (1, 2), (2, 6), (3, 20), (4, 76), (5, 312)])
    def test_one_pair_check_per_tableau(self, monkeypatch, n, tableaux):
        # The pairs' check is the cell check: from cold tables, one reading of each tableau's boxes, and no validated pair.
        monkeypatch.setattr(verify, "_tables", {})
        read, boxes = [], verify._boxes
        monkeypatch.setattr(verify, "_boxes", lambda R: read.append(R) or boxes(R))
        monkeypatch.setattr(correspondence.CorrespondencePair, "__post_init__", lambda self: pytest.fail("a pair was checked"))
        pairs = list(iter_pairs(n))
        assert len(read) == tableaux == sum(map(len, verify._cells(n)))
        assert len(pairs) == 2**n * math.factorial(n)


class TestCellCheck:
    """The one check of the enumerated cells, made where verify._cell_tables builds a cell's table.  The last cell of
    size 3, mu=[];nu=[3] with one tableau t, is patched four ways; every consumer of the cells raises one ValueError that
    names the cell and the refused tableau, and none yields a pair of that cell or gives a report."""

    @staticmethod
    def bad_cell(kind: str) -> tuple[tuple, Bitableau]:
        """The patched cell and the tableau it is refused for."""
        (first, *_), *_, (t,) = verify._cells(3)
        padded = Bitableau(*(tuple(tuple(x + (x == 3) for x in row) for row in rows) for rows in (t.left, t.right)))
        smaller = list(verify._cells(2))[-1][-1]
        return {"other_shape": ((t, first), first),  # a tableau of another shape of the same size
                "replaced": ((first,), first),  # the first cell's tableau in place of t
                "padded": ((t, padded), padded),  # t with 4 in place of 3: no box of 3
                "smaller": ((smaller,), smaller)}[kind]  # a standard tableau of size 2

    @pytest.mark.parametrize("consumer", ["iter_pairs", "cells", "table", "roundtrip", "inverse", "transition", "wtilde"])
    @pytest.mark.parametrize("kind", ["other_shape", "replaced", "padded", "smaller"])
    def test_a_bad_cell_is_refused_before_any_of_its_pairs(self, monkeypatch, capsys, kind, consumer):
        good = [CorrespondencePair(t, r) for cell in list(verify._cells(3))[:-1] for t in cell for r in cell]
        real = verify._cells
        cell, refused = self.bad_cell(kind)
        monkeypatch.setattr(verify, "_cells", lambda n: [*list(real(n))[:-1], cell] if n == 3 else real(n))
        message = f"cell mu=[];nu=[3] of size 3 lists {refused!r}, not a standard tableau of its shape"
        if consumer == "table":
            assert cli.run(["table", "3"]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
            return
        with pytest.raises(ValueError) as caught:
            if consumer == "iter_pairs":
                pairs = iter_pairs(3)
                assert [next(pairs) for _ in good] == good  # the 47 pairs of the cells before the bad one
                next(pairs)
            else:
                sweep_call(consumer)(3)
        assert str(caught.value) == message


# -- tables kept for the process ---------------------------------------------------
#
# verify._cell_tables keeps each cell's rows, box rows and states, its one table, for the
# life of the process, and reuses them only for the very cell tuple they were
# built from.  Nothing a kernel computes is kept: every call runs its own
# insertions, walks and classifications.


def sweep_results(n: int) -> dict:
    """Every pair verifier's report at size n, as JSON, and the cells of size n as text, or the error they raise."""
    results = {prop: run_verifier(prop, n).to_json() for prop in ("roundtrip", "inverse", "transition", "wtilde")}
    try:
        results["cells"] = {bp.to_text(): [w.to_text() for w in words] for bp, words in cells(n).items()}
    except ValueError as err:
        results["cells"] = str(err)
    return results


def patched_enumeration_results(shape=((1, 1), (1,))) -> dict:
    """:func:`sweep_results` at n = 3 and 4 while the cell of ``shape`` lists its first tableau in place of its
    second, as in test_enumerate_is_caught.  Every shape of size <= 4 is enumerated first, so that no entry of
    the enumeration's cache is built through the patch."""
    for n in range(5):
        for bp in enumerate_bipartitions(n):
            enumerate_standard_bitableaux(bp)
    real = bitableaux._enumerate
    first, _, *rest = real(*shape)
    bitableaux._enumerate = lambda mu, nu: (first, first, *rest) if (mu, nu) == shape else real(mu, nu)
    try:
        return json.loads(json.dumps({f"{prop} {n}": result for n in (3, 4) for prop, result in sweep_results(n).items()}))
    finally:
        bitableaux._enumerate = real


class TestTablesHideNoFault:
    def test_warm_tables_report_a_changed_enumeration_as_a_cold_process_does(self):
        for n in (3, 4):  # build every table of sizes 2 to 4 from the real enumeration
            assert all(result["failures"] == [] for prop, result in sweep_results(n).items() if prop != "cells")
        warm = patched_enumeration_results()
        script = "import json, sys; sys.path.insert(0, sys.argv[1]); import test_verify; print(json.dumps(test_verify.patched_enumeration_results()))"
        done = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                              capture_output=True, text=True, env=child_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        assert warm == json.loads(done.stdout)
        # The patch is seen: roundtrip names the words of the dropped tableau, and cells refuses them.
        assert warm["roundtrip 3"]["failures"] and warm["cells 3"].endswith("pair outside the enumeration")
        # And with the real enumeration back, the tables built from it serve again.
        assert all(result["failures"] == [] for prop, result in sweep_results(3).items() if prop != "cells")

    @pytest.mark.parametrize("n", range(6))
    def test_every_verifier_called_twice_gives_one_report(self, n):
        for prop in (prop for prop in verify.VERIFIERS if n == 3 or prop != "golden"):  # golden is fixed at n = 3
            assert run_verifier(prop, n).to_json() == run_verifier(prop, n).to_json(), prop
        assert cells(n) == cells(n)

    def test_each_cell_is_built_once_and_every_call_walks_its_own_cascades(self, monkeypatch):
        monkeypatch.setattr(verify, "_tables", {})
        coded, walks = [], []
        real_boxes, real_remove = verify._boxes, correspondence._remove
        monkeypatch.setattr(verify, "_boxes", lambda R: coded.append(R) or real_boxes(R))
        monkeypatch.setattr(correspondence, "_remove", lambda *args: walks.append(None) or real_remove(*args))
        per_round = []
        for _ in range(2):
            for verifier in (verify_roundtrip, verify_inverse, verify_transition, verify_wtilde):
                assert verifier(4).ok
            per_round.append(len(walks) - sum(per_round))
            # One table per cell of size 4, and of size 3 for wtilde's reduced pairs, however many calls use it:
            # 30 builds, each reading the box rows of every tableau of its cell once.
            assert len(verify._tables) == len(enumerate_bipartitions(4)) + len(enumerate_bipartitions(3)) == 30
            assert coded == [(t.left, t.right) for n in (4, 3) for cell in verify._cells(n) for t in cell]
        assert per_round[0] == per_round[1] > 0


# -- memos hide no failure ---------------------------------------------------------
#
# Direct, unmemoized evaluations of the pair verifiers: every check computes
# its bumps and classifications afresh, through the public wrappers.  These
# reach the one-letter step correspondence._place and the one-cascade step
# _remove, which the verifiers' sweeps and walks call too (and the classifier
# through correspondence._classify, which both second_decrement and the
# transition check call), so a step patched there is seen by both.


def direct_roundtrip(n):
    failures, checked = [], 0
    for w in enumerate_signed_permutations(n):
        back = correspondence.reverse_bumping(correspondence.insertion(w))
        checked += 1
        if back != w:
            failures.append({"word": w.to_text(), "came_back_as": back.to_text()})
    for pair in iter_pairs(n):
        again = correspondence.insertion(correspondence.reverse_bumping(pair))
        checked += 1
        if again != pair:
            failures.append({"pair": pair.to_json(), "came_back_as": again.to_json()})
    return checked, failures


def direct_inverse(n):
    failures, checked = [], 0
    for pair in iter_pairs(n):
        straight = correspondence.reverse_bumping(pair)
        swapped = correspondence.reverse_bumping(pair.swapped())
        checked += 1
        if swapped != straight.inverse():
            failures.append({"pair": pair.to_json(), "word": straight.to_text(), "swapped_word": swapped.to_text()})
    return checked, failures


def direct_transition(n):
    failures, checked = [], 0
    for pair in iter_pairs(n):
        for record in correspondence.reverse_bumping_with_trace(pair)[1]:
            for step in record.steps:
                checked += 1
                where = {"pair": pair.to_json(), "k": record.k, "step": step.to_json()}
                try:
                    predicted = correspondence.second_decrement(step.shape, FirstRemoval(step.source.side, step.source.row))
                except ClassificationError as err:
                    failures.append({**where, "error": str(err)})
                    continue
                if predicted != outcome_of_step(step):
                    failures.append({**where, "predicted": repr(predicted)})
    return checked, failures


def direct_wtilde(n):
    failures, checked = [], 0
    for pair in iter_pairs(n):
        if pair.size == 0:
            continue
        word = correspondence.reverse_bumping(pair)
        reduced, letter, r = correspondence.bump_once(pair)
        wt, r2 = derive_w_tilde(word)
        checked += 1
        if letter != word.letters[-1] or r != r2 or correspondence.reverse_bumping(reduced) != wt:
            failures.append(
                {
                    "pair": pair.to_json(),
                    "word": word.to_text(),
                    "letter": letter,
                    "reduced_word": correspondence.reverse_bumping(reduced).to_text(),
                    "expected_reduced": wt.to_text(),
                }
            )
    return checked, failures


def direct_embedding(n):
    # Every image kept, each inverse embedded again; through verify's names, so that a patch there reaches this too.
    failures, images = [], {}
    for w in enumerate_signed_permutations(n):
        sigma = verify._iota_embed(w.letters)
        if not verify.is_mirror_symmetric(sigma):
            failures.append({"word": w.to_text(), "image": list(sigma), "reason": "mirror condition"})
        if sigma in images:
            failures.append({"word": w.to_text(), "collides_with": images[sigma].to_text()})
        images[sigma] = w
        if sorted(sigma) != list(range(1, 2 * n + 1)):
            failures.append({"word": w.to_text(), "image": list(sigma), "reason": "not a permutation"})
        elif verify._iota_embed(verify._inverse(w.letters)) != verify.permutation_inverse(sigma):
            failures.append({"word": w.to_text(), "reason": "inverse not respected"})
    return Report("embedding", n, 2**n * math.factorial(n), tuple(failures))


MEMOIZED_AND_DIRECT = [
    (verify_roundtrip, direct_roundtrip),
    (verify_inverse, direct_inverse),
    (verify_transition, direct_transition),
    (verify_wtilde, direct_wtilde),
]


def failures_against_direct(sizes=(3, 4)) -> dict:
    """Run every pair verifier at each size, require the same check count
    and the same failures in the same order as the direct evaluation, and
    return the number of failures by (verifier, n)."""
    seen = {}
    for memoized, direct in MEMOIZED_AND_DIRECT:
        for n in sizes:
            report = memoized(n)
            assert (report.checked, list(report.failures)) == direct(n), (memoized.__name__, n)
            seen[memoized.__name__, n] = len(report.failures)
    return seen


class TestMemosHideNoFailure:
    def test_unpatched_runs_agree_and_pass(self):
        assert set(failures_against_direct().values()) == {0}

    @pytest.mark.parametrize(
        "word, failing",
        [
            # The prefixes -1 2 4 and 2 4 -1 insert to the T of 2 -1 4, with other R.
            ("2 -1 4 3", {4: ["-1 2 4 3", "2 -1 4 3", "2 4 -1 3"]}),
            # -2 3 and 3 -2 insert to one T; the size-4 words that extend them place their 1 at that T.
            ("-2 3 1", {3: ["-2 3 1", "3 -2 1"], 4: ["-2 3 1 4", "-2 3 1 -4", "3 -2 1 4", "3 -2 1 -4"]}),
        ],
    )
    def test_one_corrupt_insertion(self, monkeypatch, word, failing):
        # The last letter is placed with the other bar at the T the first n - 1 letters reach.  _place sees
        # T alone, so every word whose first n - 1 letters reach that T and whose last letter is the target's
        # is corrupted.
        target = SignedPermutation.from_text(word).letters
        state = correspondence._insert(target[:-1])[0]
        real = correspondence._place

        def corrupt(t, letter, steps):
            if letter == target[-1] and correspondence._frozen(t) == state:
                letter = -letter
            return real(t, letter, steps)

        monkeypatch.setattr(correspondence, "_place", corrupt)
        seen = failures_against_direct()
        # Each corrupt word fails, and so does each pair nothing inserts to any more: one per corrupt word.
        assert {key: count for key, count in seen.items() if count} == {("verify_roundtrip", n): 2 * len(words) for n, words in failing.items()}
        for n, words in failing.items():
            assert [f["word"] for f in verify_roundtrip(n).failures if "word" in f] == words

    @pytest.mark.parametrize(
        "word, depth, corrupt_pairs, failing",
        [
            # The k = n cascade: 3 pairs; their swaps fail too, one of them (T, T).  wtilde compares the letter with itself.
            ("2 -1 4 3", 1, 3, {("verify_roundtrip", 4): 2 * 3, ("verify_inverse", 4): 5}),
            # The k = n - 1 cascade: 2 pairs, and 2 more whose k = n cascade leaves another T in the same rows;
            # one of the 4 is (T, T).  bump_once emits 3 and relabels the rows, so the reduced pairs are sound.
            ("2 -1 4 3", 2, 2, {("verify_roundtrip", 4): 2 * 4, ("verify_inverse", 4): 2 * 4 - 1, ("verify_wtilde", 4): 4}),
            # 2 pairs at size 3.  At size 4, the 2 * 2 pairs that emit 4 or -4 first pass through the same
            # state, and 6 * 2 pairs reduce to a corrupt pair without passing through it.
            ("-2 3 1", 1, 2, {("verify_roundtrip", 3): 2 * 2, ("verify_inverse", 3): 3, ("verify_roundtrip", 4): 2 * 4,
                              ("verify_inverse", 4): 6, ("verify_wtilde", 4): 6 * 2}),
            # The k = n - 1 cascade: 1 pair, and 1 more from another T, at size 3; 8 pairs of size 4 pass through
            # it at their third cascade.  wtilde fails where just one of a pair's word and its reduced pair's
            # word is corrupt: of the 8 and of the 8 * 2 pairs that reduce to a corrupt pair, 2 * 2 are both.
            ("-2 3 1", 2, 1, {("verify_roundtrip", 3): 2 * 2, ("verify_inverse", 3): 2 * 2, ("verify_wtilde", 3): 2,
                              ("verify_roundtrip", 4): 2 * 8, ("verify_inverse", 4): 2 * 8, ("verify_wtilde", 4): 8 + 8 * 2 - 2 * 2 * 2}),
        ],
    )
    def test_one_corrupt_reverse_bump(self, monkeypatch, word, depth, corrupt_pairs, failing):
        # The letter of the target pair's cascade at this depth, k = n + 1 - depth, comes out with the other bar:
        # one node of its cell's trie, the rows that the cascades before it leave and the combined row of the box of k,
        # which the corrupt pairs share.
        target = insertion(SignedPermutation.from_text(word))
        path = lambda R: [correspondence._boxes((R.left, R.right))[target.size - d] for d in range(depth)]
        t = correspondence._rows((target.T.left, target.T.right))
        for m in path(target.R)[:-1]:
            correspondence._remove(t, m, None)
        node = (correspondence._frozen(t), path(target.R)[-1])
        assert sum(path(R) == path(target.R) for R in enumerate_standard_bitableaux(target.shape)) == corrupt_pairs
        real = correspondence._remove

        def corrupt(t, m, hops):
            hit = (correspondence._frozen(t), m) == node
            letter = real(t, m, hops)
            return -letter if hit else letter

        monkeypatch.setattr(correspondence, "_remove", corrupt)
        seen = failures_against_direct()
        assert {key: count for key, count in seen.items() if count} == failing

    def test_one_corrupt_reverse_bump_that_two_cells_reach(self, monkeypatch):
        # The cascade from the rows ((1, 2, 3),), () out of the first left row: at size 4 it is the k = 3 cascade
        # of pairs of shapes ((3, 1), ()) and ((4,), ()), whose k = 4 cascades leave those rows, so the one memo of
        # a call runs it once for both cells; at size 3 it is the k = 3 cascade of the one-row T.
        node = ((((1, 2, 3),), ()), 0)
        real = correspondence._remove

        def corrupt(t, m, hops):
            hit = (correspondence._frozen(t), m) == node
            letter = real(t, m, hops)
            return -letter if hit else letter

        monkeypatch.setattr(correspondence, "_remove", corrupt)
        seen = failures_against_direct()
        assert {key: count for key, count in seen.items() if count} == {("verify_roundtrip", 3): 2, ("verify_roundtrip", 4): 4,
                                                                        ("verify_wtilde", 4): 6}
        shapes = {CorrespondencePair.from_json(f["pair"]).shape for f in verify_roundtrip(4).failures if "pair" in f}
        assert shapes == {Bipartition(Partition((3, 1))), Bipartition(Partition((4,)))}

    def test_wrong_reduced_tableau_of_the_right_shape(self, monkeypatch):
        # bump_once's step on R hands back each reduced R mirrored in its shape's canonical order.
        cells = {}
        for shape in (*enumerate_bipartitions(2), *enumerate_bipartitions(3)):
            cell = [(t.left, t.right) for t in enumerate_standard_bitableaux(shape)]
            cells.update(zip(cell, reversed(cell)))
        real = correspondence._drop
        monkeypatch.setattr(correspondence, "_drop", lambda R, n: cells.get(dropped := real(R, n), dropped))
        seen = failures_against_direct()
        # A pair fails when its reduced R moves: then its reduced word is another pair's.  R stays put only
        # as the middle one of an odd cell, in 4 of the 8 pairs of size 2 and 16 of the 48 of size 3, and
        # each pair of size n - 1 is the reduction of 2n pairs of size n.
        assert {key: count for key, count in seen.items() if count} == {("verify_wtilde", 3): 2 * 3 * (8 - 4),
                                                                        ("verify_wtilde", 4): 2 * 4 * (48 - 16)}

    def test_one_wrong_reduced_tableau(self, monkeypatch):
        # bump_once's step on R hands back, for the last R of size 4 whose reduced R is the first tableau of its cell,
        # that cell's second tableau: each pair of that R reads another pair's reduced word, and no other pair does.
        first, second, *_ = ((t.left, t.right) for t in enumerate_standard_bitableaux(Bipartition(Partition((2,)), Partition((1,)))))
        real = correspondence._drop
        target = [R for cell in verify._cells(4) for t in cell if real(R := (t.left, t.right), 4) == first][-1]
        monkeypatch.setattr(correspondence, "_drop", lambda R, n: second if R == target else real(R, n))
        seen = failures_against_direct()
        listed = next(len(cell) for cell in verify._cells(4) if any((t.left, t.right) == target for t in cell))
        assert {key: count for key, count in seen.items() if count} == {("verify_wtilde", 4): listed}
        assert {CorrespondencePair.from_json(f["pair"]).R for f in verify_wtilde(4).failures} == {Bitableau(*target)}

    @staticmethod
    def corrupt_two_keys(monkeypatch) -> tuple[Counter, tuple, tuple]:
        """Patch _classify to answer one key wrongly and another not at all; returns the keys' step counts
        at size 4 and the two keys."""
        # Keys in _classify's terms: (mu, nu, component, 0-based row) of the box a step leaves.
        steps = Counter(
            (step.shape.mu.parts, step.shape.nu.parts, correspondence._SIDES.index(step.source.side), step.source.row - 1)
            for pair in iter_pairs(4)
            for record in reverse_bumping_with_trace(pair)[1]
            for step in record.steps
        )
        wrong, unclassifiable = [key for key, count in steps.most_common() if count > 1][1:3]
        real = correspondence._classify

        def patched(*key):
            if key == unclassifiable:
                return None
            answer = real(*key)
            if key == wrong:
                return answer is False  # barred becomes unbarred, anything else barred
            return answer

        monkeypatch.setattr(correspondence, "_classify", patched)
        return steps, wrong, unclassifiable

    @staticmethod
    def box_of_n(pair: CorrespondencePair) -> tuple:
        """The rows of T and the combined row of n in R: the node bump_once's step starts from."""
        return (pair.T.left, pair.T.right), correspondence._boxes((pair.R.left, pair.R.right))[pair.size]

    def corrupt_reduced_letter(self, monkeypatch, word: str) -> tuple:
        """Patch _reduce to emit the other bar at the node of the word's pair; returns that node."""
        node = self.box_of_n(insertion(SignedPermutation.from_text(word)))
        real = correspondence._reduce

        def corrupt(t, m):
            hit = (correspondence._frozen(t), m) == node
            T, letter = real(t, m)
            return T, -letter if hit else letter

        monkeypatch.setattr(correspondence, "_reduce", corrupt)
        return node

    def test_one_wrong_reduced_letter(self, monkeypatch):
        # bump_once's step emits the other bar at one node: the rows of T and the box of n for 2 -1 3.
        self.corrupt_reduced_letter(monkeypatch, "2 -1 3")
        seen = failures_against_direct()
        # The pairs of T whose R holds n in that box; their words and reduced pairs are sound.
        assert {key: count for key, count in seen.items() if count} == {("verify_wtilde", 3): 2}
        assert [f["word"] for f in verify_wtilde(3).failures] == ["-1 2 3", "2 -1 3"]

    @pytest.mark.parametrize("word", ["3 1 2", "-3 -2 -1", "1 -4 2 3", "-2 4 -1 3"])
    def test_a_wrong_reduced_letter_fails_every_pair_of_its_node(self, monkeypatch, word):
        n = len(word.split())
        node = self.corrupt_reduced_letter(monkeypatch, word)
        # Found by inserting every word, apart from the trie walk: the pairs that share T and the box of n.
        beneath = {w.to_text() for w in enumerate_signed_permutations(n) if self.box_of_n(insertion(w)) == node}
        seen = failures_against_direct()
        assert {key: count for key, count in seen.items() if count} == {("verify_wtilde", n): len(beneath)}
        assert {f["word"] for f in verify_wtilde(n).failures} == beneath

    def test_one_wrong_and_one_unclassifiable_key(self, monkeypatch):
        steps, wrong, unclassifiable = self.corrupt_two_keys(monkeypatch)
        seen = failures_against_direct()
        # One failure per affected step, not one per key.
        assert seen["verify_transition", 4] == steps[wrong] + steps[unclassifiable] > 2

    def test_transition_failure_json_is_pinned(self, monkeypatch):
        # The bytes that `verify transition 4 --json` prints: records, their keys and their order.
        self.corrupt_two_keys(monkeypatch)
        text = json.dumps(verify_transition(4).to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == "fb29a7c95ea7d8605eceafee3c58c4f535c050e3150473e3cdd2ebc0e9c70f88"

    def test_every_step_fails_when_nothing_classifies(self, monkeypatch):
        monkeypatch.setattr(correspondence, "_classify", lambda *key: None)
        seen = failures_against_direct()
        # Unbarred emissions included: an error matches no hop.
        assert seen["verify_transition", 3] == verify_transition(3).checked == 176

    @pytest.mark.parametrize("n, steps", [(1, 2), (2, 18)])
    def test_every_step_fails_at_the_smallest_sizes(self, monkeypatch, n, steps):
        # At n = 1 every node is a leaf, so each failing hop fans out to its own pair at k = 1.
        monkeypatch.setattr(correspondence, "_classify", lambda *key: None)
        seen = failures_against_direct(sizes=(n,))
        assert seen["verify_transition", n] == verify_transition(n).checked == steps
