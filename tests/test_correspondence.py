"""Insertion, reverse bumping, and single-step reduction of pairs."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import bitableaux, signed_words, standard_pairs
from exotic_rs import correspondence, verify
from exotic_rs import (
    Bitableau,
    CorrespondencePair,
    Position,
    Side,
    SignedPermutation,
    bump_once,
    derive_w_tilde,
    enumerate_signed_permutations,
    insertion,
    insertion_with_trace,
    iter_pairs,
    reverse_bumping,
    reverse_bumping_with_trace,
)

# Two seven-letter worked examples exercised throughout this file.
COLUMN_WORD = SignedPermutation.from_text("-3 6 4 -7 2 -5 1")
COLUMN_PAIR = CorrespondencePair(
    Bitableau([[1], [3], [7]], [[2, 4], [5, 6]]),
    Bitableau([[2], [5], [6]], [[1, 3], [4, 7]]),
)

MIXED_WORD = SignedPermutation.from_text("2 7 5 -6 4 -3 1")
MIXED_PAIR = CorrespondencePair(
    Bitableau([[1, 4], [3, 5]], [[2, 7], [6]]),
    Bitableau([[1, 2], [4, 5]], [[3, 7], [6]]),
)


class TestPairValidation:
    def test_components_must_share_a_shape(self):
        with pytest.raises(ValueError, match="share one shape"):
            CorrespondencePair(Bitableau([[1]], []), Bitableau([], [[1]]))

    def test_components_must_be_standard(self):
        with pytest.raises(ValueError, match="standard"):
            CorrespondencePair(Bitableau([[2]], []), Bitableau([[1]], []))

    @given(bitableaux(max_n=5), st.data())
    def test_rejects_exactly_mismatched_shapes_and_non_standard_components(self, t, data):
        same_shape = data.draw(st.booleans())
        r = data.draw(bitableaux(shape=t.shape) if same_shape else bitableaux(max_n=5))
        if t.shape != r.shape:
            expected = f"pair components must share one shape: {t.shape} vs {r.shape}"
        elif t.entries() != frozenset(range(1, t.size + 1)):
            expected = f"T must be standard (entries exactly 1..{t.size})"
        elif r.entries() != frozenset(range(1, r.size + 1)):
            expected = f"R must be standard (entries exactly 1..{r.size})"
        else:
            assert CorrespondencePair(t, r).shape == t.shape
            return
        with pytest.raises(ValueError) as info:
            CorrespondencePair(t, r)
        assert str(info.value) == expected

    def test_swapped_exchanges_the_components(self):
        assert COLUMN_PAIR.swapped() == CorrespondencePair(COLUMN_PAIR.R, COLUMN_PAIR.T)

    def test_json_round_trip(self):
        assert CorrespondencePair.from_json(MIXED_PAIR.to_json()) == MIXED_PAIR

    @pytest.mark.parametrize("obj", [{"T": {"left": [], "right": []}}, [1], {"T": 1, "R": 2, "x": 3}])
    def test_from_json_rejects_malformed_objects(self, obj):
        with pytest.raises(ValueError, match="bad pair object"):
            CorrespondencePair.from_json(obj)


class TestInsertion:
    def test_empty_word_gives_the_empty_pair(self):
        assert insertion(SignedPermutation()) == CorrespondencePair()

    def test_single_unbarred_letter_lands_left(self):
        assert insertion(SignedPermutation((1,))) == CorrespondencePair(
            Bitableau([[1]], []), Bitableau([[1]], [])
        )

    def test_single_barred_letter_lands_right(self):
        assert insertion(SignedPermutation((-1,))) == CorrespondencePair(
            Bitableau([], [[1]]), Bitableau([], [[1]])
        )

    def test_worked_example_with_column_tableaux(self):
        assert insertion(COLUMN_WORD) == COLUMN_PAIR

    def test_worked_example_with_mixed_tableaux(self):
        assert insertion(MIXED_WORD) == MIXED_PAIR

    def test_box_creation_order_of_the_mixed_example(self):
        _, records = insertion_with_trace(MIXED_WORD)
        final_targets = [rec.steps[-1].target for rec in records]
        assert final_targets == [
            Position(Side.LEFT, 1, 1),
            Position(Side.LEFT, 1, 2),
            Position(Side.RIGHT, 1, 1),
            Position(Side.LEFT, 2, 1),
            Position(Side.LEFT, 2, 2),
            Position(Side.RIGHT, 2, 1),
            Position(Side.RIGHT, 1, 2),
        ]

    def test_trace_records_every_letter_in_order(self):
        _, records = insertion_with_trace(COLUMN_WORD)
        assert [rec.k for rec in records] == list(range(1, 8))
        assert [rec.letter for rec in records] == list(COLUMN_WORD.letters)
        for rec in records:
            assert rec.steps[-1].displaced is None
            assert all(step.displaced is not None for step in rec.steps[:-1])

    def test_trace_json_shape(self):
        _, records = insertion_with_trace(SignedPermutation((-2, 1)))
        assert records[0].to_json() == {
            "k": 1,
            "letter": -2,
            "steps": [{"value": 2, "side": "right", "row": 1, "col": 1, "displaced": None}],
        }

    def test_a_corrupt_kernel_result_does_not_leave_the_public_call(self, monkeypatch):
        # The tableau check at the boundary stops it: here _place swaps T's left rows (1,) and (2,) after the last
        # letter of 1 -2, a column fault that keeps every other rule.
        place = correspondence._place

        def corrupt(z, letter, steps):
            m = place(z, letter, steps)
            if letter == -2:
                z[0], z[2] = z[2], z[0]
            return m

        monkeypatch.setattr(correspondence, "_place", corrupt)
        message = r"\Aentries must increase down each column: left rows 1,2 at distance 1 hold 2,1\Z"
        for call in (insertion, insertion_with_trace):
            with pytest.raises(ValueError, match=message):
                call(SignedPermutation((1, -2)))

    @pytest.mark.parametrize(
        "T, R",
        [
            pytest.param((((1, 2),), ()), (((1,),), ((2,),)), id="shapes differ"),
            pytest.param((((1, 2),), ((3,),)), (((1, 2), (3,)), ()), id="shapes differ in one row's side"),
            pytest.param((((1, 3),), ()), (((1, 2),), ()), id="gap in T"),
            pytest.param((((1, 2),), ()), (((1, 3),), ()), id="gap in R"),
            pytest.param((((1,),), ((1,),)), (((1,),), ((2,),)), id="repeated entry"),
            pytest.param((((2,), (1,)), ()), (((1,), (2,)), ()), id="column fault in T"),
            pytest.param((((1,), (2,)), ()), (((2,), (1,)), ()), id="column fault in R"),
            pytest.param((((1, 2),), ((),)), (((1, 2),), ((),)), id="empty row"),
            pytest.param((((True, 2),), ()), (((1, 2),), ()), id="True entry"),
            pytest.param((((1,), (2, 3)), ()), (((1,), (2, 3)), ()), id="longer lower row"),
        ],
    )
    def test_a_refused_kernel_pair_raises_the_constructors_message(self, monkeypatch, T, R):
        # The one scan that accepts a kernel pair refuses exactly what the constructors refuse, with their message.
        with pytest.raises(ValueError) as expected:
            CorrespondencePair(Bitableau(*T), Bitableau(*R))
        monkeypatch.setattr(correspondence, "_insert", lambda letters, records=None: (T, R))
        for call in (insertion, insertion_with_trace):
            with pytest.raises(ValueError) as got:
                call(SignedPermutation((1, 2)))
            assert str(got.value) == str(expected.value)

    def test_bump_once_refuses_a_kernel_pair_with_the_constructors_message(self, monkeypatch):
        # The reduced T of 1 2 keeps its entry 2 instead of closing the gap; the reduced R is ((1,),).
        T, R = (((2,),), ()), (((1,),), ())
        with pytest.raises(ValueError) as expected:
            CorrespondencePair(Bitableau(*T), Bitableau(*R))
        monkeypatch.setattr(correspondence, "_reduce", lambda z, m: (T, 1))
        with pytest.raises(ValueError) as got:
            bump_once(insertion(SignedPermutation((1, 2))))
        assert str(got.value) == str(expected.value) == "T must be standard (entries exactly 1..1)"

    def test_a_passing_insertion_builds_no_validated_object(self, monkeypatch):
        words = [w for n in range(6) for w in enumerate_signed_permutations(n)]
        expected = [CorrespondencePair(*(Bitableau(*t) for t in correspondence._insert(w.letters))) for w in words]

        def refuse(self):
            raise AssertionError("a passing insertion built a validated object")

        monkeypatch.setattr(Bitableau, "__post_init__", refuse)
        monkeypatch.setattr(CorrespondencePair, "__post_init__", refuse)
        assert [insertion(w) for w in words] == expected
        assert [insertion_with_trace(w)[0] for w in words] == expected

    @given(signed_words(max_n=7))
    @settings(max_examples=60)
    def test_produces_a_standard_same_shape_pair(self, w):
        pair = insertion(w)
        assert pair.size == w.n
        assert pair.T.entries() == pair.R.entries() == frozenset(range(1, w.n + 1))
        assert pair.T.shape == pair.R.shape

    @given(signed_words(max_n=7))
    @settings(max_examples=60)
    def test_recording_tableau_marks_box_creation(self, w):
        pair, records = insertion_with_trace(w)
        for rec in records:
            target = rec.steps[-1].target
            rows = pair.R.left if target.side is Side.LEFT else pair.R.right
            assert rows[target.row - 1][target.col - 1] == rec.k

    def test_insertion_of_every_word_of_size_six_is_pinned(self):
        # One repr line of the kernel's rows (T, R) per word, in canonical word order.
        digest = hashlib.sha256()
        for w in enumerate_signed_permutations(6):
            digest.update(repr(correspondence._insert(w.letters)).encode() + b"\n")
        assert digest.hexdigest() == "7dd98aba0914759214c1cd830c1d948d0c6c243c37ff7d0abfadc0f85947ea9a"

    def test_box_rows_tell_every_standard_tableau_apart(self):
        for n in range(7):
            tables = list(verify._cell_tables(n))
            box_rows = [ms for _, _, cell_box_rows, _ in tables for ms in cell_box_rows]
            assert len(set(box_rows)) == len(box_rows) == sum(len(cell) for cell, _, _, _ in tables)
            # Each state holds T's own row tuples, not copies: state[2i + c] is row i of component c.
            assert all(state[2 * i + c] is row for _, Ts, _, states in tables for T, state in zip(Ts, states)
                       for c, side in enumerate(T) for i, row in enumerate(side))

    @pytest.mark.parametrize("n", range(7))
    def test_box_rows_are_the_sorted_boxes(self, n, monkeypatch):
        def reference(R, n):  # the definition by sorting R's entries that the tables' box rows replaced
            boxes = sorted(((x, 2 * i + c) for c, rows in enumerate(R) for i, row in enumerate(rows) for x in row), reverse=True)
            return tuple(m for _, m in boxes) if [x for x, _ in boxes] == list(range(n, 0, -1)) else None

        for _, rows, box_rows, _ in verify._cell_tables(n):
            assert list(box_rows) == [reference(R, n) for R in rows] and None not in box_rows
        # A cell that lists after its tableaux its first one with n + 1 in place of n: the reference gives that tableau
        # no box rows, and the table is refused (as in test_verify.TestCellCheck).
        real = list(verify._cells(n))
        for s, cell in enumerate(real if n else ()):
            t = cell[0]
            moved = Bitableau(*(tuple(tuple(x + (x == n) for x in row) for row in rows) for rows in (t.left, t.right)))
            assert reference((moved.left, moved.right), n) is None
            monkeypatch.setattr(verify, "_cells", lambda _, bad=[*real[:s], (*cell, moved), *real[s + 1:]]: bad)
            with pytest.raises(ValueError, match=r"not a standard tableau of its shape$"):
                list(verify._cell_tables(n))


class TestReverseBumping:
    def test_worked_example_with_column_tableaux(self):
        assert reverse_bumping(COLUMN_PAIR) == COLUMN_WORD

    def test_worked_example_with_mixed_tableaux(self):
        assert reverse_bumping(MIXED_PAIR) == MIXED_WORD

    def test_swapped_pair_gives_the_inverse_word(self):
        assert reverse_bumping(COLUMN_PAIR.swapped()) == COLUMN_WORD.inverse()
        assert reverse_bumping(COLUMN_PAIR.swapped()).to_text() == "7 5 -1 3 -6 2 -4"

    def test_trace_covers_entries_downward(self):
        word, records = reverse_bumping_with_trace(MIXED_PAIR)
        assert word == MIXED_WORD
        assert [rec.k for rec in records] == list(range(7, 0, -1))
        assert [rec.letter for rec in records] == list(reversed(MIXED_WORD.letters))
        for rec in records:
            *moves, last = rec.steps
            assert last.emitted == rec.letter and last.target is None
            assert all(step.emitted is None and step.target is not None for step in moves)

    def test_removal_step_json_shape(self):
        pair = insertion(SignedPermutation((-2, 1)))
        _, records = reverse_bumping_with_trace(pair)
        last = records[-1]  # removes entry 1, the barred letter
        assert last.to_json() == {
            "k": 1,
            "letter": -2,
            "steps": [
                {
                    "value": 2,
                    "side": "right",
                    "row": 1,
                    "col": 1,
                    "shape": {"mu": [], "nu": [1]},
                    "to": None,
                    "emit": -2,
                }
            ],
        }

    @pytest.mark.parametrize("n", range(4))
    def test_round_trip_from_words(self, n):
        for w in enumerate_signed_permutations(n):
            assert reverse_bumping(insertion(w)) == w

    @pytest.mark.parametrize("n", range(4))
    def test_round_trip_from_pairs(self, n):
        for pair in iter_pairs(n):
            assert insertion(reverse_bumping(pair)) == pair

    def test_a_passing_reverse_bump_builds_no_validated_object(self, monkeypatch):
        pairs = [p for n in range(6) for p in iter_pairs(n)]
        expected = [SignedPermutation(correspondence._reverse((p.T.left, p.T.right), (p.R.left, p.R.right))) for p in pairs]

        def refuse(self):
            raise AssertionError("a passing reverse bump built a validated object")

        for cls in SignedPermutation, Bitableau, CorrespondencePair:
            monkeypatch.setattr(cls, "__post_init__", refuse)
        assert [reverse_bumping(p) for p in pairs] == expected
        assert [reverse_bumping_with_trace(p)[0] for p in pairs] == expected

    @pytest.mark.parametrize("n", range(4))
    def test_swapping_pairs_inverts_words(self, n):
        for w in enumerate_signed_permutations(n):
            assert insertion(w.inverse()) == insertion(w).swapped()

    @given(signed_words(max_n=200))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_on_random_words(self, w):
        assert reverse_bumping(insertion(w)) == w

    @given(signed_words(max_n=200))
    @settings(max_examples=40, deadline=None)
    def test_inverse_word_swaps_the_pair_on_random_words(self, w):
        assert insertion(w.inverse()) == insertion(w).swapped()

    # Pairs that insertion did not make: T and R are drawn independently.
    @given(standard_pairs(max_n=200))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_on_random_pairs(self, pair):
        assert insertion(reverse_bumping(pair)) == pair

    @given(standard_pairs(max_n=200))
    @settings(max_examples=20, deadline=None)
    def test_swapped_random_pair_gives_the_inverse_word(self, pair):
        assert reverse_bumping(pair.swapped()) == reverse_bumping(pair).inverse()

    def test_traces_through_size_four_are_pinned(self):
        # One JSON line per pair of size 0..4, in iter_pairs order; the digest
        # was taken from the trace records before the kernel recorded plain hops.
        lines = []
        for n in range(5):
            for pair in iter_pairs(n):
                word, records = reverse_bumping_with_trace(pair)
                lines.append(json.dumps({"word": word.to_text(), "trace": [r.to_json() for r in records]}) + "\n")
        assert len(lines) == 443
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "05372f9fab91f549fce1a7218010a397141f770b26819b31fca2d32a66fd4e71"

    def test_reverse_bumping_of_every_pair_of_size_five_is_pinned(self):
        # One repr line of the kernel's letters per pair, in iter_pairs order.
        digest = hashlib.sha256()
        for pair in iter_pairs(5):
            digest.update(repr(correspondence._reverse((pair.T.left, pair.T.right), (pair.R.left, pair.R.right))).encode() + b"\n")
        assert digest.hexdigest() == "b1915a9b5935c7df234cdd4ed1c37aa145a58b9d88397e64133aeb9427ca0a7c"

    def test_hops_of_every_trie_walk_of_size_five_are_pinned(self):
        # One repr line per T, cell by cell, of the hops that _remove records for the nodes of T's trie walk: the cascades
        # k = n, ..., 1 of each R in its cell's order, but only those below the leading box rows (of 5, 4, ..., 1) it shares
        # with the R before it.  The digest was taken while _remove still recounted every row at every hop, while _walk
        # recorded these lists, and while R's box rows were the base-10 digits of one number.
        digest, hops_seen = hashlib.sha256(), 0
        for _, cell, box_rows, _ in verify._cell_tables(5):
            shared = [0] + [next((d for d in range(4) if a[d] != b[d]), 4) for a, b in zip(box_rows, box_rows[1:])]
            for T in cell:
                hops = []
                for R, depth in zip(cell, shared):
                    correspondence._reverse(T, R, cascades := [])
                    hops += [node_hops for _, _, node_hops in cascades[depth:]]
                hops_seen += sum(map(len, hops))
                digest.update(repr(hops).encode() + b"\n")
        assert hops_seen == 16324
        assert digest.hexdigest() == "03f08c1e8a92f3772b8d2dd0b020fa5392c11c781fb4e57f065eece7cfff1a63"

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_walk_on_any_order_of_box_rows_is_the_flat_reverse_bumping(self, data):
        # Several walks of one size on one memo, as a verifier call makes them: cells in any order, repeats
        # included, and each cell's R in any order, repeats included.  Each T's words are the flat ones.
        n = data.draw(st.integers(0, 6))
        tables, memo = list(verify._cell_tables(n)), {}
        for _, rows, box_rows, states in data.draw(st.lists(st.sampled_from(tables), min_size=1, max_size=4)):
            index = st.integers(0, len(rows) - 1)
            Rs, Ts = data.draw(st.lists(index, min_size=1, max_size=12)), data.draw(st.lists(index, min_size=1, max_size=3))
            for t, words in zip(Ts, verify._walk([states[t] for t in Ts], [box_rows[r] for r in Rs], memo)):
                assert words == [correspondence._reverse(rows[t], rows[r]) for r in Rs]

    @given(signed_words(max_n=100))
    @settings(max_examples=40, deadline=None)
    def test_hop_truncations_are_bipartitions_of_the_values_left(self, w):
        # Each hop's row counts are positive and weakly decreasing down a component, which lets _remove stop
        # counting at the first row without an entry below the moving value.  They hold the moving value and
        # the entries below it that no earlier cascade has emitted.
        correspondence._reverse(*correspondence._insert(w.letters), cascades := [])
        emitted = set()
        for _, letter, hops in cascades:
            for value, c, i, j, mu, nu, _, _ in hops:
                for parts in (mu, nu):
                    assert all(parts) and list(parts) == sorted(parts, reverse=True)
                assert (mu, nu)[c][i] == j + 1
                assert sum(mu) + sum(nu) == value - sum(x < value for x in emitted)
            emitted.add(abs(letter))

    def test_both_kernels_and_their_traces_on_long_words_are_pinned(self):
        # Random words of size 400 build 21-27 rows per component, so the slot scans run long.  Per word: one
        # repr line of the rows (T, R) and the letters they reverse-bump to, one JSON line of the insertion
        # records, and one repr line of the hops that _reverse records.  reverse_bumping_with_trace's records
        # are those hops, one RemovalStep each (pinned above through size 4); building and serializing them
        # here would take about a second more.
        digest = hashlib.sha256()
        for letters in _random_words(1, 400, 8):
            T, R = correspondence._insert(letters)
            _, records = insertion_with_trace(SignedPermutation(letters))
            correspondence._reverse(T, R, cascades := [])
            digest.update(repr((T, R, correspondence._reverse(T, R))).encode() + b"\n")
            digest.update(json.dumps([r.to_json() for r in records]).encode() + b"\n")
            digest.update(repr(cascades).encode() + b"\n")
        assert digest.hexdigest() == "b9162e896a75b434768df4c8c6178c46653ee7306dad47939aaea0973f818cd5"


def _peel_letters(w: SignedPermutation) -> list[int]:
    out = []
    while w.n:
        out.append(w.letters[-1])
        w, _ = derive_w_tilde(w)
    return out


class TestBumpOnce:
    def test_empty_pair_is_rejected(self):
        with pytest.raises(ValueError, match="empty pair"):
            bump_once(CorrespondencePair())

    def test_single_box_pair_reduces_to_empty(self):
        pair = insertion(SignedPermutation((1,)))
        reduced, letter, r = bump_once(pair)
        assert (reduced, letter, r) == (CorrespondencePair(), 1, 1)

    def test_worked_example(self):
        reduced, letter, r = bump_once(COLUMN_PAIR)
        assert letter == 1 and r == 1
        assert reduced == CorrespondencePair(
            Bitableau([[1], [5], [6]], [[2, 3], [4]]),
            Bitableau([[2], [5], [6]], [[1, 3], [4]]),
        )

    def test_reduced_pair_matches_the_reduced_word(self):
        reduced, letter, r = bump_once(MIXED_PAIR)
        wt, r2 = derive_w_tilde(MIXED_WORD)
        assert letter == MIXED_WORD.letters[-1]
        assert r == r2
        assert reverse_bumping(reduced) == wt

    @pytest.mark.parametrize("n", range(5))
    def test_iterated_reduction_peels_words_letter_by_letter(self, n):
        for w in enumerate_signed_permutations(n):
            pair = insertion(w)
            got = []
            while pair.size:
                pair, letter, _ = bump_once(pair)
                got.append(letter)
            assert got == _peel_letters(w)

    @given(signed_words(max_n=6, min_n=1))
    @settings(max_examples=60)
    def test_single_reduction_commutes_with_insertion(self, w):
        reduced, letter, r = bump_once(insertion(w))
        wt, r2 = derive_w_tilde(w)
        assert (letter, r) == (w.letters[-1], r2)
        assert reduced == insertion(wt)

    @given(signed_words(max_n=200, min_n=1))
    @settings(max_examples=20, deadline=None)
    def test_single_reduction_commutes_with_insertion_on_random_words(self, w):
        reduced, letter, r = bump_once(insertion(w))
        wt, r2 = derive_w_tilde(w)
        assert (letter, r) == (w.letters[-1], r2)
        assert reduced == insertion(wt)

    @given(standard_pairs(max_n=200, min_n=1))
    @settings(max_examples=20, deadline=None)
    def test_single_reduction_of_random_pairs_matches_the_reduced_word(self, pair):
        reduced, letter, r = bump_once(pair)
        w = reverse_bumping(pair)
        wt, r2 = derive_w_tilde(w)
        assert (letter, r) == (w.letters[-1], r2)
        assert reverse_bumping(reduced) == wt


def _random_word(n: int, seed: int) -> SignedPermutation:
    rng = random.Random(seed)
    mags = rng.sample(range(1, n + 1), n)
    return SignedPermutation(tuple(m * rng.choice((1, -1)) for m in mags))


def _random_words(seed: int, n: int, count: int) -> list[tuple[int, ...]]:
    """``count`` uniformly random signed permutations of size n, drawn as the benchmark's long words are."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        mags = list(range(1, n + 1))
        rng.shuffle(mags)
        words.append(tuple(m if rng.random() < 0.5 else -m for m in mags))
    return words


class TestTracedAndPlainPathsAgree:
    @pytest.mark.parametrize("n", range(6))
    def test_exhaustively_through_size_five(self, n):
        for w in enumerate_signed_permutations(n):
            assert insertion(w) == insertion_with_trace(w)[0]
        for pair in iter_pairs(n):
            assert reverse_bumping(pair) == reverse_bumping_with_trace(pair)[0]

    @given(signed_words(max_n=200))
    @settings(max_examples=40, deadline=None)
    def test_on_random_words(self, w):
        pair = insertion(w)
        assert pair == insertion_with_trace(w)[0]
        assert reverse_bumping(pair) == reverse_bumping_with_trace(pair)[0]

    @pytest.mark.parametrize("w", [COLUMN_WORD, _random_word(50, seed=3)], ids=["n7", "n50"])
    def test_plain_calls_build_no_trace(self, w, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a plain call built a trace")

        for name in ("Position", "InsertionStep", "RemovalStep", "Bipartition"):
            monkeypatch.setattr(correspondence, name, refuse)
        pair = insertion(w)
        assert reverse_bumping(pair) == w
        reduced, letter, _ = bump_once(pair)
        assert letter == w.letters[-1]
        assert reverse_bumping(reduced) == derive_w_tilde(w)[0]


def _assert_padded(z: list[list[int]]) -> None:
    """z ends in exactly two empty rows, and no component has an empty row above a non-empty one."""
    assert len(z) >= 2 and z[-2:] == [[], []] and (len(z) == 2 or z[-3])
    for rows in z[0::2], z[1::2]:
        assert not any(rows[rows.index([]):])


class TestCombinedRows:
    """The kernels' one list z of combined rows: z[2i + c] is row i of component c, and z ends in exactly two
    empty rows past the last non-empty one."""

    def test_small_tableaux_and_their_combined_rows(self):
        assert correspondence._rows(((), ())) == [[], []]
        assert correspondence._rows((((1,),), ())) == [[1], [], []]
        assert correspondence._rows(((), ((1,),))) == [[], [1], [], []]
        assert correspondence._rows((((1, 4), (3,)), ((2,),))) == [[1, 4], [2], [3], [], []]
        assert correspondence._rows((((1,),), ((2, 3), (4,)))) == [[1], [2, 3], [], [4], [], []]

    @pytest.mark.parametrize("n", range(6))
    def test_frozen_undoes_rows_on_every_tableau(self, n):
        for cell in verify._cells(n):
            for t in cell:
                z = correspondence._rows((t.left, t.right))
                _assert_padded(z)
                assert correspondence._frozen(z) == (t.left, t.right)
                # With tuple rows, the same rows: the state that the tables keep for T.
                assert tuple(correspondence._rows((t.left, t.right), tuple)) == tuple(map(tuple, z))

    @given(signed_words(max_n=100))
    @settings(max_examples=60, deadline=None)
    def test_every_step_of_both_kernels_keeps_the_padding(self, w):
        real_place, real_remove, steps, last = correspondence._place, correspondence._remove, [], []

        def place(z, letter, trace):
            m = real_place(z, letter, trace)
            _assert_padded(z)
            steps.append(m)
            last[:] = [z]
            return m

        def remove(z, m, hops):
            letter = real_remove(z, m, hops)
            _assert_padded(z)
            steps.append(letter)
            return letter

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(correspondence, "_place", place)
            patch.setattr(correspondence, "_remove", remove)
            T, R = correspondence._insert(w.letters)
            assert correspondence._reverse(T, R) == w.letters
        assert len(steps) == 2 * w.n
        # The rows insertion leaves are the ones reverse bumping starts from.
        assert not w.n or last[0] == correspondence._rows(T)
