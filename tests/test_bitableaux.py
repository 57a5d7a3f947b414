"""Bitableau storage, validation, truncation, nested sequences, serialization,
and enumeration."""

from __future__ import annotations

import hashlib
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import bitableaux, standard_bitableaux
from exotic_rs import (
    Bipartition,
    Bitableau,
    Partition,
    Position,
    Side,
    count_bitableaux,
    enumerate_bipartitions,
    enumerate_standard_bitableaux,
    from_nested_sequence,
    to_nested_sequence,
)

# A nine-box worked example used throughout this file.
NINE = Bitableau([[1, 3, 6], [2]], [[4, 7], [5, 8], [9]])


class TestRowNumbering:
    def test_rejects_nonpositive_rows(self):
        with pytest.raises(ValueError):
            Position(Side.LEFT, 1, 0)

    def test_position_repr_is_compact(self):
        assert repr(Position(Side.LEFT, 2, 1)) == "(left r2 c1)"


class TestValidation:
    @pytest.mark.parametrize(
        "left, right, message",
        [
            ([[1, 1]], [], "distinct"),
            ([[2, 1]], [], "increase away from the wall"),
            ([[1], [1]], [], "distinct"),
            ([[2], [1]], [], "increase down each column"),
            ([[1]], [[3], [2]], "increase down each column"),
            ([[1], [2, 3]], [], "weakly decrease"),
            ([[]], [], "empty"),
            ([[0]], [], "positive"),
            ([[1, -2]], [], "positive"),
            ([[True]], [], "positive"),
        ],
    )
    def test_rejects_invalid_fillings(self, left, right, message):
        with pytest.raises(ValueError, match=message):
            Bitableau(left, right)

    def test_duplicates_across_components_are_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Bitableau([[1]], [[1]])

    def test_lists_are_normalized_to_tuples(self):
        t = Bitableau([[1, 3]], [[2]])
        assert t.left == ((1, 3),) and t.right == ((2,),)

    def test_gaps_in_entries_are_allowed(self):
        t = Bitableau([[2, 9]], [[5]])
        assert not t.is_standard
        assert t.entries() == frozenset({2, 5, 9})


class TestBasicViews:
    def test_shape_and_size(self):
        assert NINE.shape == Bipartition(Partition((3, 1)), Partition((2, 2, 1)))
        assert NINE.size == 9
        assert NINE.is_standard

    @given(bitableaux())
    def test_is_standard_means_the_entries_are_one_to_size(self, t):
        assert t.is_standard == (t.entries() == frozenset(range(1, t.size + 1)))

    def test_render_mirrors_the_left_component(self):
        assert NINE.render() == "6 3 1 | 4 7\n2 | 5 8\n| 9"

    def test_render_of_the_empty_bitableau_is_empty(self):
        assert Bitableau().render() == ""

    @pytest.mark.parametrize("n", range(6))
    def test_render_tells_every_standard_bitableau_apart(self, n):
        pictures = [t.render() for bp in enumerate_bipartitions(n) for t in enumerate_standard_bitableaux(bp)]
        assert len(set(pictures)) == len(pictures) == sum(map(count_bitableaux, enumerate_bipartitions(n)))

    @pytest.mark.parametrize(
        "s, left, right",
        [
            (5, ((1, 3), (2,)), ((4,), (5,))),
            (0, (), ()),
            (9, NINE.left, NINE.right),
        ],
    )
    def test_truncate_keeps_row_prefixes(self, s, left, right):
        assert NINE.truncate(s) == Bitableau(left, right)

    @given(standard_bitableaux(), st.integers(0, 8))
    def test_truncation_entries_are_exactly_the_small_ones(self, t, s):
        trunc = t.truncate(s)
        assert trunc.entries() == frozenset(x for x in t.entries() if x <= s)


class TestNestedSequences:
    def test_worked_chain(self):
        t = Bitableau([[2, 3], [5]], [[1], [4]])
        P, B = Partition, Bipartition
        assert to_nested_sequence(t) == (
            B(P(()), P(())),
            B(P(()), P((1,))),
            B(P((1,)), P((1,))),
            B(P((2,)), P((1,))),
            B(P((2,)), P((1, 1))),
            B(P((2, 1)), P((1, 1))),
        )

    def test_non_standard_fillings_are_rejected(self):
        with pytest.raises(ValueError, match="standard"):
            to_nested_sequence(Bitableau([[2, 9]], [[5]]))

    def test_rebuild_rejects_skipped_steps(self):
        t = Bitableau([[2, 3], [5]], [[1], [4]])
        seq = list(to_nested_sequence(t))
        del seq[2]
        with pytest.raises(ValueError, match="step 2"):
            from_nested_sequence(tuple(seq))

    def test_rebuild_rejects_a_nonempty_start(self):
        with pytest.raises(ValueError, match="empty shape"):
            from_nested_sequence((Bipartition(Partition((1,)), Partition(())),))

    @given(standard_bitableaux())
    def test_round_trip(self, t):
        assert from_nested_sequence(to_nested_sequence(t)) == t


class TestSerialization:
    @given(standard_bitableaux())
    def test_json_round_trip(self, t):
        assert Bitableau.from_json(t.to_json()) == t

    def test_json_shape(self):
        assert Bitableau([[1]], [[2]]).to_json() == {"left": [[1]], "right": [[2]]}

    @pytest.mark.parametrize(
        "obj",
        [{"left": [[1]]}, {"left": [[1]], "right": [[2]], "extra": 1}, {"left": 3, "right": []}, [1, 2]],
    )
    def test_from_json_rejects_malformed_objects(self, obj):
        with pytest.raises(ValueError, match="bad bitableau object"):
            Bitableau.from_json(obj)


class TestEnumeration:
    def test_three_fillings_of_a_small_shape(self):
        shape = Bipartition(Partition((2,)), Partition((1,)))
        got = set(enumerate_standard_bitableaux(shape))
        assert got == {
            Bitableau([[1, 2]], [[3]]),
            Bitableau([[1, 3]], [[2]]),
            Bitableau([[2, 3]], [[1]]),
        }

    @pytest.mark.parametrize("n", range(5))
    def test_enumeration_is_complete_and_standard(self, n):
        for bp in enumerate_bipartitions(n):
            listed = enumerate_standard_bitableaux(bp)
            assert len(set(listed)) == len(listed) == count_bitableaux(bp)
            assert all(t.is_standard and t.shape == bp for t in listed)

    def test_canonical_order_is_pinned(self):
        # Pair indices and the order of verifier failures follow this order.
        digest = hashlib.sha256()
        count = 0
        for n in range(6):
            for bp in enumerate_bipartitions(n):
                for t in enumerate_standard_bitableaux(bp):
                    digest.update((json.dumps(t.to_json()) + "\n").encode())
                    count += 1
        assert count == 417
        assert digest.hexdigest() == "6d649881249b0a1f0f6744bf896e7e64df5c8993925108212e51eac58adad417"
