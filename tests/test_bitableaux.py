"""Bitableau storage, validation, rendering, serialization and enumeration."""

from __future__ import annotations

import hashlib
import json
import re

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
)

# A nine-box worked example used throughout this file.
NINE = Bitableau([[1, 3, 6], [2]], [[4, 7], [5, 8], [9]])

# A component of up to three rows, each of up to four entries: small integers, some repeated, some not positive,
# and the bool True, which is not an entry.
ENTRIES = st.one_of(st.integers(-1, 8), st.just(True))
RAGGED = st.lists(st.lists(ENTRIES, max_size=4), max_size=3)


def whole(message: str) -> str:
    """The pattern that matches just this message."""
    return rf"\A{re.escape(message)}\Z"


@st.composite
def nearly_bitableaux(draw) -> tuple[list[list], list[list]]:
    """The rows of a valid bitableau, half the time with one entry replaced by a drawn one."""
    t = draw(bitableaux())
    rows = [list(map(list, t.left)), list(map(list, t.right))]
    boxes = [(c, i, j) for c, comp in enumerate(rows) for i, row in enumerate(comp) for j in range(len(row))]
    if boxes and draw(st.booleans()):
        c, i, j = draw(st.sampled_from(boxes))
        rows[c][i][j] = draw(ENTRIES)
    return rows[0], rows[1]


def is_bitableau(left, right) -> bool:
    """Written apart from the constructor: the entries are distinct positive exact ints, every row and column of a
    component increases, no row is empty, and row lengths weakly decrease."""
    entries = [x for rows in (left, right) for row in rows for x in row]
    if any(type(x) is not int or x < 1 for x in entries) or len(set(entries)) != len(entries):
        return False
    for rows in (left, right):
        if not all(rows) or any(len(a) < len(b) for a, b in zip(rows, rows[1:])):
            return False
        columns = [[row[j] for row in rows if j < len(row)] for j in range(len(rows[0]) if rows else 0)]
        if any(a >= b for line in [*rows, *columns] for a, b in zip(line, line[1:])):
            return False
    return True


class TestRowNumbering:
    def test_rejects_nonpositive_rows(self):
        with pytest.raises(ValueError, match=whole("position row/col must be >= 1: (left r1 c0)")):
            Position(Side.LEFT, 1, 0)

    @pytest.mark.parametrize(
        "side, row, col, message",
        [
            ("left", 1, 1, "position side must be a Side, got 'left'"),
            (Side.LEFT, True, 1, "position row/col must be integers, got row=True, col=1"),
            (Side.RIGHT, 1, True, "position row/col must be integers, got row=1, col=True"),
            (Side.LEFT, 1, 1.5, "position row/col must be integers, got row=1, col=1.5"),
            (Side.LEFT, 2.0, 1, "position row/col must be integers, got row=2.0, col=1"),
        ],
        ids=["str-side", "bool-row", "bool-col", "float-col", "float-row"],
    )
    def test_malformed_fields_are_refused_where_built(self, side, row, col, message):
        with pytest.raises(ValueError, match=whole(message)):
            Position(side, row, col)

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
            # More than one fault: the message names the first one in reading order (a component's rows top to
            # bottom and each row's entries outward, then its row lengths and columns), and is matched whole.
            pytest.param([[1, 1]], [], whole("entries must be distinct, 1 appears twice"), id="repeat-before-order"),
            pytest.param(
                [[2], [1, 3]], [], whole("left row lengths must weakly decrease: row 1 is shorter than row 2"),
                id="lengths-before-column",
            ),
            pytest.param([[1]], [[1, 0]], whole("entries must be distinct, 1 appears twice"), id="repeat-before-sign"),
            pytest.param([[True, 1]], [], whole("entries must be positive integers, got True in left row 1"), id="bool"),
            pytest.param(
                [[3, 1], [1]], [], whole("entries must increase away from the wall in left row 1: (3, 1)"),
                id="order-before-later-repeat",
            ),
            pytest.param(
                [[1, 2], []], [[2]], whole("left row 2 is empty; empty rows are not stored"), id="empty-before-right-repeat"
            ),
            pytest.param(
                [[2], [1]], [[4, 3]], whole("entries must increase down each column: left rows 1,2 at distance 1 hold 2,1"),
                id="left-column-before-right-order",
            ),
        ],
    )
    def test_rejects_invalid_fillings(self, left, right, message):
        with pytest.raises(ValueError, match=message):
            Bitableau(left, right)

    @given(st.one_of(st.tuples(RAGGED, RAGGED), nearly_bitableaux()))
    def test_accepts_exactly_the_increasing_fillings_by_distinct_positive_integers(self, filling):
        try:
            Bitableau(*filling)
        except ValueError:
            assert not is_bitableau(*filling)
        else:
            assert is_bitableau(*filling)

    def test_duplicates_across_components_are_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Bitableau([[1]], [[1]])

    def test_lists_are_normalized_to_tuples(self):
        t = Bitableau([[1, 3]], [[2]])
        assert t.left == ((1, 3),) and t.right == ((2,),)

    def test_gaps_in_entries_are_allowed(self):
        t = Bitableau([[2, 9]], [[5]])
        assert t.entries() == frozenset({2, 5, 9}) != frozenset(range(1, t.size + 1))


class TestBasicViews:
    def test_shape_and_size(self):
        assert NINE.shape == Bipartition(Partition((3, 1)), Partition((2, 2, 1)))
        assert NINE.size == 9
        assert NINE.entries() == frozenset(range(1, NINE.size + 1))

    def test_render_mirrors_the_left_component(self):
        assert NINE.render() == "6 3 1 | 4 7\n2 | 5 8\n| 9"

    def test_render_of_the_empty_bitableau_is_empty(self):
        assert Bitableau().render() == ""

    @pytest.mark.parametrize("n", range(6))
    def test_render_tells_every_standard_bitableau_apart(self, n):
        pictures = [t.render() for bp in enumerate_bipartitions(n) for t in enumerate_standard_bitableaux(bp)]
        assert len(set(pictures)) == len(pictures) == sum(map(count_bitableaux, enumerate_bipartitions(n)))


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
            assert all(t.entries() == frozenset(range(1, n + 1)) and t.shape == bp for t in listed)

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

    @pytest.mark.parametrize(
        "n, expected_count, expected_digest",
        [
            (6, 1384, "11440ea8533dcc7522bfd0995ac2b928917c056ac25ae2471d9d023faa13ca42"),
            (7, 6512, "4005c82058cd169c80073ebf5d227dba58ab81004573e6ccd92c41e839e4c770"),
        ],
    )
    def test_canonical_order_is_pinned_past_five(self, n, expected_count, expected_digest):
        # Every standard bitableau of one size, in the layout of the pin above.
        digest = hashlib.sha256()
        count = 0
        for bp in enumerate_bipartitions(n):
            for t in enumerate_standard_bitableaux(bp):
                digest.update((json.dumps(t.to_json()) + "\n").encode())
                count += 1
        assert count == expected_count
        assert digest.hexdigest() == expected_digest
