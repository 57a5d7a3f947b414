"""The shape-only classification of removal-cascade transitions.

The bumping algorithms are the ground truth: every test here either pins a
hand-checked shape vector or replays real cascades and demands the
classifier predict each hop exactly.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings

from conftest import corners, outcome_of_step, signed_words, standard_pairs
from exotic_rs import (
    Bipartition,
    Continue,
    FirstRemoval,
    Partition,
    Side,
    TerminateBarred,
    TerminateUnbarred,
    enumerate_bipartitions,
    insertion,
    iter_pairs,
    reverse_bumping_with_trace,
    second_decrement,
)


def _bp(mu, nu):
    return Bipartition(Partition(mu), Partition(nu))


class TestNamedShapeVectors:
    """Six removal scenarios on explicit shapes, worked out by hand."""

    def test_deep_left_removal_hops_to_a_right_row(self):
        out = second_decrement(_bp((5, 4, 3, 2, 1, 1), (3, 2, 2, 2, 2, 1)), FirstRemoval(Side.LEFT, 4))
        assert out == Continue(Side.RIGHT, 5)

    def test_deep_left_removal_slides_down_equal_left_rows(self):
        out = second_decrement(_bp((5, 4, 3, 2, 1), (3, 2, 2, 2, 2, 1)), FirstRemoval(Side.LEFT, 4))
        assert out == Continue(Side.LEFT, 5)

    def test_left_removal_climbs_to_the_previous_right_row(self):
        out = second_decrement(_bp((3, 2, 2, 2), (3, 2, 2, 1)), FirstRemoval(Side.LEFT, 4))
        assert out == Continue(Side.RIGHT, 3)

    def test_right_removal_crosses_to_the_matching_left_row(self):
        out = second_decrement(_bp((4, 3, 3, 2, 2), (4, 3, 3, 1)), FirstRemoval(Side.RIGHT, 3))
        assert out == Continue(Side.LEFT, 3)

    def test_top_right_removal_crosses_to_a_deep_left_row(self):
        out = second_decrement(_bp((2, 2), (3, 2, 1)), FirstRemoval(Side.RIGHT, 1))
        assert out == Continue(Side.LEFT, 2)

    def test_top_right_removal_slides_down_equal_right_rows(self):
        out = second_decrement(_bp((2, 2, 2), (3, 2, 1)), FirstRemoval(Side.RIGHT, 1))
        assert out == Continue(Side.RIGHT, 2)


class TestTerminations:
    def test_first_left_row_emits_unbarred(self):
        assert second_decrement(_bp((1,), ()), FirstRemoval(Side.LEFT, 1)) == TerminateUnbarred()

    def test_lone_right_box_emits_barred(self):
        assert second_decrement(_bp((), (1,)), FirstRemoval(Side.RIGHT, 1)) == TerminateBarred()

    def test_lone_left_box_below_empty_rows_emits_barred(self):
        assert second_decrement(_bp((1, 1), ()), FirstRemoval(Side.LEFT, 2)) == TerminateBarred()

    def test_wide_lone_right_row_continues_within_itself(self):
        # there is no left row to cross into, so the right row shrinks again
        assert second_decrement(_bp((), (2,)), FirstRemoval(Side.RIGHT, 1)) == Continue(Side.RIGHT, 1)

    def test_two_right_rows_continue_downward(self):
        assert second_decrement(_bp((), (2, 1)), FirstRemoval(Side.RIGHT, 1)) == Continue(Side.RIGHT, 2)

    def test_matching_unit_columns_agree_across_rules(self):
        # the scan answers at row m - 1, the left row beside the right row that lost the box
        assert second_decrement(_bp((1, 1), (1, 1)), FirstRemoval(Side.RIGHT, 2)) == Continue(Side.LEFT, 2)


class TestValidation:
    @pytest.mark.parametrize(
        "mu, nu, side, row",
        [
            ((2, 2), (), Side.LEFT, 1),   # row 1 is not a corner
            ((), (1,), Side.LEFT, 1),     # empty component
            ((1,), (), Side.LEFT, 2),     # beyond the shape
            ((1,), (), "left", 1),        # a side that is no Side
            ((1,), (), Side.LEFT, True),  # a bool row, rejected as everywhere in the package
            ((1,), (), Side.LEFT, 1.0),   # a row that is no int
        ],
    )
    def test_non_corners_are_rejected(self, mu, nu, side, row):
        # The message names the removal by its repr, which reads a side that is no Side as it is.
        removal = FirstRemoval(side, row)
        with pytest.raises(ValueError) as caught:
            second_decrement(_bp(mu, nu), removal)
        assert str(caught.value) == f"{removal!r} is not a removable corner of {_bp(mu, nu)}"

    @pytest.mark.parametrize(
        "bp, removal, message",
        [
            (_bp((1,), ()), (Side.LEFT, 1), "removal must be a FirstRemoval, got (left, 1)"),
            (_bp((1,), ()), Continue(Side.LEFT, 1), "removal must be a FirstRemoval, got Continue(side=left, row=1)"),
            ("mu=[1];nu=[]", FirstRemoval(Side.LEFT, 1), "bp must be a Bipartition, got 'mu=[1];nu=[]'"),
            (None, FirstRemoval(Side.LEFT, 1), "bp must be a Bipartition, got None"),
        ],
        ids=["tuple-removal", "continue-removal", "text-shape", "none-shape"],
    )
    def test_arguments_of_other_types_are_rejected(self, bp, removal, message):
        with pytest.raises(ValueError) as caught:
            second_decrement(bp, removal)
        assert str(caught.value) == message

    def test_only_corners_are_accepted(self):
        cases = 0
        for n in range(9):
            for bp in enumerate_bipartitions(n):
                accepted = corners(bp)
                for side, parts in ((Side.LEFT, bp.mu.parts), (Side.RIGHT, bp.nu.parts)):
                    for row in range(-1, len(parts) + 3):
                        cases += 1
                        if (side, row) in accepted:
                            second_decrement(bp, FirstRemoval(side, row))
                        else:
                            with pytest.raises(ValueError, match="not a removable corner"):
                                second_decrement(bp, FirstRemoval(side, row))
        assert cases == 5206


class TestClassifierTotality:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_corner_of_every_shape_classifies_uniquely(self, n):
        for bp in enumerate_bipartitions(n):
            for side, row in corners(bp):
                out = second_decrement(bp, FirstRemoval(side, row))  # must not raise
                if isinstance(out, Continue):  # a corner of the shape less the first box
                    parts = [list(bp.mu.parts), list(bp.nu.parts)]
                    parts[side is Side.RIGHT][row - 1] -= 1
                    assert (out.side, out.row) in corners(Bipartition(*map(Partition, map(tuple, parts))))
                else:
                    assert isinstance(out, (TerminateUnbarred, TerminateBarred))

    def test_every_answer_through_size_ten_is_pinned(self):
        # A change to the order or guards of the rules that moves any answer moves the digest.
        lines = [
            f"{bp.to_text()} {side.value} {row} {second_decrement(bp, FirstRemoval(side, row))!r}\n"
            for n in range(1, 11)
            for bp in enumerate_bipartitions(n)
            for side, row in corners(bp)
        ]
        assert len(lines) == 3396
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "fe0a8437215f2387a5c4f2023dbac7b555f48e6d5cfa11da44c0f1a7f7449650"

    def test_every_answer_of_sizes_eleven_and_twelve_is_pinned(self):
        # The same lines for sizes 11 and 12; the 11-case rule table that the row scan replaced gave the same digest.
        lines = [
            f"{bp.to_text()} {side.value} {row} {second_decrement(bp, FirstRemoval(side, row))!r}\n"
            for n in (11, 12)
            for bp in enumerate_bipartitions(n)
            for side, row in corners(bp)
        ]
        assert len(lines) == 6364
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "c40c2c9d2562489e6117be86189b942dfeb4fdd7074f7b10e85f96b96c49a176"


class TestAgreementWithCascades:
    @pytest.mark.parametrize("n", range(5))
    def test_every_cascade_step_is_predicted_exactly(self, n):
        for pair in iter_pairs(n):
            _, records = reverse_bumping_with_trace(pair)
            for record in records:
                for step in record.steps:
                    removal = FirstRemoval(step.source.side, step.source.row)
                    assert second_decrement(step.shape, removal) == outcome_of_step(step)

    @given(signed_words(max_n=100, min_n=1))
    @settings(max_examples=60, deadline=None)
    def test_random_cascades_are_predicted_exactly(self, w):
        _, records = reverse_bumping_with_trace(insertion(w))
        for record in records:
            for step in record.steps:
                removal = FirstRemoval(step.source.side, step.source.row)
                assert second_decrement(step.shape, removal) == outcome_of_step(step)

    # Pairs that insertion did not make: T and R are drawn independently.
    @given(standard_pairs(max_n=200, min_n=1))
    @settings(max_examples=20, deadline=None)
    def test_cascades_of_random_pairs_are_predicted_exactly(self, pair):
        _, records = reverse_bumping_with_trace(pair)
        for record in records:
            for step in record.steps:
                removal = FirstRemoval(step.source.side, step.source.row)
                assert second_decrement(step.shape, removal) == outcome_of_step(step)
