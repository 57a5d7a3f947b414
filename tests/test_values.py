"""Value semantics of the package's frozen classes: equality within one class, hashing, the reprs that
failure records and CLI output quote, immutability, pickling and copying, and the order of shapes."""

from __future__ import annotations

import copy
import pickle
from itertools import combinations

import pytest

from exotic_rs import (
    Bipartition,
    Bitableau,
    Continue,
    CorrespondencePair,
    FirstRemoval,
    Partition,
    Position,
    Report,
    SignedPermutation,
    Side,
    TerminateBarred,
    TerminateUnbarred,
    enumerate_bipartitions,
    insertion_with_trace,
    reverse_bumping_with_trace,
)


def values() -> list[tuple[object, str]]:
    """One value of every frozen class, with its repr."""
    pair, inserted = insertion_with_trace(SignedPermutation((2, -1, 3)))
    _, removed = reverse_bumping_with_trace(pair)
    shape = "Bipartition(mu=Partition(parts=(2,)), nu=Partition(parts=(1,)))"
    T, R = "Bitableau(left=((2, 3),), right=((1,),))", "Bitableau(left=((1, 3),), right=((2,),))"
    return [
        (Partition((2, 1)), "Partition(parts=(2, 1))"),
        (Bipartition(), "Bipartition(mu=Partition(parts=()), nu=Partition(parts=()))"),
        (Position(Side.LEFT, 1, 2), "(left r1 c2)"),
        (pair.T, T),
        (SignedPermutation((2, -1, 3)), "SignedPermutation(letters=(2, -1, 3))"),
        (pair, f"CorrespondencePair(T={T}, R={R})"),
        (inserted[-1].steps[0], "InsertionStep(value=3, target=(left r1 c2), displaced=None)"),
        (inserted[-1], "InsertionRecord(k=3, letter=3, steps=(InsertionStep(value=3, target=(left r1 c2), displaced=None),))"),
        (removed[0].steps[0], f"RemovalStep(value=3, source=(left r1 c2), shape={shape}, target=None, emitted=3)"),
        (removed[0], f"RemovalRecord(k=3, letter=3, steps=(RemovalStep(value=3, source=(left r1 c2), shape={shape}, target=None, emitted=3),))"),
        (FirstRemoval(Side.LEFT, 2), "FirstRemoval(side=left, row=2)"),
        (Continue(Side.RIGHT, 2), "Continue(side=right, row=2)"),
        (TerminateUnbarred(), "TerminateUnbarred()"),
        (TerminateBarred(), "TerminateBarred()"),
        (Report("inverse", 3, 48), "Report(property='inverse', n=3, checked=48, failures=())"),
    ]


VALUES = values()
IDS = [type(v).__name__ for v, _ in VALUES]


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_repr(value, text):
    assert repr(value) == text


def test_equality_holds_only_within_a_class():
    assert TerminateBarred() == TerminateBarred() and TerminateBarred() != TerminateUnbarred()
    assert Continue(Side.LEFT, 1) == Continue(Side.LEFT, 1) != FirstRemoval(Side.LEFT, 1)
    assert Partition((1,)) != ((1,),) and SignedPermutation() != ()
    for (a, _), (b, _) in combinations(VALUES, 2):
        assert a != b and not a == b


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_copies_are_equal_and_hash_equal(value, text):
    for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(again) is type(value) and again == value and hash(again) == hash(value)


def test_a_report_keeps_its_failures_through_pickle():
    report = Report("inverse", 3, 48, ({"word": "2 -1 3"},))
    assert pickle.loads(pickle.dumps(report)) == copy.deepcopy(report) == report


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, text):
    name = text.partition("(")[2].partition("=")[0] if "=" in text else "row"  # the first field the repr names
    with pytest.raises(AttributeError):
        setattr(value, name, 0)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert repr(value) == text


def test_constructors_take_keywords_and_defaults():
    assert Position(side=Side.LEFT, row=1, col=2) == Position(Side.LEFT, 1, 2)
    assert Bipartition(nu=Partition((1,))) == Bipartition(Partition(), Partition((1,)))
    assert CorrespondencePair() == CorrespondencePair(T=Bitableau(), R=Bitableau(left=(), right=()))
    assert SignedPermutation(letters=[2, -1]).letters == (2, -1) and Partition(parts=[1, 0]).parts == (1,)
    assert Report("inverse", 3, checked=48) == Report(property="inverse", n=3, checked=48, failures=())
    assert Continue(row=2, side=Side.RIGHT) == Continue(Side.RIGHT, 2)


def test_shapes_sort_by_their_fields():
    # Values have no order of their own: shapes sort by a key, as enumerate_bipartitions sorts by to_text.
    shapes = enumerate_bipartitions(3)
    assert sorted(reversed(shapes), key=Bipartition.to_text) == shapes
    for a, b in [(Partition((1, 1)), Partition((2,))), (Bipartition(), Bipartition()), (SignedPermutation((1,)), SignedPermutation((-1,)))]:
        with pytest.raises(TypeError):
            a < b
