"""Shared hypothesis strategies, and an oracle for the transition classifier.

Standard bitableaux are generated by growing a shape one corner at a time,
and pairs by filling a second tableau of that shape one corner at a time,
independently of the insertion algorithm under test.
"""

from __future__ import annotations

import os
from pathlib import Path

import hypothesis.strategies as st
import pytest

import exotic_rs
from exotic_rs import (
    Bipartition,
    Bitableau,
    Continue,
    CorrespondencePair,
    Partition,
    RemovalStep,
    Side,
    SignedPermutation,
    TerminateBarred,
    TerminateUnbarred,
    enumerate_standard_bitableaux,
)


@pytest.fixture(autouse=True)
def _no_inherited_size_limit(monkeypatch):
    """Every test starts without the developer's EXOTIC_RS_MAX_N, which would raise the budgets that the tests pin
    or, if malformed or negative, make the verifiers refuse to run; a test that needs a limit sets it through ``monkeypatch``."""
    monkeypatch.delenv("EXOTIC_RS_MAX_N", raising=False)


def child_env() -> dict[str, str]:
    """The environment of a child Python: this one with PYTHONPATH the package's src alone, and with no
    EXOTIC_RS_MAX_N, which would change what the verifiers reach or, if malformed or negative, make them refuse to run."""
    env = {**os.environ, "PYTHONPATH": str(Path(exotic_rs.__file__).resolve().parents[1])}
    env.pop("EXOTIC_RS_MAX_N", None)
    return env


@st.composite
def partitions(draw, max_size: int = 8) -> Partition:
    size = draw(st.integers(0, max_size))
    parts = []
    remaining = size
    bound = size
    while remaining > 0:
        p = draw(st.integers(1, min(bound, remaining)))
        parts.append(p)
        bound = p
        remaining -= p
    return Partition(tuple(parts))


@st.composite
def bipartitions(draw, max_size: int = 8) -> Bipartition:
    mu = draw(partitions(max_size))
    nu = draw(partitions(max_size))
    return Bipartition(mu, nu)


@st.composite
def signed_words(draw, max_n: int = 6, min_n: int = 0) -> SignedPermutation:
    n = draw(st.integers(min_n, max_n))
    mags = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return SignedPermutation(tuple(m * s for m, s in zip(mags, signs)))


def _addable_rows(t: tuple[list[list[int]], list[list[int]]]) -> list[tuple[int, int]]:
    """(component, 0-based row) of every row, existing or new, that can take
    one more box: the top row, or a row shorter than the one above it."""
    return [
        (c, i)
        for c, rows in enumerate(t)
        for i in range(len(rows) + 1)
        if i == 0 or len(rows[i - 1]) > (len(rows[i]) if i < len(rows) else 0)
    ]


def _corner_rows(lengths: list[list[int]]) -> list[tuple[int, int]]:
    """(component, 0-based row) of every row whose outermost box is a corner:
    a row longer than the one below it."""
    return [(c, i) for c, ls in enumerate(lengths) for i, k in enumerate(ls) if k > (ls[i + 1] if i + 1 < len(ls) else 0)]


def corners(bp: Bipartition) -> list[tuple[Side, int]]:
    """(side, 1-based row) of every corner of the shape, whose outermost box
    can be removed: left rows top to bottom, then right rows."""
    return [((Side.LEFT, Side.RIGHT)[c], i + 1) for c, i in _corner_rows([list(bp.mu.parts), list(bp.nu.parts)])]


def _grown_rows(draw, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """The rows of a standard bitableau of size n, grown by adding 1, 2, ..., n at random addable rows."""
    t: tuple[list[list[int]], list[list[int]]] = ([], [])
    for entry in range(1, n + 1):
        c, i = draw(st.sampled_from(_addable_rows(t)))
        if i == len(t[c]):
            t[c].append([])
        t[c][i].append(entry)
    return t


@st.composite
def standard_bitableaux(draw, max_n: int = 6, min_n: int = 0) -> Bitableau:
    return Bitableau(*_grown_rows(draw, draw(st.integers(min_n, max_n))))


@st.composite
def standard_pairs(draw, max_n: int = 6, min_n: int = 0) -> CorrespondencePair:
    """A pair that insertion did not make: T grown by corners, as in
    ``standard_bitableaux``, and R filled independently in T's shape by
    removing random corners, labelled n, n - 1, ..., 1."""
    n = draw(st.integers(min_n, max_n))
    t = _grown_rows(draw, n)
    lengths = [[len(row) for row in rows] for rows in t]
    r = tuple([[0] * len(row) for row in rows] for rows in t)
    for entry in range(n, 0, -1):
        c, i = draw(st.sampled_from(_corner_rows(lengths)))
        lengths[c][i] -= 1
        r[c][i][lengths[c][i]] = entry
    return CorrespondencePair(Bitableau(*t), Bitableau(*r))


@st.composite
def bitableaux(draw, max_n: int = 6, shape: Bipartition | None = None) -> Bitableau:
    """A valid bitableau: a standard one (of ``shape``, when given), half the
    time relabelled by an increasing map into 1..3n+1, which keeps every row
    and column increasing and usually leaves gaps."""
    if shape is None:
        t = draw(standard_bitableaux(max_n))
    else:
        t = draw(st.sampled_from(enumerate_standard_bitableaux(shape)))
    if draw(st.booleans()):
        return t
    values = sorted(draw(st.sets(st.integers(1, 3 * t.size + 1), min_size=t.size, max_size=t.size)))
    relabel = lambda rows: [[values[x - 1] for x in row] for row in rows]
    return Bitableau(relabel(t.left), relabel(t.right))


def outcome_of_step(step: RemovalStep):
    """The transition a cascade step actually took, read off its target box or
    the sign of its emitted letter: what second_decrement must predict."""
    if step.emitted is not None:
        return TerminateUnbarred() if step.emitted > 0 else TerminateBarred()
    return Continue(step.target.side, step.target.row)
