"""Shared hypothesis strategies.

Standard bitableaux are generated by growing a shape one corner at a time,
independently of the insertion algorithm under test.
"""

from __future__ import annotations

import hypothesis.strategies as st

from exotic_rs import (
    Bipartition,
    Bitableau,
    Partition,
    Position,
    Side,
    SignedPermutation,
    enumerate_standard_bitableaux,
)


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


def _addable_positions(t: Bitableau) -> list[Position]:
    out = []
    for side in (Side.LEFT, Side.RIGHT):
        rows = t.component(side)
        for i in range(1, len(rows) + 2):
            length = len(rows[i - 1]) if i <= len(rows) else 0
            if i == 1 or len(rows[i - 2]) > length:
                out.append(Position(side, i, length + 1))
    return out


@st.composite
def standard_bitableaux(draw, max_n: int = 6, min_n: int = 0) -> Bitableau:
    n = draw(st.integers(min_n, max_n))
    t = Bitableau()
    for entry in range(1, n + 1):
        pos = draw(st.sampled_from(_addable_positions(t)))
        t = t.with_box(pos, entry)
    return t


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
