"""Bitableaux: pairs of Young-diagram fillings growing away from a common wall.

Storage convention (used by every function in the package): both components
store each row *wall-outward*, i.e. index 0 of a row is the box adjacent to
the central wall.  Only :meth:`Bitableau.render` mirrors the left component,
so the printed picture shows the two diagrams growing left and right out of
a shared wall::

    6 3 1 | 4 7
      2   | 5 8
          | 9      <- printed as "2 | 5 8" and "| 9" (no column padding)

Rows of each component are numbered 1, 2, ... downward.  Interleaving the
two components by depth gives the *combined row numbering* used by the
bumping algorithms: left row i is combined row 2i-1, right row i is 2i, so
rows at equal depth put the right component below the left.  The kernels of
:mod:`.correspondence` count the same order from 0: their combined row 2i + c
is row i of component c, counted from 0, with c = 0 left and 1 right.

A :class:`Bitableau` is any filling by distinct positive integers that
increases along rows (away from the wall) and down columns; entries need not
be 1..n (intermediate states of the algorithms have gaps).  A standard one,
whose entries are exactly 1..n, is what the correspondence pairs.
"""

from __future__ import annotations

from functools import cache
from operator import ge

from .partitions import Bipartition, Partition, Side, _Frozen


class Position(_Frozen):
    """A box slot: which component, which row, and the distance from the wall
    (col = 1 is the box touching the wall)."""

    __slots__ = ("side", "row", "col")

    def __init__(self, side: Side, row: int, col: int) -> None:
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.side, Side):
            raise ValueError(f"position side must be a Side, got {self.side!r}")
        if type(self.row) is not int or type(self.col) is not int:  # exact: bool is rejected
            raise ValueError(f"position row/col must be integers, got row={self.row!r}, col={self.col!r}")
        if self.row < 1 or self.col < 1:
            raise ValueError(f"position row/col must be >= 1: {self!r}")

    def to_json(self) -> dict:
        return {"side": self.side.value, "row": self.row, "col": self.col}

    def __repr__(self) -> str:
        return f"({self.side.value} r{self.row} c{self.col})"


class Bitableau(_Frozen):
    """An increasing filling of a bipartition shape by distinct positive integers, stored wall-outward (see module
    docstring).  One scan of its rows accepts it; otherwise a row-by-row report raises, naming the first fault."""

    __slots__ = ("left", "right")

    def __init__(self, left: tuple[tuple[int, ...], ...] = (), right: tuple[tuple[int, ...], ...] = ()) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        self.__post_init__()

    def __post_init__(self) -> None:
        left, right = tuple(map(tuple, self.left)), tuple(map(tuple, self.right))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if _accepted(left, right):
            return
        seen: set[int] = set()
        for side, rows in ((Side.LEFT, left), (Side.RIGHT, right)):
            for i, row in enumerate(rows, start=1):
                if not row:
                    raise ValueError(f"{side.value} row {i} is empty; empty rows are not stored")
                for x in row:
                    if type(x) is not int or x < 1:  # exact: bool is rejected
                        raise ValueError(f"entries must be positive integers, got {x!r} in {side.value} row {i}")
                    if x in seen:
                        raise ValueError(f"entries must be distinct, {x} appears twice")
                    seen.add(x)
                if any(map(ge, row, row[1:])):
                    raise ValueError(f"entries must increase away from the wall in {side.value} row {i}: {row}")
            for i in range(len(rows) - 1):
                if len(rows[i]) < len(rows[i + 1]):
                    raise ValueError(f"{side.value} row lengths must weakly decrease: row {i + 1} is shorter than row {i + 2}")
                for j in range(len(rows[i + 1])):
                    if rows[i][j] >= rows[i + 1][j]:
                        raise ValueError(
                            f"entries must increase down each column: {side.value} rows {i + 1},{i + 2} "
                            f"at distance {j + 1} hold {rows[i][j]},{rows[i + 1][j]}"
                        )

    # -- basic views ---------------------------------------------------------

    @property
    def shape(self) -> Bipartition:
        return Bipartition(Partition(tuple(map(len, self.left))), Partition(tuple(map(len, self.right))))

    @property
    def size(self) -> int:
        return sum(map(len, self.left)) + sum(map(len, self.right))

    def entries(self) -> frozenset[int]:
        return frozenset(x for rows in (self.left, self.right) for row in rows for x in row)

    # -- rendering and serialization ------------------------------------------

    def render(self) -> str:
        """Human-readable picture, left component mirrored toward the wall."""
        lines = []
        for i in range(max(len(self.left), len(self.right))):
            lrow = self.left[i] if i < len(self.left) else ()
            rrow = self.right[i] if i < len(self.right) else ()
            left_txt = " ".join(str(x) for x in reversed(lrow))
            right_txt = " ".join(str(x) for x in rrow)
            lines.append((left_txt + " | " + right_txt).strip())
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"left": [list(r) for r in self.left], "right": [list(r) for r in self.right]}

    @classmethod
    def from_json(cls, obj: object) -> "Bitableau":
        if not isinstance(obj, dict) or set(obj) != {"left", "right"}:
            raise ValueError(f"bad bitableau object: expected keys left, right, got {obj!r}")
        for key in ("left", "right"):
            rows = obj[key]
            if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
                raise ValueError(f"bad bitableau object: {key!r} must be a list of rows")
        return cls(tuple(tuple(r) for r in obj["left"]), tuple(tuple(r) for r in obj["right"]))


def _accepted(left: tuple[tuple, ...], right: tuple[tuple, ...]) -> bool:
    """Whether every row is non-empty, rises from 0 in exact ints and fits under the row above it; no entry twice."""
    count = 0
    for rows in (left, right):
        above = None
        for row in rows:
            prev = 0
            for x in row:
                if type(x) is not int or x <= prev:
                    return False
                prev = x
            if not row or above is not None and (len(above) < len(row) or any(map(ge, above, row))):
                return False
            count += len(row)
            above = row
    return len(set().union(*left, *right)) == count


# -- enumeration ---------------------------------------------------------------


def enumerate_standard_bitableaux(shape: Bipartition) -> tuple[Bitableau, ...]:
    """All standard bitableaux of the given shape.

    Order (the canonical report order): recursion over where the largest
    entry sits, trying left-component corners top to bottom, then right ones.
    """
    return _enumerate(shape.mu.parts, shape.nu.parts)


@cache
def _enumerate(mu: tuple[int, ...], nu: tuple[int, ...]) -> tuple[Bitableau, ...]:
    """The tableaux of the shape with parts ``mu`` and ``nu``, the largest entry n in each removable box in turn."""
    n = sum(mu) + sum(nu)
    if n == 0:
        return (Bitableau(),)
    # Each row i (0-indexed) whose last box can go, top to bottom, with the parts left; and rows with n put in row i.
    removals = lambda p: [(i, p[:i] + (k - 1,) * (k > 1) + p[i + 1:]) for i, (k, below) in enumerate(zip(p, p[1:] + (0,))) if k > below]
    grown = lambda rows, i: rows[:i] + (rows[i] + (n,) if i < len(rows) else (n,),) + rows[i + 1:]
    left = [Bitableau(grown(t.left, i), t.right) for i, less in removals(mu) for t in _enumerate(less, nu)]
    return (*left, *(Bitableau(t.left, grown(t.right, i)) for i, less in removals(nu) for t in _enumerate(mu, less)))
