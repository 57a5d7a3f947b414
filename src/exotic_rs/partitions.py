"""Integer partitions, bipartitions, the row-index scan of the box-removal
transition rules, and the number of standard bitableaux of a shape.

Conventions used throughout the package:

* Partitions are weakly decreasing tuples of positive integers; trailing
  zeros are stripped on construction.  Out-of-range parts read as 0, so
  ``mu.part(i)`` is total for every i >= 1.
* A bipartition (mu, nu) describes the shape of a bitableau: mu gives the
  row lengths of the left component, nu of the right component.  Row i of
  the combined shape has lam_i = mu_i + nu_i boxes.
* Rows are indexed from 1 to match the usual mathematical conventions;
  the row-index scan of the transition rules answers with a row in
  ``{1, ..., len(lam)}``, or 0 for none.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from math import comb, factorial
from operator import attrgetter, ge, gt, le, lt


class Side(Enum):
    """Which component of a bitableau (or of a bipartition) a row lives in."""

    LEFT = "left"
    RIGHT = "right"

    def __repr__(self) -> str:  # keep pytest output short
        return self.value


class _Frozen:
    """An immutable value made of the fields that its own class names in ``__slots__``, each set once by
    its ``__init__``.  Two values are equal when they are of one class and their fields are equal, and hash
    as their fields do; the repr reads ``Name(field=value, ...)``; assigning or deleting a field raises
    AttributeError; pickle and copy rebuild a value through its constructor.

    This is what the package used of the standard library's frozen data classes, without their cost at
    start-up, which every ``exotic-rs`` command pays: importing their module pulls in ``inspect`` and
    ``ast`` (about 13 ms), and each frozen data class ``exec``s its generated methods (about 1.35 ms a
    class).  With the 15 classes on this base, ``import exotic_rs.cli`` takes about 14 ms instead of 47
    (``-X importtime``, Python 3.11 on a 2-CPU x86 host).
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # The fields read in C as one key: a tuple of two or more, a single field itself (the class for none).
        cls._key = property(attrgetter(*cls.__slots__ or ("__class__",)))

    def __eq__(self, other: object) -> bool:
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    @classmethod
    def _unchecked(cls, *fields: object):
        """The value with these fields, as its constructor would store them, without its checks: for valid fields."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(self, name, value)
        return self


def _by_key(op):
    """An order method of a frozen value that compares field keys with ``op``, within one class."""
    return lambda self, other: op(self._key, other._key) if other.__class__ is self.__class__ else NotImplemented


class _Ordered(_Frozen):
    """A frozen value ordered as its field tuple, within one class."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = map(_by_key, (lt, le, gt, ge))


class Partition(_Ordered):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "parts", parts)
        self.__post_init__()

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        # exact type check: bool is an int subclass and is rejected
        if not set(map(type, parts)) <= {int} or min(parts, default=0) < 0:
            raise ValueError(f"partition parts must be non-negative integers: {parts!r}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if list(parts) != sorted(parts, reverse=True):
            raise ValueError(f"partition parts must be weakly decreasing: {parts!r}")
        object.__setattr__(self, "parts", parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-indexed); 0 for i beyond the length."""
        if i < 1:
            raise IndexError(f"part index must be >= 1, got {i}")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def decremented(self, i: int) -> "Partition":
        """Remove one box from row i, requiring the result to be a partition."""
        if not self.can_decrement(i):
            raise ValueError(f"cannot remove a box from row {i} of {self.parts}")
        parts = list(self.parts)
        parts[i - 1] -= 1
        return Partition(tuple(parts))

    def can_decrement(self, i: int) -> bool:
        return 1 <= i <= len(self.parts) and self.part(i) > self.part(i + 1)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


class Bipartition(_Ordered):
    """A pair of partitions (mu, nu) with total size |mu| + |nu|."""

    __slots__ = ("mu", "nu")

    def __init__(self, mu: Partition = Partition(), nu: Partition = Partition()) -> None:
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)

    @property
    def lam(self) -> Partition:
        """The row-sum partition: lam_i = mu_i + nu_i."""
        n = max(self.mu.length, self.nu.length)
        return Partition(tuple(self.mu.part(i) + self.nu.part(i) for i in range(1, n + 1)))

    @property
    def length(self) -> int:
        return max(self.mu.length, self.nu.length)

    @property
    def size(self) -> int:
        return self.mu.size + self.nu.size

    def component(self, side: Side) -> Partition:
        return self.mu if side is Side.LEFT else self.nu

    def decremented(self, side: Side, row: int) -> "Bipartition":
        if side is Side.LEFT:
            return Bipartition(self.mu.decremented(row), self.nu)
        return Bipartition(self.mu, self.nu.decremented(row))

    def can_decrement(self, side: Side, row: int) -> bool:
        return self.component(side).can_decrement(row)

    def removable_rows(self) -> list[tuple[Side, int]]:
        """All (side, row) whose outermost box can be removed, left rows first."""
        out = [(Side.LEFT, i) for i in range(1, self.mu.length + 1) if self.mu.can_decrement(i)]
        out += [(Side.RIGHT, i) for i in range(1, self.nu.length + 1) if self.nu.can_decrement(i)]
        return out

    def to_text(self) -> str:
        return f"mu={self.mu};nu={self.nu}"

    def to_json(self) -> dict:
        return {"mu": list(self.mu.parts), "nu": list(self.nu.parts)}

    def __str__(self) -> str:
        return self.to_text()


def _last_equal_row(parts: tuple[int, ...], m: int, length: int) -> int:
    """Largest row index i <= length with parts_i = parts_m, parts beyond the
    tuple reading as 0; 0 when no row qualifies."""
    if m < 1:
        raise IndexError(f"row index must be >= 1, got {m}")
    part = lambda i: parts[i - 1] if i <= len(parts) else 0
    target = part(m)
    return next((i for i in range(length, 0, -1) if part(i) == target), 0)


def dimension_b(bp: Bipartition) -> int:
    """The dimension statistic |nu| + sum_i (i-1) * (mu_i + nu_i)."""
    return bp.nu.size + sum(i * part for i, part in enumerate(bp.lam.parts))


def partitions_of(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total`` with parts <= max_part, largest part first."""
    if total < 0:
        raise ValueError(f"cannot partition a negative total: {total}")
    if total == 0:
        yield ()
        return
    top = total if max_part is None else min(max_part, total)
    for first in range(top, 0, -1):
        for rest in partitions_of(total - first, first):
            yield (first, *rest)


def enumerate_bipartitions(n: int) -> list[Bipartition]:
    """All bipartitions of total size n, sorted by their text serialization.

    The sort order is the package's canonical report order for shapes; for
    n=1 it yields [(mu=(1), nu=()), (mu=(), nu=(1))].
    """
    if n < 0:
        raise ValueError(f"total size must be >= 0, got {n}")
    out = [
        Bipartition(Partition(mu), Partition(nu))
        for k in range(n + 1)
        for mu in partitions_of(k)
        for nu in partitions_of(n - k)
    ]
    return sorted(out, key=Bipartition.to_text)


def count_bitableaux(bp: Bipartition) -> int:
    """Number of standard bitableaux of shape bp.

    The two components fill independently: choose which |mu| of the n
    entries go left, then a standard Young tableau of each component, counted
    by the hook length formula.
    """
    return comb(bp.size, bp.mu.size) * _hook_count(bp.mu.parts) * _hook_count(bp.nu.parts)


def _hook_count(parts: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of one shape: n! over the product of its hook lengths."""
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= row - j + sum(1 for below in parts[i + 1:] if below > j)
    return factorial(sum(parts)) // hooks
