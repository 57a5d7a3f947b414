"""Integer partitions, bipartitions, and the number of standard bitableaux of
a shape.

Conventions used throughout the package:

* Partitions are weakly decreasing tuples of positive integers; trailing
  zeros are stripped on construction.
* A bipartition (mu, nu) describes the shape of a bitableau: mu gives the
  row lengths of the left component, nu of the right component.  Row i of
  the combined shape has lam_i = mu_i + nu_i boxes.
* Rows are indexed from 1 to match the usual mathematical conventions.
  The kernels in :mod:`.correspondence`, and the transition rule stated
  at ``correspondence._classify``, index rows from 0 instead.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from itertools import zip_longest
from math import comb, factorial
from operator import attrgetter


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
    def _unchecked(cls, value: object):
        """The value of a one-field class holding ``value`` as its constructor would store it, without its
        checks: for a valid field."""
        self = object.__new__(cls)
        object.__setattr__(self, cls.__slots__[0], value)
        return self

    @classmethod
    def _unchecked2(cls, first: object, second: object):
        """The value of a two-field class holding ``first`` and ``second``, as :meth:`_unchecked` does one field."""
        setter, (a, b) = object.__setattr__, cls.__slots__  # each looked up once: as fast as literal names
        setter(self := object.__new__(cls), a, first)
        setter(self, b, second)
        return self


class Partition(_Frozen):
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
    def size(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


class Bipartition(_Frozen):
    """A pair of partitions (mu, nu) with total size |mu| + |nu|."""

    __slots__ = ("mu", "nu")

    def __init__(self, mu: Partition = Partition(), nu: Partition = Partition()) -> None:
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        if not (isinstance(mu, Partition) and isinstance(nu, Partition)):
            raise ValueError(f"bipartition components must be partitions, got mu={mu!r}, nu={nu!r}")

    @property
    def lam(self) -> Partition:
        """The row-sum partition: lam_i = mu_i + nu_i."""
        return Partition(tuple(map(sum, zip_longest(self.mu.parts, self.nu.parts, fillvalue=0))))

    @property
    def size(self) -> int:
        return self.mu.size + self.nu.size

    def to_text(self) -> str:
        return f"mu={self.mu};nu={self.nu}"

    def to_json(self) -> dict:
        return {"mu": list(self.mu.parts), "nu": list(self.nu.parts)}

    def __str__(self) -> str:
        return self.to_text()


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
    out = [Bipartition(Partition(mu), Partition(nu)) for k in range(n + 1) for mu in partitions_of(k) for nu in partitions_of(n - k)]
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
