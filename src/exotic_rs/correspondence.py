"""The exotic Robinson-Schensted correspondence.

``insertion`` maps a signed permutation to a pair (T, R) of same-shape
standard bitableaux; ``reverse_bumping`` is its inverse.  ``bump_once``
peels off just the largest entry, producing the pair of the reduced word.
``second_decrement`` classifies, from shape data alone, where the next box
leaves the diagram during a removal cascade: its rule, stated at
``_classify``, is the walk of reverse bumping below, read off the row counts
of a truncation.  The bumping algorithms are the ground truth it is checked
against.

Rows are numbered as the kernels number them, from 0: row i of component c
(0 left, 1 right) is combined row m = 2i + c.  Insertion, letter by letter
(k = 1..n, s = |w_k|):

* a value x has at most one slot in each row: the column of the first entry
  larger than x (or the free box after the row's last entry), provided the
  row is the first of its component or the row above holds a smaller entry
  in that column;
* unbarred s starts at the slot of combined row 0, the first left row;
* barred s starts in the wall-adjacent column: on each side, at the first
  row whose wall entry is larger than s (or the new row below), taking the
  lower of the two in the combined row order;
* placing s on an occupied slot displaces the larger entry, which is then
  placed at its slot in the lowest of combined rows m+1, m, ..., 0 that has
  one, where m is the combined row it was displaced from (row 0 always has
  one); a free slot ends the cascade and records k at the same spot in R.

Reverse bumping undoes this: for k = n..1 it removes the box holding k in R,
takes the entry s of T in that box, and walks s back up.  A row offers s at
most one available box: its last entry smaller than s, provided the box
below is absent or larger than s.  From combined row m, s moves to the
available box in the highest of combined rows m-1, m, ... that has one,
displacing the smaller entry found there; from combined row 0 the letter
is emitted unbarred, and when no box is available it is emitted barred.

Each direction is one step on T kept as these rules read it, one list of
combined rows, and names a box by its combined row: ``_place`` (one letter
into T) returns the new box's row, where ``_insert`` records k in R, and
``_remove`` (one cascade out) takes the row that ``_boxes`` gives k in R.
``_insert`` maps letters to the rows (T, R) of their pair, ``_reverse`` maps
rows back to letters; ``_reduce`` and ``_drop`` are ``bump_once``'s steps on T
and on R.  The public functions are thin wrappers that check only what the
kernels leave open: ``_pair`` accepts a kernel's rows in one scan per tableau
and builds the pair unchecked, and reverse bumping builds its word unchecked, as
a checked pair's cascades emit each entry of T once.  Only the ``_with_trace``
variants and the transition check record steps, as plain tuples whose layout is
private to this module, which runs no sweep: those are in :mod:`.verify`.  A
hop's truncation is counted down each component only to the first row without
an entry below the moving value: columns increase, so none below has one.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator
from itertools import count, zip_longest
from operator import itemgetter

from .bitableaux import Bitableau, Position, _accepted
from .partitions import Bipartition, Partition, Side, _Frozen
from .signed_perm import SignedPermutation

_last = itemgetter(-1)  # a row's outermost entry


class CorrespondencePair(_Frozen):
    """A pair of same-shape standard bitableaux: T carries the inserted
    values, R records the order in which boxes were created."""

    __slots__ = ("T", "R")

    def __init__(self, T: Bitableau = Bitableau(), R: Bitableau = Bitableau()) -> None:
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "R", R)
        self.__post_init__()

    def __post_init__(self) -> None:
        T, R = self.T, self.R
        left, right = [*map(len, T.left)], [*map(len, T.right)]
        if left != [*map(len, R.left)] or right != [*map(len, R.right)]:
            raise ValueError(f"pair components must share one shape: {T.shape} vs {R.shape}")
        size = sum(left) + sum(right)  # of both; standard: the largest row end is the size, as entries are distinct and increase
        for name, t in (("T", T), ("R", R)):
            if max(map(_last, t.left + t.right), default=0) != size:
                raise ValueError(f"{name} must be standard (entries exactly 1..{size})")

    @property
    def shape(self) -> Bipartition:
        return self.T.shape

    @property
    def size(self) -> int:
        return self.T.size

    def swapped(self) -> "CorrespondencePair":
        """(R, T), built unchecked: both tableaux are standard and share one shape."""
        return CorrespondencePair._unchecked2(self.R, self.T)

    def to_json(self) -> dict:
        return {"T": self.T.to_json(), "R": self.R.to_json()}

    @classmethod
    def from_json(cls, obj: object) -> "CorrespondencePair":
        if not isinstance(obj, dict) or set(obj) != {"T", "R"}:
            raise ValueError(f"bad pair object: expected keys T, R, got {obj!r}")
        return cls(Bitableau.from_json(obj["T"]), Bitableau.from_json(obj["R"]))


# -- traces --------------------------------------------------------------------


class InsertionStep(_Frozen):
    """One placement during insertion: ``value`` lands at ``target``,
    displacing ``displaced`` (None when the slot was free)."""

    __slots__ = ("value", "target", "displaced")

    def __init__(self, value: int, target: Position, displaced: int | None) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "displaced", displaced)

    def to_json(self) -> dict:
        return {"value": self.value, **self.target.to_json(), "displaced": self.displaced}


class InsertionRecord(_Frozen):
    __slots__ = ("k", "letter", "steps")

    def __init__(self, k: int, letter: int, steps: tuple[InsertionStep, ...]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "letter", letter)
        object.__setattr__(self, "steps", steps)

    def to_json(self) -> dict:
        return {"k": self.k, "letter": self.letter, "steps": [s.to_json() for s in self.steps]}


class RemovalStep(_Frozen):
    """One hop of a removal cascade.

    ``value`` leaves the box ``source``; ``shape`` is the shape of the
    sub-bitableau of entries < value together with that box (the data the
    transition rule sees).  Either ``target`` is the box it lands in, or
    ``emitted`` is the signed letter that leaves the diagram.
    """

    __slots__ = ("value", "source", "shape", "target", "emitted")

    def __init__(self, value: int, source: Position, shape: Bipartition, target: Position | None, emitted: int | None) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "emitted", emitted)

    def to_json(self) -> dict:
        to = None if self.target is None else self.target.to_json()
        return {"value": self.value, **self.source.to_json(), "shape": self.shape.to_json(), "to": to, "emit": self.emitted}


class RemovalRecord(_Frozen):
    __slots__ = ("k", "letter", "steps")

    def __init__(self, k: int, letter: int, steps: tuple[RemovalStep, ...]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "letter", letter)
        object.__setattr__(self, "steps", steps)

    def to_json(self) -> dict:
        return {"k": self.k, "letter": self.letter, "steps": [s.to_json() for s in self.steps]}


# -- the kernel ------------------------------------------------------------------
#
# Both directions run on one list ``z`` of combined rows, mutable and wall-outward: z[2i + c] is row i of
# component c, and a box is named by its combined row m = 2i + c and column j, all from 0; only the hop records,
# the transition rule and the traces read it as (c, i).  A row that a component lacks is empty, and z ends in
# exactly two empty rows past the last non-empty one, so the rows m - 2, m and m + 2 that a probe reads are there.

_SIDES = (Side.LEFT, Side.RIGHT)

_Rows = list[list[int]]
_Tableau = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]  # the kernels' in and out: (left, right) rows


def _rows(t: _Tableau, row: type = list) -> _Rows:
    """The combined rows of the tableau with rows (left, right), each made by ``row``: lists for the kernels, or tuples
    for a state (:func:`.verify._interned`), which then holds the tableau's own row tuples, as ``tuple`` gives a tuple back."""
    left, right = t
    z = []
    for a, b in zip_longest(left, right, fillvalue=()):
        z.append(row(a))
        z.append(row(b))
    z += (row(),) if len(left) > len(right) else (row(), row())  # a longer left ends in an empty right row already
    return z


def _frozen(z: _Rows) -> _Tableau:
    """The rows (left, right) of the combined rows z: each component's rows down to its first empty one."""
    left, right = z[0::2], z[1::2]
    del left[left.index([]):], right[right.index([]):]
    return tuple(map(tuple, left)), tuple(map(tuple, right))


def _pair(T: _Tableau, R: _Tableau) -> CorrespondencePair:
    """The validated pair with these row tuples, accepted as the constructors would: the row lengths agree,
    :func:`_accepted` passes for each tableau (distinct positive exact ints; rows non-empty, rising, under the row above),
    and each one's largest row end is the size, so its n distinct entries are 1..n.  Otherwise the constructors raise."""
    (tl, tr), (rl, rr) = T, R
    t, r = tl + tr, rl + rr  # each tableau's rows, left then right
    if len(tl) == len(rl) and (lengths := [*map(len, t)]) == [*map(len, r)] and _accepted(tl, tr) and _accepted(rl, rr) \
            and max(map(_last, t), default=0) == sum(lengths) == max(map(_last, r), default=0):
        return CorrespondencePair._unchecked2(Bitableau._unchecked2(tl, tr), Bitableau._unchecked2(rl, rr))
    return CorrespondencePair(Bitableau(*T), Bitableau(*R))


def _boxes(t: _Tableau) -> dict[int, int]:
    """The combined row 2i + c holding each entry."""
    return {x: 2 * i + c for c, rows in enumerate(t) for i, row in enumerate(rows) for x in row}


# -- insertion -----------------------------------------------------------------


def insertion(w: SignedPermutation) -> CorrespondencePair:
    """The exotic Robinson-Schensted insertion of a signed permutation."""
    return _pair(*_insert(w.letters))


def insertion_with_trace(w: SignedPermutation) -> tuple[CorrespondencePair, tuple[InsertionRecord, ...]]:
    records: list[InsertionRecord] = []
    return _pair(*_insert(w.letters, records)), tuple(records)


def _insert(letters: tuple[int, ...], records: list[InsertionRecord] | None = None) -> tuple[_Tableau, _Tableau]:
    """The insertion kernel: the rows (T, R) the letters insert to; with a list for ``records``, one record per letter."""
    z, r = [[], []], [[], []]  # the combined rows of T and of R
    for k, letter in enumerate(letters, start=1):
        steps = None if records is None else []
        m = _place(z, letter, steps)
        while len(r) < len(z):  # R's rows follow T's
            r.append([])
        r[m].append(k)
        if steps is not None:
            records.append(InsertionRecord(k, letter, tuple(steps)))
    return _frozen(z), _frozen(r)


def _place(z: _Rows, letter: int, steps: list[InsertionStep] | None) -> int:
    """Insert a letter into the combined rows z; returns the combined row m of the box this creates.  Unless
    ``steps`` is None, each placement appends its :class:`InsertionStep`."""
    s = abs(letter)
    if letter > 0:
        m, j = 0, bisect_left(z[0], s)
    else:  # each component's first row whose wall entry is larger than s, or its first empty row
        a, m, j = 0, 1, 0
        while (row := z[a]) and row[0] < s:
            a += 2
        while (row := z[m]) and row[0] < s:
            m += 2
        m = max(a, m)
    row = z[m]
    while j < len(row):
        displaced, row[j] = row[j], s
        if steps is not None:
            steps.append(InsertionStep(s, Position(_SIDES[m & 1], (m >> 1) + 1, j + 1), displaced))
        s = displaced
        # Its slot in the lowest of combined rows m+1, m, ..., 0 that has one (row 0, the first left row, has one).
        m += 1
        while True:
            j = bisect_left(row := z[m], s)
            if m < 2 or (len(above := z[m - 2]) > j and above[j] < s):
                break
            m -= 1
    row.append(s)
    while len(z) < m + 3:  # a new row: pad it
        z.append([])
    if steps is not None:
        steps.append(InsertionStep(s, Position(_SIDES[m & 1], (m >> 1) + 1, j + 1), None))
    return m


# -- reverse bumping -----------------------------------------------------------


def reverse_bumping(pair: CorrespondencePair) -> SignedPermutation:
    """The inverse of :func:`insertion`.  The word is valid by construction, so it is built unchecked: the pair is
    checked, so T holds exactly 1..n; each of the n cascades pops one box and only swaps values up the diagram; so the
    cascades emit each entry of T once, with a sign, whatever the transition rule decides."""
    return SignedPermutation._unchecked(_reverse((pair.T.left, pair.T.right), (pair.R.left, pair.R.right)))


def reverse_bumping_with_trace(pair: CorrespondencePair) -> tuple[SignedPermutation, tuple[RemovalRecord, ...]]:
    cascades: list[tuple[int, int, list[tuple]]] = []
    word = SignedPermutation._unchecked(_reverse((pair.T.left, pair.T.right), (pair.R.left, pair.R.right), cascades))
    return word, tuple(RemovalRecord(k, letter, tuple(_removal_step(*h) for h in hops)) for k, letter, hops in cascades)


def _reverse(T: _Tableau, R: _Tableau, cascades: list | None = None) -> tuple[int, ...]:
    """The reverse-bumping kernel: the letters of the word of the pair with rows (T, R).  With a
    list for ``cascades``, one (k, letter, hops) per entry."""
    z, boxes, letters_rev = _rows(T), _boxes(R), []
    for k in range(len(boxes), 0, -1):
        hops = None if cascades is None else []
        letters_rev.append(_remove(z, boxes[k], hops))
        if hops is not None:
            cascades.append((k, letters_rev[-1], hops))
    return tuple(reversed(letters_rev))


def _remove(z: _Rows, m: int, hops: list[tuple] | None) -> int:
    """Remove the outermost box of combined row m from the combined rows z and walk its value back up the diagram;
    returns the emitted letter.  Unless ``hops`` is None, each hop appends (value, c, i, j, mu, nu, slot, letter):
    the box left, as row i of component c, the truncation's row counts, taken row by row until one has none, and the
    box entered or the letter."""
    row = z[m]
    j = len(row) - 1
    value = row.pop()
    if not row and len(z) == m + 3:  # the last non-empty row emptied: now it is row m - 1, or else m - 2 (or none)
        del z[m + 1 + (m == 0 or bool(z[m - 1])):]
    while True:
        # The available box in the highest of combined rows m-1, m, ... that has one.  Rows that start above the
        # value (or are empty) have none, nor do the rows below them: two misses in a row, and it leaves barred.
        # Row 0, the first left row, has no row above: from there it leaves unbarred.
        k, missed, col = m - 1, False, -1
        while m:
            if (col := bisect_left(row := z[k], value) - 1) >= 0:
                if len(below := z[k + 2]) <= col or below[col] > value:
                    break
                missed = False
            elif missed:
                break
            else:
                missed = True
            k += 1
        if hops is not None:
            # Entries below the moving value, per row, down to the first row with none: the counts weakly
            # decrease down a component, as its columns increase.  With the box left: the truncation.
            mu, nu = [], []
            for x, counts in (0, mu), (1, nu):  # rows x = c, c + 2, ... of component c, to an empty one at the latest
                while y := bisect_left(z[x], value):
                    counts.append(y)
                    x += 2
            c, i = m & 1, m >> 1
            (nu if c else mu)[i:i + 1] = j + 1,  # row i counted j, or none when j = 0, and then it ended the list
            letter = None if col >= 0 else -value if m else value
            hops.append((value, c, i, j, tuple(mu), tuple(nu), None if letter else (k & 1, k >> 1, col), letter))
        if col < 0:
            return -value if m else value
        m, j = k, col
        value, row[j] = row[j], value


def _disagreements(hops: Iterable[tuple], answers: dict) -> Iterator[tuple]:
    """Each hop, in order, of one cascade's ``hops`` that :func:`_classify` (memo: ``answers``) mispredicts."""
    for hop in hops:
        _, c, i, _, mu, nu, slot, letter = hop
        if (key := (mu, nu, c, i)) not in answers:
            answers[key] = _classify(*key)
        if answers[key] != (letter > 0 if slot is None else slot[:2]):
            yield hop


def _removal_step(value, c, i, j, mu, nu, slot, letter) -> RemovalStep:
    """The :class:`RemovalStep` of one hop recorded by :func:`_remove`."""
    target = None if slot is None else Position(_SIDES[slot[0]], slot[1] + 1, slot[2] + 1)
    shape = Bipartition(Partition._unchecked(mu), Partition._unchecked(nu))  # the counts weakly decrease by construction
    return RemovalStep(value, Position(_SIDES[c], i + 1, j + 1), shape, target, letter)


def _hop_failure(T: _Tableau, R: _Tableau, k: int, hop: tuple) -> dict:
    """The failure record of a hop of the k-th cascade of the pair (T, R) that :func:`_disagreements` names:
    the validated pair, the step and the :func:`second_decrement` answer it quotes."""
    step = _removal_step(*hop)
    try:
        why = {"predicted": repr(second_decrement(step.shape, FirstRemoval(step.source.side, step.source.row)))}
    except ClassificationError as err:
        why = {"error": str(err)}
    return {"pair": _pair(T, R).to_json(), "k": k, "step": step.to_json(), **why}


# -- single-step reduction -------------------------------------------------------


def bump_once(pair: CorrespondencePair) -> tuple[CorrespondencePair, int, int]:
    """Remove the largest entry n from the pair.

    Returns (reduced pair on n-1 entries, letter, r): ``letter`` is the
    signed letter the cascade emits (the last letter of the pair's word) and
    r its magnitude.  The reduced pair's value tableau closes the gap r
    leaves by shifting every entry above r down by one; the recording
    tableau simply loses the box of n.
    """
    if pair.size == 0:
        raise ValueError("the empty pair has no largest entry to remove")
    rec = pair.R.left, pair.R.right
    T, letter = _reduce(_rows((pair.T.left, pair.T.right)), _boxes(rec)[pair.size])
    return _pair(T, _drop(rec, pair.size)), letter, abs(letter)


def _reduce(z: _Rows, m: int) -> tuple[_Tableau, int]:
    """:func:`bump_once`'s step on T: the cascade out of the outermost box of combined row m, which holds n in R, runs
    on the mutable combined rows z and leaves them as it ends.  Returns the reduced T's rows and the letter."""
    letter = _remove(z, m, None)
    r = abs(letter)
    relabel = lambda rows: tuple(tuple(x - 1 if x > r else x for x in row) for row in rows)
    return tuple(map(relabel, _frozen(z))), letter


def _drop(R: _Tableau, n: int) -> _Tableau:
    """:func:`bump_once`'s step on R: the rows of R without the box of its largest entry n."""
    return tuple(tuple(row for row in (row[:-1] if row[-1] == n else row for row in rows) if row) for rows in R)


# -- transition classification ---------------------------------------------------


class FirstRemoval(_Frozen):
    """Which box starts a cascade: the outermost box of ``row`` on ``side``."""

    __slots__ = ("side", "row")

    def __init__(self, side: Side, row: int) -> None:
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "row", row)


class Continue(_Frozen):
    """The cascade's next box leaves ``row`` of ``side`` (of the shape left
    after the first removal)."""

    __slots__ = ("side", "row")

    def __init__(self, side: Side, row: int) -> None:
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "row", row)


class TerminateUnbarred(_Frozen):
    """The cascade ends by emitting the moving value as an unbarred letter."""

    __slots__ = ()


class TerminateBarred(_Frozen):
    """The cascade ends by emitting the moving value as a barred letter."""

    __slots__ = ()


class ClassificationError(ValueError):
    """The transition rule gave no answer, which only a patched :func:`_classify` does."""

    def __init__(self, bp: Bipartition, removal: FirstRemoval):
        self.bp = bp
        self.removal = removal
        super().__init__(f"no transition rule matches for shape {bp}, first removal ({removal.side.value}, row {removal.row})")


def second_decrement(bp: Bipartition, removal: FirstRemoval):
    """Where a removal cascade goes next, from shape data alone.

    ``bp``, a :class:`Bipartition`, is the shape of the truncation the moving value is leaving (its
    box included) and ``removal``, a :class:`FirstRemoval`, names that box's row.  The box must be a
    corner: ``side`` is a :class:`Side`, ``row`` an int, row ``row`` of ``side``
    exists and the row below it is shorter (or absent); otherwise ValueError is
    raised.  The answer is TerminateUnbarred / TerminateBarred when the cascade
    emits the value as a letter, or Continue(side, row): the next box to empty
    out, as a row of the shape obtained from ``bp`` by the first removal.  The rule is
    :func:`_classify`, which answers on every corner; should it give no
    answer, a :class:`ClassificationError` carrying (bp, removal) is raised.
    """
    if not isinstance(bp, Bipartition):
        raise ValueError(f"bp must be a Bipartition, got {bp!r}")
    if not isinstance(removal, FirstRemoval):
        raise ValueError(f"removal must be a FirstRemoval, got {removal!r}")
    named = removal.side in _SIDES and type(removal.row) is int  # exact: bool is rejected; row -1 stands for no row
    c, i = (_SIDES.index(removal.side), removal.row - 1) if named else (0, -1)
    rows = (bp.mu, bp.nu)[c].parts + (0,)
    if not 0 <= i < len(rows) - 1 or rows[i + 1] >= rows[i]:
        raise ValueError(f"{removal!r} is not a removable corner of {bp}")
    answer = _classify(bp.mu.parts, bp.nu.parts, c, i)
    if answer is None:
        raise ClassificationError(bp, removal)
    if isinstance(answer, tuple):
        return Continue(_SIDES[answer[0]], answer[1] + 1)
    return TerminateUnbarred() if answer else TerminateBarred()


def _classify(mu: tuple[int, ...], nu: tuple[int, ...], c: int, i: int) -> bool | tuple[int, int] | None:
    """The transition rule, in the kernel's terms: the hop leaves the outermost box of row i of
    component c of the truncation (mu, nu), whose row counts include that box.  Let c_k be the
    entries below the moving value in combined row k: the truncation's part, less that box in its
    row m = 2i + c.  From row 0 the value leaves as an unbarred letter (True).  Otherwise the next
    box leaves the highest of combined rows m - 1, m, m + 1, ... with an entry below the value and,
    in its component, a shorter row under it (c_k > c_(k+2)), answered as its (c, i); once two
    consecutive rows have no entry below the value, none further down has one (columns increase),
    and it leaves as a barred letter (False).  This is :func:`_remove`'s walk on the counts alone,
    so it reads only combined rows m - 1 and below, and it answers on every corner."""
    m = 2 * i + c
    if not m:
        return True
    counts = [x for pair in zip_longest(mu, nu, fillvalue=0) for x in pair] + [0, 0, 0]
    counts[m] -= 1
    for k in count(m - 1):
        if k >= m and counts[k - 1] == counts[k] == 0:
            return False
        if counts[k] > counts[k + 2]:
            return k & 1, k >> 1
