"""The exotic Robinson-Schensted correspondence.

``insertion`` maps a signed permutation to a pair (T, R) of same-shape
standard bitableaux; ``reverse_bumping`` is its inverse.  ``bump_once``
peels off just the largest entry, producing the pair of the reduced word.
``second_decrement`` classifies, from shape data alone, where the next box
leaves the diagram during a removal cascade; its rule table, ``_classify``,
reads row tuples, and the first rule to apply answers.  The bumping
algorithms are the ground truth it is checked against.

Insertion, letter by letter (k = 1..n, s = |w_k|):

* a value x has at most one slot in each row: the column of the first entry
  larger than x (or the free box after the row's last entry), provided the
  row is the first of its component or the row above holds a smaller entry
  in that column;
* unbarred s starts at the slot of the first left row;
* barred s starts in the wall-adjacent column: on each side, at the first
  row whose wall entry is larger than s (or the new row below), taking the
  lower of the two in the combined row order;
* placing s on an occupied slot displaces the larger entry, which is then
  placed at its slot in the lowest of combined rows m+1, m, ..., 1 that has
  one, where m is the combined row it was displaced from (left row 1 always
  has one); a free slot ends the cascade and records k at the same spot in R.

Reverse bumping undoes this: for k = n..1 it removes the box holding k in R,
takes the entry s of T in that box, and walks s back up.  A row offers s at
most one available box: its last entry smaller than s, provided the box
below is absent or larger than s.  From combined row m, s moves to the
available box in the highest of combined rows m-1, m, ... that has one,
displacing the smaller entry found there; when the walk reaches combined
row 1 the letter is emitted unbarred, and when no box is available it is
emitted barred.

Each direction is one step on plain mutable rows, ``_place`` (one letter into
T; it returns the new box's combined row, where ``_insert`` records k in R)
and ``_remove`` (one cascade out): ``_insert`` maps letters to the rows (T, R)
of their pair, ``_reverse`` maps rows back to letters, and ``_reduce`` is the
step of ``bump_once``.  The public functions are thin wrappers that build the
validated types (:class:`~exotic_rs.bitableaux.Bitableau`,
:class:`CorrespondencePair`, :class:`~exotic_rs.signed_perm.SignedPermutation`).
The sweeps share the steps of common prefixes: ``_insertion_tree`` places each
prefix of a word once and carries R as one integer, its ``_box_code``, and
``_walk`` runs each cascade once for all the R of a ``_removal_trie`` that
share it.  Only the ``_with_trace`` variants and the transition check record
steps, as plain tuples whose layout is private to this module; they become
step records there, or go to ``_classify`` directly.  A hop's truncation is
counted down each component only to the first row without an entry below the
moving value: columns increase, so none below has one.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from operator import itemgetter

from .bitableaux import Bitableau, Position
from .partitions import Bipartition, Partition, Side, _Frozen, _last_equal_row
from .signed_perm import SignedPermutation


class CorrespondencePair(_Frozen):
    """A pair of same-shape standard bitableaux: T carries the inserted
    values, R records the order in which boxes were created."""

    __slots__ = ("T", "R")

    def __init__(self, T: Bitableau = Bitableau(), R: Bitableau = Bitableau()) -> None:
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "R", R)
        self.__post_init__()

    def __post_init__(self) -> None:
        row_lengths = lambda t: (list(map(len, t.left)), list(map(len, t.right)))
        if row_lengths(self.T) != row_lengths(self.R):
            raise ValueError(f"pair components must share one shape: {self.T.shape} vs {self.R.shape}")
        for name, t in (("T", self.T), ("R", self.R)):
            if not t.is_standard:
                raise ValueError(f"{name} must be standard (entries exactly 1..{t.size})")

    @property
    def shape(self) -> Bipartition:
        return self.T.shape

    @property
    def size(self) -> int:
        return self.T.size

    def swapped(self) -> "CorrespondencePair":
        return CorrespondencePair(self.R, self.T)

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
    transition rules see).  Either ``target`` is the box it lands in, or
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
        return {
            "value": self.value,
            **self.source.to_json(),
            "shape": self.shape.to_json(),
            "to": None if self.target is None else self.target.to_json(),
            "emit": self.emitted,
        }


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
# Both directions run on ``t = (left, right)``: the rows of the two components
# as plain mutable lists, wall-outward.  A box is named by (c, i, j), all
# 0-based: component c (0 left, 1 right), row i, column j; its combined row
# number is 2i + 1 + c.  Entries stay distinct and increasing along rows and
# columns throughout, so a row's slot for a value is found by bisection plus
# one look at the neighbouring row.

_SIDES = (Side.LEFT, Side.RIGHT)

_Rows = tuple[list[list[int]], list[list[int]]]
_Tableau = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]  # the kernels' in and out: rows as stored


def _rows(t: _Tableau | _Rows) -> _Rows:
    return list(map(list, t[0])), list(map(list, t[1]))


def _frozen(t: _Rows) -> _Tableau:
    return tuple(map(tuple, t[0])), tuple(map(tuple, t[1]))


def _pair(T: _Tableau, R: _Tableau) -> CorrespondencePair:
    """The validated pair with these rows."""
    return CorrespondencePair(Bitableau(*T), Bitableau(*R))


def _boxes(t: _Tableau) -> dict[int, tuple[int, int]]:
    """The (component, row) holding each entry."""
    return {x: (c, i) for c, rows in enumerate(t) for i, row in enumerate(rows) for x in row}


# -- insertion -----------------------------------------------------------------


def insertion(w: SignedPermutation) -> CorrespondencePair:
    """The exotic Robinson-Schensted insertion of a signed permutation."""
    return _pair(*_insert(w.letters))


def insertion_with_trace(w: SignedPermutation) -> tuple[CorrespondencePair, tuple[InsertionRecord, ...]]:
    records: list[InsertionRecord] = []
    return _pair(*_insert(w.letters, records)), tuple(records)


def _insert(letters: tuple[int, ...], records: list[InsertionRecord] | None = None) -> tuple[_Tableau, _Tableau]:
    """The insertion kernel: the rows (T, R) the letters insert to; with a list for ``records``, one record per letter."""
    t: _Rows = ([], [])
    r: _Rows = ([], [])
    for k, letter in enumerate(letters, start=1):
        steps = None if records is None else []
        m = _place(t, letter, steps)
        if (i := m >> 1) == len(rows := r[m & 1]):
            rows.append([])
        rows[i].append(k)
        if steps is not None:
            records.append(InsertionRecord(k, letter, tuple(steps)))
    return _frozen(t), _frozen(r)


def _place(t: _Rows, letter: int, steps: list[InsertionStep] | None) -> int:
    """Insert a letter into the rows t; returns the 0-based combined row 2i + c of the box this creates.  Unless
    ``steps`` is None, each placement appends its :class:`InsertionStep`."""
    (left, right), s = t, abs(letter)
    if letter > 0:
        c, i, j = 0, 0, bisect_left(left[0], s) if left else 0
    else:
        a, b = bisect_left(left, s, key=itemgetter(0)), bisect_left(right, s, key=itemgetter(0))
        c, i, j = (1, b, 0) if b >= a else (0, a, 0)
    rows = right if c else left
    while i < len(rows) and j < len(row := rows[i]):
        displaced, row[j] = row[j], s
        if steps is not None:
            steps.append(InsertionStep(s, Position(_SIDES[c], i + 1, j + 1), displaced))
        s = displaced
        # Its slot in the lowest of combined rows m+1, m, ..., 1 that has one (0-based here; left row 1 has one).
        m = 2 * i + c + 1
        while True:
            c, i = m & 1, m >> 1
            rows = right if c else left
            if i <= len(rows):
                j = bisect_left(rows[i], s) if i < len(rows) else 0
                if i == 0 or (len(above := rows[i - 1]) > j and above[j] < s):
                    break
            m -= 1
    if i == len(rows):
        rows.append([])
    rows[i].append(s)
    if steps is not None:
        steps.append(InsertionStep(s, Position(_SIDES[c], i + 1, j + 1), None))
    return 2 * i + c


def _insertion_tree(n: int) -> Iterator[tuple[tuple[int, ...], _Tableau, int]]:
    """(letters, T, the :func:`_box_code` of R) of every word of size n in canonical order, from a depth-first walk
    of the prefixes: each places its last letter on a copy of its parent's rows (the first child, placed last, on
    the rows), and appends its box's row to the code.  A prefix with one magnitude u left yields its two words."""
    stack, radix = [((), tuple(range(1, n + 1)), ([], []), 0)], 2 * n
    while stack:
        letters, unused, t, code = stack.pop()
        if not unused:  # n = 0: the empty word
            yield letters, _frozen(t), code
        elif len(unused) == 1:  # u barred on a copy, then unbarred on the rows
            barred = _rows(t)
            m_barred, m = _place(barred, -unused[0], None), _place(t, unused[0], None)
            yield letters + unused, _frozen(t), code * radix + m
            yield letters + (-unused[0],), _frozen(barred), code * radix + m_barred
        else:
            for q in range(2 * len(unused) - 1, -1, -1):  # q = 2a + b: the a-th unused magnitude, barred if b
                child = t if q == 0 else _rows(t)
                letter = -unused[q >> 1] if q & 1 else unused[q >> 1]
                stack.append((letters + (letter,), unused[: q >> 1] + unused[(q >> 1) + 1:], child, code * radix + _place(child, letter, None)))


def _box_code(R: _Tableau, n: int) -> int | None:
    """The combined rows 2i + c of the boxes of 1, ..., n in R, as the base-2n digits of one number, 1's first;
    None unless R's entries are exactly 1..n.  Rows increase, so tableaux with different rows differ in code."""
    boxes = sorted((x, 2 * i + c) for c, rows in enumerate(R) for i, row in enumerate(rows) for x in row)
    return sum(m * (2 * n) ** (n - x) for x, m in boxes) if [x for x, _ in boxes] == list(range(1, n + 1)) else None


# -- reverse bumping -----------------------------------------------------------


def reverse_bumping(pair: CorrespondencePair) -> SignedPermutation:
    """The inverse of :func:`insertion`."""
    return SignedPermutation(_reverse((pair.T.left, pair.T.right), (pair.R.left, pair.R.right)))


def reverse_bumping_with_trace(pair: CorrespondencePair) -> tuple[SignedPermutation, tuple[RemovalRecord, ...]]:
    cascades: list[tuple[int, int, list[tuple]]] = []
    word = SignedPermutation(_reverse((pair.T.left, pair.T.right), (pair.R.left, pair.R.right), cascades))
    return word, tuple(RemovalRecord(k, letter, tuple(_removal_step(*h) for h in hops)) for k, letter, hops in cascades)


def _reverse(T: _Tableau, R: _Tableau, cascades: list | None = None) -> tuple[int, ...]:
    """The reverse-bumping kernel: the letters of the word of the pair with rows (T, R).  With a
    list for ``cascades``, one (k, letter, hops) per entry."""
    t = _rows(T)
    boxes = _boxes(R)
    letters_rev: list[int] = []
    for k in range(len(boxes), 0, -1):
        hops = None if cascades is None else []
        letters_rev.append(_remove(t, *boxes[k], hops))
        if hops is not None:
            cascades.append((k, letters_rev[-1], hops))
    return tuple(reversed(letters_rev))


def _remove(t: _Rows, c: int, i: int, hops: list[tuple] | None) -> int:
    """Remove the outermost box of row i of component c and walk its value back up the diagram; returns the
    emitted letter.  Unless ``hops`` is None, each hop appends (value, c, i, j, mu, nu, slot, letter): the box
    left, the truncation's row counts, taken row by row until one has none, and the box entered or the letter."""
    left, right = t
    j = len(t[c][i]) - 1
    value = t[c][i].pop()
    if not t[c][i]:  # an emptied row is the last
        t[c].pop()
    while True:
        # The available box in the highest of combined rows m-1, m, ... (0-based here) that has one.  Rows that
        # start above the value (or are missing) have none, nor do the rows below them: two misses in a row end it.
        slot, m, misses = None, 2 * i + c - 1, 0 if c or i else 2  # left row 1 has no row above: no scan
        while misses < 2:
            rows, x = (right if m & 1 else left), m >> 1
            col = bisect_left(row := rows[x], value) - 1 if x < len(rows) else -1
            if col >= 0 and (x + 1 == len(rows) or len(below := rows[x + 1]) <= col or below[col] > value):
                slot = m & 1, x, col
                break
            m, misses = m + 1, misses + 1 if col < 0 else 0
        letter = None if slot else -value if c or i else value
        if hops is not None:
            # Entries below the moving value, per row, down to the first row with none: the counts weakly
            # decrease down a component, as its columns increase.  With the box left: the truncation.
            mu, nu = [], []
            for rows, counts in (left, mu), (right, nu):
                for r in rows:  # not `row`: that is the slot's row
                    if not (x := bisect_left(r, value)):
                        break
                    counts.append(x)
            (nu if c else mu)[i:i + 1] = j + 1,  # row i counted j, or none when j = 0, and then it ended the list
            hops.append((value, c, i, j, tuple(mu), tuple(nu), slot, letter))
        if slot is None:
            return letter
        c, i, j = slot
        value, row[j] = row[j], value


def _removal_trie(rs: Sequence[_Tableau]) -> list[tuple[int, int, int, int, bool, _Tableau]]:
    """The same-shape tableaux rs, given by rows in canonical order, as a trie in preorder: a node
    (d, c, i, run, copy, first) for each sequence of the boxes (c, i) of n, n-1, ..., n-d+1 that the ``run``
    tableaux from ``first`` on share (they are contiguous).  ``copy`` is False for a parent's last child.
    Each tableau has a leaf of its own, also when rs lists it twice."""
    orders = [[b[k] for k in range(len(b), 0, -1)] for b in map(_boxes, rs)]
    nodes = []
    for j, order in enumerate(orders):
        # Below the depth where order leaves the previous tableau's path, its nodes are new; a repeat, just its leaf.
        shared = next((d for d, (a, b) in enumerate(zip(orders[j - 1], order)) if a != b), len(order) - 1) if j else 0
        for d in range(shared, len(order)):
            end = j + 1 if d + 1 == len(order) else next(
                (e for e in range(j + 1, len(rs)) if orders[e][:d + 1] != order[:d + 1]), len(rs))
            nodes.append((d + 1, *order[d], end - j, end < len(rs) and orders[end][:d] == order[:d], rs[j]))
    return nodes


def _walk(T: _Tableau, trie: Sequence, hops: list | None = None) -> list[tuple[int, ...]]:
    """The words of the pairs (T, R) of the trie's tableaux R, in its order: one :func:`_remove` per node, on
    a copy of its parent's rows unless it is the last child.  Unless ``hops`` is None, each node appends the
    list of its hops."""
    n = sum(map(len, T[0])) + sum(map(len, T[1]))
    states, letters, words = [_rows(T)] * (n + 1), [0] * n, [] if trie else [()]  # the empty pair's word
    for d, c, i, _, copy, _ in trie:  # a node's parent comes before it in preorder, so states[d - 1] is the parent's
        t = states[d] = _rows(states[d - 1]) if copy else states[d - 1]
        if hops is not None:
            hops.append([])
        letters[n - d] = _remove(t, c, i, None if hops is None else hops[-1])
        if d == n:
            words.append(tuple(letters))
    return words


def _disagreements(hops: list[list[tuple]], answers: dict) -> Iterator[tuple[int, tuple]]:
    """(node, hop), in order, for each hop of :func:`_walk`'s per-node lists that :func:`_classify` (memo: ``answers``) mispredicts."""
    for node, node_hops in enumerate(hops):
        for hop in node_hops:
            _, c, i, _, mu, nu, slot, letter = hop
            if (key := (mu, nu, c, i)) not in answers:
                answers[key] = _classify(*key)
            if answers[key] != (letter > 0 if slot is None else slot[:2]):
                yield node, hop


def _removal_step(value, c, i, j, mu, nu, slot, letter) -> RemovalStep:
    """The :class:`RemovalStep` of one hop recorded by :func:`_remove`."""
    target = None if slot is None else Position(_SIDES[slot[0]], slot[1] + 1, slot[2] + 1)
    return RemovalStep(value, Position(_SIDES[c], i + 1, j + 1), _truncation_shape(mu, nu), target, letter)


def _hop_failure(T: _Tableau, R: _Tableau, k: int, hop: tuple) -> dict:
    """The failure record of a hop of the k-th cascade of the pair (T, R) that :func:`_disagreements` names:
    the validated pair, the step and the :func:`second_decrement` answer it quotes."""
    step = _removal_step(*hop)
    try:
        why = {"predicted": repr(second_decrement(step.shape, FirstRemoval(step.source.side, step.source.row)))}
    except ClassificationError as err:
        why = {"error": str(err)}
    return {"pair": _pair(T, R).to_json(), "k": k, "step": step.to_json(), **why}


def _truncation_shape(mu: tuple[int, ...], nu: tuple[int, ...]) -> Bipartition:
    """The shape of a hop's truncation, from its row counts: weakly decreasing by construction, so not checked again."""
    return Bipartition(Partition._unchecked(mu), Partition._unchecked(nu))


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
    T, R, letter = _reduce(_rows((pair.T.left, pair.T.right)), rec, *_boxes(rec)[pair.size])
    return _pair(T, R), letter, abs(letter)


def _reduce(t: _Rows, R: _Tableau, c: int, i: int) -> tuple[_Tableau, _Tableau, int]:
    """:func:`bump_once` on rows: the cascade of R's largest entry n, in row i of component c, runs on the
    mutable rows t and leaves them as it ends.  Returns the reduced pair's rows and the letter."""
    n = R[c][i][-1]
    letter = _remove(t, c, i, None)
    r = abs(letter)
    relabel = lambda rows: tuple(tuple(x - 1 if x > r else x for x in row) for row in rows)
    drop = lambda rows: tuple(row for row in (row[:-1] if row[-1] == n else row for row in rows) if row)
    return (relabel(t[0]), relabel(t[1])), (drop(R[0]), drop(R[1])), letter


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
    """No rule of the transition table matched."""

    def __init__(self, bp: Bipartition, removal: FirstRemoval):
        self.bp = bp
        self.removal = removal
        super().__init__(f"no transition rule matches for shape {bp}, first removal ({removal.side.value}, row {removal.row})")


def second_decrement(bp: Bipartition, removal: FirstRemoval):
    """Where a removal cascade goes next, from shape data alone.

    ``bp`` is the shape of the truncation the moving value is leaving (its
    box included) and ``removal`` names that box's row.  The answer is
    TerminateUnbarred / TerminateBarred when the cascade emits the value as
    a letter, or Continue(side, row): the next box to empty out, as a row of
    the shape obtained from ``bp`` by the first removal.  The rule table is
    :func:`_classify`; when none of its rules applies, a
    :class:`ClassificationError` carrying (bp, removal) is raised.
    """
    if not bp.can_decrement(removal.side, removal.row):
        raise ValueError(f"({removal.side.value}, row {removal.row}) is not a removable corner of {bp}")
    answer = _classify(bp.mu.parts, bp.nu.parts, _SIDES.index(removal.side), removal.row - 1)
    if answer is None:
        raise ClassificationError(bp, removal)
    if isinstance(answer, tuple):
        return Continue(_SIDES[answer[0]], answer[1] + 1)
    return TerminateUnbarred() if answer else TerminateBarred()


def _classify(mu: tuple[int, ...], nu: tuple[int, ...], c: int, i: int) -> bool | tuple[int, int] | None:
    """The transition rule table, in the kernel's terms: the hop leaves the outermost box of row i
    of component c of the truncation (mu, nu), whose row counts include that box.  The answer is
    True / False when the value leaves as an unbarred / barred letter, the (c, i) of the row that
    loses the next box, or None when no rule applies.  The rules are tried in order and the first
    to apply answers; each comment names its rule.  They number rows from 1, as m = i + 1."""
    part = lambda p, k: p[k - 1] if k <= len(p) else 0
    length = max(len(mu), len(nu))
    m = i + 1
    mu_m, nu_m = part(mu, m), part(nu, m)
    if c == 0:
        if m == 1:
            return True
        mu_next, nu_prev = part(mu, m + 1), part(nu, m - 1)
        if mu_m + nu_m == 1 and nu_prev == 0:
            return False
        mg_next, md_m = _last_equal_row(mu, m + 1, length), _last_equal_row(nu, m, length)
        if mu_m - 1 > mu_next and (nu_prev == nu_m != 0 or nu_prev == 0):
            return 0, i  # left-row-shrinks-again
        if mu_m - 1 == mu_next and nu_prev == nu_m != 0 and (mg_next > md_m or mu_m == 1):
            return 1, md_m - 1  # hop-to-matching-right-rows
        if mu_m - 1 == mu_next != 0 and ((nu_prev == nu_m != 0 and mg_next <= md_m) or nu_prev == 0):
            return 0, mg_next - 1  # slide-down-equal-left-rows
        if nu_prev > nu_m:
            return 1, i - 1  # climb-to-previous-right-row
    else:
        if mu_m + nu_m == 1:
            return False
        mg_m, md_m = _last_equal_row(mu, m, length), _last_equal_row(nu, m, length)
        md_next, nu_next = _last_equal_row(nu, m + 1, length), part(nu, m + 1)
        # Crossing into a left row needs mu_m != 0.  The later cross rule needs no guard: when
        # mu_m = 0 and nu_m - 1 = nu_next, slide-down-equal-right-rows answers first, or nu_m = 1
        # and the barred termination above has answered.
        if mg_m == md_m and mu_m != 0:
            return 0, i  # cross-to-left-row
        if nu_m - 1 > nu_next and (mg_m > md_m or mu_m == 0):
            return 1, i  # right-row-shrinks-again
        if nu_m - 1 == nu_next != 0 and (mg_m > md_next or mu_m == 0):
            return 1, md_next - 1  # slide-down-equal-right-rows
        if nu_m - 1 == nu_next and (mg_m <= md_next or nu_m == 1):
            return 0, mg_m - 1  # cross-to-matching-left-rows
    return None
