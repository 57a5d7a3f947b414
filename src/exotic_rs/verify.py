"""Exhaustive verification of the package's core identities.

Every verifier enumerates a finite universe (words, pairs, or shapes of a
given size), checks one property case by case, and returns a :class:`Report`
with a deterministic list of failures (canonical word order).  Verifiers
refuse sizes beyond their budget by raising :class:`BudgetExceededError` --
never by silently checking less.  The env variable ``EXOTIC_RS_MAX_N``
(an integer, not negative) raises all budgets.  The pair verifiers and :func:`cells` run
the kernels on the cached tableaux' rows, box rows (of n, n - 1, ..., 1) and
states (tuples of combined rows), kept for the cell tuple they came from, and
validate pairs only for failure records.  The enumerated cells are checked in one
place, :func:`_cell_tables`, once per cell as its table is built, which
:func:`iter_pairs` reads too: a listed tableau that is not a standard tableau of
its cell's shape is refused by name.  The words of the sweeps are valid by
construction.  Every sweep that runs the kernels of :mod:`.correspondence` is
in this module; that module runs none.

Roundtrip and transition descend once through the distinct states that
removal reaches from the listed T's (:func:`_descend`), a move per distinct
(state, corner): reverse bumping removes R's boxes of n, n - 1, ..., and the
standard R of a shape are the orders its corners can go in.  Each roundtrip
move places its letter back into the child, which must give the state and the
corner's row, so, by induction on the size, insertion undoes reverse bumping
on every pair.  With the cells exactly the standard tableaux, reverse bumping
is then one-to-one from the 2^n * n! pairs to the words (each entry of T leaves
once), so onto, and each word w = reverse_bumping(p) has insertion(w) = p.
Transition classifies each move's hops once, counted for each path through the
move.  A failing move or an inexact cell falls back to the flat evaluation.
Embedding, too, certifies in a pass that embeds each word once, against the formula's image carried down the
word enumeration, and keeps no image; it runs its exact pass, which keeps every image, only when that fails.

The word sweep of :func:`cells` (:func:`_group_by_shape`) grows the words depth first, each node carrying its prefix's
state and R's box rows as an int, and the walks of inverse and wtilde (:func:`_walk`) carry each T's path down R's box
rows.  Both run each insertion or removal step once per call for each distinct (state, letter or box): a memo keys each
move by its state's id (:func:`_interned`) and its letter or box, the kernel's whole input, runs the kernel on a miss
only, and dies with the call, so it cannot mask a fault.  Wtilde also runs bump_once's step on T once per T and box of
n, to check its letter against the walk's k = n cascade, and on R once per cell; each pair reads its reduced word off
the reduced cell's walk at its reduced T and R or, if they are no listed pair of one cell, goes by itself.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator, Sequence
from functools import cache

from . import correspondence
from .bitableaux import Bitableau, enumerate_standard_bitableaux
from .correspondence import CorrespondencePair, _Rows, _Tableau, _boxes, _disagreements, _hop_failure, _pair, _rows, bump_once, insertion, reverse_bumping
from .partitions import Bipartition, _Frozen, count_bitableaux, enumerate_bipartitions
from .signed_perm import (
    SignedPermutation,
    _INTEGER,
    _embedded_words,
    _inverse,
    _iota_embed,
    _signed_permutations,
    _text,
    _w_tilde,
    is_mirror_symmetric,
    permutation_inverse,
)

PAIR_BUDGET = 6   # verifiers that enumerate all pairs of size n
WORD_BUDGET = 6   # verifiers that enumerate all words of size n
COUNT_BUDGET = 8  # pure shape-counting verifiers
_tables: dict[tuple[int, int], tuple] = {}  # by (n, a cell's place in _cells(n)): what _cell_tables yields
_shapes = cache(lambda n: tuple(enumerate_bipartitions(n)))  # the shapes of size n in canonical order, once per process


class BudgetExceededError(RuntimeError):
    """The requested size is beyond this verifier's budget."""


def _check_budget(n: int, default: int, what: str) -> None:
    """Refuse n unless it is an int from 0 to the default raised by EXOTIC_RS_MAX_N, which nothing else reads."""
    if type(n) is not int:  # exact: bool is rejected
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if (env := os.environ.get("EXOTIC_RS_MAX_N")) is None:
        limit = default
    elif _INTEGER.fullmatch(env) is None:
        raise ValueError(f"EXOTIC_RS_MAX_N must be an integer, got {env!r}")
    elif (limit := int(env)) < 0:  # it would leave every budget at its default, and a run would quietly check no more
        raise ValueError(f"EXOTIC_RS_MAX_N must be >= 0, got {env!r}")
    limit = max(default, limit)
    if n > limit:
        raise BudgetExceededError(
            f"{what} at n={n} exceeds the budget n<={limit}; set EXOTIC_RS_MAX_N to allow more"
        )


class Report(_Frozen):
    """Outcome of one verifier run."""

    __slots__ = ("property", "n", "checked", "failures")

    def __init__(self, property: str, n: int, checked: int, failures: tuple = ()) -> None:
        object.__setattr__(self, "property", property)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"property": self.property, "n": self.n, "checked": self.checked, "failures": list(self.failures)}

    def summary(self) -> str:
        head = f"{self.property} n={self.n}"
        if self.ok:
            return f"{head}: OK ({self.checked} checks)"
        import json  # here, not at import: every command imports this module, and only a failure is printed as JSON
        first = json.dumps(self.failures[0], sort_keys=True)
        return f"{head}: FAILED ({len(self.failures)} of {self.checked} checks); first failure: {first}"


def iter_pairs(n: int) -> Iterator[CorrespondencePair]:
    """All same-shape pairs of standard bitableaux with n boxes, shape by shape in canonical order, of the checked cells."""
    return (CorrespondencePair._unchecked2(t, r) for cell, _, _, _ in _cell_tables(n) for t in cell for r in cell)


def _cells(n: int) -> Iterator[tuple[Bitableau, ...]]:
    """The cached standard tableaux with n boxes, shape by shape in canonical order."""
    return map(enumerate_standard_bitableaux, _shapes(n))


def _interned(memo: dict, z: _Rows) -> tuple[int, tuple]:
    """(id, state) of the combined rows z in a sweep's memo: the state is the tuple of z's rows, canonical after every
    kernel step, and its id is new when first seen.  The memo keys each move by the id and by the letter or box, the
    kernel's whole input, so a hit gives what the kernel would; it lives for one verifier call."""
    return memo.setdefault(state := tuple(map(tuple, z)), (len(memo), state))


def _cell_tables(n: int) -> Iterator[tuple[tuple[Bitableau, ...], tuple[_Tableau, ...], tuple[tuple[int, ...], ...], tuple[tuple, ...]]]:
    """Each shape cell of size n in canonical order, with its tableaux' rows, box rows (the combined rows of their boxes of
    n, n - 1, ..., 1) and states, built on first use and kept for the process, but reused only for the very cell tuple.
    The one check of the enumerated cells: a listed tableau whose row lengths are not the cell's shape, or whose box rows
    miss an entry of 1..n, is refused by name; a Bitableau's entries are distinct and increase, so the rest are standard."""
    for s, (bp, cell) in enumerate(zip(_shapes(n), _cells(n))):
        if (entry := _tables.get((n, s))) is None or entry[0] is not cell:
            rows = tuple((t.left, t.right) for t in cell)  # tuples: every caller shares them
            box_rows = tuple(tuple(map(_boxes(R).get, range(n, 0, -1))) for R in rows)
            for t, R, ms in zip(cell, rows, box_rows):
                if (tuple(map(len, R[0])), tuple(map(len, R[1]))) != (bp.mu.parts, bp.nu.parts) or None in ms:
                    raise ValueError(f"cell {bp.to_text()} of size {n} lists {t!r}, not a standard tableau of its shape")
            entry = _tables[n, s] = cell, rows, box_rows, tuple(tuple(_rows(T, tuple)) for T in rows)
        yield entry


def _descend(n: int, tables: list[tuple], answers: dict | None = None) -> int | None:
    """The downward pass of roundtrip, or, with ``answers`` (:func:`_disagreements`' memo), of transition: the hops of
    every listed T with every standard R, carried down with the paths (0 for roundtrip); None at the first move that
    fails, or unless each cell lists its (checked) tableaux once each, as many as :func:`count_bitableaux` gives."""
    if not all(len(set(rows)) == len(rows) == count_bitableaux(bp) for bp, (_, rows, _, _) in zip(_shapes(n), tables)):
        return None
    level = {state: [1, 0] for _, _, _, states in tables for state in states}  # each state: [paths into it, their hops]
    for _ in range(n):
        level, above = {}, level
        for state, (paths, carried) in above.items():
            for m, row in enumerate(state):
                if row and len(row) > len(state[m + 2]):  # a corner, the last box of row m: the state ends in two empty rows
                    letter = correspondence._remove(z := list(map(list, state)), m, hops := None if answers is None else [])
                    if (into := level.get(child := tuple(map(tuple, z)))) is None:
                        into = level[child] = [0, 0]
                    into[0] += paths
                    if answers is None:
                        if correspondence._place(z, letter, None) != m or tuple(map(tuple, z)) != state:
                            return None
                    elif any(_disagreements(hops, answers)):
                        return None
                    else:
                        into[1] += carried + len(hops) * paths
    return sum(carried for _, carried in level.values())  # at the empty state, every path's hops


def _walk(states: Sequence[tuple], boxes: Sequence[tuple[int, ...]], memo: dict) -> Iterator[list[tuple[int, ...]]]:
    """For each T, given by its state (:func:`_interned`), of same-shape tableaux in turn, the words of the pairs (T, R)
    for the tableaux R with these box rows (:func:`_cell_tables`), in their order.  R's depth-d node, the cascades of n,
    ..., n-d+1, is fixed by its first d box rows, so an R shares with the one before it the nodes of their equal leading
    rows, all but the leaf for a repeat.  Each node is a move of ``memo`` (:func:`_interned`), which the cells of a size share, keyed by
    its parent's state and the row m of the box of n+1-d as sid * 2n + m."""
    n = sum(map(len, states[0]))
    shared = [0] + [next((d for d in range(n - 1) if a[d] != b[d]), max(n - 1, 0)) for a, b in zip(boxes, boxes[1:])]
    nodes = [(d, ms[d - 1]) for ms, s in zip(boxes, shared) for d in range(s + 1, n + 1)]  # a node's parent comes before it
    sids, path, letters, width = [0] * (n + 1), [()] * (n + 1), [0] * n, 2 * n  # the path's state ids, states, letters
    for state in states:
        (sids[0], path[0]), words = _interned(memo, state), [] if n else [()] * len(boxes)
        for d, m in nodes:  # depth d - 1 is the parent's
            if (entry := memo.get(key := sids[d - 1] * width + m)) is None:
                letter = correspondence._remove(z := list(map(list, path[d - 1])), m, None)
                entry = memo[key] = letter, *_interned(memo, z)
            letters[n - d], sids[d], path[d] = entry
            if d == n:
                words.append(tuple(letters))
        yield words


# -- verifiers -------------------------------------------------------------------


def verify_golden_n3(n: int = 3) -> Report:
    """Both directions of the frozen n=3 table: insertion(word) = pair and
    reverse_bumping(pair) = word for each of the 48 rows."""
    if type(n) is int and n != 3:  # first: no EXOTIC_RS_MAX_N allows another size
        raise ValueError("the golden table is fixed at n=3")
    _check_budget(n, 3, "golden verification")  # refuses bool and 3.0, and a malformed or negative EXOTIC_RS_MAX_N
    failures = []
    rows = load_golden_table()["rows"]
    words_seen = set()
    for row in rows:
        w = SignedPermutation.from_text(row["word"])
        words_seen.add(w)
        pair = CorrespondencePair.from_json({"T": row["T"], "R": row["R"]})
        got_pair = insertion(w)
        if got_pair != pair:
            failures.append({"word": row["word"], "direction": "insertion", "got": got_pair.to_json()})
        got_word = reverse_bumping(pair)
        if got_word != w:
            failures.append({"word": row["word"], "direction": "reverse", "got": got_word.to_text()})
    if len(rows) != 48 or len(words_seen) != 48:
        failures.append({"direction": "table", "rows": len(rows), "distinct_words": len(words_seen)})
    return Report("golden", 3, 2 * len(rows), tuple(failures))


def verify_roundtrip(n: int) -> Report:
    """reverse_bumping(insertion(w)) = w for every word, and insertion(reverse_bumping(pair)) = pair for every pair:
    both at once from the downward pass (see the module docstring), or else word by word and pair by pair."""
    _check_budget(n, PAIR_BUDGET, "round-trip verification")
    tables = list(_cell_tables(n))
    pairs = sum(len(rows) ** 2 for _, rows, _, _ in tables)
    if pairs == 2**n * math.factorial(n) and _descend(n, tables) is not None:
        return Report("roundtrip", n, 2 * pairs)
    failures, cell_of = [], {T: s for s, (_, rows, _, _) in enumerate(tables) for T in rows}
    for letters in _signed_permutations(n):
        T, R = correspondence._insert(letters)
        if (s := cell_of.get(T)) is None or cell_of.get(R) != s or correspondence._reverse(T, R) != letters:
            w = SignedPermutation(letters)  # rows that are no standard pair raise here, in the validated pair
            failures.append(record := {"word": w.to_text(), "came_back_as": reverse_bumping(insertion(w)).to_text()})
            if record["came_back_as"] == record["word"]:
                record["reason"] = "pair outside the enumeration"
    for pair in iter_pairs(n):
        again = insertion(reverse_bumping(pair))
        if again != pair:
            failures.append({"pair": pair.to_json(), "came_back_as": again.to_json()})
    return Report("roundtrip", n, 2**n * math.factorial(n) + pairs, tuple(failures))


def verify_inverse(n: int) -> Report:
    """Swapping the pair inverts the word: word(R, T) = word(T, R)^-1."""
    _check_budget(n, PAIR_BUDGET, "inverse-symmetry verification")
    failures, checked, memo = [], 0, {}
    for _, rows, box_rows, states in _cell_tables(n):
        # Within one shape cell, the swap of the pair (T, R) = (t_i, t_j) is (t_j, t_i).
        words = list(_walk(states, box_rows, memo))
        for i, T in enumerate(rows):
            for j, R in enumerate(rows):
                straight, swapped = words[i][j], words[j][i]
                checked += 1
                if swapped != _inverse(straight):
                    failures.append({"pair": _pair(T, R).to_json(), "word": _text(straight), "swapped_word": _text(swapped)})
    return Report("inverse", n, checked, tuple(failures))


def verify_counting(n: int) -> Report:
    """The squares of the shape counts add up to the group order 2^n * n!."""
    _check_budget(n, COUNT_BUDGET, "counting verification")
    shapes = _shapes(n)
    total, expected = sum(count_bitableaux(bp) ** 2 for bp in shapes), 2**n * math.factorial(n)
    failures = () if total == expected else ({"sum_of_squares": total, "group_order": expected},)
    return Report("counting", n, len(shapes), failures)


def verify_transition(n: int) -> Report:
    """Every cascade step of every removal agrees with second_decrement's rule; failures by pair (T, then R), k = n..1, hop."""
    _check_budget(n, PAIR_BUDGET, "transition verification")
    tables, answers = list(_cell_tables(n)), {}
    if (checked := _descend(n, tables, answers)) is not None:
        return Report("transition", n, checked)
    failures, checked = [], 0
    for T, R in ((T, R) for _, rows, _, _ in tables for T in rows for R in rows):
        correspondence._reverse(T, R, cascades := [])
        checked += sum(len(hops) for _, _, hops in cascades)
        failures += (_hop_failure(T, R, k, hop) for k, _, hops in cascades for hop in _disagreements(hops, answers))
    return Report("transition", n, checked, tuple(failures))


def verify_wtilde(n: int) -> Report:
    """bump_once agrees with dropping the word's last letter: the emitted
    letter is w_n and the reduced pair's word is the shifted remainder."""
    _check_budget(n, PAIR_BUDGET, "reduction verification")
    failures, checked, memo, smaller, smaller_memo = [], 0, {}, {}, {}  # a memo for each size walked
    for _, rows, box_rows, states in _cell_tables(n - 1) if n else ():
        words = list(_walk(states, box_rows, smaller_memo))
        smaller.update((T, (words, j)) for j, T in enumerate(rows))  # by its rows, each tableau of size n - 1: its cell's words, its place
    for _, rows, box_rows, states in _cell_tables(n) if n else ():  # the empty pair has no entry to remove
        # Each R's box of n and its reduced R's cell's words and place; for each T, its reduced T's words and the letter, by box.
        drops = [(ms[0], *smaller.get(correspondence._drop(R, n), (None, None))) for R, ms in zip(rows, box_rows)]
        boxes = {m for m, _, _ in drops}
        for T, state, words in zip(rows, states, _walk(states, box_rows, memo)):
            reduced = {}
            for m in boxes:
                reduced_T, letter = correspondence._reduce(list(map(list, state)), m)
                reduced_matrix, i = smaller.get(reduced_T, (None, None))
                reduced[m] = reduced_matrix, reduced_matrix and reduced_matrix[i], letter
            for R, word, (m, dropped_matrix, j) in zip(rows, words, drops):
                reduced_matrix, reduced_words, letter = reduced[m]
                # A reduced pair of one listed cell reads its word off that cell's walk; any other goes by itself.
                reduced_word = reduced_words[j] if reduced_matrix is dropped_matrix is not None else \
                    reverse_bumping(bump_once(_pair(T, R))[0]).letters
                wt, r2 = _w_tilde(word)
                checked += 1
                if letter != word[-1] or abs(letter) != r2 or reduced_word != wt:
                    failures.append({"pair": _pair(T, R).to_json(), "word": _text(word), "letter": letter,
                                     "reduced_word": _text(reduced_word), "expected_reduced": _text(wt)})
    return Report("wtilde", n, checked, tuple(failures))


def verify_embedding(n: int) -> Report:
    """The embedding into the symmetric group on 2n letters: mirror image condition, injectivity, and compatibility with
    inverses.  A certificate embeds each word w once and keeps nothing.  :func:`_embedded_words`, which it trusts, gives w
    with w^-1, the formula's image E(w) and tau = E(w^-1)(1..n) - 1.  sigma = _iota_embed(w) must be E(w), _inverse(w)
    must be w^-1 and, at the smaller of w and w^-1 as tuples, sigma(tau(j)) must be j + 1 for j < n.  Then the exact pass
    would record nothing: (1) each letter +-a of w puts n + 1 - a and n + a on a mirror pair of places, so sigma is a
    mirror-symmetric permutation; (2) sigma(1..n) gives w back letter by letter, so no two words share an image; (3) as
    E(w^-1) is mirror symmetric too, the check at the smaller word makes E(w) and E(w^-1) inverse on all of 1..2n, so
    sigma^-1 = E(_inverse(w)), which w^-1's own turn certified to be _iota_embed(_inverse(w)).  Only on a failure does
    the exact pass run, keeping every image and naming one that is not a permutation (mirror symmetry checks sums only)."""
    _check_budget(n, WORD_BUDGET, "embedding verification")
    total, identity = 2**n * math.factorial(n), tuple(range(1, n + 1))
    if all((sigma := _iota_embed(w)) == image and _inverse(w) == inverse
           and (inverse < w or tuple(map(sigma.__getitem__, tau)) == identity) for w, inverse, image, tau in _embedded_words(n)):
        return Report("embedding", n, total)
    failures, seen = [], {}
    for w in _signed_permutations(n):
        sigma = _iota_embed(w)
        if not is_mirror_symmetric(sigma):
            failures.append({"word": _text(w), "image": list(sigma), "reason": "mirror condition"})
        if (earlier := seen.setdefault(sigma, w)) is not w:
            failures.append({"word": _text(w), "collides_with": _text(earlier)})
            seen[sigma] = w
        if sorted(sigma) != [*range(1, 2 * n + 1)]:
            failures.append({"word": _text(w), "image": list(sigma), "reason": "not a permutation"})
        elif _iota_embed(_inverse(w)) != permutation_inverse(sigma):
            failures.append({"word": _text(w), "reason": "inverse not respected"})
    return Report("embedding", n, total, tuple(failures))


def cells(n: int) -> dict[Bipartition, list[SignedPermutation]]:
    """Group all words of size n by the shape insertion gives them.

    Keys follow the canonical shape order, members the canonical word order;
    each cell has count_bitableaux(shape)^2 members.
    """
    return _group_by_shape(n, lambda letters, T, R: SignedPermutation._unchecked(letters))  # valid by construction


def _group_by_shape(n: int, item: Callable[[tuple[int, ...], Bitableau, Bitableau], object]) -> dict[Bipartition, list]:
    """Insert each word of size n once and file ``item(letters, T, R)`` under the shape of its pair (T, R), in the order
    of :func:`cells`.  The words grow depth first in canonical order, a letter per node, and each node carries its
    prefix's state (:func:`_interned`) and its boxes' combined rows, of 1 first, as the base-2n digits of an int; a node
    is a move of the call's memo keyed by its parent's state and its letter as sid * (2n + 1) + letter.  A word is filed
    by its state's id, as T's, and its code, as R's box rows (:func:`_cell_tables`), or refused."""
    _check_budget(n, WORD_BUDGET, "cell decomposition")
    out, memo, base, found, placed = {bp: [] for bp in _shapes(n)}, {}, 2 * n, {}, {}  # a bucket for each cell
    for bucket, (cell, _, box_rows, states) in zip(out.values(), _cell_tables(n)):
        for t, ms, state in zip(cell, box_rows, states):  # each tableau as T, by its state's id, and as R, by its code
            found[_interned(memo, state)[0]] = placed[sum(m * base**k for k, m in enumerate(ms))] = bucket, t
    word, unused, wide = [0] * n, list(range(1, n + 1)), base**n  # a row outside 0..2n - 1 makes a code of at least wide: no R's

    def grow(p: int, sid: int, state: tuple, code: int) -> None:  # each word that begins with word[:p], in canonical order
        if p == n:
            (bucket, t), (bucket_r, r) = found.get(sid, (None, None)), placed.get(code, (None, None))
            if bucket is None or bucket_r is not bucket:
                insertion(SignedPermutation(tuple(word)))  # rows that are no standard pair raise here, in the validated pair
                raise ValueError(f"word {_text(word)!r}: pair outside the enumeration")
            return bucket.append(item(tuple(word), t, r))
        for j in range(len(unused)):
            a = unused.pop(j)
            for word[p] in a, -a:
                if (entry := memo.get(key := sid * (2 * n + 1) + word[p])) is None:
                    m = correspondence._place(z := list(map(list, state)), word[p], None)
                    entry = memo[key] = m if 0 <= m < base else wide, *_interned(memo, z)
                grow(p + 1, entry[1], entry[2], code * base + entry[0])
            unused.insert(j, a)

    grow(0, *_interned(memo, [[], []]), 0)
    del grow  # it refers to itself: deleted, it frees the memo with the call, not at the next collection
    return out


def load_golden_table() -> dict:
    """The frozen n=3 correspondence table shipped with the package."""
    import json
    from importlib import resources  # here, not at import: only the golden check reads it

    text = resources.files("exotic_rs").joinpath("data/golden_table_n3.json").read_text()
    return json.loads(text)


VERIFIERS: dict[str, Callable[[int], Report]] = {
    "golden": verify_golden_n3,
    "roundtrip": verify_roundtrip,
    "inverse": verify_inverse,
    "counting": verify_counting,
    "transition": verify_transition,
    "wtilde": verify_wtilde,
    "embedding": verify_embedding,
}


def run_verifier(name: str, n: int) -> Report:
    if name not in VERIFIERS:
        raise ValueError(f"unknown property {name!r}; choose from {', '.join(sorted(VERIFIERS))}")
    return VERIFIERS[name](n)
