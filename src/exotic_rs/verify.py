"""Exhaustive verification of the package's core identities.

Every verifier enumerates a finite universe (words, pairs, or shapes of a
given size), checks one property case by case, and returns a :class:`Report`
with a deterministic list of failures (canonical word order).  Verifiers
refuse sizes beyond their budget by raising :class:`BudgetExceededError` --
never by silently checking less.  The env variable ``EXOTIC_RS_MAX_N``
(an integer) raises all budgets.  The pair verifiers and :func:`cells` run
the row-level kernels on the cached tableaux' rows and validate pairs only for
failure records.  Each one-letter insertion and each removal cascade runs once
per call for each distinct (state, letter or box), however many words, pairs
and cells reach it; transition classifies each distinct cascade's hops once,
and each rule-table key once.  Those memos cannot mask a fault: they are keyed
by the kernel's whole input, so a hit gives what the kernel would, and they die
with the call.  Each size's shapes, and each cell's rows and box codes, persist
once built, for the process: tables of the cached enumeration, not kernel
results; a cell's serve only the cell tuple they were built from.  The pair
sweeps walk the cascades off R's box codes, and the word sweeps look R up by
them.  Wtilde also runs bump_once's step once per first-level node (codes with
one low digit), apart from the walk, so that its letter is checked against the
walk's own k = n cascade.  It reads a node's reduced words off the reduced
cell's walk only where every R of the node's run, without n, is the reduced
cell in order.  Roundtrip checks its pairs by counting: once every word comes
back, insertion maps the words one-to-one onto the equally many pairs.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator
from functools import cache
from itertools import groupby

from . import correspondence
from .bitableaux import Bitableau, enumerate_standard_bitableaux
from .correspondence import CorrespondencePair, _Tableau, _box_code, _disagreements, _hop_failure, _pair, _rows, _walk, bump_once, insertion, reverse_bumping
from .partitions import Bipartition, _Frozen, count_bitableaux, enumerate_bipartitions
from .signed_perm import (
    SignedPermutation,
    _INTEGER,
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
_letter_of = cache(lambda n: {s: n + 1 - s if s <= n else n - s for s in range(1, 2 * n + 1)}.get)  # sigma(i) -> letter, for _decode
_shapes = cache(lambda n: tuple(enumerate_bipartitions(n)))  # the shapes of size n in canonical order, once per process


class BudgetExceededError(RuntimeError):
    """The requested size is beyond this verifier's budget."""


def _limit(default: int) -> int:
    env = os.environ.get("EXOTIC_RS_MAX_N")
    if env is None:
        return default
    if _INTEGER.fullmatch(env) is None:
        raise ValueError(f"EXOTIC_RS_MAX_N must be an integer, got {env!r}")
    return max(default, int(env))


def _check_budget(n: int, default: int, what: str) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    limit = _limit(default)
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
    """All same-shape pairs of standard bitableaux with n boxes, shape by
    shape in canonical order."""
    return (CorrespondencePair(t, r) for cell in _cells(n) for t in cell for r in cell)


def _cells(n: int) -> Iterator[tuple[Bitableau, ...]]:
    """The cached standard tableaux with n boxes, shape by shape in canonical order."""
    return map(enumerate_standard_bitableaux, _shapes(n))


def _cell_tables(n: int) -> Iterator[tuple[tuple[Bitableau, ...], tuple[_Tableau, ...], tuple[int | None, ...]]]:
    """Each shape cell of size n in canonical order, with its tableaux' rows and box codes (:func:`_box_code`): built on first use and
    kept for the process, as they depend on the cell alone, but reused only for the very cell tuple they came from."""
    for s, cell in enumerate(_cells(n)):
        if (entry := _tables.get((n, s))) is None or entry[0] is not cell:
            rows = tuple((t.left, t.right) for t in cell)  # tuples: every caller shares them
            entry = _tables[n, s] = cell, rows, tuple(_box_code(R, n) for R in rows)
        yield entry


# -- verifiers -------------------------------------------------------------------


def verify_golden_n3(n: int = 3) -> Report:
    """Both directions of the frozen n=3 table: insertion(word) = pair and
    reverse_bumping(pair) = word for each of the 48 rows."""
    if n != 3:
        raise ValueError("the golden table is fixed at n=3")
    data = load_golden_table()
    failures = []
    rows = data["rows"]
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
    """reverse_bumping(insertion(w)) = w for every word, and
    insertion(reverse_bumping(pair)) = pair for every pair, which follows from
    the first half by counting: there are as many pairs as words."""
    _check_budget(n, PAIR_BUDGET, "round-trip verification")
    failures, words, pairs, nowhere, memo = [], 0, 0, (None, None, 0), {}
    place: dict[_Tableau, tuple[int, list, int]] = {}  # each tableau's rows: its shape's place, the words of its pairs as T, its index as R
    for s, (_, rows, _) in enumerate(tables := list(_cell_tables(n))):
        place.update((T, (s, [None] * len(rows), b)) for b, T in enumerate(rows))
        pairs += len(rows) ** 2
    coded = {code: place[T] for _, rows, codes in tables for T, code in zip(rows, codes)}  # the same by box code; None, which no R has, if not standard
    for letters, T, code in correspondence._insertion_tree(n):
        (s, filed, _), (s_r, _, b) = place.get(T, nowhere), coded.get(code, nowhere)
        if s is None or s_r != s or filed[b] is not None:
            break  # a word outside the enumeration or on a pair filed before: check every word flat
        filed[b] = letters
    else:  # each word at a pair of its own, so each T's walk must give the words filed for it
        if pairs == 2**n * math.factorial(n) and all(
                words == place[T][1] for _, rows, codes in tables for T, words in zip(rows, _walk(rows, codes, memo=memo))):
            return Report("roundtrip", n, 2 * pairs)
    for letters, T, code in correspondence._insertion_tree(n):
        words += 1
        if (s := place.get(T, nowhere)[0]) is None or coded.get(code, nowhere)[0] != s or correspondence._reverse(*correspondence._insert(letters)) != letters:
            w = SignedPermutation(letters)  # rows that are no standard pair raise here, in the validated pair
            failures.append(record := {"word": w.to_text(), "came_back_as": reverse_bumping(insertion(w)).to_text()})
            if record["came_back_as"] == record["word"]:
                record["reason"] = "pair outside the enumeration"
    # Premise: the tree yields each word once (the pinned `cells 5` and `table 5 --json` output hold it
    # fixed).  When every word comes back from an enumerated pair of one shape, insertion maps the words
    # one-to-one into the pairs; with as many pairs as words it is onto, and each pair p = insertion(w) has
    # reverse_bumping(p) = w, so insertion(reverse_bumping(p)) = p.  Otherwise check every pair.
    if failures or not pairs == words == 2**n * math.factorial(n):
        for pair in iter_pairs(n):
            again = insertion(reverse_bumping(pair))
            if again != pair:
                failures.append({"pair": pair.to_json(), "came_back_as": again.to_json()})
    return Report("roundtrip", n, words + pairs, tuple(failures))


def verify_inverse(n: int) -> Report:
    """Swapping the pair inverts the word: word(R, T) = word(T, R)^-1."""
    _check_budget(n, PAIR_BUDGET, "inverse-symmetry verification")
    failures, checked, memo = [], 0, {}
    for _, cell, codes in _cell_tables(n):
        # Within one shape cell, the swap of the pair (T, R) = (t_i, t_j) is (t_j, t_i).
        words = list(_walk(cell, codes, memo=memo))
        for i, T in enumerate(cell):
            for j, R in enumerate(cell):
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
    """Every cascade step of every removal agrees with second_decrement's rule table."""
    _check_budget(n, PAIR_BUDGET, "transition verification")
    failures, checked, answers, memo = [], 0, {}, {}
    judge = lambda node_hops: (len(node_hops), any(_disagreements([(0, node_hops)], answers)))  # once per distinct move
    for _, cell, codes in _cell_tables(n):
        for T, _ in zip(cell, _walk(cell, codes, hops := [], memo, judge)):
            path = [0] * (n + 1)  # the hops of the current nodes at depths 1..d, counted once for each pair at a leaf
            for d, (count, _) in hops:
                path[d] = path[d - 1] + count
                checked += path[n] if d == n else 0
            if any(wrong for _, (_, wrong) in hops):  # then T's pairs flat, in (R, k, hop) order: cascade k = n..1 is depth 1..n
                for R in cell:
                    correspondence._reverse(T, R, cascades := [])
                    failures += (_hop_failure(T, R, k, hop) for k, hop in _disagreements(((k, h) for k, _, h in cascades), answers))
    return Report("transition", n, checked, tuple(failures))


def verify_wtilde(n: int) -> Report:
    """bump_once agrees with dropping the word's last letter: the emitted
    letter is w_n and the reduced pair's word is the shifted remainder."""
    _check_budget(n, PAIR_BUDGET, "reduction verification")
    failures, checked, memo, smaller_memo = [], 0, {}, {}  # a memo for each size walked
    # Each reduced T's cell, and its words with each R of that cell, from one walk of every cell of size n - 1.
    smaller = {T: (cell, words) for _, cell, codes in _cell_tables(n - 1) for T, words in zip(cell, _walk(cell, codes, memo=smaller_memo))} if n else {}
    drop = lambda R: tuple(tuple(row[:-1] if row[-1] == n else row for row in rows if row != (n,)) for rows in R)
    for _, cell, codes in _cell_tables(n) if n else ():  # the empty pair has no entry to remove
        # The k = n cascades, runs of codes with one low digit (the row m of n), each with its first R without n if
        # the run's R without n are the reduced cell in order, so that its j-th pair reduces to that cell's j-th R.
        tops, start = [], 0
        for m, run in groupby(codes, lambda code: code % (2 * n)):
            end = start + len(list(run))
            reduced = tuple(map(drop, cell[start:end]))
            tops.append((m & 1, m >> 1, start, end, reduced[0] if smaller.get(reduced[0], ((),))[0] == reduced else None))
            start = end
        for T, words in zip(cell, _walk(cell, codes, memo=memo)):
            for c, i, start, end, reduced_first in tops:
                # bump_once's step, apart from the walk's own k = n cascade that emits the words' last letter.
                reduced_T, reduced_R, letter = correspondence._reduce(_rows(T), cell[start], c, i)
                reduced_cell, reduced_run = smaller.get(reduced_T, ((None,), None))
                # So the step must reduce the run's first pair to that R and a tableau of that same cell; if not, each
                # pair of the run goes by itself, and rows that are no standard pair raise in the validated pair.
                if not reduced_R == reduced_first == reduced_cell[0]:
                    reduced_run = [reverse_bumping(bump_once(_pair(T, R))[0]).letters for R in cell[start:end]]
                for R, word, reduced_word in zip(cell[start:end], words[start:], reduced_run):
                    wt, r2 = _w_tilde(word)
                    checked += 1
                    if letter != word[-1] or abs(letter) != r2 or reduced_word != wt:
                        failures.append({"pair": _pair(T, R).to_json(), "word": _text(word), "letter": letter,
                                         "reduced_word": _text(reduced_word), "expected_reduced": _text(wt)})
    return Report("wtilde", n, checked, tuple(failures))


def verify_embedding(n: int) -> Report:
    """The embedding into the symmetric group on 2n letters: mirror image condition, injectivity, and
    compatibility with inverses.  Injectivity holds when :func:`_decode` gives every word back, which keeps no
    image; from the first word that it does not, the sweep starts over and keeps every image to look up."""
    _check_budget(n, WORD_BUDGET, "embedding verification")
    for seen in (None, {}):
        failures, checked = [], 0
        for w in _signed_permutations(n):
            sigma = _iota_embed(w)
            checked += 1
            if not is_mirror_symmetric(sigma):
                failures.append({"word": _text(w), "image": list(sigma), "reason": "mirror condition"})
            if seen is None:
                if _decode(sigma) != w:
                    break
            elif (earlier := seen.setdefault(sigma, w)) is not w:
                failures.append({"word": _text(w), "collides_with": _text(earlier)})
                seen[sigma] = w
            if _iota_embed(_inverse(w)) != permutation_inverse(sigma):
                failures.append({"word": _text(w), "reason": "inverse not respected"})
        else:
            return Report("embedding", n, checked, tuple(failures))


def _decode(images: tuple[int, ...]) -> tuple[int, ...]:
    """The word that the embedding sends to ``images``, read off sigma(1..n): position n+1-i holds n+1-sigma(i)
    when sigma(i) <= n, else the barred sigma(i)-n.  A left inverse: a word it gives back shares its image with none."""
    return tuple(map(_letter_of(len(images) // 2), images[len(images) // 2 - 1::-1]))  # sigma(n), ..., sigma(1)


def cells(n: int) -> dict[Bipartition, list[SignedPermutation]]:
    """Group all words of size n by the shape insertion gives them.

    Keys follow the canonical shape order, members the canonical word order;
    each cell has count_bitableaux(shape)^2 members.
    """
    return _group_by_shape(n, lambda letters, T, R: SignedPermutation._unchecked(letters))  # valid by construction


def _group_by_shape(n: int, item: Callable[[tuple[int, ...], Bitableau, Bitableau], object]) -> dict[Bipartition, list]:
    """Insert each word of size n once and file ``item(letters, T, R)`` under
    the shape of its pair (T, R), in the order of :func:`cells`."""
    _check_budget(n, WORD_BUDGET, "cell decomposition")
    out, tables = {bp: [] for bp in _shapes(n)}, list(_cell_tables(n))  # a bucket for each cell
    found = {T: (bucket, t) for bucket, (cell, rows, _) in zip(out.values(), tables) for T, t in zip(rows, cell)}
    coded = {code: found[T] for _, rows, codes in tables for T, code in zip(rows, codes)}  # the same by box code
    for letters, T, code in correspondence._insertion_tree(n):
        (bucket, t), (bucket_r, r) = found.get(T, (None, None)), coded.get(code, (None, None))
        if bucket is None or bucket_r is not bucket:
            insertion(SignedPermutation(letters))  # rows that are no standard pair raise here, in the validated pair
            raise ValueError(f"word {_text(letters)!r}: pair outside the enumeration")
        bucket.append(item(letters, t, r))
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
