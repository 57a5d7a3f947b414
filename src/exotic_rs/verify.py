"""Exhaustive verification of the package's core identities.

Every verifier enumerates a finite universe (words, pairs, or shapes of a
given size), checks one property case by case, and returns a :class:`Report`
with a deterministic list of failures (canonical word order).  Verifiers
refuse sizes beyond their budget by raising :class:`BudgetExceededError` --
never by silently checking less.  The env variable ``EXOTIC_RS_MAX_N``
(an integer) raises all budgets.  Each verifier computes each insertion,
reverse bump and classification once per call; its memos die with the call.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Iterator

from .bitableaux import Bitableau, enumerate_standard_bitableaux
from .correspondence import (
    CorrespondencePair,
    _check_cascades,
    bump_once,
    insertion,
    reverse_bumping,
)
from .partitions import Bipartition, count_bitableaux, enumerate_bipartitions
from .signed_perm import (
    SignedPermutation,
    _INTEGER,
    _signed_permutations,
    derive_w_tilde,
    iota_embed,
    is_mirror_symmetric,
    permutation_inverse,
)

PAIR_BUDGET = 6   # verifiers that enumerate all pairs of size n
WORD_BUDGET = 6   # verifiers that enumerate all words of size n
COUNT_BUDGET = 8  # pure shape-counting verifiers


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


@dataclass(frozen=True)
class Report:
    """Outcome of one verifier run."""

    property: str
    n: int
    checked: int
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "n": self.n,
            "checked": self.checked,
            "failures": list(self.failures),
        }

    def summary(self) -> str:
        head = f"{self.property} n={self.n}"
        if self.ok:
            return f"{head}: OK ({self.checked} checks)"
        return (
            f"{head}: FAILED ({len(self.failures)} of {self.checked} checks); "
            f"first failure: {json.dumps(self.failures[0], sort_keys=True)}"
        )


def iter_pairs(n: int) -> Iterator[CorrespondencePair]:
    """All same-shape pairs of standard bitableaux with n boxes, shape by
    shape in canonical order."""
    for shape in enumerate_bipartitions(n):
        tableaux = enumerate_standard_bitableaux(shape)
        for t in tableaux:
            for r in tableaux:
                yield CorrespondencePair(t, r)


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


def _pair_index(n: int) -> tuple[Callable[[CorrespondencePair], int], int]:
    """The position of a pair of size n in :func:`iter_pairs`, read off the
    places of T and R among the cached tableaux; and the number of pairs."""
    place: dict[Bitableau, tuple[int, int]] = {}
    count = 0
    for shape in enumerate_bipartitions(n):
        tableaux = enumerate_standard_bitableaux(shape)
        for i, t in enumerate(tableaux):
            place[t] = (count + i * len(tableaux), i)
        count += len(tableaux) ** 2

    def index(pair: CorrespondencePair) -> int:
        return place[pair.T][0] + place[pair.R][1]

    return index, count


def verify_roundtrip(n: int) -> Report:
    """reverse_bumping(insertion(w)) = w for every word, and
    insertion(reverse_bumping(pair)) = pair for every pair."""
    _check_budget(n, PAIR_BUDGET, "round-trip verification")
    failures = []
    checked = 0
    # A pair p = insertion(w) with reverse_bumping(p) = w passes the second
    # check already: insertion(reverse_bumping(p)) = insertion(w) = p.
    index, count = _pair_index(n)
    covered = bytearray(count)
    for w in _signed_permutations(n):
        pair = insertion(w)
        back = reverse_bumping(pair)
        checked += 1
        if back != w:
            failures.append({"word": w.to_text(), "came_back_as": back.to_text()})
        else:
            covered[index(pair)] = 1
    for k, pair in enumerate(iter_pairs(n)):
        checked += 1
        if covered[k]:
            continue
        again = insertion(reverse_bumping(pair))
        if again != pair:
            failures.append({"pair": pair.to_json(), "came_back_as": again.to_json()})
    return Report("roundtrip", n, checked, tuple(failures))


def verify_inverse(n: int) -> Report:
    """Swapping the pair inverts the word: word(R, T) = word(T, R)^-1."""
    _check_budget(n, PAIR_BUDGET, "inverse-symmetry verification")
    failures = []
    checked = 0
    for shape in enumerate_bipartitions(n):
        # Within one shape cell, the swap of the pair (T, R) = (t_i, t_j) is (t_j, t_i).
        tableaux = enumerate_standard_bitableaux(shape)
        words = [[reverse_bumping(CorrespondencePair(t, r)) for r in tableaux] for t in tableaux]
        for i, t in enumerate(tableaux):
            for j, r in enumerate(tableaux):
                straight, swapped = words[i][j], words[j][i]
                checked += 1
                if swapped != straight.inverse():
                    pair = CorrespondencePair(t, r)
                    failures.append({"pair": pair.to_json(), "word": straight.to_text(), "swapped_word": swapped.to_text()})
    return Report("inverse", n, checked, tuple(failures))


def verify_counting(n: int) -> Report:
    """The squares of the shape counts add up to the group order 2^n * n!."""
    _check_budget(n, COUNT_BUDGET, "counting verification")
    shapes = enumerate_bipartitions(n)
    total = sum(count_bitableaux(bp) ** 2 for bp in shapes)
    expected = 2**n * math.factorial(n)
    failures = ()
    if total != expected:
        failures = ({"sum_of_squares": total, "group_order": expected},)
    return Report("counting", n, len(shapes), failures)


def verify_transition(n: int) -> Report:
    """Every cascade step of every removal agrees with second_decrement's rule table."""
    _check_budget(n, PAIR_BUDGET, "transition verification")
    checked, failures = _check_cascades(iter_pairs(n))
    return Report("transition", n, checked, tuple(failures))


def verify_wtilde(n: int) -> Report:
    """bump_once agrees with dropping the word's last letter: the emitted
    letter is w_n and the reduced pair's word is the shifted remainder."""
    _check_budget(n, PAIR_BUDGET, "reduction verification")
    failures = []
    checked = 0
    index, _ = _pair_index(max(n - 1, 0))
    reduced_words: dict[int, SignedPermutation] = {}  # words of the reduced pairs, by index
    for pair in iter_pairs(n):
        if pair.size == 0:
            continue
        word = reverse_bumping(pair)
        reduced, letter, r = bump_once(pair)
        wt, r2 = derive_w_tilde(word)
        checked += 1
        if (k := index(reduced)) not in reduced_words:
            reduced_words[k] = reverse_bumping(reduced)
        reduced_word = reduced_words[k]
        if letter != word.letters[-1] or r != r2 or reduced_word != wt:
            failures.append(
                {
                    "pair": pair.to_json(),
                    "word": word.to_text(),
                    "letter": letter,
                    "reduced_word": reduced_word.to_text(),
                    "expected_reduced": wt.to_text(),
                }
            )
    return Report("wtilde", n, checked, tuple(failures))


def verify_embedding(n: int) -> Report:
    """The embedding into the symmetric group on 2n letters: mirror image
    condition, injectivity, and compatibility with inverses."""
    _check_budget(n, WORD_BUDGET, "embedding verification")
    failures = []
    checked = 0
    seen: dict[tuple[int, ...], SignedPermutation] = {}
    for w in _signed_permutations(n):
        sigma = iota_embed(w)
        checked += 1
        if not is_mirror_symmetric(sigma):
            failures.append({"word": w.to_text(), "image": list(sigma), "reason": "mirror condition"})
        if sigma in seen:
            failures.append({"word": w.to_text(), "collides_with": seen[sigma].to_text()})
        seen[sigma] = w
        if iota_embed(w.inverse()) != permutation_inverse(sigma):
            failures.append({"word": w.to_text(), "reason": "inverse not respected"})
    return Report("embedding", n, checked, tuple(failures))


def cells(n: int) -> dict[Bipartition, list[SignedPermutation]]:
    """Group all words of size n by the shape insertion gives them.

    Keys follow the canonical shape order, members the canonical word order;
    each cell has count_bitableaux(shape)^2 members.
    """
    return _group_by_shape(n, lambda w, pair: w)


def _group_by_shape(n: int, item: Callable[[SignedPermutation, CorrespondencePair], object]) -> dict[Bipartition, list]:
    """Insert each word of size n once and file ``item(word, pair)`` under
    the pair's shape, in the order of :func:`cells`."""
    _check_budget(n, WORD_BUDGET, "cell decomposition")
    out: dict[Bipartition, list] = {bp: [] for bp in enumerate_bipartitions(n)}
    for w in _signed_permutations(n):
        pair = insertion(w)
        out[pair.shape].append(item(w, pair))
    return out


def load_golden_table() -> dict:
    """The frozen n=3 correspondence table shipped with the package."""
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
