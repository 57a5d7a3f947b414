"""Signed permutations (the hyperoctahedral group) and their embedding into
the symmetric group on 2n letters.

A signed permutation on n letters is written as a word w_1 ... w_n where the
magnitudes |w_k| run over 1..n exactly once and a negative sign marks a
barred letter.  Text form: space-separated signed integers, e.g.
``-3 6 4 -7 2 -5 1`` (ASCII minus = bar).  The empty word is the unique
signed permutation for n = 0.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .partitions import _Frozen

# An optional sign and ASCII digits: the integer forms the package reads from text.
_INTEGER = re.compile(r"[+-]?[0-9]+")


class SignedPermutation(_Frozen):
    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "letters", tuple(letters))
        self.__post_init__()

    def __post_init__(self) -> None:
        letters = self.letters
        if not set(map(type, letters)) <= {int}:  # exact: bool is rejected
            raise ValueError(f"letters must be integers: {letters!r}")
        if 0 in letters:
            raise ValueError("letter 0 is not allowed; magnitudes run 1..n")
        if sorted(map(abs, letters)) != [*range(1, len(letters) + 1)]:
            raise ValueError(f"letter magnitudes must be a permutation of 1..{len(letters)}: {letters!r}")

    @property
    def n(self) -> int:
        return len(self.letters)

    def inverse(self) -> "SignedPermutation":
        """If the word sends k to +-a, the inverse sends a to +-k (same bar): unchecked, as it permutes 1..n."""
        return SignedPermutation._unchecked(_inverse(self.letters))

    def to_text(self) -> str:
        return _text(self.letters)

    @classmethod
    def from_text(cls, text: str) -> "SignedPermutation":
        """Parse the space-separated form; errors name the bad token position.
        A token is an optional sign and ASCII digits; the other forms ``int``
        reads (underscores, non-ASCII digits) are rejected."""
        tokens = text.split()
        letters = []
        for pos, tok in enumerate(tokens, start=1):
            if _INTEGER.fullmatch(tok) is None:
                raise ValueError(f"token {pos}: {tok!r} is not a signed integer")
            x = int(tok)
            if x == 0:
                raise ValueError(f"token {pos}: 0 is not a valid letter")
            letters.append(x)
        return cls(tuple(letters))

    def __str__(self) -> str:
        return self.to_text()


def _text(letters: tuple[int, ...]) -> str:
    """:meth:`SignedPermutation.to_text` on letter tuples."""
    return " ".join(map(str, letters))


def _inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    """:meth:`SignedPermutation.inverse` on letter tuples."""
    out = [0] * len(letters)
    for k, x in enumerate(letters, start=1):
        out[abs(x) - 1] = k if x > 0 else -k
    return tuple(out)


def sort_key(w: SignedPermutation) -> tuple[tuple[int, bool], ...]:
    """Canonical report order: letters compare by (magnitude, barred), so the
    unbarred letter precedes its barred twin; words compare lexicographically."""
    return tuple((abs(x), x < 0) for x in w.letters)


def enumerate_signed_permutations(n: int) -> list[SignedPermutation]:
    """All 2^n * n! signed permutations on n letters, in canonical order; valid by construction, so unchecked."""
    return list(map(SignedPermutation._unchecked, _signed_permutations(n)))


def _signed_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """The letters of the words of :func:`enumerate_signed_permutations`, one at a time."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _completions([0] * n, list(range(1, n + 1)), 0) if n else iter([()])


def _completions(word: list[int], unused: list[int], i: int) -> Iterator[tuple[int, ...]]:
    """Every word that begins with ``word[:i]``, filled in on the one buffer ``word``, in sort_key's order:
    position i takes each magnitude of ``unused`` (those the prefix lacks, increasing), unbarred then barred."""
    if i == len(word) - 1:  # the one magnitude left
        word[i] = unused[0]
        yield tuple(word)
        word[i] = -unused[0]
        yield tuple(word)
        return
    for j in range(len(unused)):
        m = word[i] = unused.pop(j)
        yield from _completions(word, unused, i + 1)
        word[i] = -m
        yield from _completions(word, unused, i + 1)
        unused.insert(j, m)


def _embedded_words(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """For each word w of :func:`_signed_permutations`, in its order: w, w^-1, E(w) and E(w^-1)(1..n) - 1, where E is
    :func:`iota_embed`'s formula.  Each w_p = +-a (p = 0, 1, ...) also writes +-(p + 1) at a in w^-1, n + 1 - a and n + a
    at n - p and n + 1 + p in E(w) (swapped if barred), and n - p (n + 1 + p if barred) at n + 1 - a in E(w^-1)."""
    return _embeddings([0] * n, [0] * n, [0] * (2 * n), [0] * n, list(range(1, n + 1)), 0) if n else iter([((), (), (), ())])


def _embeddings(word, inverse, image, index, unused, p: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The entries of :func:`_embedded_words` whose word begins with ``word[:p]``, filled in on its list buffers."""
    if p == (n := len(word)) - 1:  # the one magnitude left
        a = unused[0]
        for word[p], inverse[a - 1], image[0], image[-1], index[n - a] in (
                (a, n, n + 1 - a, n + a, 0), (-a, -n, n + a, n + 1 - a, 2 * n - 1)):
            yield tuple(word), tuple(inverse), tuple(image), tuple(index)
        return
    for j in range(len(unused)):
        a = unused.pop(j)
        for word[p], inverse[a - 1], image[n - 1 - p], image[n + p], index[n - a] in (
                (a, p + 1, n + 1 - a, n + a, n - 1 - p), (-a, -1 - p, n + a, n + 1 - a, n + p)):
            yield from _embeddings(word, inverse, image, index, unused, p + 1)
        unused.insert(j, a)


def iota_embed(w: SignedPermutation) -> tuple[int, ...]:
    """Embed the signed permutation into the symmetric group on 2n letters.

    The image sigma is determined on 1..n by reading the word backwards:
    for i = 1..n the letter at word position n+1-i with magnitude a gives
    sigma(i) = n+1-a when unbarred and sigma(i) = n+a when barred; the other
    half is forced by the mirror condition sigma(i) + sigma(2n+1-i) = 2n+1.
    The identity word maps to the identity, and the map turns inverses into
    inverses.  Returned as the tuple (sigma(1), ..., sigma(2n)).
    """
    return _iota_embed(w.letters)


def _iota_embed(letters: tuple[int, ...]) -> tuple[int, ...]:
    """:func:`iota_embed` on letter tuples."""
    n = len(letters)
    images = [0] * (2 * n)
    for i in range(1, n + 1):
        sigma_i = n + 1 - x if (x := letters[n - i]) > 0 else n - x
        images[i - 1] = sigma_i
        images[2 * n - i] = 2 * n + 1 - sigma_i
    return tuple(images)


def permutation_inverse(images: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of a permutation given as a 1-indexed image tuple."""
    out = [0] * len(images)
    for k, v in enumerate(images, start=1):
        out[v - 1] = k
    return tuple(out)


def is_mirror_symmetric(images: tuple[int, ...]) -> bool:
    """Whether sigma(i) + sigma(2n+1-i) = 2n+1 for all i (the image condition
    cutting the embedded copy of the signed permutations out of S_2n)."""
    size = len(images)
    return size % 2 == 0 and all(images[i] + images[size - 1 - i] == size + 1 for i in range(size // 2))


def derive_w_tilde(w: SignedPermutation) -> tuple[SignedPermutation, int]:
    """Drop the last letter and close the gap its magnitude leaves.

    Returns (reduced word, r) where r = |w_n|; every surviving letter keeps its bar and magnitudes
    above r shift down by one, so the word is built unchecked: it drops r and closes the gap.
    """
    if w.n == 0:
        raise ValueError("the empty word has no last letter to remove")
    letters, r = _w_tilde(w.letters)
    return SignedPermutation._unchecked(letters), r


def _w_tilde(letters: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """:func:`derive_w_tilde` on nonempty letter tuples."""
    r = abs(letters[-1])  # magnitudes above r move one step toward 0
    return tuple([x - (x > r) if x > 0 else x + (x < -r) for x in letters[:-1]]), r
