"""Signed permutation words, their order, inversion, embedding, reduction."""

from __future__ import annotations

import itertools
import math
import re

import pytest
from hypothesis import given

from conftest import signed_words
from exotic_rs import (
    SignedPermutation,
    derive_w_tilde,
    enumerate_signed_permutations,
    iota_embed,
    is_mirror_symmetric,
    permutation_inverse,
    sort_key,
)
from exotic_rs.signed_perm import _embedded_words, _inverse, _signed_permutations


class TestConstruction:
    @pytest.mark.parametrize(
        "letters, message",
        [
            ((True,), "letters must be integers: (True,)"),
            ((1.0,), "letters must be integers: (1.0,)"),
            ((0,), "letter 0 is not allowed; magnitudes run 1..n"),
            ((1, 1), "letter magnitudes must be a permutation of 1..2: (1, 1)"),
            ((1, -1), "letter magnitudes must be a permutation of 1..2: (1, -1)"),
            ((2, 3), "letter magnitudes must be a permutation of 1..2: (2, 3)"),
            ((1, 2, 4), "letter magnitudes must be a permutation of 1..3: (1, 2, 4)"),
        ],
    )
    def test_rejects_non_permutations(self, letters, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SignedPermutation(letters)

    def test_empty_word_is_allowed(self):
        assert SignedPermutation().n == 0

    @pytest.mark.parametrize(
        "text, letters",
        [("-3 6 4 -7 2 -5 1", (-3, 6, 4, -7, 2, -5, 1)), ("1", (1,)), ("", ())],
    )
    def test_text_round_trip(self, text, letters):
        w = SignedPermutation.from_text(text)
        assert w.letters == letters
        assert w.to_text() == text
        assert str(w) == w.to_text()

    @pytest.mark.parametrize(
        "text, message",
        [("1 x 2", "token 2"), ("0", "token 1"), ("1 2 2.5", "token 3"), ("2 1_0", "token 2"), ("\u0662", "token 1")],
    )
    def test_parse_errors_name_the_bad_token(self, text, message):
        with pytest.raises(ValueError, match=message):
            SignedPermutation.from_text(text)


class TestInverse:
    def test_worked_example(self):
        w = SignedPermutation.from_text("-3 6 4 -7 2 -5 1")
        assert w.inverse().to_text() == "7 5 -1 3 -6 2 -4"

    def test_identity_is_self_inverse(self):
        w = SignedPermutation((1, 2, 3))
        assert w.inverse() == w

    @given(signed_words())
    def test_inverse_is_an_involution(self, w):
        assert w.inverse().inverse() == w

    @given(signed_words())
    def test_inverse_sends_images_back_with_the_same_bar(self, w):
        inv = w.inverse()
        for k, x in enumerate(w.letters, start=1):
            assert inv.letters[abs(x) - 1] == (k if x > 0 else -k)


class TestEnumeration:
    def test_order_for_two_letters(self):
        got = [w.to_text() for w in enumerate_signed_permutations(2)]
        assert got == ["1 2", "1 -2", "-1 2", "-1 -2", "2 1", "2 -1", "-2 1", "-2 -1"]

    @pytest.mark.parametrize("n", range(5))
    def test_group_order(self, n):
        words = enumerate_signed_permutations(n)
        assert len(words) == len(set(words)) == 2**n * math.factorial(n)

    @pytest.mark.parametrize("n", range(4))
    def test_listing_is_sorted_by_the_canonical_key(self, n):
        words = enumerate_signed_permutations(n)
        assert words == sorted(words, key=sort_key)

    def test_negative_n_is_rejected(self):
        with pytest.raises(ValueError):
            enumerate_signed_permutations(-1)
        with pytest.raises(ValueError):
            list(_signed_permutations(-1))

    @pytest.mark.parametrize("n", range(7))
    def test_each_word_is_the_validated_word(self, n):
        # The words are built unchecked, being valid by construction.
        assert enumerate_signed_permutations(n) == [SignedPermutation(w) for w in _signed_permutations(n)]

    @pytest.mark.parametrize("n", range(7))
    def test_stream_is_every_word_in_canonical_order(self, n):
        every_word = (
            SignedPermutation(tuple(m * s for m, s in zip(mags, signs)))
            for mags in itertools.permutations(range(1, n + 1))
            for signs in itertools.product((1, -1), repeat=n)
        )
        assert list(_signed_permutations(n)) == [w.letters for w in sorted(every_word, key=sort_key)]


class TestEmbedding:
    @pytest.mark.parametrize("n", range(5))
    def test_identity_maps_to_identity(self, n):
        w = SignedPermutation(tuple(range(1, n + 1)))
        assert iota_embed(w) == tuple(range(1, 2 * n + 1))

    @pytest.mark.parametrize(
        "text, expected",
        [("-1", (2, 1)), ("-2 1", (2, 4, 1, 3)), ("1 -2", (4, 2, 3, 1))],
    )
    def test_small_images(self, text, expected):
        assert iota_embed(SignedPermutation.from_text(text)) == expected

    @given(signed_words())
    def test_images_satisfy_the_mirror_condition(self, w):
        assert is_mirror_symmetric(iota_embed(w))

    @pytest.mark.parametrize("n", range(4))
    def test_image_is_exactly_the_mirror_symmetric_permutations(self, n):
        image = {iota_embed(w) for w in enumerate_signed_permutations(n)}
        mirror = {
            sigma
            for sigma in itertools.permutations(range(1, 2 * n + 1))
            if is_mirror_symmetric(sigma)
        }
        assert image == mirror
        assert len(image) == 2**n * math.factorial(n)

    @pytest.mark.parametrize("n", range(4))
    def test_embedding_turns_inverses_into_inverses(self, n):
        for w in enumerate_signed_permutations(n):
            assert iota_embed(w.inverse()) == permutation_inverse(iota_embed(w))

    @pytest.mark.parametrize("n", range(7))
    def test_embedded_words_carry_each_word_its_inverse_and_their_images(self, n):
        # The carried images are checked by decoding them here and by permutation_inverse, not by _iota_embed.
        def decode(first_half):  # sigma(n), ..., sigma(1) give w_1, ..., w_n: n + 1 - sigma(i), or -(sigma(i) - n) if barred
            return tuple(n + 1 - s if s <= n else n - s for s in reversed(first_half))

        carried = list(_embedded_words(n))
        assert [w for w, _, _, _ in carried] == list(_signed_permutations(n))
        for w, inverse, image, tau in carried:
            assert inverse == _inverse(w)
            assert is_mirror_symmetric(image) and sorted(image) == list(range(1, 2 * n + 1))
            assert decode(image[:n]) == w
            image_of_inverse = tuple(j + 1 for j in tau)
            assert decode(image_of_inverse) == inverse
            assert permutation_inverse(image)[:n] == image_of_inverse

    def test_permutation_inverse_is_an_involution(self):
        sigma = (2, 4, 1, 3)
        assert permutation_inverse(permutation_inverse(sigma)) == sigma

    def test_odd_length_tuples_are_never_mirror_symmetric(self):
        assert not is_mirror_symmetric((1, 2, 3))


class TestReduction:
    @pytest.mark.parametrize(
        "text, reduced, r",
        [
            ("2 7 5 -6 4 -3 1", "1 6 4 -5 3 -2", 1),
            ("2 -1", "1", 1),
            ("-2 1", "-1", 1),
            ("1 -2", "1", 2),
            ("-1", "", 1),
        ],
    )
    def test_worked_reductions(self, text, reduced, r):
        w = SignedPermutation.from_text(text)
        got, got_r = derive_w_tilde(w)
        assert got.to_text() == reduced
        assert got_r == r

    def test_empty_word_is_rejected(self):
        with pytest.raises(ValueError, match="empty word"):
            derive_w_tilde(SignedPermutation())

    @given(signed_words(min_n=1))
    def test_reduction_drops_one_letter_and_keeps_bars(self, w):
        reduced, r = derive_w_tilde(w)
        assert reduced.n == w.n - 1
        assert r == abs(w.letters[-1])
        for old, new in zip(w.letters[:-1], reduced.letters):
            assert (old < 0) == (new < 0)
            assert abs(new) == (abs(old) if abs(old) < r else abs(old) - 1)
