"""Partitions, bipartitions, and counting."""

from __future__ import annotations

import hashlib
import math
import pickle
import re
from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from conftest import bipartitions, partitions, signed_words
from exotic_rs import signed_perm
from exotic_rs import (
    Bipartition,
    Bitableau,
    CorrespondencePair,
    Partition,
    SignedPermutation,
    count_bitableaux,
    derive_w_tilde,
    dimension_b,
    enumerate_bipartitions,
    enumerate_signed_permutations,
    enumerate_standard_bitableaux,
    iter_pairs,
    partitions_of,
)


class TestPartition:
    @pytest.mark.parametrize(
        "parts, expected",
        [
            ((), ()),
            ((3, 1), (3, 1)),
            ((3, 1, 0, 0), (3, 1)),
            ((2, 2, 2), (2, 2, 2)),
        ],
    )
    def test_trailing_zeros_are_stripped(self, parts, expected):
        assert Partition(parts).parts == expected

    @pytest.mark.parametrize("parts", [(1, 2), (3, 1, 2)])
    def test_rejects_non_weakly_decreasing(self, parts):
        with pytest.raises(ValueError, match="weakly decreasing"):
            Partition(parts)

    def test_rejects_negative_parts(self):
        with pytest.raises(ValueError, match="non-negative"):
            Partition((1, -1))

    def test_rejects_bool_parts(self):
        with pytest.raises(ValueError, match="non-negative integers"):
            Partition((True,))
        with pytest.raises(ValueError, match="non-negative integers"):
            Partition((2, True))

    def test_str_form(self):
        assert str(Partition((3, 1))) == "[3,1]"
        assert str(Partition(())) == "[]"

    @given(partitions())
    def test_size_is_sum_of_parts(self, p):
        assert p.size == sum(p.parts)


class TestUnchecked:
    """``_Frozen._unchecked`` and its two-field ``_unchecked2`` (a tableau's rows, a pair's tableaux) skip the
    constructor's checks and nothing else: on valid fields the value is the validated constructor's."""

    @staticmethod
    def assert_same(fast, checked):
        assert fast == checked and hash(fast) == hash(checked) and repr(fast) == repr(checked)
        assert pickle.loads(pickle.dumps(fast)) == checked == pickle.loads(pickle.dumps(checked))

    @pytest.mark.parametrize("cls", [Partition, SignedPermutation])
    def test_empty_values(self, cls):
        self.assert_same(cls._unchecked(()), cls(()))

    @given(partitions(max_size=30))
    @settings(max_examples=50)
    def test_partitions(self, p):
        self.assert_same(Partition._unchecked(p.parts), Partition(p.parts))

    @given(signed_words(max_n=30))
    @settings(max_examples=50)
    def test_signed_permutations(self, w):
        self.assert_same(SignedPermutation._unchecked(w.letters), SignedPermutation(w.letters))

    def test_empty_pair(self):
        self.assert_same(CorrespondencePair._unchecked2(Bitableau(), Bitableau()), CorrespondencePair())

    @pytest.mark.parametrize("n", range(5))
    def test_pairs(self, n):
        for pair in iter_pairs(n):
            self.assert_same(CorrespondencePair._unchecked2(pair.T, pair.R), CorrespondencePair(pair.T, pair.R))

    @pytest.mark.parametrize("n", range(6))
    def test_bitableaux(self, n):
        for bp in enumerate_bipartitions(n):
            for t in enumerate_standard_bitableaux(bp):
                self.assert_same(Bitableau._unchecked2(t.left, t.right), Bitableau(t.left, t.right))

    # Values derived from valid values are built unchecked: each is built while the constructors' checks refuse,
    # then compared with the validated construction (whose pickle round trip runs those checks).

    @staticmethod
    @contextmanager
    def refusing(monkeypatch):
        def refuse(self):
            raise AssertionError("a derived value was validated")

        with monkeypatch.context() as patch:
            for cls in SignedPermutation, Bitableau, CorrespondencePair:
                patch.setattr(cls, "__post_init__", refuse)
            yield

    @pytest.mark.parametrize("n", range(6))
    def test_inverses(self, n, monkeypatch):
        words = enumerate_signed_permutations(n)
        with self.refusing(monkeypatch):
            inverses = [w.inverse() for w in words]
        for w, inverse in zip(words, inverses):
            self.assert_same(inverse, SignedPermutation(signed_perm._inverse(w.letters)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_reduced_words(self, n, monkeypatch):
        words = enumerate_signed_permutations(n)
        with self.refusing(monkeypatch):
            reduced = [derive_w_tilde(w) for w in words]
        for w, (fast, r) in zip(words, reduced):
            letters, r_checked = signed_perm._w_tilde(w.letters)
            assert r == r_checked
            self.assert_same(fast, SignedPermutation(letters))

    @pytest.mark.parametrize("n", range(6))
    def test_swapped_pairs(self, n, monkeypatch):
        pairs = list(iter_pairs(n))
        with self.refusing(monkeypatch):
            swapped = [pair.swapped() for pair in pairs]
        for pair, fast in zip(pairs, swapped):
            self.assert_same(fast, CorrespondencePair(pair.R, pair.T))


class TestBipartition:
    def test_lam_adds_componentwise(self):
        bp = Bipartition(Partition((5, 4, 3, 2, 1, 1)), Partition((3, 2, 2, 2, 2, 1)))
        assert bp.lam == Partition((8, 6, 5, 4, 3, 2))
        assert bp.size == 28
        assert len(bp.lam.parts) == 6

    def test_lam_is_the_componentwise_sum_through_size_eight(self):
        for n in range(9):
            for bp in enumerate_bipartitions(n):
                rows = max(len(bp.mu.parts), len(bp.nu.parts))
                mu, nu = (parts + (0,) * (rows - len(parts)) for parts in (bp.mu.parts, bp.nu.parts))
                assert bp.lam.parts == tuple(mu[i] + nu[i] for i in range(rows))

    @pytest.mark.parametrize(
        "bp, text",
        [
            (Bipartition(Partition((3, 1)), Partition((2, 2, 1))), "mu=[3,1];nu=[2,2,1]"),
            (Bipartition(Partition(()), Partition(())), "mu=[];nu=[]"),
            (Bipartition(Partition((1,)), Partition(())), "mu=[1];nu=[]"),
        ],
    )
    def test_text_round_trip(self, bp, text):
        assert bp.to_text() == text

    @pytest.mark.parametrize(
        "mu, nu, shown",
        [
            ((2, 1), (1,), "mu=(2, 1), nu=(1,)"),
            (Partition((2, 1)), (1,), "mu=Partition(parts=(2, 1)), nu=(1,)"),
            ((), Partition(), "mu=(), nu=Partition(parts=())"),
        ],
        ids=["tuples", "tuple-nu", "tuple-mu"],
    )
    def test_components_that_are_not_partitions_are_refused_where_built(self, mu, nu, shown):
        # Accepted, such a shape would fail later, far from its cause: count_bitableaux and
        # enumerate_standard_bitableaux would raise AttributeError on the tuple.
        with pytest.raises(ValueError, match=rf"\Abipartition components must be partitions, got {re.escape(shown)}\Z"):
            Bipartition(mu, nu)


class TestDimension:
    @pytest.mark.parametrize(
        "bp, expected",
        [
            (Bipartition(Partition((3, 1)), Partition((2, 2, 1))), 10),
            (Bipartition(Partition((1,)), Partition(())), 0),
            (Bipartition(Partition(()), Partition((1,))), 1),
            (Bipartition(Partition(()), Partition(())), 0),
        ],
    )
    def test_known_values(self, bp, expected):
        assert dimension_b(bp) == expected

    @pytest.mark.parametrize("n", range(1, 11))
    def test_single_column_right_component(self, n):
        bp = Bipartition(Partition(()), Partition((1,) * n))
        assert dimension_b(bp) == n * (n + 1) // 2

    @given(bipartitions())
    def test_dimension_is_nonnegative(self, bp):
        assert dimension_b(bp) >= 0


class TestEnumeration:
    def test_partitions_of_counts(self):
        assert [len(list(partitions_of(n))) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]

    def test_partitions_of_respects_max_part(self):
        got = list(partitions_of(4, max_part=2))
        assert got == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_negative_sizes_are_rejected(self):
        with pytest.raises(ValueError, match=r"^cannot partition a negative total: -1$"):
            list(partitions_of(-1))
        with pytest.raises(ValueError, match=r"^total size must be >= 0, got -1$"):
            enumerate_bipartitions(-1)

    def test_bipartition_listing_order_is_textual(self):
        got = [bp.to_text() for bp in enumerate_bipartitions(1)]
        assert got == sorted(got)
        assert set(got) == {"mu=[1];nu=[]", "mu=[];nu=[1]"}

    @pytest.mark.parametrize("n, expected", [(0, 1), (1, 2), (2, 5), (3, 10), (4, 20), (5, 36)])
    def test_bipartition_listing_sizes(self, n, expected):
        shapes = enumerate_bipartitions(n)
        assert len(shapes) == expected
        assert all(bp.size == n for bp in shapes)
        assert len(set(shapes)) == expected


class TestCounting:
    def test_small_shape_has_three_fillings(self):
        bp = Bipartition(Partition((2,)), Partition((1,)))
        assert count_bitableaux(bp) == 3

    def test_empty_shape_has_one_filling(self):
        assert count_bitableaux(Bipartition(Partition(()), Partition(()))) == 1

    @pytest.mark.parametrize("n", range(8))
    def test_squares_sum_to_group_order(self, n):
        total = sum(count_bitableaux(bp) ** 2 for bp in enumerate_bipartitions(n))
        assert total == 2**n * math.factorial(n)

    @pytest.mark.parametrize("n", range(6))
    def test_count_matches_explicit_enumeration(self, n):
        for bp in enumerate_bipartitions(n):
            listed = enumerate_standard_bitableaux(bp)
            assert len(listed) == count_bitableaux(bp)

    def test_counts_through_size_ten_are_pinned(self):
        # The digest of counts taken by the corner recursion over removable boxes, an independent method.
        lines = [f"{bp.to_text()} {count_bitableaux(bp)}\n" for n in range(11) for bp in enumerate_bipartitions(n)]
        assert len(lines) == 1215
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "b7ab883423378995a81d2bf9f7d9e3557ad6e756cac15fa2eead7d8b2745c8d3"
