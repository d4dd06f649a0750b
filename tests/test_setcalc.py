"""Frozen-value and property tests for the ground-set algebra.

Expected values in this file were derived by hand (direct enumeration of
r-subsets and intersections) before the implementation was written.
"""

from __future__ import annotations

import itertools
import random
import re
from functools import reduce
from operator import and_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutbounds.errors import GroundMismatchError, ParameterError
from cutbounds.setcalc import (
    ElementSet,
    GroundSet,
    SubsetFamily,
    intersect_level,
    level_masks,
    prefix_extended_family,
    prefix_extension_identity,
    prefix_levels,
)


def family_of(ground: GroundSet, *member_lists) -> SubsetFamily:
    return SubsetFamily(
        ground, tuple(ground.subset(members) for members in member_lists)
    )


def random_family(rng: random.Random, n: int, k: int) -> SubsetFamily:
    g = GroundSet(n)
    sets = tuple(
        ElementSet(g, rng.randrange(1 << n)) for _ in range(k)
    )
    return SubsetFamily(g, sets)


def direct_level(masks, positions, r: int) -> int:
    """Reference level from the definition: the union, over the r-subsets of
    `positions`, of the intersection of their masks."""
    return reduce(
        int.__or__,
        (reduce(and_, (masks[p] for p in combo)) for combo in itertools.combinations(positions, r)),
        0,
    )


class TestGroundSet:
    def test_size_bounds(self):
        assert GroundSet(1).size == 1
        assert GroundSet(64).full_mask == (1 << 64) - 1
        assert GroundSet(65).full_mask == (1 << 65) - 1
        for size in (0, -1, 2.0):
            with pytest.raises(ParameterError):
                GroundSet(size)

    def test_labels_validated(self):
        g = GroundSet(2, ("a", "b"))
        assert g.label(1) == "b"
        assert g.index("a") == 0
        with pytest.raises(ParameterError):
            GroundSet(2, ("a",))
        with pytest.raises(ParameterError):
            GroundSet(2, ("a", "a"))

    def test_label_lookup_refusals(self):
        g = GroundSet(3, ("a", "b", "c"))
        assert [g.index(x) for x in ("c", "a", "b")] == [2, 0, 1]
        assert g.subset_of_labels(["c", "a", "c"]).mask == 0b101
        with pytest.raises(ParameterError, match=r"^unknown label 'd'$"):
            g.subset_of_labels(["a", "d"])
        with pytest.raises(ParameterError, match=r"^unknown label 0$"):
            g.index(0)
        with pytest.raises(ParameterError, match=r"^ground set has no labels$"):
            GroundSet(3).index("0")
        with pytest.raises(ParameterError, match=r"^unknown label \['a'\]$"):
            g.index(["a"])
        # an empty list names no label, so an unlabelled ground gives it too
        assert GroundSet(3).subset_of_labels([]).mask == 0
        assert g == GroundSet(3, ["a", "b", "c"]) and hash(g) == hash(GroundSet(3, "abc"))
        assert repr(g) == "GroundSet(size=3, labels=('a', 'b', 'c'))"

    def test_subset_refuses_elements_that_are_not_ints(self):
        for ground, element, text in [
            (GroundSet(3), 1.5, "element must be an integer, got 1.5"),
            (GroundSet(2), "1", "element must be an integer, got '1'"),
        ]:
            with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
                ground.subset([element])
        # a bool is an int
        assert GroundSet(3).subset([True]).mask == 0b10

    def test_label_refuses_positions_outside_the_ground(self):
        for ground in (GroundSet(3, ("a", "b", "c")), GroundSet(3)):
            assert [ground.label(p) for p in range(3)] == list(ground.labels or "012")
            # a bool is an int
            assert ground.label(True) == ground.label(1)
            for position in (-1, 3, 7):
                with pytest.raises(
                    ParameterError, match=f"^position {position} outside ground of size 3$"
                ):
                    ground.label(position)
            for position, shown in ((1.5, "1.5"), ("1", "'1'"), (None, "None")):
                with pytest.raises(
                    ParameterError, match=f"^position must be an integer, got {shown}$"
                ):
                    ground.label(position)

    def test_subset_helpers(self):
        g = GroundSet(4)
        s = g.subset([0, 2])
        assert s.mask == 0b0101
        assert sorted(s.members()) == [0, 2]
        assert g.empty().mask == 0
        assert g.full().mask == 0b1111


class TestElementSet:
    def test_mask_validated(self):
        g = GroundSet(3)
        with pytest.raises(ParameterError):
            ElementSet(g, 1 << 3)
        with pytest.raises(ParameterError):
            ElementSet(g, -1)

    def test_mask_must_be_an_int(self):
        g = GroundSet(3)
        for mask in (1.5, 1.0, "1"):
            with pytest.raises(ParameterError, match="^mask must be an integer, got "):
                ElementSet(g, mask)
        # a bool is an int
        assert ElementSet(g, True).mask == 1

    def test_set_operations(self):
        g = GroundSet(4)
        a = g.subset([0, 1])
        b = g.subset([1, 2])
        assert (a | b).mask == g.subset([0, 1, 2]).mask
        assert (a & b).mask == g.subset([1]).mask
        assert (a - b).mask == g.subset([0]).mask
        assert a <= (a | b)
        assert not (a <= b)
        assert len(a) == 2
        assert 0 in a and 2 not in a

    def test_containment_of_anything_else_is_false(self):
        s = GroundSet(3).subset([1])
        assert 1 in s and True in s
        for element in (1.5, 1.0, "1", None, -1, 3, (1,)):
            assert element not in s

    def test_ground_mismatch_rejected(self):
        a = GroundSet(3).subset([0])
        b = GroundSet(4).subset([0])
        with pytest.raises(GroundMismatchError):
            a | b


class TestIntersectLevel:
    # Running example: three sets over a 3-element ground,
    # S1={0,1}, S2={1,2}, S3={0,2}.  Pairwise intersections are the
    # three singletons, the triple intersection is empty.
    def setup_method(self):
        self.g = GroundSet(3)
        self.fam = family_of(self.g, [0, 1], [1, 2], [0, 2])

    def test_level_two_of_triple(self):
        got = intersect_level(self.fam, {1, 2, 3}, 2)
        assert got.mask == self.g.full().mask

    def test_level_one_is_union(self):
        got = intersect_level(self.fam, {1, 2, 3}, 1)
        assert got.mask == self.g.full().mask
        got = intersect_level(self.fam, {1, 2}, 1)
        assert got.mask == self.g.full().mask

    def test_level_top_is_intersection(self):
        got = intersect_level(self.fam, {1, 2, 3}, 3)
        assert got.mask == 0
        got = intersect_level(self.fam, {1, 3}, 2)
        assert got.mask == self.g.subset([0]).mask

    def test_parameter_domain(self):
        with pytest.raises(ParameterError):
            intersect_level(self.fam, set(), 1)
        with pytest.raises(ParameterError):
            intersect_level(self.fam, {1, 2}, 0)
        with pytest.raises(ParameterError):
            intersect_level(self.fam, {1, 2}, 3)
        with pytest.raises(ParameterError):
            intersect_level(self.fam, {1, 4}, 1)
        with pytest.raises(ParameterError, match=r"^level must be an integer, got 1\.5$"):
            intersect_level(self.fam, [1, 2], 1.5)
        assert intersect_level(self.fam, [1, 2], True).mask == self.g.full().mask

    def test_union_intersection_randomized(self):
        rng = random.Random(100)
        for _ in range(50):
            fam = random_family(rng, 8, 5)
            idx = sorted(rng.sample(range(1, 6), rng.randint(1, 5)))
            union = 0
            inter = fam.ground.full_mask
            for i in idx:
                union |= fam.sets[i - 1].mask
                inter &= fam.sets[i - 1].mask
            assert intersect_level(fam, idx, 1).mask == union
            assert intersect_level(fam, idx, len(idx)).mask == inter

    def test_levels_decrease_exhaustive(self):
        # every family of 3 sets over a 4-element ground
        g = GroundSet(4)
        subsets = list(range(1, 8))  # nonempty U encodings over [3]
        for m1 in range(16):
            for m2 in range(16):
                for m3 in range(16):
                    fam = SubsetFamily(
                        g, (ElementSet(g, m1), ElementSet(g, m2), ElementSet(g, m3))
                    )
                    for enc in subsets:
                        u = [k for k in (1, 2, 3) if enc >> (k - 1) & 1]
                        prev = None
                        for r in range(1, len(u) + 1):
                            cur = intersect_level(fam, u, r).mask
                            if prev is not None:
                                assert cur & ~prev == 0  # level r inside level r-1
                            prev = cur

    def test_monotone_in_index_set(self):
        rng = random.Random(101)
        for _ in range(200):
            fam = random_family(rng, 6, 4)
            big = sorted(rng.sample(range(1, 5), rng.randint(1, 4)))
            small = sorted(rng.sample(big, rng.randint(1, len(big))))
            for r in range(1, len(small) + 1):
                inner = intersect_level(fam, small, r).mask
                outer = intersect_level(fam, big, r).mask
                assert inner & ~outer == 0

    def test_level_table_matches_direct_enumeration(self):
        # the levels of every index set, against the definition
        rng = random.Random(102)
        for k in range(1, 7):
            for _ in range(20):
                fam = random_family(rng, 7, k)
                for bits in range(1, 1 << k):
                    positions = [p for p in range(k) if bits >> p & 1]
                    levels = level_masks(fam.masks, positions)
                    assert len(levels) == len(positions) + 1 and levels[0] == -1
                    for r in range(1, len(positions) + 1):
                        assert levels[r] == direct_level(fam.masks, positions, r)


@st.composite
def families_and_positions(draw):
    """A family of 1-16 members over a ground of up to 70 elements, and a
    nonempty set of its positions."""
    n = draw(st.integers(1, 70))
    members = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16))
    g = GroundSet(n)
    fam = SubsetFamily(g, tuple(ElementSet(g, m) for m in members))
    bits = draw(st.integers(1, (1 << fam.size) - 1))
    return fam, [p for p in range(fam.size) if bits >> p & 1]


def widest_family(seed: int):
    """16 random members over 70 elements, with every position chosen."""
    fam = random_family(random.Random(seed), 70, 16)
    return fam, list(range(16))


class TestLevelKernel:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(families_and_positions())
    @example(widest_family(0))
    @example(widest_family(1))
    def test_kernel_cache_and_prefixes_match_the_definition(self, drawn):
        fam, positions = drawn
        masks = fam.masks
        want = [-1] + [direct_level(masks, positions, r) for r in range(1, len(positions) + 1)]
        assert level_masks(masks, positions) == want
        assert level_masks(masks, reversed(positions)) == want
        twin = SubsetFamily(fam.ground, fam.sets)
        assert fam == twin and hash(fam) == hash(twin) and repr(fam) == repr(twin)
        # prefix levels, and the prefix-extended family built from them
        count = len(positions)
        assert level_masks(masks, range(count)) == [
            -1 if r == 0 else direct_level(masks, range(count), r) for r in range(count + 1)
        ]
        for cutoff in range(1, count):
            ext = prefix_extended_family(fam, cutoff, count)
            assert ext.masks == masks[:cutoff] + tuple(
                masks[r - 1] | direct_level(masks, range(r), cutoff + 1)
                for r in range(cutoff + 1, count + 1)
            )

    def test_prefix_levels_match_the_counter_per_prefix(self):
        # entry j of the one-pass helper against a fresh counter over the
        # first j positions, for every j and every level r up to past the end
        rng = random.Random(103)
        for _ in range(200):
            n = rng.randint(1, 40)
            masks = [rng.randrange(1 << n) for _ in range(rng.randint(1, 16))]
            positions = rng.sample(range(len(masks)), rng.randint(0, len(masks)))
            for r in range(len(positions) + 2):
                found = prefix_levels(masks, positions, r)
                assert len(found) == len(positions) + 1
                for j, level in enumerate(found):
                    levels = level_masks(masks, positions[:j])
                    assert level == (levels[r] if r <= j else 0)


class TestSubsetFamily:
    def test_masks_computed_once_outside_identity(self):
        g = GroundSet(4)
        fam = family_of(g, [0, 1], [2], [1, 3])
        twin = family_of(g, [0, 1], [2], [1, 3])
        assert fam.masks == (0b0011, 0b0100, 0b1010)
        assert fam.masks is fam.masks
        assert repr(fam) == f"SubsetFamily(ground={g!r}, sets={fam.sets!r})"
        assert hash(fam) == hash((g, fam.sets))
        assert fam == twin and hash(fam) == hash(twin)

    def test_members_over_an_equal_ground_object_are_accepted(self):
        g = GroundSet(3, labels=("a", "b", "c"))
        twin = GroundSet(3, labels=("a", "b", "c"))
        assert twin is not g
        fam = SubsetFamily(g, (g.subset([0]), twin.subset([1, 2])))
        assert fam.masks == (0b001, 0b110)
        for other in (GroundSet(3), GroundSet(4), GroundSet(3, labels=("a", "b", "d"))):
            with pytest.raises(GroundMismatchError, match="family member over a different ground"):
                SubsetFamily(g, (g.subset([0]), ElementSet(other, 1)))

    def test_level_labels_match_intersect_level(self):
        g = GroundSet(5, labels=("e", "a", "d", "b", "c"))
        fam = family_of(g, [0, 1, 2], [1, 3], [2, 3, 4])
        for size in range(1, 4):
            for ids in itertools.combinations(range(1, 4), size):
                indices = frozenset(ids)
                for r in range(1, size + 1):
                    labels = fam.level_labels(r, indices)
                    assert labels == intersect_level(fam, ids, r).member_labels()
        assert fam.level_labels(2, frozenset({1, 2, 3})) == ("a", "d", "b")

    def test_level_labels_validate_level_and_indices(self):
        g = GroundSet(3)
        fam = family_of(g, [0], [1, 2])
        for level, indices, message in [
            (0, frozenset({1}), "level must be between 1 and 1, got 0"),
            (3, frozenset({1, 2}), "level must be between 1 and 2, got 3"),
            (1, frozenset(), "index set must be nonempty"),
            (1, frozenset({0, 1}), "indices must lie in 1..2"),
            (1, frozenset({3}), "indices must lie in 1..2"),
            (1.0, frozenset({1, 2}), "level must be an integer, got 1.0"),
            (1, frozenset({1.5}), "indices must be integers, got 1.5"),
            (1, ("1",), "indices must be integers, got '1'"),
        ]:
            with pytest.raises(ParameterError, match=re.escape(message)):
                fam.level_labels(level, indices)


class TestPrefixExtendedFamily:
    def test_two_set_construction(self):
        # cutoff=1, count=2 over S1={0}, S2={1}: the appended part of the
        # second set is S1&S2 = empty, so the family is unchanged.
        g = GroundSet(2)
        fam = family_of(g, [0], [1])
        out = prefix_extended_family(fam, 1, 2)
        assert [s.mask for s in out.sets] == [0b01, 0b10]

    def test_running_example(self):
        # cutoff=1, count=3 over S1={0,1}, S2={1,2}, S3={0,2}:
        # G2 = S2 | (S1&S2) = {1,2}; G3 = S3 | level2 of all three = full.
        g = GroundSet(3)
        fam = family_of(g, [0, 1], [1, 2], [0, 2])
        out = prefix_extended_family(fam, 1, 3)
        assert [s.mask for s in out.sets] == [0b011, 0b110, 0b111]

    def test_nested_family_keeps_last_set(self):
        # with nested sets and cutoff=count-1 the appended intersection sits
        # inside the last set already
        g = GroundSet(3)
        fam = family_of(g, [0], [0, 1], [0, 1, 2])
        out = prefix_extended_family(fam, 2, 3)
        assert [s.mask for s in out.sets] == [s.mask for s in fam.sets]

    def test_parameter_domain(self):
        g = GroundSet(3)
        fam = family_of(g, [0], [1], [2])
        for cutoff, count in [(0, 2), (2, 2), (1, 4), (3, 3)]:
            with pytest.raises(ParameterError):
                prefix_extended_family(fam, cutoff, count)

    @pytest.mark.parametrize("build", [prefix_extended_family, prefix_extension_identity])
    def test_cutoff_and_count_must_be_ints(self, build):
        g = GroundSet(3)
        fam = family_of(g, [0], [1], [2])
        for cutoff, count, text in [
            (1.5, 2, "cutoff must be an integer, got 1.5"),
            (1, 2.0, "count must be an integer, got 2.0"),
            ("1", 2, "cutoff must be an integer, got '1'"),
        ]:
            with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
                build(fam, cutoff, count)
        # a bool is an int
        build(fam, True, 2)


class TestPrefixExtensionIdentity:
    def test_identical_sets(self):
        g = GroundSet(4)
        fam = family_of(g, [0, 2], [0, 2], [0, 2], [0, 2])
        for cutoff in (1, 2, 3):
            for count in range(cutoff + 1, 5):
                assert prefix_extension_identity(fam, cutoff, count)

    def test_running_example_levels(self):
        # hand enumeration for cutoff=1, count=3 on the running example:
        # G = ({0,1}, {1,2}, {0,1,2}); level 2 of G is
        # {1} | {0,1} | {1,2} = full, which equals level 2 of S over [3];
        # level 3 of G is {1}, which equals level 2 of S over [2].
        g = GroundSet(3)
        fam = family_of(g, [0, 1], [1, 2], [0, 2])
        ext = prefix_extended_family(fam, 1, 3)
        assert intersect_level(ext, {1, 2, 3}, 2).mask == 0b111
        assert intersect_level(fam, {1, 2, 3}, 2).mask == 0b111
        assert intersect_level(ext, {1, 2, 3}, 3).mask == 0b010
        assert intersect_level(fam, {1, 2}, 2).mask == 0b010
        assert prefix_extension_identity(fam, 1, 3)

    def test_randomized_families(self):
        rng = random.Random(2024)
        for _ in range(200):
            k = rng.randint(2, 5)
            fam = random_family(rng, rng.randint(2, 8), k)
            for count in range(2, k + 1):
                for cutoff in range(1, count):
                    assert prefix_extension_identity(fam, cutoff, count)

    def test_union_form_of_transformed_levels(self):
        # independent cross-check of an equivalent expression for the
        # transformed family's levels, evaluated directly from definitions:
        # level r of G over [count] (r > cutoff) equals the union over
        # m = 1..min(r, cutoff+2) of
        #   level (m-1) of S over the first (count-r+m-1) sets, intersected
        #   with T_{count-r+m},
        # where T_j is empty for j <= cutoff and level (cutoff+1) of the
        # first j sets otherwise, and "level 0" means the whole ground.
        rng = random.Random(77)

        def level(fam, idx, r):
            if r == 0:
                return fam.ground.full_mask
            out = 0
            for combo in itertools.combinations(idx, r):
                cur = fam.ground.full_mask
                for i in combo:
                    cur &= fam.sets[i - 1].mask
                out |= cur
            return out

        for _ in range(100):
            k = rng.randint(2, 5)
            fam = random_family(rng, rng.randint(2, 7), k)
            for count in range(2, k + 1):
                for cutoff in range(1, count):
                    ext = prefix_extended_family(fam, cutoff, count)

                    def t_set(j):
                        if j <= cutoff:
                            return 0
                        return level(fam, range(1, j + 1), cutoff + 1)

                    for r in range(cutoff + 1, count + 1):
                        got = level(ext, range(1, count + 1), r)
                        want = 0
                        for m in range(1, min(r, cutoff + 2) + 1):
                            head = level(
                                fam, range(1, count - r + m), m - 1
                            )
                            want |= head & t_set(count - r + m)
                        assert got == want
