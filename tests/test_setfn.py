"""Tests for set functions, entropy tables, and the exchange-gap evaluators.

Frozen expectations were computed by hand before implementation.  The main
worked instance is the parity triple: Z1, Z2 independent uniform bits and
Z3 = Z1 xor Z2, whose entropy table is 1 on singletons and 2 elsewhere.
"""

from __future__ import annotations

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutbounds.errors import (
    GroundMismatchError,
    ParameterError,
    PreconditionError,
    exact_rational,
)
from cutbounds.setcalc import ElementSet, GroundSet, SubsetFamily, intersect_level
from cutbounds.setfn import (
    MAX_VARIABLES,
    JointDistribution,
    SetFunction,
    cross_level_gap,
    entropy_function,
    is_modular,
    is_submodular,
    multiway_gap,
    prefix_multiway_gap,
    random_joint_distribution,
)

G3 = GroundSet(3)


def fam(ground, *member_lists):
    return SubsetFamily(ground, tuple(ground.subset(m) for m in member_lists))


def xor_triple() -> SetFunction:
    # outcomes (z1, z2, z1 xor z2) with z encoded as z1 + 2*z2 + 4*z3
    pmf = [0.0] * 8
    for z1 in (0, 1):
        for z2 in (0, 1):
            pmf[z1 + 2 * z2 + 4 * (z1 ^ z2)] = 0.25
    return entropy_function(JointDistribution(3, tuple(pmf)))


def random_modular(rng, ground):
    weights = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(ground.size)]
    return SetFunction.modular(ground, weights)


def random_entropy(rng, n):
    return entropy_function(random_joint_distribution(rng, n))


def random_family(rng, ground, k):
    return SubsetFamily(
        ground, tuple(ElementSet(ground, rng.randrange(1 << ground.size)) for _ in range(k))
    )


class TestSetFunction:
    def test_modular_eval(self):
        f = SetFunction.modular(G3, (1, 2, 3))
        assert f(G3.subset([0, 2])) == Fraction(4)
        assert f(G3.empty()) == 0
        assert f(G3.full()) == Fraction(6)

    def test_modular_rejects_negative_weight(self):
        with pytest.raises(ParameterError):
            SetFunction.modular(G3, (1, -1, 0))

    def test_table_eval(self):
        two = GroundSet(2)
        f = entropy_function(JointDistribution(2, (0.25, 0.25, 0.25, 0.25)))
        assert f(two.full()) == pytest.approx(2.0, abs=1e-12)
        assert f(two.subset([0])) == pytest.approx(1.0, abs=1e-12)
        assert f(two.empty()) == 0

    def test_table_invariants(self):
        two = GroundSet(2)
        with pytest.raises(ParameterError):
            SetFunction.from_table(two, (0.5, 0, 0, 0))  # empty set must map to 0
        with pytest.raises(ParameterError):
            SetFunction.from_table(two, (0, -1, 0, 0))
        with pytest.raises(ParameterError):
            SetFunction.from_table(two, (0, 0, 0))
        with pytest.raises(ParameterError):
            SetFunction.from_table(GroundSet(21), [0] * (1 << 21))

    # a Decimal NaN signals on `<` rather than comparing false
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity")]
    )
    def test_table_rejects_nan_and_inf(self, value):
        with pytest.raises(ParameterError, match="set function values must be finite"):
            SetFunction.from_table(GroundSet(1), (0, value))

    def test_modular_takes_fraction_weights_as_they_are(self):
        weights = (Fraction(1, 2), Fraction(0), Fraction(5, 3))
        assert all(exact_rational(w, "a modular weight") is w for w in weights)
        assert SetFunction.modular(G3, (2, "1/3", 0.5))(G3.full()) == Fraction(17, 6)
        f = SetFunction.modular(G3, weights)
        assert f(G3.full()) == Fraction(13, 6) and type(f(G3.full())) is Fraction
        with pytest.raises(ParameterError, match="modular weights must be nonnegative"):
            SetFunction.modular(G3, (Fraction(1, 2), Fraction(-1, 3), 0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_modular_rejects_nan_and_inf(self, value):
        with pytest.raises(ParameterError, match="^a modular weight must be a finite rational"):
            SetFunction.modular(G3, (1, value, 0))

    def test_ground_mismatch(self):
        f = SetFunction.modular(G3, (1, 1, 1))
        with pytest.raises(GroundMismatchError):
            f(GroundSet(4).empty())


class TestJointDistribution:
    def test_validation(self):
        with pytest.raises(ParameterError):
            JointDistribution(2, (0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ParameterError):
            JointDistribution(2, (1.5, -0.5, 0, 0))
        with pytest.raises(ParameterError):
            JointDistribution(7, tuple([1.0] + [0.0] * 127))
        with pytest.raises(ParameterError):
            JointDistribution(2, (1.0, 0.0))

    def test_nan_entries_rejected(self):
        # nan passes both the sign and the sum comparison, and the entropy
        # table's support filter would drop it: f would read 0 everywhere
        for pmf in ((math.nan, math.nan), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ParameterError, match="pmf entries must not be nan"):
                JointDistribution(1, pmf)
        with pytest.raises(ParameterError, match="pmf must sum to 1"):
            JointDistribution(1, (math.inf, 0.0))
        with pytest.raises(ParameterError, match="pmf entries must be nonnegative"):
            JointDistribution(2, (math.nan, -0.5, 1.0, 0.5))

    def test_random_distribution_is_valid(self):
        for seed in range(10):
            d = random_joint_distribution(random.Random(seed), 5)
            assert len(d.pmf) == 32
            assert abs(sum(d.pmf) - 1.0) <= 1e-12
            assert min(d.pmf) >= 0


class TestEntropyFunction:
    def test_deterministic_variables_have_zero_entropy(self):
        f = entropy_function(JointDistribution(2, (1.0, 0.0, 0.0, 0.0)))
        g = GroundSet(2)
        for mask in range(4):
            assert f(ElementSet(g, mask)) == pytest.approx(0.0, abs=1e-12)

    def test_independent_bits_are_modular(self):
        pmf = tuple([1.0 / 8] * 8)
        f = entropy_function(JointDistribution(3, pmf))
        for mask in range(8):
            assert f(ElementSet(G3, mask)) == pytest.approx(mask.bit_count(), abs=1e-12)
        assert is_modular(f, 1e-9)

    def test_xor_triple_table(self):
        f = xor_triple()
        values = {mask: f(ElementSet(G3, mask)) for mask in range(8)}
        assert values[0] == 0
        for single in (1, 2, 4):
            assert values[single] == pytest.approx(1.0, abs=1e-12)
        for rest in (3, 5, 6, 7):
            assert values[rest] == pytest.approx(2.0, abs=1e-12)
        assert is_submodular(f, 1e-9)
        assert not is_modular(f, 1e-9)

    def test_entropy_is_monotone_and_submodular(self):
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(2, 4)
            f = random_entropy(rng, n)
            g = GroundSet(n)
            assert is_submodular(f, 1e-9)
            for small in range(1 << n):
                for add in range(n):
                    big = small | 1 << add
                    assert f(ElementSet(g, small)) <= f(ElementSet(g, big)) + 1e-9


def eager_entropy_table(dist: JointDistribution) -> list:
    """Reference: every marginal entropy, computed up front in mask order."""
    m = dist.variable_count
    table = [0.0] * (1 << m)
    for amask in range(1, 1 << m):
        marginal: dict = {}
        for outcome, p in enumerate(dist.pmf):
            if p > 0.0:
                key = outcome & amask
                marginal[key] = marginal.get(key, 0.0) + p
        h = 0.0
        for p in marginal.values():
            h -= p * math.log2(p)
        if -1e-9 < h < 0.0:
            h = 0.0
        table[amask] = h
    return table


@st.composite
def distributions(draw):
    """Pmfs over 1..6 bits: sampled ones (with the sampler's clamped zero
    entries), sparse ones with many exact zeros, and point masses."""
    m = draw(st.integers(1, MAX_VARIABLES))
    size = 1 << m
    kind = draw(st.sampled_from(("sampled", "sparse", "point")))
    if kind == "sampled":
        return random_joint_distribution(random.Random(draw(st.integers(0, 2**32))), m)
    if kind == "point":
        pmf = [0.0] * size
        pmf[draw(st.integers(0, size - 1))] = 1.0
        return JointDistribution(m, tuple(pmf))
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-16, 1.0)), min_size=size, max_size=size
        )
    )
    weights[draw(st.integers(0, size - 1))] += 1.0
    total = sum(weights)
    return JointDistribution(m, tuple(w / total for w in weights))


class TestLazyEntropyTable:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(distributions(), st.data())
    @example(JointDistribution(1, (1.0, 0.0)), None)
    @example(JointDistribution(3, (0.1, 0.2, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0)), None)
    def test_matches_eager_table(self, dist, data):
        reference = eager_entropy_table(dist)
        size = len(reference)
        order = range(size) if data is None else data.draw(st.permutations(range(size)))
        f = entropy_function(dist)
        for mask in order:
            value = f._table[mask]
            assert value == reference[mask]
            assert repr(value) == repr(reference[mask])
        eager = SetFunction.from_table(GroundSet(dist.variable_count), reference)
        for tolerance in (0.0, 1e-9):
            lazy = entropy_function(dist)
            assert is_submodular(lazy, tolerance) == is_submodular(eager, tolerance)
            lazy = entropy_function(dist)
            assert is_modular(lazy, tolerance) == is_modular(eager, tolerance)

    def test_gap_fills_only_the_masks_it_reads(self):
        rng = random.Random(21)
        for _ in range(20):
            f = random_entropy(rng, 6)
            family = random_family(rng, f.ground, 4)
            multiway_gap(f, family, [1, 2, 3, 4])
            read = set(family.masks)
            read |= {intersect_level(family, [1, 2, 3, 4], r).mask for r in range(1, 5)}
            assert set(f._table) == read | {0}


class TestSubmodularityChecks:
    def test_modular_function_passes_both(self):
        f = SetFunction.modular(G3, (Fraction(1, 3), 2, 0))
        assert is_submodular(f, 0)
        assert is_modular(f, 0)

    def test_direct_violation(self):
        two = GroundSet(2)
        f = SetFunction.from_table(two, (0, 0, 0, 1))
        assert not is_submodular(f, 1e-9)

    def test_zero_function_is_modular(self):
        f = SetFunction.from_table(G3, [0] * 8)
        assert is_modular(f, 0)

    def test_table_backed_modular_function_is_submodular_at_tolerance_zero(self):
        # every exchange is an equality, and an equality is no violation;
        # the table backing keeps the exchange sweep from short-circuiting
        f = SetFunction.from_table(G3, [bin(mask).count("1") for mask in range(8)])
        assert not f.is_modular_backed
        assert is_submodular(f, 0) and is_modular(f, 0)

    def test_violation_over_a_nonempty_base(self):
        # |S| with f({0,1,2}) raised from 3 to 4: each violated exchange has
        # S a singleton, f(S) = 1, so the check must add f(S) to f(S+a+b)
        f = SetFunction.from_table(G3, (0, 1, 1, 2, 1, 2, 2, 4))
        assert not is_submodular(f, 0)


def exact_weights(rng, n):
    """Nonnegative weights of mixed kinds: Fractions with denominators up to
    30, ints, and binary floats (0.1 is not 1/10)."""
    kinds = (
        lambda: Fraction(rng.randint(0, 60), rng.randint(1, 30)),
        lambda: rng.randint(0, 9),
        lambda: rng.choice((0.0, 0.5, 0.1, 0.25, 2.75)),
    )
    return [rng.choice(kinds)() for _ in range(n)]


class TestModularExactness:
    """Modular functions over up to 40 elements, against plain Fraction sums."""

    def test_values_are_exact_fraction_sums(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 40)
            g = GroundSet(n)
            weights = exact_weights(rng, n)
            f = SetFunction.modular(g, weights)
            for _ in range(20):
                subset = ElementSet(g, rng.randrange(1 << n))
                value = f(subset)
                assert type(value) is Fraction
                assert value == sum((Fraction(weights[i]) for i in subset.members()), Fraction(0))

    def test_every_gap_is_exactly_zero(self):
        rng = random.Random(32)
        for _ in range(60):
            n = rng.randint(1, 40)
            g = GroundSet(n)
            f = SetFunction.modular(g, exact_weights(rng, n))
            family = random_family(rng, g, rng.randint(1, 6))
            k = family.size
            count = rng.randint(1, k)
            anchor = ElementSet(g, rng.randrange(1 << n))
            gaps = [
                multiway_gap(f, family, rng.sample(range(1, k + 1), rng.randint(1, k))),
                prefix_multiway_gap(f, family, rng.randint(0, count), count),
                prefix_multiway_gap(f, family, rng.randint(0, count), count, anchor=anchor),
                cross_level_gap(f, family, range(1, k + 1), range(1, k + 1), 1, 1),
            ]
            gaps.extend(_valid_cross_level_gaps(f, family) if k <= 3 else ())
            for gap in gaps:
                assert type(gap) is Fraction and gap == 0

    def test_checks_short_circuit_on_a_wide_ground(self):
        # a sweep over 2^40 sets would not finish; the checks read no value
        f = SetFunction.modular(GroundSet(40), exact_weights(random.Random(33), 40))
        assert is_submodular(f) and is_modular(f)
        assert set(f._table) == {0}


class TestMultiwayGap:
    def test_modular_gap_is_exactly_zero(self):
        rng = random.Random(5)
        for _ in range(30):
            g = GroundSet(rng.randint(2, 6))
            f = random_modular(rng, g)
            family = random_family(rng, g, rng.randint(1, 4))
            idx = sorted(rng.sample(range(1, family.size + 1), rng.randint(1, family.size)))
            assert multiway_gap(f, family, idx) == 0

    def test_single_index_gap_is_zero(self):
        f = xor_triple()
        family = fam(G3, [0, 1], [2], [1])
        assert multiway_gap(f, family, [2]) == 0.0

    def test_xor_frozen_value(self):
        # singleton family: lhs = 1+1+1 = 3, levels = full/empty/empty so
        # rhs = 2 + 0 + 0
        f = xor_triple()
        family = fam(G3, [0], [1], [2])
        assert multiway_gap(f, family, [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_entropy_gap_nonnegative(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(2, 5)
            f = random_entropy(rng, n)
            family = random_family(rng, GroundSet(n), rng.randint(2, 4))
            for size in range(1, family.size + 1):
                for idx in itertools.combinations(range(1, family.size + 1), size):
                    assert multiway_gap(f, family, idx) >= -1e-9

    def test_empty_index_set_rejected(self):
        f = xor_triple()
        family = fam(G3, [0], [1], [2])
        with pytest.raises(ParameterError):
            multiway_gap(f, family, [])


class TestPrefixMultiwayGap:
    def setup_method(self):
        self.f = xor_triple()
        self.family = fam(G3, [0], [1], [2])

    def test_cutoff_zero_is_exactly_zero(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 5)
            f = random_entropy(rng, n)
            family = random_family(rng, GroundSet(n), 4)
            for count in range(1, 5):
                assert prefix_multiway_gap(f, family, 0, count) == 0.0

    def test_cutoff_at_count_equals_multiway(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(2, 5)
            f = random_entropy(rng, n)
            family = random_family(rng, GroundSet(n), 4)
            for count in range(1, 5):
                assert prefix_multiway_gap(f, family, count, count) == multiway_gap(
                    f, family, range(1, count + 1)
                )

    def test_modular_gap_is_exactly_zero(self):
        rng = random.Random(9)
        for _ in range(30):
            g = GroundSet(rng.randint(2, 6))
            f = random_modular(rng, g)
            family = random_family(rng, g, 4)
            for count in range(1, 5):
                for cutoff in range(count + 1):
                    assert prefix_multiway_gap(f, family, cutoff, count) == 0

    def test_xor_frozen_value(self):
        # cutoff 1, count 3 on the singleton family:
        # lhs = f(S1) + f(S2 | empty) + f(S3 | empty) = 3
        # rhs = f(full) + f(empty) + f(empty) = 2
        assert prefix_multiway_gap(self.f, self.family, 1, 3) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_entropy_gap_nonnegative(self):
        rng = random.Random(10)
        for _ in range(30):
            n = rng.randint(2, 5)
            f = random_entropy(rng, n)
            family = random_family(rng, GroundSet(n), 4)
            for count in range(1, 5):
                for cutoff in range(count + 1):
                    assert prefix_multiway_gap(f, family, cutoff, count) >= -1e-9

    def test_parameter_domain(self):
        for cutoff, count in [(-1, 2), (3, 2), (1, 4), (0, 0)]:
            with pytest.raises(ParameterError):
                prefix_multiway_gap(self.f, self.family, cutoff, count)

    def test_anchor_empty_matches_plain(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(2, 5)
            g = GroundSet(n)
            f = random_entropy(rng, n)
            family = random_family(rng, g, 4)
            assert prefix_multiway_gap(
                f, family, 1, 3, anchor=g.empty()
            ) == prefix_multiway_gap(f, family, 1, 3)

    def test_anchor_full_gap_is_zero(self):
        g = GroundSet(3)
        assert prefix_multiway_gap(self.f, self.family, 1, 3, anchor=g.full()) == 0.0

    def test_anchor_modular_exactly_zero(self):
        rng = random.Random(12)
        for _ in range(20):
            g = GroundSet(rng.randint(2, 6))
            f = random_modular(rng, g)
            family = random_family(rng, g, 4)
            anchor = ElementSet(g, rng.randrange(1 << g.size))
            for count in range(1, 5):
                for cutoff in range(count + 1):
                    assert prefix_multiway_gap(f, family, cutoff, count, anchor) == 0

    def test_anchor_ground_mismatch(self):
        with pytest.raises(GroundMismatchError):
            prefix_multiway_gap(self.f, self.family, 1, 3, anchor=GroundSet(4).empty())


class TestCrossLevelGap:
    # worked instance from the module notes: singleton family over 3 elements,
    # upper set U={1,2} at level 1, target chain T={1,2,3} with prefix 1
    def setup_method(self):
        self.family = fam(G3, [0], [1], [2])
        self.params = dict(U=[1, 2], T=[1, 2, 3], u_level=1, t_prefix=1)

    def test_modular_exactly_zero(self):
        f = SetFunction.modular(G3, (1, 2, 3))
        # lhs = (1+2+3) + f({0,1}) = 6+3 = 9
        # rhs = f(full) + f({0}) + f({1}) + f(empty) = 6+1+2+0 = 9
        assert cross_level_gap(f, self.family, **self.params) == 0

    def test_xor_frozen_value(self):
        # lhs = 3 + 2 = 5; rhs = 2 + 1 + 1 + 0 = 4
        f = xor_triple()
        assert cross_level_gap(f, self.family, **self.params) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_modular_sweep_exactly_zero(self):
        rng = random.Random(13)
        for _ in range(15):
            g = GroundSet(rng.randint(2, 5))
            f = random_modular(rng, g)
            family = random_family(rng, g, 4)
            for gap in _valid_cross_level_gaps(f, family):
                assert gap == 0

    def test_entropy_sweep_nonnegative(self):
        rng = random.Random(14)
        for _ in range(15):
            n = rng.randint(2, 4)
            f = random_entropy(rng, n)
            family = random_family(rng, GroundSet(n), 4)
            count = 0
            for gap in _valid_cross_level_gaps(f, family):
                assert gap >= -1e-9
                count += 1
            assert count > 0

    def test_single_index_identity(self):
        f = xor_triple()
        family = fam(G3, [0, 1], [2], [1])
        assert cross_level_gap(f, family, [1], [1], 1, 1) == 0.0

    def test_precondition_error_names_sets(self):
        f = xor_triple()
        with pytest.raises(PreconditionError) as err:
            cross_level_gap(f, self.family, U=[1, 2], T=[3], u_level=1, t_prefix=1)
        assert "not contained" in str(err.value)

    def test_parameter_domain(self):
        f = xor_triple()
        with pytest.raises(ParameterError):
            cross_level_gap(f, self.family, [1, 2], [1, 2], 3, 1)
        with pytest.raises(ParameterError):
            cross_level_gap(f, self.family, [1, 2], [1, 2], 1, 0)
        with pytest.raises(ParameterError):
            cross_level_gap(f, self.family, [], [1], 1, 1)


def _valid_cross_level_gaps(f, family):
    """Yield the gap at every parameterization whose containment holds."""
    k = family.size
    index_sets = []
    for size in range(1, k + 1):
        index_sets.extend(itertools.combinations(range(1, k + 1), size))
    for u in index_sets:
        for t in index_sets:
            for u_level in range(1, len(u) + 1):
                for t_prefix in range(1, len(t) + 1):
                    try:
                        yield cross_level_gap(f, family, u, t, u_level, t_prefix)
                    except PreconditionError:
                        continue
