"""Tests for the bound builders, coefficient tables, and instantiation.

All expected numbers below were frozen by hand before the implementation:
the alpha/beta coefficient tables, the four 3-sink variants, the complete
15-row table for the 3-sink complete combination network, and the recovery
identities tying the general builder back to the named special cases.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import operator
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutbounds import bounds, cli
from cutbounds.bounds import (
    BOUND_RULES,
    MAX_BETA_SET_SIZE,
    MAX_SEARCH_SINKS,
    BoundInequality,
    BoundTerm,
    InstantiatedInequality,
    alpha,
    alpha_beta_identity,
    beta,
    beta_bound,
    bound_rows,
    cutset_bound,
    enumerate_bounds,
    gcsb3,
    gcsbK,
    instantiate,
    thm2_search,
    union_tail_bound,
    _cell_vectors,
    _row_kernel,
    _rule_table,
    _thm2_bounds,
)
from cutbounds.errors import ParameterError, PreconditionError
from cutbounds.network import (
    complete_combination_network,
    cut_and_message_families,
    make_cut,
    min_cut,
    symmetric_combination_network,
)
from cutbounds.setcalc import ElementSet, GroundSet, SubsetFamily

MESSAGES = ("W1", "W2", "W3", "W12", "W13", "W23", "W123")
ARCS = ("a1", "a2", "a3", "a12", "a13", "a23", "a123")


def cn3_families():
    """Hand-built demand and basic-cut families of the 3-sink complete
    combination network: one message and one arc per nonempty sink subset."""
    mg = GroundSet(7, labels=MESSAGES)
    ag = GroundSet(7, labels=ARCS)
    msg = SubsetFamily(
        mg, tuple(mg.subset_of_labels([m for m in MESSAGES if str(k) in m[1:]]) for k in (1, 2, 3))
    )
    cut = SubsetFamily(
        ag, tuple(ag.subset_of_labels([a for a in ARCS if str(k) in a[1:]]) for k in (1, 2, 3))
    )
    return cut, msg


def term(level, indices, weight=1):
    return BoundTerm(level, frozenset(indices), Fraction(weight))


def rate_vector(row):
    return tuple(row.rate_coeffs.get(m, 0) for m in MESSAGES)


def cap_vector(row):
    return tuple(row.capacity_coeffs.get(a, 0) for a in ARCS)


class TestAlpha:
    def test_smallest_case(self):
        assert alpha({2}, 2, 1) == 1

    def test_frozen_table(self):
        q_set = {2, 4}
        assert alpha(q_set, 4, 1) == Fraction(2, 3)
        assert alpha(q_set, 4, 2) == 0
        assert alpha(q_set, 4, 3) == Fraction(1, 3)
        assert alpha({2, 3}, 2, 1) == 1
        assert alpha({2, 3}, 3, 1) == 1
        assert alpha({2, 3}, 3, 2) == 0

    def test_rows_sum_with_defaults(self):
        # with the default split q-1 each row of the table sums to 1
        for q_set in [{2}, {2, 3}, {2, 4}, {3, 5}, {2, 3, 4}, {2, 4, 6}]:
            for q in q_set:
                if q == min(q_set) and q - 1 < 1:
                    continue
                total = sum(alpha(q_set, q, r) for r in range(1, q))
                assert total == 1, (q_set, q)

    def test_domain(self):
        with pytest.raises(ParameterError):
            alpha({2, 4}, 3, 1)  # q must belong to the set
        with pytest.raises(ParameterError):
            alpha({2, 4}, 4, 0)
        with pytest.raises(ParameterError):
            alpha({2, 4}, 4, 4)  # r beyond the split
        with pytest.raises(ParameterError):
            alpha({1, 3}, 3, 1)  # elements must be >= 2


class TestBeta:
    def test_empty_set_gives_one(self):
        for r in range(1, 6):
            assert beta(frozenset(), r) == 1

    def test_frozen_tables(self):
        assert [beta({2, 4}, r) for r in range(1, 6)] == [8, 0, 4, 0, 3]
        assert [beta({2, 3, 4}, r) for r in range(1, 7)] == [24, 0, 0, 0, 6, 6]

    def test_leading_block_is_factorial(self):
        for m in range(2, 6):
            q_set = set(range(2, m + 1))
            values = [beta(q_set, r) for r in range(1, m + 3)]
            import math

            assert values[0] == math.factorial(m)
            assert all(v == 0 for v in values[1:m])
            assert all(v == math.factorial(m - 1) for v in values[m:])

    def test_domain(self):
        with pytest.raises(ParameterError):
            beta({2}, 0)
        with pytest.raises(ParameterError):
            beta({1}, 1)


class TestAlphaBetaIdentity:
    def test_frozen_cases(self):
        # Q={2,4}: r=1 gives 1 + 2/3 = 8/3 - 1, r=3 gives 1/3 = 4/3 - 1
        assert alpha_beta_identity({2, 4}, 1)
        assert alpha_beta_identity({2, 4}, 3)

    def test_sweep(self):
        universe = range(2, 7)
        for size in range(1, 4):
            for q_set in itertools.combinations(universe, size):
                for r in range(1, max(q_set)):
                    assert alpha_beta_identity(set(q_set), r), (q_set, r)

    def test_domain(self):
        with pytest.raises(ParameterError):
            alpha_beta_identity({2, 4}, 4)  # r must sit below max(Q)


class TestBoundConstruction:
    def test_cutset_is_single_union_term(self):
        b = cutset_bound([2, 1])
        assert b.terms == (term(1, {1, 2}),)
        assert b.provenance == "csb({1,2})"

    def test_canonical_merge_and_order(self):
        b = BoundInequality.build(
            [term(2, {1, 2}, 1), term(1, {1, 2}, 2), term(2, {1, 2}, 1), term(1, {3}, 2)]
        )
        assert b.terms == (
            term(1, {3}, 1),
            term(1, {1, 2}, 1),
            term(2, {1, 2}, 1),
        )

    def test_zero_weight_terms_dropped(self):
        b = BoundInequality.build([term(1, {1}, 1), term(2, {1, 2}, 0)])
        assert b.terms == (term(1, {1}),)

    def test_scaling_invariance(self):
        a = BoundInequality.build([term(1, {1, 2, 3}, 2), term(4, {1, 2, 3, 4}, Fraction(2, 3))])
        b = BoundInequality.build([term(1, {1, 2, 3}, 3), term(4, {1, 2, 3, 4}, 1)])
        assert a.terms == b.terms
        assert a == b

    def test_invalid_terms(self):
        with pytest.raises(ParameterError):
            BoundInequality.build([term(1, {1}, -1)])
        with pytest.raises(ParameterError):
            BoundInequality.build([])
        with pytest.raises(ParameterError):
            BoundInequality.build([term(3, {1, 2}, 1)])  # level above the set size
        with pytest.raises(ParameterError):
            cutset_bound([])

    def test_gcsb3_variants_frozen(self):
        full = {1, 2, 3}
        assert gcsb3(1, 2, 3, "a").terms == (term(2, {1, 2}), term(1, full))
        assert gcsb3(1, 2, 3, "b").terms == (term(1, full), term(2, full))
        assert gcsb3(1, 2, 3, "c").terms == (
            term(1, {1, 2}),
            term(1, full),
            term(3, full),
        )
        assert gcsb3(1, 2, 3, "d").terms == (term(1, full, 2), term(3, full))

    def test_gcsb3_validation(self):
        with pytest.raises(ParameterError):
            gcsb3(1, 2, 2, "a")
        with pytest.raises(ParameterError):
            gcsb3(1, 2, 3, "e")

    def test_beta_bound_frozen(self):
        u = [1, 2, 3, 4, 5]
        b = beta_bound(u, {2, 4})
        assert b.terms == (
            term(1, u, 8),
            term(3, u, 4),
            term(5, u, 3),
        )
        assert b.provenance == "cor2({1,2,3,4,5}, Q={2,4})"

    def test_beta_bound_validation(self):
        with pytest.raises(ParameterError):
            beta_bound([1, 2], {3})  # Q outside {2..|U|}
        with pytest.raises(ParameterError):
            beta_bound([1, 2, 3, 4, 5, 6, 7], {2})  # gated family size

    def test_union_tail_frozen(self):
        u = [1, 2, 3]
        b = union_tail_bound(u, 2)
        assert b.terms == (term(1, u, 2), term(3, u, 1))
        assert b.provenance == "cor3({1,2,3}, m=2)"

    def test_union_tail_matches_beta_bound(self):
        for size in (2, 3, 4):
            u = list(range(1, size + 1))
            for m in range(1, size + 1):
                expect = beta_bound(u, set(range(2, m + 1)))
                assert union_tail_bound(u, m) == expect

    def test_union_tail_validation(self):
        with pytest.raises(ParameterError):
            union_tail_bound([1, 2], 3)
        with pytest.raises(ParameterError):
            union_tail_bound([1, 2], 0)
        for m in (1.5, "1"):
            with pytest.raises(ParameterError, match=f"^m must be an integer, got {m!r}$"):
                union_tail_bound(frozenset({1, 2}), m)
        # a bool is an int
        assert union_tail_bound([1, 2], True) == union_tail_bound([1, 2], 1)


def reference_build(terms):
    """BoundInequality.build as first written, every weight a Fraction; the
    canonical (level, indices, weight) triples it produced."""
    merged = {}
    for t in terms:
        indices = frozenset(t.indices)
        if not indices or any(not isinstance(i, int) or i < 1 for i in indices):
            raise ParameterError("term indices must be positive integers")
        if not 1 <= t.level <= len(indices):
            raise ParameterError("level out of range")
        weight = Fraction(t.weight)
        if weight < 0:
            raise ParameterError("term weights must be nonnegative")
        key = (t.level, indices)
        merged[key] = merged.get(key, Fraction(0)) + weight
    alive = {k: w for k, w in merged.items() if w != 0}
    if not alive:
        raise ParameterError("a bound needs at least one term with positive weight")
    scale_up = math.lcm(*(w.denominator for w in alive.values()))
    scale_down = math.gcd(*(int(w * scale_up) for w in alive.values()))
    ordered = sorted(
        alive.items(), key=lambda kv: (len(kv[0][1]), tuple(sorted(kv[0][1])), kv[0][0])
    )
    return tuple(
        (level, indices, int(w * scale_up) // scale_down) for (level, indices), w in ordered
    )


@st.composite
def weighted_terms(draw):
    """Term lists over sinks 1..4 whose weights are ints, Fractions, or a mix;
    repeated (level, indices) keys and zero weights are likely."""
    weight = draw(
        st.sampled_from(
            (
                st.integers(0, 6),
                st.fractions(0, 6, max_denominator=6),
                st.one_of(st.integers(0, 6), st.fractions(0, 6, max_denominator=6)),
            )
        )
    )
    terms = []
    for _ in range(draw(st.integers(0, 7))):
        indices = draw(st.frozensets(st.integers(1, 4), min_size=1, max_size=3))
        level = draw(st.integers(1, len(indices)))
        terms.append(BoundTerm(level, indices, draw(weight)))
    return terms


class TestBuildReference:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(weighted_terms())
    def test_build_matches_fraction_reference(self, terms):
        try:
            expect = reference_build(terms)
        except ParameterError:
            with pytest.raises(ParameterError):
                BoundInequality.build(terms)
            return
        got = BoundInequality.build(terms).terms
        assert [(t.level, t.indices, t.weight) for t in got] == list(expect)
        assert all(type(t.weight) is int for t in got)


class TestRecoveries:
    """The general builder reproduces all four 3-sink variants."""

    def setup_method(self):
        self.cut, self.msg = cn3_families()

    def build(self, **kwargs):
        return gcsbK(cut_family=self.cut, msg_family=self.msg, **kwargs)

    def test_variant_a(self):
        b = self.build(G=[1, 2, 3], U=[1, 2])
        assert b.terms == gcsb3(1, 2, 3, "a").terms

    def test_variant_b(self):
        b = self.build(G=[1, 2, 3], Q={3})
        assert b.terms == gcsb3(1, 2, 3, "b").terms
        assert beta_bound([1, 2, 3], {3}).terms == b.terms

    def test_variant_c_needs_shorter_chain(self):
        b = self.build(G=[1, 2, 3], T=[1, 2], Q={2})
        assert b.terms == gcsb3(1, 2, 3, "c").terms

    def test_variant_d(self):
        assert union_tail_bound([1, 2, 3], 2).terms == gcsb3(1, 2, 3, "d").terms

    def test_matches_beta_bound_on_nested_splits(self):
        u = [1, 2, 3, 4]
        # four sinks are not available here, so check the pure term algebra
        # against a 4-sink complete network built the same way
        cut, msg = cn4_families()
        b = gcsbK(G=u, Q={2, 3}, cut_family=cut, msg_family=msg)
        assert b.terms == (term(1, u, 3), term(4, u, 1))
        assert beta_bound(u, {2, 3}).terms == b.terms


def cn4_families():
    names = [
        "".join(str(i) for i in combo)
        for size in range(1, 5)
        for combo in itertools.combinations(range(1, 5), size)
    ]
    mg = GroundSet(15, labels=tuple("W" + n for n in names))
    ag = GroundSet(15, labels=tuple("a" + n for n in names))
    msg = SubsetFamily(
        mg, tuple(mg.subset([i for i, n in enumerate(names) if str(k) in n]) for k in range(1, 5))
    )
    cut = SubsetFamily(
        ag, tuple(ag.subset([i for i, n in enumerate(names) if str(k) in n]) for k in range(1, 5))
    )
    return cut, msg


class TestGcsbKValidation:
    def setup_method(self):
        self.cut, self.msg = cn3_families()

    def test_union_cover_failure(self):
        with pytest.raises(PreconditionError):
            gcsbK(G=[1, 2], U=[1, 2, 3], cut_family=self.cut, msg_family=self.msg)

    def test_chain_cover_failure_mentions_self_chain(self):
        with pytest.raises(PreconditionError) as err:
            gcsbK(
                G=[1, 2, 3],
                U=[1, 2, 3],
                T=[3],
                Q={2},
                cut_family=self.cut,
                msg_family=self.msg,
            )
        message = str(err.value)
        assert "not contained" in message
        assert "T = U" in message  # the containment does hold against U itself

    @pytest.mark.parametrize(
        "flat, params, text",
        [
            (
                None,
                dict(G=[1, 2], U=[1, 2, 3]),
                "the basic-cut union over G does not cover the one over U (missing: a3)",
            ),
            (
                "message",
                dict(G=[1, 2], U=[1, 2, 3]),
                "the basic-cut union over G does not cover the one over U (missing: a3)",
            ),
            (
                None,
                dict(G=[1], U=[1, 2, 3]),
                "the basic-cut union over G does not cover the one over U "
                "(missing: a2, a3, a23)",
            ),
            (
                None,
                dict(G=[1, 2, 3], U=[1, 2, 3], T=[3], Q={2}),
                "cut-side level 2 of U is not contained in level 1 of T (extra: a12); "
                "the containment does hold with T = U",
            ),
            (
                None,
                dict(G=[1, 2, 3], U=[1, 2, 3], T=[1, 2, 3], Q={2}, r_q_map={2: 3}),
                "cut-side level 2 of U is not contained in level 3 of T "
                "(extra: a12, a13, a23)",
            ),
            (
                None,
                dict(G=[1, 2, 3], U=[1, 2], T=[1, 2, 3], Q={2}, r_q_map={2: 3}),
                "cut-side level 2 of U is not contained in level 3 of T (extra: a12)",
            ),
            (
                "cut",
                dict(G=[1, 2, 3], U=[1, 2, 3], T=[3], Q={2}),
                "message-side level 2 of U is not contained in level 1 of T (extra: W12); "
                "the containment does hold with T = U",
            ),
            (
                "cut",
                dict(G=[1, 2, 3], U=[1, 2, 3], T=[1, 2, 3], Q={2}, r_q_map={2: 3}),
                "message-side level 2 of U is not contained in level 3 of T "
                "(extra: W12, W13, W23)",
            ),
        ],
    )
    def test_precondition_texts(self, flat, params, text):
        """The full text of each failed side condition: the cover's missing
        arcs, read on the cut side alone, a containment's extra arcs or
        messages in position order, and the T = U hint only where U's own
        levels hold on both sides (a split position past |U|, or above q,
        rules it out).  A flat family, every member the one element, holds
        every condition on its side, so the other side is the one to fail."""
        families = {"cut": self.cut, "message": self.msg}
        if flat:
            ground = GroundSet(1, labels=("x0",))
            families[flat] = SubsetFamily(ground, (ground.full(),) * 3)
        with pytest.raises(PreconditionError) as err:
            gcsbK(**params, cut_family=families["cut"], msg_family=families["message"])
        assert str(err.value) == text

    def test_defaults_collapse_to_union_only(self):
        b = gcsbK(G=[1, 2], cut_family=self.cut, msg_family=self.msg)
        assert b.terms == (term(1, {1, 2}), term(2, {1, 2}))

    def test_split_domain(self):
        with pytest.raises(ParameterError):
            gcsbK(
                G=[1, 2, 3],
                Q={3},
                r_q_map={3: 4},
                cut_family=self.cut,
                msg_family=self.msg,
            )
        with pytest.raises(ParameterError):
            gcsbK(G=[1, 2, 3], Q={4}, cut_family=self.cut, msg_family=self.msg)


# provenance -> coefficient pattern over subset order (1, 2, 3, 12, 13, 23, 123);
# the same pattern applies to messages on the left and arcs on the right
CN3_TABLE = {
    "csb({1})": (1, 0, 0, 1, 1, 0, 1),
    "csb({2})": (0, 1, 0, 1, 0, 1, 1),
    "csb({3})": (0, 0, 1, 0, 1, 1, 1),
    "csb({1,2})": (1, 1, 0, 1, 1, 1, 1),
    "csb({1,3})": (1, 0, 1, 1, 1, 1, 1),
    "csb({2,3})": (0, 1, 1, 1, 1, 1, 1),
    "csb({1,2,3})": (1, 1, 1, 1, 1, 1, 1),
    "gcsb3a(1,2,3)": (1, 1, 1, 2, 1, 1, 2),
    "gcsb3a(1,3,2)": (1, 1, 1, 1, 2, 1, 2),
    "gcsb3a(2,3,1)": (1, 1, 1, 1, 1, 2, 2),
    "gcsb3b(1,2,3)": (1, 1, 1, 2, 2, 2, 2),
    "gcsb3c(1,2,3)": (2, 2, 1, 2, 2, 2, 3),
    "gcsb3c(1,3,2)": (2, 1, 2, 2, 2, 2, 3),
    "gcsb3c(2,3,1)": (1, 2, 2, 2, 2, 2, 3),
    "gcsb3d(1,2,3)": (2, 2, 2, 2, 2, 2, 3),
}


class TestInstantiateComplete3:
    def setup_method(self):
        self.cut, self.msg = cn3_families()

    def test_full_fifteen_row_table(self):
        bounds = enumerate_bounds(3, ("csb", "gcsb3"))
        assert len(bounds) == 15
        for b in bounds:
            row = instantiate(b, self.cut, self.msg)
            expect = CN3_TABLE[b.provenance]
            assert rate_vector(row) == expect, b.provenance
            assert cap_vector(row) == expect, b.provenance

    def test_unit_capacity_right_sides(self):
        caps = {a: 1 for a in ARCS}
        by_prov = {
            b.provenance: instantiate(b, self.cut, self.msg, capacities=caps)
            for b in enumerate_bounds(3, ("csb", "gcsb3"))
        }
        assert by_prov["csb({1})"].rhs_value == 4
        assert by_prov["gcsb3b(1,2,3)"].rhs_value == 11
        assert by_prov["gcsb3d(1,2,3)"].rhs_value == 15

    def test_unbounded_arc_voids_right_side(self):
        caps = {a: 1 for a in ARCS}
        caps["a123"] = None
        row = instantiate(cutset_bound([1]), self.cut, self.msg, capacities=caps)
        assert row.rhs_value is None

    def test_missing_capacity_rejected(self):
        caps = {a: 1 for a in ARCS if a != "a1"}
        with pytest.raises(ParameterError):
            instantiate(cutset_bound([1]), self.cut, self.msg, capacities=caps)

    def test_reads_only_the_capacities_on_the_right(self):
        bound = cutset_bound([1])
        on_right = instantiate(bound, self.cut, self.msg).capacity_coeffs
        caps = {a: 1 for a in on_right}
        off_right = [a for a in ARCS if a not in on_right]
        assert off_right
        caps.update(dict.fromkeys(off_right, "not a capacity"))
        assert instantiate(bound, self.cut, self.msg, capacities=caps).rhs_value == 4

    def test_degenerate_empty_rate_side(self):
        # a sink with no demanded messages produces an all-capacity row
        mg = GroundSet(2, labels=("WA", "WB"))
        ag = GroundSet(2, labels=("x", "y"))
        msg = SubsetFamily(mg, (mg.empty(), mg.subset([0, 1])))
        cut = SubsetFamily(ag, (ag.subset([0]), ag.subset([1])))
        row = instantiate(cutset_bound([1]), cut, msg, capacities={"x": 2, "y": 3})
        assert row.rate_coeffs == {}
        assert row.capacity_coeffs == {"x": Fraction(1)}
        assert row.rhs_value == 2

    def test_fraction_weights_of_a_hand_built_bound(self):
        caps = {a: 1 for a in ARCS}
        half = BoundInequality((term(1, [1, 2], Fraction(1, 2)),), "half")
        row = instantiate(half, self.cut, self.msg, caps)
        whole = instantiate(cutset_bound([1, 2]), self.cut, self.msg, caps)
        assert row.rate_coeffs == {m: v / 2 for m, v in whole.rate_coeffs.items()}
        assert row.capacity_coeffs == {a: v / 2 for a, v in whole.capacity_coeffs.items()}
        assert row.rhs_value == Fraction(whole.rhs_value, 2)
        assert row.signature() == whole.signature()

    def test_family_size_mismatch(self):
        mg = GroundSet(2)
        msg = SubsetFamily(mg, (mg.subset([0]),))
        with pytest.raises(ParameterError):
            instantiate(cutset_bound([1]), self.cut, msg)


class TestCapacityTypes:
    """A capacity must be an int, a Fraction or None; anything else is a
    ParameterError naming the arc, on every path that reads capacities."""

    def one_sink_free_arc(self):
        # the cut holds a0; a1 is in no member, so no row's right side reads it
        mg = GroundSet(1, labels=("W",))
        ag = GroundSet(2, labels=("a0", "a1"))
        return SubsetFamily(ag, (ag.subset([0]),)), SubsetFamily(mg, (mg.subset([0]),))

    @pytest.mark.parametrize("value", [0.5, 1.0, "1", Decimal(1)])
    def test_bound_rows_on_an_arc_in_no_cut(self, value):
        cut, msg = self.one_sink_free_arc()
        with pytest.raises(ParameterError, match="^the capacity of arc 'a1' must be"):
            bound_rows(("csb",), cut, msg, {"a0": 1, "a1": value})

    @pytest.mark.parametrize("value", [0.5, 1.0, "1"])
    def test_thm2_search(self, value):
        cut, msg = cn3_families()
        caps = {a: 1 for a in ARCS}
        caps["a13"] = value
        with pytest.raises(ParameterError, match="^the capacity of arc 'a13' must be"):
            thm2_search(cut, msg, caps)

    @pytest.mark.parametrize("value", [0.5, 1.0, "1"])
    def test_instantiate_on_a_cut_arc(self, value):
        cut, msg = cn3_families()
        caps = {a: 1 for a in ARCS}
        caps["a1"] = value
        with pytest.raises(ParameterError, match="^the capacity of arc 'a1' must be"):
            instantiate(cutset_bound([1]), cut, msg, caps)


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_bounds(3, ("csb",))) == 7
        assert len(enumerate_bounds(3, ("csb", "gcsb3"))) == 15
        assert len(enumerate_bounds(3, ("csb", "gcsb3", "cor3"))) == 19

    def test_sink_count_must_be_an_int(self):
        for K in (2.0, "2"):
            with pytest.raises(
                ParameterError, match=f"^the sink count must be an integer, got {K!r}$"
            ):
                enumerate_bounds(K, ["csb"])

    def test_deterministic_order(self):
        first = [b.provenance for b in enumerate_bounds(3, ("csb", "gcsb3", "cor3"))]
        second = [b.provenance for b in enumerate_bounds(3, ("csb", "gcsb3", "cor3"))]
        assert first == second
        assert first[:7] == [
            "csb({1})",
            "csb({2})",
            "csb({3})",
            "csb({1,2})",
            "csb({1,3})",
            "csb({2,3})",
            "csb({1,2,3})",
        ]
        assert first[7:15] == [
            "gcsb3a(1,2,3)",
            "gcsb3a(1,3,2)",
            "gcsb3a(2,3,1)",
            "gcsb3b(1,2,3)",
            "gcsb3c(1,2,3)",
            "gcsb3c(1,3,2)",
            "gcsb3c(2,3,1)",
            "gcsb3d(1,2,3)",
        ]

    def test_duplicates_keep_first_provenance(self):
        provs = [b.provenance for b in enumerate_bounds(3, ("csb", "gcsb3", "cor3"))]
        added = [p for p in provs if p.startswith("cor3")]
        # pairs at m=1 and the triple at m=1 are new; every other cor3
        # parameterization collapses into an earlier row
        assert added == [
            "cor3({1,2}, m=1)",
            "cor3({1,3}, m=1)",
            "cor3({2,3}, m=1)",
            "cor3({1,2,3}, m=1)",
        ]

    def test_small_sink_counts(self):
        assert len(enumerate_bounds(1, ("csb", "gcsb3"))) == 1
        assert len(enumerate_bounds(2, ("csb", "gcsb3"))) == 3

    def test_unknown_rule(self):
        with pytest.raises(ParameterError):
            enumerate_bounds(3, ("csb", "nope"))


def fresh_rule_table(K, rule):
    """(terms, provenance) of one rule's bounds for K sinks, built afresh
    from the public builders in enumeration order."""
    sinks = range(1, K + 1)
    subsets = [s for size in sinks for s in itertools.combinations(sinks, size)]
    if rule == "csb":
        bounds = [cutset_bound(s) for s in subsets]
    elif rule == "gcsb3":
        bounds = []
        for i, j, k in itertools.combinations(sinks, 3):
            bounds += [gcsb3(i, j, k, "a"), gcsb3(i, k, j, "a"), gcsb3(j, k, i, "a")]
            bounds += [gcsb3(i, j, k, "b")]
            bounds += [gcsb3(i, j, k, "c"), gcsb3(i, k, j, "c"), gcsb3(j, k, i, "c")]
            bounds += [gcsb3(i, j, k, "d")]
    elif rule == "cor3":
        bounds = [union_tail_bound(s, m) for s in subsets for m in range(1, len(s) + 1)]
    else:
        bounds = [
            beta_bound(s, qs)
            for s in subsets
            if len(s) <= MAX_BETA_SET_SIZE
            for n in range(len(s))
            for qs in itertools.combinations(range(2, len(s) + 1), n)
        ]
    return [(b.terms, b.provenance) for b in bounds]


class TestRuleTables:
    @pytest.mark.parametrize("rule", ["csb", "gcsb3", "cor3", "cor2"])
    @pytest.mark.parametrize("K", range(1, 7))
    def test_table_matches_a_fresh_build(self, K, rule):
        table = _rule_table(K, rule)
        assert [(b.terms, b.provenance) for b in table] == fresh_rule_table(K, rule)
        assert _rule_table(K, rule) is table

    @pytest.mark.parametrize("rule", ["csb", "gcsb3", "cor3", "cor2"])
    @pytest.mark.parametrize("K", range(2, 8))
    def test_no_builder_repeats_a_term_list(self, K, rule):
        # K >= 6 reaches every cor2 sink-set size, so K = 2..7 covers
        # every case; the tables keep their builders' bounds undeduplicated
        terms = [terms for terms, _ in fresh_rule_table(K, rule)]
        assert len(set(terms)) == len(terms)

    @pytest.mark.parametrize("rules", [("cor3",), ("csb", "gcsb3", "cor3")])
    def test_enumeration_returns_a_new_list(self, rules):
        first = enumerate_bounds(4, rules)
        expected = [(b.terms, b.provenance) for b in first]
        first.reverse()
        del first[5:]
        first.append(cutset_bound([1]))
        assert [(b.terms, b.provenance) for b in enumerate_bounds(4, rules)] == expected


class TestThm2Search:
    def test_covers_complete3_table(self):
        cut, msg = cn3_families()
        found = {row.signature() for row in thm2_search(cut, msg)}
        for b in enumerate_bounds(3, ("csb", "gcsb3")):
            row = instantiate(b, cut, msg)
            assert row.signature() in found, b.provenance

    def test_no_duplicate_signatures(self):
        cut, msg = cn3_families()
        rows = thm2_search(cut, msg)
        sigs = [row.signature() for row in rows]
        assert len(sigs) == len(set(sigs))

    def test_sink_count_gate(self):
        g = GroundSet(6)
        fam = SubsetFamily(g, tuple(g.subset([i]) for i in range(6)))
        with pytest.raises(ParameterError, match="limited to 5 sinks"):
            thm2_search(fam, fam)

    def test_capacities_give_right_sides(self):
        cut, msg = cn3_families()
        caps = {a: Fraction(i + 1, 2) for i, a in enumerate(ARCS)}
        caps["a1"] = None
        rows = thm2_search(cut, msg, caps)
        assert [r.signature() for r in rows] == [r.signature() for r in thm2_search(cut, msg)]
        assert {r.rhs_value is None for r in rows} == {True, False}
        for row in rows:
            if "a1" in row.capacity_coeffs:
                assert row.rhs_value is None
            else:
                expect = sum(c * caps[a] for a, c in row.capacity_coeffs.items())
                assert row.rhs_value == expect


def reference_thm2_search(cut_family, msg_family, capacities=None):
    """The search as first written: the public, validating gcsbK on every
    candidate (G, U, T, |Q|, Q), a failed side condition caught as a
    PreconditionError."""
    K = cut_family.size
    subsets = [
        combo
        for size in range(1, K + 1)
        for combo in itertools.combinations(range(1, K + 1), size)
    ]
    rows, seen, seen_terms = [], set(), set()
    for set_g in subsets:
        for set_u in subsets:
            for set_t in subsets:
                for q_size in range(len(set_u)):
                    for qs in itertools.combinations(range(2, len(set_u) + 1), q_size):
                        if qs and max(qs) - 1 > len(set_t):
                            continue
                        try:
                            bound = gcsbK(
                                set_g, set_u, set_t, qs,
                                cut_family=cut_family, msg_family=msg_family,
                            )
                        except PreconditionError:
                            continue
                        if bound.terms in seen_terms:
                            continue
                        seen_terms.add(bound.terms)
                        row = instantiate(bound, cut_family, msg_family, capacities)
                        if row.signature() not in seen:
                            seen.add(row.signature())
                            rows.append(row)
    return rows


def row_record(row):
    return (
        row.provenance,
        list(row.rate_coeffs.items()),
        list(row.capacity_coeffs.items()),
        row.rhs_value,
        type(row.rhs_value),
    )


def in_label_order(rows):
    """Reference rows with their coefficients in label order, the order in
    which the row kernel lists them."""
    for row in rows:
        row.rate_coeffs = dict(sorted(row.rate_coeffs.items()))
        row.capacity_coeffs = dict(sorted(row.capacity_coeffs.items()))
    return rows


def assert_search_matches_reference(cut, msg, capacities=None):
    got = [row_record(r) for r in thm2_search(cut, msg, capacities)]
    reference = in_label_order(reference_thm2_search(cut, msg, capacities))
    assert got == [row_record(r) for r in reference]
    return got


@st.composite
def search_families(draw):
    """Cut and demand families of K = 1..4 sinks over small grounds, with
    capacities that are absent, rational, or partly unbounded."""
    K = draw(st.integers(1, 4))
    families = []
    for prefix in ("a", "W"):
        n = draw(st.integers(1, 6))
        ground = GroundSet(n, labels=tuple(f"{prefix}{i}" for i in range(n)))
        masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=K, max_size=K))
        families.append(SubsetFamily(ground, tuple(ElementSet(ground, m) for m in masks)))
    cut, msg = families
    capacity = st.one_of(st.none(), st.integers(0, 3), st.fractions(0, 3, max_denominator=4))
    caps = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries({label: capacity for label in cut.ground.labels}),
        )
    )
    return cut, msg, caps


def network_families(net, cuts):
    if cuts == "min":
        chosen = [min_cut(net, k) for k in range(1, net.K + 1)]
    else:
        source_arcs = [a.label for a in net.arcs if a.tail == net.source]
        chosen = [make_cut(net, source_arcs, k) for k in range(1, net.K + 1)]
    cut, msg = cut_and_message_families(net, chosen)
    return cut, msg, {a.label: a.capacity for a in net.arcs}


class TestThm2Oracle:
    """thm2_search against the per-candidate gcsbK loop it replaced: the
    same rows, coefficients, right sides and provenance, in the same order,
    each row's coefficients in label order."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(search_families())
    def test_random_families(self, drawn):
        assert_search_matches_reference(*drawn)

    @pytest.mark.parametrize("cuts", ["min", "source"])
    @pytest.mark.parametrize(
        "net",
        [
            complete_combination_network(4),
            symmetric_combination_network(4, (1, 2, Fraction(3, 2), 1)),
        ],
        ids=["complete4", "symmetric4"],
    )
    def test_four_sink_networks(self, net, cuts):
        assert assert_search_matches_reference(*network_families(net, cuts))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_five_sink_families(self, seed):
        """Seeded five-sink family pairs over 5-6 elements, with rational
        capacities: cell patterns the complete K=5 network does not have."""
        rows = assert_search_matches_reference(*five_sink_families(seed))
        assert len(rows) > 1000


def five_sink_families(seed):
    """A cut and a demand family of five nonempty members over 5-6
    labelled elements each, drawn from `seed`, and rational capacities."""
    rng = random.Random(seed)
    families = []
    for prefix in ("a", "W"):
        n = rng.randint(5, 6)
        ground = GroundSet(n, labels=tuple(f"{prefix}{i}" for i in range(n)))
        masks = [rng.randrange(1, 1 << n) for _ in range(5)]
        families.append(SubsetFamily(ground, tuple(ElementSet(ground, m) for m in masks)))
    cut, msg = families
    caps = {label: Fraction(rng.randint(1, 6), rng.randint(1, 3)) for label in cut.ground.labels}
    return cut, msg, caps


class TestBoundRows:
    def test_matches_instantiating_every_bound(self):
        cut, msg = cn3_families()
        caps = {a: 1 for a in ARCS}
        rows = bound_rows(("csb", "gcsb3", "cor3"), cut, msg, caps)
        by_sig = {}
        for b in enumerate_bounds(3, ("csb", "gcsb3", "cor3")):
            row = instantiate(b, cut, msg, caps)
            by_sig.setdefault(row.signature(), row)
        assert [r.signature() for r in rows] == sorted(by_sig)
        for row in rows:
            first = by_sig[row.signature()]
            assert row.provenance == first.provenance
            assert row.rhs_value == first.rhs_value

    def test_rule_order_picks_provenance(self):
        cut, msg = cn3_families()
        thm2_first = bound_rows(("thm2", "csb"), cut, msg)
        csb_first = bound_rows(("csb", "thm2"), cut, msg)
        assert [r.signature() for r in thm2_first] == [r.signature() for r in csb_first]
        csb_sigs = {r.signature() for r in bound_rows(("csb",), cut, msg)}
        for a, b in zip(thm2_first, csb_first):
            if a.signature() in csb_sigs:
                assert a.provenance.startswith("thm2(")
                assert b.provenance.startswith("csb(")

    def test_repeated_calls_give_identical_rows(self):
        rules = ("csb", "gcsb3", "cor3", "cor2", "thm2")
        cut, msg = cn3_families()
        caps = {a: 1 for a in ARCS}
        first = [row_record(r) for r in bound_rows(rules, cut, msg, caps)]
        assert [row_record(r) for r in bound_rows(rules, cut, msg, caps)] == first
        assert bound_rows(rules, *cn4_families())
        assert [row_record(r) for r in bound_rows(rules, cut, msg, caps)] == first

    def test_cor2_rows_without_capacities(self):
        cut, msg = cn3_families()
        rows = bound_rows(("cor2",), cut, msg)
        assert rows and all(r.rhs_value is None for r in rows)
        assert all(r.provenance.startswith("cor2(") for r in rows)
        sigs = [r.signature() for r in rows]
        assert sigs == sorted(set(sigs))

    def test_unknown_rule(self):
        cut, msg = cn3_families()
        with pytest.raises(ParameterError, match="banana"):
            bound_rows(("csb", "banana"), cut, msg)


def reference_bound_rows(rules, cut, msg, capacities=None):
    """bound_rows on the instantiate + signature path: every bound of every
    rule instantiated, the first row per signature kept, then sorted by
    signature; a kept row's right side summed over its arcs, the first arc
    `instantiate` lists without a capacity named."""
    kept = {}
    for rule in rules:
        if rule == "thm2":
            rows = reference_thm2_search(cut, msg)
        else:
            rows = (
                instantiate(BoundInequality(terms, provenance), cut, msg)
                for terms, provenance in fresh_rule_table(cut.size, rule)
            )
        for row in rows:
            if row.signature() in kept:
                continue
            if capacities is not None:
                missing = [a for a in row.capacity_coeffs if a not in capacities]
                if missing:
                    raise ParameterError(f"no capacity given for arc {missing[0]!r}")
                values = [capacities[a] for a in row.capacity_coeffs]
                row.rhs_value = None if None in values else sum(
                    map(operator.mul, row.capacity_coeffs.values(), values), Fraction(0)
                )
            kept[row.signature()] = row
    return [kept[sig] for sig in sorted(kept)]


def row_fields(row):
    return row.provenance, row.rate_coeffs, row.capacity_coeffs, row.rhs_value, type(row.rhs_value)


@st.composite
def row_cases(draw):
    """Rules in any order (thm2 up to K = 3), and cut and demand families
    of K = 1..7 members over small grounds, with elements in no member and
    capacities absent, rational, unbounded (None) or missing."""
    K = draw(st.integers(1, 7))
    pool = BOUND_RULES if K <= 3 else ("csb", "gcsb3", "cor3", "cor2")
    rules = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)))
    families = []
    for prefix in ("a", "W"):
        n = draw(st.integers(1, 6))
        ground = GroundSet(n, labels=tuple(f"{prefix}{i}" for i in range(n)))
        masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=K, max_size=K))
        families.append(SubsetFamily(ground, tuple(ElementSet(ground, m) for m in masks)))
    cut, msg = families
    capacity = st.one_of(st.none(), st.integers(0, 3), st.fractions(0, 3, max_denominator=4))
    caps = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries({label: capacity for label in cut.ground.labels}),
            st.dictionaries(st.sampled_from(cut.ground.labels), capacity),
        )
    )
    return rules, cut, msg, caps


def assert_same_outcome(build, reference, record):
    """`build()` gives the rows of `reference()`, compared by `record`, or
    raises the same ParameterError."""
    try:
        expected = [record(r) for r in reference()]
    except ParameterError as exc:
        with pytest.raises(ParameterError) as raised:
            build()
        assert str(raised.value) == str(exc)
        return
    assert [record(r) for r in build()] == expected


def assert_rows_match_reference(rules, cut, msg, caps):
    assert_same_outcome(
        lambda: bound_rows(rules, cut, msg, caps),
        lambda: reference_bound_rows(rules, cut, msg, caps),
        row_fields,
    )


class TestCellKernelOracle:
    """bound_rows on membership cells against the label path it replaced."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(row_cases())
    def test_matches_the_label_path(self, case):
        assert_rows_match_reference(*case)

    @pytest.mark.parametrize("K", range(1, 8))
    def test_cell_vectors_match_the_cell_formula(self, K):
        """Each rule's vectors over all 2^K cells, and for K <= 5 the thm2
        search's vectors over the 2^K - 1 nonzero cells, every one
        occupied on both sides as on the complete network, cell by cell,
        against the sum of the weights of the terms whose level the cell
        reaches: a coefficient that overflowed its byte would show here."""
        cells = range(1 << K)
        tables = [
            (cells, table, _cell_vectors(table, cells, K))
            for table in (_rule_table(K, rule) for rule in ("csb", "gcsb3", "cor3", "cor2"))
        ]
        if K <= MAX_SEARCH_SINKS:
            nonzero = range(1, 1 << K)
            table = _thm2_bounds(K, nonzero, nonzero)
            tables.append((nonzero, table, _cell_vectors(table, nonzero, K)))
        for cells, table, vectors in tables:
            expected = [
                tuple(
                    sum(
                        t.weight
                        for t in bound.terms
                        if sum(c >> (i - 1) & 1 for i in t.indices) >= t.level
                    )
                    for c in cells
                )
                for bound in table
            ]
            assert [tuple(v) for v in vectors] == expected

    def test_a_weight_sum_past_a_byte_is_refused(self):
        bound = BoundInequality.build([term(1, {1}, 255), term(1, {1, 2}, 1)], "wide")
        with pytest.raises(AssertionError, match="wide"):
            _cell_vectors([bound], range(4), 2)

    def test_symmetric_network_at_seven_sinks(self):
        net = symmetric_combination_network(7, tuple(range(1, 8)))
        cut, msg, caps = network_families(net, "min")
        rules = ("cor3", "csb", "gcsb3")
        expected = [row_fields(r) for r in reference_bound_rows(rules, cut, msg, caps)]
        assert [row_fields(r) for r in bound_rows(rules, cut, msg, caps)] == expected


def cell_family(prefix, K, cells):
    """K members over one element per entry of `cells`, labelled `prefix`
    and its position; member k holds the elements whose cell has bit k - 1."""
    ground = GroundSet(len(cells), labels=tuple(f"{prefix}{p}" for p in range(len(cells))))
    return SubsetFamily(
        ground,
        tuple(
            ElementSet(ground, sum(1 << p for p, c in enumerate(cells) if c >> k & 1))
            for k in range(K)
        ),
    )


def pattern_sharing_cases():
    """Families with the cut cells {1, 3, 5, 6} and the message cells
    {1, 2, 3, 4, 7} (cell 0: an element in no member), under other labels,
    element orders and cell multiplicities, and capacities that are
    rational, absent, unbounded on cell 5, or missing on cell 5."""
    first = cell_family("a", 3, [3, 5, 1, 3, 0, 6]), cell_family("W", 3, [1, 2, 4, 7, 3])
    second = cell_family("z", 3, [6, 1, 5, 0, 3, 5, 6]), cell_family("M", 3, [7, 0, 4, 2, 1, 3, 3, 2])
    rational = {label: Fraction(p + 1, 2) for p, label in enumerate(first[0].ground.labels)}
    unbounded = {label: p for p, label in enumerate(second[0].ground.labels)}
    unbounded["z5"] = None
    missing = {label: c for label, c in unbounded.items() if label != "z2"}
    return [(*first, rational), (*second, unbounded), (*second, missing), (*first, None)]


class TestThm2Table:
    """thm2 rows come from a search on the pattern of occupied membership
    cells: every family pair of one pattern gets the rows of the
    per-candidate search, whether its row table is built or found."""

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
    def test_families_sharing_a_pattern(self, order):
        # the row tables are emptied, or they answer before the search
        bounds._row_tables.clear()
        for cut, msg, caps in pattern_sharing_cases()[::order]:
            assert_same_outcome(
                lambda: thm2_search(cut, msg, caps),
                lambda: in_label_order(reference_thm2_search(cut, msg, caps)),
                row_record,
            )
            for rules in (("thm2",), BOUND_RULES):
                assert_rows_match_reference(rules, cut, msg, caps)

    def test_rows_come_from_the_kernel_alone(self, monkeypatch):
        """With the label walk replaced by a function that raises, the rows
        and the error naming a missing capacity still match the references,
        which call the real `instantiate`."""

        def refuse(*args, **kwargs):
            raise AssertionError("the label walk ran")

        monkeypatch.setattr(bounds, "instantiate", refuse)
        for cut, msg, caps in pattern_sharing_cases():
            assert_same_outcome(
                lambda: thm2_search(cut, msg, caps),
                lambda: in_label_order(reference_thm2_search(cut, msg, caps)),
                row_record,
            )
            for rules in (("thm2",), BOUND_RULES):
                assert_rows_match_reference(rules, cut, msg, caps)
        missing = pattern_sharing_cases()[2]
        with pytest.raises(ParameterError, match="^no capacity given for arc 'z2'$"):
            thm2_search(*missing)
        for rules in (("thm2",), BOUND_RULES):
            with pytest.raises(ParameterError, match="^no capacity given for arc 'z2'$"):
                bound_rows(rules, *missing)

    def test_a_table_holds_one_object_per_term_value(self):
        net = complete_combination_network(4)
        families = cut_and_message_families(net, [min_cut(net, k) for k in range(1, 5)])
        table = _row_kernel(("thm2",), *families).table
        terms = [t for _, bound in table.rows.values() for t in bound.terms]
        assert len({id(t) for t in terms}) == len(set(terms)) < len(terms)


def relabelled(family, order):
    """The family with its ground labels moved by `order`, position p now
    labelled as position order[p] was: the same cells, another layout."""
    labels = family.ground.labels
    ground = GroundSet(len(labels), labels=tuple(labels[i] for i in order))
    return SubsetFamily(ground, tuple(ElementSet(ground, m) for m in family.masks))


def moved_capacities(caps, family, order):
    """`caps` of `family` keyed by the labels of `relabelled(family, order)`."""
    labels = family.ground.labels
    return {labels[order[p]]: caps[label] for p, label in enumerate(labels)}


def outcome(call, record):
    """The records of the rows `call()` gives, or the text of the
    ParameterError it raises."""
    try:
        return [record(row) for row in call()]
    except ParameterError as exc:
        return "error: " + str(exc)


def cli_outcome(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def assert_cache_is_transparent(calls):
    """Each of `calls`, a (function, shares an earlier call's row table)
    pair, gives what it gives with the row tables emptied first, once in
    order from empty tables, hitting exactly where it shares, and once more
    with every table warm."""
    cold = []
    for call, _ in calls:
        bounds._row_tables.clear()
        cold.append(call())
    bounds._row_tables.clear()
    for (call, shares), expected in zip(calls, cold):
        hits = bounds._row_tables.hits
        assert call() == expected
        assert bounds._row_tables.hits - hits == shares
    assert [call() for call, _ in calls] == cold
    return cold


def cache_document(capacities, arc_order=range(10), messages=("W1", "W2", "W3", "W12", "W123")):
    """Three sinks below three two-sink mixers, t1 also fed directly; the
    source arcs get `capacities`, the mixer arcs are unbounded, and the arcs
    are listed in `arc_order`, so their automatic labels move with it.  The
    messages play the roles W1, W2, W3, W12, W123 in the order given.  Also
    a `--cuts` document of cuts that are not minimal: each sink's source
    arcs plus the source arc of a mixer that does not feed it."""
    arcs = [
        ("s", "v0", capacities[0]), ("v0", "t1", "inf"), ("v0", "t2", "inf"),
        ("s", "v1", capacities[1]), ("v1", "t2", "inf"), ("v1", "t3", "inf"),
        ("s", "v2", capacities[2]), ("v2", "t1", "inf"), ("v2", "t3", "inf"),
        ("s", "t1", capacities[3]),
    ]
    label = {old: f"a{new}" for new, old in enumerate(arc_order)}
    w1, w2, w3, w12, w123 = messages
    doc = {
        "nodes": ["s", "v0", "v1", "v2", "t1", "t2", "t3"],
        "arcs": [{"from": a, "to": b, "capacity": c} for a, b, c in (arcs[i] for i in arc_order)],
        "source": "s",
        "sinks": ["t1", "t2", "t3"],
        "messages": list(messages),
        "demands": {"t1": [w1, w12, w123], "t2": [w2, w12, w123], "t3": [w3, w123]},
    }
    cuts = {
        "t1": [label[0], label[6], label[9], label[3]],
        "t2": [label[0], label[3], label[6]],
        "t3": [label[3], label[6], label[0]],
    }
    return doc, cuts


def listed_in_reverse(case):
    """A `cache_document` with its message list reversed: the same labels
    in the same roles, so the same layout, in another document order."""
    doc, cuts = case
    return {**doc, "messages": doc["messages"][::-1]}, cuts


class TestRowTableCache:
    """Rows found in the per-process row tables are the rows built afresh:
    on families that share a cell pattern but not a layout, on capacity
    variants of one layout, on non-minimal cuts and on a missing capacity,
    whose error a hit must name as a build does."""

    def test_library_rows(self):
        (first, first_msg, rational), (second, second_msg, unbounded), (_, _, missing), _ = (
            pattern_sharing_cases()
        )
        cut_order, msg_order = [2, 0, 5, 1, 4, 3], [4, 3, 2, 1, 0]
        # (families, capacities, shares an earlier case's layouts)
        cases = [
            (first, first_msg, rational, 0),
            (first, first_msg, {label: 2 * v + 1 for label, v in rational.items()}, 1),
            (first, first_msg, None, 1),
            (
                relabelled(first, cut_order),
                relabelled(first_msg, msg_order),
                moved_capacities(rational, first, cut_order),
                0,
            ),
            (second, second_msg, unbounded, 0),
            (second, second_msg, missing, 1),
        ]
        calls = []
        for cut, msg, caps, shares in cases:
            builds = [functools.partial(thm2_search, cut, msg, caps)]
            # cor2 and csb name the one-sink rows differently, so the rule
            # order is part of a table
            builds += [
                functools.partial(bound_rows, rules, cut, msg, caps)
                for rules in (BOUND_RULES, ("cor2", "csb"), ("csb", "cor2"))
            ]
            calls += [(functools.partial(outcome, build, row_record), shares) for build in builds]
        cold = assert_cache_is_transparent(calls)
        assert cold[-4:] == ["error: no capacity given for arc 'z2'"] * 4
        # the capacity variants share a table but not their right sides
        assert cold[0] != cold[4] != cold[8] != cold[0]
        assert cold[2] != cold[3]

    def test_cli_reports(self, tmp_path):
        variants = {
            "unit": cache_document(("1", "1", "1", "1")),
            "rational": cache_document(("2/3", "5", "7/2", "3")),
            "messages listed in another order": listed_in_reverse(
                cache_document(("1", "2", "1", "2"))
            ),
            "arcs in another order": cache_document(
                ("1", "1", "1", "1"), arc_order=[9, 4, 0, 7, 3, 8, 1, 6, 2, 5]
            ),
            "messages renamed": cache_document(
                ("1", "1", "1", "1"), messages=("W3", "W12", "W1", "W123", "W2")
            ),
        }
        # (variant, --cuts file or not, shares an earlier call's layouts)
        runs = [
            ("unit", False, 0),
            ("rational", False, 1),
            ("messages listed in another order", False, 1),
            ("arcs in another order", False, 0),
            ("messages renamed", False, 0),
            ("unit", True, 0),
            ("rational", True, 1),
        ]
        calls = []
        for name, with_cuts, shares in runs:
            doc, cuts = variants[name]
            path = tmp_path / f"{len(calls)}.json"
            path.write_text(json.dumps(doc))
            argv = ["bounds", str(path), "--rules", "csb,gcsb3,cor3,cor2,thm2"]
            if with_cuts:
                cuts_path = tmp_path / f"{len(calls)}-cuts.json"
                cuts_path.write_text(json.dumps(cuts))
                argv += ["--cuts", str(cuts_path)]
            calls.append((functools.partial(cli_outcome, argv), shares))
        cold = assert_cache_is_transparent(calls)
        assert all(code == 0 and err == "" for code, _, err in cold)
        assert len({out for _, out, _ in cold}) == len(cold)


class TestSymmetryInvariant:
    """Identical set operations on both sides: instantiating with the same
    family for demands and cuts must give identical coefficient maps."""

    def test_shared_family_rows_are_symmetric(self):
        import random

        rng = random.Random(42)
        for _ in range(10):
            n = rng.randint(3, 6)
            g = GroundSet(n)
            fam = SubsetFamily(
                g, tuple(ElementSet(g, rng.randrange(1 << n)) for _ in range(3))
            )
            for b in enumerate_bounds(3, ("csb", "gcsb3", "cor3")):
                row = instantiate(b, fam, fam)
                assert row.rate_coeffs == row.capacity_coeffs

    def test_shared_family_search_is_symmetric(self):
        g = GroundSet(5, labels=("p", "q", "r", "s", "t"))
        fam = SubsetFamily(
            g,
            (
                g.subset_of_labels(["p", "q"]),
                g.subset_of_labels(["q", "r", "s"]),
                g.subset_of_labels(["p", "t"]),
            ),
        )
        for row in thm2_search(fam, fam):
            assert row.rate_coeffs == row.capacity_coeffs


def reference_signature(row):
    """The signature's canonical form as first defined, in Fractions: the
    coefficients times lcm(denominators) / gcd(scaled values)."""
    values = list(row.rate_coeffs.values()) + list(row.capacity_coeffs.values())
    if not values:
        return ((), ())
    scale_up = math.lcm(*(Fraction(v).denominator for v in values))
    units = [int(Fraction(v) * scale_up) for v in values]
    factor = Fraction(scale_up, math.gcd(*units))
    return (
        tuple(sorted((label, Fraction(v) * factor) for label, v in row.rate_coeffs.items())),
        tuple(sorted((label, Fraction(v) * factor) for label, v in row.capacity_coeffs.items())),
    )


nonzero_coefficient = st.one_of(
    st.integers(-12, 12), st.fractions(-12, 12, max_denominator=4)
).filter(lambda v: v != 0)
coefficient_maps = st.dictionaries(
    st.sampled_from(("a", "b", "c", "d", "e")), nonzero_coefficient, max_size=4
)


class TestSignature:
    def test_signature_ignores_scale(self):
        cut, msg = cn3_families()
        row = instantiate(cutset_bound([1, 2]), cut, msg)
        doubled = InstantiatedInequality(
            rate_coeffs={k: 2 * v for k, v in row.rate_coeffs.items()},
            capacity_coeffs={k: 2 * v for k, v in row.capacity_coeffs.items()},
            rhs_value=None,
            provenance="other",
        )
        assert row.signature() == doubled.signature()

    def test_integral_rows_give_int_signatures(self):
        cut, msg = cn3_families()
        for b in enumerate_bounds(3, ("csb", "gcsb3", "cor3")):
            assert all(type(t.weight) is int for t in b.terms)
            row = instantiate(b, cut, msg)
            for side in row.signature():
                assert all(type(v) is int for _, v in side)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(coefficient_maps, coefficient_maps), min_size=1, max_size=6))
    def test_signature_matches_fraction_reference(self, maps):
        rows = [
            InstantiatedInequality(rate, cap, None, "")
            for rate, cap in maps
            if rate or cap
        ]
        for row in rows:
            assert row.signature() == reference_signature(row)
        assert sorted(rows, key=lambda r: r.signature()) == sorted(
            rows, key=reference_signature
        )

    def test_lhs_value(self):
        cut, msg = cn3_families()
        row = instantiate(cutset_bound([1]), cut, msg)
        rates = {m: Fraction(1, 2) for m in MESSAGES}
        assert row.lhs_value(rates) == 2
