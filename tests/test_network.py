"""Tests for the broadcast-network model, cut verification, and min cuts.

The brute-force oracle enumerates every subset of finite arcs and keeps the
cheapest one whose removal disconnects the sink, which is feasible because
the random instances stay at nine finite arcs or fewer.  Whether a finite
cut exists at all is checked against a second oracle, a search over the
unbounded arcs alone.
"""

from __future__ import annotations

import itertools
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from cutbounds.bounds import BoundInequality, BoundTerm, InstantiatedInequality
from cutbounds.errors import (
    CutVerificationError,
    GroundMismatchError,
    InfeasibleCutError,
    ParameterError,
    exact_rational,
)
from cutbounds.network import (
    Arc,
    BroadcastNetwork,
    Cut,
    combination_network,
    complete_combination_network,
    cut_and_message_families,
    is_cut,
    make_cut,
    min_cut,
    symmetric_combination_network,
)
from cutbounds.polytope import (
    LinearSystem,
    Row,
    corner_points_symmetric,
    format_rational,
    satisfies,
    substitute,
)
from cutbounds.setcalc import GroundSet
from cutbounds.setfn import SetFunction


def tiny_net(*arcs, sinks=("t",), messages=("M",), demands=None):
    nodes = sorted({a.tail for a in arcs} | {a.head for a in arcs} | {"s", *sinks})
    if demands is None:
        demands = {i + 1: list(messages) for i in range(len(sinks))}
    return BroadcastNetwork(nodes, arcs, "s", list(sinks), list(messages), demands)


def brute_force_min(net, k):
    """Cheapest finite arc subset passing is_cut, or None if there is none."""
    finite = [a for a in net.arcs if a.capacity is not None]
    best = None
    for size in range(len(finite) + 1):
        for combo in itertools.combinations(finite, size):
            subset = net.arc_subset([a.label for a in combo])
            if is_cut(net, subset, k):
                total = sum((a.capacity for a in combo), Fraction(0))
                if best is None or total < best:
                    best = total
    return best


class TestConstruction:
    def test_complete_k3_shape(self):
        net = complete_combination_network(3)
        assert len(net.nodes) == 11  # source, seven mixers, three sinks
        assert len(net.arcs) == 19  # seven capacitated plus twelve delivery
        assert [a.label for a in net.arcs[:7]] == [
            "a1",
            "a2",
            "a3",
            "a12",
            "a13",
            "a23",
            "a123",
        ]
        assert all(a.capacity is None for a in net.arcs[7:])
        assert net.messages == ("W1", "W2", "W3", "W12", "W13", "W23", "W123")
        assert net.demands[1] == frozenset({"W1", "W12", "W13", "W123"})

    def test_cycle_rejected(self):
        with pytest.raises(ParameterError):
            tiny_net(
                Arc("e0", "s", "a", Fraction(1)),
                Arc("e1", "a", "b", Fraction(1)),
                Arc("e2", "b", "a", Fraction(1)),
                Arc("e3", "b", "t", Fraction(1)),
            )

    def test_self_loop_rejected(self):
        with pytest.raises(ParameterError):
            tiny_net(Arc("e0", "s", "s", Fraction(1)), Arc("e1", "s", "t", Fraction(1)))

    def test_negative_capacity_rejected(self):
        with pytest.raises(ParameterError):
            tiny_net(Arc("e0", "s", "t", Fraction(-1)))

    def test_zero_capacity_arc_rejected(self):
        # zero capacity only appears as a construction input, never as an arc
        with pytest.raises(ParameterError):
            tiny_net(Arc("e0", "s", "t", Fraction(0)))

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ParameterError):
            BroadcastNetwork(
                ["s", "t"],
                [Arc("e0", "s", "x", Fraction(1))],
                "s",
                ["t"],
                ["M"],
                {1: ["M"]},
            )

    def test_non_arc_rejected_before_its_label_is_read(self):
        with pytest.raises(ParameterError, match="arcs must be Arc instances"):
            BroadcastNetwork(["s", "t"], [("s", "t")], "s", ["t"], ["W"], {1: ["W"]})

    def test_duplicate_arc_labels_rejected(self):
        with pytest.raises(ParameterError):
            tiny_net(
                Arc("e0", "s", "a", Fraction(1)),
                Arc("e0", "a", "t", Fraction(1)),
            )

    def test_demand_validation(self):
        arc = Arc("e0", "s", "t", Fraction(1))
        with pytest.raises(ParameterError):
            tiny_net(arc, demands={1: []})
        with pytest.raises(ParameterError):
            tiny_net(arc, demands={1: ["nope"]})
        with pytest.raises(ParameterError):
            tiny_net(arc, demands={2: ["M"]})

    def test_zero_capacity_mixers_are_omitted(self):
        net = combination_network(
            2,
            {(1,): 1, (2,): 1, (1, 2): 0},
            {1: ["WA"], 2: ["WB"]},
        )
        assert "v12" not in net.nodes
        assert [a.label for a in net.arcs] == ["a1", "a2", "v1->t1", "v2->t2"]

    def test_capacity_keys_must_be_sets_of_int_sink_indices(self):
        # a float index matched no subset, so its mixer was dropped with its
        # capacity; a string index or a bare int raised a raw TypeError
        demands = {1: ["W"], 2: ["W"]}
        for key, text in [
            ((1.5,), "a sink index must be an integer, got 1.5"),
            (("1",), "a sink index must be an integer, got '1'"),
            ("12", "a sink index must be an integer, got '1'"),
            (1, "capacity subsets must be collections of sink indices, got 1"),
        ]:
            with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
                combination_network(2, {key: 7, (1,): 1, (2,): 1}, demands)
        # a bool is an int: {True} is the subset {1}
        net = combination_network(2, {(True,): 7, (2,): 1}, demands)
        assert [a.capacity for a in net.arcs[:2]] == [7, 1]

    def test_unreachable_sink_rejected(self):
        with pytest.raises(ParameterError):
            BroadcastNetwork(
                ["s", "a", "t"],
                [Arc("e0", "s", "a", Fraction(1))],
                "s",
                ["t"],
                ["M"],
                {1: ["M"]},
            )

    def test_source_as_sink_rejected(self):
        with pytest.raises(ParameterError):
            BroadcastNetwork(
                ["s", "t"],
                [Arc("e0", "s", "t", Fraction(1))],
                "s",
                ["s"],
                ["M"],
                {1: ["M"]},
            )

    def test_disconnecting_zero_capacities_rejected(self):
        # omitting the zero layers here would leave sink 2 with no in-arc
        with pytest.raises(ParameterError):
            combination_network(
                2,
                {(1,): 1, (2,): 0, (1, 2): 0},
                {1: ["WA"], 2: ["WB"]},
            )


class TestIsCut:
    def test_single_arc_network(self):
        net = tiny_net(Arc("e0", "s", "t", Fraction(1)))
        assert is_cut(net, net.arc_subset(["e0"]), 1)

    def test_empty_set_on_connected_network(self):
        net = tiny_net(Arc("e0", "s", "t", Fraction(1)))
        assert not is_cut(net, net.arc_subset([]), 1)

    def test_known_basic_cut(self):
        net = complete_combination_network(3)
        basic = ["a1", "a12", "a13", "a123"]
        assert is_cut(net, net.arc_subset(basic), 1)
        assert not is_cut(net, net.arc_subset(basic[:-1]), 1)

    def test_sink_index_out_of_range(self):
        net = tiny_net(Arc("e0", "s", "t", Fraction(1)))
        with pytest.raises(ParameterError):
            is_cut(net, net.arc_subset([]), 2)

    def test_foreign_ground_rejected(self):
        net = tiny_net(Arc("e0", "s", "t", Fraction(1)))
        other = complete_combination_network(3)
        with pytest.raises(GroundMismatchError):
            is_cut(net, other.arc_subset([]), 1)


def _rational_or_unbounded(rng):
    capacity = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return None if rng.random() < 0.12 else capacity


def _small_int_or_unbounded(rng):
    return None if rng.random() < 0.2 else rng.randint(1, 3)


def _coprime_or_unbounded(rng):
    # large, pairwise coprime denominators and a 30-digit numerator
    capacity = rng.choice(
        (Fraction(1, 997), Fraction(10**30, 7), Fraction(3, 1009), Fraction(5, 991), Fraction(2))
    )
    return None if rng.random() < 0.15 else capacity


def _random_dag(rng, draw_capacity=_rational_or_unbounded, sinks=("t",)):
    while True:
        inner = [f"n{i}" for i in range(rng.randint(1, 4))]
        nodes = ["s"] + inner + list(sinks)
        arcs = []
        for idx in range(rng.randint(1, 8)):
            i = rng.randrange(len(nodes) - 1)
            j = rng.randrange(i + 1, len(nodes))
            arcs.append(Arc(f"e{idx}", nodes[i], nodes[j], draw_capacity(rng)))
        demands = {k: ["M"] for k in range(1, len(sinks) + 1)}
        try:
            return BroadcastNetwork(nodes, arcs, "s", list(sinks), ["M"], demands)
        except ParameterError:
            continue  # some sink not reachable; redraw


def unbounded_reach(net, k):
    """True iff sink k is reachable from the source over unbounded arcs alone."""
    seen, stack = {net.source}, [net.source]
    while stack:
        n = stack.pop()
        for a in net.arcs:
            if a.tail == n and a.capacity is None and a.head not in seen:
                seen.add(a.head)
                stack.append(a.head)
    return net.sinks[k - 1] in seen


NO_FINITE_CUT = "^sink {} is reachable through unbounded arcs alone; no finite cut exists$"


class TestMinCut:
    def test_complete_k3_basic_cuts(self):
        net = complete_combination_network(3)
        cut = min_cut(net, 1)
        assert set(cut.arcs.member_labels()) == {"a1", "a12", "a13", "a123"}
        assert cut.capacity == 4
        cut2 = min_cut(net, 2)
        assert set(cut2.arcs.member_labels()) == {"a2", "a12", "a23", "a123"}

    def test_parallel_arcs(self):
        net = tiny_net(
            Arc("e0", "s", "t", Fraction(1)),
            Arc("e1", "s", "t", Fraction(1)),
        )
        cut = min_cut(net, 1)
        assert set(cut.arcs.member_labels()) == {"e0", "e1"}
        assert cut.capacity == 2

    def test_tie_break_is_source_side(self):
        net = tiny_net(
            Arc("e0", "s", "a", Fraction(1)),
            Arc("e1", "a", "t", Fraction(1)),
        )
        cut = min_cut(net, 1)
        assert set(cut.arcs.member_labels()) == {"e0"}

    def test_exact_fractional_capacity(self):
        net = tiny_net(
            Arc("e0", "s", "t", Fraction(1, 3)),
            Arc("e1", "s", "t", Fraction(2, 5)),
        )
        assert min_cut(net, 1).capacity == Fraction(11, 15)

    def test_no_finite_cut(self):
        net = tiny_net(Arc("e0", "s", "t", None))
        with pytest.raises(InfeasibleCutError):
            min_cut(net, 1)

    def test_unbounded_detour_does_not_matter(self):
        net = tiny_net(
            Arc("e0", "s", "a", Fraction(2)),
            Arc("e1", "a", "t", None),
            Arc("e2", "s", "t", Fraction(1)),
        )
        cut = min_cut(net, 1)
        assert set(cut.arcs.member_labels()) == {"e0", "e2"}
        assert cut.capacity == 3

    def test_unbounded_arc_parallel_to_a_finite_one(self):
        net = tiny_net(
            Arc("e0", "s", "a", Fraction(1, 997)),
            Arc("e1", "s", "a", None),
            Arc("e2", "a", "t", Fraction(10**30, 7)),
        )
        cut = min_cut(net, 1)
        assert set(cut.arcs.member_labels()) == {"e2"}
        assert cut.capacity == Fraction(10**30, 7)
        net = tiny_net(Arc("e0", "s", "t", Fraction(1, 997)), Arc("e1", "s", "t", None))
        with pytest.raises(InfeasibleCutError, match=NO_FINITE_CUT.format(1)):
            min_cut(net, 1)

    def test_matches_brute_force(self):
        # every sink of DAGs with 1-3 sinks, small rationals and large
        # coprime denominators, and for every other draw an unbounded twin
        # of one finite arc, between the same two nodes
        rng = random.Random(2024)
        checked = infeasible = twins = 0
        for draw_capacity in (_rational_or_unbounded, _coprime_or_unbounded):
            for _ in range(80):
                sinks = rng.choice((("t",), ("t1", "t2"), ("t1", "t2", "t3")))
                net = _random_dag(rng, draw_capacity, sinks)
                finite = [a for a in net.arcs if a.capacity is not None]
                if finite and rng.random() < 0.5:
                    twin = rng.choice(finite)
                    arcs = net.arcs + (Arc("twin", twin.tail, twin.head, None),)
                    net = BroadcastNetwork(
                        net.nodes, arcs, "s", net.sinks, net.messages, net.demands
                    )
                    twins += 1
                for k in range(1, net.K + 1):
                    expect = brute_force_min(net, k)
                    assert (expect is None) == unbounded_reach(net, k)
                    if expect is None:
                        with pytest.raises(InfeasibleCutError, match=NO_FINITE_CUT.format(k)):
                            min_cut(net, k)
                        infeasible += 1
                        continue
                    cut = min_cut(net, k)
                    assert cut.sink == k
                    assert cut.capacity == expect
                    assert is_cut(net, cut.arcs, k)
                    checked += 1
        assert checked > 150 and infeasible > 20 and twins > 50

    def test_returns_the_least_minimum_source_side(self):
        # Of all minimum cuts, min_cut returns the arcs leaving the
        # intersection of the minimum-capacity source sides S (S holds the
        # source and not the sink; an unbounded arc leaving S makes its
        # capacity infinite).  Small integer capacities make ties common.
        def leaving(net, side):
            return frozenset(a.label for a in net.arcs if a.tail in side and a.head not in side)

        rng = random.Random(7)
        ties = 0
        for _ in range(3000):
            net = _random_dag(rng, _small_int_or_unbounded)
            inner = net.nodes[1:-1]
            capacity = {}
            for bits in range(1 << len(inner)):
                side = frozenset({"s"} | {n for i, n in enumerate(inner) if bits >> i & 1})
                caps = [net.arc(label).capacity for label in leaving(net, side)]
                if None not in caps:
                    capacity[side] = sum(caps)
            if not capacity:
                with pytest.raises(InfeasibleCutError):
                    min_cut(net, 1)
                continue
            best = min(capacity.values())
            minimal = [side for side, total in capacity.items() if total == best]
            ties += len({leaving(net, side) for side in minimal}) > 1
            cut = min_cut(net, 1)
            assert cut.capacity == best
            assert set(cut.arcs.member_labels()) == leaving(net, frozenset.intersection(*minimal))
        assert ties > 100  # 231 draws have minimum cuts with different arc sets


def mixed_denominator_net():
    """Three sinks, capacities over denominators 2..9 (lcm 2520), parallel
    finite arcs into `a` and one unbounded arc from `a` to `b`."""
    return BroadcastNetwork(
        ["s", "a", "b", "t1", "t2", "t3"],
        [
            Arc("e0", "s", "a", Fraction(1, 3)),
            Arc("e1", "s", "a", Fraction(2, 5)),
            Arc("e2", "s", "b", Fraction(3, 7)),
            Arc("e3", "a", "t1", Fraction(1, 2)),
            Arc("e4", "a", "b", None),
            Arc("e5", "b", "t2", Fraction(5, 6)),
            Arc("e6", "a", "t2", Fraction(1, 4)),
            Arc("e7", "b", "t3", Fraction(7, 8)),
            Arc("e8", "s", "t3", Fraction(2, 9)),
        ],
        "s",
        ["t1", "t2", "t3"],
        ["M"],
        {1: ["M"], 2: ["M"], 3: ["M"]},
    )


class TestSharedFlowGraph:
    def test_calls_in_any_order_agree_with_a_fresh_network(self):
        net = mixed_denominator_net()
        sinks = range(1, net.K + 1)
        forward = {k: min_cut(net, k) for k in sinks}
        backward = {k: min_cut(net, k) for k in reversed(sinks)}
        assert backward == forward
        fresh = mixed_denominator_net()
        assert {k: min_cut(fresh, k) for k in sinks} == forward
        for k, cut in forward.items():
            assert cut.capacity == brute_force_min(net, k)

    def test_make_cut_sums_exactly_below_the_network_denominator(self):
        net = mixed_denominator_net()
        cut = make_cut(net, ["e0", "e1"], 1)
        assert cut.capacity == Fraction(11, 15)
        assert type(cut.capacity) is Fraction and cut.capacity.denominator == 15
        assert make_cut(net, ["e3"], 1).capacity == Fraction(1, 2)


class TestFamilies:
    def test_complete_k3_families(self):
        net = complete_combination_network(3)
        cuts = [min_cut(net, k) for k in (1, 2, 3)]
        cut_fam, msg_fam = cut_and_message_families(net, cuts)
        assert cut_fam.size == msg_fam.size == 3
        assert set(cut_fam.sets[0].member_labels()) == {"a1", "a12", "a13", "a123"}
        assert set(msg_fam.sets[2].member_labels()) == {"W3", "W13", "W23", "W123"}
        assert cut_fam.ground.size == 19
        assert msg_fam.ground.size == 7

    def test_unverified_cut_rejected(self):
        net = complete_combination_network(3)
        bogus = Cut(arcs=net.arc_subset(["a1"]), sink=1, capacity=Fraction(1))
        good = [min_cut(net, k) for k in (2, 3)]
        with pytest.raises(CutVerificationError):
            cut_and_message_families(net, [bogus] + good)

    def test_wrong_sink_coverage_rejected(self):
        net = complete_combination_network(3)
        cut1 = min_cut(net, 1)
        with pytest.raises(ParameterError):
            cut_and_message_families(net, [cut1, cut1, min_cut(net, 3)])

    def test_make_cut_verifies(self):
        net = complete_combination_network(3)
        with pytest.raises(CutVerificationError):
            make_cut(net, ["a1", "a12"], 1)
        cut = make_cut(net, ["a1", "a12", "a13", "a123"], 1)
        assert cut.capacity == 4

    def test_one_sink_trivial_network(self):
        net = tiny_net(Arc("e0", "s", "t", Fraction(2)))
        cut_fam, msg_fam = cut_and_message_families(net, [min_cut(net, 1)])
        assert set(cut_fam.sets[0].member_labels()) == {"e0"}
        assert set(msg_fam.sets[0].member_labels()) == {"M"}


class TestSymmetric:
    def test_structure_and_cuts(self):
        net = symmetric_combination_network(3, (1, 1, 1))
        assert net.messages == ("W0", "W1", "W2", "W3")
        assert net.demands[2] == frozenset({"W0", "W2"})
        cut = min_cut(net, 1)
        assert cut.capacity == 4  # 1 + two pair arcs + the triple arc
        assert set(cut.arcs.member_labels()) == {"a1", "a12", "a13", "a123"}

    def test_capacities_by_subset_size(self):
        net = symmetric_combination_network(3, (Fraction(1, 2), 2, 0))
        by_label = {a.label: a.capacity for a in net.arcs}
        assert by_label["a1"] == Fraction(1, 2)
        assert by_label["a23"] == 2
        assert "a123" not in by_label  # zero layer omitted
        assert min_cut(net, 1).capacity == Fraction(1, 2) + 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            symmetric_combination_network(3, (1, 1))
        with pytest.raises(ParameterError):
            symmetric_combination_network(0, ())
        with pytest.raises(ParameterError):
            symmetric_combination_network(3, (0, 0, 0))


_NOT_FINITE_RATIONALS = [
    float("inf"),
    float("-inf"),
    float("nan"),
    Decimal("Infinity"),
    Decimal("NaN"),
    "x",
    "1/0",
    None,
]

_UNIT_SYSTEM = LinearSystem.from_rows(("x",), [({"x": 1}, 1)])

# every library entry point that turns a caller's value into a Fraction:
# (the name its refusal gives the value, a call passing the value there)
_RATIONAL_TAKERS = {
    "Arc": ("an arc capacity", lambda value: Arc("e0", "s", "t", value)),
    "combination_network": (
        "an arc capacity",
        lambda value: combination_network(2, {(1,): value, (1, 2): 1}, {1: ["M"], 2: ["M"]}),
    ),
    "complete_combination_network": (
        "an arc capacity",
        lambda value: complete_combination_network(1, {(1,): value}),
    ),
    "symmetric_combination_network": (
        "an arc capacity",
        lambda value: symmetric_combination_network(2, (value, 1)),
    ),
    "SetFunction.modular": (
        "a modular weight",
        lambda value: SetFunction.modular(GroundSet(2), (1, value)),
    ),
    "Row coefficient": ("a row entry", lambda value: Row((1, value), 2)),
    "Row right side": ("a row entry", lambda value: Row((1, 1), value)),
    "format_rational": ("a value", format_rational),
    "satisfies": ("a point coordinate", lambda value: satisfies(_UNIT_SYSTEM, {"x": value})),
    "substitute coefficient": (
        "a substitution coefficient",
        lambda value: substitute(_UNIT_SYSTEM, "x", {"y": value}),
    ),
    "substitute constant": (
        "a substitution constant",
        lambda value: substitute(_UNIT_SYSTEM, "x", {"y": 1}, value),
    ),
    "corner_points_symmetric": (
        "a capacity",
        lambda value: corner_points_symmetric(2, (value, 1)),
    ),
    "BoundInequality.build": (
        "a term weight",
        lambda value: BoundInequality.build([BoundTerm(1, frozenset({1}), value)]),
    ),
    "InstantiatedInequality.lhs_value": (
        "a rate",
        lambda value: InstantiatedInequality({"W": Fraction(1)}, {}, None, "").lhs_value(
            {"W": value}
        ),
    ),
}


class TestCapacityConversion:
    """Capacities, and every other value a caller hands the library as a
    rational, go through `errors.exact_rational`: one kind of refusal, one
    text, wherever the value arrives."""

    @pytest.mark.parametrize("taker", sorted(_RATIONAL_TAKERS))
    @pytest.mark.parametrize("value", _NOT_FINITE_RATIONALS, ids=repr)
    def test_values_that_are_not_finite_rationals_are_refused(self, taker, value):
        what, call = _RATIONAL_TAKERS[taker]
        if taker == "Arc" and value is None:
            # None marks an unbounded arc, not a value to convert
            assert call(value).capacity is None
            return
        text = f"^{re.escape(what)} must be a finite rational, got {re.escape(repr(value))}$"
        with pytest.raises(ParameterError, match=text):
            call(value)

    def test_exact_rational_keeps_valid_values_exact(self):
        value = Fraction(3, 4)
        assert exact_rational(value, "a value") is value
        for given, expected in ((2, Fraction(2)), (True, Fraction(1)), ("-3/4", Fraction(-3, 4)),
                                (" 0.5 ", Fraction(1, 2)), (0.1, Fraction(3602879701896397, 2**55)),
                                (Decimal("0.1"), Fraction(1, 10))):
            converted = exact_rational(given, "a value")
            assert type(converted) is Fraction and converted == expected

    def test_a_fraction_is_kept_as_it_is(self):
        value = Fraction(3, 4)
        assert Arc("e0", "s", "t", value).capacity is value

    def test_other_rationals_become_fractions(self):
        for value, expected in ((2, Fraction(2)), ("3/4", Fraction(3, 4)),
                                (Decimal("0.5"), Fraction(1, 2))):
            capacity = Arc("e0", "s", "t", value).capacity
            assert type(capacity) is Fraction and capacity == expected

    def test_negative_subset_capacity_refused(self):
        # a subset capacity may be 0 (its mixer is omitted), not below
        with pytest.raises(ParameterError, match="nonnegative"):
            _RATIONAL_TAKERS["combination_network"][1](Fraction(-1, 2))


class TestCompleteCombinationNetwork:
    def test_cuts_from_label_lists_match_cuts_from_masks(self):
        # the eight minimum cuts of the largest network in the docs, given
        # as 128-label lists as in a `--cuts` file, in shuffled order
        net = complete_combination_network(8)
        rng = random.Random(8)
        for k in range(1, 9):
            arcs = min_cut(net, k).arcs
            labels = list(arcs.member_labels())
            rng.shuffle(labels)
            assert len(labels) == 128
            assert make_cut(net, labels, k) == make_cut(net, arcs, k)
            assert net.arc_subset(labels) == arcs
        with pytest.raises(ParameterError, match=r"^unknown label 'nope'$"):
            make_cut(net, ["nope"], 1)
        assert net.message_subset(["W12", "W1"]).member_labels() == ("W1", "W12")

    def test_one_sink_builds(self):
        net = complete_combination_network(1)
        assert net.K == 1 and net.messages == ("W1",)
        assert min_cut(net, 1).capacity == 1

    def test_zero_sinks_refused(self):
        with pytest.raises(ParameterError, match="K must be a positive integer"):
            complete_combination_network(0)
