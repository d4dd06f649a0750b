"""Every bound row against achievable rates, not against a frozen table.

In a combination network, split each mixer U's capacity C_U among the
messages: x[W, U] >= 0 with sum_W x[W, U] <= C_U.  Sending an MDS code of
W over the mixers then delivers W at rate

    R_W = min over the sinks t demanding W of sum_{U containing t} x[W, U],

since sink t reads every mixer U that contains it.  So R is achievable,
and every row an outer-bound rule emits must hold at R, exactly.
"""

import itertools
from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cutbounds.bounds import BOUND_RULES, bound_rows
from cutbounds.errors import ParameterError
from cutbounds.network import complete_combination_network, cut_and_message_families, min_cut


def subset_name(members):
    return "".join(str(k) for k in members)


@st.composite
def allocations(draw):
    """A complete K-sink network (K = 2, 3) with random rational capacities
    in 0..4, and an allocation of every mixer's capacity among the
    messages, with or without slack."""
    K = draw(st.integers(2, 3))
    subsets = [
        members for size in range(1, K + 1) for members in itertools.combinations(range(1, K + 1), size)
    ]
    caps = {}
    for members in subsets:
        den = draw(st.integers(1, 4))
        caps[members] = F(draw(st.integers(0, 4 * den)), den)
    try:
        net = complete_combination_network(K, caps)
    except ParameterError:
        # every mixer of some sink has capacity 0, so it is unreachable
        assume(False)
    messages = [f"W{subset_name(members)}" for members in subsets]
    x = {}
    for members in subsets:
        if draw(st.booleans()):
            # all of it to one message whose sinks all read this mixer, the
            # allocation that makes cut-set rows tight
            inner = [v for v in subsets if set(v) <= set(members)]
            weights = dict.fromkeys(messages, 0)
            weights[f"W{subset_name(draw(st.sampled_from(inner)))}"] = 1
        else:
            weights = {w: draw(st.integers(0, 4)) for w in messages}
        total = sum(weights.values()) + draw(st.sampled_from((0, 0, 1, 3)))
        for w, weight in weights.items():
            x[w, members] = caps[members] * F(weight, total) if total else F(0)
    rates = {
        f"W{subset_name(v)}": min(
            sum((x[f"W{subset_name(v)}", u] for u in subsets if t in u), F(0)) for t in v
        )
        for v in subsets
    }
    return net, rates


class TestAchievability:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(allocations())
    def test_every_rule_holds_at_an_achievable_point(self, drawn):
        net, rates = drawn
        cuts = [min_cut(net, k) for k in range(1, net.K + 1)]
        capacities = {arc.label: arc.capacity for arc in net.arcs}
        rows = bound_rows(BOUND_RULES, *cut_and_message_families(net, cuts), capacities)
        assert rows
        for row in rows:
            assert row.lhs_value(rates) <= row.rhs_value, row.provenance
