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
from cutbounds.network import (
    Arc,
    BroadcastNetwork,
    complete_combination_network,
    cut_and_message_families,
    min_cut,
)


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


def max_flow(net, sink):
    """Source-to-`sink` max-flow value by depth-first augmenting paths in
    exact arithmetic, independent of `network.min_cut`."""
    residual = {}
    for a in net.arcs:
        residual[a.tail, a.head] = residual.get((a.tail, a.head), F(0)) + a.capacity
        residual.setdefault((a.head, a.tail), F(0))
    flow = F(0)
    while True:
        parent, stack = {net.source: None}, [net.source]
        while stack and sink not in parent:
            u = stack.pop()
            for (tail, head), left in residual.items():
                if tail == u and left > 0 and head not in parent:
                    parent[head] = u
                    stack.append(head)
        if sink not in parent:
            return flow
        path, node = [], sink
        while parent[node] is not None:
            path.append((parent[node], node))
            node = parent[node]
        push = min(residual[e] for e in path)
        for tail, head in path:
            residual[tail, head] -= push
            residual[head, tail] += push
        flow += push


@st.composite
def random_dags(draw):
    """A DAG with 2-5 sinks and rational capacities: every node after the
    source gets one arc from an earlier node, so all are reachable, and up
    to eight more arcs join random ordered pairs.  Each sink demands a
    random nonempty set of up to four messages."""
    K = draw(st.integers(2, 5))
    nodes = ["s"] + [f"n{i}" for i in range(draw(st.integers(0, 4)))] + [f"t{k}" for k in range(1, K + 1)]

    def capacity():
        return F(draw(st.integers(1, 6)), draw(st.integers(1, 3)))

    ends = [(draw(st.integers(0, j - 1)), j) for j in range(1, len(nodes))]
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, len(nodes) - 2))
        ends.append((i, draw(st.integers(i + 1, len(nodes) - 1))))
    arcs = [Arc(f"e{n}", nodes[i], nodes[j], capacity()) for n, (i, j) in enumerate(ends)]
    pool = [f"M{m}" for m in range(1, draw(st.integers(1, 4)) + 1)]
    demands = {
        k: draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
        for k in range(1, K + 1)
    }
    messages = [w for w in pool if any(w in wanted for wanted in demands.values())]
    return BroadcastNetwork(nodes, arcs, "s", nodes[-K:], messages, demands)


class TestRandomDags:
    """Each message alone at its multicast capacity, the least max-flow
    over the sinks demanding it, is achievable by network coding
    (Ahlswede, Cai, Li and Yeung 2000), so every row must hold there."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(random_dags())
    def test_every_rule_holds_at_each_single_message_capacity(self, net):
        cuts = [min_cut(net, k) for k in range(1, net.K + 1)]
        capacities = {arc.label: arc.capacity for arc in net.arcs}
        rows = bound_rows(BOUND_RULES, *cut_and_message_families(net, cuts), capacities)
        assert rows
        flows = {k: max_flow(net, sink) for k, sink in enumerate(net.sinks, start=1)}
        for w in net.messages:
            rates = dict.fromkeys(net.messages, F(0))
            rates[w] = min(flows[k] for k, wanted in net.demands.items() if w in wanted)
            for row in rows:
                assert row.lhs_value(rates) <= row.rhs_value, (w, row.provenance)
