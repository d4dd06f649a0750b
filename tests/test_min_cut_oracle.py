"""`network.min_cut` against the shortest-augmenting-path search it
replaced, kept here as `reference_min_cut`.

Both take the arcs leaving the nodes reachable in the final residual graph,
which are the same for every maximum flow (the least minimum source side),
so they must return the same cut, capacity and `InfeasibleCutError` text on
every network: seeded DAGs with parallel arcs, unbounded arcs parallel to
finite ones, large coprime denominators and 1 to 16 sinks, and the complete
K=6 and K=8 combination networks.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction

import pytest

from cutbounds.errors import InfeasibleCutError
from cutbounds.network import (
    Arc,
    BroadcastNetwork,
    complete_combination_network,
    make_cut,
    min_cut,
)
from cutbounds.setcalc import ElementSet


def reference_flow_graph(net) -> tuple:
    """(residual, neighbours, unbounded): the residual capacity of every arc
    and reverse arc in scaled units, keyed by (tail, head) node ids, each
    node's residual neighbours, and the unit count of an unbounded arc, one
    above the finite total."""
    unbounded = sum(u for u in net._units if u is not None) + 1
    residual: dict = {}
    neighbours = {n: [] for n in net.nodes}
    for a, u in zip(net.arcs, net._units):
        for tail, head in ((a.tail, a.head), (a.head, a.tail)):
            if (tail, head) not in residual:
                residual[tail, head] = 0
                neighbours[tail].append(head)
        residual[a.tail, a.head] += unbounded if u is None else u
    return residual, neighbours, unbounded


def reference_min_cut(net, k):
    """Minimum cut for sink k by shortest augmenting paths, one breadth-first
    search per path (Edmonds-Karp)."""
    target = net.sinks[k - 1]
    shared, neighbours, unbounded = reference_flow_graph(net)
    residual = dict(shared)

    flow = 0
    while True:
        # breadth-first over the residual graph; once the sink is out of
        # reach, the nodes reached are the source side of a minimum cut
        parent = {net.source: None}
        queue = deque([net.source])
        while queue and target not in parent:
            n = queue.popleft()
            for m in neighbours[n]:
                if m not in parent and residual[n, m] > 0:
                    parent[m] = n
                    queue.append(m)
        if target not in parent:
            break
        path = []
        n = target
        while parent[n] is not None:
            path.append((parent[n], n))
            n = parent[n]
        push = min(residual[e] for e in path)
        for u, v in path:
            residual[u, v] -= push
            residual[v, u] += push
        flow += push

    if flow >= unbounded:
        raise InfeasibleCutError(
            f"sink {k} is reachable through unbounded arcs alone; no finite cut exists"
        )
    crossing = sum(
        1 << i
        for i, a in enumerate(net.arcs)
        if a.tail in parent and a.head not in parent
    )
    cut = make_cut(net, ElementSet(net.arc_ground, crossing), k)
    # max-flow/min-cut equality is an internal consistency check, not user input
    if Fraction(flow, net._scale) != cut.capacity:
        raise AssertionError(
            f"max-flow {Fraction(flow, net._scale)} differs from cut capacity {cut.capacity}"
        )
    return cut


def outcome(cut_of, net, k):
    try:
        cut = cut_of(net, k)
    except InfeasibleCutError as exc:
        return "infeasible", str(exc)
    return cut.arcs.mask, cut.capacity, cut.sink


# pairwise coprime denominators, some large, and numerators up to 30 digits
DENOMINATORS = (1, 2, 3, 7, 997, 1009, 7919, 104729)


def draw_capacity(rng):
    if rng.random() < 0.15:
        return None
    numerator = rng.choice((rng.randint(1, 9), rng.randint(1, 10**6), rng.randint(1, 10**30)))
    return Fraction(numerator, rng.choice(DENOMINATORS))


def seeded_dag(seed):
    """A DAG on a source, 0-12 inner nodes and 1-16 sinks, in which every
    node has an arc from some earlier node, so every sink is reachable;
    some arcs repeat an earlier arc's ends, with a finite capacity or as an
    unbounded twin."""
    rng = random.Random(f"min-cut-oracle:{seed}")
    sinks = [f"t{k}" for k in range(1, rng.randint(1, 16) + 1)]
    # sinks come last in node order, shuffled, so a sink may feed another
    rng.shuffle(sinks)
    nodes = ["s"] + [f"n{i}" for i in range(rng.randint(0, 12))] + sinks
    ends = [(nodes[rng.randrange(j)], nodes[j]) for j in range(1, len(nodes))]
    for _ in range(rng.randint(0, 3 * len(nodes))):
        j = rng.randrange(1, len(nodes))
        ends.append((nodes[rng.randrange(j)], nodes[j]))
    arcs = [(tail, head, draw_capacity(rng)) for tail, head in ends]
    for tail, head, _ in rng.sample(arcs, min(len(arcs), rng.randint(0, 4))):
        arcs.append((tail, head, None if rng.random() < 0.5 else draw_capacity(rng)))
    rng.shuffle(arcs)
    arcs = [Arc(f"e{i}", tail, head, cap) for i, (tail, head, cap) in enumerate(arcs)]
    demands = {k: ["M"] for k in range(1, len(sinks) + 1)}
    return BroadcastNetwork(nodes, arcs, "s", sinks, ["M"], demands)


def test_seeded_dags_match_the_reference():
    kinds = set()
    for seed in range(300):
        net = seeded_dag(seed)
        for k in range(1, net.K + 1):
            got = outcome(min_cut, net, k)
            assert got == outcome(reference_min_cut, net, k), (seed, k)
            kinds.add(got[0] == "infeasible")
    # both outcomes occur, so neither half of the comparison is vacuous
    assert kinds == {False, True}


def test_the_draws_cover_parallel_arcs_and_unbounded_twins():
    parallel = twins = 0
    for seed in range(300):
        net = seeded_dag(seed)
        by_ends: dict = {}
        for a in net.arcs:
            by_ends.setdefault((a.tail, a.head), []).append(a.capacity)
        for caps in by_ends.values():
            parallel += len(caps) > 1
            twins += None in caps and any(c is not None for c in caps)
    assert parallel > 100 and twins > 20


@pytest.mark.parametrize("K", [6, 8])
@pytest.mark.parametrize("capacities", ["unit", "seeded"])
def test_complete_networks_match_the_reference(K, capacities):
    caps = None
    if capacities == "seeded":
        rng = random.Random(f"min-cut-oracle:complete:{K}")
        caps = {
            members: Fraction(rng.randint(1, 50), rng.choice(DENOMINATORS[:6]))
            for size in range(1, K + 1)
            for members in itertools.combinations(range(1, K + 1), size)
        }
    net = complete_combination_network(K, caps)
    for k in range(1, K + 1):
        assert outcome(min_cut, net, k) == outcome(reference_min_cut, net, k)
