"""Broadcast networks with exact min-cut computation.

A broadcast network is a directed acyclic graph with one source, K sinks,
and a message index set; each sink demands a nonempty subset of the
messages.  Arc capacities are positive rationals, or ``None`` for arcs
that can never be cut (the unbounded delivery links of a combination
network).  Arc sets are :class:`ElementSet` bit masks over the arcs in
declaration order.  A network scales its finite capacities once, to ints
over their common denominator; cut capacities are summed in those units,
and a minimum cut runs its flow on them, an unbounded arc one unit above
the finite total.  The CLI's row kernel reads the same units
(`_units` over `_scale`), so no capacity is scaled twice on its path.
Cut capacities are exact, and the internal max-flow == min-cut check is an
equality, not a tolerance.  A capacity that is not a finite rational (NaN,
an infinity, text) is refused with ParameterError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    CutVerificationError,
    GroundMismatchError,
    InfeasibleCutError,
    ParameterError,
    exact_rational,
)
from .setcalc import (
    FAMILY_CAP_REASON,
    MAX_FAMILY,
    ElementSet,
    GroundSet,
    SubsetFamily,
    _check_int,
)

Capacity = Optional[Fraction]


def _coerce_capacity(value) -> Capacity:
    if value is None:
        return None
    cap = exact_rational(value, "an arc capacity")
    if cap.numerator <= 0:
        raise ParameterError("arc capacity must be positive (or None for unbounded)")
    return cap


@dataclass(frozen=True)
class Arc:
    """A directed arc; capacity None marks an uncuttable, unbounded arc."""

    label: str
    tail: str
    head: str
    capacity: Capacity

    def __post_init__(self):
        label, tail, head = self.label, self.tail, self.head
        if not (
            isinstance(label, str) and isinstance(tail, str) and isinstance(head, str)
            and label and tail and head
        ):
            raise ParameterError("arc label and endpoints must be nonempty strings")
        if tail == head:
            raise ParameterError(f"arc {label!r} is a self-loop")
        object.__setattr__(self, "capacity", _coerce_capacity(self.capacity))


@dataclass(frozen=True)
class Cut:
    """An arc set disconnecting the source from sink `sink`.

    Build through make_cut or min_cut; both verify the disconnection
    property.  `capacity` is the exact sum of member capacities.
    """

    arcs: ElementSet
    sink: int
    capacity: Fraction


class BroadcastNetwork:
    """Immutable single-source multi-sink network over a DAG."""

    def __init__(
        self,
        nodes: Iterable[str],
        arcs: Iterable[Arc],
        source: str,
        sinks: Sequence[str],
        messages: Sequence[str],
        demands: Mapping[int, Iterable[str]],
    ):
        self.nodes = tuple(nodes)
        # each node's position: the flow and reachability walks run on these
        index = {n: i for i, n in enumerate(self.nodes)}
        if not self.nodes or len(index) != len(self.nodes):
            raise ParameterError("nodes must be nonempty and distinct")
        self._index = index

        self.arcs = tuple(arcs)
        if not self.arcs:
            raise ParameterError("a network needs at least one arc")
        if not all(isinstance(a, Arc) for a in self.arcs):
            raise ParameterError("arcs must be Arc instances")
        self._by_label = {a.label: a for a in self.arcs}
        if len(self._by_label) != len(self.arcs):
            raise ParameterError("arc labels must be distinct")
        # each arc's (tail, head) and each node's outgoing arcs as (bit of
        # the arc's position, head), nodes by position
        self._ends = []
        self._out = [[] for _ in self.nodes]
        for i, a in enumerate(self.arcs):
            tail, head = index.get(a.tail), index.get(a.head)
            if tail is None or head is None:
                raise ParameterError(f"arc {a.label!r} references an unknown node")
            self._ends.append((tail, head))
            self._out[tail].append((1 << i, head))

        if source not in index:
            raise ParameterError(f"source {source!r} is not a node")
        self.source = source

        self.sinks = tuple(sinks)
        if not 1 <= len(self.sinks) <= MAX_FAMILY:
            raise ParameterError(
                f"networks carry 1..{MAX_FAMILY} sinks: {FAMILY_CAP_REASON}"
            )
        if len(set(self.sinks)) != len(self.sinks):
            raise ParameterError("sinks must be distinct")
        for t in self.sinks:
            if t not in index:
                raise ParameterError(f"sink {t!r} is not a node")
            if t == source:
                raise ParameterError("the source cannot be a sink")

        self.messages = tuple(messages)
        if not self.messages:
            raise ParameterError("a network needs at least one message")
        if len(set(self.messages)) != len(self.messages):
            raise ParameterError("message labels must be distinct")

        wanted = set(range(1, len(self.sinks) + 1))
        if set(demands) != wanted:
            raise ParameterError("demands must be keyed by sink indices 1..K exactly")
        cleaned = {}
        for k in sorted(demands):
            dem = frozenset(demands[k])
            if not dem:
                raise ParameterError(f"sink {k} demands no messages")
            unknown = dem.difference(self.messages)
            if unknown:
                raise ParameterError(f"sink {k} demands unknown messages {sorted(unknown)}")
            cleaned[k] = dem
        self.demands = cleaned

        self._check_acyclic()

        reachable = self._reachable(0)
        for k, t in enumerate(self.sinks, start=1):
            if not reachable[index[t]]:
                raise ParameterError(f"sink t_{k} ({t!r}) not reachable from the source")

        self.arc_ground = GroundSet(len(self.arcs), tuple(self._by_label))
        self.message_ground = GroundSet(len(self.messages), self.messages)

        # the one scaling of the capacities: each finite capacity as an int
        # over their common denominator, None for an unbounded arc
        caps = [a.capacity for a in self.arcs]
        scale = self._scale = lcm(*{c.denominator for c in caps if c is not None})
        self._units = tuple(
            None if c is None else c.numerator * (scale // c.denominator) for c in caps
        )

    @property
    def K(self) -> int:
        return len(self.sinks)

    def arc_subset(self, labels: Iterable[str]) -> ElementSet:
        return self.arc_ground.subset_of_labels(labels)

    def message_subset(self, labels: Iterable[str]) -> ElementSet:
        return self.message_ground.subset_of_labels(labels)

    def demand_set(self, k: int) -> ElementSet:
        return self.message_subset(self.demands[k])

    def arc(self, label: str) -> Arc:
        try:
            return self._by_label[label]
        except KeyError:
            raise ParameterError(f"unknown arc label {label!r}") from None

    @functools.cached_property
    def _flow_graph(self) -> tuple:
        """(capacity, heads, edges, unbounded) for min_cut, built on its
        first call.  Nodes are their positions.  Edge 2j runs along the
        j-th distinct (tail, head) pair of arcs, its capacity the scaled
        units of all arcs on that pair, and edge 2j + 1 = 2j ^ 1 is its
        reverse, of capacity 0; `heads` gives each edge's head and `edges`
        each node's outgoing edges.  An unbounded arc counts `unbounded`
        units, one above the finite total.  min_cut works on a copy of
        `capacity`; the rest is only read."""
        unbounded = sum(u for u in self._units if u is not None) + 1
        pairs: dict = {}
        capacity: list = []
        heads: list = []
        edges: list = [[] for _ in self.nodes]
        for ends, u in zip(self._ends, self._units):
            e = pairs.get(ends)
            if e is None:
                # the graph is acyclic, so no arc runs along a reverse edge
                tail, head = ends
                e = pairs[ends] = len(heads)
                capacity += (0, 0)
                heads += (head, tail)
                edges[tail].append(e)
                edges[head].append(e + 1)
            capacity[e] += unbounded if u is None else u
        return capacity, heads, edges, unbounded

    def _check_acyclic(self) -> None:
        indeg = [0] * len(self.nodes)
        for _, head in self._ends:
            indeg[head] += 1
        queue = [n for n, d in enumerate(indeg) if d == 0]
        for n in queue:
            for _, head in self._out[n]:
                indeg[head] -= 1
                if indeg[head] == 0:
                    queue.append(head)
        if len(queue) != len(self.nodes):
            raise ParameterError("network graph contains a directed cycle")

    def _reachable(self, removed: int) -> bytearray:
        """A flag per node position, set for the nodes reachable from the
        source when the arcs in mask `removed` are gone."""
        out = self._out
        source = self._index[self.source]
        seen = bytearray(len(out))
        seen[source] = 1
        stack = [source]
        while stack:
            for bit, head in out[stack.pop()]:
                if not (seen[head] or bit & removed):
                    seen[head] = 1
                    stack.append(head)
        return seen


def _check_sink_index(net: BroadcastNetwork, k: int) -> str:
    if not isinstance(k, int) or not 1 <= k <= net.K:
        raise ParameterError(f"sink index {k!r} outside 1..{net.K}")
    return net.sinks[k - 1]


def is_cut(net: BroadcastNetwork, arcs: ElementSet, k: int) -> bool:
    """True iff no directed source-to-sink-k path survives removing `arcs`."""
    target = _check_sink_index(net, k)
    if not isinstance(arcs, ElementSet) or (
        arcs.ground is not net.arc_ground and arcs.ground != net.arc_ground
    ):
        raise GroundMismatchError("arc set does not live over this network's arcs")
    return not net._reachable(arcs.mask)[net._index[target]]


def make_cut(net: BroadcastNetwork, arcs, k: int) -> Cut:
    """Verify an arc set as a cut for sink k and attach its exact capacity."""
    if not isinstance(arcs, ElementSet):
        arcs = net.arc_subset(arcs)
    if not is_cut(net, arcs, k):
        raise CutVerificationError(
            f"arc set {sorted(arcs.member_labels())} does not disconnect sink {k}"
        )
    units = [net._units[i] for i in arcs.members()]
    if None in units:
        raise CutVerificationError("cuts may not contain unbounded arcs")
    # summed as integers over the network's common denominator: one
    # Fraction, not one per member
    return Cut(arcs=arcs, sink=k, capacity=Fraction(sum(units), net._scale))


def _blocking_flow(capacity: list, heads: list, admissible: list, source: int, sink: int) -> int:
    """Push a blocking flow from `source` to `sink` and return its value.

    `admissible` holds each node's edges that go up one level in the
    residual `capacity`, and serves as the node's cursor: the walk follows
    the last edge of each list, and an edge is dropped from it once
    saturated or once its head is a dead end, a node whose list is empty.
    After each push the walk backs up to the tail of the first edge the
    push saturated."""
    path: list = []
    node = source
    pushed = 0
    while True:
        if node == sink:
            push = min(map(capacity.__getitem__, path))
            saturated = None
            for i, e in enumerate(path):
                capacity[e] -= push
                capacity[e ^ 1] += push
                if not capacity[e]:
                    # the walk took the last edge of its tail's list
                    admissible[heads[e ^ 1]].pop()
                    if saturated is None:
                        saturated = i
            pushed += push
            del path[saturated:]
        elif admissible[node]:
            path.append(admissible[node][-1])
        elif node == source:
            return pushed
        else:
            admissible[heads[path.pop() ^ 1]].pop()
        node = heads[path[-1]] if path else source


def min_cut(net: BroadcastNetwork, k: int) -> Cut:
    """Minimum-capacity cut for sink k via blocking flows (Dinitz).

    Each phase levels the residual graph breadth-first from the source and
    pushes a blocking flow along edges that go up one level
    (`_blocking_flow`); the phases end when the sink is out of reach.  The
    flow is integral: it runs on a copy of the network's flow graph, whose
    finite capacities are scaled once by their common denominator and
    whose unbounded arcs carry one unit more than the finite total.  Unless
    a path of unbounded arcs alone reaches the sink, the finite arcs form a
    cut, so the flow stays below that total and no unbounded arc
    saturates; such a path exists exactly when the flow reaches it.  Ties
    break to the source side: the cut consists of the arcs leaving the set
    of nodes reachable in the final residual graph, the least minimum
    source side, the same for every maximum flow.
    """
    target = _check_sink_index(net, k)
    shared, heads, edges, unbounded = net._flow_graph
    capacity = shared.copy()
    source, sink = net._index[net.source], net._index[target]

    flow = 0
    while True:
        # breadth-first over the residual graph, keeping each node's edges
        # that go up one level; once the sink is out of reach, the nodes
        # reached are the source side of a minimum cut
        level = [-1] * len(edges)
        level[source] = 0
        admissible: list = [()] * len(edges)
        queue = [source]
        for n in queue:
            up = level[n] + 1
            if up > level[sink] > 0:
                break  # nodes at the sink's level lead no shortest path on
            admissible[n] = ups = []
            for e in edges[n]:
                if capacity[e]:
                    m = heads[e]
                    if level[m] < 0:
                        level[m] = up
                        queue.append(m)
                        ups.append(e)
                    elif level[m] == up:
                        ups.append(e)
        if level[sink] < 0:
            break
        flow += _blocking_flow(capacity, heads, admissible, source, sink)

    if flow >= unbounded:
        raise InfeasibleCutError(
            f"sink {k} is reachable through unbounded arcs alone; no finite cut exists"
        )
    crossing = 0
    for n in queue:
        for bit, head in net._out[n]:
            if level[head] < 0:
                crossing |= bit
    cut = make_cut(net, ElementSet(net.arc_ground, crossing), k)
    # max-flow/min-cut equality is an internal consistency check, not user
    # input; flow / scale == capacity, cross-multiplied
    if flow * cut.capacity.denominator != cut.capacity.numerator * net._scale:
        raise AssertionError(
            f"max-flow {Fraction(flow, net._scale)} differs from cut capacity {cut.capacity}"
        )
    return cut


def cut_and_message_families(
    net: BroadcastNetwork, cuts: Sequence[Cut]
) -> tuple[SubsetFamily, SubsetFamily]:
    """Pair (A_1..A_K, I_1..I_K) ready for bound instantiation.

    Takes exactly one cut per sink, in any order; each is re-verified
    against this network before use.
    """
    if len(cuts) != net.K:
        raise ParameterError(f"expected one cut per sink ({net.K}), got {len(cuts)}")
    by_sink = {}
    for cut in cuts:
        if not isinstance(cut, Cut):
            raise ParameterError("cuts must be Cut instances")
        if cut.sink in by_sink:
            raise ParameterError(f"two cuts given for sink {cut.sink}")
        by_sink[cut.sink] = cut
    if set(by_sink) != set(range(1, net.K + 1)):
        raise ParameterError("cuts must cover sink indices 1..K exactly")
    for k in range(1, net.K + 1):
        cut = by_sink[k]
        if not is_cut(net, cut.arcs, k):
            raise CutVerificationError(f"cut for sink {k} fails verification")
    cut_family = SubsetFamily(
        net.arc_ground, tuple(by_sink[k].arcs for k in range(1, net.K + 1))
    )
    msg_family = SubsetFamily(
        net.message_ground, tuple(net.demand_set(k) for k in range(1, net.K + 1))
    )
    return cut_family, msg_family


def _subset_key(subset) -> tuple[int, ...]:
    """A capacity key's sink indices, sorted and distinct; every one must
    be an int, or the key would match no subset and drop its capacity."""
    try:
        members = tuple(subset)
    except TypeError:
        raise ParameterError(
            f"capacity subsets must be collections of sink indices, got {subset!r}"
        ) from None
    for i in members:
        _check_int(i, "a sink index")
    members = tuple(sorted(set(members)))
    if not members:
        raise ParameterError("capacity subsets must be nonempty")
    return members


def _subset_name(members: tuple[int, ...]) -> str:
    return "".join(str(i) for i in members)


def combination_network(
    K: int,
    caps: Mapping,
    demands: Mapping[int, Iterable[str]],
    messages: Optional[Sequence[str]] = None,
) -> BroadcastNetwork:
    """Three-layer network: source, one mixer node per capacitated subset, sinks.

    `caps` maps nonempty subsets of {1..K} to nonnegative rationals; zero or
    missing entries omit the mixer node entirely, so its arcs can never show
    up in a cut.  Mixer-to-sink delivery arcs are unbounded.
    """
    if not isinstance(K, int) or K < 1:
        raise ParameterError("K must be a positive integer")
    if K > 9:
        raise ParameterError(
            "combination networks support K <= 9: subsets are named by their "
            "digits, and {12} and {1,2} would share a name"
        )

    by_subset = {}
    for subset, value in caps.items():
        members = _subset_key(subset)
        if members[0] < 1 or members[-1] > K:
            raise ParameterError(f"subset {members} outside 1..{K}")
        if members in by_subset:
            raise ParameterError(f"duplicate capacity entry for subset {members}")
        cap = exact_rational(value, "an arc capacity")
        if cap.numerator < 0:
            raise ParameterError("subset capacities must be nonnegative")
        by_subset[members] = cap

    kept = []
    for size in range(1, K + 1):
        for members in combinations(range(1, K + 1), size):
            cap = by_subset.get(members, Fraction(0))
            if cap > 0:
                kept.append((members, cap))

    nodes = ["s"]
    arcs = []
    for members, cap in kept:
        name = _subset_name(members)
        nodes.append(f"v{name}")
        arcs.append(Arc(f"a{name}", "s", f"v{name}", cap))
    sink_nodes = [f"t{k}" for k in range(1, K + 1)]
    nodes.extend(sink_nodes)
    for members, _ in kept:
        name = _subset_name(members)
        for k in members:
            arcs.append(Arc(f"v{name}->t{k}", f"v{name}", f"t{k}", None))

    if messages is None:
        seen = []
        for k in sorted(demands):
            for label in demands[k]:
                if label not in seen:
                    seen.append(label)
        messages = seen

    return BroadcastNetwork(nodes, arcs, "s", sink_nodes, messages, demands)


def complete_combination_network(K: int, caps: Optional[Mapping] = None) -> BroadcastNetwork:
    """Combination network with one message per nonempty subset of sinks.

    Message W_U is demanded by exactly the sinks in U; capacities default
    to 1 on every subset.
    """
    if not isinstance(K, int) or K < 1:
        raise ParameterError("K must be a positive integer")
    subsets = [
        members
        for size in range(1, K + 1)
        for members in combinations(range(1, K + 1), size)
    ]
    if caps is None:
        caps = {members: 1 for members in subsets}
    messages = [f"W{_subset_name(members)}" for members in subsets]
    demands = {
        k: [f"W{_subset_name(members)}" for members in subsets if k in members]
        for k in range(1, K + 1)
    }
    return combination_network(K, caps, demands, messages=messages)


def symmetric_combination_network(K: int, c: Sequence) -> BroadcastNetwork:
    """Combination network with level capacities C_U = C_|U| and K+1 messages.

    Message W_0 is demanded by every sink; W_k only by sink k.
    """
    if not isinstance(K, int) or K < 1:
        raise ParameterError("K must be a positive integer")
    c = tuple(c)
    if len(c) != K:
        raise ParameterError(f"capacity list must have length {K}")
    caps = {
        members: c[size - 1]
        for size in range(1, K + 1)
        for members in combinations(range(1, K + 1), size)
    }
    messages = ["W0"] + [f"W{k}" for k in range(1, K + 1)]
    demands = {k: ["W0", f"W{k}"] for k in range(1, K + 1)}
    return combination_network(K, caps, demands, messages=messages)
