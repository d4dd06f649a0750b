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
from collections import deque
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
)
from .setcalc import FAMILY_CAP_REASON, MAX_FAMILY, ElementSet, GroundSet, SubsetFamily

Capacity = Optional[Fraction]


def _exact_capacity(value) -> Fraction:
    """A capacity as a Fraction, a Fraction kept as it is; ParameterError
    for anything that is not a finite rational (NaN, infinities, text)."""
    if type(value) is Fraction:
        return value
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ParameterError(f"invalid arc capacity {value!r}") from None


def _coerce_capacity(value) -> Capacity:
    if value is None:
        return None
    cap = _exact_capacity(value)
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
        for field in (self.label, self.tail, self.head):
            if not isinstance(field, str) or not field:
                raise ParameterError("arc label and endpoints must be nonempty strings")
        if self.tail == self.head:
            raise ParameterError(f"arc {self.label!r} is a self-loop")
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
        if not self.nodes or len(set(self.nodes)) != len(self.nodes):
            raise ParameterError("nodes must be nonempty and distinct")
        node_set = set(self.nodes)

        self.arcs = tuple(arcs)
        if not self.arcs:
            raise ParameterError("a network needs at least one arc")
        if not all(isinstance(a, Arc) for a in self.arcs):
            raise ParameterError("arcs must be Arc instances")
        labels = [a.label for a in self.arcs]
        if len(set(labels)) != len(labels):
            raise ParameterError("arc labels must be distinct")
        for a in self.arcs:
            if a.tail not in node_set or a.head not in node_set:
                raise ParameterError(f"arc {a.label!r} references an unknown node")

        if source not in node_set:
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
            if t not in node_set:
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
        msg_set = set(self.messages)
        cleaned = {}
        for k in sorted(demands):
            dem = frozenset(demands[k])
            if not dem:
                raise ParameterError(f"sink {k} demands no messages")
            unknown = dem - msg_set
            if unknown:
                raise ParameterError(f"sink {k} demands unknown messages {sorted(unknown)}")
            cleaned[k] = dem
        self.demands = cleaned

        # each node's outgoing arcs as (bit of the arc's position, head)
        self._out = {n: [] for n in self.nodes}
        for i, a in enumerate(self.arcs):
            self._out[a.tail].append((1 << i, a.head))
        self._check_acyclic()

        reachable = self._reachable(0)
        for k, t in enumerate(self.sinks, start=1):
            if t not in reachable:
                raise ParameterError(f"sink t_{k} ({t!r}) not reachable from the source")

        self.arc_ground = GroundSet(len(self.arcs), tuple(labels))
        self.message_ground = GroundSet(len(self.messages), self.messages)
        self._by_label = {a.label: a for a in self.arcs}

        # the one scaling of the capacities: each finite capacity as an int
        # over their common denominator, None for an unbounded arc
        caps = [a.capacity for a in self.arcs]
        self._scale = lcm(*(c.denominator for c in caps if c is not None))
        self._units = tuple(
            None if c is None else c.numerator * (self._scale // c.denominator)
            for c in caps
        )

    @property
    def K(self) -> int:
        return len(self.sinks)

    def arc_subset(self, labels: Iterable[str]) -> ElementSet:
        return self.arc_ground.subset_of_labels(labels)

    def message_subset(self, labels: Iterable[str]) -> ElementSet:
        return self.message_ground.subset_of_labels(labels)

    def demand_set(self, k: int) -> ElementSet:
        return self.message_subset(sorted(self.demands[k], key=self.messages.index))

    def arc(self, label: str) -> Arc:
        try:
            return self._by_label[label]
        except KeyError:
            raise ParameterError(f"unknown arc label {label!r}") from None

    @functools.cached_property
    def _flow_graph(self) -> tuple:
        """(residual, neighbours, unbounded) for min_cut, built on its first
        call: the residual capacity of every arc and reverse arc in scaled
        units, each node's residual neighbours, and the unit count of an
        unbounded arc, one above the finite total.  min_cut works on a copy
        of `residual`; the neighbour lists are only read."""
        unbounded = sum(u for u in self._units if u is not None) + 1
        residual: dict = {}
        neighbours = {n: [] for n in self.nodes}
        for a, u in zip(self.arcs, self._units):
            for tail, head in ((a.tail, a.head), (a.head, a.tail)):
                if (tail, head) not in residual:
                    residual[tail, head] = 0
                    neighbours[tail].append(head)
            residual[a.tail, a.head] += unbounded if u is None else u
        return residual, neighbours, unbounded

    def _check_acyclic(self) -> None:
        indeg = {n: 0 for n in self.nodes}
        for a in self.arcs:
            indeg[a.head] += 1
        queue = deque(n for n in self.nodes if indeg[n] == 0)
        seen = 0
        while queue:
            n = queue.popleft()
            seen += 1
            for _, head in self._out[n]:
                indeg[head] -= 1
                if indeg[head] == 0:
                    queue.append(head)
        if seen != len(self.nodes):
            raise ParameterError("network graph contains a directed cycle")

    def _reachable(self, removed: int) -> set:
        """Nodes reachable from the source when the arcs in mask `removed` are gone."""
        seen = {self.source}
        queue = deque([self.source])
        while queue:
            n = queue.popleft()
            for bit, head in self._out[n]:
                if bit & removed or head in seen:
                    continue
                seen.add(head)
                queue.append(head)
        return seen


def _check_sink_index(net: BroadcastNetwork, k: int) -> str:
    if not isinstance(k, int) or not 1 <= k <= net.K:
        raise ParameterError(f"sink index {k!r} outside 1..{net.K}")
    return net.sinks[k - 1]


def is_cut(net: BroadcastNetwork, arcs: ElementSet, k: int) -> bool:
    """True iff no directed source-to-sink-k path survives removing `arcs`."""
    target = _check_sink_index(net, k)
    if not isinstance(arcs, ElementSet) or arcs.ground != net.arc_ground:
        raise GroundMismatchError("arc set does not live over this network's arcs")
    return target not in net._reachable(arcs.mask)


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


def min_cut(net: BroadcastNetwork, k: int) -> Cut:
    """Minimum-capacity cut for sink k via shortest augmenting paths.

    The flow is integral: it runs on a copy of the network's flow graph,
    whose finite capacities are scaled once by their common denominator and
    whose unbounded arcs carry one unit more than the finite total.  Unless a path of unbounded arcs alone reaches the sink, the
    finite arcs form a cut, so the flow stays below that total and no
    unbounded arc saturates; such a path exists exactly when the flow
    reaches it.  Ties break to the source side: the cut consists of the
    arcs leaving the set of nodes reachable in the final residual graph.
    """
    target = _check_sink_index(net, k)
    shared, neighbours, unbounded = net._flow_graph
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
    members = tuple(sorted(set(subset)))
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
        cap = _exact_capacity(value)
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
