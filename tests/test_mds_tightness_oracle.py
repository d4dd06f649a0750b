"""The bound rules are tight on complete three-sink combination networks.

On the complete network with K = 3 every nonempty sink subset U has one
mixer of capacity c_U and one message W_U, demanded by the sinks in U.
Routing each message by an MDS code over the mixers is achievable: split
each mixer among the messages, x[m, U] >= 0 with sum_m x[m, U] <= c_U, and
sink k decodes W_m at rate R_m when sum_{U containing k} x[m, U] >= R_m.

The support value max d.R of the outer bound (every rule's rows on the
minimum cuts, plus R >= 0) must equal that of the routing region in every
direction d, each computed exactly by `polytope._dual_lp`.  The plain
cut-set bound alone must be strictly looser in some direction, or the
check would hold for any outer bound.
"""

import itertools
import random
from fractions import Fraction

import pytest

from cutbounds.bounds import BOUND_RULES, bound_rows
from cutbounds.network import complete_combination_network, cut_and_message_families, min_cut
from cutbounds.polytope import Row, _dual_lp

K = 3
SUBSETS = [s for size in range(1, K + 1) for s in itertools.combinations(range(1, K + 1), size)]


def outer_value(rows, messages, d):
    system = [Row([row.rate_coeffs.get(m, 0) for m in messages], row.rhs_value) for row in rows]
    system += [Row([-(i == j) for j in range(len(messages))], 0) for i in range(len(messages))]
    return _dual_lp(system, d)


def routing_value(caps, messages, d):
    """max d.R over the MDS routing region; variables R then x[m, U]."""
    n, width = len(messages), len(messages) * (1 + len(SUBSETS))

    def x(m, u):
        return n + m * len(SUBSETS) + u

    def row(entries, rhs):
        coeffs = [0] * width
        for i, v in entries:
            coeffs[i] += v
        return Row(coeffs, rhs)

    system = [row([(i, -1)], 0) for i in range(width)]
    for u, members in enumerate(SUBSETS):
        system.append(row([(x(m, u), 1) for m in range(n)], caps[members]))
    for m, demanders in enumerate(SUBSETS):
        for k in demanders:
            system.append(
                row([(m, 1)] + [(x(m, u), -1) for u, s in enumerate(SUBSETS) if k in s], 0)
            )
    return _dual_lp(system, list(d) + [0] * (width - n))


@pytest.mark.parametrize("seed", [0, 1])
def test_outer_bound_equals_mds_routing(seed):
    rng = random.Random(seed)
    caps = {s: Fraction(rng.randint(1, 6), rng.randint(1, 4)) for s in SUBSETS}
    net = complete_combination_network(K, caps)
    families = cut_and_message_families(net, [min_cut(net, k) for k in range(1, K + 1)])
    capacities = {arc.label: arc.capacity for arc in net.arcs}
    messages = list(net.messages)
    every_rule = bound_rows(BOUND_RULES, *families, capacities)
    cutset = bound_rows(("csb",), *families, capacities)

    directions = [[rng.randint(0, 5) for _ in messages] for _ in range(30)]
    directions += [[row.rate_coeffs.get(m, 0) for m in messages] for row in every_rule]
    looser = 0
    for d in directions:
        value = outer_value(every_rule, messages, d)
        assert isinstance(value, Fraction)
        assert value == routing_value(caps, messages, d), (caps, d)
        looser += outer_value(cutset, messages, d) > value
    assert looser > 0
