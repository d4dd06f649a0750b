"""The paper's tightness claim on symmetric combination networks.

In the symmetric instance every mixer U carries capacity c_|U|, W0 is
demanded by every sink and Wk by sink k alone.  Split each mixer among the
messages, x[W, U] >= 0 with sum_W x[W, U] <= c_|U|, and send each message
by an MDS code over the mixers: sink k reads every mixer U containing k, so
it decodes W0 at rate R0 and Wk at rate Rsp/K when

    sum_{U containing k} x[W0, U] >= R0   and   sum_{U containing k} x[Wk, U] >= Rsp/K.

A point (R0, Rsp) is achievable when this routing system is feasible.
Every vertex of the gcsb slice is, so the gcsb slice is the routing region;
the cut-set slice has a vertex routing cannot reach once K >= 3.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from cutbounds import cli
from cutbounds.polytope import LinearSystem, feasible, vertices_2d


def routable(K, caps, r0, rsp):
    """Is (R0, Rsp), with every Rk = Rsp/K, feasible for MDS routing?"""
    subsets = [
        "".join(map(str, members))
        for size in range(1, K + 1)
        for members in itertools.combinations(range(1, K + 1), size)
    ]
    messages = range(K + 1)  # 0 is the common message W0

    def x(w, u):
        return f"x{w}_{u}"

    rows = [({x(w, u): 1 for w in messages}, caps[len(u) - 1]) for u in subsets]
    for k in range(1, K + 1):
        mixers = [u for u in subsets if str(k) in u]
        rows.append(({x(0, u): -1 for u in mixers}, -r0))
        rows.append(({x(k, u): -1 for u in mixers}, -rsp / K))
    variables = [x(w, u) for w in messages for u in subsets]
    return feasible(LinearSystem.from_rows(variables, rows))


def capacity_cases(K):
    rng = random.Random(K)
    draws = [[F(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(K)] for _ in range(3)]
    return [[F(1)] * K] + draws


@pytest.mark.parametrize("K", [2, 3, 4])
def test_every_gcsb_vertex_is_routable(K):
    for caps in capacity_cases(K):
        vertices = vertices_2d(cli._symmetric_system(K, caps, "gcsb"))
        assert len(vertices) >= 3
        for r0, rsp in vertices:
            assert routable(K, caps, r0, rsp), (caps, r0, rsp)
            if (r0, rsp) != (0, 0):
                # one percent further out leaves the outer bound, so the
                # routing system must refuse it
                assert not routable(K, caps, r0 * F(101, 100), rsp * F(101, 100))


@pytest.mark.parametrize("K", [2, 3, 4])
def test_cutset_slice_is_loose_from_three_sinks(K):
    for caps in capacity_cases(K):
        vertices = vertices_2d(cli._symmetric_system(K, caps, "cutset"))
        reached = [routable(K, caps, r0, rsp) for r0, rsp in vertices]
        if K == 2:
            assert all(reached), caps
        else:
            assert not all(reached), caps
