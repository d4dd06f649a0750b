"""The symmetric cut-set closed form against the projection it replaces.

`cli._symmetric_system(K, caps, "cutset")` writes the cut-set region of
the symmetric K-sink instance directly over (R0, Rsp), one row per union
size.  The reference below builds the same region the long way: one row
per sink subset over R0, R1..RK, then R1 folded into Rsp = R1 + .. + RK
with `substitute`, then R2..RK projected away by Fourier-Motzkin.  Both
must describe the same polygon.
"""

import itertools
import random
from fractions import Fraction as F
from math import comb

import pytest

from cutbounds import cli
from cutbounds.polytope import (
    LinearSystem,
    contains,
    project,
    substitute,
    vertices_2d,
)


def projected_cutset_system(K, caps):
    variables = ("R0",) + tuple(f"R{k}" for k in range(1, K + 1))
    rows = []
    for size in range(1, K + 1):
        rhs = sum(
            ((comb(K, i) - comb(K - size, i)) * caps[i - 1] for i in range(1, K + 1)),
            F(0),
        )
        for subset in itertools.combinations(range(1, K + 1), size):
            coeffs = {"R0": 1}
            coeffs.update({f"R{k}": 1 for k in subset})
            rows.append((coeffs, rhs))
    system = LinearSystem.from_rows(variables, rows)
    expression = {"Rsp": F(1)}
    expression.update({f"R{k}": F(-1) for k in range(2, K + 1)})
    folded = substitute(system, "R1", expression)
    return project(folded, ("R0", "Rsp"))


def capacity_cases():
    rng = random.Random(6)
    for K in range(1, 7):
        yield K, "unit", [F(1)] * K
        yield K, "rational", [F(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(K)]
        zeros = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(K)]
        for i in rng.sample(range(K), (K + 1) // 2):
            zeros[i] = F(0)
        yield K, "zeros", zeros


@pytest.mark.parametrize(
    "K, caps",
    [pytest.param(K, caps, id=f"K{K}-{kind}") for K, kind, caps in capacity_cases()],
)
def test_closed_form_matches_the_projection(K, caps):
    closed = cli._symmetric_system(K, caps, "cutset")
    reference = projected_cutset_system(K, caps)
    assert closed.variables == reference.variables == ("R0", "Rsp")
    assert vertices_2d(closed) == vertices_2d(reference)
    assert contains(closed, reference)
    assert contains(reference, closed)
    gcsb = cli._symmetric_system(K, caps, "gcsb")
    assert contains(gcsb, closed) == contains(gcsb, reference)
    assert contains(closed, gcsb) == contains(reference, gcsb)


def test_cases_separate_the_two_families():
    # the gcsb verdicts above would be idle if every case gave the same one
    verdicts = {
        contains(cli._symmetric_system(K, caps, "gcsb"),
                 cli._symmetric_system(K, caps, "cutset"))
        for K, _, caps in capacity_cases()
    }
    assert verdicts == {True, False}
