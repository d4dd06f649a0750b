"""Every level, count and split position the library takes is an integer.

One table over the entry points that check one: each refuses 1.5, 2.0 and
"1" with `ParameterError` and the one text of `setcalc._check_int`, takes a
bool as an int, and gives the pinned result for an in-range int.
"""

from fractions import Fraction

import pytest

from cutbounds.bounds import (
    BoundInequality,
    BoundTerm,
    alpha,
    alpha_beta_identity,
    beta,
    gcsbK,
    union_tail_bound,
)
from cutbounds.errors import ParameterError
from cutbounds.setcalc import GroundSet, SubsetFamily, intersect_level
from cutbounds.setfn import SetFunction, cross_level_gap, prefix_multiway_gap

GROUND = GroundSet(3, labels=("a", "b", "c"))
FAMILY = SubsetFamily(GROUND, (GROUND.subset([0, 1]), GROUND.subset([1, 2])))
F = SetFunction.modular(GROUND, (1, 2, 4))

# the complete three-sink network's families: element k of either ground is
# held by the sinks whose bits are set in k + 1
K3 = GroundSet(7)
K3_FAMILY = SubsetFamily(
    K3, tuple(K3.subset([e for e in range(7) if (e + 1) >> k & 1]) for k in range(3))
)


def thm2(r_q_map):
    return gcsbK([1, 2, 3], Q={2, 3}, r_q_map=r_q_map, cut_family=K3_FAMILY, msg_family=K3_FAMILY)


# (name in the text, call of one argument, an in-range int, its result)
CASES = [
    ("m", lambda v: union_tail_bound([1, 2, 3], v).terms, 1,
     (BoundTerm(1, frozenset({1, 2, 3}), 1), BoundTerm(2, frozenset({1, 2, 3}), 1),
      BoundTerm(3, frozenset({1, 2, 3}), 1))),
    ("count", lambda v: prefix_multiway_gap(F, FAMILY, 0, v), 1, 0),
    ("cutoff", lambda v: prefix_multiway_gap(F, FAMILY, v, 2), 1, 0),
    ("u_level", lambda v: cross_level_gap(F, FAMILY, [1, 2], [1, 2], v, 1), 1, 0),
    ("t_prefix", lambda v: cross_level_gap(F, FAMILY, [1, 2], [1, 2], 2, v), 1, 0),
    ("level", lambda v: alpha([2, 3], 3, v), 1, Fraction(1)),
    ("q", lambda v: alpha([2, 3], v, 1), 2, Fraction(1)),
    ("split position", lambda v: alpha([2, 3], 3, 1, v), 1, Fraction(1)),
    ("level", lambda v: beta([2, 3], v), 1, Fraction(6)),
    ("level", lambda v: alpha_beta_identity([3], v), 1, True),
    ("split position for 3", lambda v: thm2({3: v}).terms, 1, (BoundTerm(1, frozenset({1, 2, 3}), 1),)),
    ("split point", lambda v: thm2({v: 1}).terms, 2, (BoundTerm(1, frozenset({1, 2, 3}), 1),)),
    ("level", lambda v: BoundInequality.build([BoundTerm(v, {1, 2}, 1)]).terms, 1,
     (BoundTerm(1, frozenset({1, 2}), 1),)),
    ("level", lambda v: FAMILY.level_labels(v, {1, 2}), 1, ("a", "b", "c")),
    ("level", lambda v: intersect_level(FAMILY, {1, 2}, v).member_labels(), 1, ("a", "b", "c")),
]
IDS = [f"{i}-{name}" for i, (name, *_) in enumerate(CASES)]


@pytest.mark.parametrize("name, call, good, expected", CASES, ids=IDS)
@pytest.mark.parametrize("value", [1.5, 2.0, "1"])
def test_refuses_a_non_int(name, call, good, expected, value):
    with pytest.raises(ParameterError) as info:
        call(value)
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("name, call, good, expected", CASES, ids=IDS)
def test_takes_an_int_and_a_bool(name, call, good, expected):
    assert call(good) == expected
    if good == 1:
        assert call(True) == expected


@pytest.mark.parametrize("value", [1, True])
def test_a_bool_is_stored_as_its_int(value):
    assert thm2({3: value}).provenance == "thm2(G={1,2,3}, U={1,2,3}, T={1,2,3}, Q={2,3}, r_q={2:1,3:1})"
    (term,) = BoundInequality.build([BoundTerm(value, {1, 2}, 1)]).terms
    assert type(term.level) is int
