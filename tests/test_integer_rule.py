"""Every integer the library takes from its caller goes through one check.

Levels, counts, split points and positions, ground sizes, element
positions, masks, sink indices and sink counts are all checked by
`setcalc._check_int`.  One table over the entry points that check one:
each refuses 1.5, 2.0 and "1" with `ParameterError` and the one text of
`_check_int`, takes a bool as an int, and gives the pinned result for an
in-range int.  A second table pins the range texts, a third the texts
that show a number past the interpreter's digit limit, and an AST test
keeps the type check itself in that one function.
"""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cutbounds.bounds import (
    BoundInequality,
    BoundTerm,
    alpha,
    alpha_beta_identity,
    beta,
    beta_bound,
    cutset_bound,
    enumerate_bounds,
    gcsb3,
    gcsbK,
    union_tail_bound,
)
from cutbounds.errors import ParameterError
from cutbounds.network import (
    combination_network,
    complete_combination_network,
    min_cut,
    symmetric_combination_network,
)
from cutbounds.polytope import corner_points_symmetric
from cutbounds.setcalc import (
    ElementSet,
    GroundSet,
    SubsetFamily,
    intersect_level,
    prefix_extension_identity,
)
from cutbounds.setfn import SetFunction, cross_level_gap, multiway_gap, prefix_multiway_gap

GROUND = GroundSet(3, labels=("a", "b", "c"))
FAMILY = SubsetFamily(GROUND, (GROUND.subset([0, 1]), GROUND.subset([1, 2])))
F = SetFunction.modular(GROUND, (1, 2, 4))
NET = complete_combination_network(2)
DEMANDS = {1: ["W"], 2: ["W"]}

# the complete three-sink network's families: element k of either ground is
# held by the sinks whose bits are set in k + 1
K3 = GroundSet(7)
K3_FAMILY = SubsetFamily(
    K3, tuple(K3.subset([e for e in range(7) if (e + 1) >> k & 1]) for k in range(3))
)
UNION_TO_TOP = tuple(BoundTerm(r, frozenset({1, 2, 3}), 1) for r in (1, 2, 3))


def thm2(r_q_map):
    return gcsbK([1, 2, 3], Q={2, 3}, r_q_map=r_q_map, cut_family=K3_FAMILY, msg_family=K3_FAMILY)


def general(G, U=None, T=None):
    return gcsbK(G, U, T, cut_family=K3_FAMILY, msg_family=K3_FAMILY)


# (name in the text, call of one argument, an in-range int, its result)
CASES = [
    # levels, counts, split points and split positions
    ("m", lambda v: union_tail_bound([1, 2, 3], v).terms, 1, UNION_TO_TOP),
    ("count", lambda v: prefix_multiway_gap(F, FAMILY, 0, v), 1, 0),
    ("cutoff", lambda v: prefix_multiway_gap(F, FAMILY, v, 2), 1, 0),
    ("u_level", lambda v: cross_level_gap(F, FAMILY, [1, 2], [1, 2], v, 1), 1, 0),
    ("t_prefix", lambda v: cross_level_gap(F, FAMILY, [1, 2], [1, 2], 2, v), 1, 0),
    ("level", lambda v: alpha([2, 3], 3, v), 1, Fraction(1)),
    ("q", lambda v: alpha([2, 3], v, 1), 2, Fraction(1)),
    ("split position", lambda v: alpha([2, 3], 3, 1, v), 1, Fraction(1)),
    ("level", lambda v: beta([2, 3], v), 1, Fraction(6)),
    ("split point", lambda v: beta([v, 3], 1), 2, Fraction(6)),
    ("level", lambda v: alpha_beta_identity([3], v), 1, True),
    ("split position for 3", lambda v: thm2({3: v}).terms, 1, (BoundTerm(1, frozenset({1, 2, 3}), 1),)),
    ("split point", lambda v: thm2({v: 1}).terms, 2, (BoundTerm(1, frozenset({1, 2, 3}), 1),)),
    ("level", lambda v: BoundInequality.build([BoundTerm(v, {1, 2}, 1)]).terms, 1,
     (BoundTerm(1, frozenset({1, 2}), 1),)),
    ("level", lambda v: FAMILY.level_labels(v, {1, 2}), 1, ("a", "b", "c")),
    ("level", lambda v: intersect_level(FAMILY, {1, 2}, v).member_labels(), 1, ("a", "b", "c")),
    # ground sizes, positions and masks
    ("ground size", lambda v: GroundSet(v).full_mask, 1, 1),
    ("position", lambda v: GROUND.label(v), 1, "b"),
    ("element", lambda v: GROUND.subset([v]).member_labels(), 1, ("b",)),
    ("mask", lambda v: ElementSet(GROUND, v).member_labels(), 1, ("a",)),
    # sink indices, each named by the set that holds it
    ("an index in the sink set", lambda v: cutset_bound({v, 2}).provenance, 1, "csb({1,2})"),
    ("an index in the sink set", lambda v: gcsb3(v, 2, 3, "a").provenance, 1, "gcsb3a(1,2,3)"),
    ("an index in the sink set", lambda v: beta_bound([v, 2], ()).provenance, 1, "cor2({1,2}, Q={})"),
    ("an index in the sink set", lambda v: union_tail_bound([v, 2], 1).provenance, 1,
     "cor3({1,2}, m=1)"),
    ("an index in a term's sink set", lambda v: BoundInequality.build([BoundTerm(1, {v, 2}, 1)]).terms,
     1, (BoundTerm(1, frozenset({1, 2}), 1),)),
    ("an index in G", lambda v: general([v, 2, 3]).provenance, 1,
     "thm2(G={1,2,3}, U={1,2,3}, T={1,2,3}, Q={})"),
    ("an index in U", lambda v: general([1, 2, 3], [v, 2, 3]).provenance, 1,
     "thm2(G={1,2,3}, U={1,2,3}, T={1,2,3}, Q={})"),
    ("an index in T", lambda v: general([1, 2, 3], None, [v, 2, 3]).provenance, 1,
     "thm2(G={1,2,3}, U={1,2,3}, T={1,2,3}, Q={})"),
    ("an index in the index set", lambda v: multiway_gap(F, FAMILY, [v, 2]), 1, 0),
    ("an index in U", lambda v: cross_level_gap(F, FAMILY, [v], [1, 2], 1, 1), 1, 0),
    ("an index in the index set", lambda v: intersect_level(FAMILY, {v}, 1).member_labels(), 1,
     ("a", "b")),
    ("sink index", lambda v: NET.demand_set(v).member_labels(), 1, ("W1", "W12")),
    ("sink index", lambda v: (min_cut(NET, v).sink, min_cut(NET, v).capacity), 1, (1, 2)),
    ("an index in a capacity key",
     lambda v: [a.capacity for a in combination_network(2, {(v,): 7, (2,): 1}, DEMANDS).arcs[:2]],
     1, [7, 1]),
    # sink counts
    ("the sink count", lambda v: len(enumerate_bounds(v, ["csb"])), 1, 1),
    ("the sink count", lambda v: combination_network(v, {(1,): 1}, {1: ["W"]}).K, 1, 1),
    ("the sink count", lambda v: complete_combination_network(v).messages, 1, ("W1",)),
    ("the sink count", lambda v: symmetric_combination_network(v, [1]).messages, 1, ("W0", "W1")),
    ("the sink count", lambda v: corner_points_symmetric(v, [1]), 1, [(1, 0), (0, 1)]),
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


# (the full text, a call that gives it)
RANGES = [
    ("split point must be at least 2, got 1", lambda: beta([1, 3], 1)),
    ("split position must be at least 1, got 0", lambda: alpha([2, 3], 3, 1, 0)),
    ("level must be at least 1, got 0", lambda: beta([2, 3], 0)),
    ("ground size must be at least 1, got 0", lambda: GroundSet(0)),
    ("position must be between 0 and 2, got 3", lambda: GROUND.label(3)),
    ("element must be between 0 and 2, got -1", lambda: GROUND.subset([-1])),
    ("mask must be between 0 and 7, got 8", lambda: ElementSet(GROUND, 8)),
    ("cutoff must be between 0 and 1, got 2", lambda: prefix_multiway_gap(F, FAMILY, 2, 1)),
    ("an index in the sink set must be between 1 and 16, got 17", lambda: cutset_bound({17})),
    ("an index in a term's sink set must be between 1 and 16, got 0",
     lambda: BoundInequality.build([BoundTerm(1, {0}, 1)])),
    ("an index in the index set must be between 1 and 2, got 3", lambda: multiway_gap(F, FAMILY, [3])),
    ("sink index must be between 1 and 2, got 3", lambda: NET.demand_set(3)),
    ("an index in a capacity key must be between 1 and 2, got 3",
     lambda: combination_network(2, {(3,): 1}, DEMANDS)),
    ("the sink set must be nonempty", lambda: cutset_bound(())),
    ("the sink set must be a collection of integers, got 1", lambda: cutset_bound(1)),
    ("three distinct sink indices are required", lambda: gcsb3(1, 1, 2, "a")),
    ("the sink count must be at least 1, got 0", lambda: enumerate_bounds(0, ["csb"])),
    ("the sink count must be at least 1, got -1", lambda: complete_combination_network(-1)),
]


@pytest.mark.parametrize("text, call", RANGES, ids=[text for text, _ in RANGES])
def test_range_texts(text, call):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == text


def test_a_bool_index_is_stored_as_its_int():
    """A bool index names the sink of its int, in provenance and in the
    stored frozenset; `gcsb3("1", ...)` is refused, not a raw TypeError
    from comparing a str."""
    assert cutset_bound({True, 2}).provenance == "csb({1,2})"
    with pytest.raises(ParameterError, match="^an index in the sink set must be an integer, got '1'$"):
        gcsb3("1", 2, 3, "a")
    (term,) = BoundInequality.build([BoundTerm(1, {True, 2}, 1)]).terms
    assert {type(i) for i in term.indices} == {int}
    assert type(min_cut(NET, True).sink) is int


@pytest.mark.parametrize("value", [1, True])
def test_a_bool_is_stored_as_its_int(value):
    assert thm2({3: value}).provenance == "thm2(G={1,2,3}, U={1,2,3}, T={1,2,3}, Q={2,3}, r_q={2:1,3:1})"
    (term,) = BoundInequality.build([BoundTerm(value, {1, 2}, 1)]).terms
    assert type(term.level) is int
    assert union_tail_bound([1, 2], value).provenance == "cor3({1,2}, m=1)"


HUGE = 10**5000
# `str()` of HUGE raises ValueError, so a text shows it by the digit limit
PAST = f"a number with more than {sys.get_int_max_str_digits()} digits"
# (the full text, a call that gives it)
PAST_THE_LIMIT = [
    (f"position must be between 0 and 0, got {PAST}", lambda: GroundSet(1).label(HUGE)),
    (f"position must be an integer, got {PAST}", lambda: GroundSet(1).label(Fraction(HUGE))),
    (f"level must be at least 1, got {PAST}", lambda: beta([2, 3], -HUGE)),
    (f"mask must be between 0 and {PAST}, got -1", lambda: ElementSet(GroundSet(20000), -1)),
    (f"level must be between 1 and {PAST}, got {PAST}", lambda: alpha([2, 3], 3, HUGE + 1, HUGE)),
    (f"the sink count must be at most 16, got {PAST}: the bound rules walk up to 2^K - 1 sink subsets",
     lambda: complete_combination_network(HUGE)),
    (f"an index in G must be between 1 and 3, got {PAST}", lambda: general([HUGE])),
    (f"the sink set must be a collection of integers, got {PAST}", lambda: cutset_bound(HUGE)),
    (f"need 0 < cutoff < count <= 2, got cutoff={PAST} count=2",
     lambda: prefix_extension_identity(FAMILY, HUGE, 2)),
    (f"{PAST} is not one of the split points (2, 3)", lambda: alpha([2, 3], HUGE, 1)),
    (f"3 is not one of the split points (2, {PAST})", lambda: alpha([2, HUGE], 3, 1)),
    (f"split position given for {PAST}, which is not in Q", lambda: thm2({HUGE: 1})),
]


@pytest.mark.parametrize("text, call", PAST_THE_LIMIT, ids=[str(i) for i in range(len(PAST_THE_LIMIT))])
def test_a_number_past_the_digit_limit_is_described_by_it(text, call):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == text


def _int_checks(tree: ast.Module) -> list:
    """The qualified names of the functions that call `isinstance(x, int)`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Name)
            and node.args[1].id == "int"
        ):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_one_integer_type_check():
    """`isinstance(x, int)` appears in the package only where it decides
    whether a caller's value is an integer (`_check_int`), where a
    non-int means no (`ElementSet.__contains__`), and where argparse's
    exit code is read (`cli.main`)."""
    package = Path(__file__).resolve().parent.parent / "src" / "cutbounds"
    found = sorted(
        f"{path.stem}.{name}"
        for path in package.glob("*.py")
        for name in _int_checks(ast.parse(path.read_text()))
    )
    assert found == ["cli.main", "setcalc.ElementSet.__contains__", "setcalc._check_int"]
