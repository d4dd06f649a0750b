"""Tests for exact linear-inequality systems and their projections.

The three-row projection oracle was derived by hand: substituting
R1 = Rsp - R2 - R3 into the seven two-sink/three-sink cut rows and
eliminating R2, R3 must leave exactly

    3 R0 +   Rsp <= 3 C1 + 6 C2 + 3 C3
    2 R0 +   Rsp <= 3 C1 + 5 C2 + 2 C3
      R0 +   Rsp <= 3 C1 + 3 C2 +   C3

with every other combination row removed as redundant.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from cutbounds.errors import ParameterError, UnboundedRegionError
from cutbounds.polytope import (
    LinearSystem,
    Row,
    _dual_lp,
    canonicalize,
    contains,
    corner_points_symmetric,
    feasible,
    format_rational,
    fourier_motzkin,
    parse_rational,
    project,
    satisfies,
    substitute,
    vertices_2d,
)

F = Fraction


def sys_of(variables, rows, nonneg=None):
    return LinearSystem.from_rows(variables, rows, nonneg=nonneg)


def cutset_k3_symbolic():
    """Seven cut rows for three sinks with symbolic level capacities."""
    variables = ("R0", "R1", "R2", "R3", "C1", "C2", "C3")
    d = {1: (1, 2, 1), 2: (2, 3, 1), 3: (3, 3, 1)}
    rows = []
    for size in (1, 2, 3):
        for subset in itertools.combinations((1, 2, 3), size):
            coeffs = {"R0": 1}
            for k in subset:
                coeffs[f"R{k}"] = 1
            for i, c in enumerate(d[size], start=1):
                coeffs[f"C{i}"] = -c
            rows.append((coeffs, 0))
    return sys_of(variables, rows)


def cnk1_system(K, caps):
    """Rows K*R0 + m*Rsp <= sum_i max(m,i)*binom(K,i)*C_i for m = 1..K."""
    rows = []
    for m in range(1, K + 1):
        rhs = sum(max(m, i) * comb(K, i) * F(caps[i - 1]) for i in range(1, K + 1))
        rows.append(({"R0": K, "Rsp": m}, rhs))
    return sys_of(("R0", "Rsp"), rows)


def unit_cutset_region():
    return sys_of(
        ("R0", "Rsp"),
        [
            ({"R0": 3, "Rsp": 1}, 12),
            ({"R0": 2, "Rsp": 1}, 10),
            ({"R0": 1, "Rsp": 1}, 7),
        ],
    )


class TestCanonicalize:
    def test_denominators_cleared_and_gcd_divided(self):
        sys = sys_of(("x", "y"), [({"x": F(1, 2), "y": F(1, 3)}, F(5, 6))])
        out = canonicalize(sys)
        assert out.rows == (Row((F(3), F(2)), F(5)),)

    def test_positive_multiples_merge(self):
        sys = sys_of(("x", "y"), [({"x": 1, "y": 1}, 1), ({"x": 2, "y": 2}, 2)])
        assert len(canonicalize(sys).rows) == 1

    def test_opposite_rows_do_not_merge(self):
        sys = sys_of(("x",), [({"x": 1}, 1), ({"x": -1}, 0)], nonneg={"x": False})
        assert len(canonicalize(sys).rows) == 2

    def test_trivially_true_rows_dropped(self):
        sys = sys_of(("x",), [({}, 5), ({"x": 1}, 1)])
        out = canonicalize(sys)
        assert len(out.rows) == 1
        # a row that nonnegativity alone makes true is dropped too
        sys2 = sys_of(("x", "y"), [({"x": -1, "y": -2}, 0), ({"x": 1}, 1)])
        assert len(canonicalize(sys2).rows) == 1

    def test_zero_row_with_negative_rhs_flags_infeasible(self):
        sys = sys_of(("x",), [({}, -1)])
        out = canonicalize(sys)
        assert out.infeasible
        assert not feasible(out)

    def test_rows_sorted_deterministically(self):
        rows = [({"x": 2, "y": 1}, 3), ({"x": 1, "y": 2}, 3)]
        a = canonicalize(sys_of(("x", "y"), rows))
        b = canonicalize(sys_of(("x", "y"), rows[::-1]))
        assert a == b

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParameterError):
            sys_of(("x",), [({"y": 1}, 0)])


class TestFeasible:
    def test_box_is_feasible(self):
        assert feasible(sys_of(("x", "y"), [({"x": 1}, 1), ({"y": 1}, 1)]))

    def test_conflict_with_nonnegativity(self):
        assert not feasible(sys_of(("x",), [({"x": 1}, -1)]))

    def test_free_variable_allows_negative(self):
        assert feasible(sys_of(("x",), [({"x": 1}, -1)], nonneg={"x": False}))

    def test_seven_variables_and_twenty_three_rows(self):
        # the first system random.Random(3) draws with 6-9 variables, 14-24
        # rows, coefficients in -2..2 and right-hand sides in 0..6
        rng = random.Random(3)
        n, m = rng.randint(6, 9), rng.randint(14, 24)
        names = [f"x{j}" for j in range(n)]
        rows = [
            ({v: rng.randint(-2, 2) for v in names}, rng.randint(0, 6))
            for _ in range(m)
        ]
        sys = sys_of(names, rows)
        assert (n, m) == (7, 23)
        assert satisfies(sys, dict.fromkeys(names, 0))
        assert feasible(sys)

    def test_sandwich_infeasible(self):
        sys = sys_of(
            ("x", "y"),
            [({"x": 1, "y": 1}, 1), ({"x": -1, "y": -1}, -2)],
            nonneg={"x": False, "y": False},
        )
        assert not feasible(sys)


class TestDualLp:
    def test_rational_rows_and_objective(self):
        # max x s.t. x/2 <= 1/3 and -x <= 5 is 2/3
        rows = [Row((F(1, 2),), F(1, 3)), Row((-1,), 5)]
        best = _dual_lp(rows, [1])
        assert best == F(2, 3) and isinstance(best, Fraction)


class TestSubstitute:
    def test_identity_substitution(self):
        sys = canonicalize(sys_of(("x", "y"), [({"x": 1, "y": 1}, 1)]))
        assert substitute(sys, "x", {"x": 1}) == sys

    def test_affine_shift(self):
        sys = sys_of(("x",), [({"x": 1}, 1)])
        out = substitute(sys, "x", {"y": 1}, const=F(1, 2))
        # x = y + 1/2:  x <= 1 becomes 2y <= 1; the image of x >= 0 is
        # -2y <= 1, a tautology under y >= 0, so it is dropped
        assert out.variables == ("y",)
        assert out.rows == (Row((F(2),), F(1)),)

    def test_nonnegativity_guard_row_added(self):
        sys = cutset_k3_symbolic()
        out = substitute(sys, "R1", {"Rsp": 1, "R2": -1, "R3": -1})
        assert "R1" not in out.variables
        assert out.variables[-1] == "Rsp"
        guard = Row(
            tuple(
                {"R2": F(1), "R3": F(1), "Rsp": F(-1)}.get(v, F(0))
                for v in out.variables
            ),
            F(0),
        )
        assert guard in out.rows

    def test_round_trip_restores_original(self):
        rng = random.Random(7)
        for _ in range(25):
            rows = [
                (
                    {"x": rng.randint(-3, 3), "y": rng.randint(-3, 3)},
                    rng.randint(-2, 6),
                )
                for _ in range(rng.randint(1, 4))
            ]
            sys = canonicalize(sys_of(("x", "y"), rows))
            there = substitute(sys, "x", {"u": 1, "y": -1})  # x = u - y
            back = substitute(there, "u", {"x": 1, "y": 1})  # u = x + y
            reordered = canonicalize(
                LinearSystem(
                    ("y", "x"),
                    tuple(
                        Row((r.coeffs[1], r.coeffs[0]), r.rhs) for r in sys.rows
                    ),
                    (True, True),
                )
            )
            assert back == reordered

    def test_unknown_variable_rejected(self):
        sys = sys_of(("x",), [({"x": 1}, 1)])
        with pytest.raises(ParameterError):
            substitute(sys, "z", {"x": 1})


class TestFourierMotzkin:
    def test_absent_variable_is_identity(self):
        sys = canonicalize(sys_of(("x", "y"), [({"x": 1}, 1)]))
        assert fourier_motzkin(sys, "y") == sys

    def test_unknown_variable_rejected(self):
        sys = sys_of(("x",), [({"x": 1}, 1)])
        with pytest.raises(ParameterError):
            fourier_motzkin(sys, "q")

    def test_projection_of_diagonal_strip(self):
        # x + y <= 2 with y <= 1 projects to x <= 2 once y >= 0 is used
        sys = sys_of(("x", "y"), [({"x": 1, "y": 1}, 2), ({"y": 1}, 1)])
        out = fourier_motzkin(sys, "y")
        assert out.rows == (Row((F(1), F(0)), F(2)),)

    def test_three_row_projection_oracle(self):
        sub = substitute(cutset_k3_symbolic(), "R1", {"Rsp": 1, "R2": -1, "R3": -1})
        out = project(sub, ("R0", "C1", "C2", "C3", "Rsp"))
        expected = canonicalize(
            sys_of(
                ("R0", "C1", "C2", "C3", "Rsp"),
                [
                    ({"R0": 3, "Rsp": 1, "C1": -3, "C2": -6, "C3": -3}, 0),
                    ({"R0": 2, "Rsp": 1, "C1": -3, "C2": -5, "C3": -2}, 0),
                    ({"R0": 1, "Rsp": 1, "C1": -3, "C2": -3, "C3": -1}, 0),
                ],
            )
        )
        assert out == expected

    def test_row_beside_rows_with_no_common_point_is_dropped(self):
        # x <= 0 and x >= 1 have no common point, so they imply y <= 0,
        # although (0, 1) is no nonnegative combination of their normals
        sys = sys_of(
            ("x", "y", "z"),
            [({"x": 1}, 0), ({"x": -1}, -1), ({"y": 1}, 0)],
            nonneg={"x": False, "y": False},
        )
        out = fourier_motzkin(sys, "z")
        assert out.rows == (
            Row((F(-1), F(0), F(0)), F(-1)),
            Row((F(1), F(0), F(0)), F(0)),
        )
        assert not feasible(out)

    def test_elimination_order_does_not_change_result(self):
        sub = substitute(cutset_k3_symbolic(), "R1", {"Rsp": 1, "R2": -1, "R3": -1})
        one = fourier_motzkin(fourier_motzkin(sub, "R2"), "R3")
        two = fourier_motzkin(fourier_motzkin(sub, "R3"), "R2")
        assert one == two

    def test_projection_matches_exact_lift_search(self):
        rng = random.Random(99)
        grid = [F(n, 2) for n in range(0, 7)]
        for _ in range(50):
            rows = [
                (
                    {
                        "x": rng.randint(-3, 3),
                        "y": rng.randint(-3, 3),
                        "z": rng.randint(-3, 3),
                    },
                    rng.randint(-2, 6),
                )
                for _ in range(rng.randint(1, 6))
            ]
            sys = sys_of(("x", "y", "z"), rows)
            proj = fourier_motzkin(sys, "z")
            for x in grid:
                for y in grid:
                    point = {"x": x, "y": y, "z": F(0)}
                    assert satisfies(proj, point) == _lift_exists(rows, x, y)


def _lift_exists(rows, x, y):
    """Exact check: does some z >= 0 satisfy every row at (x, y)?"""
    low, high = F(0), None
    for coeffs, rhs in rows:
        rest = F(rhs) - F(coeffs.get("x", 0)) * x - F(coeffs.get("y", 0)) * y
        cz = F(coeffs.get("z", 0))
        if cz == 0:
            if rest < 0:
                return False
        elif cz > 0:
            bound = rest / cz
            high = bound if high is None else min(high, bound)
        else:
            low = max(low, rest / cz)
    return high is None or low <= high


class TestVertices:
    def test_single_constraint_triangle(self):
        sys = sys_of(("x", "y"), [({"x": 1, "y": 1}, 1)])
        assert vertices_2d(sys) == [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]

    def test_unit_symmetric_region(self):
        verts = vertices_2d(cnk1_system(3, (1, 1, 1)))
        assert verts == [
            (F(0), F(0)),
            (F(4), F(0)),
            (F(3), F(3)),
            (F(1), F(6)),
            (F(0), F(7)),
        ]

    def test_unit_projected_cutset_region(self):
        verts = vertices_2d(unit_cutset_region())
        assert verts == [
            (F(0), F(0)),
            (F(4), F(0)),
            (F(5, 2), F(9, 2)),
            (F(0), F(7)),
        ]

    def test_non_dyadic_vertices_are_fractions(self):
        # 2.5 == F(5, 2), so only a type check catches a float leaking out
        sys = sys_of(("x", "y"), [({"x": 3, "y": 1}, 2), ({"x": 1, "y": 3}, 2)])
        verts = vertices_2d(sys)
        assert verts == [(F(0), F(0)), (F(2, 3), F(0)), (F(1, 2), F(1, 2)), (F(0), F(2, 3))]
        assert all(isinstance(v, Fraction) for point in verts for v in point)

    def test_unbounded_region_names_a_ray(self):
        sys = sys_of(("x", "y"), [({"x": 1, "y": -1}, 0)])
        with pytest.raises(UnboundedRegionError) as err:
            vertices_2d(sys)
        assert err.value.ray == (F(0), F(1))

    def test_infeasible_region_has_no_vertices(self):
        assert vertices_2d(sys_of(("x", "y"), [({"x": 1}, -1)])) == []

    def test_origin_only(self):
        sys = sys_of(("x", "y"), [({"x": 1}, 0), ({"y": 1}, 0)])
        assert vertices_2d(sys) == [(F(0), F(0))]

    def test_degenerate_segment(self):
        sys = sys_of(("x", "y"), [({"x": 1}, 0), ({"y": 1}, 1)])
        assert vertices_2d(sys) == [(F(0), F(0)), (F(0), F(1))]

    def test_square_not_touching_origin(self):
        sys = sys_of(
            ("x", "y"),
            [
                ({"x": 1}, 2),
                ({"x": -1}, -1),
                ({"y": 1}, 2),
                ({"y": -1}, -1),
            ],
        )
        assert vertices_2d(sys) == [
            (F(1), F(1)),
            (F(2), F(1)),
            (F(2), F(2)),
            (F(1), F(2)),
        ]

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ParameterError):
            vertices_2d(sys_of(("x", "y", "z"), [({"x": 1}, 1)]))


class TestContains:
    def test_unit_regions_nest_strictly(self):
        cn2 = cnk1_system(3, (1, 1, 1))
        cn4 = unit_cutset_region()
        assert contains(cn4, cn2)
        assert not contains(cn2, cn4)
        assert contains(cn4, cn4)
        # the witness vertex outside the tighter region
        assert satisfies(cn4, {"R0": F(5, 2), "Rsp": F(9, 2)})
        assert not satisfies(cn2, {"R0": F(5, 2), "Rsp": F(9, 2)})

    def test_small_dimension_path(self):
        cube = sys_of(
            ("x", "y", "z"), [({"x": 1}, 1), ({"y": 1}, 1), ({"z": 1}, 1)]
        )
        halfspace = sys_of(("x", "y", "z"), [({"x": 1, "y": 1, "z": 1}, 3)])
        assert contains(halfspace, cube)
        assert not contains(cube, halfspace)

    def test_variable_mismatch_rejected(self):
        a = sys_of(("x", "y"), [({"x": 1}, 1)])
        b = sys_of(("x", "q"), [({"x": 1}, 1)])
        with pytest.raises(ParameterError):
            contains(a, b)

    def test_five_variables(self):
        vs = ("a", "b", "c", "d", "e")
        cube = sys_of(vs, [({v: 1}, 1) for v in vs])
        assert contains(sys_of(vs, [(dict.fromkeys(vs, 1), 5)]), cube)
        # the corner (1, 1, 1, 1, 1) leaves the tighter halfspace
        assert not contains(sys_of(vs, [(dict.fromkeys(vs, 1), 4)]), cube)
        assert contains(cube, cube)

    def test_unbounded_inner_in_two_dimensions(self):
        strip = sys_of(("x", "y"), [({"x": 1}, 1)])
        assert contains(sys_of(("x", "y"), [({"x": 1}, 2)]), strip)
        assert not contains(sys_of(("x", "y"), [({"y": 1}, 5)]), strip)

    def test_empty_inner_is_contained(self):
        outer = sys_of(("x", "y"), [({"x": 1}, 1)])
        inner = sys_of(("x", "y"), [({"x": 1}, -1)])
        assert contains(outer, inner)


class TestCornerPoints:
    def test_unit_k3(self):
        assert corner_points_symmetric(3, (1, 1, 1)) == [
            (F(4), F(0)),
            (F(3), F(3)),
            (F(1), F(6)),
            (F(0), F(7)),
        ]

    def test_all_zero(self):
        assert corner_points_symmetric(2, (0, 0)) == [(F(0), F(0))] * 3

    def test_degenerate_k4(self):
        assert corner_points_symmetric(4, (1, 0, 0, 0)) == [
            (F(1), F(0)),
            (F(0), F(4)),
            (F(0), F(4)),
            (F(0), F(4)),
            (F(0), F(4)),
        ]

    def test_matches_vertex_enumeration(self):
        rng = random.Random(41)
        for K in range(1, 5):
            for _ in range(5):
                caps = [F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(K)]
                corners = set(corner_points_symmetric(K, caps))
                verts = set(vertices_2d(cnk1_system(K, caps)))
                assert corners == verts - {(F(0), F(0))} or corners == verts

    def test_validation(self):
        with pytest.raises(ParameterError):
            corner_points_symmetric(0, ())
        with pytest.raises(ParameterError):
            corner_points_symmetric(2, (1,))
        with pytest.raises(ParameterError):
            corner_points_symmetric(2, (1, -1))


class TestCsv:
    def test_format_round_trip(self):
        assert format_rational(F(5)) == "5"
        assert format_rational(F(5, 2)) == "5/2"
        assert format_rational(F(-1, 3)) == "-1/3"
        assert parse_rational("5") == F(5)
        assert parse_rational("5/2") == F(5, 2)
        with pytest.raises(ParameterError):
            parse_rational("five")
