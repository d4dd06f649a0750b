"""Property tests for the polytope layer against brute-force vertex enumeration.

Every generated system is bounded: a box `lo_i <= x_i <= hi_i` is added to
its random rows.  A nonempty bounded region is the convex hull of its
vertices, and each vertex is the intersection of n tight rows, so solving
every n-subset of rows (nonnegativity rows included) exactly and keeping
the solutions that satisfy the system lists all of them.  From that list:

- `feasible` holds iff a vertex exists;
- `contains(outer, inner)` holds iff every vertex of inner satisfies outer;
- one `fourier_motzkin` step is exact iff every vertex of the system
  projects into the result and every vertex of the result lifts back into
  the system (the result is the projection, so it is bounded too);
- `vertices_2d` lists the vertices of a 2-D system, in the ring order
  around their centroid that it once computed on `Fraction`s.

The domination tiers are checked against the LP instead: whenever tier 3
or 3b says some rows force a row, the LP must agree.

Box bounds may coincide, and a random row may come with its negation, so
points, segments and implicit equalities are drawn as well as full-
dimensional regions; variables may be free.  Coefficients and right-hand
sides are rationals with denominators 1-4, so `Row`'s canonical integer
scaling is exercised.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cmp_to_key

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutbounds.polytope import (
    LinearSystem,
    Row,
    _implies,
    _orthant_rows,
    _pair_implies,
    _single_row_implies,
    contains,
    feasible,
    fourier_motzkin,
    satisfies,
    vertices_2d,
)

F = Fraction

PROFILE = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coefficient = st.integers(-3, 3)


def rational(low, high):
    """Rationals in [low, high] with denominators 1-4 (integers included)."""
    return st.fractions(low, high, max_denominator=4)


@st.composite
def bounded_systems(draw, n=None):
    n = n or draw(st.integers(2, 4))
    names = tuple("xyzw"[:n])
    nonneg = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rows = []
    for i in range(n):
        lo = draw(rational(-3, 3))
        hi = lo + draw(rational(0, 4))
        rows.append(Row(tuple(F(j == i) for j in range(n)), hi))
        rows.append(Row(tuple(-F(j == i) for j in range(n)), -lo))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = tuple(draw(rational(-3, 3)) for _ in range(n))
        rhs = draw(rational(-4, 6))
        rows.append(Row(coeffs, rhs))
        if draw(st.booleans()):  # an implicit equality
            rows.append(Row(tuple(-c for c in coeffs), -rhs))
    return LinearSystem(names, tuple(rows), nonneg)


@PROFILE
@given(
    st.lists(rational(-6, 6), min_size=2, max_size=5),
    st.fractions(F(1, 100), 100, max_denominator=100),
    st.lists(rational(-4, 4), min_size=4, max_size=4),
)
@example([F(0), F(0)], F(3), [F(0)] * 4)
@example([F(0), F(-5, 2)], F(1, 3), [F(0)] * 4)
def test_row_is_its_canonical_form(values, k, point):
    """`Row` keeps the coprime int vector that is a positive multiple of
    the values, whatever multiple or notation they come in."""
    row = Row(tuple(values[:-1]), values[-1])
    ints = (*row.coeffs, row.rhs)
    assert all(type(v) is int for v in ints)
    assert math.gcd(*ints) == (1 if any(values) else 0)
    lead = next((i for i, v in enumerate(values) if v), None)
    scale = F(1) if lead is None else ints[lead] / values[lead]
    assert scale > 0 and ints == tuple(scale * v for v in values)
    assert Row(tuple(k * v for v in values[:-1]), k * values[-1]) == row
    assert Row(tuple(map(str, values[:-1])), str(values[-1])) == row
    names = tuple("xyzw"[: len(values) - 1])
    sys = LinearSystem(names, (row,), (False,) * len(names))
    exact = sum(v * x for v, x in zip(values[:-1], point)) <= values[-1]
    assert satisfies(sys, dict(zip(names, point))) == exact


def _solve(matrix, rhs):
    """Exact solution of a square system, or None when it is singular."""
    n = len(matrix)
    a = [[F(v) for v in row] + [F(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] / a[i][i] for i in range(n))


def vertices(sys: LinearSystem) -> set:
    """Every vertex of a bounded system, by exhaustive n-row intersection."""
    n = len(sys.variables)
    tight = [(r.coeffs, r.rhs) for r in sys.rows]
    tight += [
        (tuple(-F(j == i) for j in range(n)), F(0))
        for i, flag in enumerate(sys.nonneg)
        if flag
    ]
    found = set()
    for chosen in itertools.combinations(tight, n):
        point = _solve([c for c, _ in chosen], [b for _, b in chosen])
        if point is not None and satisfies(sys, _named(sys, point)):
            found.add(point)
    return found


def _named(sys: LinearSystem, point) -> dict:
    return dict(zip(sys.variables, point))


def _system(names, rows, free=()):
    return LinearSystem.from_rows(names, rows, nonneg={v: False for v in free})


POINT = _system("xy", [({"x": 1}, 1), ({"x": -1}, -1), ({"y": 1}, 2), ({"y": -1}, -2)])
SEGMENT = _system(  # y = 0, z = 1, 0 <= x <= 2
    "xyz", [({"x": 1}, 2), ({"y": 1}, 0), ({"z": 1}, 1), ({"z": -1}, -1)]
)
IMPLICIT_EQUALITY = _system(  # x + y = 1 inside the box |x|, |y| <= 3
    "xy",
    [({"x": 1}, 3), ({"x": -1}, 3), ({"y": 1}, 3), ({"y": -1}, 3),
     ({"x": 1, "y": 1}, 1), ({"x": -1, "y": -1}, -1)],
    free="xy",
)
EMPTY = _system(  # x + y <= 1 and x + y >= 2
    "xy",
    [({"x": 1}, 5), ({"x": -1}, 5), ({"y": 1}, 5),
     ({"x": 1, "y": 1}, 1), ({"x": -1, "y": -1}, -2)],
    free="x",
)


@PROFILE
@given(bounded_systems())
@example(POINT)
@example(SEGMENT)
@example(IMPLICIT_EQUALITY)
@example(EMPTY)
def test_feasible_iff_a_vertex_exists(sys):
    assert feasible(sys) == bool(vertices(sys))


def fraction_ring(points) -> list:
    """The vertices counterclockwise around their `Fraction` centroid from
    the lowest (then leftmost) one: the order `vertices_2d` computed before
    it scaled them to ints."""
    ordered = sorted(points, key=lambda p: (p[1], p[0]))
    if len(ordered) <= 2:
        return ordered
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def compare(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        c = (p[0] - cx) * (q[1] - cy) - (q[0] - cx) * (p[1] - cy)
        return -1 if c > 0 else (1 if c < 0 else 0)

    ring = sorted(points, key=cmp_to_key(compare))
    start = ring.index(ordered[0])
    return ring[start:] + ring[:start]


PENTAGON = _system(  # 2 <= x <= 3, y <= 1, x + y <= 7/2: far from the origin
    "xy", [({"x": 1}, 3), ({"x": -1}, -2), ({"y": 1}, 1), ({"x": 1, "y": 1}, F(7, 2))]
)


@PROFILE
@given(bounded_systems(n=2))
@example(PENTAGON)
@example(POINT)
@example(IMPLICIT_EQUALITY)
@example(EMPTY)
def test_vertices_2d_ring_order(sys):
    got = vertices_2d(sys)
    assert set(got) == vertices(sys)
    assert got == fraction_ring(set(got))


outer_row_lists = st.lists(
    st.tuples(st.lists(coefficient, min_size=4, max_size=4), st.integers(-2, 8)),
    max_size=4,
)


@PROFILE
@given(bounded_systems(), outer_row_lists)
@example(SEGMENT, [([1, 0, 0, 0], 2)])
@example(SEGMENT, [([1, 1, 1, 0], 2)])
@example(IMPLICIT_EQUALITY, [([1, 1, 0, 0], 1), ([-1, -1, 0, 0], -1)])
@example(EMPTY, [([0, 0, 0, 0], -1)])
def test_contains_iff_inner_vertices_satisfy_outer(inner, outer_rows):
    n = len(inner.variables)
    outer = LinearSystem(
        inner.variables,
        tuple(Row(tuple(map(F, coeffs[:n])), F(rhs)) for coeffs, rhs in outer_rows),
        inner.nonneg,
    )
    expected = all(satisfies(outer, _named(inner, v)) for v in vertices(inner))
    assert contains(outer, inner) == expected


@PROFILE
@given(bounded_systems(), st.integers(0, 3))
@example(POINT, 0)
@example(SEGMENT, 2)
@example(IMPLICIT_EQUALITY, 1)
@example(EMPTY, 0)
def test_fourier_motzkin_step_is_the_exact_projection(sys, which):
    n = len(sys.variables)
    idx = which % n
    projected = fourier_motzkin(sys, sys.variables[idx])
    keep = [i for i in range(n) if i != idx]
    # the eliminated variable keeps a zero column; enumerate without it
    reduced = LinearSystem(
        tuple(sys.variables[i] for i in keep),
        tuple(Row(tuple(r.coeffs[i] for i in keep), r.rhs) for r in projected.rows),
        tuple(sys.nonneg[i] for i in keep),
    )
    assert all(r.coeffs[idx] == 0 for r in projected.rows)
    for v in vertices(sys):
        assert satisfies(reduced, _named(reduced, tuple(v[i] for i in keep)))
    for q in vertices(reduced):
        assert _lifts(sys, idx, dict(zip(keep, q)))


def _lifts(sys: LinearSystem, idx: int, fixed: dict) -> bool:
    """Exact check: does some value of variable `idx` complete the point?"""
    low = F(0) if sys.nonneg[idx] else None
    high = None
    for row in sys.rows:
        rest = F(row.rhs) - sum(row.coeffs[i] * x for i, x in fixed.items())
        c = row.coeffs[idx]
        if c == 0:
            if rest < 0:
                return False
        elif c > 0:
            high = rest / c if high is None else min(high, rest / c)
        else:
            low = rest / c if low is None else max(low, rest / c)
    return low is None or high is None or low <= high


@st.composite
def tier_cases(draw, sources):
    """`sources` random canonical rows, a target row and nonneg flags.

    Half of the targets are built to be forced: a positive multiple of the
    first source (tier 3) or the sum of two sources (tier 3b), loosened on
    nonnegative columns and in the right-hand side.  Tier 3b tries unit
    multipliers only, on the canonical rows `fourier_motzkin` hands it, so
    a sum target counts as forced only when it is canonical as built.  A
    sum is loosened by ints, and its right side further until it is
    coprime to the gcd of its coefficients, so it is canonical unless all
    its coefficients vanish.
    """
    n = draw(st.integers(1, 4))
    nonneg = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))

    def random_row():
        coeffs = tuple(draw(rational(-3, 3)) for _ in range(n))
        return Row(coeffs, draw(rational(-4, 6)))

    rows = [random_row() for _ in range(sources)]
    forced = draw(st.booleans())
    if not forced:
        return rows, random_row(), nonneg, False
    lam = draw(rational(F(1, 4), 3)) if sources == 1 else 1
    slack = rational(0, 2) if sources == 1 else st.integers(0, 2)
    coeffs = [lam * sum(r.coeffs[j] for r in rows) for j in range(n)]
    for j, flag in enumerate(nonneg):
        if flag:
            coeffs[j] -= draw(slack)
    rhs = lam * sum(r.rhs for r in rows) + draw(slack)
    if sources == 2 and any(coeffs):
        g = math.gcd(*coeffs)
        rhs += (1 - rhs) % g
    target = Row(tuple(coeffs), rhs)
    canonical = (target.coeffs, target.rhs) == (tuple(coeffs), rhs)
    return rows, target, nonneg, sources == 1 or canonical


def _orthant(n, nonneg):
    return _orthant_rows(LinearSystem(tuple("xyzw"[:n]), (), nonneg))


@PROFILE
@given(tier_cases(1))
def test_single_row_domination_is_sound(case):
    (s,), r, nonneg, forced = case
    found = _single_row_implies(s, r, nonneg)
    if found:
        assert _implies([s] + _orthant(len(nonneg), nonneg), r)
    if forced:
        assert found


def test_single_row_with_positive_rhs_implies_a_row_at_small_positive_rhs():
    # x + y <= 5 with x, y >= 0 implies -x <= 1: lam approaches 0 from
    # above, so any positive right side is implied, not only those above 1
    assert _single_row_implies(Row((1, 1), 5), Row((-1, 0), 1), (True, True))


@PROFILE
@given(tier_cases(2))
def test_pair_domination_is_sound(case):
    (a, b), r, nonneg, forced = case
    found = _pair_implies(a, b, r, nonneg)
    if found:
        assert _implies([a, b] + _orthant(len(nonneg), nonneg), r)
    if forced:
        assert found
