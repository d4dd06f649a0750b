"""The 2-D layer of `cutbounds.polytope` against its earlier, row-by-row form.

`reference_vertices_2d` and `reference_contains` below are the bodies that
`vertices_2d` and `contains` had before they kept one tightest row per
direction (with the `_recession_ray` they called): an LP feasibility check
on every system, a pair-and-check loop over every row, `Fraction` vertex
keys, and one containment LP per outer row.  On seeded random 2-D systems
the current functions must return the same vertices, raise the same
error with the same text and ray, and give the same containment verdicts.

The draws cover positive multiples of one direction with different right
sides, all-zero rows (`0 <= -1` and trivially true ones), points and
segments, unbounded and infeasible systems, and every pair of
nonnegativity flags.  The work-count tests pin what the change buys: a
bounded `vertices_2d` runs no LP, and `contains` runs one per outer
direction, not one per outer row.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm

import pytest

from cutbounds import polytope
from cutbounds.errors import ParameterError, UnboundedRegionError
from cutbounds.polytope import (
    LinearSystem,
    Row,
    _implies,
    _orthant_rows,
    canonicalize,
    contains,
    feasible,
    format_rational,
    vertices_2d,
)

F = Fraction


def reference_recession_ray(sys: LinearSystem):
    """A direction the region runs along without end, as coprime
    Fractions, or None: the axes and each row's two edge directions are
    the candidates."""
    candidates = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for row in sys.rows:
        a, b = row.coeffs
        candidates.append((b, -a))
        candidates.append((-b, a))
    for dx, dy in candidates:
        if (dx, dy) == (0, 0):
            continue
        if sys.nonneg[0] and dx < 0:
            continue
        if sys.nonneg[1] and dy < 0:
            continue
        if all(r.coeffs[0] * dx + r.coeffs[1] * dy <= 0 for r in sys.rows):
            g = gcd(dx, dy)
            return (Fraction(dx // g), Fraction(dy // g))
    return None


def reference_vertices_2d(sys: LinearSystem) -> list[tuple[Fraction, Fraction]]:
    """All vertices of a bounded 2-D region, counterclockwise.

    The listing starts at the lowest vertex (ties broken leftward), which
    for regions touching the origin means starting there and walking the
    x-axis first.  Infeasible systems yield an empty list.
    """
    if len(sys.variables) != 2:
        raise ParameterError("vertex enumeration needs exactly 2 variables")
    sys = canonicalize(sys)
    if sys.infeasible or not feasible(sys):
        return []
    ray = reference_recession_ray(sys)
    if ray is not None:
        raise UnboundedRegionError(
            f"region is unbounded along the ray ({format_rational(ray[0])}, "
            f"{format_rational(ray[1])})",
            ray=ray,
        )

    lines = [(*r.coeffs, r.rhs) for r in sys.rows]
    if sys.nonneg[0]:
        lines.append((-1, 0, 0))
    if sys.nonneg[1]:
        lines.append((0, -1, 0))

    # the intersection of two lines is (x, y) / det; with det > 0 a line
    # a*x + b*y <= c holds there exactly when a*x + b*y <= c*det does
    points = set()
    for i in range(len(lines)):
        a1, b1, c1 = lines[i]
        for j in range(i + 1, len(lines)):
            a2, b2, c2 = lines[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x, y = c1 * b2 - c2 * b1, a1 * c2 - a2 * c1
            if det < 0:
                det, x, y = -det, -x, -y
            if all(a * x + b * y <= c * det for a, b, c in lines):
                points.add((Fraction(x, det), Fraction(y, det)))

    ordered = sorted(points, key=lambda p: (p[1], p[0]))
    if len(ordered) <= 2:
        return ordered

    # the ring runs around the centroid; scaled by n times the vertices'
    # common denominator, every offset from it is a pair of ints
    n = len(points)
    scale = lcm(*(v.denominator for p in points for v in p))
    scaled = {p: (p[0].numerator * (scale // p[0].denominator),
                  p[1].numerator * (scale // p[1].denominator)) for p in points}
    sx = sum(x for x, _ in scaled.values())
    sy = sum(y for _, y in scaled.values())
    offset = {p: (n * x - sx, n * y - sy) for p, (x, y) in scaled.items()}

    def half(d):
        dx, dy = d
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def compare(p, q):
        dp, dq = offset[p], offset[q]
        hp, hq = half(dp), half(dq)
        if hp != hq:
            return -1 if hp < hq else 1
        c = dp[0] * dq[1] - dq[0] * dp[1]
        return -1 if c > 0 else (1 if c < 0 else 0)

    ring = sorted(points, key=cmp_to_key(compare))
    start = ring.index(ordered[0])
    return ring[start:] + ring[:start]


def reference_contains(outer: LinearSystem, inner: LinearSystem) -> bool:
    """Exact region containment: inner a subset of outer."""
    if outer.variables != inner.variables or outer.nonneg != inner.nonneg:
        raise ParameterError("containment needs identical variable lists")
    rows = list(inner.rows) + _orthant_rows(inner)
    return all(_implies(rows, row) for row in canonicalize(outer).rows)


FLAGS = tuple(itertools.product((True, False), repeat=2))


def _rational(rng: random.Random, low: int, high: int) -> Fraction:
    return F(rng.randint(low * 4, high * 4), rng.randint(1, 4))


def random_system(rng: random.Random, nonneg) -> LinearSystem:
    """Rows in a few random directions, each repeated at positive multiples
    with different right sides; maybe a reversed row (an implicit
    equality), a box whose sides may coincide, and all-zero rows."""
    rows = []
    for _ in range(rng.randint(0, 4)):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rhs = _rational(rng, 0, 6)
        for _ in range(rng.randint(1, 4)):
            m = rng.randint(1, 3)
            rows.append(Row((m * a, m * b), m * rhs + rng.choice((0, 0, F(1, 2), 1, 3))))
        if rng.random() < 0.2:
            rows.append(Row((-a, -b), -rhs))
    if rng.random() < 0.6:
        for axis in ((1, 0), (0, 1)):
            lo = _rational(rng, -1, 2)
            hi = lo + rng.choice((0, 0, F(1, 3), 1, _rational(rng, 0, 3)))
            rows.append(Row(axis, hi))
            rows.append(Row(tuple(-c for c in axis), -lo))
    if rng.random() < 0.1:
        rows.append(Row((0, 0), rng.choice((-1, 0, 2))))
    rng.shuffle(rows)
    return LinearSystem(("x", "y"), tuple(rows), nonneg)


def _outcome(fn, sys):
    try:
        return "vertices", fn(sys)
    except UnboundedRegionError as error:
        return "unbounded", (str(error), error.ray)


def test_vertices_and_containment_match_the_reference():
    rng = random.Random(20)
    kinds = dict.fromkeys(("empty", "point", "segment", "polygon", "unbounded", "zero row"), 0)
    verdicts = dict.fromkeys((True, False), 0)
    for trial in range(3000):
        nonneg = FLAGS[trial % 4]
        sys = random_system(rng, nonneg)
        got = _outcome(vertices_2d, sys)
        assert got == _outcome(reference_vertices_2d, sys), sys
        kind, value = got
        if kind == "unbounded":
            kinds["unbounded"] += 1
        else:
            kinds[("empty", "point", "segment")[len(value)] if len(value) < 3 else "polygon"] += 1
        kinds["zero row"] += any(not any(r.coeffs) for r in sys.rows)

        other = random_system(rng, nonneg)
        for outer, inner in ((sys, other), (other, sys), (sys, sys)):
            verdict = contains(outer, inner)
            assert verdict == reference_contains(outer, inner), (outer, inner)
            verdicts[verdict] += 1
    assert min(kinds.values()) >= 30, kinds
    assert min(verdicts.values()) >= 300, verdicts


def test_the_ray_comes_from_the_canonical_rows_in_order():
    # the region runs along every direction between (1, 1) and (1, 2); in
    # the given order the edge (1, 1) of `x - y <= 1` comes first, in the
    # canonical order the edge (1, 2) of `-2x + y <= 0`
    sys = LinearSystem(
        ("x", "y"),
        (Row((2, -2), 3), Row((1, -1), 1), Row((-2, 1), 0)),
        (False, False),
    )
    with pytest.raises(UnboundedRegionError) as caught:
        vertices_2d(sys)
    assert str(caught.value) == "region is unbounded along the ray (1, 2)"
    assert caught.value.ray == (F(1), F(2))
    assert _outcome(reference_vertices_2d, sys) == ("unbounded", (str(caught.value), (1, 2)))


def test_all_zero_rows_pass_through():
    box = [Row((1, 0), 1), Row((0, 1), 1)]
    for nonneg in FLAGS:
        for zero, empty in ((Row((0, 0), -1), True), (Row((0, 0), 0), False)):
            sys = LinearSystem(("x", "y"), (*box, zero, Row((-1, -1), 1)), nonneg)
            assert (vertices_2d(sys) == []) == empty
            assert vertices_2d(sys) == reference_vertices_2d(sys)
            for outer, inner in ((sys, sys), (LinearSystem(("x", "y"), box, nonneg), sys)):
                assert contains(outer, inner) == reference_contains(outer, inner)
                assert contains(inner, outer) == reference_contains(inner, outer)


# ---------------------------------------------------------------------------
# work counts

DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (3, 1))


def _six_direction_rows():
    """600 rows, 100 per direction of DIRECTIONS at multiples 1-5 and
    right sides from 4 up, and the tightest row of each direction."""
    rng = random.Random(6)
    rows = []
    for a, b in DIRECTIONS:
        for _ in range(100):
            m = rng.randint(1, 5)
            rows.append(Row((m * a, m * b), m * 4 + rng.randint(0, 40)))
    rng.shuffle(rows)
    tightest = [min((r for r in rows if Row(r.coeffs, 0).coeffs == d),
                    key=lambda r: F(r.rhs, gcd(*r.coeffs)))
                for d in DIRECTIONS]
    return rows, tightest


@pytest.fixture
def lp_calls(monkeypatch):
    calls = []
    real = polytope._dual_lp

    def counted(rows, c):
        calls.append(len(rows))
        return real(rows, c)

    monkeypatch.setattr(polytope, "_dual_lp", counted)
    return calls


def test_a_bounded_region_runs_no_lp(lp_calls):
    rows, _ = _six_direction_rows()
    for nonneg in FLAGS:
        box = (Row((1, 0), 3), Row((-1, 0), 1), Row((0, 1), 2), Row((0, -1), 1))
        assert vertices_2d(LinearSystem(("x", "y"), box, nonneg))
        assert vertices_2d(LinearSystem(("x", "y"), (*box, Row((1, 1), -5)), nonneg)) == []
    assert vertices_2d(LinearSystem(("x", "y"), tuple(rows), (True, True)))
    assert lp_calls == []


def test_containment_runs_one_lp_per_outer_direction(lp_calls):
    rows, tightest = _six_direction_rows()
    big = LinearSystem(("x", "y"), tuple(rows), (True, True))
    small = LinearSystem(("x", "y"), tuple(tightest), (True, True))
    assert contains(big, small)
    assert len(lp_calls) <= len(DIRECTIONS)
    lp_calls.clear()
    assert contains(small, big)
    assert len(lp_calls) <= len(DIRECTIONS)
    assert max(lp_calls) <= len(DIRECTIONS) + 2  # the inner rows, orthant included


def test_many_parallel_rows_give_the_vertices_of_the_tightest():
    rows, tightest = _six_direction_rows()
    got = vertices_2d(LinearSystem(("x", "y"), tuple(rows), (True, True)))
    assert got == vertices_2d(LinearSystem(("x", "y"), tuple(tightest), (True, True)))
    assert len(got) >= 4
