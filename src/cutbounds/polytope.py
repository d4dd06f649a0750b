"""Exact-rational linear inequality systems over named variables.

Systems are conjunctions of rows `sum a_i x_i <= b` with per-variable
implicit nonnegativity.  Projections (Fourier-Motzkin), feasibility, 2-D
vertex enumeration and containment are exact, which keeps golden-file
comparisons byte-stable.

A `Row` is its canonical form from construction: the coprime integer
vector `(a, b)` that is a positive multiple of the values it was given.
So two rows for one half-space are equal and hash alike, and elimination,
redundancy removal and the LP run on Python ints alone.  A `Fraction`
enters only through `Row`'s constructor (and through the points given to
`satisfies` and `substitute`'s expression) and leaves only as an LP
optimum, a 2-D vertex or a ray.  A system with no point is marked by the
canonical witness row `0 <= -1`, which `LinearSystem.infeasible` reports.

One exact LP oracle, `_dual_lp` (a fraction-free simplex, Bland's rule),
decides feasibility, containment (one LP per direction of the outer rows,
any dimension), whether a 2-D system with a recession ray is unbounded or
empty, and the redundancy pass below.  A 2-D system with no ray needs no
LP: it has a vertex exactly when it has a point.  The LP always ends with
an exact verdict: no size budget, no "unknown".

Redundancy removal after each elimination runs in two passes:

  1. drop rows that hold identically (including under nonnegativity) and
     merge duplicates (equal canonical rows), then sort;
  2. in sorted order, drop each row the rows still left imply over free
     variables (or that sits beside rows with no common point), by LP.

The result is irredundant over free variables.  Nonnegativity enters only
through pass 1 and the orthant rows eliminated with each variable, so a
row that the orthant makes redundant may stay.  Which irredundant list
comes out depends on the rows pass 2 gets, since it drops them one at a
time; the region does not.  Callers that need a particular row list, as
the `fm-derivation` table does, build it and compare regions with
`contains`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import comb, gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .errors import ParameterError, UnboundedRegionError, exact_rational
from .setcalc import _check_sink_count

Rational = Union[Fraction, int, str]

# an optional minus, digits, and an optional "/digits": no decimal point,
# exponent, plus sign, blank, underscore or non-ASCII digit, so one grammar
# holds on every Python version and a short string cannot ask for a huge
# integer
_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text) -> Fraction:
    match = _RATIONAL_TEXT.fullmatch(text) if isinstance(text, str) else None
    if match is not None:
        numerator, denominator = match.groups()
        # the grammar admits only ASCII digits, which int() reads as they
        # are; int() still refuses digits past the interpreter's limit
        try:
            if denominator is None:
                return Fraction(int(numerator))
            return Fraction(int(numerator), int(denominator))
        except (ValueError, ZeroDivisionError):
            pass
    raise ParameterError(f"not a rational number: {text!r}")


def format_rational(value: Union[Fraction, int]) -> str:
    if type(value) is int:
        return str(value)
    if not isinstance(value, Fraction):
        value = exact_rational(value, "a value")
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Row:
    """One inequality coeffs . x <= rhs, stored canonically.

    Given ints, Fractions or rational strings, the row keeps the coprime
    integer vector that is their positive multiple: `Row((1, F(1, 2)), 3)`
    is `Row((2, 1), 6)`.  An all-zero vector stays as it is.
    """

    coeffs: tuple[int, ...]
    rhs: int

    def __post_init__(self):
        values = (*self.coeffs, self.rhs)
        if not all(type(v) is int for v in values):
            values = [v if isinstance(v, (int, Fraction)) else exact_rational(v, "a row entry")
                      for v in values]
            denom = lcm(*(v.denominator for v in values))
            values = [v.numerator * (denom // v.denominator) for v in values]
        g = gcd(*values)
        if g > 1:
            values = [v // g for v in values]
        object.__setattr__(self, "coeffs", tuple(values[:-1]))
        object.__setattr__(self, "rhs", values[-1])


@dataclass(frozen=True)
class LinearSystem:
    """Immutable inequality system; `nonneg[i]` toggles x_i >= 0."""

    variables: tuple[str, ...]
    rows: tuple[Row, ...]
    nonneg: tuple[bool, ...]
    infeasible: bool = field(init=False, default=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "nonneg", tuple(bool(f) for f in self.nonneg))
        if not self.variables:
            raise ParameterError("a system needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ParameterError("variable names must be distinct")
        if len(self.nonneg) != len(self.variables):
            raise ParameterError("nonneg flags must align with variables")
        n = len(self.variables)
        flagged = False
        for row in self.rows:
            if not isinstance(row, Row) or len(row.coeffs) != n:
                raise ParameterError("row width must match the variable list")
            if not any(row.coeffs) and row.rhs < 0:
                flagged = True
        object.__setattr__(self, "infeasible", flagged)

    @classmethod
    def from_rows(
        cls,
        variables: Sequence[str],
        rows: Iterable[tuple[Mapping[str, Rational], Rational]],
        nonneg=None,
    ) -> "LinearSystem":
        variables = tuple(variables)
        index = {v: i for i, v in enumerate(variables)}
        built = []
        for coeffs, rhs in rows:
            dense = [0] * len(variables)
            for name, value in coeffs.items():
                if name not in index:
                    raise ParameterError(f"row references unknown variable {name!r}")
                dense[index[name]] = value
            built.append(Row(tuple(dense), rhs))
        if nonneg is None:
            flags = (True,) * len(variables)
        elif isinstance(nonneg, Mapping):
            flags = tuple(bool(nonneg.get(v, True)) for v in variables)
        else:
            flags = tuple(bool(f) for f in nonneg)
        return cls(variables, tuple(built), flags)

    def coeff_map(self, row: Row) -> dict[str, int]:
        return {v: c for v, c in zip(self.variables, row.coeffs) if c != 0}


def satisfies(sys: LinearSystem, point: Mapping[str, Rational]) -> bool:
    """Exact membership test for a named point."""
    values = []
    for v, flag in zip(sys.variables, sys.nonneg):
        if v not in point:
            raise ParameterError(f"point is missing variable {v!r}")
        x = exact_rational(point[v], "a point coordinate")
        if flag and x < 0:
            return False
        values.append(x)
    for row in sys.rows:
        total = sum(c * x for c, x in zip(row.coeffs, values))
        if total > row.rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# redundancy removal


def _holds_identically(row: Row, nonneg: tuple[bool, ...]) -> bool:
    """True when nonnegativity alone already forces the row."""
    for c, flag in zip(row.coeffs, nonneg):
        if c > 0 or (c < 0 and not flag):
            return False
    # the lhs cannot exceed 0 anywhere in the orthant
    return row.rhs >= 0


def _tiers_basic(rows: Iterable[Row], nonneg: tuple[bool, ...]) -> list[Row]:
    """Pass 1 of `_reduce_rows`: drop identically-true rows, dedupe, sort.

    A row with no point, which canonically is `0 <= -1`, stands alone for
    the whole list.
    """
    seen: dict = {}
    for row in rows:
        if _holds_identically(row, nonneg):
            continue
        if not any(row.coeffs):
            return [row]
        seen[(row.coeffs, row.rhs)] = row
    return [seen[key] for key in sorted(seen)]


# ---------------------------------------------------------------------------
# exact linear programming


_INFEASIBLE = "infeasible"
_UNBOUNDED = "unbounded"


def _pivot(tableau: list, basis: list, z: list, r: int, k: int) -> None:
    """Pivot on (r, k) without division.

    Each row, `z` too, is stored as a positive multiple of the true tableau
    row.  The pivot row is only sign-flipped so that p = its k-th entry is
    positive; each other row becomes p*row - row[k]*pivot_row, divided by
    its gcd.
    """
    pivot_row = tableau[r]
    if pivot_row[k] < 0:
        pivot_row = tableau[r] = [-v for v in pivot_row]
    p = pivot_row[k]
    for row in (*tableau, z):
        f = row[k]
        if f and row is not pivot_row:
            new = [p * a - f * b for a, b in zip(row, pivot_row)]
            g = gcd(*new)
            row[:] = [v // g for v in new] if g > 1 else new
    basis[r] = k


def _run_simplex(tableau: list, basis: list, z: list, phase_one: bool) -> bool:
    """Pivot until no reduced cost in `z` is negative; False if unbounded.

    Bland's rule (lowest entering column, lowest leaving basis index on a
    ratio tie) cannot cycle.  Phase one also stops once its objective, the
    artificials' sum, is zero.  Only signs and cross-multiplied ratios are
    read, so the rows' positive factors do not matter.
    """
    while not (phase_one and z[-1] == 0):
        k = next((k for k, d in enumerate(z[:-1]) if d < 0), None)
        if k is None:
            return True
        leave = None
        for r, row in enumerate(tableau):
            a = row[k]
            if a > 0:
                if leave is None:
                    leave, best = r, row
                    continue
                # row[-1]/a against best[-1]/best[k], denominators positive
                lhs, rhs = row[-1] * best[k], best[-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, best = r, row
        if leave is None:
            return False
        _pivot(tableau, basis, z, leave, k)
    return True


def _dual_lp(rows: Sequence[Row], c: Sequence[int]):
    """min lam.b s.t. sum_i lam_i a_i = c, lam >= 0, over rows (a_i, b_i).

    The Farkas dual of max c.x over {x free : a_i.x <= b_i}: returns that
    maximum as a Fraction; _UNBOUNDED when the rows admit no x;
    _INFEASIBLE when c is no nonnegative combination of the a_i (the
    maximum is then unbounded, or the rows infeasible).  One tableau row
    per variable; the artificial basis of phase one (indices m..) is not
    stored and never re-enters.

    The rows are canonical and `c` is a vector of ints, so the tableau is
    integral from the start.
    """
    columns = [(*r.coeffs, r.rhs) for r in rows]
    m = len(columns)
    tableau = []
    for j, target in enumerate(c):
        sign = -1 if target < 0 else 1
        tableau.append([sign * col[j] for col in columns] + [sign * target])
    basis = list(range(m, m + len(tableau)))
    z = [-sum(column) for column in zip(*tableau)]
    _run_simplex(tableau, basis, z, phase_one=True)
    if z[-1] != 0:
        return _INFEASIBLE
    for r in reversed(range(len(tableau))):
        if basis[r] >= m:  # an artificial left at zero: pivot it out
            k = next((k for k, v in enumerate(tableau[r][:-1]) if v), None)
            if k is None:
                del tableau[r], basis[r]  # the equality was redundant
            else:
                _pivot(tableau, basis, z, r, k)
    # z = cost - sum_r cost_i * row_r / row_r[i] (i = basis[r]), over the
    # lcm of the basic entries so that it stays integral
    costs = [col[-1] for col in columns]
    scale = lcm(*(row[i] for row, i in zip(tableau, basis)))
    z = [scale * b for b in costs] + [0]
    for row, i in zip(tableau, basis):
        f = costs[i] * (scale // row[i])
        if f:
            z = [a - f * b for a, b in zip(z, row)]
    if not _run_simplex(tableau, basis, z, phase_one=False):
        return _UNBOUNDED
    # the optimum is sum_r cost_i * rhs_r / row_r[i]
    scale = lcm(*(row[i] for row, i in zip(tableau, basis)))
    total = sum(costs[i] * row[-1] * (scale // row[i]) for row, i in zip(tableau, basis))
    return Fraction(total, scale)


def _implies(rows: Sequence[Row], row: Row) -> bool:
    """Do `rows`, over free variables, force `row` (or admit no point)?"""
    best = _dual_lp(rows, row.coeffs)
    if best is _INFEASIBLE:
        # the maximum is unbounded unless the rows are infeasible, which
        # needs a negative right-hand side (else the origin satisfies them)
        zero = [0] * len(row.coeffs)
        return any(r.rhs < 0 for r in rows) and _dual_lp(rows, zero) is _UNBOUNDED
    return best is _UNBOUNDED or best <= row.rhs


def _orthant_rows(sys: LinearSystem) -> list[Row]:
    """The rows -x_i <= 0 of the nonnegative variables."""
    n = len(sys.variables)
    return [
        Row(tuple(-1 if j == i else 0 for j in range(n)), 0)
        for i, flag in enumerate(sys.nonneg)
        if flag
    ]


def _reduce_rows(rows: Iterable[Row], nonneg: tuple[bool, ...]) -> list[Row]:
    # a lone `0 <= -1` from pass 1 passes the LP untouched: no other row
    # can imply it
    work = _tiers_basic(rows, nonneg)
    # pass 2: implication by the remaining rows alone, in sorted order;
    # nonnegativity counts only through pass 1
    i = 0
    while i < len(work):
        if _implies(work[:i] + work[i + 1 :], work[i]):
            work.pop(i)
        else:
            i += 1
    return work


def canonicalize(sys: LinearSystem) -> LinearSystem:
    """Drop trivial rows, dedupe, sort; a system with no point keeps only
    `0 <= -1`."""
    return LinearSystem(sys.variables, _tiers_basic(sys.rows, sys.nonneg), sys.nonneg)


def feasible(sys: LinearSystem) -> bool:
    """Exact: does some point satisfy every row and nonnegativity flag?"""
    rows = list(sys.rows) + _orthant_rows(sys)
    return _dual_lp(rows, [0] * len(sys.variables)) is not _UNBOUNDED


# ---------------------------------------------------------------------------
# projection


def fourier_motzkin(sys: LinearSystem, var: str) -> LinearSystem:
    """Eliminate one variable exactly; output is reduced by `_reduce_rows`.

    Pass 1 drops trivial and duplicate pairwise combinations; pass 2 then
    runs one exact LP per surviving row, however many rows survive.

    The variable keeps its slot in the variable list (its coefficients all
    become zero), so eliminating a variable absent from every row is the
    identity.
    """
    if var not in sys.variables:
        raise ParameterError(f"unknown variable {var!r}")
    idx = sys.variables.index(var)
    pos = [r for r in sys.rows if r.coeffs[idx] > 0]
    neg = [r for r in sys.rows if r.coeffs[idx] < 0]
    passthrough = [r for r in sys.rows if r.coeffs[idx] == 0]
    neg += [r for r in _orthant_rows(sys) if r.coeffs[idx] < 0]  # var >= 0
    combined = []
    for p in pos:
        for q in neg:
            cp, cq = p.coeffs[idx], -q.coeffs[idx]
            coeffs = tuple(cq * x + cp * y for x, y in zip(p.coeffs, q.coeffs))
            combined.append(Row(coeffs, cq * p.rhs + cp * q.rhs))
    return LinearSystem(
        sys.variables, _reduce_rows(passthrough + combined, sys.nonneg), sys.nonneg
    )


def project(sys: LinearSystem, keep: Sequence[str]) -> LinearSystem:
    """Eliminate every variable outside `keep`, in variable order; the
    columns follow `keep`."""
    keep = tuple(keep)
    for v in keep:
        if v not in sys.variables:
            raise ParameterError(f"unknown variable {v!r}")
    current = sys
    for var in sys.variables:
        if var not in keep:
            current = fourier_motzkin(current, var)
    index = [current.variables.index(v) for v in keep]
    rows = tuple(
        Row(tuple(r.coeffs[i] for i in index), r.rhs) for r in current.rows
    )
    return LinearSystem(keep, rows, tuple(current.nonneg[i] for i in index))


def substitute(
    sys: LinearSystem,
    var: str,
    coeffs: Mapping[str, Rational],
    const: Rational = 0,
) -> LinearSystem:
    """Replace `var` by an affine expression; exact, then canonicalized.

    New names in the expression are appended as nonnegative variables.
    If `var` was nonnegative, the row `expr >= 0` is added so the
    substitution cannot silently widen the region.
    """
    if var not in sys.variables:
        raise ParameterError(f"unknown variable {var!r}")
    expr = {}
    for name, value in coeffs.items():
        value = exact_rational(value, "a substitution coefficient")
        if value != 0:
            expr[name] = value
    const = exact_rational(const, "a substitution constant")

    keep_var = var in expr
    out_vars = [v for v in sys.variables if keep_var or v != var]
    out_nonneg = {
        v: flag
        for v, flag in zip(sys.variables, sys.nonneg)
        if keep_var or v != var
    }
    for name in expr:
        if name not in out_nonneg:
            out_vars.append(name)
            out_nonneg[name] = True

    var_idx = sys.variables.index(var)
    index = {v: i for i, v in enumerate(out_vars)}
    n = len(out_vars)

    def translate(row: Row) -> Row:
        c = row.coeffs[var_idx]
        dense = [0] * n
        for v, a in zip(sys.variables, row.coeffs):
            if v != var:
                dense[index[v]] += a
        for name, a in expr.items():
            dense[index[name]] += c * a
        return Row(tuple(dense), row.rhs - c * const)

    rows = [translate(r) for r in sys.rows]
    if sys.nonneg[var_idx]:
        dense = [0] * n
        for name, a in expr.items():
            dense[index[name]] -= a
        rows.append(Row(tuple(dense), const))
    out = LinearSystem(
        tuple(out_vars), tuple(rows), tuple(out_nonneg[v] for v in out_vars)
    )
    return canonicalize(out)


# ---------------------------------------------------------------------------
# two-dimensional geometry


def _tightest_per_direction(rows: Iterable[Row]) -> list[Row]:
    """For each direction `coeffs / g` (g the gcd of the coefficients), the
    row with the least `rhs / g`; all-zero rows pass through.

    The rows kept define the same region: a looser parallel row is implied
    by its tighter sibling, and its line lies outside the region, so it
    makes no vertex and cuts none.
    """
    zero = []
    kept: dict = {}
    for row in rows:
        g = gcd(*row.coeffs)
        if not g:
            zero.append(row)
            continue
        key = row.coeffs if g == 1 else tuple(c // g for c in row.coeffs)
        other = kept.get(key)
        # rhs / g < other.rhs / other_g, denominators positive
        if other is None or row.rhs * other[1] < other[0].rhs * g:
            kept[key] = (row, g)
    return zero + [row for row, _ in kept.values()]


def _recession_ray(rows: Sequence[Row], nonneg: tuple[bool, ...]):
    """A direction the region of `rows` runs along without end when it
    has a point, as coprime Fractions, or None: the axes and each row's two
    edge directions are the candidates, in that order."""
    candidates = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for row in rows:
        a, b = row.coeffs
        candidates.append((b, -a))
        candidates.append((-b, a))
    for dx, dy in candidates:
        if (dx, dy) == (0, 0):
            continue
        if nonneg[0] and dx < 0:
            continue
        if nonneg[1] and dy < 0:
            continue
        if all(r.coeffs[0] * dx + r.coeffs[1] * dy <= 0 for r in rows):
            g = gcd(dx, dy)
            return (Fraction(dx // g), Fraction(dy // g))
    return None


def vertices_2d(sys: LinearSystem) -> list[tuple[Fraction, Fraction]]:
    """All vertices of a bounded 2-D region, counterclockwise.

    The listing starts at the lowest vertex (ties broken leftward), which
    for regions touching the origin means starting there and walking the
    x-axis first.  Infeasible systems yield an empty list.

    Only the tightest row per direction takes part, and the LP runs only
    when the rows leave a ray, to tell an unbounded region from an empty
    one; the ray reported is the first one of the canonical system.
    """
    if len(sys.variables) != 2:
        raise ParameterError("vertex enumeration needs exactly 2 variables")
    if sys.infeasible:
        return []
    rows = _tightest_per_direction(sys.rows)
    if _recession_ray(rows, sys.nonneg) is not None:
        sys = canonicalize(sys)
        if not feasible(sys):
            return []
        ray = _recession_ray(sys.rows, sys.nonneg)
        raise UnboundedRegionError(
            f"region is unbounded along the ray ({format_rational(ray[0])}, "
            f"{format_rational(ray[1])})",
            ray=ray,
        )

    lines = [(*r.coeffs, r.rhs) for r in rows]
    if sys.nonneg[0]:
        lines.append((-1, 0, 0))
    if sys.nonneg[1]:
        lines.append((0, -1, 0))

    # the intersection of two lines is (x, y) / det, kept as that triple in
    # lowest terms; with det > 0 a line a*x + b*y <= c holds there exactly
    # when a*x + b*y <= c*det does
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
                g = gcd(x, y, det)
                points.add((x // g, y // g, det // g))
    if not points:  # a bounded region with a point has a vertex
        return []

    # over the common denominator the vertices are int pairs (y, x); they
    # are in convex position, so the ring around their centroid is the
    # order of their angles seen from the lowest one
    scale = lcm(*(d for _, _, d in points))
    ordered = sorted((y * (scale // d), x * (scale // d)) for x, y, d in points)
    y0, x0 = ordered[0]

    def compare(p, q):
        c = (p[1] - x0) * (q[0] - y0) - (q[1] - x0) * (p[0] - y0)
        return -1 if c > 0 else (1 if c < 0 else 0)

    ring = ordered[:1] + sorted(ordered[1:], key=cmp_to_key(compare))
    return [(Fraction(x, scale), Fraction(y, scale)) for y, x in ring]


def contains(outer: LinearSystem, inner: LinearSystem) -> bool:
    """Exact region containment: inner a subset of outer; one LP per
    outer direction, over the tightest inner row of each direction."""
    if outer.variables != inner.variables or outer.nonneg != inner.nonneg:
        raise ParameterError("containment needs identical variable lists")
    rows = _tightest_per_direction([*inner.rows, *_orthant_rows(inner)])
    return all(
        _implies(rows, row)
        for row in _tightest_per_direction(canonicalize(outer).rows)
    )


def corner_points_symmetric(
    K: int, c: Sequence[Rational]
) -> list[tuple[Fraction, Fraction]]:
    """Closed-form corner points of the symmetric two-axis region.

    Point r (r = 1..K+1) is
      ( sum_{i=r}^{K} binom(K-1, i-1)*C_i , sum_{i=1}^{r-1} binom(K, i)*C_i ).
    """
    _check_sink_count(K)
    caps = [exact_rational(v, "a capacity") for v in c]
    if len(caps) != K:
        raise ParameterError(f"capacity list must have length {K}")
    if any(v < 0 for v in caps):
        raise ParameterError("capacities must be nonnegative")
    points = []
    for r in range(1, K + 2):
        x = sum((comb(K - 1, i - 1) * caps[i - 1] for i in range(r, K + 1)), Fraction(0))
        y = sum((comb(K, i) * caps[i - 1] for i in range(1, r)), Fraction(0))
        points.append((x, y))
    return points
