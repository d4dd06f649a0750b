"""Set functions over a ground set and the chained exchange-gap evaluators.

Every function is one lookup indexed by subset mask: an explicit value
list, an entropy table that computes each marginal on first lookup, or a
modular table that sums integer weights (the weights over their common
denominator) on first lookup.  The gap evaluators return  lhs - rhs  of the
corresponding combination inequality, so a nonnegative result certifies
one instance and an exactly zero result is expected whenever the function
is modular; a modular gap is an integer sum turned into one Fraction.

Float sums are explicit left folds from 0, :func:`_left_sum` or a plain
loop, never ``builtins.sum``: from Python 3.12 on the builtin compensates
float sums, which would change the last bits of every sampled gap from one
interpreter to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import GroundMismatchError, ParameterError, PreconditionError, exact_rational
from .setcalc import (
    ElementSet,
    GroundSet,
    SubsetFamily,
    _check_indices,
    _check_int,
    level_masks,
    prefix_levels,
)

MAX_VARIABLES = 6
VARIABLES_CAP_REASON = "a pmf holds all 2^m outcomes and a campaign draws one per trial"
PMF_SUM_TOLERANCE = 1e-12
PMF_CLAMP = 1e-15

Number = Union[int, float, Fraction]


def _left_sum(values):
    """Sum from 0, left to right, one plain `+` per value: what
    ``builtins.sum`` computes on Python 3.10 and 3.11."""
    total = 0
    for value in values:
        total += value
    return total


class SetFunction:
    """Nonnegative set function with f(empty) = 0.

    Construct via :meth:`modular` or :meth:`from_table`.  Every function is
    one mask -> value lookup, `_table` (a sequence, or a mapping that fills
    itself on a missing mask).  A modular function keeps its weights as
    ints over their common denominator `_scale`, so that gap computations
    cancel exactly and turn into one Fraction at the end; a table-backed
    function has no scale and returns its values as stored.
    """

    __slots__ = ("ground", "_table", "_scale")

    def __init__(self, ground: GroundSet, table, scale: Optional[int] = None):
        self.ground = ground
        self._table = table
        self._scale = scale

    @classmethod
    def modular(cls, ground: GroundSet, weights: Sequence[Number]) -> "SetFunction":
        ws = tuple(exact_rational(w, "a modular weight") for w in weights)
        if len(ws) != ground.size:
            raise ParameterError(
                f"expected {ground.size} weights, got {len(ws)}"
            )
        if any(w.numerator < 0 for w in ws):
            raise ParameterError("modular weights must be nonnegative")
        scale = math.lcm(*(w.denominator for w in ws))
        units = tuple(w.numerator * (scale // w.denominator) for w in ws)
        return cls(ground, _ModularTable(units), scale)

    @classmethod
    def from_table(cls, ground: GroundSet, values: Sequence[Number]) -> "SetFunction":
        table = tuple(values)
        # the bit lengths first, and the count written as a power, so a huge
        # ground size builds no huge int and prints none (past 4300 digits,
        # str() of an int raises ValueError)
        if len(table).bit_length() != ground.size + 1 or len(table) != 1 << ground.size:
            raise ParameterError(
                f"table must have 2^{ground.size} entries, got {len(table)}"
            )
        # a float NaN compares false both ways, so `v < inf` refuses it; a
        # Decimal NaN signals on an ordering comparison instead, and a value
        # that is not a number cannot be ordered against inf at all, so this
        # check comes first
        try:
            finite = all(v < math.inf for v in table)
        except ArithmeticError:
            finite = False
        except TypeError:
            raise ParameterError("set function values must be real numbers") from None
        if not finite:
            raise ParameterError("set function values must be finite")
        if table[0] != 0:
            raise ParameterError("the empty set must map to 0")
        if any(v < 0 for v in table):
            raise ParameterError("set function values must be nonnegative")
        return cls(ground, table)

    @property
    def is_modular_backed(self) -> bool:
        return self._scale is not None

    def _exact(self, value):
        """A table value or a gap of table values, in the function's units."""
        return value if self._scale is None else Fraction(value, self._scale)

    def __call__(self, subset: ElementSet):
        if subset.ground != self.ground:
            raise GroundMismatchError("subset is over a different ground set")
        return self._exact(self._table[subset.mask])


class _ModularTable(dict):
    """Sum of the integer weights `units` over each mask, computed on first
    lookup; the empty set is preloaded as 0."""

    __slots__ = ("_units",)

    def __init__(self, units):
        super().__init__({0: 0})
        self._units = units

    def __missing__(self, mask: int) -> int:
        total = 0
        m = mask
        while m:
            low = m & -m
            total += self._units[low.bit_length() - 1]
            m ^= low
        self[mask] = total
        return total


@dataclass(frozen=True)
class JointDistribution:
    """Pmf of `variable_count` binary variables, indexed by outcome mask."""

    variable_count: int
    pmf: tuple

    def __post_init__(self):
        _check_variable_count(self.variable_count)
        try:
            pmf = tuple(map(float, self.pmf))
        except (TypeError, ValueError, OverflowError):
            raise ParameterError("pmf entries must be real numbers") from None
        object.__setattr__(self, "pmf", pmf)
        if len(pmf) != 1 << self.variable_count:
            raise ParameterError(
                f"pmf must have {1 << self.variable_count} entries, got {len(pmf)}"
            )
        # one pass: the sign check and the same left fold as `_left_sum`
        total = 0
        for p in pmf:
            if p < 0:
                raise ParameterError("pmf entries must be nonnegative")
            total += p
        # no entry is negative, so only a nan entry makes the total nan; an
        # infinite one fails the sum check
        if math.isnan(total):
            raise ParameterError("pmf entries must not be nan")
        if abs(total - 1.0) > PMF_SUM_TOLERANCE:
            raise ParameterError("pmf must sum to 1")


def _check_variable_count(variable_count) -> None:
    _check_int(variable_count, "variable_count")
    if not 1 <= variable_count <= MAX_VARIABLES:
        raise ParameterError(
            f"variable_count must be between 1 and {MAX_VARIABLES}: {VARIABLES_CAP_REASON}"
        )


def random_joint_distribution(rng, variable_count: int) -> JointDistribution:
    """Draw a dense random pmf (normalized exponential weights)."""
    _check_variable_count(variable_count)
    raw = [rng.expovariate(1.0) for _ in range(1 << variable_count)]
    total = _left_sum(raw)
    # normalize and discard sub-noise mass in one pass, so downstream logs
    # stay well conditioned
    pmf = [0.0 if (p := w / total) < PMF_CLAMP else p for w in raw]
    total = _left_sum(pmf)
    return JointDistribution(variable_count, tuple([p / total for p in pmf]))


class _EntropyTable(dict):
    """Shannon entropy (bits) of each marginal of a pmf, keyed by subset
    mask and computed on first lookup; the empty set is preloaded as 0."""

    __slots__ = ("_support",)

    def __init__(self, pmf):
        super().__init__({0: 0.0})
        self._support = [(outcome, p) for outcome, p in enumerate(pmf) if p > 0.0]

    def __missing__(self, amask: int) -> float:
        marginal: dict = {}
        for outcome, p in self._support:
            key = outcome & amask
            marginal[key] = marginal.get(key, 0.0) + p
        h = 0.0
        for p in marginal.values():
            h -= p * math.log2(p)
        # rounding can push a deterministic marginal a hair below zero
        if -1e-9 < h < 0.0:
            h = 0.0
        if h < 0:
            raise ParameterError("set function values must be nonnegative")
        self[amask] = h
        return h


def entropy_function(dist: JointDistribution) -> SetFunction:
    """Shannon entropy (bits) of each marginal, as a table-backed function.

    A gap reads a handful of the 2^m marginals, so each is computed when
    first looked up and then kept.
    """
    return SetFunction(GroundSet(dist.variable_count), _EntropyTable(dist.pmf))


def _exchanges(f: SetFunction):
    """(f(S+a), f(S+b), f(S+a+b), f(S)) for every S and every pair a < b
    outside S."""
    n = f.ground.size
    table = f._table
    for base in range(1 << n):
        f0 = table[base]
        for a in range(n):
            if base >> a & 1:
                continue
            fa = table[base | 1 << a]
            for b in range(a + 1, n):
                if base >> b & 1:
                    continue
                yield fa, table[base | 1 << b], table[base | 1 << a | 1 << b], f0


def _check_tolerance(tolerance) -> None:
    # the rule of `verify --tolerance`: a NaN compares false with every
    # exchange, so it would pass any function, and a negative tolerance
    # would fail exact equalities
    try:
        valid = math.isfinite(tolerance) and tolerance >= 0
    except TypeError:
        valid = False
    if not valid:
        raise ParameterError(f"tolerance must be a finite number >= 0, got {tolerance!r}")


def is_submodular(f: SetFunction, tolerance: float = 0.0) -> bool:
    """Check f(S+a) + f(S+b) >= f(S+a+b) + f(S) for all S and a, b not in S.

    The pairwise exchange form is equivalent to submodularity on arbitrary
    pairs of sets (induction on the size of the symmetric difference), so
    this local sweep is a complete check.  Cost is O(n^2 2^n) lookups;
    modular backings satisfy the inequality identically and short-circuit.
    """
    _check_tolerance(tolerance)
    if f.is_modular_backed:
        return True
    return not any(fa + fb + tolerance < fab + f0 for fa, fb, fab, f0 in _exchanges(f))


def is_modular(f: SetFunction, tolerance: float = 0.0) -> bool:
    """Like :func:`is_submodular` but requires the exchange to be an equality."""
    _check_tolerance(tolerance)
    if f.is_modular_backed:
        return True
    return not any(abs(fa + fb - fab - f0) > tolerance for fa, fb, fab, f0 in _exchanges(f))


def _check_function_family(f: SetFunction, family: SubsetFamily) -> None:
    if f.ground != family.ground:
        raise GroundMismatchError("function and family use different ground sets")


# The gap cores below take a function's `_table`, the members' masks and
# 0-based positions that are already valid, and return lhs - rhs in the
# table's units.  The public gap functions validate their arguments and call
# them; the verify campaigns, which draw every argument in range, call them
# directly.


def _multiway_core(table, masks: Sequence[int], positions: Sequence[int]):
    lhs = 0
    for p in positions:
        lhs += table[masks[p]]
    rhs = 0
    for level in level_masks(masks, positions)[1:]:
        rhs += table[level]
    return lhs - rhs


def _prefix_core(table, masks: Sequence[int], cutoff: int, count: int, amask: int):
    prefix = range(count)
    pads = prefix_levels(masks, prefix, cutoff + 1)
    levels = level_masks(masks, prefix)
    # each side folds its late terms on their own and then adds them: that
    # order is part of every sampled gap's value
    lhs = 0
    for r in range(1, cutoff + 1):
        lhs += table[masks[r - 1] | amask]
    late = 0
    for r in range(cutoff + 1, count + 1):
        late += table[masks[r - 1] | pads[r] | amask]
    lhs += late
    rhs = 0
    for r in range(1, cutoff + 1):
        rhs += table[levels[r] | amask]
    late = 0
    for r in range(cutoff + 1, count + 1):
        late += table[pads[r] | amask]
    rhs += late
    return lhs - rhs


def _cross_level_core(
    table,
    masks: Sequence[int],
    pos_u: Sequence[int],
    pos_t: Sequence[int],
    u_level: int,
    t_prefix: int,
):
    """None when level `u_level` of U is not contained in level `t_prefix`
    of T, which is the gap's precondition."""
    anchor = level_masks(masks, pos_u)[u_level]
    t_levels = level_masks(masks, pos_t)
    if anchor & ~t_levels[t_prefix]:
        return None
    pads = prefix_levels(masks, pos_t, t_prefix + 1)
    lhs = 0
    for p in pos_t:
        lhs += table[masks[p]]
    lhs += t_prefix * table[anchor]
    rhs = 0
    for r in range(1, t_prefix + 1):
        rhs += table[t_levels[r]] + table[masks[pos_t[r - 1]] & anchor]
    late = 0
    for r in range(t_prefix + 1, len(pos_t) + 1):
        late += table[masks[pos_t[r - 1]] & (anchor | pads[r])]
    rhs += late
    return lhs - rhs


def multiway_gap(f: SetFunction, family: SubsetFamily, indices: Iterable[int]):
    """Gap of the multiway exchange: sum of f over the chosen sets minus the
    sum of f over their intersection levels 1..|indices|."""
    _check_function_family(f, family)
    positions = _check_indices(family.size, indices, "the index set")
    return f._exact(_multiway_core(f._table, family.masks, positions))


def prefix_multiway_gap(
    f: SetFunction,
    family: SubsetFamily,
    cutoff: int,
    count: int,
    anchor: Optional[ElementSet] = None,
):
    """Gap of the prefix-truncated multiway exchange on the first `count` sets.

    Terms with position r <= cutoff appear bare on the left and as full
    levels on the right; later terms are padded with the (cutoff+1)-level of
    the leading prefix on both sides.  cutoff = count recovers the plain
    multiway gap over the prefix, cutoff = 0 makes both sides identical.
    An optional anchor set is unioned into every term.
    """
    _check_function_family(f, family)
    _check_int(count, "count", 1, family.size)
    _check_int(cutoff, "cutoff", 0, count)
    if anchor is None:
        amask = 0
    else:
        if anchor.ground != family.ground:
            raise GroundMismatchError("anchor is over a different ground set")
        amask = anchor.mask
    return f._exact(_prefix_core(f._table, family.masks, cutoff, count, amask))


def cross_level_gap(
    f: SetFunction,
    family: SubsetFamily,
    U: Iterable[int],
    T: Iterable[int],
    u_level: int,
    t_prefix: int,
):
    """Gap of the exchange between a fixed level of U and the chain over T.

    Requires level `u_level` of U to be contained in level `t_prefix` of T;
    the anchor set (the U level) is intersected against each T member, with
    the deeper T levels padded past the prefix.  Raises PreconditionError
    when the containment fails.
    """
    _check_function_family(f, family)
    pos_u = _check_indices(family.size, U, "U")
    pos_t = _check_indices(family.size, T, "T")
    _check_int(u_level, "u_level", 1, len(pos_u))
    _check_int(t_prefix, "t_prefix", 1, len(pos_t))
    masks = family.masks
    gap = _cross_level_core(f._table, masks, pos_u, pos_t, u_level, t_prefix)
    if gap is None:
        ground = family.ground
        anchor = level_masks(masks, pos_u)[u_level]
        target = level_masks(masks, pos_t)[t_prefix]
        raise PreconditionError(
            f"level {u_level} of U "
            f"({ElementSet(ground, anchor).member_labels()}) is not contained in "
            f"level {t_prefix} of T ({ElementSet(ground, target).member_labels()})"
        )
    return f._exact(gap)
