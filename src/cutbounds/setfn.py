"""Set functions over a ground set and the chained exchange-gap evaluators.

Two backings are supported: modular functions given by per-element weights,
and tables indexed by subset mask (explicit value lists, or entropy tables
that compute each marginal on first lookup).  The gap evaluators return
lhs - rhs  of the corresponding combination inequality, so a nonnegative
result certifies one instance and an exactly zero result is expected
whenever the function is modular.

Float sums go through :func:`_left_sum`, never ``builtins.sum``: from
Python 3.12 on the builtin compensates float sums, which would change the
last bits of every sampled gap from one interpreter to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import GroundMismatchError, ParameterError, PreconditionError
from .setcalc import (
    ElementSet,
    GroundSet,
    SubsetFamily,
    _check_indices,
    level_masks,
)

MAX_TABLE_GROUND = 20
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

    Construct via :meth:`modular` or :meth:`from_table`.  Modular functions
    keep exact Fraction weights so that gap computations cancel exactly;
    table-backed functions evaluate by lookup (a sequence, or a mapping
    that may fill itself on a missing mask).
    """

    __slots__ = ("ground", "_weights", "_table")

    def __init__(self, ground: GroundSet, weights=None, table=None):
        self.ground = ground
        self._weights = weights
        self._table = table

    @classmethod
    def modular(cls, ground: GroundSet, weights: Sequence[Number]) -> "SetFunction":
        ws = tuple(Fraction(w) for w in weights)
        if len(ws) != ground.size:
            raise ParameterError(
                f"expected {ground.size} weights, got {len(ws)}"
            )
        if any(w < 0 for w in ws):
            raise ParameterError("modular weights must be nonnegative")
        return cls(ground, weights=ws)

    @classmethod
    def from_table(cls, ground: GroundSet, values: Sequence[Number]) -> "SetFunction":
        if ground.size > MAX_TABLE_GROUND:
            raise ParameterError(
                f"table backing is limited to {MAX_TABLE_GROUND} elements"
            )
        table = tuple(values)
        if len(table) != 1 << ground.size:
            raise ParameterError(
                f"table must have {1 << ground.size} entries, got {len(table)}"
            )
        if table[0] != 0:
            raise ParameterError("the empty set must map to 0")
        if any(v < 0 for v in table):
            raise ParameterError("set function values must be nonnegative")
        return cls(ground, table=table)

    @property
    def is_modular_backed(self) -> bool:
        return self._weights is not None

    def _value(self, mask: int):
        if self._weights is not None:
            total = Fraction(0)
            m = mask
            while m:
                low = m & -m
                total += self._weights[low.bit_length() - 1]
                m ^= low
            return total
        return self._table[mask]

    def __call__(self, subset: ElementSet):
        if subset.ground != self.ground:
            raise GroundMismatchError("subset is over a different ground set")
        return self._value(subset.mask)


@dataclass(frozen=True)
class JointDistribution:
    """Pmf of `variable_count` binary variables, indexed by outcome mask."""

    variable_count: int
    pmf: tuple

    def __post_init__(self):
        if not 1 <= self.variable_count <= MAX_VARIABLES:
            raise ParameterError(
                f"variable_count must be between 1 and {MAX_VARIABLES}: "
                f"{VARIABLES_CAP_REASON}"
            )
        pmf = tuple(float(p) for p in self.pmf)
        object.__setattr__(self, "pmf", pmf)
        if len(pmf) != 1 << self.variable_count:
            raise ParameterError(
                f"pmf must have {1 << self.variable_count} entries, got {len(pmf)}"
            )
        if any(p < 0 for p in pmf):
            raise ParameterError("pmf entries must be nonnegative")
        if abs(_left_sum(pmf) - 1.0) > PMF_SUM_TOLERANCE:
            raise ParameterError("pmf must sum to 1")


def random_joint_distribution(rng, variable_count: int) -> JointDistribution:
    """Draw a dense random pmf (normalized exponential weights)."""
    if not 1 <= variable_count <= MAX_VARIABLES:
        raise ParameterError(
            f"variable_count must be between 1 and {MAX_VARIABLES}: {VARIABLES_CAP_REASON}"
        )
    raw = [rng.expovariate(1.0) for _ in range(1 << variable_count)]
    total = _left_sum(raw)
    pmf = [w / total for w in raw]
    # discard sub-noise mass so downstream logs stay well conditioned
    pmf = [0.0 if p < PMF_CLAMP else p for p in pmf]
    total = _left_sum(pmf)
    return JointDistribution(variable_count, tuple(p / total for p in pmf))


class _EntropyTable(dict):
    """Shannon entropy (bits) of each marginal of a pmf, keyed by subset
    mask and computed on first lookup; the empty set is preloaded as 0."""

    __slots__ = ("_support",)

    def __init__(self, pmf):
        super().__init__({0: 0.0})
        self._support = tuple((outcome, p) for outcome, p in enumerate(pmf) if p > 0.0)

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
    return SetFunction(GroundSet(dist.variable_count), table=_EntropyTable(dist.pmf))


def _exchanges(f: SetFunction):
    """(f(S+a), f(S+b), f(S+a+b), f(S)) for every S and every pair a < b
    outside S."""
    n = f.ground.size
    for base in range(1 << n):
        f0 = f._value(base)
        for a in range(n):
            if base >> a & 1:
                continue
            fa = f._value(base | 1 << a)
            for b in range(a + 1, n):
                if base >> b & 1:
                    continue
                yield fa, f._value(base | 1 << b), f._value(base | 1 << a | 1 << b), f0


def is_submodular(f: SetFunction, tolerance: float = 0.0) -> bool:
    """Check f(S+a) + f(S+b) >= f(S+a+b) + f(S) for all S and a, b not in S.

    The pairwise exchange form is equivalent to submodularity on arbitrary
    pairs of sets (induction on the size of the symmetric difference), so
    this local sweep is a complete check.  Cost is O(n^2 2^n) lookups;
    modular backings satisfy the inequality identically and short-circuit.
    """
    if f.is_modular_backed:
        return True
    return not any(fa + fb + tolerance < fab + f0 for fa, fb, fab, f0 in _exchanges(f))


def is_modular(f: SetFunction, tolerance: float = 0.0) -> bool:
    """Like :func:`is_submodular` but requires the exchange to be an equality."""
    if f.is_modular_backed:
        return True
    return not any(abs(fa + fb - fab - f0) > tolerance for fa, fb, fab, f0 in _exchanges(f))


def _check_function_family(f: SetFunction, family: SubsetFamily) -> None:
    if f.ground != family.ground:
        raise GroundMismatchError("function and family use different ground sets")


def multiway_gap(f: SetFunction, family: SubsetFamily, indices: Iterable[int]):
    """Gap of the multiway exchange: sum of f over the chosen sets minus the
    sum of f over their intersection levels 1..|indices|."""
    _check_function_family(f, family)
    positions = _check_indices(family, indices)
    masks = family.masks
    lhs = _left_sum(f._value(masks[p]) for p in positions)
    rhs = _left_sum(f._value(level) for level in level_masks(masks, positions)[1:])
    return lhs - rhs


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
    if not 1 <= count <= family.size:
        raise ParameterError(
            f"count must be between 1 and {family.size}, got {count}"
        )
    if not 0 <= cutoff <= count:
        raise ParameterError(
            f"cutoff must be between 0 and count={count}, got {cutoff}"
        )
    if anchor is None:
        amask = 0
    else:
        if anchor.ground != family.ground:
            raise GroundMismatchError("anchor is over a different ground set")
        amask = anchor.mask
    masks = family.masks
    prefix = tuple(range(count))
    pads = {
        r: level_masks(masks, prefix[:r])[cutoff + 1] for r in range(cutoff + 1, count + 1)
    }
    levels = level_masks(masks, prefix)
    lhs = _left_sum(f._value(masks[r - 1] | amask) for r in range(1, cutoff + 1))
    lhs += _left_sum(
        f._value(masks[r - 1] | pads[r] | amask) for r in range(cutoff + 1, count + 1)
    )
    rhs = _left_sum(f._value(levels[r] | amask) for r in range(1, cutoff + 1))
    rhs += _left_sum(f._value(pads[r] | amask) for r in range(cutoff + 1, count + 1))
    return lhs - rhs


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
    pos_u = _check_indices(family, U)
    pos_t = _check_indices(family, T)
    if not 1 <= u_level <= len(pos_u):
        raise ParameterError(
            f"u_level must be between 1 and {len(pos_u)}, got {u_level}"
        )
    if not 1 <= t_prefix <= len(pos_t):
        raise ParameterError(
            f"t_prefix must be between 1 and {len(pos_t)}, got {t_prefix}"
        )
    masks = family.masks
    anchor = level_masks(masks, pos_u)[u_level]
    t_levels = level_masks(masks, pos_t)
    target = t_levels[t_prefix]
    if anchor & ~target:
        ground = family.ground
        raise PreconditionError(
            f"level {u_level} of U "
            f"({ElementSet(ground, anchor).member_labels()}) is not contained in "
            f"level {t_prefix} of T ({ElementSet(ground, target).member_labels()})"
        )
    lhs = _left_sum(f._value(masks[p]) for p in pos_t)
    lhs += t_prefix * f._value(anchor)
    rhs = _left_sum(
        f._value(t_levels[r]) + f._value(masks[pos_t[r - 1]] & anchor)
        for r in range(1, t_prefix + 1)
    )
    rhs += _left_sum(
        f._value(
            masks[pos_t[r - 1]]
            & (anchor | level_masks(masks, pos_t[:r])[t_prefix + 1])
        )
        for r in range(t_prefix + 1, len(pos_t) + 1)
    )
    return lhs - rhs
