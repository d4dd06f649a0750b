"""Ground sets, bit-indexed subsets, and level-r intersections of subset families.

The level-r operator of a family (S_1, ..., S_K) at an index set U takes the
union, over all r-element subsets U' of U, of the intersection of the S_k with
k in U'.  Level 1 is the plain union, level |U| the plain intersection, and
the levels shrink as r grows.

Every level comes from one kernel, :func:`level_masks`: a counter that
adds the members one at a time and keeps, for each r, the bit mask of the
elements met at least r times.  All levels of n members cost O(n^2) word
operations, not one intersection per r-subset.  :func:`prefix_levels` runs
the same counter once for level r of every prefix of the members.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import GroundMismatchError, ParameterError

# every sink count the library takes is checked against it in one place,
# `_check_sink_count`; the cor2 rule (`bounds._beta_bounds`) has no
# sink-count check of its own
MAX_FAMILY = 16
FAMILY_CAP_REASON = "the bound rules walk up to 2^K - 1 sink subsets"


@dataclass(frozen=True)
class GroundSet:
    """A finite universe of `size` elements, optionally labeled.

    `_position` maps each label to its position, None without labels; it
    takes no part in equality, hashing or repr.
    """

    size: int
    labels: tuple[str, ...] | None = None
    _position: dict | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_int(self.size, "ground size", 1)
        position = None
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.size:
                raise ParameterError("labels length must equal ground size")
            position = {label: p for p, label in enumerate(self.labels)}
            if len(position) != self.size:
                raise ParameterError("labels must be distinct")
        object.__setattr__(self, "_position", position)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def label(self, i: int) -> str:
        """The label of position i, its decimal digits on a ground without
        labels; a non-int or out-of-range position is refused."""
        _check_int(i, "position", 0, self.size - 1)
        # int(): a bool names its position, as `_check_int` lets it
        return self._label(int(i))

    def _label(self, i: int) -> str:
        """`label` unvalidated, for callers walking positions of this ground."""
        return self.labels[i] if self.labels is not None else str(i)

    def index(self, label: str) -> int:
        if self._position is None:
            raise ParameterError("ground set has no labels")
        try:
            return self._position[label]
        except (KeyError, TypeError):
            raise ParameterError(f"unknown label {label!r}") from None

    def subset(self, members: Iterable[int]) -> "ElementSet":
        mask = 0
        for m in members:
            _check_int(m, "element", 0, self.size - 1)
            mask |= 1 << m
        return ElementSet(self, mask)

    def subset_of_labels(self, names: Iterable[str]) -> "ElementSet":
        index = self.index
        mask = 0
        for name in names:
            mask |= 1 << index(name)
        return ElementSet(self, mask)

    def empty(self) -> "ElementSet":
        return ElementSet(self, 0)

    def full(self) -> "ElementSet":
        return ElementSet(self, self.full_mask)


@dataclass(frozen=True)
class ElementSet:
    """A subset of a ground set, stored as a bit mask."""

    ground: GroundSet
    mask: int

    def __post_init__(self):
        _check_int(self.mask, "mask", 0, self.ground.full_mask)

    def _same_ground(self, other: "ElementSet") -> None:
        if self.ground != other.ground:
            raise GroundMismatchError("element sets built over different grounds")

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._same_ground(other)
        return ElementSet(self.ground, self.mask | other.mask)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._same_ground(other)
        return ElementSet(self.ground, self.mask & other.mask)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._same_ground(other)
        return ElementSet(self.ground, self.mask & ~other.mask)

    def __le__(self, other: "ElementSet") -> bool:
        self._same_ground(other)
        return self.mask & ~other.mask == 0

    def __contains__(self, element) -> bool:
        """Whether `element` is a position this set holds: False for
        anything else, a non-int included."""
        return (
            isinstance(element, int)
            and 0 <= element < self.ground.size
            and self.mask >> element & 1 == 1
        )

    def __len__(self) -> int:
        return self.mask.bit_count()

    def is_empty(self) -> bool:
        return self.mask == 0

    def members(self) -> tuple[int, ...]:
        members = []
        mask = self.mask
        while mask:
            low = mask & -mask
            members.append(low.bit_length() - 1)
            mask ^= low
        return tuple(members)

    def member_labels(self) -> tuple[str, ...]:
        return tuple(map(self.ground._label, self.members()))


@dataclass(frozen=True)
class SubsetFamily:
    """An ordered family (S_1, ..., S_K) of subsets of one ground set.

    `masks` holds the members' bit masks, computed once on construction; it
    takes no part in equality, hashing or repr.
    """

    ground: GroundSet
    sets: tuple[ElementSet, ...]
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        _check_sink_count(len(self.sets))
        for s in self.sets:
            # the identity test spares the field-by-field equality when the
            # members share the family's ground object, as they mostly do
            if s.ground is not self.ground and s.ground != self.ground:
                raise GroundMismatchError("family member over a different ground")
        object.__setattr__(self, "masks", tuple(s.mask for s in self.sets))

    @property
    def size(self) -> int:
        return len(self.sets)

    def level_labels(self, level: int, indices) -> tuple[str, ...]:
        """Labels of the elements lying in at least `level` of the members
        named by the 1-based `indices`, in position order; validated."""
        return intersect_level(self, indices, level).member_labels()


def _shown(value, text=str) -> str:
    """`text(value)` for an error text.  Past the interpreter's digit limit
    `str()` and `repr()` of an int raise `ValueError`, so such a value is
    described by that limit.  Only a failed check calls this."""
    try:
        return text(value)
    except ValueError:
        return f"a number with more than {sys.get_int_max_str_digits()} digits"


def _check_int(value, name: str, lo=None, hi=None) -> None:
    """Refuse a `value` that is not an int, one below `lo` when given, and
    one above `hi` when given; every level, count, position, mask, sink
    count and sink index the library takes from its caller is checked here.
    A bool is an int."""
    if not isinstance(value, int):
        raise ParameterError(f"{name} must be an integer, got {_shown(value, repr)}")
    if lo is None:
        return
    if hi is None:
        if value < lo:
            raise ParameterError(f"{name} must be at least {lo}, got {_shown(value)}")
    elif not lo <= value <= hi:
        raise ParameterError(
            f"{name} must be between {lo} and {_shown(hi)}, got {_shown(value)}"
        )


def _check_sink_count(K) -> None:
    """Refuse a sink count that is not an int in 1..MAX_FAMILY."""
    _check_int(K, "the sink count", 1)
    if K > MAX_FAMILY:
        raise ParameterError(
            f"the sink count must be at most {MAX_FAMILY}, got {_shown(K)}: {FAMILY_CAP_REASON}"
        )


def _check_indices(size: int, indices: Iterable[int], name: str) -> tuple[int, ...]:
    """Validate `name`, a nonempty collection of 1-based indices of `size`
    members, and return them 0-based, sorted and distinct, as ints."""
    try:
        idx = tuple(indices)
    except TypeError:
        raise ParameterError(
            f"{name} must be a collection of integers, got {_shown(indices, repr)}"
        ) from None
    what = f"an index in {name}"
    for i in idx:
        _check_int(i, what, 1, size)
    if not idx:
        raise ParameterError(f"{name} must be nonempty")
    # i - 1 is an int for a bool i too
    return tuple(sorted({i - 1 for i in idx}))


def level_masks(masks: Sequence[int], positions: Iterable[int]) -> list[int]:
    """Levels 0..n of the masks at the n given positions: entry r holds the
    elements lying in at least r of them, and entry 0 is -1, every element.

    One pass of the counter: adding mask m turns each level r >= 1 into
    level_r | (level_(r-1) & m), both read before m was added, and opens a
    new top level.
    """
    out = [-1]
    for p in positions:
        m = masks[p]
        below = -1
        for r in range(1, len(out)):
            level = out[r]
            out[r] = level | (below & m)
            below = level
        out.append(below & m)
    return out


def prefix_levels(masks: Sequence[int], positions: Sequence[int], r: int) -> list[int]:
    """Level r of every prefix of the positions: entry j equals
    ``level_masks(masks, positions[:j])[r]``, and is 0 (no element) for
    j < r, where that list has no entry r.

    One pass of the `level_masks` counter, kept to levels 0..r, since level
    r never reads a level above it: O(n r) word operations for all n + 1
    prefixes, not one counter per prefix.
    """
    out = [-1]
    found = [-1 if r == 0 else 0]
    for p in positions:
        m = masks[p]
        below = -1
        for k in range(1, len(out)):
            level = out[k]
            out[k] = level | (below & m)
            below = level
        if len(out) <= r:
            out.append(below & m)
        found.append(out[r] if r < len(out) else 0)
    return found


def intersect_level(family: SubsetFamily, indices: Iterable[int], r: int) -> ElementSet:
    """Level-r intersection of the family members named by 1-based `indices`.

    Returns the union over all r-element subsets of `indices` of the
    intersection of the corresponding family sets, read off `level_masks`;
    the tests check that kernel against this definition.
    """
    pos = _check_indices(family.size, indices, "the index set")
    _check_int(r, "level", 1, len(pos))
    return ElementSet(family.ground, level_masks(family.masks, pos)[r])


def _prefix_extended_masks(masks: Sequence[int], cutoff: int, pads: Sequence[int]) -> list[int]:
    """G_1, ..., G_count from ``pads = prefix_levels(masks, range(count), cutoff + 1)``."""
    return list(masks[:cutoff]) + [
        masks[r - 1] | pads[r] for r in range(cutoff + 1, len(pads))
    ]


def prefix_extended_family(
    family: SubsetFamily, cutoff: int, count: int
) -> SubsetFamily:
    """The family (G_1, ..., G_count) that augments late members by prefix levels.

    G_r = S_r for r <= cutoff, and for r > cutoff G_r is S_r unioned with the
    level-(cutoff+1) intersection of the first r members.  Requires
    0 < cutoff < count <= family size.
    """
    _check_cutoff(family.size, cutoff, count)
    masks = family.masks
    ext = _prefix_extended_masks(
        masks, cutoff, prefix_levels(masks, range(count), cutoff + 1)
    )
    return SubsetFamily(
        family.ground, tuple(ElementSet(family.ground, m) for m in ext)
    )


def _check_cutoff(size: int, cutoff: int, count: int) -> None:
    """The precondition of the prefix extension of a family of `size` members."""
    _check_int(cutoff, "cutoff")
    _check_int(count, "count")
    if not 0 < cutoff < count <= size:
        raise ParameterError(
            f"need 0 < cutoff < count <= {size},"
            f" got cutoff={_shown(cutoff)} count={_shown(count)}"
        )


def _prefix_identity_masks(masks: Sequence[int], cutoff: int, count: int) -> bool:
    """Mask-level core of prefix_extension_identity; no validation."""
    pads = prefix_levels(masks, range(count), cutoff + 1)
    lhs = level_masks(_prefix_extended_masks(masks, cutoff, pads), range(count))
    rhs = level_masks(masks, range(count))[: cutoff + 1] + [
        pads[count - r + cutoff + 1] for r in range(cutoff + 1, count + 1)
    ]
    return lhs == rhs


def prefix_extension_identity(
    family: SubsetFamily, cutoff: int, count: int
) -> bool:
    """Check the closed form for the levels of the prefix-extended family.

    True iff, with G = prefix_extended_family(family, cutoff, count), the
    level-r set of G over the first `count` indices equals the level-r set of
    the original family for r <= cutoff, and equals the level-(cutoff+1) set
    of the first (count - r + cutoff + 1) original members for r > cutoff.
    Both sides are read off the `level_masks` counter, the prefixes' levels
    through `prefix_levels`; the tests check both against the definition.
    """
    _check_cutoff(family.size, cutoff, count)
    return _prefix_identity_masks(family.masks, cutoff, count)
