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

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import GroundMismatchError, ParameterError

# the bound rules walk up to 2^K - 1 sink subsets, and the cor2 rule
# (`bounds._beta_bounds`) has no sink-count check of its own
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
        if not isinstance(self.size, int) or self.size < 1:
            raise ParameterError("ground size must be a positive integer")
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
            _check_int(m, "element")
            if not 0 <= m < self.size:
                raise ParameterError(f"element {m} outside ground of size {self.size}")
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
        # a bool is an int, as in `_check_int`
        if not isinstance(self.mask, int):
            raise ParameterError(f"mask must be an integer, got {self.mask!r}")
        if not 0 <= self.mask <= self.ground.full_mask:
            raise ParameterError("mask outside ground set range")

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

    def __contains__(self, element: int) -> bool:
        return 0 <= element < self.ground.size and self.mask >> element & 1 == 1

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
        return tuple(self.ground.label(i) for i in self.members())


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
        if not 1 <= len(self.sets) <= MAX_FAMILY:
            raise ParameterError(
                f"family size must be in 1..{MAX_FAMILY}: {FAMILY_CAP_REASON}"
            )
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
        pos = _check_indices(self, indices)
        _check_int(level, "level")
        if not 1 <= level <= len(pos):
            raise ParameterError(
                f"level {level} is out of range for a set of {len(pos)} indices"
            )
        mask = level_masks(self.masks, pos)[level]
        label = self.ground.label
        return tuple(label(p) for p in range(mask.bit_length()) if mask >> p & 1)


def _check_int(value, name: str) -> None:
    # a bool is an int, as in `BoundInequality.build`
    if not isinstance(value, int):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


def _check_indices(family: SubsetFamily, indices: Iterable[int]) -> tuple[int, ...]:
    """Validate 1-based member indices and return them 0-based, sorted."""
    idx = set(indices)
    for i in idx:
        if not isinstance(i, int):
            raise ParameterError(f"indices must be integers, got {i!r}")
    idx = sorted(idx)
    if not idx:
        raise ParameterError("index set must be nonempty")
    if idx[0] < 1 or idx[-1] > family.size:
        raise ParameterError(f"indices must lie in 1..{family.size}, got {idx}")
    return tuple(i - 1 for i in idx)


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
    pos = _check_indices(family, indices)
    _check_int(r, "level")
    if not 1 <= r <= len(pos):
        raise ParameterError(f"level must be in 1..{len(pos)}, got {r}")
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
            f"need 0 < cutoff < count <= {size}, got cutoff={cutoff} count={count}"
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
