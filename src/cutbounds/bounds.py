"""Builders for cut-type rate bounds on broadcast-style networks.

A bound is a weighted list of (level, sink-subset) terms.  The same term
list is read twice: against the demand family it gives message-rate
coefficients, against the basic-cut family arc-capacity coefficients.
Keeping one term list for both sides is what makes the rate/capacity
symmetry of these bounds structural rather than something each builder
has to re-establish.  It also means a term list gives one coefficient to
all elements held by the same members, so every row the program builds
comes from `_CellKernel`, which evaluates and deduplicates rows on these
membership cells; `bound_rows` and `thm2_search` list labels only for the
rows it keeps.  Which rows are kept, and how they sort, then depends on
the rules, the sink count and each family's layout (the cell of each
label, in label order) alone, not on capacities: the kept rows of a
layout are built once and kept in `_row_tables`, bounded by the rows it
holds, and each call computes only their right sides.  The thm2 search,
whose side conditions compare levels, depends only on which cells the two
families occupy: on a row-table miss it runs on the levels of those cells
(`_thm2_bounds`), and its bounds enter the table as a rule's do.
`instantiate` walks a term list label by label; the program does not call
it, and tests use it as the independent reference.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, count, repeat
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

from .errors import ParameterError, PreconditionError, exact_rational
from .setcalc import (
    FAMILY_CAP_REASON,
    MAX_FAMILY,
    ElementSet,
    SubsetFamily,
    _check_indices,
    _check_int,
    level_masks,
)

MAX_BETA_SET_SIZE = 6
# the thm2 search (`_thm2_bounds`) walks (2^K - 1)^3 sink-set triples
# (G, U, T): 29791 at K = 5, where the complete network's all-rule report
# takes under a second, and 250047 at K = 6.  `_row_kernel` checks the cap
# with the rule names, so a request over it is refused before any row is
# built, whatever the rule order
MAX_SEARCH_SINKS = 5

# a row table depends on the rules, K and the cell layouts alone, so a
# process that meets one topology again (a capacity sweep, repeated
# reports) reuses its rows; 8192 rows hold about 3.4 MB at the complete
# K = 5 network's 31 cells (2771 rows for all rules, almost all thm2's)
# and 3.5 MB at the complete K = 8 network's 255 (tracemalloc).  One pass
# of the `report` benchmark holds 2248 rows; a larger table, such as a
# 14-sink cor3 report's 69576 rows, is used once and not kept
MAX_CACHED_ROWS = 8192

ENUMERATION_RULES = ("csb", "gcsb3", "cor3")
BOUND_RULES = ENUMERATION_RULES + ("cor2", "thm2")


def _format_set(values: Iterable[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


def _validate_split_points(Q) -> tuple:
    qs = sorted(set(Q))
    if any(not isinstance(q, int) or q < 2 for q in qs):
        raise ParameterError("split points must be integers >= 2")
    return tuple(qs)


def alpha(Q, q: int, r: int, r_q: Optional[int] = None) -> Fraction:
    """Chain weight of level r contributed by split point q.

    The default split position is q - 1.  Weights vanish on the split set
    itself and the row for each q sums to 1 at the default position.
    """
    qs = _validate_split_points(Q)
    if q not in qs:
        raise ParameterError(f"{q} is not one of the split points {qs}")
    if r_q is None:
        r_q = q - 1
    if r_q < 1:
        raise ParameterError("split position must be at least 1")
    if not 1 <= r <= r_q:
        raise ParameterError(f"level must be between 1 and {r_q}, got {r}")
    return Fraction(*_alpha_ratio(qs, r, r_q))


def _alpha_ratio(qs: tuple, r: int, r_q: int) -> tuple:
    """Numerator and denominator of alpha at split position r_q, unvalidated;
    the split point itself enters only through r_q."""
    if r in qs:
        return 0, 1
    numerator = math.prod(p - 1 for p in qs if p < r) * math.prod(
        p for p in qs if r < p <= r_q
    )
    return numerator, r_q * math.prod(p - 1 for p in qs if p <= r_q)


def beta(Q, r: int) -> Fraction:
    """Unnormalized level weight skipping the split set Q entirely."""
    qs = _validate_split_points(Q)
    if r < 1:
        raise ParameterError("level must be at least 1")
    return Fraction(_beta_weight(qs, r))


def _beta_weight(qs: tuple, r: int) -> int:
    """beta as an int, unvalidated."""
    if not qs:
        return 1
    if r in qs:
        return 0
    return math.prod(p - 1 for p in qs if p < r) * math.prod(p for p in qs if p > r)


def alpha_beta_identity(Q, r: int) -> bool:
    """Check that the alpha rows at default splits telescope into beta.

    For r below max(Q) the stacked alpha weights equal
    beta(Q, r) / prod(q - 1) minus the single unit contributed elsewhere,
    and they vanish on Q itself.
    """
    qs = _validate_split_points(Q)
    if not qs:
        raise ParameterError("at least one split point is required")
    if not 1 <= r < max(qs):
        raise ParameterError(f"level must be between 1 and {max(qs) - 1}, got {r}")
    lhs = sum((alpha(qs, q, r) for q in qs if q > r), Fraction(0))
    if r in qs:
        return lhs == 0
    scale = math.prod(q - 1 for q in qs)
    return lhs == beta(qs, r) / scale - 1


@dataclass(frozen=True, slots=True)
class BoundTerm:
    """One weighted level term; `indices` holds 1-based sink indices."""

    level: int
    indices: frozenset
    weight: Union[Fraction, int]


@dataclass(frozen=True, slots=True)
class BoundInequality:
    """Canonical weighted term list plus a human-readable origin tag.

    The weights of the canonical list are coprime positive ints.  Equality
    and hashing ignore the provenance, so two builders producing the same
    inequality compare equal regardless of the route taken.
    """

    terms: tuple
    provenance: str = field(default="", compare=False)

    @classmethod
    def build(cls, terms, provenance: str = "") -> "BoundInequality":
        """Merge, scale and order the terms.  Weights may be any
        nonnegative rationals; `int` weights are summed as ints."""
        merged: dict = {}
        for t in terms:
            indices = frozenset(t.indices)
            if not indices or any(not isinstance(i, int) or i < 1 for i in indices):
                raise ParameterError("term indices must be positive integers")
            if not 1 <= t.level <= len(indices):
                raise ParameterError(
                    f"level {t.level} is out of range for a set of {len(indices)} indices"
                )
            weight = t.weight
            if type(weight) is not int:
                weight = exact_rational(weight, "a term weight")
            if weight < 0:
                raise ParameterError("term weights must be nonnegative")
            key = (t.level, indices)
            merged[key] = merged.get(key, 0) + weight
        if not any(merged.values()):
            raise ParameterError("a bound needs at least one term with positive weight")
        scale = math.lcm(*(w.denominator for w in merged.values()))
        units = {key: int(w * scale) for key, w in merged.items()}
        return cls(_canonical_terms(units), provenance)


def _term_order(item) -> tuple:
    (level, indices), _ = item
    return len(indices), sorted(indices), level


def _canonical_terms(weights: dict) -> tuple:
    """The canonical term tuple of nonnegative int weights keyed by
    (level, indices), not all zero: zero weights dropped, the rest divided
    by their gcd, terms ordered by set size, then indices, then level."""
    alive = [item for item in weights.items() if item[1]]
    g = math.gcd(*(w for _, w in alive))
    alive.sort(key=_term_order)
    return tuple(BoundTerm(level, indices, w // g) for (level, indices), w in alive)


def cutset_bound(U) -> BoundInequality:
    """Plain cut-set bound over the sink set U: one level-1 union term."""
    indices = frozenset(U)
    if not indices:
        raise ParameterError("the sink set must be nonempty")
    return BoundInequality.build(
        [BoundTerm(1, indices, 1)], provenance=f"csb({_format_set(indices)})"
    )


def gcsb3(i: int, j: int, k: int, variant: str) -> BoundInequality:
    """The four generalized three-sink bounds; the pair {i, j} is the one
    singled out in variants a and c."""
    if len({i, j, k}) != 3 or min(i, j, k) < 1:
        raise ParameterError("three distinct positive sink indices are required")
    full = frozenset((i, j, k))
    pair = frozenset((i, j))
    if variant == "a":
        terms = [BoundTerm(1, full, 1), BoundTerm(2, pair, 1)]
    elif variant == "b":
        terms = [BoundTerm(1, full, 1), BoundTerm(2, full, 1)]
    elif variant == "c":
        terms = [BoundTerm(1, full, 1), BoundTerm(1, pair, 1), BoundTerm(3, full, 1)]
    elif variant == "d":
        terms = [BoundTerm(1, full, 2), BoundTerm(3, full, 1)]
    else:
        raise ParameterError(f"unknown variant {variant!r}, expected one of a, b, c, d")
    return BoundInequality.build(terms, provenance=f"gcsb3{variant}({i},{j},{k})")


def beta_bound(U, Q) -> BoundInequality:
    """Level bound with beta weights skipping the split set Q."""
    indices = frozenset(U)
    if not indices:
        raise ParameterError("the sink set must be nonempty")
    if len(indices) > MAX_BETA_SET_SIZE:
        raise ParameterError(
            f"beta weights grow factorially; sink sets are capped at {MAX_BETA_SET_SIZE}"
        )
    qs = _validate_split_points(Q)
    if any(q > len(indices) for q in qs):
        raise ParameterError("split points must lie within {2..|U|}")
    terms = [BoundTerm(r, indices, _beta_weight(qs, r)) for r in range(1, len(indices) + 1)]
    return BoundInequality.build(
        terms, provenance=f"cor2({_format_set(indices)}, Q={_format_set(qs)})"
    )


def union_tail_bound(U, m: int) -> BoundInequality:
    """m copies of the union term plus all levels above m; the scaled form
    of the beta bound at consecutive split points 2..m."""
    indices = frozenset(U)
    if not indices:
        raise ParameterError("the sink set must be nonempty")
    _check_int(m, "m")
    if not 1 <= m <= len(indices):
        raise ParameterError(f"m must be between 1 and {len(indices)}, got {m}")
    terms = [BoundTerm(1, indices, m)]
    terms.extend(BoundTerm(r, indices, 1) for r in range(m + 1, len(indices) + 1))
    return BoundInequality.build(
        terms, provenance=f"cor3({_format_set(indices)}, m={m})"
    )


def _bits(positions: Iterable[int]) -> int:
    """The bit mask of 0-based positions."""
    return sum(1 << p for p in positions)


def _labelled_extra(family: SubsetFamily, mask: int) -> str:
    return ", ".join(ElementSet(family.ground, mask).member_labels())


def gcsbK(
    G,
    U=None,
    T=None,
    Q=(),
    r_q_map: Optional[Mapping[int, int]] = None,
    *,
    cut_family: SubsetFamily,
    msg_family: SubsetFamily,
) -> BoundInequality:
    """General sink-cover bound: a union term over G, the upper levels of U
    outside the split set Q, and alpha-weighted chain terms over T.

    U defaults to G and T defaults to U.  Validity is checked against the
    given families: the basic-cut union over G must cover the one over U,
    and each split level of U must be contained in the chain level of T on
    both the cut side and the message side.
    """
    if cut_family.size != msg_family.size:
        raise ParameterError("cut and message families must have the same sink count")
    pos_g = _check_indices(cut_family, G)
    pos_u = pos_g if U is None else _check_indices(cut_family, U)
    pos_t = pos_u if T is None else _check_indices(cut_family, T)
    ids_g, ids_u, ids_t = (tuple(p + 1 for p in pos) for pos in (pos_g, pos_u, pos_t))
    qs = _validate_split_points(Q)
    if any(q > len(ids_u) for q in qs):
        raise ParameterError("split points must lie within {2..|U|}")
    splits = {q: q - 1 for q in qs}
    if r_q_map:
        for q, r_q in r_q_map.items():
            if q not in splits:
                raise ParameterError(f"split position given for {q}, which is not in Q")
            splits[q] = r_q
    for q, r_q in splits.items():
        if not 1 <= r_q <= len(ids_t):
            raise ParameterError(
                f"split position for {q} must be between 1 and {len(ids_t)}, got {r_q}"
            )

    families = cut_family, msg_family
    levels_u = [level_masks(family.masks, pos_u) for family in families]
    levels_t = [level_masks(family.masks, pos_t) for family in families]
    missing = levels_u[0][1] & ~level_masks(cut_family.masks, pos_g)[1]
    if missing:
        raise PreconditionError(
            "the basic-cut union over G does not cover the one over U "
            f"(missing: {_labelled_extra(cut_family, missing)})"
        )
    for q, r_q in splits.items():
        for family, side, u, t in zip(families, ("cut", "message"), levels_u, levels_t):
            extra = u[q] & ~t[r_q]
            if extra:
                hint = ""
                # a level above |U| is empty, and this side's level q is not
                if r_q <= len(ids_u) and all(not v[q] & ~v[r_q] for v in levels_u):
                    hint = "; the containment does hold with T = U"
                raise PreconditionError(
                    f"{side}-side level {q} of U is not contained in "
                    f"level {r_q} of T (extra: {_labelled_extra(family, extra)}){hint}"
                )

    terms = _general_terms(
        frozenset(ids_g), frozenset(ids_u), frozenset(ids_t), qs, *_chain_weights(qs, splits)
    )
    return BoundInequality(terms, _general_provenance(ids_g, ids_u, ids_t, qs, splits))


def _chain_weights(qs: tuple, splits: Mapping[int, int]) -> tuple:
    """The alpha rows of the split points over their common denominator:
    (the int weight of each unit term, {level: int weight of the chain term
    over T}), zero weights left out."""
    parts = [
        (r, *_alpha_ratio(qs, r, splits[q])) for q in qs for r in range(1, splits[q] + 1)
    ]
    scale = math.lcm(*(den for _, _, den in parts))
    chain: dict = {}
    for r, num, den in parts:
        if num:
            chain[r] = chain.get(r, 0) + num * (scale // den)
    return scale, chain


def _general_terms(set_g, set_u, set_t, qs: tuple, unit: int, chain: Mapping[int, int]) -> tuple:
    """Canonical term list of the general bound: weight `unit` on the union
    over G and on each level of U outside Q from 2 up, plus the chain terms
    over T.  Unvalidated; the one term builder behind gcsbK and thm2_search."""
    weights = {(1, set_g): unit}
    for r in range(2, len(set_u) + 1):
        if r not in qs:
            weights[(r, set_u)] = unit
    for r, w in chain.items():
        key = (r, set_t)
        weights[key] = weights.get(key, 0) + w
    return _canonical_terms(weights)


def _general_provenance(ids_g, ids_u, ids_t, qs: tuple, splits: Mapping[int, int]) -> str:
    provenance = (
        f"thm2(G={_format_set(ids_g)}, U={_format_set(ids_u)}, "
        f"T={_format_set(ids_t)}, Q={_format_set(qs)})"
    )
    if any(splits[q] != q - 1 for q in qs):
        inner = ",".join(f"{q}:{splits[q]}" for q in qs)
        provenance = provenance[:-1] + f", r_q={{{inner}}})"
    return provenance


@dataclass(eq=False)
class InstantiatedInequality:
    """A bound evaluated on a concrete network: nonzero per-message rate
    coefficients, nonzero per-arc capacity coefficients, and optionally the
    numeric right side under given capacities.  It is None without
    capacities, or when an arc on the right is unbounded (capacity None):
    verified cuts (`network.make_cut`, `network.min_cut`) never hold such an
    arc, so only a library caller's own cut family can."""

    rate_coeffs: dict
    capacity_coeffs: dict
    rhs_value: Optional[Fraction]
    provenance: str

    def signature(self):
        """Scale-free canonical form used to recognize duplicates: the
        coefficients scaled to coprime integers, sorted by label."""
        rate = sorted(self.rate_coeffs.items())
        items = rate + sorted(self.capacity_coeffs.items())
        if not items:
            return ((), ())
        scale = math.lcm(*(v.denominator for _, v in items))
        units = [v.numerator * (scale // v.denominator) for _, v in items]
        g = math.gcd(*units)
        canonical = [(label, u // g) for (label, _), u in zip(items, units)]
        return tuple(canonical[: len(rate)]), tuple(canonical[len(rate):])

    def lhs_value(self, rates: Mapping) -> Fraction:
        total = Fraction(0)
        for label, coeff in self.rate_coeffs.items():
            if label not in rates:
                raise ParameterError(f"no rate given for message {label!r}")
            total += coeff * exact_rational(rates[label], "a rate")
        return total


def instantiate(
    bound: BoundInequality,
    cut_family: SubsetFamily,
    msg_family: SubsetFamily,
    capacities: Optional[Mapping] = None,
) -> InstantiatedInequality:
    """Evaluate a bound's term list on a network's demand and cut families.

    Each term adds its weight to every message in the corresponding demand
    level and to every arc in the corresponding cut level.  When capacities
    (ints or Fractions, None for unbounded) are given, the numeric right
    side is accumulated as well; it stays None when an arc on the right is
    unbounded, which only a library caller's own cut family can hold.  Only
    the capacities of the arcs on the right are read.
    """
    if cut_family.size != msg_family.size:
        raise ParameterError("cut and message families must have the same sink count")
    rate: dict = {}
    cap: dict = {}
    msg_labels, cut_labels = msg_family.level_labels, cut_family.level_labels
    for t in bound.terms:
        level, indices, weight = t.level, t.indices, t.weight
        for label in msg_labels(level, indices):
            rate[label] = rate.get(label, 0) + weight
        for label in cut_labels(level, indices):
            cap[label] = cap.get(label, 0) + weight
    units, denominator = _capacity_units(cap, capacities)
    if units is not None and _MISSING in units:
        label = next(label for label, unit in zip(cap, units) if unit is _MISSING)
        raise ParameterError(f"no capacity given for arc {label!r}")
    void = units is None or None in units
    rhs = None if void else Fraction(sum(map(operator.mul, cap.values(), units)), denominator)
    return InstantiatedInequality(rate, cap, rhs, bound.provenance)


# a capacity the caller's mapping does not give
_MISSING = object()


def _capacity_units(labels: Iterable[str], capacities: Optional[Mapping]) -> tuple:
    """Per label, in the order given, its capacity times the common
    denominator of the bounded ones (None when unbounded, _MISSING when not
    given), and that denominator; (None, 1) without capacities.  A given
    capacity must be an int, a Fraction or None."""
    if capacities is None:
        return None, 1
    values, bounded = [], []
    for label in labels:
        values.append(v := capacities.get(label, _MISSING))
        if isinstance(v, (int, Fraction)):
            bounded.append(v)
        elif v is not None and v is not _MISSING:
            raise ParameterError(
                f"the capacity of arc {label!r} must be an int, a Fraction or None"
            )
    denominator = math.lcm(*[v.denominator for v in bounded])
    units = [
        v if v is None or v is _MISSING else v.numerator * (denominator // v.denominator)
        for v in values
    ]
    return units, denominator


def _element_cells(family: SubsetFamily) -> list:
    """Each element's membership cell: the bit set of the members holding
    it, bit k - 1 for member k; 0 for an element in no member."""
    cells = [0] * family.ground.size
    for k, mask in enumerate(family.masks):
        bit = 1 << k
        while mask:
            low = mask & -mask
            cells[low.bit_length() - 1] |= bit
            mask ^= low
    return cells


def _occupied(cells: Iterable[int]) -> tuple:
    """The distinct nonzero cells, sorted."""
    return tuple(sorted(set(cells).difference((0,))))


def _cell_masks(K: int, cells: Sequence[int]) -> list:
    """The masks of K members over one element per cell of `cells`, in that
    order, member k holding the elements whose cell has bit k - 1 set: the
    inverse of `_element_cells` on distinct nonzero cells."""
    return [_bits(p for p, c in enumerate(cells) if c >> k & 1) for k in range(K)]


def _cell_vectors(bounds: Iterable[BoundInequality], cells: Sequence[int], K: int) -> list:
    """Each bound's coefficient on each membership cell of `cells`, cells
    of K members, as `bytes` aligned with them.

    Level r of the members I holds exactly the elements whose cell meets I
    in r bits or more, so a term list gives all elements of one cell the
    same coefficient, sum_t w_t [popcount(cell & I_t) >= r_t], in either
    family.  The cells are evaluated together, one byte each of one int:
    summing the members' 0/1 bytes over I counts each cell's bits in I (at
    most K <= 16), and adding 128 - r sets a byte's top bit exactly where
    the count is r or more.  A coefficient is at most its bound's weight
    sum, which stays below 256 (csb 1, gcsb3 3, cor3 K, cor2 48 with sink
    sets of at most MAX_BETA_SET_SIZE, thm2 40 with at most
    MAX_SEARCH_SINKS sinks), so no byte carries into the next."""
    ones = int.from_bytes(bytes([1]) * len(cells), "little")
    members = [int.from_bytes(bytes([c >> k & 1 for c in cells]), "little") for k in range(K)]
    indicators: dict = {}
    vectors = []
    for bound in bounds:
        vector = total = 0
        for t in bound.terms:
            key = t.level, t.indices
            indicator = indicators.get(key)
            if indicator is None:
                count = sum([members[i - 1] for i in t.indices])
                indicator = indicators[key] = (count + (128 - t.level) * ones) >> 7 & ones
            vector += t.weight * indicator
            total += t.weight
        # an internal invariant of the rule tables, not user input
        if total > 255:
            raise AssertionError(f"a coefficient of {bound.provenance} may not fit a byte")
        vectors.append(vector.to_bytes(len(cells), "little"))
    return vectors


_first, _second = operator.itemgetter(0), operator.itemgetter(1)


def _picker(indices: Sequence[int]):
    """A function giving the items of a sequence at `indices`, as a tuple."""
    if len(indices) == 1:
        (only,) = indices
        return lambda seq: (seq[only],)
    return operator.itemgetter(*indices) if indices else lambda seq: ()


class _CellSide:
    """One family's labels in sorted order, the elements in no member left
    out, and a picker of their cells' slots in a kernel vector.
    `positions` are the ground positions of the elements some member holds,
    in ground order, and `slots` their cells' slots: a caller that writes
    rows itself reads their coefficients there, never walking an element in
    no member.  `layout` is the cell of each label in label order: with the
    other side's it fixes the occupied cells, their slots and the order
    `key` gives, so everything a `_RowTable` holds."""

    def __init__(self, family: SubsetFamily, cells: list, slot: dict):
        label = family.ground.label
        ranked = sorted((label(p), c) for p, c in enumerate(cells) if c)
        self.labels = tuple(name for name, _ in ranked)
        self.layout = tuple(c for _, c in ranked)
        self.pick = _picker([slot[c] for c in self.layout])
        self.positions = tuple(p for p, c in enumerate(cells) if c)
        self.slots = tuple(slot[cells[p]] for p in self.positions)

    def coeffs(self, vector) -> dict:
        """The label-keyed nonzero coefficients of a vector, in label order."""
        values = self.pick(vector)
        return dict(zip(compress(self.labels, values), compress(values, values)))

    def key(self, vector) -> tuple:
        """Rank and coefficient of each label with a nonzero coefficient, in
        one flat tuple: ordered as one half of
        `InstantiatedInequality.signature`, which pairs labels with them."""
        values = self.pick(vector)
        return tuple(chain.from_iterable(zip(compress(count(), values), compress(values, values))))


class _RowTable:
    """The rows some rules keep on one pair of cell layouts, without right
    sides: `rows` maps each dedupe key to the first (vector, bound) added
    with it, in the order added.

    A row's dedupe key is its vector divided by its gcd: two rows share it
    exactly when they share a signature, for each occupied cell holds a
    label.  Nothing here depends on labels or capacities, so `_row_kernel`
    shares one table between every call on the same layouts (`_row_tables`).
    """

    __slots__ = ("rows", "_order")

    def __init__(self):
        self.rows: dict = {}
        self._order = None

    def add(self, vectors: Iterable[bytes], bounds: Iterable[BoundInequality]) -> None:
        """Keep each bound's row unless its key was met before."""
        rows = self.rows
        for vector, bound in zip(vectors, bounds):
            g = math.gcd(*vector)
            key = vector if g < 2 else bytes(w // g for w in vector)
            if key not in rows:
                rows[key] = vector, bound

    def order(self, msg_key, cut_key) -> tuple:
        """The positions of the rows, in the order added, sorted as their
        signatures sort: by the sides' `key`s of their dedupe keys.  Sorted
        on the first call, then kept, as the layouts fix the keys."""
        if self._order is None:
            keys = [(msg_key(key), cut_key(key)) for key in self.rows]
            self._order = tuple(sorted(range(len(keys)), key=keys.__getitem__))
        return self._order


class _RowTableCache:
    """The `_RowTable`s of the (rules, sink count, layouts) met last, the
    least recently used dropped first, holding `budget` rows at most in
    all: a table of more rows is built and used but not kept.  Nor is an
    empty one, which costs nothing to build and would count for nothing
    against the budget."""

    def __init__(self, budget: int):
        self.budget = budget
        self.rows = self.hits = 0
        self._tables: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._tables)

    def get(self, key) -> Optional[_RowTable]:
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                self.hits += 1
                self._tables.move_to_end(key)
            return table

    def put(self, key, table: _RowTable) -> None:
        size = len(table.rows)
        with self._lock:
            if not 0 < size <= self.budget or key in self._tables:
                return
            while self.rows + size > self.budget:
                _, dropped = self._tables.popitem(last=False)
                self.rows -= len(dropped.rows)
            self._tables[key] = table
            self.rows += size

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self.rows = self.hits = 0


# the row tables met last in this process; a row shares its bound with the
# rule tables, so it holds its vector, its dedupe key and its slots, about
# 110 B plus 1.3 B per occupied cell (tracemalloc); a thm2 row holds its
# bound too, about 280 B more
_row_tables = _RowTableCache(MAX_CACHED_ROWS)


class _CellKernel:
    """Rows on one pair of (cut, message) families under one set of
    capacities, deduplicated as `InstantiatedInequality.signature` would.

    A row is a bound's `bytes` vector over the nonzero membership cells the
    two families occupy (`cells`), since every element of a cell has the
    same coefficient (`_cell_vectors`).  Which rows are kept, and how they
    sort, depends on the families only through their cell layouts
    (`_CellSide.layout`), so the kept rows come from a `_RowTable`
    (`table`, set by `_row_kernel`) and only their right sides are
    computed here.  `extend` gives each kept row its right side as an int
    over `denominator`, from `arc_units` summed per cut cell once per
    call.  `arc_units` gives each cut-ground position, in ground order, an
    int over `denominator`, None when unbounded or _MISSING when not given:
    the CLI passes the network's own (`BroadcastNetwork._units`), the
    library entry points convert their mapping through `_capacity_units`.
    A missing capacity is an error only for a kept row on it, naming the
    arc `instantiate` would: the lowest-position arc with no capacity in
    the cut level of the row's first term, in canonical order, that holds
    one.

    `rows` holds the kept entries (vector, right side, bound) in the order
    added, the order `thm2_search` lists.  `ordered()` gives them sorted as
    their rows' signatures sort: `bound_rows` expands them to label dicts,
    and a caller that writes rows itself reads their coefficients in ground
    order at the slots of the occupied elements (`msg.slots`, `cut.slots`).
    """

    def __init__(self, cut_family, msg_family, arc_units=None, denominator=1):
        if cut_family.size != msg_family.size:
            raise ParameterError("cut and message families must have the same sink count")
        msg_cells, cut_cells = _element_cells(msg_family), _element_cells(cut_family)
        self.cells = _occupied(cut_cells + msg_cells)
        slot = {c: s for s, c in enumerate(self.cells)}
        self.msg = _CellSide(msg_family, msg_cells, slot)
        self.cut = _CellSide(cut_family, cut_cells, slot)
        self.table: Optional[_RowTable] = None
        self.rows: list = []
        self.units = None
        self.denominator = denominator
        if arc_units is None:
            return
        self.units = [0] * len(self.cells)
        # (label, cell) of each arc with no capacity given, in ground order
        self.missing = []
        unbounded = set()
        for p, s in zip(self.cut.positions, self.cut.slots):
            unit = arc_units[p]
            if unit is _MISSING:
                self.missing.append((cut_family.ground.label(p), cut_cells[p]))
            elif unit is None:
                unbounded.add(s)
            else:
                self.units[s] += unit
        self.unbounded = sorted(unbounded)

    def extend(self, entries: Collection[tuple]) -> None:
        """Append kept (vector, bound) entries to `rows` with their right
        sides, in the order given, all in one mapped pass: each vector's
        products with `units`, summed.  A missing capacity is checked first,
        on the entries in order, and a row on an unbounded arc gets None;
        both only when the kernel has such arcs."""
        vectors = list(map(_first, entries))
        if self.units is None:
            sides = repeat(None)
        else:
            if self.missing:
                for _, bound in entries:
                    self._check_capacities(bound)
            sides = map(sum, map(map, repeat(operator.mul), vectors, repeat(self.units)))
            if self.unbounded:
                unbounded = _picker(self.unbounded)
                sides = [None if any(unbounded(v)) else r for v, r in zip(vectors, sides)]
        self.rows.extend(zip(vectors, sides, map(_second, entries)))

    def _check_capacities(self, bound: BoundInequality) -> None:
        """ParameterError naming the first arc with no capacity given that
        the bound's row holds."""
        # a term holds a cell's arcs when the cell meets its indices in
        # `level` members or more (`_cell_vectors`)
        for t in bound.terms:
            members = _bits(i - 1 for i in t.indices)
            for label, cell in self.missing:
                if (cell & members).bit_count() >= t.level:
                    raise ParameterError(f"no capacity given for arc {label!r}")

    def ordered(self) -> list:
        """The kept (vector, right side, bound) entries, sorted as their
        rows' signatures sort."""
        rows = self.rows
        return [rows[i] for i in self.table.order(self.msg.key, self.cut.key)]


def _ordered_subsets(K: int):
    for size in range(1, K + 1):
        yield from itertools.combinations(range(1, K + 1), size)


def check_rules(rules: Iterable[str], known: Sequence[str]) -> tuple:
    """The rule names as a tuple; raises ParameterError on the first one not
    in `known`."""
    rules = tuple(rules)
    for rule in rules:
        if rule not in known:
            raise ParameterError(
                f"unknown rule {rule!r}, expected one of {', '.join(known)}"
            )
    return rules


def _first_per_terms(bounds: Iterable[BoundInequality]):
    """The bounds with a canonical term list not met before, in order."""
    first: dict = {}
    for bound in bounds:
        first.setdefault(bound.terms, bound)
    return first.values()


def _cutset_bounds(K: int):
    for subset in _ordered_subsets(K):
        yield cutset_bound(subset)


def _gcsb3_bounds(K: int):
    for i, j, k in itertools.combinations(range(1, K + 1), 3):
        for a, b, c in ((i, j, k), (i, k, j), (j, k, i)):
            yield gcsb3(a, b, c, "a")
        yield gcsb3(i, j, k, "b")
        for a, b, c in ((i, j, k), (i, k, j), (j, k, i)):
            yield gcsb3(a, b, c, "c")
        yield gcsb3(i, j, k, "d")


def _union_tail_bounds(K: int):
    for subset in _ordered_subsets(K):
        indices = frozenset(subset)
        for m in range(1, len(subset) + 1):
            yield union_tail_bound(indices, m)


def _beta_bounds(K: int):
    """The cor2 bounds: every split set Q within {2..|U|} of every sink set U
    of at most MAX_BETA_SET_SIZE sinks, U by size then lexicographically."""
    for size in range(1, min(K, MAX_BETA_SET_SIZE) + 1):
        for subset in itertools.combinations(range(1, K + 1), size):
            indices = frozenset(subset)
            pool = range(2, size + 1)
            for q_size in range(size):
                for qs in itertools.combinations(pool, q_size):
                    yield beta_bound(indices, qs)


_RULE_BOUNDS = {
    "csb": _cutset_bounds,
    "gcsb3": _gcsb3_bounds,
    "cor3": _union_tail_bounds,
    "cor2": _beta_bounds,
}


# a rule's bounds depend on the sink count alone, so each (K, rule) table
# is built once per process; eight sink counts of all four rules fit.  A
# table is read only to build a row table (`_row_kernel`), and it is kept
# because rebuilding its bounds would cost more than the rest of the build:
# a complete-network report of all four rules on a row-table miss takes
# 11.9 ms at K = 5 and 46 ms at K = 6 with the tables kept, 19.5 and 68 ms
# with them rebuilt (best of ten, in-process)
@functools.lru_cache(maxsize=32)
def _rule_table(K: int, rule: str) -> tuple:
    """The bounds of one rule of _RULE_BOUNDS for K sinks, in builder order.
    No builder repeats a canonical term list, so a table needs no dedupe.
    The bounds are frozen, so every caller shares them; the cor3 and cor2
    builders hand all bounds of one sink set the same index frozenset."""
    return tuple(_RULE_BOUNDS[rule](K))


def enumerate_bounds(K: int, rules: Sequence[str]) -> list:
    """All bounds produced by the named rules for K sinks, deduplicated by
    canonical term list with the first origin kept.  Deterministic order:
    rules as given, sink subsets by size then lexicographically."""
    _check_int(K, "the sink count")
    if not 1 <= K <= MAX_FAMILY:
        raise ParameterError(
            f"the sink count must be between 1 and {MAX_FAMILY}: {FAMILY_CAP_REASON}"
        )
    rules = check_rules(rules, ENUMERATION_RULES)
    return list(_first_per_terms(b for rule in rules for b in _rule_table(K, rule)))


def _thm2_bounds(K: int, cut_cells: Sequence[int], msg_cells: Sequence[int]) -> list:
    """The thm2 bounds of families whose distinct nonzero membership cells
    are `cut_cells` and `msg_cells`, one per canonical term list, in search
    order; equal terms are one object.

    The side conditions compare levels, and a level is a union of cells,
    so the search reads the levels of one element per occupied cell
    (`_cell_masks`), and its bounds hold on every family of that pattern.
    Candidates run in the order (G, U, T, |Q|, Q), sink sets by size then
    lexicographically, each with the default split positions; the first
    candidate to produce a term list names it.  This gives the bounds
    `gcsbK` would give candidate by candidate, without its per-call
    validation: the levels of every sink set are computed once, and a term
    list is built from the integer chain weights of its Q.  The search
    space grows as roughly 8^K subset triples, so its one caller,
    `_row_kernel`, refuses more than MAX_SEARCH_SINKS sinks first."""
    cut_masks, msg_masks = _cell_masks(K, cut_cells), _cell_masks(K, msg_cells)
    # per sink set: its ids, as a frozenset, and its cut and message levels
    subsets = []
    for ids in _ordered_subsets(K):
        positions = [i - 1 for i in ids]
        cut, msg = level_masks(cut_masks, positions), level_masks(msg_masks, positions)
        subsets.append((ids, frozenset(ids), cut, msg))
    split_sets = {
        size: [
            (qs, *_chain_weights(qs, {q: q - 1 for q in qs}))
            for q_size in range(size)
            for qs in itertools.combinations(range(2, size + 1), q_size)
        ]
        for size in range(1, K + 1)
    }
    # per U, per T: the split sets whose levels q of U lie in levels q - 1 of
    # T on both sides; a split point beyond |T| + 1 has no chain to lie in
    fitting = []
    for ids_u, _, cut_u, msg_u in subsets:
        per_t = []
        for ids_t, _, cut_t, msg_t in subsets:
            fits = {
                q
                for q in range(2, min(len(ids_u), len(ids_t) + 1) + 1)
                if not (cut_u[q] & ~cut_t[q - 1] or msg_u[q] & ~msg_t[q - 1])
            }
            per_t.append([s for s in split_sets[len(ids_u)] if fits.issuperset(s[0])])
        fitting.append(per_t)

    seen = set()
    # few term values repeat across the search, so its bounds share them
    shared: dict = {}
    found = []
    for ids_g, set_g, cut_g, _ in subsets:
        cover_g = cut_g[1]
        for (ids_u, set_u, cut_u, _), per_t in zip(subsets, fitting):
            if cut_u[1] & ~cover_g:
                continue
            for (ids_t, set_t, _, _), fits in zip(subsets, per_t):
                for qs, unit, chain in fits:
                    terms = _general_terms(set_g, set_u, set_t, qs, unit, chain)
                    # most term lists repeat; name only the new ones
                    if terms not in seen:
                        seen.add(terms)
                        splits = {q: q - 1 for q in qs}
                        found.append(BoundInequality(
                            tuple(shared.setdefault(t, t) for t in terms),
                            _general_provenance(ids_g, ids_u, ids_t, qs, splits),
                        ))
    return found


def thm2_search(
    cut_family: SubsetFamily,
    msg_family: SubsetFamily,
    capacities: Optional[Mapping] = None,
) -> list:
    """Every valid parameterization of the general bound instantiated on
    the given families, deduplicated by signature, in search order: the
    thm2 rows of `_row_kernel` as kept.  `capacities` give the right sides
    as in `instantiate`."""
    ground = cut_family.ground
    units = _capacity_units(map(ground.label, range(ground.size)), capacities)
    kernel = _row_kernel(("thm2",), cut_family, msg_family, *units)
    return _inequalities(kernel, kernel.rows)


def _row_kernel(
    rules: Sequence[str],
    cut_family: SubsetFamily,
    msg_family: SubsetFamily,
    arc_units: Optional[Sequence] = None,
    denominator: int = 1,
) -> _CellKernel:
    """The `_CellKernel` holding the rows of the named rules (any of
    BOUND_RULES), walked in the order given, so the first rule to produce a
    row names its provenance.  The rule names and the thm2 sink cap
    (MAX_SEARCH_SINKS) are checked first, so a refused request builds
    nothing.  The kept rows come from the `_RowTable` of the rules, the
    sink count and the families' cell layouts, found in `_row_tables` or
    built and stored there: each rule's bounds come from a per-process
    table (`_rule_table`), thm2's from a search on the cells the layouts
    occupy (`_thm2_bounds`), and their vectors are evaluated on the
    occupied cells (`_cell_vectors`).  `arc_units` over `denominator` then
    give every kept row its right side (`_CellKernel.extend`), in the
    order added, on every call."""
    K = cut_family.size
    kernel = _CellKernel(cut_family, msg_family, arc_units, denominator)
    rules = check_rules(rules, BOUND_RULES)
    if "thm2" in rules and K > MAX_SEARCH_SINKS:
        raise ParameterError(f"the search is limited to {MAX_SEARCH_SINKS} sinks")
    key = rules, K, kernel.cut.layout, kernel.msg.layout
    table = kernel.table = _row_tables.get(key)
    if table is None:
        table = kernel.table = _RowTable()
        for rule in rules:
            if rule == "thm2":
                bounds = _thm2_bounds(
                    K, _occupied(kernel.cut.layout), _occupied(kernel.msg.layout)
                )
            else:
                bounds = _rule_table(K, rule)
            table.add(_cell_vectors(bounds, kernel.cells, K), bounds)
        _row_tables.put(key, table)
    kernel.extend(table.rows.values())
    return kernel


def bound_rows(
    rules: Sequence[str],
    cut_family: SubsetFamily,
    msg_family: SubsetFamily,
    capacities: Optional[Mapping] = None,
) -> list:
    """Instantiated rows of the named rules (any of BOUND_RULES), sorted by
    signature.

    Rules are walked in the order given, so the first rule to produce a row
    names its provenance, and of the rows the first per signature is kept
    (`_row_kernel`).  `capacities` give the right sides as in `instantiate`.
    """
    ground = cut_family.ground
    units = _capacity_units(map(ground.label, range(ground.size)), capacities)
    kernel = _row_kernel(rules, cut_family, msg_family, *units)
    return _inequalities(kernel, kernel.ordered())


def _inequalities(kernel: _CellKernel, entries) -> list:
    """Kernel entries (vector, right side, bound) as instantiated rows, the
    coefficients in label order."""
    msg, cut = kernel.msg, kernel.cut
    return [
        InstantiatedInequality(
            msg.coeffs(vector),
            cut.coeffs(vector),
            None if rhs is None else Fraction(rhs, kernel.denominator),
            bound.provenance,
        )
        for vector, rhs, bound in entries
    ]
