"""The gap lemmas hold for every polymatroid on families of up to three
members, proved by exact LP rather than sampled.

A gap over a family reads its set function only on unions of membership
cells (the cell of an element is the set of members holding it). Merging
each cell's elements into one element, and an empty cell into nothing,
maps a polymatroid to a polymatroid on the occupied cells, so the complete
pattern of three members, one element in each of the 7 nonempty cells
(`bounds._cell_masks(3, range(1, 8))`), covers every family of at most
three members over any ground set, and of two members and an anchor set.

On that pattern a gap is a linear form `a` in the 127 values f(S), S
nonempty, read off the unit tables. It is >= 0 on every polymatroid
exactly when `a` is a nonnegative combination of the elemental
inequalities (Yeung 1997): 7 monotone rows f(N) - f(N - i) >= 0 and 672
submodular rows f(K+i) + f(K+j) - f(K+i+j) - f(K) >= 0. Written as rows
`-g.f <= 0`, `polytope._dual_lp(rows, -a)` is the maximum of -a.f over
that cone: 0 when the combination exists, `_INFEASIBLE` when it does not.
"""

from __future__ import annotations

import itertools

from cutbounds.bounds import _cell_masks
from cutbounds.errors import PreconditionError
from cutbounds.polytope import _INFEASIBLE, Row, _dual_lp
from cutbounds.setcalc import ElementSet, GroundSet, SubsetFamily
from cutbounds.setfn import SetFunction, cross_level_gap, multiway_gap, prefix_multiway_gap

CELLS = 7
GROUND = GroundSet(CELLS)
FULL = (1 << CELLS) - 1
# f on the unit table of S is 1 at S and 0 elsewhere, so a gap on it is
# the gap's coefficient on f(S)
UNITS = [
    SetFunction.from_table(GROUND, [int(mask == s) for mask in range(1 << CELLS)])
    for s in range(1, 1 << CELLS)
]
INDEX_SETS = [s for size in (1, 2, 3) for s in itertools.combinations((1, 2, 3), size)]
MASKS = _cell_masks(3, range(1, CELLS + 1))


def family_of(masks) -> SubsetFamily:
    return SubsetFamily(GROUND, tuple(ElementSet(GROUND, m) for m in masks))


def linear_form(gap) -> tuple:
    """The coefficients of a gap on f(S), S = 1..FULL."""
    return tuple(gap(f) for f in UNITS)


def elemental_rows(submodular_sign: int = 1) -> list:
    """The elemental inequalities on the 7 cells as rows `-g.f <= 0`; a
    `submodular_sign` of -1 reverses the submodular ones.  Submodular rows
    come first: Bland's rule then takes fewer pivots on these forms."""

    def row(terms) -> Row:
        coeffs = [0] * FULL
        for mask, weight in terms:
            if mask:
                coeffs[mask - 1] -= weight
        return Row(tuple(coeffs), 0)

    rows = []
    for i, j in itertools.combinations(range(CELLS), 2):
        rest = [c for c in range(CELLS) if c not in (i, j)]
        for size in range(len(rest) + 1):
            for ks in itertools.combinations(rest, size):
                k = sum(1 << b for b in ks)
                s = submodular_sign
                terms = [(k | 1 << i, s), (k | 1 << j, s), (k | 1 << i | 1 << j, -s), (k, -s)]
                rows.append(row(terms))
    rows += [row([(FULL, 1), (FULL ^ 1 << i, -1)]) for i in range(CELLS)]
    assert len(rows) == 672 + 7
    return rows


def gap_forms() -> dict:
    """Every distinct linear form of `multiway_gap`, `prefix_multiway_gap`
    (no anchor) and `cross_level_gap` on the complete pattern, over every
    member order, index set, cutoff and count, and (U, T, levels) whose
    containment precondition holds; each with the first call giving it."""
    forms: dict = {}
    for order in itertools.permutations(MASKS):
        family = family_of(order)
        for ids in INDEX_SETS:
            form = linear_form(lambda f: multiway_gap(f, family, ids))
            forms.setdefault(form, f"multiway{ids} on {order}")
        for count in (1, 2, 3):
            for cutoff in range(count + 1):
                form = linear_form(lambda f: prefix_multiway_gap(f, family, cutoff, count))
                forms.setdefault(form, f"prefix(cutoff={cutoff}, count={count}) on {order}")
        for u, t in itertools.product(INDEX_SETS, repeat=2):
            for u_level, t_prefix in itertools.product(range(1, len(u) + 1), range(1, len(t) + 1)):
                try:
                    form = linear_form(
                        lambda f: cross_level_gap(f, family, u, t, u_level, t_prefix)
                    )
                except PreconditionError:
                    continue
                forms.setdefault(form, f"cross_level{u, t, u_level, t_prefix} on {order}")
    return forms


def test_every_gap_form_holds_on_every_polymatroid():
    forms = gap_forms()
    assert len(forms) == 27 and sum(not any(form) for form in forms) == 1
    rows = elemental_rows()
    for form, origin in forms.items():
        assert _dual_lp(rows, [-a for a in form]) == 0, origin


def anchored_forms() -> dict:
    """Every distinct linear form of the anchored (`cor1`) prefix gap at
    K = 2: an anchor is one more set, so the complete 7-cell pattern covers
    it with the first two masks of an order as the members and the third as
    the anchor, over every order, count and cutoff."""
    forms: dict = {}
    for order in itertools.permutations(MASKS):
        family = family_of(order[:2])
        anchor = ElementSet(GROUND, order[2])
        for count in (1, 2):
            for cutoff in range(count + 1):
                form = linear_form(
                    lambda f: prefix_multiway_gap(f, family, cutoff, count, anchor=anchor)
                )
                forms.setdefault(form, f"anchored(cutoff={cutoff}, count={count}) on {order}")
    return forms


def test_every_anchored_gap_form_holds_on_every_polymatroid():
    forms = anchored_forms()
    assert len(forms) == 4 and sum(not any(form) for form in forms) == 1
    rows = elemental_rows()
    for form, origin in forms.items():
        assert _dual_lp(rows, [-a for a in form]) == 0, origin


def test_the_proof_can_fail():
    """With submodularity reversed the cone changes, and a multiway gap is
    no longer a nonnegative combination of its rows."""
    form = linear_form(lambda f: multiway_gap(f, family_of(MASKS), (2, 3)))
    assert any(form)
    assert _dual_lp(elemental_rows(-1), [-a for a in form]) is _INFEASIBLE
