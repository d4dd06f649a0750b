"""The verify campaigns on masks against the campaigns on family objects.

`cli._run_gap_campaign` keeps each trial's family as a tuple of int masks
and evaluates its gap through the gap's mask core, and `_run_appendix_a`
checks the prefix identity on `bounds._cell_masks` directly.  This module
keeps the object-built loop that came before as the reference: every trial
builds a `GroundSet`, its `ElementSet`s and a `SubsetFamily` and calls a
gap function on them, drawing the same random stream in the same order.
The gap bodies the reference calls are the ones that came before the mask
cores too, summed by generator-fed left folds, so a core whose arithmetic
or fold order drifted fails here; the reference also runs on the public
gap functions, so their validation wrappers are checked on the same draws.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cutbounds import cli
from cutbounds.bounds import _cell_masks
from cutbounds.errors import GroundMismatchError, ParameterError, PreconditionError
from cutbounds.setcalc import (
    ElementSet,
    GroundSet,
    SubsetFamily,
    _check_indices,
    level_masks,
    prefix_extension_identity,
    prefix_levels,
)
from cutbounds.setfn import (
    SetFunction,
    _left_sum,
    cross_level_gap,
    entropy_function,
    multiway_gap,
    prefix_multiway_gap,
    random_joint_distribution,
)


def _check_function_family(f, family):
    if f.ground != family.ground:
        raise GroundMismatchError("function and family use different ground sets")


def reference_multiway_gap(f, family, indices):
    _check_function_family(f, family)
    positions = _check_indices(family.size, indices, "the index set")
    masks = family.masks
    table = f._table
    lhs = _left_sum(table[masks[p]] for p in positions)
    rhs = _left_sum(table[level] for level in level_masks(masks, positions)[1:])
    return f._exact(lhs - rhs)


def reference_prefix_multiway_gap(f, family, cutoff, count, anchor=None):
    _check_function_family(f, family)
    if not 1 <= count <= family.size:
        raise ParameterError(f"count must be between 1 and {family.size}, got {count}")
    if not 0 <= cutoff <= count:
        raise ParameterError(f"cutoff must be between 0 and count={count}, got {cutoff}")
    if anchor is None:
        amask = 0
    else:
        if anchor.ground != family.ground:
            raise GroundMismatchError("anchor is over a different ground set")
        amask = anchor.mask
    masks = family.masks
    table = f._table
    prefix = range(count)
    pads = prefix_levels(masks, prefix, cutoff + 1)
    levels = level_masks(masks, prefix)
    late = range(cutoff + 1, count + 1)
    lhs = _left_sum(table[masks[r - 1] | amask] for r in range(1, cutoff + 1))
    lhs += _left_sum(table[masks[r - 1] | pads[r] | amask] for r in late)
    rhs = _left_sum(table[levels[r] | amask] for r in range(1, cutoff + 1))
    rhs += _left_sum(table[pads[r] | amask] for r in late)
    return f._exact(lhs - rhs)


def reference_cross_level_gap(f, family, U, T, u_level, t_prefix):
    _check_function_family(f, family)
    pos_u = _check_indices(family.size, U, "U")
    pos_t = _check_indices(family.size, T, "T")
    if not 1 <= u_level <= len(pos_u):
        raise ParameterError(f"u_level must be between 1 and {len(pos_u)}, got {u_level}")
    if not 1 <= t_prefix <= len(pos_t):
        raise ParameterError(f"t_prefix must be between 1 and {len(pos_t)}, got {t_prefix}")
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
    table = f._table
    pads = prefix_levels(masks, pos_t, t_prefix + 1)
    lhs = _left_sum(table[masks[p]] for p in pos_t)
    lhs += t_prefix * table[anchor]
    rhs = _left_sum(
        table[t_levels[r]] + table[masks[pos_t[r - 1]] & anchor]
        for r in range(1, t_prefix + 1)
    )
    rhs += _left_sum(
        table[masks[pos_t[r - 1]] & (anchor | pads[r])]
        for r in range(t_prefix + 1, len(pos_t) + 1)
    )
    return f._exact(lhs - rhs)


REFERENCE_GAPS = (reference_multiway_gap, reference_prefix_multiway_gap, reference_cross_level_gap)
PUBLIC_GAPS = (multiway_gap, prefix_multiway_gap, cross_level_gap)


def _random_indices(rng, K):
    picked = [k for k in range(1, K + 1) if rng.random() < 0.5]
    return picked or [rng.randint(1, K)]


def reference_trial(token, gaps, rng, f, family):
    multiway, prefix, cross_level = gaps
    if token in ("1", "cor1"):
        count = rng.randint(1, family.size)
        cutoff = rng.randint(0, count)
        if token == "1":
            return prefix(f, family, cutoff, count)
        anchor = ElementSet(family.ground, rng.randrange(1 << family.ground.size))
        return prefix(f, family, cutoff, count, anchor=anchor)
    if token == "multiway":
        return multiway(f, family, _random_indices(rng, family.size))
    K = family.size
    for _ in range(32):
        U = _random_indices(rng, K)
        T = _random_indices(rng, K)
        try:
            return cross_level(f, family, U, T, rng.randint(1, len(U)), rng.randint(1, len(T)))
        except PreconditionError:
            continue
    everyone = list(range(1, K + 1))
    return cross_level(f, family, everyone, everyone, 1, 1)


def reference_gap_campaign(token, trials, ground, seed, modular, gaps=REFERENCE_GAPS):
    """Every trial's gap, each trial on family objects."""
    out = []
    for index in range(trials):
        rng = random.Random(f"{seed}:{index}")
        m = rng.randint(2, ground)
        if modular:
            weights = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(m)]
            f = SetFunction.modular(GroundSet(m), weights)
        else:
            f = entropy_function(random_joint_distribution(rng, m))
        K = rng.randint(1, 4)
        members = tuple(ElementSet(f.ground, rng.randrange(1 << m)) for _ in range(K))
        out.append(reference_trial(token, gaps, rng, f, SubsetFamily(f.ground, members)))
    return out


def reference_appendix_a(trials, ground_size, seed):
    checked = 0
    failures = 0
    for K in (2, 3):
        for pattern in range(1 << ((1 << K) - 1)):
            cells = [c for c in range(1, 1 << K) if pattern >> (c - 1) & 1]
            ground = GroundSet(max(1, len(cells)))
            family = SubsetFamily(
                ground, tuple(ElementSet(ground, m) for m in _cell_masks(K, cells))
            )
            for count in range(2, K + 1):
                for cutoff in range(1, count):
                    checked += 1
                    failures += not prefix_extension_identity(family, cutoff, count)
    rng = random.Random(f"{seed}:appendixA")
    for _ in range(trials):
        m = rng.randint(2, ground_size)
        ground = GroundSet(m)
        K = rng.randint(2, 4)
        members = tuple(ElementSet(ground, rng.randrange(1 << m)) for _ in range(K))
        family = SubsetFamily(ground, members)
        count = rng.randint(2, K)
        cutoff = rng.randint(1, count - 1)
        checked += 1
        failures += not prefix_extension_identity(family, cutoff, count)
    return checked, failures


class _Args:
    def __init__(self, trials, ground, seed, modular):
        self.trials, self.ground, self.seed, self.modular = trials, ground, seed, modular
        self.tolerance = 1e-9


BACKENDS = [("entropy", 5), ("entropy", 6), ("modular", 5)]


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("backend,ground", BACKENDS)
@pytest.mark.parametrize("token", ["1", "2", "cor1", "multiway"])
def test_every_trial_gap_matches_the_object_built_loop(token, backend, ground, seed, monkeypatch):
    trials = 150
    modular = backend == "modular"
    records = []
    trial = cli._GAP_TRIALS[token]

    def recorded(rng, f, masks):
        gap = trial(rng, f, masks)
        records.append(gap)
        return gap

    monkeypatch.setitem(cli._GAP_TRIALS, token, recorded)
    min_gap, violations = cli._run_gap_campaign(token, _Args(trials, ground, seed, modular))
    got = [repr(gap) for gap in records]
    for gaps in (REFERENCE_GAPS, PUBLIC_GAPS):
        want = reference_gap_campaign(token, trials, ground, seed, modular, gaps)
        assert got == [repr(gap) for gap in want]
    assert repr(min_gap) == repr(min(want))
    if modular:
        assert violations == sum(gap != 0 for gap in want) == 0
    else:
        assert violations == sum(gap < -1e-9 for gap in want)


@pytest.mark.parametrize("ground", [5, 6, 8, 16])
def test_appendix_a_matches_the_object_built_sweep(ground):
    for seed in (0, 7):
        assert cli._run_appendix_a(300, ground, seed) == reference_appendix_a(300, ground, seed)
