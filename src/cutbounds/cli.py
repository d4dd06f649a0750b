"""Command-line front end.

Four subcommands share one exit-code contract:

    0  success
    1  a verification campaign found violations, or a regenerated table
       differs from its stored golden copy
    2  malformed input: unreadable documents, schema violations, unknown
       rules or axes, parameters outside their domain, unwritable output
       paths, a result with a number past the interpreter's digit limit
    3  a supplied arc set fails cut verification, or a sink admits no
       finite cut at all
    4  the requested region slice is unbounded along some ray

Output files are written atomically (a temp file created under a name no
file has, then a rename), so a failing run never leaves a partial report
behind, not even its temp file, and no file but the output is written over.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import operator
import os
import random
import re
import sys
from fractions import Fraction
from importlib import resources
from math import comb, gcd, isfinite

from .bounds import (
    BOUND_RULES,
    ENUMERATION_RULES,
    _cell_masks,
    _picker,
    _row_kernel,
    alpha_beta_identity,
    check_rules,
)
from .errors import (
    CutVerificationError,
    GroundMismatchError,
    InfeasibleCutError,
    ParameterError,
    PreconditionError,
    SchemaError,
    UnboundedRegionError,
)
from .network import (
    Arc,
    BroadcastNetwork,
    complete_combination_network,
    cut_and_message_families,
    make_cut,
    min_cut,
)
from .polytope import (
    LinearSystem,
    Row,
    contains,
    corner_points_symmetric,
    format_rational,
    parse_rational,
    project,
    substitute,
    vertices_2d,
)
from .setcalc import GroundSet, _check_cutoff, _check_sink_count, _prefix_identity_masks
from .setfn import (
    MAX_VARIABLES,
    SetFunction,
    _cross_level_core,
    _multiway_core,
    _prefix_core,
    entropy_function,
    random_joint_distribution,
)

_DOC_KEYS = frozenset(("nodes", "arcs", "source", "sinks", "messages", "demands"))
_ARC_KEYS = frozenset(("from", "to", "capacity"))
_STR = frozenset((str,))


# ---------------------------------------------------------------------------
# network documents


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {what}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, undecodable bytes, integers over the digit
        # limit, and nesting deeper than the decoder's recursion limit
        raise SchemaError(f"{what} is not valid JSON: {exc}") from None


def _string_list(value, what: str, owner=None) -> list:
    """`value` if it is a list of strings, else SchemaError naming `what`,
    followed by the repr of `owner` when one is given."""
    # a decoded JSON string is a str, never a subclass of it
    if not (isinstance(value, list) and set(map(type, value)) <= _STR):
        if owner is not None:
            what = f"{what} {owner!r}"
        raise SchemaError(f"{what} must be a list of strings")
    return value


def load_network_document(path: str) -> BroadcastNetwork:
    """Parse a JSON network document into a verified BroadcastNetwork.

    The document is an object with exactly the keys nodes, arcs, source,
    sinks, messages and demands.  Arcs are objects with exactly from, to
    and capacity, where capacity is a rational string like "3/4" or the
    marker "inf"; they are labeled a0, a1, ... in file order.  Demands are
    keyed by sink node id and must cover the sinks exactly; sink indices
    1..K follow the order of the sinks list.  Every malformed input
    surfaces as SchemaError.
    """
    doc = _load_json(path, "network document")
    _require(isinstance(doc, dict), "network document must be a JSON object")
    if doc.keys() != _DOC_KEYS:
        unknown = doc.keys() - _DOC_KEYS
        _require(not unknown, f"unknown document keys: {sorted(unknown)}")
        missing = _DOC_KEYS - doc.keys()
        raise SchemaError(f"missing document keys: {sorted(missing)}")

    nodes = _string_list(doc["nodes"], "nodes")
    _require(isinstance(doc["arcs"], list), "arcs must be a list")
    arcs = []
    # an arc's messages name its position, so each is formatted only once
    # its check has failed
    for position, entry in enumerate(doc["arcs"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"arc {position} must be an object")
        if entry.keys() != _ARC_KEYS:
            unknown = entry.keys() - _ARC_KEYS
            _require(not unknown, f"arc {position} has unknown keys: {sorted(unknown)}")
            missing = _ARC_KEYS - entry.keys()
            raise SchemaError(f"arc {position} is missing keys: {sorted(missing)}")
        tail, head, raw = entry["from"], entry["to"], entry["capacity"]
        if not (isinstance(tail, str) and isinstance(head, str)):
            raise SchemaError(f"arc {position} endpoints must be strings")
        if not isinstance(raw, str):
            raise SchemaError(
                f"arc {position} capacity must be a string like \"3/4\" or \"inf\""
            )
        if raw == "inf":
            capacity = None
        else:
            try:
                capacity = parse_rational(raw)
            except ParameterError:
                raise SchemaError(
                    f"arc {position} capacity {raw!r} is not a rational"
                ) from None
        try:
            arcs.append(Arc(f"a{position}", tail, head, capacity))
        except ParameterError as exc:
            raise SchemaError(f"arc {position}: {exc}") from None

    _require(isinstance(doc["source"], str), "source must be a node id")
    sinks = _string_list(doc["sinks"], "sinks")
    messages = _string_list(doc["messages"], "messages")

    demands_doc = doc["demands"]
    _require(isinstance(demands_doc, dict), "demands must be an object keyed by sink")
    # a repeated sink would otherwise fail the comparison below
    _require(len(set(sinks)) == len(sinks), "sinks must be distinct")
    _require(
        set(demands_doc) == set(sinks),
        "demands must name every sink exactly once",
    )
    demands = {}
    for index, sink in enumerate(sinks, start=1):
        demands[index] = _string_list(demands_doc[sink], "demands for", sink)

    try:
        return BroadcastNetwork(nodes, arcs, doc["source"], sinks, messages, demands)
    except ParameterError as exc:
        raise SchemaError(str(exc)) from None


def _load_cuts(net: BroadcastNetwork, path):
    """One verified cut per sink: minimum cuts by default, or a JSON file
    mapping sink node ids to arc label lists."""
    if path is None:
        return [min_cut(net, k) for k in range(1, net.K + 1)]
    doc = _load_json(path, "cut file")
    _require(isinstance(doc, dict), "cut file must be a JSON object keyed by sink")
    _require(set(doc) == set(net.sinks), "cut file must name every sink exactly once")
    cuts = []
    for index, sink in enumerate(net.sinks, start=1):
        labels = _string_list(doc[sink], "cut for", sink)
        cuts.append(make_cut(net, labels, index))
    return cuts


# ---------------------------------------------------------------------------
# bounds reports


def _create_staging(destination) -> tuple:
    """A new file beside `destination`, as (name, descriptor), created
    exclusively under the first name `<destination>.<n>.partial` that no
    file has, so neither a user's file nor another run's staging file is
    overwritten.  Mode 0o666, as `open(name, "w")` gives, so the umask
    alone trims it."""
    for n in itertools.count():
        name = f"{destination}.{n}.partial"
        try:
            return name, os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue


def _write_text(text: str, destination) -> None:
    if destination is None:
        sys.stdout.write(text)
        return
    staging = None
    try:
        staging, fd = _create_staging(destination)
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(staging, destination)
    except OSError as exc:
        if staging is not None:
            with contextlib.suppress(OSError):
                os.remove(staging)
        raise ParameterError(
            f"cannot write {destination}: {exc.strerror or exc}"
        ) from None


_quote = json.encoder.encode_basestring_ascii
# the end of a nonempty coefficient object at the depth of a report row
_CLOSE = "\n    }"


class _CoeffPieces(dict):
    """One element's coefficient texts in a report row, keyed by
    coefficient and written on first lookup: the separator, the quoted
    label and the coefficient as a string.  A zero writes nothing."""

    __slots__ = ("_prefix",)

    def __init__(self, label: str):
        super().__init__({0: ""})
        self._prefix = ',\n      ' + _quote(label) + ': "'

    def __missing__(self, c: int) -> str:
        text = self[c] = f'{self._prefix}{c}"'
        return text


def _piece_tables(labels, side) -> tuple:
    """The `_CoeffPieces` of the elements some member of the kernel's
    `side` holds, `labels` giving the ground's labels in order, and a picker
    of their coefficients from a kernel vector, both in ground order."""
    return [_CoeffPieces(labels[p]) for p in side.positions], _picker(side.slots)


def _network_kernel(net: BroadcastNetwork, rules, families):
    """The row kernel of the named rules on the network's (cut, message)
    `families` under the network's own scaled arc capacities."""
    # verified cuts hold no unbounded arc, so every right side is finite
    return _row_kernel(rules, *families, net._units, net._scale)


def _report_text(net: BroadcastNetwork, kernel) -> str:
    """The report of a row kernel's `ordered()` rows, each its provenance,
    nonzero coefficients as strings in document order, and "rhs_value":
    byte-identical to `json.dumps(rows, indent=2) + "\n"`, written from the
    kernel's vectors without the pure-Python encoder that `json.dumps` runs
    given an indent.  A side of a row is the join of its elements' pieces
    (`_CoeffPieces`), each looked up by the element's coefficient; the
    tables live for this call only."""
    rate_pieces, rate_pick = _piece_tables(net.messages, kernel.msg)
    cap_pieces, cap_pick = _piece_tables(net.arc_ground.labels, kernel.cut)
    getitem, join = operator.getitem, "".join
    denominator = kernel.denominator
    blocks = []
    for vector, rhs, bound in kernel.ordered():
        rates = join(map(getitem, rate_pieces, rate_pick(vector)))
        caps = join(map(getitem, cap_pieces, cap_pick(vector)))
        g = gcd(rhs, denominator)
        value = str(rhs // g) if g == denominator else f"{rhs // g}/{denominator // g}"
        # a side's text opens with the separator, which the brace replaces
        blocks.append(
            f'{{\n    "provenance": {_quote(bound.provenance)},'
            f'\n    "rate_coeffs": {"{" + rates[1:] + _CLOSE if rates else "{}"},'
            f'\n    "capacity_coeffs": {"{" + caps[1:] + _CLOSE if caps else "{}"},'
            f'\n    "rhs_value": "{value}"\n  }}'
        )
    return "[\n  " + ",\n  ".join(blocks) + "\n]\n" if blocks else "[]\n"


def _printed(text_of, *args) -> str:
    """`text_of(*args)`, refusing with `ParameterError` (exit 2) the
    `ValueError` that `str()` of an int past the interpreter's digit limit
    raises."""
    try:
        return text_of(*args)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParameterError(f"a number in the output has more than {limit} digits") from None


def cmd_bounds(args) -> int:
    net = load_network_document(args.net_file)
    rules = check_rules((token.strip() for token in args.rules.split(",")), BOUND_RULES)
    families = cut_and_message_families(net, _load_cuts(net, args.cuts))
    kernel = _network_kernel(net, rules, families)
    _write_text(_printed(_report_text, net, kernel), args.out)
    return 0


# ---------------------------------------------------------------------------
# verification campaigns


def _random_positions(rng, K: int) -> list:
    """A nonempty set of 0-based member positions, ascending."""
    picked = [k for k in range(K) if rng.random() < 0.5]
    return picked or [rng.randint(1, K) - 1]


# A trial draws its gap's arguments in range and calls the gap's mask core
# (`setfn._multiway_core` and the like), the code behind the validating
# public function, on the function's table and the members' masks.


def _trial_prefix(rng, f, masks):
    count = rng.randint(1, len(masks))
    cutoff = rng.randint(0, count)
    return f._exact(_prefix_core(f._table, masks, cutoff, count, 0))


def _trial_prefix_anchored(rng, f, masks):
    count = rng.randint(1, len(masks))
    cutoff = rng.randint(0, count)
    anchor = rng.randrange(1 << f.ground.size)
    return f._exact(_prefix_core(f._table, masks, cutoff, count, anchor))


def _trial_multiway(rng, f, masks):
    return f._exact(_multiway_core(f._table, masks, _random_positions(rng, len(masks))))


def _trial_cross_level(rng, f, masks):
    # rejection-sample until the containment precondition holds; U = T with
    # the top levels is always valid, so the fallback finds a gap
    K = len(masks)
    table = f._table
    for _ in range(32):
        U = _random_positions(rng, K)
        T = _random_positions(rng, K)
        gap = _cross_level_core(
            table, masks, U, T, rng.randint(1, len(U)), rng.randint(1, len(T))
        )
        if gap is not None:
            return f._exact(gap)
    everyone = range(K)
    return f._exact(_cross_level_core(table, masks, everyone, everyone, 1, 1))


_GAP_TRIALS = {
    "1": _trial_prefix,
    "cor1": _trial_prefix_anchored,
    "multiway": _trial_multiway,
    "2": _trial_cross_level,
}


def _run_gap_campaign(token: str, args):
    if not 2 <= args.ground <= MAX_VARIABLES:
        raise ParameterError(
            f"--ground must be between 2 and {MAX_VARIABLES} for gap campaigns"
        )
    trial = _GAP_TRIALS[token]
    min_gap = None
    violations = 0
    for index in range(args.trials):
        rng = random.Random(f"{args.seed}:{index}")
        m = rng.randint(2, args.ground)
        if args.modular:
            weights = [
                Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(m)
            ]
            f = SetFunction.modular(GroundSet(m), weights)
        else:
            f = entropy_function(random_joint_distribution(rng, m))
        K = rng.randint(1, 4)
        masks = tuple([rng.randrange(1 << m) for _ in range(K)])
        gap = trial(rng, f, masks)
        if min_gap is None or gap < min_gap:
            min_gap = gap
        if args.modular:
            violations += gap != 0
        else:
            violations += gap < -args.tolerance
    return min_gap, violations


def _run_appendix_a(trials: int, ground_size: int, seed: int):
    """Exhaustive check of the prefix-extension level identity over all
    occupancy patterns with up to three sets, plus random larger families.

    The identity depends only on which membership cells are occupied, so
    sweeping the patterns covers every family shape of that size.  Each
    family is its members' masks, checked by the identity's mask core.
    """
    if not 2 <= ground_size <= 16:
        raise ParameterError("--ground must be between 2 and 16 for appendixA")
    checked = 0
    failures = 0
    for K in (2, 3):
        for pattern in range(1 << ((1 << K) - 1)):
            masks = _cell_masks(K, [c for c in range(1, 1 << K) if pattern >> (c - 1) & 1])
            for count in range(2, K + 1):
                for cutoff in range(1, count):
                    _check_cutoff(K, cutoff, count)
                    checked += 1
                    failures += not _prefix_identity_masks(masks, cutoff, count)
    rng = random.Random(f"{seed}:appendixA")
    for _ in range(trials):
        m = rng.randint(2, ground_size)
        K = rng.randint(2, 4)
        masks = [rng.randrange(1 << m) for _ in range(K)]
        count = rng.randint(2, K)
        cutoff = rng.randint(1, count - 1)
        _check_cutoff(K, cutoff, count)
        checked += 1
        failures += not _prefix_identity_masks(masks, cutoff, count)
    return checked, failures


def _run_appendix_c():
    """Sweep the splitting-weight identity over every nonempty split set
    within {2..8} and every admissible level."""
    checked = 0
    failures = 0
    for size in range(1, 8):
        for qs in itertools.combinations(range(2, 9), size):
            for r in range(1, max(qs)):
                checked += 1
                failures += not alpha_beta_identity(qs, r)
    return checked, failures


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ParameterError("--trials must be at least 1")
    # gaps below -tolerance are flagged: nan or inf flags none, a negative
    # tolerance flags exact zeros
    if not (isfinite(args.tolerance) and args.tolerance >= 0):
        raise ParameterError("--tolerance must be a finite number >= 0")
    token = args.lemma
    if token in ("appendixA", "appendixC"):
        if args.modular:
            raise ParameterError(
                f"--modular does not apply to the {token} identity sweep"
            )
        if token == "appendixA":
            checked, failures = _run_appendix_a(args.trials, args.ground, args.seed)
            print(
                f"check=appendixA trials={args.trials} "
                f"ground={args.ground} seed={args.seed}"
            )
        else:
            checked, failures = _run_appendix_c()
            print("check=appendixC q_range=2..8")
        print(f"checked={checked} failures={failures}")
        return 1 if failures else 0

    backend = "modular" if args.modular else "entropy"
    min_gap, violations = _run_gap_campaign(token, args)
    print(
        f"check={token} backend={backend} trials={args.trials} "
        f"ground={args.ground} seed={args.seed} tolerance={args.tolerance!r}"
    )
    gap_text = format_rational(min_gap) if args.modular else repr(min_gap)
    print(f"min_gap={gap_text} violations={violations}")
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# region slices


def _parse_axes(spec: str):
    names = tuple(token.strip() for token in spec.split(","))
    if len(names) != 2 or not all(names) or names[0] == names[1]:
        raise ParameterError("--axes must name two distinct variables, like R0,Rsp")
    return names


def _parse_symmetric(tokens):
    # the capacity grammar without "/digits": int() alone also reads "+3",
    # " 3", "1_6" and non-ASCII digits, and raises past its digit limit
    try:
        if not re.fullmatch(r"-?[0-9]+", tokens[0]):
            raise ValueError
        K = int(tokens[0])
    except ValueError:
        raise ParameterError(
            f"the sink count must be an integer, got {tokens[0]!r}"
        ) from None
    # the closed forms stand for a K-sink combination network
    _check_sink_count(K)
    caps = [parse_rational(token) for token in tokens[1:]]
    if len(caps) != K:
        raise ParameterError(f"expected {K} capacities after the sink count")
    if any(c < 0 for c in caps):
        raise ParameterError("capacities must be nonnegative")
    return K, caps


def _symmetric_system(K: int, caps, which: str) -> LinearSystem:
    """Region of the symmetric instance over (R0, Rsp), Rsp = R1 + .. + RK.

    Row s (s = 1..K) is K*R0 + s*Rsp <= sum_i w(s,i)*C_i, where a size-i
    mixer weighs max(s,i)*binom(K,i) in the gcsb family (level s) and
    K*(binom(K,i) - binom(K-s,i)) in the cut-set family (a union of s
    basic cuts).  The cut-set rows are exact: the full system is invariant
    under permutations of R1..RK and convex, so averaging a feasible point
    over them keeps it feasible with every Rk = Rsp/K.
    """
    def weight(s: int, i: int) -> int:
        if which == "gcsb":
            return max(s, i) * comb(K, i)
        return K * (comb(K, i) - comb(K - s, i))

    rows = [
        (
            {"R0": K, "Rsp": s},
            sum((weight(s, i) * caps[i - 1] for i in range(1, K + 1)), Fraction(0)),
        )
        for s in range(1, K + 1)
    ]
    return LinearSystem.from_rows(("R0", "Rsp"), rows)


def _file_region_system(net: BroadcastNetwork, which: str, families, axes) -> LinearSystem:
    """The slice of the outer-bound region on the message rates `axes`.
    `which` picks the plain cut-set rows or the full generalized set;
    `families` are the (cut, message) families.

    Every row's rate coefficients are level counts, so nonnegative, and
    rates are nonnegative too.  So the slice is the rows with every other
    rate column dropped: a point of it lifts with the other rates at 0, and
    dropping nonnegative terms keeps every row valid."""
    rules = ("csb",) if which == "cutset" else ENUMERATION_RULES
    kernel = _network_kernel(net, rules, families)
    for v in axes:
        if v not in net.messages:
            raise ParameterError(f"unknown variable {v!r}")
    # each axis's slot in a kernel vector; None for a message no sink
    # demands, whose coefficient is 0 in every row
    side = kernel.msg
    slot = dict(zip(side.positions, side.slots))
    slots = [slot.get(net.messages.index(v)) for v in axes]
    # a row's right side is over the denominator, so its left side is scaled up
    scale = kernel.denominator
    rows = [
        Row(tuple(0 if s is None else scale * vector[s] for s in slots), rhs)
        for vector, rhs, _ in kernel.rows
    ]
    return LinearSystem(axes, rows, (True,) * len(axes))


def _region_csv(points) -> str:
    lines = ["x,y"]
    lines.extend(f"{format_rational(x)},{format_rational(y)}" for x, y in points)
    return "\n".join(lines) + "\n"


def cmd_region(args) -> int:
    axes = _parse_axes(args.axes)
    if (args.net_file is None) == (args.symmetric is None):
        raise ParameterError(
            "give exactly one input: a network document or --symmetric K c1..cK"
        )

    if args.symmetric is not None:
        K, caps = _parse_symmetric(args.symmetric)
        if axes != ("R0", "Rsp"):
            raise ParameterError("the symmetric closed forms are over axes R0,Rsp")

        def build(which: str) -> LinearSystem:
            return _symmetric_system(K, caps, which)

    else:
        net = load_network_document(args.net_file)
        families = cut_and_message_families(net, _load_cuts(net, None))

        def build(which: str) -> LinearSystem:
            return _file_region_system(net, which, families, axes)

    primary = build(args.bounds)
    points = vertices_2d(primary)
    text = _printed(_region_csv, points)

    verdicts = []
    if args.compare:
        other = build(args.compare)
        verdicts = [
            f"{args.compare} contains {args.bounds}: "
            f"{'yes' if contains(other, primary) else 'no'}",
            f"{args.bounds} contains {args.compare}: "
            f"{'yes' if contains(primary, other) else 'no'}",
        ]

    if args.emit:
        _write_text(text, args.emit)
        print(f"vertices={len(points)} emitted={args.emit}")
    else:
        sys.stdout.write(text)
    for line in verdicts:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# golden tables


_GOLDEN_FILES = {
    "k3-complete": "k3_complete.json",
    "k3-symmetric": "k3_symmetric.json",
    "fm-derivation": "fm_derivation.json",
}


def _load_golden(name: str) -> str:
    return (
        resources.files("cutbounds")
        .joinpath("golden")
        .joinpath(name)
        .read_text(encoding="utf-8")
    )


def _regen_k3_complete() -> dict:
    """The rows `bounds --rules csb,gcsb3` reports on the complete network,
    without their right sides, which the table leaves out."""
    net = complete_combination_network(3)
    families = cut_and_message_families(net, _load_cuts(net, None))
    rows = json.loads(_report_text(net, _network_kernel(net, ("csb", "gcsb3"), families)))
    for row in rows:
        del row["rhs_value"]
    return {"rows": rows}


def _regen_k3_symmetric() -> dict:
    caps = [Fraction(1)] * 3
    corners = corner_points_symmetric(3, caps)
    points = vertices_2d(_symmetric_system(3, caps, "gcsb"))
    as_strings = lambda pts: [
        [format_rational(x), format_rational(y)] for x, y in pts
    ]
    return {
        "K": 3,
        "capacities": ["1", "1", "1"],
        "corner_points": as_strings(corners),
        "vertices": as_strings(points),
    }


class _TableMismatch(Exception):
    """A regenerated table fails its own check, so `paper` exits 1."""


# three-sink cut-set bounds, symbolic in the capacities: a sink set of
# size s gives R0 + sum_{k in S} Rk <= d1*C1 + d2*C2 + d3*C3, (d1, d2, d3)
# = _FM_CUTS[s]
_FM_CUTS = {1: (1, 2, 1), 2: (2, 3, 1), 3: (3, 3, 1)}
# the partitions of the sinks {1, 2, 3} into 1, 2 and 3 blocks
_FM_PARTITIONS = (((1, 2, 3),), ((1, 2), (3,)), ((1,), (2,), (3,)))


def _regen_fm_derivation() -> dict:
    """Row s sums the cut-set bounds over a partition of the sinks into s
    blocks: the paper's union of cuts.  Each row is a nonnegative sum of
    the input rows, so it is valid as built; the table must also describe
    the projection of those rows onto (R0, Rsp = R1 + R2 + R3)."""
    variables = ("R0", "R1", "R2", "R3", "C1", "C2", "C3")
    rows = []
    for size in (1, 2, 3):
        c1, c2, c3 = _FM_CUTS[size]
        for subset in itertools.combinations((1, 2, 3), size):
            coeffs = {"R0": 1, "C1": -c1, "C2": -c2, "C3": -c3}
            coeffs.update({f"R{k}": 1 for k in subset})
            rows.append((coeffs, 0))
    system = LinearSystem.from_rows(variables, rows)
    folded = substitute(system, "R1", {"Rsp": 1, "R2": -1, "R3": -1})
    keep = ("R0", "C1", "C2", "C3", "Rsp")
    sums = []
    for blocks in _FM_PARTITIONS:
        caps = [sum(_FM_CUTS[len(block)][i] for block in blocks) for i in range(3)]
        coeffs = {"R0": len(blocks), "Rsp": 1}
        coeffs.update({f"C{i + 1}": -cap for i, cap in enumerate(caps)})
        sums.append((coeffs, 0))
    table = LinearSystem.from_rows(keep, sums)
    projected = project(folded, keep)
    if not (contains(table, projected) and contains(projected, table)):
        raise _TableMismatch("the partition sums and the projection differ as regions")
    payload = []
    for row in table.rows:
        coeffs = table.coeff_map(row)
        payload.append(
            {
                "rate": {
                    name: format_rational(coeffs[name])
                    for name in ("R0", "Rsp")
                    if name in coeffs
                },
                "capacity": {
                    name: format_rational(-coeffs[name])
                    for name in ("C1", "C2", "C3")
                    if name in coeffs
                },
            }
        )
    return {
        "rate_variables": ["R0", "Rsp"],
        "capacity_variables": ["C1", "C2", "C3"],
        "rows": payload,
    }


_REGENERATORS = {
    "k3-complete": _regen_k3_complete,
    "k3-symmetric": _regen_k3_symmetric,
    "fm-derivation": _regen_fm_derivation,
}


def cmd_paper(args) -> int:
    case = args.case
    golden = json.loads(_load_golden(_GOLDEN_FILES[case]))
    try:
        regenerated = _REGENERATORS[case]()
    except _TableMismatch as exc:
        print(f"{case}: MISMATCH")
        print(f"  {exc}")
        return 1
    problems = []
    for field, fresh in regenerated.items():
        stored = golden.get(field)
        if stored == fresh:
            continue
        if isinstance(stored, list) and isinstance(fresh, list):
            for i in range(max(len(stored), len(fresh))):
                old = stored[i] if i < len(stored) else "<absent>"
                new = fresh[i] if i < len(fresh) else "<absent>"
                if old != new:
                    problems.append(
                        f"  {field}[{i}]: stored {json.dumps(old, sort_keys=True)}"
                        f" != regenerated {json.dumps(new, sort_keys=True)}"
                    )
        else:
            problems.append(
                f"  {field}: stored {json.dumps(stored, sort_keys=True)}"
                f" != regenerated {json.dumps(fresh, sort_keys=True)}"
            )
    if problems:
        print(f"{case}: MISMATCH")
        for line in problems:
            print(line)
        return 1
    print(f"{case}: match")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutbounds",
        description="Cut-set style outer bounds for broadcast networks",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bounds = commands.add_parser(
        "bounds", help="emit a bound report for a network document"
    )
    bounds.add_argument("net_file", help="network document (JSON)")
    bounds.add_argument(
        "--rules",
        default="csb,gcsb3",
        help="comma separated rule names among csb, gcsb3, cor3, cor2, thm2",
    )
    bounds.add_argument(
        "--cuts",
        default=None,
        metavar="FILE",
        help="JSON object mapping sink node ids to arc label lists "
        "(default: minimum cuts)",
    )
    bounds.add_argument(
        "--out", default=None, metavar="FILE", help="write the report here"
    )

    verify = commands.add_parser("verify", help="run a verification campaign")
    verify.add_argument(
        "--lemma",
        required=True,
        choices=["1", "2", "cor1", "multiway", "appendixA", "appendixC"],
        help="which statement to exercise",
    )
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--ground", type=int, default=5)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tolerance", type=float, default=1e-9)
    verify.add_argument(
        "--modular",
        action="store_true",
        help="exact modular functions instead of sampled entropies",
    )

    region = commands.add_parser(
        "region", help="two-axis slice of an outer-bound region"
    )
    region.add_argument("net_file", nargs="?", default=None)
    region.add_argument(
        "--symmetric",
        nargs="+",
        default=None,
        metavar="N",
        help="K c1 .. cK: the symmetric instance with K sinks",
    )
    region.add_argument("--axes", default="R0,Rsp", help="x,y variable names")
    region.add_argument(
        "--bounds",
        default="gcsb",
        choices=["gcsb", "cutset"],
        help="which bound family carves the region",
    )
    region.add_argument(
        "--emit", default=None, metavar="FILE", help="write vertices as CSV here"
    )
    region.add_argument(
        "--compare",
        default=None,
        choices=["gcsb", "cutset"],
        help="also print mutual containment verdicts against this family",
    )

    paper = commands.add_parser(
        "paper", help="regenerate a stored table and diff it against the copy"
    )
    paper.add_argument("--case", required=True, choices=sorted(_GOLDEN_FILES))
    return parser


_COMMANDS = {
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "region": cmd_region,
    "paper": cmd_paper,
}


# parsing does not change the parser, so every main call in a process can
# share one; it is built on the first call, not at import
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (SchemaError, ParameterError, PreconditionError, GroundMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CutVerificationError, InfeasibleCutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnboundedRegionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
