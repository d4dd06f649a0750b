"""End-to-end acceptance checks.

One test per criterion, each with an explicit wall-clock budget and a
one-line verdict printed past the capture plumbing, so a verbose run
reads as a checklist.  Expected values are computed independently of the
library (closed forms, brute force, an independent max-flow) wherever
the criterion allows it.
"""

import json
import random
import time
from fractions import Fraction as F
from math import comb

from cutbounds import cli
from cutbounds.bounds import gcsb3, gcsbK
from cutbounds.errors import ParameterError
from cutbounds.network import (
    Arc,
    BroadcastNetwork,
    complete_combination_network,
    cut_and_message_families,
    is_cut,
    min_cut,
)
from cutbounds.polytope import (
    LinearSystem,
    contains,
    corner_points_symmetric,
    satisfies,
    vertices_2d,
)
from cutbounds.setcalc import (
    ElementSet,
    GroundSet,
    SubsetFamily,
    prefix_extension_identity,
)


def report(capsys, number, label, ok, elapsed, budget):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {number} ({label}): {verdict} [{elapsed:.2f}s / {budget:g}s]")


def gcsb_symmetric_system(K, caps):
    rows = []
    for m in range(1, K + 1):
        rhs = sum(
            (max(m, i) * comb(K, i) * caps[i - 1] for i in range(1, K + 1)), F(0)
        )
        rows.append(({"R0": K, "Rsp": m}, rhs))
    return LinearSystem.from_rows(("R0", "Rsp"), rows)


def test_criterion_1_complete_table_regenerates(capsys):
    start = time.monotonic()
    code = cli.main(["paper", "--case", "k3-complete"])
    out = capsys.readouterr().out
    rows = json.loads(cli._load_golden("k3_complete.json"))["rows"]
    elapsed = time.monotonic() - start
    ok = (
        code == 0
        and "k3-complete: match" in out
        and len(rows) == 15
        and elapsed < 1.0
    )
    report(capsys, 1, "fifteen-row table", ok, elapsed, 1.0)
    assert code == 0
    assert "k3-complete: match" in out
    assert len(rows) == 15
    assert elapsed < 1.0


def test_criterion_2_symbolic_elimination(capsys):
    # the table is built as partition sums and refused unless it describes
    # the region Fourier-Motzkin projects the seven cut-set rows to
    start = time.monotonic()
    got = cli._regen_fm_derivation()["rows"]
    expected = [
        {"rate": {"R0": "1", "Rsp": "1"}, "capacity": {"C1": "3", "C2": "3", "C3": "1"}},
        {"rate": {"R0": "2", "Rsp": "1"}, "capacity": {"C1": "3", "C2": "5", "C3": "2"}},
        {"rate": {"R0": "3", "Rsp": "1"}, "capacity": {"C1": "3", "C2": "6", "C3": "3"}},
    ]
    elapsed = time.monotonic() - start
    ok = got == expected and elapsed < 1.0
    report(capsys, 2, "three-row reduction", ok, elapsed, 1.0)
    assert got == expected
    assert elapsed < 1.0


def test_criterion_3_corner_points_are_vertices(capsys):
    start = time.monotonic()
    rng = random.Random("corners-vs-vertices")
    mismatches = []
    for K in range(1, 7):
        for _ in range(50):
            caps = [F(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(K)]
            corners = corner_points_symmetric(K, caps)
            points = vertices_2d(gcsb_symmetric_system(K, caps))
            if points[0] != (F(0), F(0)) or points[1:] != corners:
                mismatches.append((K, caps))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 10.0
    report(capsys, 3, "corner points vs vertices", ok, elapsed, 10.0)
    assert not mismatches, mismatches[:3]
    assert elapsed < 10.0


def test_criterion_4_strict_containment_at_unit_caps(capsys):
    start = time.monotonic()
    cutset = LinearSystem.from_rows(
        ("R0", "Rsp"),
        [
            ({"R0": 1, "Rsp": 1}, 7),
            ({"R0": 2, "Rsp": 1}, 10),
            ({"R0": 3, "Rsp": 1}, 12),
        ],
    )
    tighter = gcsb_symmetric_system(3, [F(1)] * 3)
    witness = {"R0": F(5, 2), "Rsp": F(9, 2)}
    # the often-quoted witness (3, 4) lies outside BOTH regions (the
    # steepest row excludes it from the cut-set region as well), so it
    # cannot certify strictness; the half-integral point above does
    quoted = {"R0": F(3), "Rsp": F(4)}
    checks = {
        "cutset contains tighter": contains(cutset, tighter),
        "containment is strict": not contains(tighter, cutset),
        "witness inside cutset": satisfies(cutset, witness),
        "witness outside tighter": not satisfies(tighter, witness),
        "(3,4) outside tighter": not satisfies(tighter, quoted),
        "(3,4) outside cutset too": not satisfies(cutset, quoted),
    }
    elapsed = time.monotonic() - start
    ok = all(checks.values()) and elapsed < 1.0
    report(capsys, 4, "strict containment witness", ok, elapsed, 1.0)
    assert all(checks.values()), [name for name, good in checks.items() if not good]
    assert elapsed < 1.0


def test_criterion_5_gap_campaigns(capsys):
    start = time.monotonic()
    problems = []
    for token in ("1", "2", "cor1", "multiway"):
        code = cli.main(["verify", "--lemma", token, "--trials", "1000", "--seed", "0"])
        out = capsys.readouterr().out
        gap = float(out.split("min_gap=")[1].split()[0])
        if code != 0 or "violations=0" not in out or gap < -1e-9:
            problems.append((token, "entropy", out.strip()))
        code = cli.main(
            ["verify", "--lemma", token, "--trials", "1000", "--seed", "0", "--modular"]
        )
        out = capsys.readouterr().out
        if code != 0 or "violations=0" not in out or "min_gap=0" not in out:
            problems.append((token, "modular", out.strip()))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 60.0
    report(capsys, 5, "verification campaigns", ok, elapsed, 60.0)
    assert not problems, problems
    assert elapsed < 60.0


def occupancy_family(K, pattern):
    """K sets realizing an occupancy pattern of the 2^K - 1 nonempty
    membership cells, one element per occupied cell."""
    cells = [c for c in range(1, 1 << K) if pattern >> (c - 1) & 1]
    ground = GroundSet(max(1, len(cells)))
    members = []
    for k in range(K):
        mask = 0
        for position, cell in enumerate(cells):
            if cell >> k & 1:
                mask |= 1 << position
        members.append(ElementSet(ground, mask))
    return SubsetFamily(ground, tuple(members))


def test_criterion_6_identity_sweeps(capsys):
    start = time.monotonic()
    # Whether the level identity holds depends only on which membership
    # cells are occupied, and collapsing every occupied cell to a single
    # element preserves that pattern.  Sweeping all occupancy patterns for
    # up to four sets therefore covers every family of at most four sets
    # over ANY ground set, in particular all of them over six elements.
    failures = 0
    for K in (2, 3, 4):
        for pattern in range(1 << ((1 << K) - 1)):
            family = occupancy_family(K, pattern)
            for count in range(2, K + 1):
                for cutoff in range(1, count):
                    failures += not prefix_extension_identity(family, cutoff, count)
    code_a = cli.main(
        ["verify", "--lemma", "appendixA", "--trials", "1000", "--seed", "0"]
    )
    out_a = capsys.readouterr().out
    code_c = cli.main(["verify", "--lemma", "appendixC"])
    out_c = capsys.readouterr().out
    elapsed = time.monotonic() - start
    ok = (
        failures == 0
        and code_a == 0
        and "failures=0" in out_a
        and code_c == 0
        and "checked=769" in out_c
        and "failures=0" in out_c
        and elapsed < 30.0
    )
    report(capsys, 6, "identity sweeps", ok, elapsed, 30.0)
    assert failures == 0
    assert code_a == 0 and "failures=0" in out_a
    assert code_c == 0 and "checked=769" in out_c and "failures=0" in out_c
    assert elapsed < 30.0


def test_criterion_7_general_builder_recovers_variants(capsys):
    start = time.monotonic()
    net = complete_combination_network(3)
    families = dict(
        zip(
            ("cut_family", "msg_family"),
            cut_and_message_families(net, [min_cut(net, k) for k in (1, 2, 3)]),
        )
    )
    problems = []
    for i, j, k in ((1, 2, 3), (1, 3, 2), (2, 3, 1)):
        if gcsbK(G=[1, 2, 3], U=[i, j], **families).terms != gcsb3(i, j, k, "a").terms:
            problems.append(f"a({i},{j},{k})")
        built = gcsbK(G=[1, 2, 3], T=[i, j], Q={2}, **families)
        if built.terms != gcsb3(i, j, k, "c").terms:
            problems.append(f"c({i},{j},{k})")
    if gcsbK(G=[1, 2, 3], Q={3}, **families).terms != gcsb3(1, 2, 3, "b").terms:
        problems.append("b(1,2,3)")
    if gcsbK(G=[1, 2, 3], Q={2}, **families).terms != gcsb3(1, 2, 3, "d").terms:
        problems.append("d(1,2,3)")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 1.0
    report(capsys, 7, "variant recovery", ok, elapsed, 1.0)
    assert not problems, problems
    assert elapsed < 1.0


def random_dag_network(rng):
    while True:
        inner = rng.randint(0, 3)
        nodes = ["s"] + [f"n{i}" for i in range(inner)] + ["t"]
        arcs = []
        for index in range(rng.randint(1, 8)):
            tail = rng.randrange(len(nodes) - 1)
            head = rng.randrange(tail + 1, len(nodes))
            capacity = F(rng.randint(1, 9), rng.randint(1, 4))
            arcs.append(Arc(f"a{index}", nodes[tail], nodes[head], capacity))
        try:
            return BroadcastNetwork(nodes, arcs, "s", ["t"], ["W1"], {1: ["W1"]})
        except ParameterError:
            continue  # sink not reachable; redraw


def brute_force_min_cut(net):
    labels = [arc.label for arc in net.arcs]
    best = None
    for mask in range(1 << len(labels)):
        subset = [labels[i] for i in range(len(labels)) if mask >> i & 1]
        if not is_cut(net, net.arc_subset(subset), 1):
            continue
        total = sum((net.arc(label).capacity for label in subset), F(0))
        if best is None or total < best:
            best = total
    return best


def independent_max_flow(net):
    """Plain Ford-Fulkerson over per-pair residual capacities."""
    residual = {}
    for arc in net.arcs:
        key = (arc.tail, arc.head)
        residual[key] = residual.get(key, F(0)) + arc.capacity
        residual.setdefault((arc.head, arc.tail), F(0))
    sink = net.sinks[0]

    def augmenting_path():
        stack = [net.source]
        parents = {net.source: None}
        while stack:
            node = stack.pop()
            if node == sink:
                edges = []
                while parents[node] is not None:
                    edges.append((parents[node], node))
                    node = parents[node]
                return edges
            for (u, v), slack in residual.items():
                if u == node and slack > 0 and v not in parents:
                    parents[v] = node
                    stack.append(v)
        return None

    total = F(0)
    while True:
        path = augmenting_path()
        if path is None:
            return total
        bottleneck = min(residual[edge] for edge in path)
        for u, v in path:
            residual[(u, v)] -= bottleneck
            residual[(v, u)] += bottleneck
        total += bottleneck


def test_criterion_8_min_cut_cross_check(capsys):
    start = time.monotonic()
    rng = random.Random("mincut-cross-check")
    problems = []
    for index in range(500):
        net = random_dag_network(rng)
        cut = min_cut(net, 1)
        brute = brute_force_min_cut(net)
        flow = independent_max_flow(net)
        valid = is_cut(net, cut.arcs, 1)
        if not (valid and cut.capacity == brute == flow):
            problems.append((index, cut.capacity, brute, flow, valid))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 30.0
    report(capsys, 8, "minimum-cut cross-check", ok, elapsed, 30.0)
    assert not problems, problems[:3]
    assert elapsed < 30.0
