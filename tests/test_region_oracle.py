"""`region` slices of network documents against Fourier-Motzkin projection.

`region` reads a slice straight off the bound rows: it keeps the two axis
columns and drops every other rate column, which is exact because every
row's rate coefficients are nonnegative and so are the rates.  The
reference here takes the whole system from `bound_rows` and eliminates
every other rate with `polytope.project`; the vertices, the containment
verdicts and the unbounded-ray message must come out the same.
"""

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from cutbounds import cli
from cutbounds.bounds import ENUMERATION_RULES, bound_rows
from cutbounds.errors import UnboundedRegionError
from cutbounds.network import cut_and_message_families
from cutbounds.polytope import LinearSystem, contains, format_rational, project, vertices_2d

from test_cli import complete_doc

FAMILIES = ("gcsb", "cutset")


def rational(rng):
    return format_rational(F(rng.randint(1, 6), rng.randint(1, 3)))


def random_dag_document(seed):
    """A DAG with 2-4 sinks and rational capacities: every node after the
    source gets one arc from an earlier node, so all are reachable, and up
    to eight more arcs join random ordered pairs.  Each sink demands a
    random nonempty subset of up to four messages, and the document lists
    every message, so some may be demanded by no sink."""
    rng = random.Random(f"region-dag:{seed}")
    K = rng.randint(2, 4)
    nodes = ["s"] + [f"n{i}" for i in range(rng.randint(0, 4))] + [f"t{k}" for k in range(1, K + 1)]
    ends = [(rng.randint(0, j - 1), j) for j in range(1, len(nodes))]
    for _ in range(rng.randint(0, 8)):
        i = rng.randint(0, len(nodes) - 2)
        ends.append((i, rng.randint(i + 1, len(nodes) - 1)))
    messages = [f"M{m}" for m in range(1, rng.randint(2, 4) + 1)]
    sinks = nodes[-K:]
    return {
        "nodes": nodes,
        "arcs": [{"from": nodes[i], "to": nodes[j], "capacity": rational(rng)} for i, j in ends],
        "source": "s",
        "sinks": sinks,
        "messages": messages,
        "demands": {t: rng.sample(messages, rng.randint(1, len(messages))) for t in sinks},
    }


def complete_document(K, seed):
    """The complete K-sink network of `complete_doc` with seeded rational
    capacities on its 2^K - 1 source arcs."""
    rng = random.Random(f"region-complete:{K}:{seed}")
    doc = complete_doc(K)
    for arc in doc["arcs"][: 2**K - 1]:
        arc["capacity"] = rational(rng)
    return doc


def run_region(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def expected_output(projected, primary, other):
    """(exit code, stdout, stderr) of `region --bounds primary --compare
    other`, from the projections of the two whole systems."""
    try:
        points = vertices_2d(projected[primary])
    except UnboundedRegionError as exc:
        return 4, "", f"error: {exc}\n"
    lines = ["x,y"] + [f"{format_rational(x)},{format_rational(y)}" for x, y in points]
    for outer, inner in ((other, primary), (primary, other)):
        verdict = "yes" if contains(projected[outer], projected[inner]) else "no"
        lines.append(f"{outer} contains {inner}: {verdict}")
    return 0, "\n".join(lines) + "\n", ""


def whole_system(net, families, which):
    """The region over every message rate, from `bound_rows` rather than
    from `region`'s own system builder."""
    rules = ("csb",) if which == "cutset" else ENUMERATION_RULES
    capacities = {arc.label: arc.capacity for arc in net.arcs}
    rows = [
        (row.rate_coeffs, row.rhs_value)
        for row in bound_rows(rules, *families, capacities)
    ]
    return LinearSystem.from_rows(net.messages, rows)


def check_document(tmp_path, doc, pairs):
    """Every axis pair of `pairs` with each family as the primary one."""
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    net = cli.load_network_document(str(path))
    families = cut_and_message_families(net, cli._load_cuts(net, None))
    whole = {which: whole_system(net, families, which) for which in FAMILIES}
    for system in whole.values():
        # the precondition that makes dropping a column exact
        assert all(c >= 0 for row in system.rows for c in row.coeffs)
    for axes in pairs:
        projected = {which: project(system, axes) for which, system in whole.items()}
        for primary, other in (FAMILIES, FAMILIES[::-1]):
            argv = ["region", str(path), "--axes", ",".join(axes), "--bounds", primary]
            argv += ["--compare", other]
            assert run_region(argv) == expected_output(projected, primary, other), (axes, primary)


def axis_pairs(messages, count, rng):
    pairs = list(itertools.permutations(messages, 2))
    return rng.sample(pairs, min(count, len(pairs)))


def case(kind, *key):
    """A seeded document and three of its axis pairs."""
    doc = random_dag_document(*key) if kind == "dag" else complete_document(*key)
    rng = random.Random(f"region-axes:{kind}:{key}")
    return doc, axis_pairs(doc["messages"], 3, rng)


CASES = [("dag", seed) for seed in range(24)] + [
    ("complete", K, seed) for K, seed in ((3, 0), (3, 1), (3, 2), (4, 0), (4, 1))
]


@pytest.mark.parametrize("key", CASES, ids=lambda key: "-".join(map(str, key)))
def test_slices_match_projection(tmp_path, key):
    check_document(tmp_path, *case(*key))


def test_the_cases_meet_unbounded_and_strict_slices(tmp_path):
    # some slice has an undemanded axis (exit 4), and in some the
    # generalized rows cut strictly deeper than the cut-set rows
    codes, strict = set(), False
    path = tmp_path / "net.json"
    for key in CASES:
        doc, pairs = case(*key)
        path.write_text(json.dumps(doc))
        for axes in pairs:
            argv = ["region", str(path), "--axes", ",".join(axes), "--compare", "cutset"]
            code, out, _ = run_region(argv)
            codes.add(code)
            strict = strict or "gcsb contains cutset: no" in out
    assert codes == {0, 4}
    assert strict
