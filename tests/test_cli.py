"""Command-line front-end tests.

Each command is driven through cli.main(argv) in process; stdout is
captured with capsys and files go under tmp_path.  Expected values are
frozen independently of the implementation: report coefficients come from
the hand-checked fifteen-row table (see test_bounds), region vertices from
the closed forms, and exit codes from the documented mapping
0 ok / 1 violation-or-diff / 2 schema / 3 cut / 4 unbounded.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutbounds import bounds, cli, polytope
from cutbounds.errors import SchemaError
from cutbounds.network import cut_and_message_families
from cutbounds.polytope import Row, format_rational

# ---------------------------------------------------------------------------
# fixtures


def write_doc(tmp_path, obj, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def k1_doc():
    return {
        "nodes": ["s", "v1", "t1"],
        "arcs": [
            {"from": "s", "to": "v1", "capacity": "1"},
            {"from": "v1", "to": "t1", "capacity": "inf"},
        ],
        "source": "s",
        "sinks": ["t1"],
        "messages": ["W1"],
        "demands": {"t1": ["W1"]},
    }


def complete_doc(K):
    """The K-sink (K <= 9) complete-message combination network at unit
    capacities as a document.

    Source arcs come first in size-then-lex subset order, so at K = 3 they
    receive the automatic labels a0..a6 in the pattern order
    (1,2,3,12,13,23,123).
    """
    sinks = "123456789"[:K]
    subsets = [
        "".join(combo) for size in range(1, K + 1) for combo in itertools.combinations(sinks, size)
    ]
    nodes = ["s"] + [f"v{u}" for u in subsets] + [f"t{k}" for k in sinks]
    arcs = [{"from": "s", "to": f"v{u}", "capacity": "1"} for u in subsets]
    for k in sinks:
        for u in subsets:
            if k in u:
                arcs.append({"from": f"v{u}", "to": f"t{k}", "capacity": "inf"})
    messages = [f"W{u}" for u in subsets]
    demands = {
        f"t{k}": [f"W{u}" for u in subsets if k in u] for k in sinks
    }
    return {
        "nodes": nodes,
        "arcs": arcs,
        "source": "s",
        "sinks": [f"t{k}" for k in sinks],
        "messages": messages,
        "demands": demands,
    }


def complete3_doc():
    return complete_doc(3)


def complete3_rational_doc():
    """The complete K=3 network with source-arc capacities 2/3 .. 8/3."""
    doc = complete_doc(3)
    for i, arc in enumerate(doc["arcs"][:7]):
        arc["capacity"] = f"{i + 2}/3"
    return doc


# capacity strings outside the grammar -?[0-9]+(/[0-9]+)?, each of which
# Fraction() accepts on some Python version
REJECTED_CAPACITIES = ["1_000", "1e1000000", "1.5", "+1", " 1", "\u0663"]


def two_sink_doc(extra_message=False):
    messages = ["WA", "WB"] + (["WC"] if extra_message else [])
    return {
        "nodes": ["s", "u", "v", "t1", "t2"],
        "arcs": [
            {"from": "s", "to": "u", "capacity": "1"},
            {"from": "s", "to": "v", "capacity": "2"},
            {"from": "u", "to": "t1", "capacity": "inf"},
            {"from": "v", "to": "t2", "capacity": "inf"},
        ],
        "source": "s",
        "sinks": ["t1", "t2"],
        "messages": messages,
        "demands": {"t1": ["WA"], "t2": ["WB"]},
    }


# provenance -> weight pattern over (W1,W2,W3,W12,W13,W23,W123) and the
# matching source arcs; copied from the hand-verified table in test_bounds
PATTERNS = {
    "csb({1})": (1, 0, 0, 1, 1, 0, 1),
    "csb({2})": (0, 1, 0, 1, 0, 1, 1),
    "csb({3})": (0, 0, 1, 0, 1, 1, 1),
    "csb({1,2})": (1, 1, 0, 1, 1, 1, 1),
    "csb({1,3})": (1, 0, 1, 1, 1, 1, 1),
    "csb({2,3})": (0, 1, 1, 1, 1, 1, 1),
    "csb({1,2,3})": (1, 1, 1, 1, 1, 1, 1),
    "gcsb3a(1,2,3)": (1, 1, 1, 2, 1, 1, 2),
    "gcsb3a(1,3,2)": (1, 1, 1, 1, 2, 1, 2),
    "gcsb3a(2,3,1)": (1, 1, 1, 1, 1, 2, 2),
    "gcsb3b(1,2,3)": (1, 1, 1, 2, 2, 2, 2),
    "gcsb3c(1,2,3)": (2, 2, 1, 2, 2, 2, 3),
    "gcsb3c(1,3,2)": (2, 1, 2, 2, 2, 2, 3),
    "gcsb3c(2,3,1)": (1, 2, 2, 2, 2, 2, 3),
    "gcsb3d(1,2,3)": (2, 2, 2, 2, 2, 2, 3),
}

MESSAGES3 = ("W1", "W2", "W3", "W12", "W13", "W23", "W123")
DOC_ARCS3 = ("a0", "a1", "a2", "a3", "a4", "a5", "a6")


README_REPORT = """\
[
  {
    "provenance": "csb({1})",
    "rate_coeffs": {
      "WA": "1"
    },
    "capacity_coeffs": {
      "a0": "1"
    },
    "rhs_value": "1"
  },
  {
    "provenance": "csb({1,2})",
    "rate_coeffs": {
      "WA": "1",
      "WB": "1"
    },
    "capacity_coeffs": {
      "a0": "1",
      "a1": "1"
    },
    "rhs_value": "3"
  },
  {
    "provenance": "csb({2})",
    "rate_coeffs": {
      "WB": "1"
    },
    "capacity_coeffs": {
      "a1": "1"
    },
    "rhs_value": "2"
  }
]
"""


# ---------------------------------------------------------------------------
# document parsing


class TestNetworkDocument:
    def test_roundtrip(self, tmp_path):
        net = cli.load_network_document(write_doc(tmp_path, k1_doc()))
        assert net.K == 1
        assert [a.label for a in net.arcs] == ["a0", "a1"]
        assert net.arc("a1").capacity is None
        assert net.demand_set(1).member_labels() == ("W1",)

    def test_unknown_top_level_key(self, tmp_path):
        doc = k1_doc()
        doc["comment"] = "hello"
        with pytest.raises(SchemaError):
            cli.load_network_document(write_doc(tmp_path, doc))

    def test_missing_key(self, tmp_path):
        doc = k1_doc()
        del doc["messages"]
        with pytest.raises(SchemaError):
            cli.load_network_document(write_doc(tmp_path, doc))

    def test_unknown_arc_key(self, tmp_path):
        doc = k1_doc()
        doc["arcs"][0]["weight"] = "1"
        with pytest.raises(SchemaError):
            cli.load_network_document(write_doc(tmp_path, doc))

    def test_numeric_capacity_rejected(self, tmp_path):
        doc = k1_doc()
        doc["arcs"][0]["capacity"] = 1
        with pytest.raises(SchemaError):
            cli.load_network_document(write_doc(tmp_path, doc))

    def test_garbage_capacity_rejected(self, tmp_path):
        doc = k1_doc()
        doc["arcs"][0]["capacity"] = "five"
        with pytest.raises(SchemaError):
            cli.load_network_document(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("text", REJECTED_CAPACITIES)
    def test_capacity_outside_the_grammar_exit2(self, text, tmp_path, capsys):
        doc = k1_doc()
        doc["arcs"][0]["capacity"] = text
        assert cli.main(["bounds", write_doc(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: arc 0 capacity {text!r} is not a rational\n"

    def test_fractional_capacity(self, tmp_path):
        doc = k1_doc()
        doc["arcs"][0]["capacity"] = "2/3"
        net = cli.load_network_document(write_doc(tmp_path, doc))
        assert net.arc("a0").capacity == F(2, 3)

    def test_demands_must_cover_sinks(self, tmp_path):
        doc = two_sink_doc()
        del doc["demands"]["t2"]
        with pytest.raises(SchemaError):
            cli.load_network_document(write_doc(tmp_path, doc))

    def test_demand_key_must_be_sink(self, tmp_path):
        doc = two_sink_doc()
        doc["demands"]["u"] = ["WA"]
        with pytest.raises(SchemaError):
            cli.load_network_document(write_doc(tmp_path, doc))

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError):
            cli.load_network_document(str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError):
            cli.load_network_document(str(path))


def _edit_arc(position, **fields):
    def edit(doc):
        doc["arcs"][position].update(fields)
    return edit


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _set_demand(sink, value):
    def edit(doc):
        if value is None:
            del doc["demands"][sink]
        else:
            doc["demands"][sink] = value
    return edit


def _add_arc(tail, head, capacity="inf"):
    def edit(doc):
        doc["arcs"].append({"from": tail, "to": head, "capacity": capacity})
    return edit


def _swap_sink(old, new):
    def edit(doc):
        doc["sinks"] = [new if s == old else s for s in doc["sinks"]]
        doc["demands"][new] = doc["demands"].pop(old)
    return edit


# each refusal of a network document after it has parsed as JSON, as an
# edit of `two_sink_doc()` and the `error:` line it must print (exit 2)
DOCUMENT_REFUSALS = {
    "arc-not-an-object": (_set("arcs", [{"from": "s", "to": "u", "capacity": "1"}, 5]),
                          "arc 1 must be an object"),
    "endpoint-not-a-string": (_edit_arc(1, to=3), "arc 1 endpoints must be strings"),
    "capacity-not-a-string": (_edit_arc(1, capacity=2),
                              'arc 1 capacity must be a string like "3/4" or "inf"'),
    "capacity-over-zero": (_edit_arc(1, capacity="3/0"), "arc 1 capacity '3/0' is not a rational"),
    "capacity-zero": (_edit_arc(1, capacity="0/4"),
                      "arc 1: arc capacity must be positive (or None for unbounded)"),
    "capacity-negative": (_edit_arc(1, capacity="-2"),
                          "arc 1: arc capacity must be positive (or None for unbounded)"),
    "empty-endpoint": (_edit_arc(1, to=""),
                       "arc 1: arc label and endpoints must be nonempty strings"),
    "self-loop": (_edit_arc(1, to="s"), "arc 1: arc 'a1' is a self-loop"),
    "unknown-node": (_edit_arc(1, to="x"), "arc 'a1' references an unknown node"),
    "directed-cycle": (_add_arc("t1", "u"), "network graph contains a directed cycle"),
    "sink-not-reachable": (_edit_arc(1, **{"from": "v", "to": "u"}),
                           "sink t_2 ('t2') not reachable from the source"),
    "demands-miss-a-sink": (_set_demand("t2", None),
                            "demands must name every sink exactly once"),
    "demands-name-a-non-sink": (_set_demand("u", ["WA"]),
                                "demands must name every sink exactly once"),
    "unknown-messages": (_set_demand("t1", ["WZ", "WA", "WY"]),
                         "sink 1 demands unknown messages ['WY', 'WZ']"),
    "no-messages-demanded": (_set_demand("t2", []), "sink 2 demands no messages"),
    "demands-not-strings": (_set_demand("t2", ["WB", 3]),
                            "demands for 't2' must be a list of strings"),
    "nodes-empty": (_set("nodes", []), "nodes must be nonempty and distinct"),
    "nodes-repeated": (_set("nodes", ["s", "u", "v", "t1", "t2", "u"]),
                       "nodes must be nonempty and distinct"),
    "nodes-not-strings": (_set("nodes", ["s", 1]), "nodes must be a list of strings"),
    "no-arcs": (_set("arcs", []), "a network needs at least one arc"),
    "arcs-not-a-list": (_set("arcs", {}), "arcs must be a list"),
    "no-messages": (_set("messages", []), "a network needs at least one message"),
    "messages-repeated": (_set("messages", ["WA", "WB", "WA"]),
                          "message labels must be distinct"),
    "source-is-a-sink": (_set("source", "t1"), "the source cannot be a sink"),
    "source-not-a-node": (_set("source", "x"), "source 'x' is not a node"),
    "source-not-a-string": (_set("source", 0), "source must be a node id"),
    "sink-not-a-node": (_swap_sink("t2", "x"), "sink 'x' is not a node"),
    "no-sinks": (lambda doc: doc.update(sinks=[], demands={}),
                 "networks carry 1..16 sinks: the bound rules walk up to 2^K - 1 sink subsets"),
}


@pytest.mark.parametrize("name", sorted(DOCUMENT_REFUSALS))
def test_document_refusal_texts(name, tmp_path, capsys):
    edit, message = DOCUMENT_REFUSALS[name]
    doc = two_sink_doc()
    edit(doc)
    path = write_doc(tmp_path, doc)
    for argv in (["bounds", path], ["region", path, "--axes", "WA,WB"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# bounds


class TestCmdBounds:
    def test_k1_report_exact(self, tmp_path, capsys):
        code = cli.main(["bounds", write_doc(tmp_path, k1_doc())])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report == [
            {
                "provenance": "csb({1})",
                "rate_coeffs": {"W1": "1"},
                "capacity_coeffs": {"a0": "1"},
                "rhs_value": "1",
            }
        ]

    def test_k3_complete_fifteen_rows(self, tmp_path, capsys):
        path = write_doc(tmp_path, complete3_doc())
        code = cli.main(["bounds", path, "--rules", "csb,gcsb3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report) == 15
        by_prov = {row["provenance"]: row for row in report}
        assert set(by_prov) == set(PATTERNS)
        for prov, pattern in PATTERNS.items():
            row = by_prov[prov]
            rates = {
                m: str(w) for m, w in zip(MESSAGES3, pattern) if w
            }
            caps = {a: str(w) for a, w in zip(DOC_ARCS3, pattern) if w}
            assert row["rate_coeffs"] == rates, prov
            assert row["capacity_coeffs"] == caps, prov
            assert row["rhs_value"] == str(sum(pattern)), prov

    def test_k4_complete_all_rules_pinned(self, tmp_path, capsys):
        # every rule on the complete K=4 network, pinned by row count and
        # stdout digest: a changed row, row order or provenance fails here
        path = write_doc(tmp_path, complete_doc(4))
        code = cli.main(["bounds", path, "--rules", "csb,gcsb3,cor3,cor2,thm2"])
        assert code == 0
        out = capsys.readouterr().out
        assert len(json.loads(out)) == 324
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "e9fc27e02617ba8aa8fa6f3324cfb3da5df78339a485475f0e0029f633593dac"
        )

    def test_readme_example_report_is_pinned(self, tmp_path, capsys):
        # the README's bounds example, byte for byte
        assert cli.main(["bounds", write_doc(tmp_path, two_sink_doc())]) == 0
        assert capsys.readouterr().out == README_REPORT

    def test_default_rules_match_explicit(self, tmp_path, capsys):
        path = write_doc(tmp_path, complete3_doc())
        assert cli.main(["bounds", path]) == 0
        default = capsys.readouterr().out
        assert cli.main(["bounds", path, "--rules", "csb,gcsb3"]) == 0
        assert capsys.readouterr().out == default

    def test_rows_sorted_by_signature(self, tmp_path, capsys):
        path = write_doc(tmp_path, complete3_doc())
        assert cli.main(["bounds", path]) == 0
        report = json.loads(capsys.readouterr().out)

        def key(row):
            return (
                sorted((m, F(v)) for m, v in row["rate_coeffs"].items()),
                sorted((a, F(v)) for a, v in row["capacity_coeffs"].items()),
            )

        keys = [key(row) for row in report]
        assert keys == sorted(keys)

    def test_cor2_rule(self, tmp_path, capsys):
        path = write_doc(tmp_path, two_sink_doc())
        code = cli.main(["bounds", path, "--rules", "cor2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        provs = [row["provenance"] for row in report]
        # the Q={2} pair bound scales to the plain pair bound, and with
        # disjoint demands level 2 is empty, so its signature collides
        # with the Q={} row and only the first origin survives
        assert provs == [
            "cor2({1}, Q={})",
            "cor2({1,2}, Q={})",
            "cor2({2}, Q={})",
        ]

    def test_thm2_rule_subsumes_csb(self, tmp_path, capsys):
        path = write_doc(tmp_path, two_sink_doc())
        assert cli.main(["bounds", path, "--rules", "csb"]) == 0
        csb_rows = json.loads(capsys.readouterr().out)
        assert cli.main(["bounds", path, "--rules", "thm2"]) == 0
        thm2_rows = json.loads(capsys.readouterr().out)

        def sig(row):
            return (
                tuple(sorted((m, F(v)) for m, v in row["rate_coeffs"].items())),
                tuple(sorted((a, F(v)) for a, v in row["capacity_coeffs"].items())),
            )

        assert {sig(r) for r in csb_rows} <= {sig(r) for r in thm2_rows}

    def test_rule_order_picks_provenance(self, tmp_path, capsys):
        path = write_doc(tmp_path, complete3_doc())
        reports = {}
        for rules in ("csb", "thm2,csb", "csb,thm2"):
            assert cli.main(["bounds", path, "--rules", rules]) == 0
            reports[rules] = json.loads(capsys.readouterr().out)

        def coefficients(row):
            return row["rate_coeffs"], row["capacity_coeffs"], row["rhs_value"]

        thm2_first, csb_first = reports["thm2,csb"], reports["csb,thm2"]
        assert [coefficients(r) for r in thm2_first] == [coefficients(r) for r in csb_first]
        shared = [coefficients(r) for r in reports["csb"]]
        picked = [(a, b) for a, b in zip(thm2_first, csb_first) if coefficients(a) in shared]
        assert len(picked) == len(shared)
        for a, b in picked:
            assert a["provenance"].startswith("thm2(")
            assert b["provenance"].startswith("csb(")

    def test_thm2_right_sides_on_a_document_with_unbounded_arcs(self, tmp_path, capsys):
        doc = complete3_rational_doc()
        path = write_doc(tmp_path, doc)
        assert cli.main(["bounds", path, "--rules", "thm2"]) == 0
        report = json.loads(capsys.readouterr().out)
        capacities = {f"a{i}": arc["capacity"] for i, arc in enumerate(doc["arcs"])}
        assert len(report) > 15
        for row in report:
            # minimum cuts never hold an unbounded arc, so every side is finite
            total = sum(F(c) * F(capacities[a]) for a, c in row["capacity_coeffs"].items())
            assert F(row["rhs_value"]) == total, row["provenance"]

    def test_unknown_rule_exit2(self, tmp_path):
        path = write_doc(tmp_path, k1_doc())
        assert cli.main(["bounds", path, "--rules", "csb,banana"]) == 2

    def test_out_file_and_determinism(self, tmp_path):
        path = write_doc(tmp_path, complete3_doc())
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert cli.main(["bounds", path, "--out", str(out1)]) == 0
        assert cli.main(["bounds", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_out_never_overwrites_another_file(self, tmp_path, capsys):
        """The report is staged under a name no file has, so a user's
        `out.json.partial`, or a file at the first staging name tried,
        stays as it was; the report gets the mode `open(out, "w")` would
        give it, 0o666 less the umask."""
        path = write_doc(tmp_path, complete3_doc())
        assert cli.main(["bounds", path]) == 0
        expected = capsys.readouterr().out
        kept = {"out.json.partial": b"a user's file\n", "out.json.0.partial": b"another\n"}
        for name, data in kept.items():
            (tmp_path / name).write_bytes(data)
        umask = os.umask(0o027)
        try:
            assert cli.main(["bounds", path, "--out", str(tmp_path / "out.json")]) == 0
        finally:
            os.umask(umask)
        assert {name: (tmp_path / name).read_bytes() for name in kept} == kept
        out = tmp_path / "out.json"
        assert out.read_text(encoding="utf-8") == expected
        assert out.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json", "out.json", *sorted(kept)]

    @pytest.mark.parametrize("where", ["missing-dir/r.json", "r.json"])
    def test_unwritable_out_exit2(self, tmp_path, capsys, where):
        path = write_doc(tmp_path, k1_doc())
        out = tmp_path / where
        if where == "r.json":
            out.mkdir()  # a directory cannot be replaced by the report
        assert cli.main(["bounds", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        # no staging file is left behind
        leftover = sorted(p.name for p in tmp_path.iterdir())
        assert leftover == (["net.json", "r.json"] if where == "r.json" else ["net.json"])

    def test_cuts_file(self, tmp_path, capsys):
        path = write_doc(tmp_path, k1_doc())
        cuts = tmp_path / "cuts.json"
        cuts.write_text(json.dumps({"t1": ["a0"]}))
        assert cli.main(["bounds", path, "--cuts", str(cuts)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report[0]["capacity_coeffs"] == {"a0": "1"}

    def test_bad_cut_exit3_no_output(self, tmp_path):
        doc = two_sink_doc()
        path = write_doc(tmp_path, doc)
        cuts = tmp_path / "cuts.json"
        # a1 feeds t2, so it does not disconnect t1
        cuts.write_text(json.dumps({"t1": ["a1"], "t2": ["a1"]}))
        out = tmp_path / "report.json"
        code = cli.main(["bounds", path, "--cuts", str(cuts), "--out", str(out)])
        assert code == 3
        assert not out.exists()

    def test_schema_error_exit2_no_output(self, tmp_path):
        doc = k1_doc()
        doc["arcs"][0]["capacity"] = "-1"
        path = write_doc(tmp_path, doc)
        out = tmp_path / "report.json"
        assert cli.main(["bounds", path, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("demanding", [["t1", "t2"], ["t1"]])
    def test_repeated_sink_names_the_fault(self, tmp_path, capsys, demanding):
        doc = two_sink_doc()
        doc["sinks"] = ["t1", "t1"]
        doc["demands"] = {sink: ["WA"] for sink in demanding}
        assert cli.main(["bounds", write_doc(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sinks must be distinct\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"note": "x"}, "arc 1 has unknown keys: ['note']"),
            ({"capacity": None}, "arc 1 is missing keys: ['capacity']"),
            ({"to": None, "note": "x", "b": 1}, "arc 1 has unknown keys: ['b', 'note']"),
            ({"from": None, "to": None}, "arc 1 is missing keys: ['from', 'to']"),
        ],
    )
    def test_arc_key_errors(self, tmp_path, edit, message):
        doc = two_sink_doc()
        arc = dict(doc["arcs"][1], **edit)
        doc["arcs"][1] = {key: value for key, value in arc.items() if value is not None}
        with pytest.raises(SchemaError) as raised:
            cli.load_network_document(write_doc(tmp_path, doc))
        assert str(raised.value) == message

    def test_repeated_capacity_strings(self, tmp_path):
        doc = two_sink_doc()
        for arc, capacity in zip(doc["arcs"], ["3/4", "3/4", "inf", "3/4"]):
            arc["capacity"] = capacity
        net = cli.load_network_document(write_doc(tmp_path, doc))
        assert [arc.capacity for arc in net.arcs] == [F(3, 4), F(3, 4), None, F(3, 4)]
        # a rejected string is named at the first arc that holds it
        for arc in doc["arcs"][1:]:
            arc["capacity"] = "1/0"
        with pytest.raises(SchemaError, match=r"^arc 1 capacity '1/0' is not a rational$"):
            cli.load_network_document(write_doc(tmp_path, doc))

    def test_missing_file_exit2(self, tmp_path):
        assert cli.main(["bounds", str(tmp_path / "absent.json")]) == 2

    # undecodable bytes, nesting past the decoder's recursion limit, and an
    # integer past Python's int-digit limit (where the interpreter has one)
    HOSTILE_JSON = {
        "not-utf8": b"\xff\xfe{",
        "deep-nesting": b"[" * 100000,
        "long-integer": b'{"nodes": ' + b"7" * 5000 + b"}",
    }

    @pytest.mark.parametrize("name", sorted(HOSTILE_JSON))
    def test_hostile_network_document_exit2(self, name, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_bytes(self.HOSTILE_JSON[name])
        assert cli.main(["bounds", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: network document ")

    @pytest.mark.parametrize("name", sorted(HOSTILE_JSON))
    def test_hostile_cut_file_exit2(self, name, tmp_path, capsys):
        path = write_doc(tmp_path, k1_doc())
        cuts = tmp_path / "cuts.json"
        cuts.write_bytes(self.HOSTILE_JSON[name])
        assert cli.main(["bounds", path, "--cuts", str(cuts)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cut file ")


# ---------------------------------------------------------------------------
# verify


class TestCmdVerify:
    def entropy_run(self, token, capsys, trials="40", extra=()):
        code = cli.main(
            ["verify", "--lemma", token, "--trials", trials, "--seed", "11"]
            + list(extra)
        )
        out = capsys.readouterr().out
        return code, out

    @pytest.mark.parametrize("token", ["1", "2", "cor1", "multiway"])
    def test_gap_campaigns_clean(self, token, capsys):
        code, out = self.entropy_run(token, capsys)
        assert code == 0
        assert "violations=0" in out
        assert "backend=entropy" in out
        gap = float(out.split("min_gap=")[1].split()[0])
        assert gap >= -1e-9

    def test_readme_example_output_is_pinned(self, capsys):
        # the README example, bit for bit: the gap sums fold left to right,
        # so Python 3.12's compensated builtin sum cannot change the digits
        code = cli.main(["verify", "--lemma", "cor1", "--trials", "200", "--seed", "5"])
        assert code == 0
        assert capsys.readouterr().out == (
            "check=cor1 backend=entropy trials=200 ground=5 seed=5 tolerance=1e-09\n"
            "min_gap=-8.881784197001252e-16 violations=0\n"
        )

    # sha256 of the newline-joined repr of every trial's gap, in trial order
    # (`verify --trials 200 --seed 3`); a modular campaign's gaps are all
    # Fraction(0, 1), so its four digests agree
    GAP_STREAMS = {
        ("1", "--ground", "5"): "d4267c1d0c17beb472a7327a2a8d455e3a4a50eb64db77f7641ace0524b3f886",
        ("1", "--ground", "6"): "3bc0369859349736877eb0a0d1ceb9eb724163d1321d605a9c85271bcad2db87",
        ("cor1", "--ground", "5"): "defb9daa00e2de1f35b3cf72b7860c6224271d01eeb74ef42721b9fd924fd482",
        ("cor1", "--ground", "6"): "2e78f3e4d442bbe69eac9acbaee9f619ea1ec85f136ad4b9b162dd934a411de0",
        ("multiway", "--ground", "5"): "6051e23408d457f029e51ca69939a3cc95ec6f099f64a252ab3ee29c1c2f8d28",
        ("multiway", "--ground", "6"): "3671782e476e099fd60723296b7f9014ad3083f15c2a2a4db48e7307b7d61a27",
        ("2", "--ground", "5"): "8a2bbae137ab83123a5c1a0d8220014d1474a35d77fcd5d5daead113eacc70f3",
        ("2", "--ground", "6"): "9b16e4a2dd4012326c64c4cba2bb9ff3fb112a85561dab0ceab3e5208cd813c4",
        **{
            (token, "--modular"): "698f55b2a7a2e3f501fe036bb2e678d2d0ffff5aff4d7d03a68f0245e97a8849"
            for token in ("1", "2", "cor1", "multiway")
        },
    }

    @pytest.mark.parametrize("case", sorted(GAP_STREAMS))
    def test_gap_stream_is_pinned(self, case, capsys, monkeypatch):
        # every trial's gap, not only the minimum the command prints
        token, *extra = case
        records = []
        trial = cli._GAP_TRIALS[token]

        def recorded(rng, f, masks):
            gap = trial(rng, f, masks)
            records.append(repr(gap))
            return gap

        monkeypatch.setitem(cli._GAP_TRIALS, token, recorded)
        code = cli.main(
            ["verify", "--lemma", token, "--trials", "200", "--seed", "3"] + extra
        )
        capsys.readouterr()
        assert code == 0
        assert len(records) == 200
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert digest == self.GAP_STREAMS[case]

    @pytest.mark.parametrize("token", ["1", "2", "cor1", "multiway"])
    def test_modular_gap_exactly_zero(self, token, capsys):
        code, out = self.entropy_run(token, capsys, extra=["--modular"])
        assert code == 0
        assert "backend=modular" in out
        assert "min_gap=0 " in out or out.rstrip().endswith("min_gap=0")
        assert "violations=0" in out

    def test_appendix_a(self, capsys):
        code = cli.main(
            ["verify", "--lemma", "appendixA", "--trials", "25", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "failures=0" in out

    def test_appendix_c_sweep_count(self, capsys):
        code = cli.main(["verify", "--lemma", "appendixC"])
        out = capsys.readouterr().out
        assert code == 0
        # sum over nonempty Q within {2..8} of (max(Q) - 1) checks
        assert "checked=769" in out
        assert "failures=0" in out

    def test_modular_rejected_for_identities(self, capsys):
        assert cli.main(["verify", "--lemma", "appendixA", "--modular"]) == 2
        capsys.readouterr()
        assert cli.main(["verify", "--lemma", "appendixC", "--modular"]) == 2

    def test_unknown_token_exit2(self, capsys):
        assert cli.main(["verify", "--lemma", "lemma9"]) == 2

    def test_bad_trials_exit2(self, capsys):
        assert cli.main(["verify", "--lemma", "1", "--trials", "0"]) == 2

    def test_seeded_determinism(self, capsys):
        _, first = self.entropy_run("1", capsys)
        _, second = self.entropy_run("1", capsys)
        assert first == second

    def test_tolerance_flag(self, capsys):
        code, out = self.entropy_run("1", capsys, extra=["--tolerance", "1e-6"])
        assert code == 0
        assert "tolerance=1e-06" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_vacuous_tolerance_exit2(self, value, capsys):
        # nan and inf would flag no gap at all, a negative value exact zeros
        assert cli.main(["verify", "--lemma", "1", "--tolerance", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --tolerance must be a finite number >= 0\n"


# ---------------------------------------------------------------------------
# region


class TestCmdRegion:
    def test_symmetric_unit_gcsb_csv(self, tmp_path):
        out = tmp_path / "v.csv"
        code = cli.main(
            ["region", "--symmetric", "3", "1", "1", "1", "--emit", str(out)]
        )
        assert code == 0
        assert out.read_text() == "x,y\n0,0\n4,0\n3,3\n1,6\n0,7\n"

    def test_symmetric_unit_cutset_csv(self, tmp_path):
        out = tmp_path / "v.csv"
        code = cli.main(
            [
                "region",
                "--symmetric", "3", "1", "1", "1",
                "--bounds", "cutset",
                "--emit", str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == "x,y\n0,0\n4,0\n5/2,9/2\n0,7\n"

    def test_symmetric_zero_caps_single_vertex(self, tmp_path):
        out = tmp_path / "v.csv"
        code = cli.main(
            ["region", "--symmetric", "2", "0", "0", "--emit", str(out)]
        )
        assert code == 0
        assert out.read_text() == "x,y\n0,0\n"

    def test_csv_to_stdout(self, capsys):
        code = cli.main(["region", "--symmetric", "1", "1"])
        assert code == 0
        # K=1: single bound R0 + Rsp <= C1
        assert capsys.readouterr().out == "x,y\n0,0\n1,0\n0,1\n"

    def test_compare_verdicts(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        code = cli.main(
            [
                "region",
                "--symmetric", "3", "1", "1", "1",
                "--compare", "cutset",
                "--emit", str(out),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "cutset contains gcsb: yes" in lines
        assert "gcsb contains cutset: no" in lines

    def test_file_network_region(self, tmp_path):
        path = write_doc(tmp_path, two_sink_doc())
        out = tmp_path / "v.csv"
        code = cli.main(
            ["region", path, "--axes", "WA,WB", "--emit", str(out)]
        )
        assert code == 0
        assert out.read_text() == "x,y\n0,0\n1,0\n1,2\n0,2\n"

    def test_compare_reuses_the_minimum_cuts(self, tmp_path, capsys, monkeypatch):
        path = write_doc(tmp_path, complete3_doc())
        calls = []
        original = cli.min_cut

        def counted(net, k):
            calls.append(k)
            return original(net, k)

        monkeypatch.setattr(cli, "min_cut", counted)
        args = ["region", path, "--axes", "W1,W2", "--bounds", "cutset", "--compare", "gcsb"]
        assert cli.main(args) == 0
        assert calls == [1, 2, 3]
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("gcsb contains cutset: ")
        assert lines[-1] == "cutset contains gcsb: yes"

    def test_file_system_rows_are_the_finite_report_rows(self, tmp_path, capsys):
        # with every message as an axis, the slice is the whole system
        path = write_doc(tmp_path, complete3_rational_doc())
        assert cli.main(["bounds", path, "--rules", "csb,gcsb3,cor3"]) == 0
        report = json.loads(capsys.readouterr().out)
        net = cli.load_network_document(path)
        families = cut_and_message_families(net, cli._load_cuts(net, None))
        system = cli._file_region_system(net, "gcsb", families, tuple(net.messages))
        assert system.variables == tuple(net.messages)
        from_report = sorted(
            (canonical.coeffs, canonical.rhs)
            for canonical in (
                Row(tuple(F(row["rate_coeffs"].get(m, "0")) for m in net.messages), F(row["rhs_value"]))
                for row in report
                if row["rhs_value"] is not None
            )
        )
        from_system = sorted((tuple(row.coeffs), row.rhs) for row in system.rows)
        assert from_system == from_report

    def test_file_slice_runs_no_elimination(self, tmp_path, capsys, monkeypatch):
        # the slice is read off the bound rows, so no projection may run
        path = write_doc(tmp_path, complete3_rational_doc())

        def refuse(*args, **kwargs):
            raise AssertionError("region eliminated a variable")

        for name in ("project", "fourier_motzkin"):
            monkeypatch.setattr(polytope, name, refuse)
            monkeypatch.setattr(cli, name, refuse, raising=False)
        args = ["region", path, "--axes", "W1,W23", "--compare", "cutset"]
        assert cli.main(args) == 0
        assert capsys.readouterr().out.splitlines() == [
            "x,y",
            "0,0",
            "7,0",
            "7,10/3",
            "4,19/3",
            "4/3,23/3",
            "0,23/3",
            "cutset contains gcsb: yes",
            "gcsb contains cutset: no",
        ]

    def test_unconstrained_message_unbounded_exit4(self, tmp_path, capsys):
        path = write_doc(tmp_path, two_sink_doc(extra_message=True))
        out = tmp_path / "v.csv"
        code = cli.main(
            ["region", path, "--axes", "WA,WC", "--emit", str(out)]
        )
        assert code == 4
        assert not out.exists()
        assert "unbounded" in capsys.readouterr().err

    def test_symmetric_sixteen_sinks_cutset_compare(self, capsys):
        # row s=1 gives R0 <= 2^15, row s=K gives R0 + Rsp <= 2^16 - 1
        code = cli.main(
            ["region", "--symmetric", "16", *["1"] * 16,
             "--bounds", "cutset", "--compare", "gcsb"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "x,y",
            "0,0",
            "32768,0",
            "458753/15,524272/15",
            "0,65535",
            "gcsb contains cutset: no",
            "cutset contains gcsb: yes",
        ]

    def test_emit_never_overwrites_another_file(self, tmp_path, capsys):
        argv = ["region", "--symmetric", "2", "1", "1"]
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out
        partial = tmp_path / "out.csv.partial"
        partial.write_bytes(b"a user's file\n")
        assert cli.main([*argv, "--emit", str(tmp_path / "out.csv")]) == 0
        assert partial.read_bytes() == b"a user's file\n"
        assert (tmp_path / "out.csv").read_text(encoding="utf-8") == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.partial"]

    @pytest.mark.parametrize("where", ["missing-dir/v.csv", "v.csv"])
    def test_unwritable_emit_exit2(self, tmp_path, capsys, where):
        out = tmp_path / where
        if where == "v.csv":
            out.mkdir()  # a directory cannot be replaced by the CSV
        code = cli.main(
            ["region", "--symmetric", "3", "1", "1", "1", "--emit", str(out)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        # no staging file is left behind
        leftover = [p.name for p in tmp_path.iterdir()]
        assert leftover == (["v.csv"] if where == "v.csv" else [])

    def test_unknown_axis_exit2(self, tmp_path):
        path = write_doc(tmp_path, two_sink_doc())
        assert cli.main(["region", path, "--axes", "WA,WZ"]) == 2

    @pytest.mark.parametrize("text", REJECTED_CAPACITIES)
    def test_symmetric_capacity_outside_the_grammar_exit2(self, text, capsys):
        assert cli.main(["region", "--symmetric", "2", "1", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: not a rational number: {text!r}\n"

    @pytest.mark.parametrize("text", REJECTED_CAPACITIES)
    def test_symmetric_sink_count_outside_the_grammar_exit2(self, text, capsys):
        assert cli.main(["region", "--symmetric", text, "1", "1", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the sink count must be an integer, got {text!r}\n"

    def test_symmetric_capacity_count_mismatch_exit2(self):
        assert cli.main(["region", "--symmetric", "3", "1", "1"]) == 2

    def test_requires_some_input(self):
        assert cli.main(["region"]) == 2


class TestCompleteK5:
    """The complete K=5 network: 31 source arcs, 80 delivery arcs, one
    message W_V per nonempty sink set V, every capacity 1."""

    def test_cutset_rows_follow_the_closed_form(self, tmp_path, capsys):
        path = write_doc(tmp_path, complete_doc(5))
        assert cli.main(["bounds", path, "--rules", "csb"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 31
        seen = set()
        for row in rows:
            assert row["provenance"].startswith("csb({")
            sinks = set(row["provenance"][5:-2].split(","))
            seen.add(frozenset(sinks))
            hit = [
                f"W{''.join(v)}"
                for size in range(1, 6)
                for v in itertools.combinations("12345", size)
                if sinks & set(v)
            ]
            assert row["rate_coeffs"] == {label: "1" for label in hit}
            assert F(row["rhs_value"]) == 2**5 - 2 ** (5 - len(sinks))
        assert len(seen) == 31

    def test_all_rules_pinned(self, tmp_path, capsys):
        # every rule, thm2 included, pinned by row count and stdout digest;
        # the digest was recorded from the signature-keyed dedupe that the
        # row kernel replaced, run with the thm2 sink cap raised to 5.  The
        # row tables are emptied first, so the K=5 search runs here
        bounds._row_tables.clear()
        path = write_doc(tmp_path, complete_doc(5))
        assert cli.main(["bounds", path, "--rules", "csb,gcsb3,cor3,cor2,thm2"]) == 0
        out = capsys.readouterr().out
        assert len(json.loads(out)) == 2771
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "6adb93eb825516f244d91e01996c8c638a9402ceb637ee08c94fc40c5d7d95e6"
        )

    def test_thm2_on_six_sinks_names_the_cap(self, tmp_path, capsys):
        path = write_doc(tmp_path, complete_doc(6))
        assert cli.main(["bounds", path, "--rules", "thm2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the search is limited to 5 sinks\n"

    def test_cutset_slice_corners(self, tmp_path, capsys):
        # R1 <= 16, R2 <= 16 and R1 + R2 <= 24 on the (W1, W2) slice
        path = write_doc(tmp_path, complete_doc(5))
        assert cli.main(["region", path, "--axes", "W1,W2", "--bounds", "cutset"]) == 0
        assert capsys.readouterr().out.split() == ["x,y", "0,0", "16,0", "16,8", "8,16", "0,16"]

    @pytest.mark.parametrize(
        "axes, csv, verdicts",
        [
            ("W1,W2", ["0,0", "16,0", "16,8", "8,16", "0,16"], ["yes", "yes"]),
            ("W12,W345", ["0,0", "16,0", "16,4", "12,12", "4,16", "0,16"], ["yes", "no"]),
        ],
    )
    def test_gcsb_slices_against_cutset(self, tmp_path, capsys, axes, csv, verdicts):
        # the outputs that eliminating the other 29 rates gave
        path = write_doc(tmp_path, complete_doc(5))
        assert cli.main(["region", path, "--axes", axes, "--compare", "cutset"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "x,y",
            *csv,
            f"cutset contains gcsb: {verdicts[0]}",
            f"gcsb contains cutset: {verdicts[1]}",
        ]

    def test_six_sink_slice_against_cutset(self, tmp_path, capsys):
        # 63 rates, 62 of them off the axes: the slice keeps two columns of
        # the bound rows and eliminates none
        path = write_doc(tmp_path, complete_doc(6))
        assert cli.main(["region", path, "--axes", "W12,W3456", "--compare", "cutset"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "x,y",
            *["0,0", "32,0", "32,8", "24,24", "8,32", "0,32"],
            "cutset contains gcsb: yes",
            "gcsb contains cutset: no",
        ]


# ---------------------------------------------------------------------------
# report writer

# message labels that JSON escapes: quotes, backslashes, control
# characters, DEL, non-ASCII, U+2028 and an astral character
HOSTILE_LABELS = ['thm2("q") \\ x', "a\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "\n\t\r\b\f"]


def report_document(K, mixers, direct, messages, demands, order):
    """A network document: one source arc per mixer (a nonempty sink mask
    and a capacity string), each mixer feeding its sinks by unbounded arcs
    or by a capacity string, direct source-to-sink arcs, the arcs listed
    in `order`; and one `--cuts` document of the source arcs over each
    sink, which never holds an unbounded arc."""
    sinks = [f"t{k}" for k in range(1, K + 1)]
    arcs, over = [], {sink: [] for sink in sinks}
    for j, (mask, capacity, feeds) in enumerate(mixers):
        source_arc = len(arcs)
        arcs.append({"from": "s", "to": f"v{j}", "capacity": capacity})
        for k, sink in enumerate(sinks):
            if mask >> k & 1:
                over[sink].append(source_arc)
                arcs.append({"from": f"v{j}", "to": sink, "capacity": feeds})
    for k, capacity in direct:
        over[sinks[k]].append(len(arcs))
        arcs.append({"from": "s", "to": sinks[k], "capacity": capacity})
    place = {old: new for new, old in enumerate(order(len(arcs)))}
    doc = {
        "nodes": ["s"] + [f"v{j}" for j in range(len(mixers))] + sinks,
        "arcs": [arcs[old] for old in sorted(place, key=place.get)],
        "source": "s",
        "sinks": sinks,
        "messages": messages,
        "demands": dict(zip(sinks, demands)),
    }
    cuts = {sink: [f"a{place[i]}" for i in over[sink]] for sink in sinks}
    return doc, cuts


def hostile_case(labels):
    """Two sinks, three mixers, every label demanded by some sink."""
    doc, cuts = report_document(
        2,
        [(1, "1", "inf"), (2, "3/4", "inf"), (3, "2", "inf")],
        [],
        labels,
        [labels[::2], labels[1::2] or labels],
        range,
    )
    return doc, "csb,gcsb3,cor3,cor2,thm2", None, False


rationals = st.builds(
    lambda n, d: str(n) if d == 1 else f"{n}/{d}", st.integers(1, 12), st.integers(1, 6)
)


@st.composite
def report_cases(draw):
    """A random document with hostile message labels (some undemanded),
    rational capacities and arcs in any order; a rule list in any order
    (thm2 at K <= 3); minimum cuts, or a `--cuts` file of cuts that are
    not minimal; and whether to write with `--out` too."""
    K = draw(st.integers(1, 4))
    feeds = st.one_of(st.just("inf"), rationals)
    mixers = draw(st.lists(st.tuples(st.integers(1, (1 << K) - 1), rationals, feeds), max_size=6))
    covered = 0
    for mask, _, _ in mixers:
        covered |= mask
    # every sink sits below a mixer, so the source reaches it
    mixers += [(1 << k, "1", "inf") for k in range(K) if not covered >> k & 1]
    direct = draw(st.lists(st.tuples(st.integers(0, K - 1), rationals), max_size=2))
    label = st.one_of(st.sampled_from(HOSTILE_LABELS), st.text(max_size=4))
    messages = draw(st.lists(label, min_size=1, max_size=6, unique=True))
    demanded = st.lists(st.sampled_from(messages), min_size=1, unique=True)
    demands = [draw(demanded) for _ in range(K)]
    doc, cuts = report_document(
        K, mixers, direct, messages, demands, lambda n: draw(st.permutations(range(n)))
    )
    if draw(st.booleans()):
        cuts = None
    else:
        # extra finite arcs keep a cut a cut, but not a minimum one
        finite = [f"a{i}" for i, arc in enumerate(doc["arcs"]) if arc["capacity"] != "inf"]
        for sink in cuts:
            extra = draw(st.lists(st.sampled_from(finite), max_size=3))
            cuts[sink] = list(dict.fromkeys(cuts[sink] + extra))
    pool = ["csb", "gcsb3", "cor3", "cor2"] + (["thm2"] if K <= 3 else [])
    rules = ",".join(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)))
    return doc, rules, cuts, draw(st.booleans())


def row_payload(net, row) -> dict:
    """A `bound_rows` row as a report object without its right side, labels
    in document order: the reference the report writer is checked against."""
    rates = {
        label: format_rational(row.rate_coeffs[label])
        for label in net.messages
        if label in row.rate_coeffs
    }
    caps = {
        arc.label: format_rational(row.capacity_coeffs[arc.label])
        for arc in net.arcs
        if arc.label in row.capacity_coeffs
    }
    return {
        "provenance": row.provenance,
        "rate_coeffs": rates,
        "capacity_coeffs": caps,
    }


class TestReportJson:
    """`bounds` reports, written from the row kernel's vectors, against
    `json.dumps(..., indent=2)` of the `bound_rows` rows in document order."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(report_cases())
    @example(hostile_case(HOSTILE_LABELS))
    @example(hostile_case(["", "W"]))
    def test_matches_json_dumps(self, case):
        doc, rules, cuts, to_file = case
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "net.json")
            Path(path).write_text(json.dumps(doc), encoding="utf-8")
            argv = ["bounds", path, "--rules", rules]
            cuts_path = None
            if cuts is not None:
                cuts_path = os.path.join(directory, "cuts.json")
                Path(cuts_path).write_text(json.dumps(cuts), encoding="utf-8")
                argv += ["--cuts", cuts_path]

            net = cli.load_network_document(path)
            families = cut_and_message_families(net, cli._load_cuts(net, cuts_path))
            capacities = {arc.label: arc.capacity for arc in net.arcs}
            payload = [
                {**row_payload(net, row), "rhs_value": format_rational(row.rhs_value)}
                for row in bounds.bound_rows(rules.split(","), *families, capacities)
            ]
            expected = json.dumps(payload, indent=2) + "\n"

            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert cli.main(argv) == 0
            assert stdout.getvalue() == expected
            if to_file:
                out = os.path.join(directory, "report.json")
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    assert cli.main(argv + ["--out", out]) == 0
                assert stdout.getvalue() == ""
                assert Path(out).read_bytes() == expected.encode()

    def test_a_shared_row_table_carries_no_text(self, tmp_path, capsys):
        """Two documents on the same cell layouts share one row table, but
        each report has its own labels and right sides: the second renames
        every node, message and arc and changes every capacity, and each
        report equals a fresh process's."""
        first = complete_doc(3)
        rename = {node: f"n{node}" for node in first["nodes"]}
        rename.update({label: "X" + label[1:] for label in first["messages"]})
        capacities = iter(["3/2", "5", "7/3", "1/6", "2", "9/4", "11"])
        second = {
            "nodes": [rename[n] for n in first["nodes"]] + ["ndead"],
            # an arc in no cut comes first, so arc k is labelled a(k+1); the
            # source arcs a1..a7 sort as a0..a6 did, so the layouts match
            "arcs": [{"from": "ns", "to": "ndead", "capacity": "4"}] + [
                {
                    "from": rename[arc["from"]],
                    "to": rename[arc["to"]],
                    "capacity": next(capacities) if arc["capacity"] == "1" else "inf",
                }
                for arc in first["arcs"]
            ],
            "source": "ns",
            "sinks": [rename[t] for t in first["sinks"]],
            "messages": [rename[m] for m in first["messages"]],
            "demands": {
                rename[t]: [rename[m] for m in wanted] for t, wanted in first["demands"].items()
            },
        }
        rules = "csb,gcsb3,cor3,cor2,thm2"
        paths = [write_doc(tmp_path, doc, f"net{i}.json") for i, doc in enumerate((first, second))]
        fresh = []
        for path in paths:
            done = run_module(["bounds", path, "--rules", rules])
            assert done.returncode == 0, done.stderr
            fresh.append(done.stdout)
        assert '"X12": "1"' in fresh[1] and '"a7": "1"' in fresh[1] and "W1" not in fresh[1]
        # csb({1}) holds the arcs into v1, v12, v13 and v123
        assert '"rhs_value": "44/3"' in fresh[1]

        bounds._row_tables.clear()
        for path, expected, hits in zip(paths + paths[:1], fresh + fresh[:1], (0, 1, 2)):
            assert cli.main(["bounds", path, "--rules", rules]) == 0
            assert capsys.readouterr().out == expected
            assert bounds._row_tables.hits == hits


# ---------------------------------------------------------------------------
# paper


class TestCmdPaper:
    @pytest.mark.parametrize(
        "case", ["k3-complete", "k3-symmetric", "fm-derivation"]
    )
    def test_golden_match(self, case, capsys):
        code = cli.main(["paper", "--case", case])
        out = capsys.readouterr().out
        assert code == 0
        assert f"{case}: match" in out

    def test_unknown_case_exit2(self):
        assert cli.main(["paper", "--case", "k9"]) == 2

    def test_mismatch_reports_diff(self, capsys, monkeypatch):
        doctored = json.loads(cli._load_golden("k3_complete.json"))
        doctored["rows"][0]["rate_coeffs"] = {"W1": "7"}
        monkeypatch.setattr(
            cli, "_load_golden", lambda name: json.dumps(doctored)
        )
        code = cli.main(["paper", "--case", "k3-complete"])
        out = capsys.readouterr().out
        assert code == 1
        assert "MISMATCH" in out

    def test_golden_documents_row13_discrepancy(self):
        golden = json.loads(cli._load_golden("k3_complete.json"))
        assert "symmetric" in golden["note"]
        assert len(golden["rows"]) == 15

    def test_symmetric_golden_content(self):
        golden = json.loads(cli._load_golden("k3_symmetric.json"))
        assert golden["corner_points"] == [
            ["4", "0"], ["3", "3"], ["1", "6"], ["0", "7"]
        ]
        assert golden["vertices"] == [
            ["0", "0"], ["4", "0"], ["3", "3"], ["1", "6"], ["0", "7"]
        ]

    def test_fm_golden_content(self):
        golden = json.loads(cli._load_golden("fm_derivation.json"))
        assert golden["rows"] == [
            {
                "rate": {"R0": "1", "Rsp": "1"},
                "capacity": {"C1": "3", "C2": "3", "C3": "1"},
            },
            {
                "rate": {"R0": "2", "Rsp": "1"},
                "capacity": {"C1": "3", "C2": "5", "C3": "2"},
            },
            {
                "rate": {"R0": "3", "Rsp": "1"},
                "capacity": {"C1": "3", "C2": "6", "C3": "3"},
            },
        ]


# ---------------------------------------------------------------------------
# top-level plumbing


def run_module(argv):
    """`python -m cutbounds.cli argv` in a fresh interpreter on this source."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cutbounds.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


class TestMain:
    def test_no_arguments_exit2(self):
        assert cli.main([]) == 2

    def test_unknown_subcommand_exit2(self):
        assert cli.main(["frobnicate"]) == 2

    def test_entrypoint_exists(self):
        assert callable(cli.entrypoint)

    def test_python_dash_m_runs_the_cli(self):
        done = run_module(["paper", "--case", "k3-symmetric"])
        assert done.returncode == 0, done.stderr
        assert done.stdout == "k3-symmetric: match\n"

    def test_one_process_prints_what_fresh_processes_print(self, tmp_path, capsys, monkeypatch):
        # help is wrapped to the terminal width, which must agree
        monkeypatch.setenv("COLUMNS", "80")
        path = write_doc(tmp_path, complete3_doc())
        runs = [
            (["verify", "--lemma", "banana"], 2),
            (["--help"], 0),
            (["bounds", path, "--rules", "csb,gcsb3,cor3,cor2,thm2"], 0),
            (["region", path, "--axes", "W1,W2", "--bounds", "cutset", "--compare", "gcsb"], 0),
        ]
        printed = []
        for argv, code in runs:
            assert cli.main(argv) == code
            printed.append(capsys.readouterr())
            fresh = run_module(argv)
            assert fresh.returncode == code
            assert (printed[-1].out, printed[-1].err) == (fresh.stdout, fresh.stderr)
        assert printed[0].err.startswith("usage: cutbounds verify ")
        assert printed[1].out.startswith("usage: cutbounds ")
