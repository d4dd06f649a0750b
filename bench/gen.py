"""Seeded inputs for the cutbounds benchmark.

Each workload has a fixed *catalogue* of CLI operations: an argv for
`cutbounds.cli.main`, the input files it reads, the exit code its
construction implies, and an optional independent oracle.  Catalogues are
built from fixed catalogue seeds, so every operation has an expected
output digest recorded in `expected.json`.  Operations that share a slot
are variants of one construction that cost the same to run (other
capacities, output file, comparison family or campaign seed); a run's
`--seed` picks one variant per slot (`epoch`), so every run does the same
mix of cheap and expensive work.

Documents are built here, not through `cutbounds.network`, so a change to
the program's constructors cannot silently change the benchmark's inputs.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

WORKLOADS = ("report", "slice", "reproduce")


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  Paths in `argv` are relative to the work dir."""

    id: str
    slot: str  # ops sharing a slot are variants; an epoch runs one of them
    argv: tuple
    exit: int = 0
    out: Optional[str] = None
    oracle: Optional[tuple] = None


@dataclass(frozen=True)
class Catalogue:
    ops: tuple
    files: dict  # relative path -> file text


# ---------------------------------------------------------------------------
# network documents


def _rational(rng) -> str:
    return str(Fraction(rng.randint(1, 9), rng.randint(1, 4)))


def _subsets(K: int):
    for size in range(1, K + 1):
        yield from itertools.combinations(range(1, K + 1), size)


def _name(members) -> str:
    return "".join(str(k) for k in members)


def _document(nodes, arcs, sinks, messages, demands) -> dict:
    return {
        "nodes": nodes,
        "arcs": [{"from": a, "to": b, "capacity": c} for a, b, c in arcs],
        "source": "s",
        "sinks": sinks,
        "messages": messages,
        "demands": demands,
    }


def combination_document(K: int, caps: dict, messages, demands) -> dict:
    """Source -> one mixer per capacitated sink subset -> sinks; the
    delivery arcs are uncuttable.  `caps` maps subsets to rational strings;
    source arcs come first, so labels a0..a(n-1) are the finite arcs."""
    kept = [members for members in _subsets(K) if members in caps]
    nodes = ["s"] + [f"v{_name(m)}" for m in kept] + [f"t{k}" for k in range(1, K + 1)]
    arcs = [("s", f"v{_name(m)}", caps[m]) for m in kept]
    arcs += [(f"v{_name(m)}", f"t{k}", "inf") for m in kept for k in m]
    sinks = [f"t{k}" for k in range(1, K + 1)]
    return _document(nodes, arcs, sinks, messages, demands)


def complete_document(K: int, caps: dict) -> dict:
    """Complete combination network: message W_U for every sink subset U,
    demanded by exactly the sinks in U."""
    subsets = list(_subsets(K))
    messages = [f"W{_name(m)}" for m in subsets]
    demands = {
        f"t{k}": [f"W{_name(m)}" for m in subsets if k in m] for k in range(1, K + 1)
    }
    return combination_document(K, caps, messages, demands)


def symmetric_document(K: int, levels) -> dict:
    """Symmetric combination network: C_U = levels[|U|-1]; W0 goes to every
    sink, Wk only to sink k."""
    caps = {m: levels[len(m) - 1] for m in _subsets(K)}
    messages = ["W0"] + [f"W{k}" for k in range(1, K + 1)]
    demands = {f"t{k}": ["W0", f"W{k}"] for k in range(1, K + 1)}
    return combination_document(K, caps, messages, demands)


def unit_caps(K: int) -> dict:
    return {m: "1" for m in _subsets(K)}


def random_caps(rng, K: int) -> dict:
    return {m: _rational(rng) for m in _subsets(K)}


def random_dag(rng, sinks: int, messages: int, layers: int, overlap: float) -> dict:
    """Layered DAG: source, `layers` hidden layers of 2-4 nodes, sinks.

    Source arcs are finite, so every sink has a finite cut; later arcs are
    uncuttable with probability 1/4.  Each sink demands each message with
    probability `overlap`; every sink demands one message at least and
    every message is demanded by one sink at least.
    """
    hidden = [[f"u{d}_{i}" for i in range(rng.randint(2, 4))] for d in range(layers)]
    sink_names = [f"t{k}" for k in range(1, sinks + 1)]

    def capacity():
        return "inf" if rng.random() < 0.25 else _rational(rng)

    arcs = [("s", node, _rational(rng)) for node in hidden[0]]
    for previous, layer in zip(hidden, hidden[1:]):
        for node in layer:
            for parent in rng.sample(previous, rng.randint(1, min(3, len(previous)))):
                arcs.append((parent, node, capacity()))
    everyone = [node for layer in hidden for node in layer]
    for t in sink_names:
        for parent in rng.sample(everyone, rng.randint(1, min(3, len(everyone)))):
            arcs.append((parent, t, capacity()))

    labels = [f"M{i}" for i in range(1, messages + 1)]
    wanted = {t: [m for m in labels if rng.random() < overlap] for t in sink_names}
    for t in sink_names:
        if not wanted[t]:
            wanted[t].append(rng.choice(labels))
    for m in labels:
        if not any(m in wanted[t] for t in sink_names):
            wanted[rng.choice(sink_names)].append(m)
    demands = {t: [m for m in labels if m in wanted[t]] for t in sink_names}
    return _document(["s"] + everyone + sink_names, arcs, sink_names, labels, demands)


def source_cuts(doc: dict, rng=None) -> dict:
    """A verified cut for every sink: all source arcs, which disconnect
    everything, plus (with `rng`) one more finite arc, so the cut is never
    minimal."""
    arcs = doc["arcs"]
    chosen = [i for i, arc in enumerate(arcs) if arc["from"] == "s"]
    if rng is not None:
        extra = [i for i, arc in enumerate(arcs) if arc["from"] != "s" and arc["capacity"] != "inf"]
        if extra:
            chosen.append(rng.choice(extra))
    labels = [f"a{i}" for i in sorted(chosen)]
    return {t: labels for t in doc["sinks"]}


def demanded(doc: dict) -> list:
    return [m for m in doc["messages"] if any(m in d for d in doc["demands"].values())]


def hostile_documents(base: dict) -> list:
    """(name, file text, extra argv, cut file or None, expected exit code).

    None of these depend on a size cap: each breaks the schema, the graph
    rules, the rule list or the cut contract of a small valid document.
    """
    def variant(**changes):
        doc = json.loads(json.dumps(base))
        doc.update(changes)
        return json.dumps(doc)

    arcs = base["arcs"]
    first_sink = base["sinks"][0]
    retyped = [dict(arcs[0], capacity=1)] + arcs[1:]
    words = [dict(arcs[0], capacity="three")] + arcs[1:]
    zero = [dict(arcs[0], capacity="0")] + arcs[1:]
    loop = arcs + [{"from": first_sink, "to": first_sink, "capacity": "1"}]
    cycle = arcs + [{"from": first_sink, "to": "s", "capacity": "1"}]
    unknown_node = arcs + [{"from": "s", "to": "nowhere", "capacity": "1"}]
    stranded = dict(base["demands"], stray=[base["messages"][0]])
    shortcut = arcs + [{"from": "s", "to": first_sink, "capacity": "inf"}]
    infinite = next(i for i, arc in enumerate(arcs) if arc["capacity"] == "inf")
    cuts = source_cuts(base)
    empty_cut = dict(cuts, **{first_sink: []})
    infinite_cut = dict(cuts, **{first_sink: cuts[first_sink] + [f"a{infinite}"]})
    unknown_arc = dict(cuts, **{first_sink: ["a999"]})
    no_demand = dict(base["demands"], **{first_sink: ["nonexistent"]})
    valid = json.dumps(base)
    return [
        ("truncated", valid[: len(valid) // 2], (), None, 2),
        ("not-object", "[]", (), None, 2),
        ("missing-key", json.dumps({k: v for k, v in base.items() if k != "demands"}), (), None, 2),
        ("extra-key", variant(comment="x"), (), None, 2),
        ("numeric-capacity", variant(arcs=retyped), (), None, 2),
        ("word-capacity", variant(arcs=words), (), None, 2),
        ("zero-capacity", variant(arcs=zero), (), None, 2),
        ("self-loop", variant(arcs=loop), (), None, 2),
        ("cycle", variant(arcs=cycle), (), None, 2),
        ("unknown-node", variant(arcs=unknown_node), (), None, 2),
        ("stray-demand", variant(demands=stranded), (), None, 2),
        ("unknown-message", variant(demands=no_demand), (), None, 2),
        ("unknown-rule", valid, ("--rules", "csb,nope"), None, 2),
        ("unknown-cut-arc", valid, (), unknown_arc, 2),
        ("empty-cut", valid, (), empty_cut, 3),
        ("uncuttable-cut", valid, (), infinite_cut, 3),
        ("no-finite-cut", variant(arcs=shortcut), (), None, 3),
    ]


# ---------------------------------------------------------------------------
# workload catalogues


class _Builder:
    def __init__(self):
        self.ops = []
        self.files = {}

    def file(self, path: str, payload) -> str:
        self.files[path] = payload if isinstance(payload, str) else json.dumps(payload)
        return path

    def op(self, id, argv, slot=None, **fields):
        self.ops.append(Op(id, slot or id, tuple(argv), **fields))

    def catalogue(self) -> Catalogue:
        return Catalogue(tuple(self.ops), self.files)


REPORT_RULES = {
    "base": "csb,gcsb3",
    "cor": "csb,gcsb3,cor3,cor2",
    "thm2": "csb,gcsb3,cor3,cor2,thm2",
}


def report_catalogue() -> Catalogue:
    rng = random.Random("report-catalogue")
    b = _Builder()
    docs = {}
    for K in (3, 4):
        docs[f"c{K}-unit"] = complete_document(K, unit_caps(K))
        docs[f"c{K}-r0"] = complete_document(K, random_caps(rng, K))
        docs[f"s{K}-unit"] = symmetric_document(K, ["1"] * K)
        docs[f"s{K}-r0"] = symmetric_document(K, [_rational(rng) for _ in range(K)])
    for i in range(8):
        docs[f"dag{i}"] = random_dag(
            rng,
            sinks=rng.randint(2, 6),
            messages=rng.randint(2, 6),
            layers=rng.randint(1, 3),
            overlap=rng.choice((0.2, 0.5, 0.8)),
        )

    for name, doc in docs.items():
        path = b.file(f"{name}.json", doc)
        cuts = b.file(f"{name}.cuts.json", source_cuts(doc, rng))
        base = ["bounds", path, "--rules", REPORT_RULES["base"]]
        cor = ["bounds", path, "--rules", REPORT_RULES["cor"]]
        b.op(f"report/{name}/base", base, slot=f"report/{name}/base")
        b.op(f"report/{name}/base/out", base + ["--out", "report.json"],
             slot=f"report/{name}/base", out="report.json")
        b.op(f"report/{name}/cor", cor)
        b.op(f"report/{name}/cor/cuts", cor + ["--cuts", cuts])
        if len(doc["sinks"]) <= 3:
            b.op(f"report/{name}/thm2", ["bounds", path, "--rules", REPORT_RULES["thm2"]])

    # thm2 takes ~0.05 s at K <= 3 but 0.5-2 s at K = 4, so at K = 4 it runs
    # on one network, the complete one at unit capacities
    b.op("report/c4-unit/thm2", ["bounds", "c4-unit.json", "--rules", REPORT_RULES["thm2"]])

    for name, text, extra, cut_doc, code in hostile_documents(docs["c3-unit"]):
        argv = ["bounds", b.file(f"hostile-{name}.json", text), *extra]
        if cut_doc is not None:
            argv += ["--cuts", b.file(f"hostile-{name}.cuts.json", cut_doc)]
        b.op(f"report/hostile/{name}", argv, exit=code)
    return b.catalogue()


def symmetric_corners(K: int, caps) -> list:
    """The origin, then the closed-form corner points
    (sum_{i>=r} C(K-1,i-1) c_i, sum_{i<r} C(K,i) c_i) for r = 1..K+1,
    repeats removed: the vertex list of every symmetric gcsb slice."""
    caps = [Fraction(c) for c in caps]
    points = [(Fraction(0), Fraction(0))]
    for r in range(1, K + 2):
        x = sum((comb(K - 1, i - 1) * caps[i - 1] for i in range(r, K + 1)), Fraction(0))
        y = sum((comb(K, i) * caps[i - 1] for i in range(1, r)), Fraction(0))
        if (x, y) != points[-1]:
            points.append((x, y))
    return points


def slice_catalogue() -> Catalogue:
    rng = random.Random("slice-catalogue")
    b = _Builder()
    docs = {"c3-unit": complete_document(3, unit_caps(3)),
            "c3-r0": complete_document(3, random_caps(rng, 3))}
    for K in (3, 4):
        docs[f"s{K}-unit"] = symmetric_document(K, ["1"] * K)
        docs[f"s{K}-r0"] = symmetric_document(K, [_rational(rng) for _ in range(K)])
    for i in range(6):
        docs[f"dag{i}"] = random_dag(
            rng,
            sinks=rng.randint(2, 4),
            messages=rng.randint(2, 4),
            layers=rng.randint(1, 2),
            overlap=rng.choice((0.3, 0.6)),
        )

    # two axis pairs per document; a slice's cost depends on its axes (4x
    # for the symmetric K=4 cutset slices), so both run in every epoch
    for name, doc in docs.items():
        path = b.file(f"{name}.json", doc)
        pairs = list(itertools.combinations(demanded(doc), 2))
        axes = rng.sample(pairs, min(2, len(pairs)))
        for family in ("gcsb", "cutset"):
            for x, y in axes:
                b.op(f"slice/{name}/{x},{y}/{family}",
                     ["region", path, "--axes", f"{x},{y}", "--bounds", family])

    # complete K=4 under gcsb takes 16-70 s per slice and is left out
    c4_doc = complete_document(4, unit_caps(4))
    c4 = b.file("c4-unit.json", c4_doc)
    x, y = rng.choice(list(itertools.combinations(c4_doc["messages"], 2)))
    argv = ["region", c4, "--axes", f"{x},{y}", "--bounds", "cutset"]
    b.op(f"slice/c4-unit/{x},{y}/cutset", argv)
    b.op(f"slice/c4-unit/{x},{y}/cutset/emit", argv + ["--emit", "vertices.csv"],
         out="vertices.csv")

    for name in ("c3-unit", "dag0", "dag1"):
        doc = json.loads(json.dumps(docs[name]))
        doc["messages"].append("Wfree")
        path = b.file(f"{name}-free.json", doc)
        b.op(f"slice/{name}-free/unbounded",
             ["region", path, "--axes", f"Wfree,{demanded(doc)[0]}"], exit=4)

    for K in range(3, 8):
        variants = {"unit": ["1"] * K}
        for i in range(2):
            variants[f"r{i}"] = [_rational(rng) for _ in range(K)]
        for tag, caps in variants.items():
            base = ["region", "--symmetric", str(K), *caps]
            oracle = ("symmetric", K, tuple(caps))
            b.op(f"slice/sym{K}/{tag}/gcsb", base, slot=f"slice/sym{K}/gcsb", oracle=oracle)
            b.op(f"slice/sym{K}/{tag}/gcsb/emit", base + ["--emit", "vertices.csv"],
                 slot=f"slice/sym{K}/gcsb/emit", out="vertices.csv", oracle=oracle)
        if K == 5:
            # --compare projects the cutset family: 0.3 s at K=5 and unit
            # capacities, 1.5 s at random ones, 3 s at K=6, 20 s at K=7
            variants = {"unit": ["1"] * K}
        if K <= 5:
            for tag, caps in variants.items():
                base = ["region", "--symmetric", str(K), *caps]
                # either family builds both systems, so the two cost the same
                slot = f"slice/sym{K}/{tag}/compare"
                b.op(f"slice/sym{K}/{tag}/gcsb/compare", base + ["--compare", "cutset"],
                     slot=slot, oracle=("symmetric", K, tuple(caps)))
                b.op(f"slice/sym{K}/{tag}/cutset/compare",
                     base + ["--bounds", "cutset", "--compare", "gcsb"], slot=slot)
    return b.catalogue()


CAMPAIGNS = ("1", "2", "cor1", "multiway")


def reproduce_catalogue() -> Catalogue:
    """Each campaign runs twice a pass; the workload seed picks the campaign
    seed of each run from four."""
    b = _Builder()
    for lemma in CAMPAIGNS:
        for backend, ground in (("entropy", 5), ("entropy", 6), ("modular", 5)):
            for seed in range(8):
                argv = ["verify", "--lemma", lemma, "--trials", "500",
                        "--ground", str(ground), "--seed", str(seed)]
                if backend == "modular":
                    argv.append("--modular")
                b.op(f"reproduce/{lemma}/{backend}{ground}/{seed}", argv,
                     slot=f"reproduce/{lemma}/{backend}{ground}/{seed // 4}")
    for ground in (5, 6, 8):
        for seed in range(8):
            b.op(f"reproduce/appendixA/g{ground}/{seed}",
                 ["verify", "--lemma", "appendixA", "--trials", "500",
                  "--ground", str(ground), "--seed", str(seed)],
                 slot=f"reproduce/appendixA/g{ground}/{seed // 4}")
    b.op("reproduce/appendixC", ["verify", "--lemma", "appendixC"])
    for case in ("fm-derivation", "k3-complete", "k3-symmetric"):
        b.op(f"reproduce/paper/{case}", ["paper", "--case", case])
    return b.catalogue()


CATALOGUES = {
    "report": report_catalogue,
    "slice": slice_catalogue,
    "reproduce": reproduce_catalogue,
}


def epoch(catalogue: Catalogue, workload: str, seed: int) -> list:
    """One op of every slot, a seeded pick among the slot's variants; so
    every seed runs the same mix of cheap and expensive work."""
    rng = random.Random(f"{workload}:{seed}")
    slots = {}
    for op in catalogue.ops:
        slots.setdefault(op.slot, []).append(op)
    return [rng.choice(variants) for variants in slots.values()]
