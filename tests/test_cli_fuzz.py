"""The exit-code contract under fuzzed input.

Random and mutated network documents, `--cuts` files, rule lists and
`--symmetric` token lists go through `cli.main`.  Whatever the input, a
run returns one of the documented exit codes 0-4 and raises nothing.  The
documents start from small valid networks, so most mutations reach the
parser's deeper checks, the cut verification and the bound rows rather
than stopping at the first key.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutbounds import cli

PROFILE = settings(max_examples=150, deadline=None, derandomize=True, database=None)

TWO_SINKS = {
    "nodes": ["s", "v1", "v2", "v12", "t1", "t2"],
    "arcs": [
        {"from": "s", "to": "v1", "capacity": "1"},
        {"from": "s", "to": "v2", "capacity": "3/4"},
        {"from": "s", "to": "v12", "capacity": "2"},
        {"from": "v1", "to": "t1", "capacity": "inf"},
        {"from": "v12", "to": "t1", "capacity": "inf"},
        {"from": "v2", "to": "t2", "capacity": "inf"},
        {"from": "v12", "to": "t2", "capacity": "1/2"},
    ],
    "source": "s",
    "sinks": ["t1", "t2"],
    "messages": ["W1", "W2", "W12"],
    "demands": {"t1": ["W1", "W12"], "t2": ["W2", "W12"]},
}

CHAIN = {
    "nodes": ["s", "u", "t1", "t2", "t3"],
    "arcs": [
        {"from": "s", "to": "u", "capacity": "2"},
        {"from": "u", "to": "t1", "capacity": "1"},
        {"from": "u", "to": "t2", "capacity": "inf"},
        {"from": "s", "to": "t3", "capacity": "1/3"},
    ],
    "source": "s",
    "sinks": ["t1", "t2", "t3"],
    "messages": ["M1", "M2"],
    "demands": {"t1": ["M1"], "t2": ["M1", "M2"], "t3": ["M2"]},
}

# tokens the documents already use, so a mutation often stays plausible
WORDS = [
    "s", "u", "v1", "v2", "v12", "t1", "t2", "t3", "W1", "W2", "W12", "M1", "M2",
    "a0", "a1", "a3", "a6", "inf", "0", "1", "-1", "3/4", "1/0", "0/0", "1.5",
    "1e9", "+1", " 1", "", "nodes", "arcs", "from", "to", "capacity", "source",
    "sinks", "messages", "demands",
]

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.integers(),
    st.floats(),
    st.sampled_from(WORDS),
    st.text(max_size=4),
)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated(draw, base):
    """`base` with up to three edits, each at the end of a random walk
    into it: a value replaced, a key or item removed, or one added."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        holder, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and (holder is None or draw(st.booleans())):
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            holder, key = node, draw(st.sampled_from(keys))
            node = node[key]
        action = draw(st.sampled_from(["replace", "remove", "add"]))
        if holder is None:
            if action == "replace":
                doc = draw(json_values)
            continue
        if action == "replace":
            holder[key] = draw(json_values)
        elif action == "remove":
            del holder[key]
        elif isinstance(holder, dict):
            holder[draw(st.sampled_from(WORDS))] = draw(json_values)
        else:
            holder.insert(key, draw(json_values))
    return doc


@st.composite
def redrawn(draw, base):
    """`base` with every capacity and every demand list drawn afresh: most
    stay valid, so they reach the minimum cuts and the bound rows."""
    doc = json.loads(json.dumps(base))
    capacities = st.sampled_from(["1", "2", "3/4", "inf", "inf", "0", "-1", "1/0"])
    for arc in doc["arcs"]:
        arc["capacity"] = draw(capacities)
    for sink in doc["demands"]:
        doc["demands"][sink] = draw(st.lists(st.sampled_from(doc["messages"]), unique=True))
    return doc


documents = st.one_of(
    mutated(TWO_SINKS),
    mutated(CHAIN),
    redrawn(TWO_SINKS),
    redrawn(CHAIN),
    json_values,
)


@st.composite
def cut_files(draw, doc):
    """None (minimum cuts), or a cut file: arc labels per named sink,
    mutated like the documents."""
    if draw(st.booleans()):
        return None
    sinks = doc.get("sinks") if isinstance(doc, dict) else None
    names = [s for s in sinks if isinstance(s, str)] if isinstance(sinks, list) else []
    arcs = doc.get("arcs") if isinstance(doc, dict) else None
    count = len(arcs) if isinstance(arcs, list) else 3
    labels = st.sampled_from([f"a{i}" for i in range(count + 1)] + ["a", "", "inf"])
    cuts = {name: draw(st.lists(labels, max_size=4, unique=True)) for name in names}
    return draw(mutated(cuts))


def messages_of(doc) -> list:
    messages = doc.get("messages") if isinstance(doc, dict) else None
    return [m for m in messages if isinstance(m, str)] if isinstance(messages, list) else []


rules = st.lists(
    st.sampled_from(["csb", "gcsb3", "cor3", "cor2", "thm2", "", " csb", "CSB", "x"]),
    min_size=1,
    max_size=3,
).map(",".join)


def run(argv) -> int:
    """`cli.main(argv)` with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def write(directory, name, payload) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload if isinstance(payload, str) else json.dumps(payload))
    return path


@st.composite
def file_runs(draw):
    """An argv for `bounds` or `region` on a fuzzed document, and the files
    it reads: the document text may also be cut short."""
    doc = draw(documents)
    text = json.dumps(doc)
    if draw(st.sampled_from([False] * 9 + [True])):
        text = text[: draw(st.integers(0, len(text)))]
    cuts = draw(cut_files(doc))
    if draw(st.booleans()):
        argv = ["bounds", "NET", "--rules", draw(rules)]
        if cuts is not None:
            argv += ["--cuts", "CUTS"]
        if draw(st.booleans()):
            argv += ["--out", "OUT"]
    else:
        names = st.sampled_from(messages_of(doc) + ["R0", "W1", ""])
        axes = draw(
            st.lists(names, min_size=2, max_size=2, unique=True) | st.lists(names, max_size=3)
        )
        argv = ["region", "NET", "--axes", ",".join(axes)]
        argv += ["--bounds", draw(st.sampled_from(["gcsb", "cutset"]))]
        if draw(st.booleans()):
            argv += ["--compare", draw(st.sampled_from(["gcsb", "cutset"]))]
        if draw(st.booleans()):
            argv += ["--emit", "OUT"]
    return argv, text, cuts


@PROFILE
@given(file_runs())
@example((["bounds", "NET", "--rules", "csb,thm2"], json.dumps(TWO_SINKS), None))
@example((["region", "NET", "--axes", "W1,W2", "--compare", "cutset"], json.dumps(TWO_SINKS), None))
@example((["bounds", "NET", "--cuts", "CUTS"], json.dumps(CHAIN), {"t1": ["a0"]}))
def test_documents_and_cut_files_keep_the_exit_codes(case):
    argv, text, cuts = case
    with tempfile.TemporaryDirectory() as directory:
        paths = {
            "NET": write(directory, "net.json", text),
            "CUTS": write(directory, "cuts.json", cuts),
            "OUT": os.path.join(directory, "out"),
        }
        assert run([paths.get(token, token) for token in argv]) in range(5)


symmetric_tokens = st.lists(
    st.one_of(
        st.sampled_from(["0", "1", "2", "3", "16", "17", "-1", "3/4", "1/0", "0/0", "1.5", "+1", "inf"]),
        st.text(max_size=3),
    ),
    min_size=1,
    max_size=6,
)


@PROFILE
@given(
    symmetric_tokens,
    st.sampled_from(["R0,Rsp", "Rsp,R0", "R0,R0", "R0", "R1,Rsp"]),
    st.sampled_from([[], ["--compare", "cutset"], ["--bounds", "cutset"]]),
)
@example(["2", "1", "1"], "R0,Rsp", [])
@example(["3", "1", "0", "3/4"], "Rsp,R0", ["--compare", "cutset"])
def test_symmetric_tokens_keep_the_exit_codes(tokens, axes, extra):
    # a token that looks like an option is parsed as one, as on a shell
    argv = ["region", "--axes", axes, *extra, "--symmetric", *tokens]
    assert run(argv) in range(5)
