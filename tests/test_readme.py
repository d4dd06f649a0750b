"""The README's examples run as documented.

The ```python block under `## Library` is executed as written, so a change
to the library API that the example relies on fails here rather than in a
reader's session.  The network document under `### Network documents` is
written to `net.json`, and the `bounds` report shown for it and every
`$ cutbounds ...` transcript are run through `cli.main` and compared with
the README byte for byte.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from cutbounds import cli
from cutbounds.bounds import bound_rows
from cutbounds.network import complete_combination_network, cut_and_message_families, min_cut

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, "expected one python block under ## Library"
    return blocks[0]


def test_library_example_prints_one_line_per_row(capsys):
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()

    net = complete_combination_network(3)
    cut_family, msg_family = cut_and_message_families(net, [min_cut(net, k) for k in (1, 2, 3)])
    capacities = {arc.label: arc.capacity for arc in net.arcs}
    rows = bound_rows(("csb", "gcsb3"), cut_family, msg_family, capacities)
    assert rows and len(lines) == len(rows)
    for line, row in zip(lines, rows):
        assert line.startswith(f"{row.provenance} ")


def fenced_blocks() -> list:
    """(language, body) of each fenced block of the README, in order."""
    blocks, current = [], None
    for line in README.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("```"):
            if current is None:
                current = line[3:].strip(), []
            else:
                blocks.append((current[0], "".join(current[1])))
                current = None
        elif current is not None:
            current[1].append(line)
    return blocks


def test_transcripts_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    blocks = fenced_blocks()
    json_blocks = [body for language, body in blocks if language == "json"]
    # the network document, then the report "for the document above"
    document, report = json_blocks[:2]
    assert document.startswith('{\n  "nodes"') and report.startswith("[\n")
    (tmp_path / "net.json").write_text(document, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    runs = [(["bounds", "net.json"], report)]
    for language, body in blocks:
        command, _, output = body.partition("\n")
        if language == "" and command.startswith("$ cutbounds "):
            runs.append((shlex.split(command)[2:], output))
    assert [argv[0] for argv, _ in runs] == ["bounds", "verify", "region", "region", "paper"]
    for argv, output in runs:
        assert cli.main(argv) == 0, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (output, ""), argv
