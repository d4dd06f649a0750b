"""The README's library example runs as documented.

The ```python block under `## Library` is executed as written, so a change
to the library API that the example relies on fails here rather than in a
reader's session.
"""

from __future__ import annotations

import re
from pathlib import Path

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
