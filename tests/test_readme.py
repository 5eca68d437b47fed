"""The README's Python examples run as written: its ```python blocks are
executed in order in one namespace, so a name removed from the library
but still shown in the docs fails here. Its "Limits" table of reads is
the read tables ``cli._VIEWS`` and ``verify.IDENTITIES``, row for row,
and its grid of the shared options each subcommand takes is
``cli._COMMANDS``, cell for cell."""

from __future__ import annotations

import re
from pathlib import Path

from hgpoly import cli
from hgpoly.verify import IDENTITIES

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, flags=re.M | re.S))
    assert blocks
    namespace: dict = {}
    for block in blocks:
        # pad with the lines above the block, so a traceback names the README line
        source = "\n" * text.count("\n", 0, block.start(1)) + block[1]
        exec(compile(source, str(README), "exec"), namespace)


def _read_names(cell: str) -> tuple[str, ...]:
    """The reads a cell names before any ";" or " (": "none", or "S, then the table" and the like."""
    named = re.split(r";| \(", cell)[0]
    return () if named == "none" else tuple("betti" if r == "the table" else r for r in named.split(", then "))


def test_readme_limits_table_is_the_read_tables():
    section = README.read_text().split("### Limits\n", 1)[1].split("\n#", 1)[0]
    views, identities = {}, {}
    for names, reads in re.findall(r"^\| (.+?) \| (.+?) \|$", section, flags=re.M)[1:]:  # below the header
        if names.startswith("identit"):  # "identity 4.3", "identities 2.1, 2.3, 3.2"
            identities.update(dict.fromkeys(re.findall(r"\d\.\d", names), _read_names(reads)))
        else:  # a view is the last word of each quoted command: `compute --poly S`, `--poly independence`, `betti`
            views.update(dict.fromkeys((c.split()[-1] for c in re.findall(r"`([^`]+)`", names)), _read_names(reads)))
    assert views == {view: reads for view, (reads, _) in cli._VIEWS.items()}
    assert identities == {identity: reads for identity, (reads, _) in IDENTITIES.items()}


def test_readme_options_grid_is_the_command_table():
    section = README.read_text().split("Each subcommand takes only the shared options it reads", 1)[1]
    rows = [line.strip().strip("|").split("|") for line in section.split("\n\n", 2)[1].splitlines()]
    flags = [re.fullmatch(r" `(--[a-z-]+)` ", cell)[1] for cell in rows[0][1:]]
    takes = {}
    for names, *cells in rows[2:]:  # below the header and its rule
        marked = {flag for flag, cell in zip(flags, cells, strict=True) if cell.strip() == "✓"}
        takes.update(dict.fromkeys(re.findall(r"`(\w+)`", names), marked))
    assert flags == [flag for flag, _ in (cli._FORMAT, cli._TERMS, cli._N_MAX, cli._HOMOLOGY_N_MAX)]
    assert takes == {name: {flag for flag, _ in options} & set(flags) for name, (_, options, _) in cli._COMMANDS.items()}
