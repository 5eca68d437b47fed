"""Modules that importing the CLI must not load.

The imports run in a fresh `python -S`, so `site` preloads nothing and
every module counted was loaded by hgpoly itself. `pathlib` (with
`urllib.parse`, `ipaddress` and `fnmatch`), `dataclasses` (with
`inspect`), `typing` and the process-pool modules each cost start-up
time in every CLI process. A directory `report` shares its members
among forked workers through `os` alone, so it loads none of them either.

`fnmatch` is checked on `hgpoly.formats`, the package with every path
and directory listing, but not on `hgpoly.cli`: argparse imports
`shutil`, and with it `fnmatch`, to read the terminal width as soon as
a parser gets its help option, and the CLI builds its parser on import.
"""

from __future__ import annotations

import os
import subprocess
import sys

import hgpoly
from hgpoly.corpus import cycle_graph
from hgpoly.formats import dump_hypergraph_json

HEAVY = (
    "pathlib",
    "urllib.parse",
    "ipaddress",
    "fnmatch",
    "dataclasses",
    "typing",
    "inspect",
    "concurrent.futures",
    "multiprocessing",
)


def _loaded_after(module: str, then: str = "") -> list[str]:
    code = f"import sys\nimport {module}\n{then}\nprint(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    src = os.path.dirname(os.path.dirname(hgpoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_formats_import_loads_no_heavy_module():
    assert _loaded_after("hgpoly.formats") == []


def test_cli_import_loads_no_heavy_module_but_argparse_fnmatch():
    assert set(_loaded_after("hgpoly.cli")) <= {"fnmatch"}


def test_directory_report_split_loads_no_heavy_module(tmp_path):
    # two workers share the report through os alone: no process-pool module
    for k in range(3):
        (tmp_path / f"c{k}.json").write_text(dump_hypergraph_json(cycle_graph(5)))
    run = (
        "import contextlib, io\n"
        "hgpoly.cli._usable_cores = lambda: 2\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert hgpoly.cli.main(['report', '--input', {str(tmp_path)!r}]) == 0"
    )
    assert set(_loaded_after("hgpoly.cli", run)) <= {"fnmatch"}
