"""Modules that importing and running the CLI must not load.

The imports run in a fresh `python -S`, so `site` preloads nothing and
every module counted was loaded by hgpoly itself. `pathlib` (with
`urllib.parse`, `ipaddress` and `fnmatch`), `dataclasses` (with
`inspect`), `typing` and the process-pool modules each cost start-up
time in every CLI process. A directory `report` shares its members
among forked workers through `os` alone, so it loads none of them either.

The CLI reads a well-formed argv from its option table without
argparse, and builds the argparse parser only for `--help` and usage
errors. So a command that runs loads neither argparse nor what argparse
brings: `gettext` and `locale` for its messages, and `shutil`, with
`fnmatch`, for the terminal width of its help.
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


# argparse and the modules it brings
ARGPARSE = ("argparse", "gettext", "locale", "shutil", "fnmatch")


def _loaded_after(module: str, then: str = "", watched: tuple[str, ...] = HEAVY) -> list[str]:
    code = f"import sys\nimport {module}\n{then}\nprint(' '.join(m for m in {watched!r} if m in sys.modules))"
    src = os.path.dirname(os.path.dirname(hgpoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_formats_import_loads_no_heavy_module():
    assert _loaded_after("hgpoly.formats") == []


def test_cli_import_loads_no_heavy_module():
    assert _loaded_after("hgpoly.cli") == []


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
    assert _loaded_after("hgpoly.cli", run) == []


def test_commands_that_run_load_no_argparse(tmp_path):
    path = tmp_path / "c5.json"
    path.write_text(dump_hypergraph_json(cycle_graph(5)))
    cards = str(tmp_path / "cards")
    argvs = [
        ["report", "--input", str(path)],
        ["deck", "--input", str(path), "--out-dir", cards, "--format", "json"],
        ["reconstruct", "--deck", cards, "--target", "betti", "--parallel", "--format", "json"],
        ["compute", "--poly", "S", "--input", str(path)],
        ["verify", "--input", str(path)],
    ]
    run = (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert all(hgpoly.cli.main(argv) == 0 for argv in {argvs!r})"
    )
    assert _loaded_after("hgpoly.cli", run, ARGPARSE) == []
