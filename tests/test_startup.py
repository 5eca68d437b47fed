"""Modules that importing the CLI must not load.

The imports run in a fresh `python -S`, so `site` preloads nothing and
every module counted was loaded by hgpoly itself. `pathlib` (with
`urllib.parse`, `ipaddress` and `fnmatch`), `dataclasses` (with
`inspect`), `typing` and the process-pool modules each cost start-up
time in every CLI process.

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


def _loaded_after(module: str) -> list[str]:
    code = f"import sys\nimport {module}\nprint(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    src = os.path.dirname(os.path.dirname(hgpoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_formats_import_loads_no_heavy_module():
    assert _loaded_after("hgpoly.formats") == []


def test_cli_import_loads_no_heavy_module_but_argparse_fnmatch():
    assert set(_loaded_after("hgpoly.cli")) <= {"fnmatch"}
