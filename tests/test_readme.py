"""The README's Python examples run as written: its ```python blocks are
executed in order in one namespace, so a name removed from the library
but still shown in the docs fails here."""

from __future__ import annotations

import re
from pathlib import Path

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
