"""Byte-stability of `hgpoly report` against stored goldens.

`golden/report_sha256.json` holds the sha256 of the `report` stdout for
every `default_corpus()` member, run through `cli.main` with default
options. Any change to what `report` prints, however small, fails here.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python -m tests.test_report_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from hgpoly.cli import main
from hgpoly.corpus import complete_graph, default_corpus
from hgpoly.formats import dump_hypergraph_json

GOLDEN = Path(__file__).parent / "golden" / "report_sha256.json"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def report_digests(workdir: Path) -> dict[str, str]:
    digests = {}
    for name, h in default_corpus():
        path = workdir / f"{name}.json"
        path.write_text(dump_hypergraph_json(h))
        code, out, _ = _run(["report", "--input", str(path)])
        assert code == 0, name
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
    return digests


def test_report_matches_goldens(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = report_digests(tmp_path)
    assert len(got) == len(expected) == 281
    changed = sorted(name for name in expected if got.get(name) != expected[name])
    assert not changed, f"report output changed for {changed[:10]}"


@pytest.mark.parametrize(
    "n_max, message",
    [
        # K5 has n=5 and m=10: with both above the limit, n is named
        ("4", "n=5 exceeds the enumeration limit 4"),
        ("6", "m=10 exceeds the enumeration limit 6"),
    ],
)
def test_over_limit_exit_and_message(tmp_path, n_max, message):
    path = tmp_path / "k5.json"
    path.write_text(dump_hypergraph_json(complete_graph(5)))
    code, out, err = _run(["report", "--n-max", n_max, "--input", str(path)])
    assert (code, out) == (3, "")
    assert err == f"error: {message}; raise the limit explicitly to run anyway\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        digests = report_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
