"""Byte-stability of every non-`report` subcommand against stored goldens.

`golden/cli_sha256.json` maps each member of a fixed `default_corpus()`
subset (the named instances plus every fifteenth member) to the sha256 of
the exit code, stdout and stderr of each command run through `cli.main`
with default options: `compute` (S, P, independence), `hilbert`,
`fvector`, `hvector`, `betti` and `verify`, then `deck` and
`reconstruct` for all five targets, each in both formats. The temporary
directory is replaced by a fixed token before hashing, so the digests
do not depend on where the test runs. `report` has its own goldens in
`test_report_golden.py`.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python -m tests.test_cli_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from hgpoly.cli import main
from hgpoly.formats import dump_hypergraph_json

from .families import default_corpus, named_instances

GOLDEN = Path(__file__).parent / "golden" / "cli_sha256.json"

FORMATS = ("text", "json")
INPUT_COMMANDS = {
    "compute-S": ["compute", "--poly", "S"],
    "compute-P": ["compute", "--poly", "P"],
    "compute-independence": ["compute", "--poly", "independence"],
    "hilbert": ["hilbert"],
    "fvector": ["fvector"],
    "hvector": ["hvector"],
    "betti": ["betti"],
    "verify": ["verify"],
}
TARGETS = ("S", "P", "fvector", "hilbert", "betti")


def members():
    named = {name for name, _ in named_instances()}
    return [(name, h) for k, (name, h) in enumerate(default_corpus()) if k % 15 == 0 or name in named]


def _digest(argv: list[str], workdir: Path) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\n{out.getvalue()}\0{err.getvalue()}".replace(str(workdir), "<tmp>")
    return hashlib.sha256(blob.encode()).hexdigest()


def cli_digests(workdir: Path) -> dict[str, dict[str, str]]:
    digests = {}
    for name, h in members():
        path = workdir / f"{name}.json"
        path.write_text(dump_hypergraph_json(h))
        got = {}
        for fmt in FORMATS:
            common = ["--format", fmt]
            for label, argv in INPUT_COMMANDS.items():
                got[f"{label}:{fmt}"] = _digest(argv + common + ["--input", str(path)], workdir)
            deck_dir = workdir / f"{name}.{fmt}.deck"
            got[f"deck:{fmt}"] = _digest(["deck", *common, "--input", str(path), "--out-dir", str(deck_dir)], workdir)
            for target in TARGETS:
                argv = ["reconstruct", *common, "--deck", str(deck_dir), "--target", target]
                got[f"reconstruct-{target}:{fmt}"] = _digest(argv, workdir)
        digests[name] = got
    return digests


def test_cli_matches_goldens(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = cli_digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = sorted(
        f"{name} {label}" for name, row in expected.items() for label, d in row.items() if got[name].get(label) != d
    )
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:10]}"
    assert all(sorted(got[name]) == sorted(expected[name]) for name in expected)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        digests = cli_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests for {len(digests)} members to {GOLDEN}")
