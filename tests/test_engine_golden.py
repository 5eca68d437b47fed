"""Byte-stability of `report` and identity 4.2 where the sweeps change.

The CLI and report goldens stop at n <= 8 and m <= 10. This suite pins
the sizes where the subset sweeps and the deck-sum identity do their
work: seeded graphs with (n, m) = (15, 12) and (15, 16), seeded
3-uniform hypergraphs with (15, 15) and (16, 13), seeded graphs on 13
vertices with m = 12, 13 and 14 (on both sides of the 2^12-bit sweep
block, for the parent and for its cards), K7 (m = 21 > n) and a seeded
graph with (n, m) = (20, 18).

Each input is committed as `golden/engine/<name>.json`. Every seeded
member draws its m distinct k-edges with
`random.Random(seed).sample(list(itertools.combinations(range(n), k)), m)`
over the labels a, b, c, ...; the seeds are in MEMBERS. `golden/engine_sha256.json`
maps each member to the sha256 of the exit code, stdout and stderr of
`report` and of `verify --identity 4.2` in both formats, run through
`cli.main` with default options.

Regenerate the inputs and the digests (only when an output change is
intended) with

    PYTHONPATH=src python -m tests.test_engine_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import string
from itertools import combinations
from pathlib import Path

from hgpoly.cli import main

GOLDEN = Path(__file__).parent / "golden" / "engine_sha256.json"
INPUTS = Path(__file__).parent / "golden" / "engine"

# name -> (n, edge size, m, seed); a seed of None takes every k-subset
MEMBERS = {
    "graph-15-12": (15, 2, 12, 1512),
    "graph-15-16": (15, 2, 16, 1516),
    "tri-15-15": (15, 3, 15, 1515),
    "tri-16-13": (16, 3, 13, 1613),
    "graph-13-12": (13, 2, 12, 1312),
    "graph-13-13": (13, 2, 13, 1313),
    "graph-13-14": (13, 2, 14, 1314),
    "K7": (7, 2, 21, None),
    "graph-20-18": (20, 2, 18, 2018),
}
COMMANDS = {
    "report": ["report"],
    "verify-4.2:text": ["verify", "--identity", "4.2"],
    "verify-4.2:json": ["verify", "--identity", "4.2", "--format", "json"],
}


def input_document(n: int, k: int, m: int, seed: int | None) -> str:
    subsets = list(combinations(range(n), k))
    edges = subsets if seed is None else random.Random(seed).sample(subsets, m)
    assert len(edges) == m
    labels = string.ascii_lowercase[:n]
    doc = {"vertices": list(labels), "edges": [[labels[v] for v in e] for e in edges]}
    return json.dumps(doc, indent=2) + "\n"


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\n{out.getvalue()}\0{err.getvalue()}".replace(str(INPUTS), "<inputs>")
    return hashlib.sha256(blob.encode()).hexdigest()


def engine_digests() -> dict[str, dict[str, str]]:
    return {
        name: {label: _digest(argv + ["--input", str(INPUTS / f"{name}.json")]) for label, argv in COMMANDS.items()}
        for name in MEMBERS
    }


def test_engine_outputs_match_goldens():
    expected = json.loads(GOLDEN.read_text())
    assert sorted(expected) == sorted(MEMBERS)
    got = engine_digests()
    changed = sorted(
        f"{name} {label}" for name, row in expected.items() for label, d in row.items() if got[name].get(label) != d
    )
    assert not changed, f"{len(changed)} outputs changed: {changed}"
    assert all(sorted(got[name]) == sorted(expected[name]) for name in expected)


if __name__ == "__main__":
    INPUTS.mkdir(parents=True, exist_ok=True)
    for name, spec in MEMBERS.items():
        (INPUTS / f"{name}.json").write_text(input_document(*spec))
    digests = engine_digests()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(MEMBERS)} inputs and {sum(map(len, digests.values()))} digests to {GOLDEN.parent}")
