"""Byte-stability of the engine's output where the sweeps and tables change.

The CLI and report goldens stop at n <= 8 and m <= 10. This suite pins
the sizes where the subset sweeps, the Betti tables and the deck do
their work, each on inputs committed as `golden/engine/<name>.json`:

- `report` and `verify --identity 4.2` (both formats) on seeded graphs
  with (n, m) = (15, 12), (15, 16), (12, 14), (14, 16) and (20, 18), on
  13 vertices with m = 12, 13 and 14 (within the 2^14-bit sweep block,
  for the parent and for its cards, which the inputs with n or m of 15
  and more cross), on seeded 3-uniform
  hypergraphs with (15, 15) and (16, 13), and on K7 (m = 21 > n);
- `betti --format json` above the default homology limit: at
  `--homology-n-max 16` on the two 3-uniform inputs and at 24 on the
  graphs with (20, 18) and (24, 20);
- `fvector` and `hvector` on the graph with (24, 20), a sweep of 2^24
  vertex subsets in 2^10 blocks;
- `report` (refused for m, exit 3) and `betti --format json` on K8 and
  on the complete 3-uniform hypergraph on 9 vertices;
- `deck` of a seeded graph with (n, m) = (13, 16), then all five
  `reconstruct --format json` targets from those cards, with the card
  directory replaced by a fixed token before hashing;
- `report` on a directory holding three of the inputs, on one core and
  on two (`parallel._usable_cores` patched), which must print the same bytes.

Every seeded member draws its m distinct k-edges with
`random.Random(seed).sample(list(itertools.combinations(range(n), k)), m)`
over the labels a, b, c, ...; the seeds are in MEMBERS. `golden/engine_sha256.json`
maps each member to the sha256 of the exit code, stdout and stderr of
each of its commands, run through `cli.main`. The suite needs no pytest:
`test_engine_outputs_match_goldens()` runs as a plain call.

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
import shutil
import string
import tempfile
from itertools import combinations
from pathlib import Path

from hgpoly import parallel
from hgpoly.cli import main

GOLDEN = Path(__file__).parent / "golden" / "engine_sha256.json"
INPUTS = Path(__file__).parent / "golden" / "engine"

ENGINE = ("report", "verify-4.2:text", "verify-4.2:json")
TARGETS = ("S", "P", "fvector", "hilbert", "betti")
DECK = ("deck",) + tuple(f"reconstruct-{target}:json" for target in TARGETS)
# name -> (n, edge size, m, seed, command labels); a seed of None takes every k-subset
MEMBERS = {
    "graph-15-12": (15, 2, 12, 1512, ENGINE),
    "graph-15-16": (15, 2, 16, 1516, ENGINE),
    "tri-15-15": (15, 3, 15, 1515, ENGINE + ("betti-16:json",)),
    "tri-16-13": (16, 3, 13, 1613, ENGINE + ("betti-16:json",)),
    "graph-13-12": (13, 2, 12, 1312, ENGINE),
    "graph-13-13": (13, 2, 13, 1313, ENGINE),
    "graph-13-14": (13, 2, 14, 1314, ENGINE),
    "K7": (7, 2, 21, None, ENGINE),
    "graph-20-18": (20, 2, 18, 2018, ENGINE + ("betti-24:json",)),
    "graph-12-14": (12, 2, 14, 1214, ENGINE),
    "graph-14-16": (14, 2, 16, 1416, ENGINE),
    "K8": (8, 2, 28, None, ("report", "betti:json")),
    "tri-K9": (9, 3, 84, None, ("report", "betti:json")),
    "graph-13-16": (13, 2, 16, 1316, DECK),
    "graph-24-20": (24, 2, 20, 2420, ("betti-24:json", "fvector", "hvector")),
}
COMMANDS = {
    "report": ["report"],
    "verify-4.2:text": ["verify", "--identity", "4.2"],
    "verify-4.2:json": ["verify", "--identity", "4.2", "--format", "json"],
    "betti:json": ["betti", "--format", "json"],
    "betti-16:json": ["betti", "--format", "json", "--homology-n-max", "16"],
    "betti-24:json": ["betti", "--format", "json", "--homology-n-max", "24"],
    "fvector": ["fvector"],
    "hvector": ["hvector"],
}
# the directory member: its inputs, and the core counts it runs on
DIRECTORY = ("graph-12-14", "graph-13-12", "K7")
CORES = (1, 2)


def input_document(n: int, k: int, m: int, seed: int | None) -> str:
    subsets = list(combinations(range(n), k))
    edges = subsets if seed is None else random.Random(seed).sample(subsets, m)
    assert len(edges) == m
    labels = string.ascii_lowercase[:n]
    doc = {"vertices": list(labels), "edges": [[labels[v] for v in e] for e in edges]}
    return json.dumps(doc, indent=2) + "\n"


def _digest(argv: list[str], workdir: str = "") -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\n{out.getvalue()}\0{err.getvalue()}".replace(str(INPUTS), "<inputs>")
    if workdir:
        blob = blob.replace(workdir, "<tmp>")
    return hashlib.sha256(blob.encode()).hexdigest()


def _member_digests(name: str, labels: tuple[str, ...]) -> dict[str, str]:
    path = str(INPUTS / f"{name}.json")
    if labels != DECK:
        return {label: _digest(COMMANDS[label] + ["--input", path]) for label in labels}
    with tempfile.TemporaryDirectory() as cards:
        row = {"deck": _digest(["deck", "--input", path, "--out-dir", cards], cards)}
        for target in TARGETS:
            argv = ["reconstruct", "--deck", cards, "--target", target, "--format", "json"]
            row[f"reconstruct-{target}:json"] = _digest(argv, cards)
    return row


def _directory_digests() -> dict[str, str]:
    row = {}
    usable_cores = parallel._usable_cores
    with tempfile.TemporaryDirectory() as workdir:
        for name in DIRECTORY:
            shutil.copy(INPUTS / f"{name}.json", workdir)
        try:
            for cores in CORES:
                parallel._usable_cores = lambda: cores
                row[f"report:cores={cores}"] = _digest(["report", "--input", workdir], workdir)
        finally:
            parallel._usable_cores = usable_cores
    return row


def engine_digests() -> dict[str, dict[str, str]]:
    digests = {name: _member_digests(name, spec[4]) for name, spec in MEMBERS.items()}
    digests["directory"] = _directory_digests()
    return digests


def test_engine_outputs_match_goldens():
    expected = json.loads(GOLDEN.read_text())
    got = engine_digests()
    assert sorted(expected) == sorted(got)
    assert len(set(got["directory"].values())) == 1, "the directory report differs between core counts"
    changed = sorted(
        f"{name} {label}" for name, row in expected.items() for label, d in row.items() if got[name].get(label) != d
    )
    assert not changed, f"{len(changed)} outputs changed: {changed}"
    assert all(sorted(got[name]) == sorted(expected[name]) for name in expected)


if __name__ == "__main__":
    INPUTS.mkdir(parents=True, exist_ok=True)
    for name, spec in MEMBERS.items():
        (INPUTS / f"{name}.json").write_text(input_document(*spec[:4]))
    digests = engine_digests()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(MEMBERS)} inputs and {sum(map(len, digests.values()))} digests to {GOLDEN.parent}")
