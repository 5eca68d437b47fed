"""Seeded input generator for the benchmark workloads.

Every input is a pure function of (seed, workload, index) and is written
as a hypergraph JSON file in the program's input format. This module
imports nothing from ``hgpoly``: the program under test sees only the
files, and the generator cannot drift with the code it measures.

Each workload has a pass of size classes (kind, n, m), and input k has
the class at position k mod the pass length. Only the seeded edge choice
differs between inputs of one class, so runs with different seeds do
comparable work.
"""

from __future__ import annotations

import functools
import json
import random
import string
from itertools import combinations
from pathlib import Path

WORKLOADS = ("corpus", "homology", "sweep", "deck")

# Size classes of one pass, in order: (kind, n, m). "graph" draws m
# distinct 2-edges and "tri" m distinct 3-edges. "cycle" is an n-cycle on
# shuffled labels plus m - n random chords, and "tight" the 3-uniform
# tight cycle {v_k, v_k+1, v_k+2} plus m - n random triples: a fixed
# backbone keeps the homology work of one class within a few percent
# from seed to seed, where uniform draws vary by 20-100%. Every family
# is an antichain by construction.
HOMOLOGY_PASS = (
    ("cycle", 10, 12), ("cycle", 10, 13), ("cycle", 11, 15),
    ("tight", 9, 12), ("tight", 9, 14),
)
# m on both sides of n, so a "sweep the smaller side" choice sees both.
# Three of the five classes cost 1.1-1.2 s each and the other two lie
# below and above them, so the median of a run falls among 12 ops of
# similar cost, not among the 4 ops of one class.
SWEEP_PASS = (
    ("graph", 15, 12), ("tri", 15, 15), ("tri", 16, 13),
    ("graph", 16, 14), ("graph", 15, 16),
)
DECK_PASS = (("cycle", 9, 11), ("cycle", 9, 12), ("cycle", 10, 11), ("cycle", 10, 12))
CORPUS_PASS = 4  # corpus directories per pass

# A corpus directory is a seeded slice of the program's default batch:
# every hypergraph on n <= 3 vertices, 50 of the 167 on four, 12 of the
# 7580 on five, four seeded antichains on each of six to eight, and the
# named instances. At about 110 members an op takes under a second, so a
# run holds enough ops for a median and a tail.
_N4_SAMPLE = 50
_N5_SAMPLE = 12
_RANDOM_PER_N = 4


def labels(n: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[:n])  # every class has n <= 17


def _rng(seed: int, workload: str, index: int) -> random.Random:
    # str seeds hash through SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the platform.
    return random.Random(f"hgpoly-bench:{seed}:{workload}:{index}")


def _edges_json(n: int, masks) -> dict:
    names = labels(n)
    return {
        "vertices": list(names),
        "edges": [[names[v] for v in range(n) if mask >> v & 1] for mask in sorted(masks)],
    }


def dump(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def uniform(rng: random.Random, n: int, m: int, size: int) -> list[int]:
    """m distinct size-element edges on n vertices, drawn uniformly."""
    pool = [sum(1 << v for v in combo) for combo in combinations(range(n), size)]
    return rng.sample(pool, m)


def with_backbone(rng: random.Random, n: int, m: int, size: int) -> list[int]:
    """The cyclic size-window edges on shuffled labels plus m - n random
    size-edges (size 2 gives a cycle, size 3 a tight cycle)."""
    order = list(range(n))
    rng.shuffle(order)
    backbone = {sum(1 << order[(k + d) % n] for d in range(size)) for k in range(n)}
    rest = [e for e in (sum(1 << v for v in c) for c in combinations(range(n), size)) if e not in backbone]
    return sorted(backbone) + rng.sample(rest, m - n)


def member(workload: str, seed: int, index: int) -> tuple[int, list[int]]:
    """(n, edge masks) of one single-file input of a workload."""
    table = {"homology": HOMOLOGY_PASS, "sweep": SWEEP_PASS, "deck": DECK_PASS}[workload]
    kind, n, m = table[index % len(table)]
    rng = _rng(seed, workload, index)
    if kind in ("cycle", "tight"):
        return n, with_backbone(rng, n, m, 2 if kind == "cycle" else 3)
    return n, uniform(rng, n, m, 2 if kind == "graph" else 3)


# -- the corpus directory ------------------------------------------------------


@functools.cache
def all_antichains(n: int) -> tuple[tuple[int, ...], ...]:
    """All antichains of nonempty subsets of an n-set, in ascending mask
    order (the empty antichain first)."""
    masks = list(range(1, 1 << n))

    def extend(prefix: list[int], start: int):
        yield tuple(prefix)
        for k in range(start, len(masks)):
            cand = masks[k]
            if any(cand & ~c == 0 or c & ~cand == 0 for c in prefix):
                continue
            prefix.append(cand)
            yield from extend(prefix, k + 1)
            prefix.pop()

    return tuple(extend([], 0))


def random_antichain(rng: random.Random, n: int, m_max: int) -> list[int]:
    target = rng.randint(1, m_max)
    max_size = rng.choice((2, 2, 3, 3, 4))
    cands = [
        sum(1 << v for v in combo)
        for size in range(1, min(max_size, n) + 1)
        for combo in combinations(range(n), size)
    ]
    rng.shuffle(cands)
    chosen: list[int] = []
    for cand in cands:
        if len(chosen) == target:
            break
        if not any(cand & ~e == 0 or e & ~cand == 0 for e in chosen):
            chosen.append(cand)
    return chosen


def _pairs(vertices) -> list[int]:
    return [(1 << a) | (1 << b) for a, b in vertices]


def named_instances() -> list[tuple[str, int, list[int]]]:
    path = lambda n: _pairs((k, k + 1) for k in range(n - 1))  # noqa: E731
    cycle = lambda n: _pairs((k, (k + 1) % n) for k in range(n))  # noqa: E731
    star = lambda m: [1 | (1 << (k + 1)) for k in range(m)]  # noqa: E731
    wheel5 = _pairs((k + 1, (k + 1) % 5 + 1) for k in range(5)) + star(5)
    triangle = [0b011, 0b101, 0b110]
    two_triangles = triangle + [t << 3 for t in triangle]
    k_sets = lambda n, s: [sum(1 << v for v in c) for c in combinations(range(n), s)]  # noqa: E731
    return [
        ("triangle", 3, triangle),
        ("path5", 5, path(5)),
        ("path6", 6, path(6)),
        ("star5", 6, star(5)),
        ("star7", 8, star(7)),
        ("cycle5", 5, cycle(5)),
        ("cycle6", 6, cycle(6)),
        ("wheel5", 6, wheel5),
        ("complete5", 5, k_sets(5, 2)),
        ("two_triangles", 6, two_triangles),
        ("triples5", 5, k_sets(5, 3)),
        ("quadruples5", 5, k_sets(5, 4)),
        ("mixed_singleton", 4, [0b0001, 0b0110, 0b1010]),
    ]


def corpus_members(seed: int, index: int) -> list[tuple[str, int, list[int]]]:
    """(file stem, n, edge masks) of every member of one corpus directory."""
    rng = _rng(seed, "corpus", index)
    out = []
    for n in range(4):
        out += [(f"n{n}_all_{k:03d}", n, list(e)) for k, e in enumerate(all_antichains(n))]
    for n, size in ((4, _N4_SAMPLE), (5, _N5_SAMPLE)):
        family = all_antichains(n)
        picks = sorted(rng.sample(range(len(family)), size))
        out += [(f"n{n}_sample_{k:04d}", n, list(family[k])) for k in picks]
    for n in (6, 7, 8):
        m_max = 10 if n < 8 else 8
        out += [(f"n{n}_rand_{k:02d}", n, random_antichain(rng, n, m_max)) for k in range(_RANDOM_PER_N)]
    return out + named_instances()


# -- writing -------------------------------------------------------------------


def pass_length(workload: str) -> int:
    return {
        "corpus": CORPUS_PASS,
        "homology": len(HOMOLOGY_PASS),
        "sweep": len(SWEEP_PASS),
        "deck": len(DECK_PASS),
    }[workload]


def class_label(workload: str, position: int) -> str:
    """Name of the size class at a pass position, such as "cycle-10-12"."""
    if workload == "corpus":
        return f"dir{position}"
    table = {"homology": HOMOLOGY_PASS, "sweep": SWEEP_PASS, "deck": DECK_PASS}[workload]
    return "-".join(map(str, table[position]))


def write_inputs(workload: str, seed: int, root: Path, count: int) -> list[Path]:
    """Write inputs 0..count-1 of a workload under root and return them in
    order: a directory per corpus op, a file per op otherwise. Input k
    has size class k mod pass_length(workload)."""
    root.mkdir(parents=True, exist_ok=True)
    inputs = []
    for index in range(count):
        if workload == "corpus":
            target = root / f"corpus_{index:03d}"
            target.mkdir(exist_ok=True)
            for stem, n, masks in corpus_members(seed, index):
                (target / f"{stem}.json").write_text(dump(_edges_json(n, masks)))
        else:
            target = root / f"{workload}_{index:03d}.json"
            n, masks = member(workload, seed, index)
            target.write_text(dump(_edges_json(n, masks)))
        inputs.append(target)
    return inputs


def parse(path: Path) -> tuple[int, list[int]]:
    """(n, edge masks) back from a file this module wrote."""
    obj = json.loads(path.read_text())
    index = {lbl: v for v, lbl in enumerate(obj["vertices"])}
    return len(index), [sum(1 << index[x] for x in e) for e in obj["edges"]]
