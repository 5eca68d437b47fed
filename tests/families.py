"""Deterministic hypergraph families for the tests and the goldens.

The default corpus is every hypergraph on up to four labeled vertices
(the complete antichain families), a fixed-stride sample of the n = 5
family, seeded random antichains on six to eight vertices, and a few
named instances that exercise specific behaviors (stars, cycles, the
wheel whose top Betti row has two nonzero entries, a disjoint union).
The construction is fully deterministic, so runs are reproducible and
golden outputs stay stable. Paths and cycles come from ``hgpoly.corpus``,
which keeps them for the benchmark's probe.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import combinations

from hgpoly.corpus import _labels, cycle_graph, path_graph
from hgpoly.hypergraph import Hypergraph

_SAMPLE_SEED = 20130319


def all_antichains(n: int) -> Iterator[tuple[int, ...]]:
    """All antichains of nonempty subsets of an n-set, as mask tuples in
    ascending mask order, enumerated by backtracking. Includes the empty
    antichain. Counts: 1, 2, 5, 19, 167, 7580 for n = 0..5."""
    masks = list(range(1, 1 << n))

    def extend(prefix: list[int], start: int) -> Iterator[tuple[int, ...]]:
        yield tuple(prefix)
        for k in range(start, len(masks)):
            cand = masks[k]
            if any(
                cand & ~chosen == 0 or chosen & ~cand == 0 for chosen in prefix
            ):
                continue
            prefix.append(cand)
            yield from extend(prefix, k + 1)
            prefix.pop()

    return extend([], 0)


def sampled_hypergraphs(n: int, stride: int) -> list[Hypergraph]:
    """Every stride-th member of the full n-vertex family (one hypergraph
    per antichain); stride 1 is the whole family."""
    labels = _labels(n)
    out = []
    for k, edges in enumerate(all_antichains(n)):
        if k % stride == 0:
            out.append(Hypergraph.from_masks(labels, edges))
    return out


def random_antichain(rng: random.Random, n: int, m_max: int) -> Hypergraph:
    """Greedy random antichain: shuffled nonempty subsets (biased toward
    small edges) accepted while pairwise incomparable, up to m_max."""
    labels = _labels(n)
    target = rng.randint(1, m_max)
    max_size = rng.choice((2, 2, 3, 3, 4))
    candidates = [
        sum(1 << v for v in combo)
        for size in range(1, min(max_size, n) + 1)
        for combo in combinations(range(n), size)
    ]
    rng.shuffle(candidates)
    chosen: list[int] = []
    for cand in candidates:
        if len(chosen) == target:
            break
        if any(cand & ~e == 0 or e & ~cand == 0 for e in chosen):
            continue
        chosen.append(cand)
    return Hypergraph.from_masks(labels, chosen)


# -- named instances ---------------------------------------------------------


def complete_graph(n: int) -> Hypergraph:
    return uniform_complete(n, 2)


def star(m: int) -> Hypergraph:
    """m edges through a common center, on m + 1 vertices; the center is
    the first vertex."""
    labels = _labels(m + 1)
    return Hypergraph.from_masks(labels, [1 | (1 << (k + 1)) for k in range(m)])


def wheel(rim: int) -> Hypergraph:
    """Cycle of the given length plus a hub joined to every rim vertex.
    For rim 5 the independence complex is a pentagon plus an isolated
    hub point, giving two nonzero entries in the top Betti row."""
    labels = _labels(rim + 1)
    edges = [(1 << (k + 1)) | (1 << ((k + 1) % rim + 1)) for k in range(rim)]
    edges += [1 | (1 << (k + 1)) for k in range(rim)]
    return Hypergraph.from_masks(labels, edges)


def uniform_complete(n: int, size: int) -> Hypergraph:
    """All size-element subsets of an n-set as edges."""
    labels = _labels(n)
    return Hypergraph.from_masks(
        labels, [sum(1 << v for v in combo) for combo in combinations(range(n), size)]
    )


def named_instances() -> list[tuple[str, Hypergraph]]:
    first = Hypergraph.from_masks(_labels(3), [0b011, 0b101, 0b110])
    pair = Hypergraph.from_masks(("a", "b", "c", "x", "y", "z"), [0b011, 0b101, 0b110, 0b011000, 0b101000, 0b110000])
    return [
        ("triangle", first),
        ("path5", path_graph(5)),
        ("path6", path_graph(6)),
        ("star5", star(5)),
        ("star7", star(7)),
        ("cycle5", cycle_graph(5)),
        ("cycle6", cycle_graph(6)),
        ("wheel5", wheel(5)),
        ("complete5", complete_graph(5)),
        ("two_triangles", pair),
        ("triples5", uniform_complete(5, 3)),
        ("quadruples5", uniform_complete(5, 4)),
        ("mixed_singleton", Hypergraph.from_masks(_labels(4), [0b0001, 0b0110, 0b1010])),
    ]


def default_corpus() -> list[tuple[str, Hypergraph]]:
    """The standard batch: complete families for n <= 4, a strided
    sample of n = 5, seeded random antichains for n = 6..8, and the
    named instances. Deterministic; currently a few hundred members."""
    out: list[tuple[str, Hypergraph]] = []
    for n in range(5):
        for k, h in enumerate(sampled_hypergraphs(n, 1)):
            out.append((f"n{n}_all_{k:03d}", h))
    for k, h in enumerate(sampled_hypergraphs(5, 200)):
        out.append((f"n5_sample_{k:03d}", h))
    rng = random.Random(_SAMPLE_SEED)
    for n in (6, 7, 8):
        m_max = 10 if n < 8 else 8
        for k in range(12):
            out.append((f"n{n}_rand_{k:02d}", random_antichain(rng, n, m_max)))
    for name, h in named_instances():
        out.append((name, h))
    return out
