"""Paths and cycles on labeled vertices, for the benchmark's probe
(``perfbench/probe.py``); the program never imports this module. The
test families and the default corpus are in ``tests/families.py``."""

from __future__ import annotations

import string

from .hypergraph import Hypergraph


def _labels(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    return tuple(f"v{k}" for k in range(n))


def path_graph(n: int) -> Hypergraph:
    labels = _labels(n)
    return Hypergraph.from_masks(labels, [(1 << k) | (1 << (k + 1)) for k in range(n - 1)])


def cycle_graph(n: int) -> Hypergraph:
    labels = _labels(n)
    edges = [(1 << k) | (1 << ((k + 1) % n)) for k in range(n)]
    return Hypergraph.from_masks(labels, edges)
