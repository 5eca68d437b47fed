"""Exhaustive subset enumeration of the two subhypergraph polynomials.

The vertex-subset polynomial counts, for every vertex subset W, the
number of edges contained in W; the edge-subset polynomial counts, for
every edge subset L, the number of vertices covered by the union of L.
Both sweeps walk subsets in Gray-code order, so each step toggles a
single vertex (or edge) and the containment/coverage counters update in
amortized constant time instead of being recomputed per subset.

The subset range can also be split into contiguous blocks that are
processed independently (optionally on a process pool) and merged in
block order; the merged tallies are identical to a sequential sweep.
"""

from __future__ import annotations

from .bipoly import BiPoly, UniPoly
from .errors import LimitExceeded
from .hypergraph import Hypergraph, mask_indices
from .parallel import MAX_WORKERS, map_ordered

DEFAULT_LIMIT = 24

# Below this many subsets the pool overhead dwarfs the work.
_MIN_PARALLEL_RANGE = 1 << 12


def _check_limit(kind: str, value: int, limit: int | None) -> int:
    lim = DEFAULT_LIMIT if limit is None else limit
    if value > lim:
        raise LimitExceeded(
            f"{kind}={value} exceeds the enumeration limit {lim}; "
            f"raise the limit explicitly to run anyway"
        )
    return lim


def _blocks(size: int, parallel: bool) -> list[tuple[int, int]]:
    if not parallel or size < _MIN_PARALLEL_RANGE or MAX_WORKERS < 2:
        return [(0, size)]
    nblocks = MAX_WORKERS
    step = -(-size // nblocks)
    return [(a, min(a + step, size)) for a in range(0, size, step)]


def _gray(k: int) -> int:
    return k ^ (k >> 1)


def _vertex_block(task: tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int, int]) -> dict[tuple[int, int], int]:
    """Tally (|W|, #edges inside W) over subsets with Gray index in
    [start, stop)."""
    edges, incident, start, stop = task
    counts: dict[tuple[int, int], int] = {}
    if start >= stop:
        return counts
    w = _gray(start)
    missing = [(e & ~w).bit_count() for e in edges]
    inside = sum(1 for x in missing if x == 0)
    size = w.bit_count()
    counts[(size, inside)] = 1
    for k in range(start + 1, stop):
        bit = k & -k
        v = bit.bit_length() - 1
        gbit = 1 << v
        if w & gbit:
            w ^= gbit
            size -= 1
            for e_idx in incident[v]:
                if missing[e_idx] == 0:
                    inside -= 1
                missing[e_idx] += 1
        else:
            w ^= gbit
            size += 1
            for e_idx in incident[v]:
                missing[e_idx] -= 1
                if missing[e_idx] == 0:
                    inside += 1
        key = (size, inside)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _edge_block(task: tuple[tuple[int, ...], int, int]) -> dict[tuple[int, int], int]:
    """Tally (|union of L|, |L|) over edge subsets with Gray index in
    [start, stop)."""
    edges, start, stop = task
    counts: dict[tuple[int, int], int] = {}
    if start >= stop:
        return counts
    sel = _gray(start)
    nverts = max((e.bit_length() for e in edges), default=0)
    cover = [0] * nverts
    covered = 0
    picked = sel.bit_count()
    for e_idx in mask_indices(sel):
        for v in mask_indices(edges[e_idx]):
            if cover[v] == 0:
                covered += 1
            cover[v] += 1
    counts[(covered, picked)] = 1
    for k in range(start + 1, stop):
        bit = k & -k
        e_idx = bit.bit_length() - 1
        gbit = 1 << e_idx
        if sel & gbit:
            sel ^= gbit
            picked -= 1
            for v in mask_indices(edges[e_idx]):
                cover[v] -= 1
                if cover[v] == 0:
                    covered -= 1
        else:
            sel ^= gbit
            picked += 1
            for v in mask_indices(edges[e_idx]):
                if cover[v] == 0:
                    covered += 1
                cover[v] += 1
        key = (covered, picked)
        counts[key] = counts.get(key, 0) + 1
    return counts


def vertex_induced_poly(h: Hypergraph, limit: int | None = None, parallel: bool = False) -> BiPoly:
    """Polynomial whose (i, j) coefficient counts the i-vertex subsets
    inducing exactly j edges. The constant term 1 is the empty subset.
    """
    _check_limit("n", h.n, limit)
    tasks = [(h.edges, h.incident, a, b) for a, b in _blocks(1 << h.n, parallel)]
    merged: dict[tuple[int, int], int] = {}
    for counts in map_ordered(_vertex_block, tasks, parallel):
        for key, c in counts.items():
            merged[key] = merged.get(key, 0) + c
    return BiPoly(merged)


def edge_induced_poly(h: Hypergraph, limit: int | None = None, parallel: bool = False) -> BiPoly:
    """Polynomial whose (i, j) coefficient counts the j-element edge
    subsets whose union covers exactly i vertices. The constant term 1
    is the empty edge subset.
    """
    _check_limit("m", h.m, limit)
    tasks = [(h.edges, a, b) for a, b in _blocks(1 << h.m, parallel)]
    merged: dict[tuple[int, int], int] = {}
    for counts in map_ordered(_edge_block, tasks, parallel):
        for key, c in counts.items():
            merged[key] = merged.get(key, 0) + c
    return BiPoly(merged)


def independence_poly(h: Hypergraph, limit: int | None = None, parallel: bool = False) -> UniPoly:
    """Generating polynomial of independent vertex subsets by size: the
    vertex polynomial at y = 0."""
    return vertex_induced_poly(h, limit, parallel).eval_y(0)
