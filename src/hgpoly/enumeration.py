"""Exhaustive subset enumeration of the two subhypergraph polynomials.

The vertex-subset polynomial counts, for every vertex subset W, the
number of edges contained in W; the edge-subset polynomial counts, for
every edge subset L, the number of vertices covered by the union of L.

Both sweeps are bit-sliced and take a family of hypergraphs, returning
the sum of their polynomials; one hypergraph is the family of one. A
member sweeps its 2^k subsets (k = n or m) in its own blocks: one block
of 2^k bits when k <= 12, else one block of 2^12 bits per value of its
index bits above the low 12. One Python int holds one bit per subset
of a block (bit l stands for the subset whose low index bits are l), so
a 3-vertex card and a 24-vertex parent run the same loop. A per-subset
predicate such as "edge e lies inside W" then becomes a few AND/OR
operations on these ints, and the per-subset counts are summed bitwise
into binary digit planes by ripple-carry addition. Splitting the planes
gives, for each count value, the int of the subsets that have it, and
the tally is the popcount of its AND with the int of the subsets of
each size. The loop over blocks runs in Python; each int holds at most
2^12 bits whatever n or m.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache, reduce
from operator import and_, or_

from .bipoly import BiPoly
from .errors import check_limit
from .hypergraph import Hypergraph, mask_indices

DEFAULT_LIMIT = 24

# Index bits held in one int: a block is 2^12 subsets, a 4096-bit int.
_LOW_BITS = 12


def check_sweep_limits(h: Hypergraph, limit: int = DEFAULT_LIMIT) -> None:
    """Raise, without sweeping, the LimitExceeded that sweeping h would: n first, then m."""
    check_limit("n", h.n, "enumeration", limit)
    check_limit("m", h.m, "enumeration", limit)


@cache
def _coordinates(k: int) -> tuple[int, tuple[int, ...]]:
    """The all-ones int over 2^k subset bits, and for each v < k the int
    of the indices l that have bit v (built by doubling its period)."""
    size = 1 << k
    coords = []
    for v in range(k):
        x = ((1 << (1 << v)) - 1) << (1 << v)
        period = 2 << v
        while period < size:
            x |= x << period
            period <<= 1
        coords.append(x)
    return (1 << size) - 1, tuple(coords)


def _levels(sets, full: int) -> dict[int, int]:
    """For each count c, the int of the bits held by exactly c of the
    given sets; empty levels are left out."""
    planes: list[int] = []
    for carry in sets:
        d = 0
        while carry:
            if d == len(planes):
                planes.append(carry)
                break
            planes[d], carry = planes[d] ^ carry, planes[d] & carry
            d += 1
    levels = {0: full}
    for d, plane in enumerate(planes):
        split: dict[int, int] = {}
        for c, bits in levels.items():
            if lo := bits & ~plane:
                split[c] = lo
            if hi := bits & plane:
                split[c + (1 << d)] = hi
        levels = split
    return levels


@cache
def _sizes(k: int) -> tuple[tuple[int, int], ...]:
    """For each size i, the int of the bits of a 2^k-bit block whose
    index has i bits set."""
    ones, coords = _coordinates(k)
    return tuple(_levels(coords, ones).items())


def _tally(counts: dict[tuple[int, int], int], xs, dx: int, ys, dy: int) -> None:
    """Add |a & b| to the (i + dx, j + dy) coefficient for each (i, a)
    in xs and (j, b) in ys."""
    for i, a in xs:
        for j, b in ys:
            if c := (a & b).bit_count():
                key = (i + dx, j + dy)
                counts[key] = counts.get(key, 0) + c


def vertex_family_poly(family: Sequence[Hypergraph], limit: int = DEFAULT_LIMIT) -> BiPoly:
    """Sum over the family of the vertex-subset polynomials: the (i, j)
    coefficient counts the pairs of a member and one of its i-vertex
    subsets inducing exactly j edges. Each member contributes the
    constant 1 of its empty subset."""
    for h in family:
        check_limit("n", h.n, "enumeration", limit)
    counts: dict[tuple[int, int], int] = {}
    for h in family:
        low = min(h.n, _LOW_BITS)
        ones, coords = _coordinates(low)
        low_mask = (1 << low) - 1
        # edge e lies inside W = high·2^low + l iff its high part is
        # inside high and l holds all of its low vertices
        edges = [(e >> low, reduce(and_, (coords[v] for v in mask_indices(e & low_mask)), ones)) for e in h.edges]
        for high in range(1 << (h.n - low)):
            inside = _levels((bits for e_high, bits in edges if not e_high & ~high), ones)
            _tally(counts, _sizes(low), high.bit_count(), inside.items(), 0)
    return BiPoly(counts)


def edge_family_poly(family: Sequence[Hypergraph], limit: int = DEFAULT_LIMIT) -> BiPoly:
    """Sum over the family of the edge-subset polynomials: the (i, j)
    coefficient counts the pairs of a member and one of its j-element
    edge subsets whose union covers exactly i vertices. Each member
    contributes the constant 1 of its empty edge subset."""
    for h in family:
        check_limit("m", h.m, "enumeration", limit)
    counts: dict[tuple[int, int], int] = {}
    for h in family:
        low = min(h.m, _LOW_BITS)
        ones, coords = _coordinates(low)
        # vertex v is covered iff a high edge picked holds it (every l of
        # the block) or l meets reach[v], the low edges that hold it
        reach = [
            (v, bits) for v in range(h.n)
            if (bits := reduce(or_, (c for c, e in zip(coords, h.edges) if e >> v & 1), 0))
        ]
        for high in range(1 << (h.m - low)):
            union = reduce(or_, (h.edges[low + k] for k in mask_indices(high)), 0)
            covered = _levels((bits for v, bits in reach if not union >> v & 1), ones)
            _tally(counts, covered.items(), union.bit_count(), _sizes(low), high.bit_count())
    return BiPoly(counts)


def vertex_induced_poly(h: Hypergraph, limit: int = DEFAULT_LIMIT) -> BiPoly:
    """Polynomial whose (i, j) coefficient counts the i-vertex subsets
    inducing exactly j edges. The constant term 1 is the empty subset.
    """
    return vertex_family_poly((h,), limit)


def edge_induced_poly(h: Hypergraph, limit: int = DEFAULT_LIMIT) -> BiPoly:
    """Polynomial whose (i, j) coefficient counts the j-element edge
    subsets whose union covers exactly i vertices. The constant term 1
    is the empty edge subset.
    """
    return edge_family_poly((h,), limit)

