"""Exhaustive subset enumeration of the two subhypergraph polynomials.

The vertex-subset polynomial counts, for every vertex subset W, the
number of edges contained in W; the edge-subset polynomial counts, for
every edge subset L, the number of vertices covered by the union of L.

Both sweeps are bit-sliced and take a family of hypergraphs, returning
the sum of their polynomials; one hypergraph is the family of one. A
member sweeps 2^k subsets (k = n or m). The subset bits are cut into
blocks of at most 2^12, and one Python int holds one bit per subset of
a block. A member with k <= 12 takes a segment of 2^k bits, and
members are packed into a block segment by segment, largest first, so
one block sweeps many small members (bit l of a segment stands for
that member's subset with index l). A member with k > 12 is swept
alone, one full block per value of its index bits above the low 12. A
per-subset predicate such as "edge e lies inside W" then becomes a few
AND/OR operations on these ints, and the per-subset counts are summed
bitwise into binary digit planes by ripple-carry addition. Splitting
the planes gives, for each count value, the int of the subsets that
have it, and the tally is the popcount of its AND with the int of the
subsets of each size. The loop over blocks runs in Python; each int
holds at most 2^12 bits whatever n or m.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cache, lru_cache, reduce
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


@lru_cache(maxsize=64)
def _frame(widths: tuple[int, ...]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """For a block of segments of 2^k bits, one per k in widths (largest
    first, from bit 0 up), the int of all their bits and, for each size
    i, the int of the bits whose index within their segment has i bits
    set. Largest first keeps every offset a multiple of its segment's
    size, so the segments' coordinates are those of the whole block."""
    _, coords = _coordinates(_LOW_BITS)
    live = [0] * max(widths)  # live[v]: the segments with an index bit v
    full = 0
    for k in widths:
        seg = ((1 << (1 << k)) - 1) << full.bit_length()
        for v in range(k):
            live[v] |= seg
        full |= seg
    return full, tuple(_levels((c & l for c, l in zip(coords, live)), full).items())


def _blocks(ks: Sequence[int]) -> Iterator[tuple]:
    """Cut the sweeps of members with 2^k[t] subsets each into blocks:
    yields the block's frame (see _frame), the value of the index bits
    above the low 12, and the (member, bit offset) of each segment. A
    block of several members has those high bits 0."""
    order = sorted(range(len(ks)), key=ks.__getitem__, reverse=True)
    segments: list[tuple[int, int]] = []
    widths: list[int] = []
    used = 0
    for t in order:
        k = ks[t]
        if k > _LOW_BITS:
            for high in range(1 << (k - _LOW_BITS)):
                yield *_frame((_LOW_BITS,)), high, [(t, 0)]
            continue
        if used + (1 << k) > 1 << _LOW_BITS:
            yield *_frame(tuple(widths)), 0, segments
            segments, widths, used = [], [], 0
        segments.append((t, used))
        widths.append(k)
        used += 1 << k
    if segments:
        yield *_frame(tuple(widths)), 0, segments


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
    parts = []
    for h in family:
        check_limit("n", h.n, "enumeration", limit)
        low = min(h.n, _LOW_BITS)
        ones, coords = _coordinates(low)
        low_mask = (1 << low) - 1
        # edge e lies inside W = high·2^low + l iff its high part is
        # inside high and l holds all of its low vertices
        parts.append([(e >> low, reduce(and_, (coords[v] for v in mask_indices(e & low_mask)), ones)) for e in h.edges])
    counts: dict[tuple[int, int], int] = {}
    for full, sizes, high, segments in _blocks([h.n for h in family]):
        inside = _levels((bits << off for t, off in segments for e_high, bits in parts[t] if not e_high & ~high), full)
        _tally(counts, sizes, high.bit_count(), inside.items(), 0)
    return BiPoly(counts)


def edge_family_poly(family: Sequence[Hypergraph], limit: int = DEFAULT_LIMIT) -> BiPoly:
    """Sum over the family of the edge-subset polynomials: the (i, j)
    coefficient counts the pairs of a member and one of its j-element
    edge subsets whose union covers exactly i vertices. Each member
    contributes the constant 1 of its empty edge subset."""
    reach = []
    for h in family:
        check_limit("m", h.m, "enumeration", limit)
        _, coords = _coordinates(min(h.m, _LOW_BITS))
        # vertex v is covered iff a high edge picked holds it (every l of
        # the block) or l meets reach[v], the low edges that hold it
        reach.append([
            (v, bits) for v in range(h.n)
            if (bits := reduce(or_, (c for c, e in zip(coords, h.edges) if e >> v & 1), 0))
        ])
    counts: dict[tuple[int, int], int] = {}
    for full, sizes, high, segments in _blocks([h.m for h in family]):
        union = reduce(or_, (family[t].edges[_LOW_BITS + k] for t, _ in segments for k in mask_indices(high)), 0)
        covered = _levels((bits << off for t, off in segments for v, bits in reach[t] if not union >> v & 1), full)
        _tally(counts, covered.items(), union.bit_count(), sizes, high.bit_count())
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

