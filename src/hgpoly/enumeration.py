"""Exhaustive subset enumeration of the two subhypergraph polynomials.

The vertex-subset polynomial counts, for every vertex subset W, the
number of edges contained in W; the edge-subset polynomial counts, for
every edge subset L, the number of vertices covered by the union of L.

Both sweeps are bit-sliced: the 2^k subset indices (k = n or m) are cut
into blocks of 2^12, and one Python int holds one bit per subset of a
block (bit l stands for the subset whose low index bits are l). A
per-subset predicate such as "edge e lies inside W" then becomes a
few AND/OR operations on these ints, and the per-subset counts are
summed bitwise into binary digit planes by ripple-carry addition.
Splitting the planes gives, for each count value, the int of the
subsets that have it, and the tally is the popcount of its AND with
the int of the subsets of each size. The loop over blocks runs in
Python; each int holds at most 2^12 bits whatever n or m.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

from .bipoly import BiPoly, UniPoly
from .errors import LimitExceeded
from .hypergraph import Hypergraph, mask_indices

DEFAULT_LIMIT = 24

# Index bits held in one int: a block is 2^12 subsets, a 4096-bit int.
_LOW_BITS = 12


def _check_limit(kind: str, value: int, limit: int | None) -> int:
    lim = DEFAULT_LIMIT if limit is None else limit
    if value > lim:
        raise LimitExceeded(
            f"{kind}={value} exceeds the enumeration limit {lim}; "
            f"raise the limit explicitly to run anyway"
        )
    return lim


def _coordinates(k: int) -> tuple[int, list[int]]:
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
    return (1 << size) - 1, coords


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


def _tally(counts: dict[tuple[int, int], int], xs: dict[int, int], dx: int, ys: dict[int, int], dy: int) -> None:
    """Add |xs[i] & ys[j]| to the (i + dx, j + dy) coefficient."""
    for i, a in xs.items():
        for j, b in ys.items():
            if c := (a & b).bit_count():
                key = (i + dx, j + dy)
                counts[key] = counts.get(key, 0) + c


def vertex_induced_poly(h: Hypergraph, limit: int | None = None) -> BiPoly:
    """Polynomial whose (i, j) coefficient counts the i-vertex subsets
    inducing exactly j edges. The constant term 1 is the empty subset.
    """
    _check_limit("n", h.n, limit)
    low = min(h.n, _LOW_BITS)
    full, coords = _coordinates(low)
    sizes = _levels(coords, full)
    low_mask = (1 << low) - 1
    # edge e lies inside W = high·2^low + l iff its high part is inside
    # high and l holds all of its low vertices
    parts = [(e >> low, reduce(and_, (coords[v] for v in mask_indices(e & low_mask)), full)) for e in h.edges]
    counts: dict[tuple[int, int], int] = {}
    for high in range(1 << (h.n - low)):
        inside = _levels((bits for e_high, bits in parts if not e_high & ~high), full)
        _tally(counts, sizes, high.bit_count(), inside, 0)
    return BiPoly(counts)


def edge_induced_poly(h: Hypergraph, limit: int | None = None) -> BiPoly:
    """Polynomial whose (i, j) coefficient counts the j-element edge
    subsets whose union covers exactly i vertices. The constant term 1
    is the empty edge subset.
    """
    _check_limit("m", h.m, limit)
    low = min(h.m, _LOW_BITS)
    full, coords = _coordinates(low)
    sizes = _levels(coords, full)
    low_edges, high_edges = h.edges[:low], h.edges[low:]
    # vertex v is covered iff a high edge picked holds it (every l of the
    # block) or l meets reach[v], the low edges that hold it
    reach = [reduce(or_, (coords[k] for k, e in enumerate(low_edges) if e >> v & 1), 0) for v in range(h.n)]
    counts: dict[tuple[int, int], int] = {}
    for high in range(1 << (h.m - low)):
        union = reduce(or_, (high_edges[k] for k in mask_indices(high)), 0)
        covered = _levels((bits for v, bits in enumerate(reach) if bits and not union >> v & 1), full)
        _tally(counts, covered, union.bit_count(), sizes, high.bit_count())
    return BiPoly(counts)


def independence_poly(h: Hypergraph, limit: int | None = None) -> UniPoly:
    """Generating polynomial of independent vertex subsets by size: the
    vertex polynomial at y = 0."""
    return vertex_induced_poly(h, limit).eval_y(0)
