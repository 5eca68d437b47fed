"""Exact rational homology of independence complexes, and multigraded
Betti numbers of edge ideals via restriction homology.

Conventions
-----------
A complex is a downward-closed list of face bitmasks over the vertex
indices; the faces of the independence complex restricted to B are the
subsets of B containing no edge (``_restriction_faces``), and
``homology_dims_from_masks`` takes such a list to its reduced homology.
The reduced chain complex includes the empty face in degree -1, so the
augmentation map is the boundary from degree 0. For the complex whose
only face is the empty set, reduced homology is one-dimensional in
degree -1 and zero elsewhere; the void complex (no faces at all) has no
homology in any degree. Faces of each dimension are indexed in colex
order (numeric order of their bitmasks).

Ranks are taken over GF(2) first, by XOR elimination on int rows. By
universal coefficients dim H_k(F_2) >= dim H_k(Q) in every degree, and
both sides have the same Euler characteristic, so GF(2) homology that is
nonzero in at most one degree is exactly the rational homology. Any
other complex is recomputed by ``exact_rank``, sparse integer
elimination over the rationals, so every result is exact.

The multigraded table b[i, B] comes from the complex Ind(H|B), which
``restriction_betti`` reduces before anything is ranked:

- Cone: a vertex of B on no edge inside B is a cone apex, so B has no
  entries. Only unions of edges carry entries, so a table walks the
  union closure of the edge set, not all 2^n subsets.
- Fold: w is dominated by u != w when every edge e through u inside B
  has an edge inside (e - u) + w. Then a face holding w stays a face
  with u added (an edge in it would contain u, and its e - u with w
  would hold an edge of the face), so dropping w is a strong collapse,
  which keeps the homology (Barmak and Minian, DCG 2012; on graphs it
  reads N(u) in N(w), Engstrom's fold lemma).
- Split: the complex of a folded B is the join of its connected pieces'
  complexes, so its Poincare polynomial p(u) = sum_k dim H_(k-1) u^k is
  the product of theirs (Milnor), and b[i, B] is its coefficient of
  u^(|B| - i), with |B| taken before folding.
- Memo: each piece's p is computed once per table, from its faces
  filtered out of the independent sets of the edges' union, which are
  enumerated at most once.
- Check: the Taylor complex also resolves the quotient, graded by the
  unions of edge subsets, so sum_i (-1)^i b[i, B] = mu(B), the sum of
  (-1)^|F| over the edge subsets F whose union is B (Miller and
  Sturmfels, GTM 227). One pass (``_edge_union_closure``) gives the Bs
  to walk and their mu, and ``hochster_betti`` raises InternalMismatch
  unless every B's signed sum is mu(B) and the mu sum to (1 - 1)^m.
  Identity 4.3 sums the same signs over each total degree j and compares
  those sums, as a term map, with the terms of K(t) = S(t, -1).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from math import gcd

from .bipoly import BiPoly
from .errors import InternalMismatch, check_limit
from .hypergraph import Frozen, Hypergraph, mask_indices

DEFAULT_HOMOLOGY_LIMIT = 14


def exact_rank(vectors: list[dict[int, int]]) -> int:
    """Rank over the rationals of integer vectors given sparsely as
    {index: nonzero entry}; rows or columns of a matrix give the same
    rank. Homology calls it only when the GF(2) certificate fails, and
    the tests use it as the oracle for that certificate.

    Each vector is reduced against the kept pivot vectors on its largest
    index by integer cross-multiplication, then divided by the gcd of
    its entries, so all arithmetic stays exact in the integers.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        v = dict(vec)
        while v:
            top = max(v)
            p = pivots.get(top)
            if p is None:
                g = gcd(*v.values())
                pivots[top] = {k: x // g for k, x in v.items()} if g > 1 else v
                break
            g = gcd(p[top], v[top])
            a, b = p[top] // g, v[top] // g
            if a != 1:
                v = {k: a * x for k, x in v.items()}
            for k, x in p.items():
                y = v.get(k, 0) - b * x
                if y:
                    v[k] = y
                else:
                    del v[k]
    return len(pivots)


def _faces_by_dim(faces: list[int]) -> list[list[int]]:
    """Group face masks by dimension (popcount - 1), each group in
    colex (numeric) order. Index k of the result holds dimension k-1,
    so index 0 is the empty face."""
    if not faces:
        return []
    top = max(f.bit_count() for f in faces)
    grouped: list[list[int]] = [[] for _ in range(top + 1)]
    for f in faces:
        grouped[f.bit_count()].append(f)
    for g in grouped:
        g.sort()
    return grouped


def _boundary_matrix(lower: list[int], upper: list[int]) -> list[dict[int, int]]:
    """Sparse columns of the boundary map from dimension-k faces (upper)
    to dimension-(k-1) faces (lower), with the usual alternating signs;
    column c maps the index of each facet of upper[c] to its sign."""
    index = {f: i for i, f in enumerate(lower)}
    cols = []
    for f in upper:
        col = {}
        sign = 1
        for v in mask_indices(f):
            col[index[f ^ (1 << v)]] = sign
            sign = -sign
        cols.append(col)
    return cols


def _gf2_reduce(rows: Iterable[int]) -> dict[int, int]:
    """Row-reduce over GF(2) rows given as ints (bit i is column i), by
    XOR elimination; returns the pivot rows keyed by the bit_length of
    their top bit, so the rank is the pivot count."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            p = pivots.get(top)
            if p is None:
                pivots[top] = row
                break
            row ^= p
    return pivots


def _gf2_homology_dims(grouped: list[list[int]]) -> list[int]:
    """Reduced homology dimensions over GF(2) of a complex grouped by
    ``_faces_by_dim``; the row of a face has bit i set for its facet of
    index i one dimension down.

    The maps are reduced from the top down, and a face whose index keys
    a pivot of the map above is left out: that pivot is a boundary whose
    top bit is the face, so by boundary-of-boundary zero the face's row
    is a sum of earlier rows and adds nothing to the rank."""
    depth = len(grouped)
    ranks = [0] * (depth + 1)
    pivots: dict[int, int] = {}
    for k in range(depth - 1, 0, -1):
        bit = {f: 1 << i for i, f in enumerate(grouped[k - 1])}
        rows = []
        for c, f in enumerate(grouped[k], 1):
            if c in pivots:
                continue
            row = 0
            rest = f
            while rest:
                low = rest & -rest
                row |= bit[f ^ low]
                rest ^= low
            rows.append(row)
        pivots = _gf2_reduce(rows)
        ranks[k] = len(pivots)
    return [len(grouped[k]) - ranks[k] - ranks[k + 1] for k in range(depth)]


def _exact_homology_dims(grouped: list[list[int]]) -> list[int]:
    """Reduced rational homology dimensions of a complex grouped by
    ``_faces_by_dim``, with every rank taken by exact_rank: the fallback
    of homology_dims_from_masks and the oracle for its certificate."""
    depth = len(grouped)  # groups for dimensions -1 .. depth-2
    # ranks[k] = rank of the boundary map out of dimension k-1 faces
    ranks = [0] * (depth + 1)
    for k in range(1, depth):
        ranks[k] = exact_rank(_boundary_matrix(grouped[k - 1], grouped[k]))
    return [len(grouped[k]) - ranks[k] - ranks[k + 1] for k in range(depth)]


def homology_dims_from_masks(faces: list[int]) -> list[int]:
    """Reduced rational homology dimensions of a downward-closed face
    family given as bitmasks.

    Returns [dim H_-1, dim H_0, ..., dim H_top]; the void family gives
    the empty list. The GF(2) dimensions are returned when they are
    nonzero in at most one degree, which certifies them as the rational
    ones (see the module docstring); otherwise every rank is recomputed
    by exact_rank.
    """
    grouped = _faces_by_dim(faces)
    dims = _gf2_homology_dims(grouped)
    if sum(1 for d in dims if d) <= 1:
        return dims
    return _exact_homology_dims(grouped)


class BettiTable(Frozen):
    """Multigraded table b[i, B] keyed by (homological degree, vertex
    bitmask), together with its collapse by |B|. Entry (0, empty) is 1.

    top_complete is False for deck-reconstructed tables, which cannot
    see the entries with B equal to the full vertex set.
    """

    def __init__(self, labels: tuple[str, ...], multigraded: dict[tuple[int, int], int], top_complete: bool = True):
        self._freeze(labels=labels, multigraded=multigraded, top_complete=top_complete)

    def __hash__(self) -> int:
        return hash((self.labels, frozenset(self.multigraded.items()), self.top_complete))

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def graded(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (i, bmask), b in self.multigraded.items():
            key = (i, bmask.bit_count())
            out[key] = out.get(key, 0) + b
        return out

    def multigraded_entries(self) -> Iterator[tuple[int, tuple[str, ...], int]]:
        """(i, vertex labels, value) triples in sorted order, each built
        only when drawn: the sort holds the keys alone."""
        labels, multigraded = self.labels, self.multigraded
        for i, bmask in sorted(multigraded):
            yield i, tuple([labels[v] for v in mask_indices(bmask)]), multigraded[i, bmask]


def _edge_union_closure(edges: tuple[int, ...]) -> dict[int, int]:
    """{B: mu(B)} for every union B of edge subsets, the empty union and
    zeros included: mu(B) sums (-1)^|F| over the edge subsets F with union
    B, and each edge either joins a subset or does not."""
    mu = {0: 1}
    for e in edges:
        for u, c in list(mu.items()):
            mu[u | e] = mu.get(u | e, 0) - c
    return mu


def _restriction_faces(bmask: int, edges: tuple[int, ...]) -> list[int]:
    """Independent subsets of B, grown one vertex of B at a time in
    increasing order: each set found so far takes the new vertex unless
    that completes an edge inside B whose top vertex it is, so each edge
    is checked only by the vertex that could complete it."""
    rests: dict[int, list[int]] = {}
    for e in edges:
        if e & ~bmask == 0:
            top = 1 << (e.bit_length() - 1)
            rests.setdefault(top, []).append(e ^ top)
    faces = [0]
    todo = bmask
    while todo:
        low = todo & -todo
        todo ^= low
        below = rests.get(low, ())
        faces += [f | low for f in faces if all(r & ~f for r in below)]
    return faces


def _fold(bmask: int, near: dict[int, int] | None, links: dict) -> tuple[int, dict[int, int]] | None:
    """B less its dominated vertices, dropped until none is left, and each
    kept vertex's neighbours inside it, keyed by vertex bit; None when B
    is a cone. For a graph near[u] is u's neighbour mask (w is dominated
    when N(u) lies in N(w)); else links[u] pairs each edge e through u
    with W_e, the vertices w for which some edge lies inside (e - u) + w.
    No such w shares an edge with u, so candidates start as B less those.
    On graphs W_e is N(x) for e = {u, x}, but the mask test skips the edge
    loop: with the loop alone K9 and K10 tables take 1.3-1.4 times as long."""
    while True:
        dropped, adjacent = False, {}
        rest = bmask
        while rest:
            u = rest & -rest
            rest ^= u
            if near is not None:
                cover = near[u] & bmask
                cands = bmask & ~cover & ~u
                todo = cover if cands else 0
                while todo:
                    x = todo & -todo
                    todo ^= x
                    cands &= near[x]
            else:
                cover, cands = 0, bmask & ~u
                for e, adds in links[u]:
                    if e & ~bmask == 0:
                        cover |= e
                        cands &= adds
                cands &= ~cover
            if not cover:
                return None
            adjacent[u] = cover & ~u
            if cands:
                bmask &= ~cands
                rest &= ~cands
                dropped = True
        if not dropped:
            return bmask, adjacent


def _pieces(bmask: int, adjacent: dict[int, int]) -> list[int]:
    """The vertex masks of the connected pieces of B."""
    pieces = []
    while bmask:
        piece = front = bmask & -bmask
        while front:
            reach = 0
            while front:
                v = front & -front
                front ^= v
                reach |= adjacent[v]
            front = reach & ~piece
            piece |= front
        pieces.append(piece)
        bmask &= ~piece
    return pieces


def restriction_betti(edges: tuple[int, ...], bmasks: Iterable[int]) -> dict[tuple[int, int], int]:
    """Multigraded entries b[i, B] of one edge set for each B in bmasks,
    plus b[0, empty] = 1. Each B is tested for a cone apex, folded and
    split into pieces, and its entries are read off the product of the
    pieces' Poincare polynomials, each computed once per call (see the
    module docstring)."""
    table: dict[tuple[int, int], int] = {(0, 0): 1}
    union = 0
    for e in edges:
        union |= e
    near = dict.fromkeys((1 << v for v in mask_indices(union)), 0) if all(e.bit_count() == 2 for e in edges) else None
    links: dict[int, list[tuple[int, int]]] = {}
    for e in edges:
        for v in mask_indices(e):
            u = 1 << v
            if near is not None:
                near[u] |= e ^ u
                continue
            adds = 0
            for f in edges:
                d = f & ~(e ^ u)
                if d & (d - 1) == 0:
                    adds |= d
            links.setdefault(u, []).append((e, adds))
    memo: dict[int, dict[int, int]] = {}
    independent: list[int] = []
    for bmask in bmasks:
        folded = None if bmask & ~union else _fold(bmask, near, links)
        if folded is None:
            continue
        poly = {0: 1}
        for piece in _pieces(*folded):
            terms = memo.get(piece)
            if terms is None:
                independent = independent or _restriction_faces(union, edges)
                dims = homology_dims_from_masks([w for w in independent if w & ~piece == 0])
                terms = memo[piece] = {k: c for k, c in enumerate(dims) if c}
            product: dict[int, int] = {}
            for a, x in poly.items():
                for b, y in terms.items():
                    product[a + b] = product.get(a + b, 0) + x * y
            poly = product
        size = bmask.bit_count()
        for k in sorted(poly, reverse=True):
            table[(size - k, bmask)] = poly[k]
    return table


def hochster_betti(h: Hypergraph, limit: int = DEFAULT_HOMOLOGY_LIMIT) -> BettiTable:
    """Full multigraded Betti table of the quotient by the edge ideal,
    over the rationals: b[i, B] is the reduced homology dimension of the
    independence complex restricted to B, in degree |B| - i - 1, and
    b[0, empty] = 1. Raises InternalMismatch unless every B's signed sum
    sum_i (-1)^i b[i, B] is mu(B) and the mu sum to (1 - 1)^m."""
    check_limit("n", h.n, "homology", limit)
    mu = _edge_union_closure(h.edges)
    table = restriction_betti(h.edges, [bmask for bmask in sorted(mu) if bmask])
    sums = dict.fromkeys(mu, 0)
    for (i, bmask), b in table.items():
        sums[bmask] = sums.get(bmask, 0) + (-b if i & 1 else b)
    for bmask, s in sums.items():
        if s != mu.get(bmask, 0):
            raise InternalMismatch(
                f"Betti entries at B = {{{', '.join(h.labels_of(bmask))}}} have signed sum {s}, "
                f"but the Taylor complex gives mu(B) = {mu.get(bmask, 0)}"
            )
    if sum(mu.values()) != (h.m == 0):
        raise InternalMismatch(f"mu sums to {sum(mu.values())} over the union closure of m={h.m} edges, not (1 - 1)^m")
    return BettiTable(h.labels, table)


def pd_reg_depth(table: BettiTable) -> tuple[int, int, int]:
    """Projective dimension, regularity, and depth of the quotient ring,
    read off the graded table: pd is the largest homological degree with
    a nonzero entry, regularity the largest j - i, and depth n - pd for
    the table's n vertices."""
    pd = max(i for i, _ in table.graded)
    reg = max(j - i for i, j in table.graded)
    return pd, reg, table.n - pd


def verify_betti_alternating_sum(table: BettiTable, kpoly: BiPoly) -> bool:
    """Identity 4.3: the signed column sums sum_i (-1)^i b[i, j] t^j of
    the Betti table equal the Hilbert series numerator kpoly = S(t, -1),
    compared as term maps {(j, 0): sum} with the zero sums left out.
    The sums are built here from the table, never by ``eval_y``, so no
    step is shared with the route to kpoly."""
    sums: dict[tuple[int, int], int] = {}
    for (i, j), b in table.graded.items():
        sums[(j, 0)] = sums.get((j, 0), 0) + (-b if i & 1 else b)
    return {key: c for key, c in sums.items() if c} == kpoly.terms


def betti_columns(table: BettiTable) -> dict[int, dict[int, int]]:
    """The graded entries of a table grouped by total degree,
    j -> {i: b[i, j]}, for each nonempty column j. It checks nothing:
    ``hochster_betti`` checked the table against mu per B as it built it."""
    columns: dict[int, dict[int, int]] = {}
    for (i, j), b in table.graded.items():
        columns.setdefault(j, {})[i] = b
    return columns
