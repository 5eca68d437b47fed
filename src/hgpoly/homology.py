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

The multigraded table b[i, B] is nonzero only when B is a union of
edges: any vertex of B not covered by an edge inside B is a cone apex
of the restricted complex, killing all reduced homology. The table
computation therefore walks exactly the union-closure of the edge set,
which is what makes dense sweeps over all 2^n subsets unnecessary.
Conversely, no restriction on that walk is a cone: for v in B pick an
edge e inside B containing v; e minus v is a face (the edges form an
antichain) but e is not, so v is no apex.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property
from math import gcd

from .bipoly import UniPoly
from .errors import InternalMismatch, LimitExceeded
from .hypergraph import Frozen, Hypergraph, mask_indices

DEFAULT_HOMOLOGY_LIMIT = 14


def _check_homology_limit(n: int, limit: int | None) -> None:
    lim = DEFAULT_HOMOLOGY_LIMIT if limit is None else limit
    if n > lim:
        raise LimitExceeded(
            f"n={n} exceeds the homology limit {lim}; raise the limit explicitly to run anyway"
        )


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

    def multigraded_entries(self) -> list[tuple[int, tuple[str, ...], int]]:
        """Sorted (i, vertex labels, value) triples."""
        out = []
        for (i, bmask), b in sorted(self.multigraded.items()):
            out.append((i, tuple(self.labels[v] for v in mask_indices(bmask)), b))
        return out

    def graded_entries(self) -> list[tuple[int, int, int]]:
        return [(i, j, self.graded[(i, j)]) for i, j in sorted(self.graded)]


def _edge_union_closure(edges: tuple[int, ...]) -> list[int]:
    """All unions of edge subsets, including the empty union."""
    unions = {0}
    for e in edges:
        unions |= {u | e for u in unions}
    return sorted(unions)


def _restriction_faces(bmask: int, edges: tuple[int, ...]) -> list[int]:
    """Independent subsets of B, enumerated directly over 2^|B|."""
    verts = mask_indices(bmask)
    inside = [e for e in edges if e & ~bmask == 0]
    faces = []
    for k in range(1 << len(verts)):
        w = 0
        kk = k
        while kk:
            low = kk & -kk
            w |= 1 << verts[low.bit_length() - 1]
            kk ^= low
        if all(e & ~w for e in inside):
            faces.append(w)
    return faces


def restriction_betti(edges: tuple[int, ...], bmasks: Iterable[int]) -> dict[tuple[int, int], int]:
    """Multigraded entries b[i, B] of one edge set for each B in bmasks,
    via homology of its independence complex restricted to B, plus
    b[0, empty] = 1.

    The independent sets are enumerated once, over the union of the
    edges, and filtered per B. That filter sees only the vertices of
    the edges, so a B that is not the union of the edges inside it is
    skipped: it has a vertex on no inside edge, a cone apex, and so no
    entries at all."""
    table: dict[tuple[int, int], int] = {(0, 0): 1}
    union = 0
    for e in edges:
        union |= e
    independent = _restriction_faces(union, edges)
    for bmask in bmasks:
        covered = 0
        for e in edges:
            if e & ~bmask == 0:
                covered |= e
        if covered != bmask:
            continue
        size = bmask.bit_count()
        dims = homology_dims_from_masks([w for w in independent if w & ~bmask == 0])
        for i in range(1, size + 1):
            deg = size - i - 1
            if 0 <= deg + 1 < len(dims) and dims[deg + 1]:
                table[(i, bmask)] = dims[deg + 1]
    return table


def hochster_betti(h: Hypergraph, limit: int | None = None) -> BettiTable:
    """Full multigraded Betti table of the quotient by the edge ideal,
    over the rationals: b[i, B] is the reduced homology dimension of the
    independence complex restricted to B, in degree |B| - i - 1, and
    b[0, empty] = 1."""
    _check_homology_limit(h.n, limit)
    bmasks = [bmask for bmask in _edge_union_closure(h.edges) if bmask]
    return BettiTable(h.labels, restriction_betti(h.edges, bmasks))


def pd_reg_depth(table: BettiTable, n: int) -> tuple[int, int, int]:
    """Projective dimension, regularity, and depth of the quotient ring,
    read off the graded table: pd is the largest homological degree with
    a nonzero entry, regularity the largest j - i, and depth n - pd."""
    pd = max(i for i, _ in table.graded)
    reg = max(j - i for i, j in table.graded)
    return pd, reg, n - pd


class RecoveryResult(Frozen):
    """Outcome of recovering Betti numbers from the Hilbert series
    numerator alone. applicable is False when some total degree carries
    two or more nonzero entries, making the alternating sum ambiguous;
    violating_degree then names the first such column."""

    def __init__(self, applicable: bool, entries: dict[int, int] | None, violating_degree: int | None) -> None:
        self._freeze(applicable=applicable, entries=entries, violating_degree=violating_degree)


def betti_alternating_sum(table: BettiTable) -> UniPoly:
    """The signed column sums sum_i (-1)^i b[i, j] t^j."""
    acc: dict[int, int] = {}
    for (i, j), b in table.graded.items():
        acc[j] = acc.get(j, 0) + (-b if i & 1 else b)
    coeffs = [0] * (max(acc, default=-1) + 1)
    for j, c in acc.items():
        coeffs[j] = c
    return UniPoly(coeffs)


def verify_betti_alternating_sum(table: BettiTable, kpoly: UniPoly) -> bool:
    """Check that the signed column sums of the Betti table equal the
    Hilbert series numerator kpoly, coefficient by coefficient."""
    return betti_alternating_sum(table) == kpoly


def antidiagonal_recovery(table: BettiTable, kpoly: UniPoly) -> RecoveryResult:
    """If every total degree j of the table holds at most one nonzero
    graded entry, recover those entries (for j >= 1) as the absolute
    values of the coefficients of kpoly, the Hilbert numerator,
    verifying them against the table.

    Otherwise report the first total degree with two or more nonzero
    entries.
    """
    by_degree: dict[int, list[tuple[int, int]]] = {}
    for (i, j), b in table.graded.items():
        by_degree.setdefault(j, []).append((i, b))
    for j in sorted(by_degree):
        if len(by_degree[j]) > 1:
            return RecoveryResult(False, None, j)
    recovered: dict[int, int] = {}
    for j in range(1, kpoly.degree() + 1):
        c = kpoly.coeff(j)
        if c:
            recovered[j] = abs(c)
    # with one entry per column, the signed column sum is that entry
    table_cols = {j: b for j, entries in by_degree.items() for _, b in entries if j >= 1}
    if recovered != table_cols:
        raise InternalMismatch(
            f"single-entry columns disagree with the series numerator: {table_cols} vs {recovered}"
        )
    return RecoveryResult(True, recovered, None)
