"""Simplicial complexes, exact rational homology, and multigraded Betti
numbers of edge ideals via restriction homology.

Conventions
-----------
The reduced chain complex includes the empty face in degree -1, so the
augmentation map is the boundary from degree 0. For the complex whose
only face is the empty set, reduced homology is one-dimensional in
degree -1 and zero elsewhere; the void complex (no faces at all) has no
homology in any degree. Faces of each dimension are indexed in colex
order (numeric order of their bitmasks), and all ranks are computed by
sparse integer elimination over the rationals, so results are exact.

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

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .bipoly import UniPoly
from .errors import InternalMismatch, LimitExceeded, UnknownVertex
from .hypergraph import Hypergraph, mask_indices
from .parallel import MAX_WORKERS, map_ordered

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
    rank.

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


def homology_dims_from_masks(faces: list[int]) -> list[int]:
    """Reduced rational homology dimensions of a downward-closed face
    family given as bitmasks.

    Returns [dim H_-1, dim H_0, ..., dim H_top]; the void family gives
    the empty list.
    """
    if not faces:
        return []
    grouped = _faces_by_dim(faces)
    depth = len(grouped)  # groups for dimensions -1 .. depth-2
    # ranks[k] = rank of the boundary map out of dimension k-1 faces
    ranks = [0] * (depth + 1)
    for k in range(1, depth):
        ranks[k] = exact_rank(_boundary_matrix(grouped[k - 1], grouped[k]))
    return [len(grouped[k]) - ranks[k] - ranks[k + 1] for k in range(depth)]


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed family of vertex subsets over a labeled ground
    set, stored as bitmasks. The empty face is present whenever the
    family is nonvoid."""

    labels: tuple[str, ...]
    faces: frozenset[int]

    def __post_init__(self) -> None:
        for f in self.faces:
            for v in mask_indices(f):
                if f ^ (1 << v) not in self.faces:
                    raise ValueError(
                        f"face family is not downward closed at {self._face_labels(f)}"
                    )

    def _face_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[v] for v in mask_indices(mask))

    @property
    def dim(self) -> int:
        """Dimension of the largest face; -1 for {empty}, and -2 for the
        void complex by convention."""
        if not self.faces:
            return -2
        return max(f.bit_count() for f in self.faces) - 1

    def face_label_sets(self) -> list[tuple[str, ...]]:
        return [self._face_labels(f) for f in sorted(self.faces, key=lambda f: (f.bit_count(), f))]

    def restrict(self, vertices) -> "SimplicialComplex":
        """Subcomplex of faces contained in the given vertex subset."""
        idx = {lbl: k for k, lbl in enumerate(self.labels)}
        bmask = 0
        for lbl in vertices:
            if lbl not in idx:
                raise UnknownVertex(f"unknown vertex {lbl!r}")
            bmask |= 1 << idx[lbl]
        return SimplicialComplex(self.labels, frozenset(f for f in self.faces if f & ~bmask == 0))


def independence_complex(h: Hypergraph, limit: int | None = None) -> SimplicialComplex:
    """All independent vertex subsets of the hypergraph, as a complex."""
    _check_homology_limit(h.n, limit)
    return SimplicialComplex(h.labels, frozenset(_restriction_faces(h.full_mask, h.edges)))


def reduced_homology_dims(cx: SimplicialComplex) -> list[int]:
    """Reduced rational homology dimensions of a complex, degrees -1
    through dim; [] for the void complex."""
    return homology_dims_from_masks(sorted(cx.faces))


@dataclass(frozen=True)
class BettiTable:
    """Multigraded table b[i, B] keyed by (homological degree, vertex
    bitmask), together with its collapse by |B|. Entry (0, empty) is 1.

    top_complete is False for deck-reconstructed tables, which cannot
    see the entries with B equal to the full vertex set.
    """

    labels: tuple[str, ...]
    multigraded: dict[tuple[int, int], int]
    top_complete: bool = True

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


def _restriction_chunk(task: tuple[tuple[tuple[int, ...], int], ...]) -> list[tuple[int, int, int]]:
    """Worker: for each (edges, B) pair in the chunk, the nonzero b[i, B]
    entries via homology of the independence complex of edges
    restricted to B. The independent sets of each distinct edge set are
    enumerated once, over the union of its edges, and filtered per B."""
    out: list[tuple[int, int, int]] = []
    independent: dict[tuple[int, ...], list[int]] = {}
    for edges, bmask in task:
        if edges not in independent:
            union = 0
            for e in edges:
                union |= e
            independent[edges] = _restriction_faces(union, edges)
        size = bmask.bit_count()
        dims = homology_dims_from_masks([w for w in independent[edges] if w & ~bmask == 0])
        for i in range(1, size + 1):
            deg = size - i - 1
            if 0 <= deg + 1 < len(dims) and dims[deg + 1]:
                out.append((i, bmask, dims[deg + 1]))
    return out


def restriction_betti(pairs: list[tuple[tuple[int, ...], int]], parallel: bool = False) -> dict[tuple[int, int], int]:
    """Multigraded entries b[i, B] for each (edges, B) pair, computed on
    the pair's edge set, plus b[0, empty] = 1."""
    table: dict[tuple[int, int], int] = {(0, 0): 1}
    chunks = [tuple(ch) for ch in _chunk(pairs, parallel)]
    for part in map_ordered(_restriction_chunk, chunks, parallel):
        for i, bmask, b in part:
            table[(i, bmask)] = b
    return table


def hochster_betti(h: Hypergraph, limit: int | None = None, parallel: bool = False) -> BettiTable:
    """Full multigraded Betti table of the quotient by the edge ideal,
    over the rationals: b[i, B] is the reduced homology dimension of the
    independence complex restricted to B, in degree |B| - i - 1, and
    b[0, empty] = 1."""
    _check_homology_limit(h.n, limit)
    pairs = [(h.edges, bmask) for bmask in _edge_union_closure(h.edges) if bmask]
    return BettiTable(h.labels, restriction_betti(pairs, parallel))


def _chunk(items: list, parallel: bool) -> list[list]:
    """Split a task list for the pool; a single chunk when sequential."""
    if not parallel or len(items) < 8 or MAX_WORKERS < 2:
        return [items] if items else []
    nchunks = MAX_WORKERS * 4
    step = -(-len(items) // nchunks)
    return [items[a : a + step] for a in range(0, len(items), step)]


def pd_reg_depth(table: BettiTable, n: int) -> tuple[int, int, int]:
    """Projective dimension, regularity, and depth of the quotient ring,
    read off the graded table: pd is the largest homological degree with
    a nonzero entry, regularity the largest j - i, and depth n - pd."""
    pd = max(i for i, _ in table.graded)
    reg = max(j - i for i, j in table.graded)
    return pd, reg, n - pd


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of recovering Betti numbers from the Hilbert series
    numerator alone. applicable is False when some total degree carries
    two or more nonzero entries, making the alternating sum ambiguous;
    violating_degree then names the first such column."""

    applicable: bool
    entries: dict[int, int] | None
    violating_degree: int | None


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
