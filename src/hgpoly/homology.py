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
fraction-free integer elimination, so results are exact and independent
of pivoting.

The multigraded table b[i, B] is nonzero only when B is a union of
edges: any vertex of B not covered by an edge inside B is a cone apex
of the restricted complex, killing all reduced homology. The table
computation therefore walks exactly the union-closure of the edge set,
which is what makes dense sweeps over all 2^n subsets unnecessary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bipoly import UniPoly
from .errors import InternalMismatch, LimitExceeded, UnknownVertex
from .hypergraph import Hypergraph, mask_indices
from .parallel import MAX_WORKERS, map_ordered

DEFAULT_HOMOLOGY_LIMIT = 14


def exact_rank(rows: list[list[int]], pivot: str = "first") -> int:
    """Rank of an integer matrix over the rationals by Bareiss
    fraction-free elimination (all divisions exact).

    pivot selects the row used at each column: "first" takes the first
    nonzero entry, "minabs" the smallest in absolute value. The result
    does not depend on the choice; exposing it lets tests check that.
    """
    if pivot not in ("first", "minabs"):
        raise ValueError(f"unknown pivot strategy {pivot!r}")
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = -1
        for i in range(r, nrows):
            if m[i][c]:
                if pivot == "first":
                    best = i
                    break
                if best < 0 or abs(m[i][c]) < abs(m[best][c]):
                    best = i
        if best < 0:
            continue
        if best != r:
            m[best], m[r] = m[r], m[best]
        pivot_val = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            if mic:
                row_i = m[i]
                row_r = m[r]
                for j in range(c + 1, ncols):
                    row_i[j] = (row_i[j] * pivot_val - mic * row_r[j]) // prev
                row_i[c] = 0
            else:
                row_i = m[i]
                for j in range(c + 1, ncols):
                    row_i[j] = (row_i[j] * pivot_val) // prev
        prev = pivot_val
        rank += 1
        r += 1
    return rank


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


def _boundary_matrix(lower: list[int], upper: list[int]) -> list[list[int]]:
    """Matrix of the boundary map from dimension-k faces (upper) to
    dimension-(k-1) faces (lower), with the usual alternating signs."""
    index = {f: i for i, f in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for col, f in enumerate(upper):
        sign = 1
        for v in mask_indices(f):
            rows[index[f ^ (1 << v)]][col] = sign
            sign = -sign
    return rows


def _is_cone(faces: list[int]) -> bool:
    """True when some vertex can be added to every face while staying in
    the family; such complexes have no reduced homology."""
    face_set = set(faces)
    union = 0
    for f in faces:
        union |= f
    for v in mask_indices(union):
        bit = 1 << v
        if all(f | bit in face_set for f in faces):
            return True
    return False


def homology_dims_from_masks(faces: list[int], pivot: str = "first", cone_shortcut: bool = True) -> list[int]:
    """Reduced rational homology dimensions of a downward-closed face
    family given as bitmasks.

    Returns [dim H_-1, dim H_0, ..., dim H_top]; the void family gives
    the empty list.
    """
    if not faces:
        return []
    grouped = _faces_by_dim(faces)
    depth = len(grouped)  # groups for dimensions -1 .. depth-2
    if cone_shortcut and _is_cone(faces):
        return [0] * depth
    # ranks[k] = rank of the boundary map out of dimension k-1 faces
    ranks = [0] * (depth + 1)
    for k in range(1, depth):
        ranks[k] = exact_rank(_boundary_matrix(grouped[k - 1], grouped[k]), pivot)
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
    lim = DEFAULT_HOMOLOGY_LIMIT if limit is None else limit
    if h.n > lim:
        raise LimitExceeded(
            f"n={h.n} exceeds the homology limit {lim}; raise the limit explicitly to run anyway"
        )
    faces = [w for w in range(1 << h.n) if all(e & ~w for e in h.edges)]
    return SimplicialComplex(h.labels, frozenset(faces))


def reduced_homology_dims(cx: SimplicialComplex, pivot: str = "first", cone_shortcut: bool = True) -> list[int]:
    """Reduced rational homology dimensions of a complex, degrees -1
    through dim; [] for the void complex."""
    return homology_dims_from_masks(sorted(cx.faces), pivot, cone_shortcut)


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
    restricted to B."""
    out: list[tuple[int, int, int]] = []
    for edges, bmask in task:
        size = bmask.bit_count()
        dims = homology_dims_from_masks(_restriction_faces(bmask, edges))
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
    lim = DEFAULT_HOMOLOGY_LIMIT if limit is None else limit
    if h.n > lim:
        raise LimitExceeded(
            f"n={h.n} exceeds the homology limit {lim}; raise the limit explicitly to run anyway"
        )
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
