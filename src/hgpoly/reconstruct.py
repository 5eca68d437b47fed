"""Rebuilding invariants from the vertex-deleted deck.

A subhypergraph spanning i < n vertices survives in exactly n - i of
the n cards, so summing a coefficient over the deck and dividing by
n - i recovers it. The divisions must come out exact: a remainder
certifies that the input is not a genuine deck. The full-vertex row of
the edge-subset polynomial is not visible on any card; it is completed
from the column-sum identity (column j sums to C(m, j)), which is valid
because the excluded inputs guarantee every edge misses some vertex.

Excluded inputs: fewer than three vertices, no edges, and the single
edge covering every vertex. The latter two have identical decks, which
is exactly why they are excluded.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb

from .bipoly import BiPoly, UniPoly, expand_series, to_edge_form, to_vertex_form
from .enumeration import edge_family_poly, edge_induced_poly, independence_poly, vertex_family_poly
from .errors import (
    InconsistentDeck,
    InternalMismatch,
    LengthMismatch,
    NegativeTopCoefficient,
    NoEdges,
    NonIntegerCoefficient,
    PathsDisagree,
    SingleSpanningEdge,
    TooFewVertices,
)
from .homology import (
    BettiTable,
    pd_reg_depth,
    restriction_betti,
    _check_homology_limit,
    _edge_union_closure,
)
from .hypergraph import Deck, Frozen, Hypergraph
from .stanley_reisner import SRInvariants

_EDGELESS_DECK = (
    "the deck implies an edgeless parent (or a single spanning edge, "
    "which has the same deck); not reconstructible"
)


def _check_n(n: int) -> None:
    if n < 3:
        raise TooFewVertices(f"reconstruction needs n >= 3, got n={n}")


def check_reconstructible(h: Hypergraph) -> None:
    """Reject the inputs whose deck cannot determine them: fewer than
    three vertices, no edges, or one edge covering every vertex."""
    _check_n(h.n)
    if h.m == 0:
        raise NoEdges("an edgeless hypergraph is not reconstructible")
    if h.m == 1 and h.edges[0] == h.full_mask:
        raise SingleSpanningEdge(
            "a single edge covering all vertices is not reconstructible"
        )


def verify_deck_sum_identity(inv: SRInvariants, which: str = "edge") -> bool:
    """Check n*F = x*dF/dx + sum of card polynomials, for F the bundle's
    edge-subset polynomial S or vertex-subset polynomial P. The cards
    of the bundle's deck, with their own relabelled edge masks, are
    swept afresh as one family under its limit, and their summed terms
    must be (n - i)*F[i, j] at every (i, j)."""
    h = inv.hypergraph
    check_reconstructible(h)
    if which == "edge":
        f, sweep = inv.S, edge_family_poly
    elif which == "vertex":
        f, sweep = inv.P, vertex_family_poly
    else:
        raise ValueError(f"which must be 'edge' or 'vertex', got {which!r}")
    n = h.n
    expected = {(i, j): (n - i) * c for (i, j), c in f.terms.items() if i < n}
    return sweep(inv.deck.cards, inv.limit).terms == expected


def _deck_coefficient_sums(deck_polys: Sequence[BiPoly], n: int) -> dict[tuple[int, int], int]:
    _check_n(n)
    if len(deck_polys) != n:
        raise LengthMismatch(f"expected {n} card polynomials, got {len(deck_polys)}")
    total: dict[tuple[int, int], int] = {}
    for p in deck_polys:
        for e, c in p.terms.items():
            total[e] = total.get(e, 0) + c
    const = total.pop((0, 0), 0)
    if const != n:
        raise InconsistentDeck(
            f"card constant terms sum to {const}, but a genuine {n}-card deck sums to {n}"
        )
    return total


def _divide_card_sums(total: dict[tuple[int, int], int], n: int) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {(0, 0): 1}
    for (i, j), s in sorted(total.items()):
        if i >= n:
            raise InconsistentDeck(
                f"cards carry an x-degree {i} term, impossible for cards on {n - 1} vertices"
            )
        q, r = divmod(s, n - i)
        if r:
            raise NonIntegerCoefficient(
                f"coefficient sum {s} at (i={i}, j={j}) is not divisible by n-i={n - i}; "
                f"the input is not a genuine deck"
            )
        if q:
            out[(i, j)] = q
    return out


def reconstruct_edge_poly(deck_polys: Sequence[BiPoly], n: int) -> BiPoly:
    """Edge-subset polynomial of the parent from the cards' edge-subset
    polynomials: rows i < n by exact division, the edge count from the
    single-edge column, and the i = n row from the column sums."""
    total = _deck_coefficient_sums(deck_polys, n)
    theta = _divide_card_sums(total, n)
    m = sum(c for (i, j), c in theta.items() if j == 1)
    if m == 0:
        raise NoEdges(_EDGELESS_DECK)
    max_j = max(m, max(j for _, j in theta))
    for j in range(1, max_j + 1):
        col = sum(c for (i, jj), c in theta.items() if jj == j and i < n)
        top = comb(m, j) - col
        if top < 0:
            raise NegativeTopCoefficient(
                f"column j={j} sums to {col}, above its total {comb(m, j)}; "
                f"the input is not a genuine deck"
            )
        if top:
            theta[(n, j)] = top
    return BiPoly(theta)


def reconstruct_vertex_poly(deck_polys: Sequence[BiPoly], n: int) -> BiPoly:
    """Vertex-subset polynomial of the parent from the cards' vertex
    polynomials. The full-vertex row is the single term for the whole
    vertex set inducing all m edges, with m taken from the edge-route
    reconstruction; the result must agree with transforming the deck to
    edge form, reconstructing there, and transforming back."""
    total = _deck_coefficient_sums(deck_polys, n)
    beta = _divide_card_sums(total, n)
    edge_rec = reconstruct_edge_poly([to_edge_form(p, n - 1) for p in deck_polys], n)
    m = sum(c for (i, j), c in edge_rec.terms.items() if j == 1)
    beta[(n, m)] = beta.get((n, m), 0) + 1
    direct = BiPoly(beta)
    via_transform = to_vertex_form(edge_rec, n)
    if direct != via_transform:
        raise PathsDisagree(
            "vertex-polynomial reconstruction differs between the direct route "
            f"and the transform route: {direct!r} vs {via_transform!r}"
        )
    return direct


def reconstruct_f_vector(deck: Deck, limit: int | None = None) -> tuple[int, ...]:
    """Face counts of the parent's independence complex from the cards:
    an independent l-set survives in n - l cards, so the cards' counts
    go through the same exact division as the polynomials, as j = 0
    terms."""
    n = deck.origin_n
    _check_n(n)
    if all(card.m == 0 for card in deck.cards):
        raise NoEdges(_EDGELESS_DECK)
    card_f = [
        BiPoly({(l, 0): c for l, c in enumerate(independence_poly(card, limit).coeffs)})
        for card in deck.cards
    ]
    faces = _divide_card_sums(_deck_coefficient_sums(card_f, n), n)
    return tuple(faces.get((l, 0), 0) for l in range(max(faces)[0] + 1))


def reconstruct_hilbert_function(deck: Deck, k_max: int, limit: int | None = None) -> list[int]:
    """Hilbert function of the parent's quotient ring from the deck.

    Primary route: reconstruct the edge-subset polynomial, specialize at
    y = -1, expand over (1-t)^n. Verification route: the deck identity
    n*H(t) = t(1-t)H'(t) + sum of card Hilbert series, checked
    coefficientwise to k_max. The routes must agree.
    """
    n = deck.origin_n
    card_s = [edge_induced_poly(c, limit) for c in deck.cards]
    s_rec = reconstruct_edge_poly(card_s, n)
    values = expand_series(s_rec.eval_y(-1), n, k_max)
    card_values = [expand_series(s.eval_y(-1), n - 1, k_max) for s in card_s]
    for k in range(k_max + 1):
        lhs = n * values[k]
        deriv = k * values[k] - (k - 1) * values[k - 1] if k else 0
        rhs = deriv + sum(cv[k] for cv in card_values)
        if lhs != rhs:
            raise PathsDisagree(
                f"reconstructed Hilbert values fail the deck differential identity "
                f"at degree {k}: {lhs} vs {rhs}"
            )
    return values


def reconstruct_multigraded_betti(deck: Deck, limit: int | None = None) -> BettiTable:
    """Partial multigraded Betti table from the deck: every entry with
    B a proper vertex subset, computed on one edge set, the union of
    all cards' edges.

    That union is enough: B misses some vertex l, and card l holds
    exactly the edges of the other cards that avoid l (the deck was
    checked for consistency when it was built), so card l's edges
    inside B, like the parent's, are exactly the union's edges inside
    B. The independent sets are thus enumerated once, not once per
    card. Entries with B the full vertex set are not deck-visible, so
    the returned table has top_complete False."""
    n = deck.origin_n
    _check_n(n)
    _check_homology_limit(n, limit)
    edges = tuple(sorted(set().union(*deck.parent_edges)))
    if not edges:
        raise NoEdges(_EDGELESS_DECK)
    full = (1 << n) - 1
    bmasks = [bmask for bmask in _edge_union_closure(edges) if bmask and bmask != full]
    return BettiTable(deck.parent_labels, restriction_betti(edges, bmasks), top_complete=False)


class TopBettiReport(Frozen):
    """Whether the full-vertex-set row of the Betti table is pinned down
    by the top coefficient of the Hilbert series numerator: it is when
    at most one entry in that row is nonzero, and then the homological
    invariants derived from the table are deck-reconstructible too."""

    def __init__(self, n: int, top_coefficient: int, top_entries: dict[int, int], determined: bool,
                 projective_dimension: int, regularity: int, depth: int) -> None:
        self._freeze(n=n, top_coefficient=top_coefficient, top_entries=top_entries, determined=determined,
                     projective_dimension=projective_dimension, regularity=regularity, depth=depth)


def top_betti_report(table: BettiTable, kpoly: UniPoly) -> TopBettiReport:
    """Compare the full-vertex-set row of a complete Betti table with the
    top coefficient of kpoly, the Hilbert series numerator."""
    n = table.n
    c_top = kpoly.coeff(n)
    tops = {i: b for (i, j), b in sorted(table.graded.items()) if j == n}
    determined = len(tops) <= 1
    if len(tops) == 1:
        ((_, b),) = tops.items()
        if b != abs(c_top):
            raise InternalMismatch(
                f"single top entry {b} does not match the numerator coefficient {c_top}"
            )
    pd, reg, depth = pd_reg_depth(table, n)
    return TopBettiReport(
        n=n,
        top_coefficient=c_top,
        top_entries=tops,
        determined=determined,
        projective_dimension=pd,
        regularity=reg,
        depth=depth,
    )
