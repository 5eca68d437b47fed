"""Rebuilding invariants from the vertex-deleted deck.

A subhypergraph spanning i < n vertices survives in exactly n - i of
the n cards, so summing a coefficient over the deck and dividing by
n - i recovers it. S, P, the f-vector and the Hilbert function are
therefore read from the sum of the card polynomials alone, which one
family sweep over the cards computes and which does not depend on the
cards' labels or order. The divisions must come out exact: a remainder
certifies that the input is not a genuine deck. The full-vertex row of
the edge-subset polynomial is not visible on any card; it is completed
from the column-sum identity (column j sums to C(m, j)), which is valid
because the excluded inputs guarantee every edge misses some vertex.

Excluded inputs: fewer than three vertices, no edges, and the single
edge covering every vertex. The latter two have identical decks, which
is exactly why they are excluded.
"""

from __future__ import annotations

from math import comb

from .bipoly import BiPoly, expand_series, to_edge_form, to_vertex_form
from .enumeration import edge_family_poly, vertex_family_poly
from .errors import (
    InconsistentDeck,
    NegativeTopCoefficient,
    NoEdges,
    NonIntegerCoefficient,
    PathsDisagree,
    SingleSpanningEdge,
    TooFewVertices,
)
from .homology import (
    BettiTable,
    restriction_betti,
    _check_homology_limit,
    _edge_union_closure,
)
from .hypergraph import Deck, Hypergraph
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


def _divide_card_sum(card_sum: BiPoly, n: int) -> dict[tuple[int, int], int]:
    """The parent's terms below the full vertex set: each (i, j) term of
    the summed card polynomial divided exactly by n - i. Every card holds
    the empty subset once, so the constant term must be n."""
    _check_n(n)
    total = card_sum.terms
    const = total.pop((0, 0), 0)
    if const != n:
        raise InconsistentDeck(
            f"card constant terms sum to {const}, but a genuine {n}-card deck sums to {n}"
        )
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


def reconstruct_edge_poly(card_sum: BiPoly, n: int) -> BiPoly:
    """Edge-subset polynomial of the parent from the sum of its n cards'
    edge-subset polynomials: rows i < n by exact division, the edge count
    from the single-edge column, and the i = n row from the column sums."""
    theta = _divide_card_sum(card_sum, n)
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


def reconstruct_vertex_poly(card_sum: BiPoly, n: int) -> BiPoly:
    """Vertex-subset polynomial of the parent from the sum of its n
    cards' vertex polynomials. The full-vertex row is the single term for
    the whole vertex set inducing all m edges, with m taken from the
    edge-route reconstruction; the result must agree with transforming
    the sum to edge form (the transform is linear), reconstructing there,
    and transforming back."""
    beta = _divide_card_sum(card_sum, n)
    edge_rec = reconstruct_edge_poly(to_edge_form(card_sum, n - 1), n)
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
    an independent l-set survives in n - l cards, so the counts are the
    j = 0 terms of the cards' summed vertex polynomial, divided exactly
    like the other terms."""
    n = deck.origin_n
    _check_n(n)
    if all(card.m == 0 for card in deck.cards):
        raise NoEdges(_EDGELESS_DECK)
    faces = {i: c for (i, j), c in _divide_card_sum(vertex_family_poly(deck.cards, limit), n).items() if not j}
    return tuple(faces.get(l, 0) for l in range(max(faces) + 1))


def reconstruct_hilbert_function(deck: Deck, k_max: int, limit: int | None = None) -> list[int]:
    """Hilbert function of the parent's quotient ring from the deck.

    Primary route: reconstruct the edge-subset polynomial from the cards'
    summed one, specialize at y = -1, expand over (1-t)^n. Verification
    route: the deck identity n*H(t) = t(1-t)H'(t) + sum of card Hilbert
    series, checked coefficientwise to k_max; the expansion is linear, so
    the cards' series sum to that of the summed polynomial. The routes
    must agree.
    """
    n = deck.origin_n
    card_sum = edge_family_poly(deck.cards, limit)
    values = expand_series(reconstruct_edge_poly(card_sum, n).eval_y(-1), n, k_max)
    card_values = expand_series(card_sum.eval_y(-1), n - 1, k_max)
    for k in range(k_max + 1):
        lhs = n * values[k]
        deriv = k * values[k] - (k - 1) * values[k - 1] if k else 0
        rhs = deriv + card_values[k]
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
