"""Rebuilding invariants from the vertex-deleted deck.

A subhypergraph spanning i < n vertices survives in exactly n - i of
the n cards, so summing a coefficient over the deck and dividing by
n - i recovers it. S and P are therefore read from the sum of the
card polynomials alone, which one family sweep over the cards computes
and which does not depend on the cards' labels or order;
``DeckInvariants`` is the bundle of the deck's parent with these in
place of its sweeps. The divisions must come out exact: a remainder
certifies that the summed polynomial is not a genuine deck's. The cards
of a hypergraph always sum to one, so ``DeckInvariants`` raises
InternalMismatch instead. The full-vertex row of the edge-subset
polynomial is not visible on any card; it is completed from the
column-sum identity (column j sums to C(m, j)), which is valid because
the excluded inputs guarantee every edge misses some vertex.

Excluded inputs: fewer than three vertices, no edges, and the single
edge covering every vertex. The latter two have identical decks, which
is exactly why they are excluded. ``check_reconstructible`` refuses a
hypergraph, the exact division a caller's card sum, and
``DeckInvariants`` a deck, from its parent, before any card is swept.
"""

from __future__ import annotations

from functools import cached_property
from math import comb

from .bipoly import BiPoly, to_edge_form, to_vertex_form
from .enumeration import DEFAULT_LIMIT, edge_family_poly, vertex_family_poly
from .errors import InputError, InternalMismatch, NotReconstructible
from .homology import DEFAULT_HOMOLOGY_LIMIT, BettiTable, hochster_betti
from .hypergraph import Hypergraph
from .stanley_reisner import SRInvariants

_EDGELESS_DECK = (
    "the deck implies an edgeless parent (or a single spanning edge, "
    "which has the same deck); not reconstructible"
)


def _check_n(n: int) -> None:
    if n < 3:
        raise NotReconstructible(f"reconstruction needs n >= 3, got n={n}")


def check_reconstructible(h: Hypergraph) -> None:
    """Reject the inputs whose deck cannot determine them: fewer than
    three vertices, no edges, or one edge covering every vertex."""
    _check_n(h.n)
    if h.m == 0:
        raise NotReconstructible("an edgeless hypergraph is not reconstructible")
    if h.m == 1 and h.edges[0] == h.full_mask:
        raise NotReconstructible(
            "a single edge covering all vertices is not reconstructible"
        )


def verify_deck_sum_identity(inv: SRInvariants) -> bool:
    """Check n*F = x*dF/dx + sum of card polynomials for S, then P, once
    the input is reconstructible and its reads fit (no card's m exceeds
    its own). The parent's cards (cut from it, so nothing checks them)
    are swept once, as one edge-side family under its limit. Their
    summed terms must be (n - i)*S[i, j] at every i but the invisible n
    (so a parent term above n fails); only then is their summed P, the
    linear transform of that sum on n - 1 vertices, held to
    (n - i)*P[i, j], so a sum too wide for n - 1 vertices fails as S."""
    check_reconstructible(inv.hypergraph)
    inv.check(("S", "P"))
    n = inv.n
    want_s, want_p = ({(i, j): (n - i) * c for (i, j), c in f.terms.items() if i != n} for f in (inv.S, inv.P))
    card_s = edge_family_poly(inv.hypergraph.cards, inv.limit)
    return card_s.terms == want_s and to_vertex_form(card_s, n - 1).terms == want_p


def _divide_card_sum(card_sum: BiPoly, n: int) -> dict[tuple[int, int], int]:
    """The parent's terms below the full vertex set: each (i, j) term of
    the summed card polynomial divided exactly by n - i. Every card holds
    the empty subset once, so the constant term must be n. Refuses the
    excluded decks: n < 3, and a sum with no term holding an edge."""
    _check_n(n)
    total = card_sum.terms
    const = total.pop((0, 0), 0)
    if const != n:
        raise InputError(
            f"card constant terms sum to {const}, but a genuine {n}-card deck sums to {n}"
        )
    out: dict[tuple[int, int], int] = {(0, 0): 1}
    for (i, j), s in sorted(total.items()):
        if i >= n:
            raise InputError(
                f"cards carry an x-degree {i} term, impossible for cards on {n - 1} vertices"
            )
        q, r = divmod(s, n - i)
        if r:
            raise InputError(
                f"coefficient sum {s} at (i={i}, j={j}) is not divisible by n-i={n - i}; "
                f"the input is not a genuine deck"
            )
        if q:
            out[(i, j)] = q
    if not any(j for _, j in out):
        raise NotReconstructible(_EDGELESS_DECK)
    return out


def reconstruct_edge_poly(card_sum: BiPoly, n: int) -> BiPoly:
    """Edge-subset polynomial of the parent from the sum of its n cards'
    edge-subset polynomials: rows i < n by exact division, the edge count
    from the single-edge column, and the i = n row from the column sums."""
    theta = _divide_card_sum(card_sum, n)
    m = sum(c for (i, j), c in theta.items() if j == 1)
    max_j = max(m, max(j for _, j in theta))
    for j in range(1, max_j + 1):
        col = sum(c for (i, jj), c in theta.items() if jj == j and i < n)
        top = comb(m, j) - col
        if top < 0:
            raise InputError(
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
    and transforming back, or the sum is not a genuine deck's."""
    beta = _divide_card_sum(card_sum, n)
    edge_rec = reconstruct_edge_poly(to_edge_form(card_sum, n - 1), n)
    m = sum(c for (i, j), c in edge_rec.terms.items() if j == 1)
    beta[(n, m)] = beta.get((n, m), 0) + 1
    direct = BiPoly(beta)
    via_transform = to_vertex_form(edge_rec, n)
    if direct != via_transform:
        raise InputError(
            "vertex-polynomial reconstruction differs between the direct route "
            f"and the transform route: {direct!r} vs {via_transform!r}; the input is not a genuine deck"
        )
    return direct


def _rebuilt(rebuild, card_sum: BiPoly, n: int) -> BiPoly:
    """rebuild(card_sum, n) for the cards of a parent, an antichain,
    already checked as reconstructible: any refusal is a bug."""
    try:
        return rebuild(card_sum, n)
    except InputError as exc:
        raise InternalMismatch(f"the sum of a checked deck's cards is refused: {exc}") from exc


class DeckInvariants(SRInvariants):
    """The bundle of a deck's parent with P and S rebuilt from the summed
    cards and the Betti table below the top row; all else is derived as
    for a hypergraph, so identity 3.2 guards the Hilbert function, and P
    and S charge the cards. An excluded deck is refused from its parent,
    whatever the limits; a lone spanning edge has the edgeless deck."""

    def __init__(self, parent: Hypergraph, limit: int = DEFAULT_LIMIT, homology_limit: int = DEFAULT_HOMOLOGY_LIMIT):
        _check_n(parent.n)
        if parent.edges in ((), (parent.full_mask,)):
            raise NotReconstructible(_EDGELESS_DECK)
        super().__init__(parent, limit, homology_limit)

    _swept = property(lambda self: self.hypergraph.cards)

    @cached_property
    def P(self) -> BiPoly:
        return _rebuilt(reconstruct_vertex_poly, vertex_family_poly(self.hypergraph.cards, self.limit), self.n)

    @cached_property
    def S(self) -> BiPoly:
        return _rebuilt(reconstruct_edge_poly, edge_family_poly(self.hypergraph.cards, self.limit), self.n)

    @cached_property
    def betti(self) -> BettiTable:
        """The parent's table, checked whole by hochster_betti, less its
        B = V entries, which no card sees."""
        parent = self.hypergraph
        table = hochster_betti(parent, self.homology_limit)
        below = {key: b for key, b in table.multigraded.items() if key[1] != parent.full_mask}
        return BettiTable(parent.labels, below, top_complete=False)
