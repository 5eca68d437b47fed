"""Invariance under vertex relabelling.

A relabelling moves vertex v to position perm[v]. Every invariant that
counts subsets by size is unchanged by it, and the multigraded Betti
table is carried along by the same map. On the deck side, the summed
card polynomials do not see the cards' labels or their order, so S and
P are reconstructed from a deck whose cards were relabelled one by one
and shuffled.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from hgpoly.enumeration import edge_family_poly, edge_induced_poly, vertex_family_poly, vertex_induced_poly
from hgpoly.hypergraph import Hypergraph, mask_indices
from hgpoly.reconstruct import reconstruct_edge_poly, reconstruct_vertex_poly
from hgpoly.stanley_reisner import sr_invariants

from .strategies import hypergraphs, reconstructible_hypergraphs


def _move(mask: int, perm: list[int]) -> int:
    return sum(1 << perm[v] for v in mask_indices(mask))


def _relabel(h: Hypergraph, perm: list[int]) -> Hypergraph:
    return Hypergraph.from_masks(h.labels, [_move(e, perm) for e in h.edges])


@settings(max_examples=40, deadline=None)
@given(hypergraphs(), st.data())
def test_invariants_unchanged_by_relabelling(h, data):
    perm = data.draw(st.permutations(range(h.n)))
    inv, moved = sr_invariants(h), sr_invariants(_relabel(h, perm))
    assert moved.P == inv.P
    assert moved.S == inv.S
    assert moved.f == inv.f
    assert moved.h == inv.h
    assert moved.k_polynomial == inv.k_polynomial
    assert moved.hilbert_function(h.n + 2) == inv.hilbert_function(h.n + 2)
    assert moved.betti.graded == inv.betti.graded
    assert moved.betti.multigraded == {(i, _move(b, perm)): v for (i, b), v in inv.betti.multigraded.items()}


@settings(max_examples=40, deadline=None)
@given(reconstructible_hypergraphs(max_n=5, max_m=5), st.data())
def test_deck_sums_ignore_card_labels_and_order(h, data):
    cards = [_relabel(card, data.draw(st.permutations(range(card.n)))) for card in h.deck().cards]
    cards = data.draw(st.permutations(cards))
    s_sum, p_sum = edge_family_poly(cards), vertex_family_poly(cards)
    assert s_sum == edge_family_poly(h.deck().cards)
    assert p_sum == vertex_family_poly(h.deck().cards)
    assert reconstruct_edge_poly(s_sum, h.n) == edge_induced_poly(h)
    assert reconstruct_vertex_poly(p_sum, h.n) == vertex_induced_poly(h)
