from __future__ import annotations

import pytest
from hypothesis import given, settings

from hgpoly.bipoly import BiPoly
from hgpoly.cli import _report_for, build_parser
from hgpoly.enumeration import edge_family_poly, edge_induced_poly, vertex_family_poly, vertex_induced_poly
from hgpoly.errors import (
    InconsistentDeck,
    NegativeTopCoefficient,
    NoEdges,
    NonIntegerCoefficient,
    NotReconstructible,
    SingleSpanningEdge,
    TooFewVertices,
)
from hgpoly.homology import hochster_betti
from hgpoly.hypergraph import Deck, Hypergraph, validate
from hgpoly.reconstruct import (
    _EDGELESS_DECK,
    check_reconstructible,
    reconstruct_edge_poly,
    reconstruct_f_vector,
    reconstruct_hilbert_function,
    reconstruct_multigraded_betti,
    reconstruct_vertex_poly,
    verify_deck_sum_identity,
)
from hgpoly.stanley_reisner import SRInvariants, f_vector, hilbert_function
from hgpoly.corpus import cycle_graph, wheel

from .strategies import reconstructible_hypergraphs


def cycle_chord(u: int, v: int) -> Hypergraph:
    """The 10-cycle plus the chord uv."""
    c = cycle_graph(10)
    return Hypergraph.from_masks(c.labels, list(c.edges) + [(1 << u) | (1 << v)])


class TestExclusions:
    def test_k3_passes(self, k3):
        check_reconstructible(k3)

    def test_too_few_vertices(self):
        h = validate(["a", "b"], [["a", "b"]])
        with pytest.raises(TooFewVertices):
            check_reconstructible(h)

    def test_no_edges(self):
        h = validate(list("abcde"), [])
        with pytest.raises(NoEdges):
            check_reconstructible(h)

    def test_single_spanning_edge(self):
        h = validate(["a", "b", "c"], [["a", "b", "c"]])
        with pytest.raises(SingleSpanningEdge):
            check_reconstructible(h)

    def test_spanning_edge_among_smaller_is_impossible(self):
        # the antichain invariant itself forbids a full edge next to others,
        # so the single-spanning-edge test only needs m == 1
        from hgpoly.errors import AntichainViolation

        with pytest.raises(AntichainViolation):
            validate(["a", "b", "c"], [["a", "b", "c"], ["a", "b"]])


class TestDeckSumIdentity:
    def test_k3_both_polynomials(self, k3):
        assert verify_deck_sum_identity(SRInvariants(k3), "edge")
        assert verify_deck_sum_identity(SRInvariants(k3), "vertex")

    def test_rejects_unknown_kind(self, k3):
        with pytest.raises(ValueError):
            verify_deck_sum_identity(SRInvariants(k3), "both")

    def test_propagates_exclusions(self, edgeless3):
        with pytest.raises(NoEdges):
            verify_deck_sum_identity(SRInvariants(edgeless3), "edge")


class TestReconstructEdgePoly:
    def test_k3_from_frozen_cards(self):
        card = BiPoly({(0, 0): 1, (2, 1): 1})
        got = reconstruct_edge_poly(BiPoly({e: 3 * c for e, c in card.terms.items()}), 3)
        assert got == BiPoly({(0, 0): 1, (2, 1): 3, (3, 2): 3, (3, 3): 1})

    def test_path3(self, path3):
        card_sum = edge_family_poly(path3.deck().cards)
        assert reconstruct_edge_poly(card_sum, 3) == BiPoly({(0, 0): 1, (2, 1): 2, (3, 2): 1})

    def test_wrong_length(self):
        # two cards for a 3-vertex parent: each card's empty subset adds 1
        with pytest.raises(InconsistentDeck, match="card constant terms sum to 2"):
            reconstruct_edge_poly(BiPoly({(0, 0): 2}), 3)

    def test_too_few_vertices(self):
        with pytest.raises(TooFewVertices):
            reconstruct_edge_poly(BiPoly({(0, 0): 2}), 2)

    def test_edgeless_deck_rejected(self):
        with pytest.raises(NoEdges):
            reconstruct_edge_poly(BiPoly({(0, 0): 4}), 4)

    def test_perturbed_coefficient_breaks_divisibility(self):
        # parent: path on 4 vertices; bump the deck sum's (2,1) count so
        # it is no longer divisible by n-i=2
        h = validate(list("abcd"), [["a", "b"], ["b", "c"], ["c", "d"]])
        card_sum = BiPoly([*edge_family_poly(h.deck().cards).terms.items(), ((2, 1), 1)])
        with pytest.raises(NonIntegerCoefficient) as exc:
            reconstruct_edge_poly(card_sum, 4)
        assert "i=2" in str(exc.value)

    def test_perturbed_constant_detected(self, k3):
        card_sum = BiPoly([*edge_family_poly(k3.deck().cards).terms.items(), ((0, 0), 1)])
        with pytest.raises(InconsistentDeck):
            reconstruct_edge_poly(card_sum, 3)

    def test_overfull_column_goes_negative(self):
        # each fake card claims far more 2-edge subsets than m=3 edges allow
        fake = BiPoly({(0, 0): 1, (2, 1): 1, (2, 2): 7})
        with pytest.raises(NegativeTopCoefficient):
            reconstruct_edge_poly(BiPoly({e: 3 * c for e, c in fake.terms.items()}), 3)


class TestReconstructVertexPoly:
    def test_k3(self, k3):
        card_sum = vertex_family_poly(k3.deck().cards)
        assert reconstruct_vertex_poly(card_sum, 3) == vertex_induced_poly(k3)

    def test_path3(self, path3):
        card_sum = vertex_family_poly(path3.deck().cards)
        expected = BiPoly({(0, 0): 1, (1, 0): 3, (2, 0): 1, (2, 1): 2, (3, 2): 1})
        assert reconstruct_vertex_poly(card_sum, 3) == expected


class TestReconstructFVector:
    def test_k3(self, k3):
        assert reconstruct_f_vector(k3.deck()) == (1, 3)

    def test_path3(self, path3):
        assert reconstruct_f_vector(path3.deck()) == (1, 3, 1)

    def test_edgeless_deck_rejected(self, edgeless3):
        with pytest.raises(NoEdges):
            reconstruct_f_vector(edgeless3.deck())

    def test_vertex_count_checked_before_edges(self):
        with pytest.raises(TooFewVertices):
            reconstruct_f_vector(validate(["a", "b"], []).deck())


class TestReconstructHilbert:
    def test_k3(self, k3):
        assert reconstruct_hilbert_function(k3.deck(), 4) == [1, 3, 3, 3, 3]

    def test_small_deck_rejected(self):
        h = validate(["a", "b"], [["a", "b"]])
        with pytest.raises(TooFewVertices):
            reconstruct_hilbert_function(h.deck(), 4)


EXCLUDED_DECKS = {
    "edgeless3": (validate(list("abc"), []), NoEdges, _EDGELESS_DECK),
    "two-vertex": (validate(["a", "b"], [["a", "b"]]), TooFewVertices, "reconstruction needs n >= 3, got n=2"),
}

POLY_TARGETS = {
    "S": lambda deck: reconstruct_edge_poly(edge_family_poly(deck.cards), deck.origin_n),
    "P": lambda deck: reconstruct_vertex_poly(vertex_family_poly(deck.cards), deck.origin_n),
    "fvector": reconstruct_f_vector,
    "hilbert": lambda deck: reconstruct_hilbert_function(deck, 4),
}


@pytest.mark.parametrize("target", sorted(POLY_TARGETS))
@pytest.mark.parametrize("parent", sorted(EXCLUDED_DECKS))
def test_excluded_deck_refused_by_every_polynomial_target(parent, target):
    h, error, message = EXCLUDED_DECKS[parent]
    with pytest.raises(error) as exc:
        POLY_TARGETS[target](h.deck())
    assert type(exc.value) is error and str(exc.value) == message


class TestReconstructBetti:
    def test_k3_partial_table(self, k3):
        table = reconstruct_multigraded_betti(k3.deck())
        assert not table.top_complete
        assert table.graded == {(0, 0): 1, (1, 2): 3}  # the (2,3) top entry is unknowable

    def test_matches_direct_below_top(self, corpus):
        for _, h in corpus:
            try:
                check_reconstructible(h)
            except NotReconstructible:
                continue
            direct = hochster_betti(h)
            rec = reconstruct_multigraded_betti(h.deck())
            full = (1 << h.n) - 1
            expected = {k: v for k, v in direct.multigraded.items() if k[1] != full}
            assert rec.multigraded == expected

    def test_card_from_another_deck_rejected(self):
        # same labels on every card, so only the edges give the forgery away
        genuine, other = cycle_chord(0, 5), cycle_chord(2, 7)
        cards = list(genuine.deck().cards)
        cards[5] = other.deck().cards[5]
        with pytest.raises(InconsistentDeck, match="on card 5 but not on card 0"):
            reconstruct_multigraded_betti(Deck(genuine.labels, tuple(cards)))


REPORT_ARGS = build_parser().parse_args(["report", "--input", "-"])


def top_betti(h: Hypergraph) -> dict:
    return _report_for(h, REPORT_ARGS)["top_betti"]


class TestTopBettiReport:
    def test_k3_determined(self, k3):
        assert top_betti(k3) == {"top_coefficient": "2", "entries": [[2, 2]], "determined": True}

    def test_edgeless_trivially_determined(self, edgeless3):
        assert top_betti(edgeless3) == {"top_coefficient": "0", "entries": [], "determined": True}

    def test_wheel_not_determined(self):
        # the alternating sum cancels, so the top row cannot be read off
        assert top_betti(wheel(5)) == {"top_coefficient": "0", "entries": [[4, 1], [5, 1]], "determined": False}


@settings(max_examples=40, deadline=None)
@given(reconstructible_hypergraphs(max_n=5, max_m=5))
def test_roundtrip_properties(h):
    deck = h.deck()
    assert reconstruct_edge_poly(edge_family_poly(deck.cards), h.n) == edge_induced_poly(h)
    assert reconstruct_vertex_poly(vertex_family_poly(deck.cards), h.n) == vertex_induced_poly(h)
    assert reconstruct_f_vector(deck) == f_vector(h)
    assert reconstruct_hilbert_function(deck, h.n + 2) == hilbert_function(h, h.n + 2)


@settings(max_examples=40, deadline=None)
@given(reconstructible_hypergraphs(max_n=5, max_m=5))
def test_derived_invariants_from_reconstructed_f(h):
    from hgpoly.stanley_reisner import h_vector

    inv = SRInvariants(h)
    rec_f = reconstruct_f_vector(h.deck())
    assert len(rec_f) - 1 == inv.krull_dim
    assert rec_f[-1] == inv.multiplicity
    assert h_vector(rec_f) == inv.h


@settings(max_examples=40, deadline=None)
@given(reconstructible_hypergraphs(max_n=5, max_m=5))
def test_deck_constant_bookkeeping(h):
    # each card contributes exactly one empty edge subset
    total = sum(edge_induced_poly(c).coeff(0, 0) for c in h.deck().cards)
    assert total == h.n


@settings(max_examples=40, deadline=None)
@given(reconstructible_hypergraphs(max_n=5, max_m=5))
def test_deck_sum_identity_holds(h):
    assert verify_deck_sum_identity(SRInvariants(h), "edge")
    assert verify_deck_sum_identity(SRInvariants(h), "vertex")
