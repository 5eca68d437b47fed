from __future__ import annotations

import re

import pytest
from hypothesis import given, settings

from hgpoly.bipoly import BiPoly
from hgpoly import reconstruct
from hgpoly.cli import _report_for, build_parser, main
from hgpoly.enumeration import edge_family_poly, edge_induced_poly, vertex_family_poly, vertex_induced_poly
from hgpoly.errors import InputError, NotReconstructible
from hgpoly.formats import dump_hypergraph_json
from hgpoly.homology import hochster_betti
from hgpoly.hypergraph import Deck, Hypergraph, validate
from hgpoly.reconstruct import (
    _EDGELESS_DECK,
    DeckInvariants,
    check_reconstructible,
    reconstruct_edge_poly,
    reconstruct_vertex_poly,
    verify_deck_sum_identity,
)
from hgpoly.stanley_reisner import SRInvariants

from .families import cycle_graph, path_graph, wheel
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
        with pytest.raises(NotReconstructible, match="^reconstruction needs n >= 3, got n=2$"):
            check_reconstructible(h)

    def test_no_edges(self):
        h = validate(list("abcde"), [])
        with pytest.raises(NotReconstructible, match="^an edgeless hypergraph is not reconstructible$"):
            check_reconstructible(h)

    def test_single_spanning_edge(self):
        h = validate(["a", "b", "c"], [["a", "b", "c"]])
        with pytest.raises(NotReconstructible, match="^a single edge covering all vertices is not reconstructible$"):
            check_reconstructible(h)

    def test_spanning_edge_among_smaller_is_impossible(self):
        # the antichain invariant itself forbids a full edge next to others,
        # so the single-spanning-edge test only needs m == 1
        with pytest.raises(InputError, match=r"^edge \{a, b\} is contained in edge \{a, b, c\}$"):
            validate(["a", "b", "c"], [["a", "b", "c"], ["a", "b"]])


class TestDeckSumIdentity:
    def test_k3_both_polynomials(self, k3):
        assert verify_deck_sum_identity(SRInvariants(k3))

    def test_propagates_exclusions(self, edgeless3):
        with pytest.raises(NotReconstructible, match="^an edgeless hypergraph is not reconstructible$"):
            verify_deck_sum_identity(SRInvariants(edgeless3))


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
        with pytest.raises(InputError, match="card constant terms sum to 2"):
            reconstruct_edge_poly(BiPoly({(0, 0): 2}), 3)

    def test_too_few_vertices(self):
        with pytest.raises(NotReconstructible, match="^reconstruction needs n >= 3, got n=2$"):
            reconstruct_edge_poly(BiPoly({(0, 0): 2}), 2)

    def test_edgeless_deck_rejected(self):
        with pytest.raises(NotReconstructible, match=re.escape(_EDGELESS_DECK)):
            reconstruct_edge_poly(BiPoly({(0, 0): 4}), 4)

    def test_perturbed_coefficient_breaks_divisibility(self):
        # parent: path on 4 vertices; bump the deck sum's (2,1) count so
        # it is no longer divisible by n-i=2
        h = validate(list("abcd"), [["a", "b"], ["b", "c"], ["c", "d"]])
        card_sum = BiPoly([*edge_family_poly(h.deck().cards).terms.items(), ((2, 1), 1)])
        with pytest.raises(InputError, match=r"is not divisible by n-i=2; the input is not a genuine deck$") as exc:
            reconstruct_edge_poly(card_sum, 4)
        assert "i=2" in str(exc.value)

    def test_perturbed_constant_detected(self, k3):
        card_sum = BiPoly([*edge_family_poly(k3.deck().cards).terms.items(), ((0, 0), 1)])
        with pytest.raises(InputError, match="^card constant terms sum to 4, but a genuine 3-card deck sums to 3$"):
            reconstruct_edge_poly(card_sum, 3)

    def test_term_on_every_vertex_refused(self, k3):
        # no card has n vertices, so no card subset can span n of them
        card_sum = BiPoly([*edge_family_poly(k3.deck().cards).terms.items(), ((3, 1), 1)])
        with pytest.raises(InputError, match="^cards carry an x-degree 3 term, impossible for cards on 2 vertices$"):
            reconstruct_edge_poly(card_sum, 3)

    def test_overfull_column_goes_negative(self):
        # each fake card claims far more 2-edge subsets than m=3 edges allow
        fake = BiPoly({(0, 0): 1, (2, 1): 1, (2, 2): 7})
        with pytest.raises(InputError, match="^column j=2 sums to 21, above its total 3; the input is not a genuine deck$"):
            reconstruct_edge_poly(BiPoly({e: 3 * c for e, c in fake.terms.items()}), 3)


class TestReconstructVertexPoly:
    def test_k3(self, k3):
        card_sum = vertex_family_poly(k3.deck().cards)
        assert reconstruct_vertex_poly(card_sum, 3) == vertex_induced_poly(k3)

    def test_path3(self, path3):
        card_sum = vertex_family_poly(path3.deck().cards)
        expected = BiPoly({(0, 0): 1, (1, 0): 3, (2, 0): 1, (2, 1): 2, (3, 2): 1})
        assert reconstruct_vertex_poly(card_sum, 3) == expected

    def test_forged_sum_that_divides_exactly_is_an_input_error(self):
        # (n - i) * x^i at i = 2 passes both exact divisions, but the direct
        # route and the transform route then disagree: the sum is no deck's
        card_sum = vertex_family_poly(path_graph(4).deck().cards)
        forged = BiPoly([*card_sum.terms.items(), ((2, 0), 2)])
        assert forged == BiPoly({(0, 0): 4, (1, 0): 12, (2, 0): 8, (2, 1): 6, (3, 1): 2, (3, 2): 2})
        with pytest.raises(InputError) as exc:
            reconstruct_vertex_poly(forged, 4)
        assert type(exc.value) is InputError
        assert str(exc.value) == (
            "vertex-polynomial reconstruction differs between the direct route and the transform route: "
            "BiPoly(1 + 4*x + 4*x^2 + 3*x^2*y + 2*x^3*y + 2*x^3*y^2 + x^4*y^3) vs "
            "BiPoly(1 + 4*x + 4*x^2 + 3*x^2*y + 2*x^3*y + 2*x^3*y^2 - x^4 + x^4*y^3); "
            "the input is not a genuine deck"
        )


class TestReconstructFVector:
    def test_k3(self, k3):
        assert DeckInvariants(k3.deck()).f == (1, 3)

    def test_path3(self, path3):
        assert DeckInvariants(path3.deck()).f == (1, 3, 1)

    def test_edgeless_deck_rejected(self, edgeless3):
        with pytest.raises(NotReconstructible, match=re.escape(_EDGELESS_DECK)):
            DeckInvariants(edgeless3.deck()).f

    def test_vertex_count_checked_before_edges(self):
        with pytest.raises(NotReconstructible, match="^reconstruction needs n >= 3, got n=2$"):
            DeckInvariants(validate(["a", "b"], []).deck()).f


class TestReconstructHilbert:
    def test_k3(self, k3):
        assert DeckInvariants(k3.deck()).hilbert_function(4) == [1, 3, 3, 3, 3]

    def test_small_deck_rejected(self):
        h = validate(["a", "b"], [["a", "b"]])
        with pytest.raises(NotReconstructible, match="^reconstruction needs n >= 3, got n=2$"):
            DeckInvariants(h.deck()).hilbert_function(4)


def test_perturbed_face_count_fails_identity_3_2_on_a_deck(k3, monkeypatch, tmp_path, capsys):
    # identity 3.2 guards a deck's Hilbert function as it guards a parent's:
    # one more independent vertex than K3 has, f = (1, 4) against K(t) = 1 - 3t^2 + 2t^3
    def perturbed(card_sum, n):
        return BiPoly([*reconstruct_vertex_poly(card_sum, n).terms.items(), ((1, 0), 1)])

    monkeypatch.setattr(reconstruct, "reconstruct_vertex_poly", perturbed)
    path, cards = tmp_path / "k3.json", str(tmp_path / "cards")
    path.write_text(dump_hypergraph_json(k3))
    assert main(["deck", "--input", str(path), "--out-dir", cards]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--deck", cards, "--target", "hilbert"]) == 1
    message = "identity 3.2 fails: K(t) = 1 - 3*t^2 + 2*t^3 is not the expansion of f = (1, 4)"
    assert capsys.readouterr() == ("", f"internal consistency failure: {message}\n")


EXCLUDED_DECKS = {
    "edgeless3": (validate(list("abc"), []), _EDGELESS_DECK),
    "edgeless6": (validate(list("abcdef"), []), _EDGELESS_DECK),
    "spanning3": (validate(list("abc"), [list("abc")]), _EDGELESS_DECK),
    "two-vertex": (validate(["a", "b"], [["a", "b"]]), "reconstruction needs n >= 3, got n=2"),
    # n is checked before edges
    "two-vertex-edgeless": (validate(["a", "b"], []), "reconstruction needs n >= 3, got n=2"),
}

POLY_TARGETS = {
    "S": lambda deck: DeckInvariants(deck).S,
    "P": lambda deck: DeckInvariants(deck).P,
    "fvector": lambda deck: DeckInvariants(deck).f,
    "hilbert": lambda deck: DeckInvariants(deck).hilbert_function(4),
}


@pytest.mark.parametrize("target", sorted(POLY_TARGETS))
@pytest.mark.parametrize("parent", sorted(EXCLUDED_DECKS))
def test_excluded_deck_refused_by_every_polynomial_target(parent, target):
    h, message = EXCLUDED_DECKS[parent]
    with pytest.raises(NotReconstructible) as exc:
        POLY_TARGETS[target](h.deck())
    assert type(exc.value) is NotReconstructible and str(exc.value) == message


@pytest.mark.parametrize("parent", sorted(EXCLUDED_DECKS))
def test_excluded_deck_refused_by_betti(parent):
    # the table is the parent's own, so a single spanning edge is refused
    # by its deck, which is the edgeless parent's, not by its own edges
    h, message = EXCLUDED_DECKS[parent]
    with pytest.raises(NotReconstructible) as exc:
        DeckInvariants(h.deck()).betti
    assert type(exc.value) is NotReconstructible and str(exc.value) == message


@pytest.mark.parametrize("parent", sorted(EXCLUDED_DECKS))
def test_excluded_deck_refused_when_its_bundle_is_built(parent):
    # every target reads the one bundle, so none sweeps a card or builds a
    # table first; a single spanning edge is refused by its deck, which is
    # the edgeless parent's, not by its own edges
    h, message = EXCLUDED_DECKS[parent]
    with pytest.raises(NotReconstructible) as exc:
        DeckInvariants(h.deck())
    assert type(exc.value) is NotReconstructible and str(exc.value) == message


class TestReconstructBetti:
    def test_k3_partial_table(self, k3):
        table = DeckInvariants(k3.deck()).betti
        assert not table.top_complete
        assert table.graded == {(0, 0): 1, (1, 2): 3}  # the (2,3) top entry is unknowable

    def test_matches_direct_below_top(self, corpus):
        for _, h in corpus:
            try:
                check_reconstructible(h)
            except NotReconstructible:
                continue
            direct = hochster_betti(h)
            rec = DeckInvariants(h.deck()).betti
            full = (1 << h.n) - 1
            expected = {k: v for k, v in direct.multigraded.items() if k[1] != full}
            assert rec.multigraded == expected

    def test_card_from_another_deck_rejected(self):
        # same labels on every card, so only the edges give the forgery away
        genuine, other = cycle_chord(0, 5), cycle_chord(2, 7)
        cards = list(genuine.deck().cards)
        cards[5] = other.deck().cards[5]
        with pytest.raises(InputError, match="on card 5 but not on card 0"):
            Deck.from_cards(cards)


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


def deck_bundle_mismatches(h: Hypergraph) -> list[str]:
    """The fields on which DeckInvariants(h.deck()) differs from
    SRInvariants(h): the polynomials, f, h, Krull dimension, multiplicity,
    K, the Hilbert function to 2n and the Betti table below the top row."""
    rec, inv = DeckInvariants(h.deck()), SRInvariants(h)
    fields = ("P", "S", "f", "h", "krull_dim", "multiplicity", "k_polynomial")
    pairs = {name: (getattr(rec, name), getattr(inv, name)) for name in fields}
    pairs["hilbert_function"] = (rec.hilbert_function(2 * h.n), inv.hilbert_function(2 * h.n))
    full = (1 << h.n) - 1
    pairs["betti"] = (rec.betti.multigraded, {k: b for k, b in inv.betti.multigraded.items() if k[1] != full})
    return [name for name, (got, want) in pairs.items() if got != want]


@settings(max_examples=40, deadline=None)
@given(reconstructible_hypergraphs(max_n=5, max_m=5))
def test_roundtrip_properties(h):
    assert deck_bundle_mismatches(h) == []


@settings(max_examples=40, deadline=None)
@given(reconstructible_hypergraphs(max_n=5, max_m=5))
def test_deck_constant_bookkeeping(h):
    # each card contributes exactly one empty edge subset
    total = sum(edge_induced_poly(c).coeff(0, 0) for c in h.deck().cards)
    assert total == h.n


@settings(max_examples=40, deadline=None)
@given(reconstructible_hypergraphs(max_n=5, max_m=5))
def test_deck_sum_identity_holds(h):
    assert verify_deck_sum_identity(SRInvariants(h))
