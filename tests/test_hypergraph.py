from __future__ import annotations

import random
import re
import time
from itertools import combinations, islice

import pytest
from hypothesis import given, settings

from hgpoly.errors import InputError, NotReconstructible
from hgpoly.homology import (
    _edge_union_closure,
    _restriction_faces,
    hochster_betti,
    restriction_betti,
)
from hgpoly.corpus import cycle_graph
from hgpoly.hypergraph import Hypergraph, validate
from hgpoly.reconstruct import _EDGELESS_DECK, DeckInvariants
from hgpoly.stanley_reisner import SRInvariants

from .oracles import first_contained_pair
from .strategies import hypergraphs
from .test_reconstruct import cycle_chord


class TestValidate:
    def test_triangle(self):
        h = validate(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]])
        assert h.n == 3 and h.m == 3
        assert h.edge_label_sets() == (("a", "b"), ("a", "c"), ("b", "c"))

    def test_antichain_violation_names_the_pair(self):
        with pytest.raises(InputError, match="is contained in edge") as exc:
            validate(["a", "b", "c"], [["a", "b"], ["a", "b", "c"]])
        assert "a, b" in str(exc.value) and "a, b, c" in str(exc.value)

    def test_antichain_check_names_the_pair_of_the_pairwise_loop(self):
        rng = random.Random(7)
        labels = [f"v{k}" for k in range(8)]
        for _ in range(300):
            edges = {tuple(sorted(rng.sample(range(8), rng.randint(1, 4)))) for _ in range(rng.randint(1, 12))}
            pair = first_contained_pair(list(edges))
            masks = [sum(1 << v for v in e) for e in edges]
            if pair is None:
                Hypergraph.from_masks(labels, masks)
                continue
            small, big = (", ".join(labels[v] for v in e) for e in pair)
            with pytest.raises(InputError, match="is contained in edge") as exc:
                Hypergraph.from_masks(labels, masks)
            assert str(exc.value) == f"edge {{{small}}} is contained in edge {{{big}}}"

    def test_ten_thousand_edges_validate_quickly(self):
        labels = [f"v{k}" for k in range(400)]
        masks = [(1 << a) | (1 << b) for a, b in islice(combinations(range(400), 2), 10_000)]
        start = time.perf_counter()
        h = Hypergraph.from_masks(labels, masks)
        assert time.perf_counter() - start < 2.0
        assert h.m == 10_000
        with pytest.raises(InputError, match="is contained in edge") as exc:
            Hypergraph.from_masks(labels, masks + [0b111])
        assert str(exc.value) == "edge {v0, v1} is contained in edge {v0, v1, v2}"

    def test_singleton_edge_allowed(self):
        h = validate(["a"], [["a"]])
        assert h.m == 1

    def test_duplicate_edge_rejected_not_merged(self):
        with pytest.raises(InputError, match=r"^duplicate edge \{a, b\}$"):
            validate(["a", "b"], [["a", "b"], ["b", "a"]])

    def test_empty_edge(self):
        with pytest.raises(InputError, match="^edge with no vertices$"):
            validate(["a"], [[]])

    def test_unknown_vertex_label(self):
        with pytest.raises(InputError, match=r"^edge \['a', 'z'\] references unknown vertex 'z'$"):
            validate(["a", "b"], [["a", "z"]])

    def test_edge_mask_outside_the_vertex_range(self):
        with pytest.raises(InputError, match="^edge mask 0x5 has bits outside the 2-vertex range$"):
            Hypergraph.from_masks(("a", "b"), [0b101])

    def test_duplicate_vertex_label(self):
        with pytest.raises(InputError, match="^vertex label 'a' appears twice$"):
            validate(["a", "a"], [])

    @pytest.mark.parametrize(
        "labels, masks, message",
        [
            (["a", "a", "b"], [0b011, 0b110], "vertex label 'a' appears twice"),
            ([1, 2], [0b11], "vertex label 1 is not a string"),
        ],
    )
    def test_from_masks_refuses_the_labels_validate_refuses(self, labels, masks, message):
        # such a hypergraph would be written as JSON that load_hypergraph refuses
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Hypergraph.from_masks(labels, masks)

    def test_repeated_vertex_in_edge(self):
        with pytest.raises(InputError, match=r"^edge \['a', 'a'\] repeats vertex 'a'$"):
            validate(["a", "b"], [["a", "a"]])

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            (["a", 1], [], "vertex label 1 is not a string"),
            ("ab", [["a", "b"]], "vertices must be a list of strings, not str"),
            ({"a", "b"}, [], "vertices must be a list of strings, not set"),
            (["a", "b"], iter([["a", "b"]]), "edges must be a list of lists of strings, not list_iterator"),
            (["a", "b"], ["ab"], "edge 'ab' is not a list of strings"),
            (["a"], [{"a"}], "edge {'a'} is not a list of strings"),
            (["a"], [[["a"]]], "edge [['a']] holds ['a'], which is not a string"),
            (["a"], [("a", 1)], "edge ('a', 1) holds 1, which is not a string"),
        ],
    )
    def test_raw_structure_refused(self, vertices, edges, message):
        with pytest.raises(InputError, match=re.escape(message)) as exc:
            validate(vertices, edges)
        assert str(exc.value) == message

    def test_empty_hypergraph(self):
        h = validate([], [])
        assert h.n == 0 and h.m == 0

    def test_structural_equality(self):
        h1 = validate(["a", "b"], [["a", "b"]])
        h2 = validate(["a", "b"], [["b", "a"]])
        assert h1 == h2
        assert validate(["b", "a"], [["a", "b"]]) != h1  # vertex order matters


class TestInduced:
    """Independence of vertex subsets, on masks."""

    def test_is_independent(self, k3):
        faces = _restriction_faces(k3.full_mask, k3.edges)
        assert 0b011 not in faces
        assert 0b001 in faces
        assert 0 in faces

    def test_singleton_edge_blocks_its_vertex(self):
        h = validate(["a"], [["a"]])
        assert _restriction_faces(h.full_mask, h.edges) == [0]


class TestDeck:
    def test_k3_card(self, k3):
        card = k3.card(0)
        assert card.labels == ("b", "c")
        assert card.edge_label_sets() == (("b", "c"),)

    def test_card_index_out_of_range(self, k3):
        with pytest.raises(InputError, match=r"^vertex index 3 out of range 0\.\.2$"):
            k3.card(3)

    def test_card_is_what_from_masks_would_build(self, corpus):
        # card skips the checks and the sorting, so its edges must already
        # be a checked antichain in canonical order
        for _, h in corpus:
            for l in range(h.n):
                card = h.card(l)
                assert card == Hypergraph.from_masks(card.labels, card.edges)

    def test_edgeless_deck(self, edgeless3):
        assert all(c.n == 2 and c.m == 0 for c in edgeless3.cards)
        assert Hypergraph.from_cards(edgeless3.cards) == edgeless3

    def test_lone_spanning_edge_deck_is_the_edgeless_deck(self, edgeless3):
        # the spanning edge is on no card, so both parents hold the same
        # cards, which rebuild the edgeless parent, and are refused alike
        span3 = validate(["a", "b", "c"], [["a", "b", "c"]])
        assert span3.cards == edgeless3.cards
        assert Hypergraph.from_cards(span3.cards) == edgeless3
        for parent in (span3, edgeless3):
            with pytest.raises(NotReconstructible) as exc:
                DeckInvariants(parent)
            assert str(exc.value) == _EDGELESS_DECK

    def test_star_minus_center(self):
        h = validate(["c", "x", "y", "z"], [["c", "x"], ["c", "y"], ["c", "z"]])
        card = h.card(0)
        assert card.n == 3 and card.m == 0

    def test_deck_cards_never_mention_deleted_vertex(self, corpus):
        for _, h in corpus[:60]:
            deck = h.deck()
            assert len(deck.cards) == h.n
            for l, card in enumerate(deck.cards):
                assert h.labels[l] not in card.labels

    def test_from_cards_roundtrip(self, path3):
        deck = path3.deck()
        rebuilt = Hypergraph.from_cards(list(deck.cards))
        assert rebuilt == deck

    def test_from_cards_rebuilds_every_corpus_parent(self, corpus):
        for _, h in corpus:
            if h.n < 2:
                continue
            cards = h.cards
            parent = Hypergraph.from_cards(cards)
            # a single spanning edge is on no card, so its cards are the edgeless parent's
            spanning = h.edges == (h.full_mask,)
            assert parent == (Hypergraph(h.labels, ()) if spanning else h) and parent.cards == cards
            for l, card in enumerate(cards):
                if not card.edges:
                    continue
                forged = [*cards[:l], Hypergraph(card.labels, card.edges[1:]), *cards[l + 1 :]]
                low = (1 << l) - 1
                dropped = card.edges[0] & low | (card.edges[0] & ~low) << 1
                if dropped.bit_count() == h.n - 1:
                    # an edge that avoids only vertex l is on card l alone, so the
                    # cards without it are the genuine deck of the parent without it
                    rest = Hypergraph.from_masks(h.labels, [e for e in h.edges if e != dropped])
                    assert Hypergraph.from_cards(forged) == rest
                else:
                    with pytest.raises(InputError, match="the input is not a genuine deck$"):
                        Hypergraph.from_cards(forged)

    def test_from_cards_rejects_mismatched(self, k3, path3):
        cards = list(k3.deck().cards)
        cards[2] = path3.card(0)  # same labels, fine; now break the labels
        bad = [validate(["x", "y"], []), validate(["x", "z"], []), validate(["q", "r"], [])]
        with pytest.raises(InputError, match=r"^card 1 has labels \('x', 'z'\), expected \('z', 'y'\)$"):
            Hypergraph.from_cards(bad)

    def test_from_cards_rejects_card_from_another_deck(self):
        # card 3 of the relabelled copy fits the labels; its chord does not
        cards = list(cycle_chord(0, 5).deck().cards)
        cards[3] = cycle_chord(1, 6).card(3)
        with pytest.raises(InputError, match="whose deleted vertex it avoids") as exc:
            Hypergraph.from_cards(cards)
        assert str(exc.value) == (
            "edge ['a', 'f'] is on card 1 but not on card 3, whose deleted vertex it avoids; "
            "the input is not a genuine deck"
        )

    def test_from_cards_needs_two_cards(self, k3):
        with pytest.raises(InputError, match="^need at least two cards to recover the vertex order$"):
            Hypergraph.from_cards([k3.card(0)])

    def test_from_cards_needs_cards_0_and_1_to_differ_in_one_label(self, k3):
        with pytest.raises(InputError, match="^cards 0 and 1 do not differ in exactly one label$"):
            Hypergraph.from_cards([k3.card(0), k3.card(0), k3.card(2)])

    def test_from_cards_validates_card_count(self, k3):
        with pytest.raises(InputError, match="^expected 3 cards, got 2$"):
            Hypergraph.from_cards(k3.deck().cards[:2])


class TestValueSemantics:
    """Hypergraphs and the result records are immutable values."""

    def test_equal_values_compare_and_hash_equal(self, k3, path3):
        twin = validate(["a", "b", "c"], [["b", "c"], ["c", "a"], ["a", "b"]])
        assert twin is not k3 and twin == k3 and hash(twin) == hash(k3)
        # cutting one's cards, kept in place, changes neither its equality nor its hash
        assert twin.cards == k3.cards and twin == k3 and hash(twin) == hash(k3)
        assert k3 != path3 and k3.cards != path3.cards and k3 != k3.labels
        assert len({k3, twin, path3}) == 2

    def test_betti_tables_hash_by_value(self):
        a, b = hochster_betti(cycle_graph(5)), hochster_betti(cycle_graph(5))
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_fields_cannot_be_assigned(self, k3):
        inv = SRInvariants(k3)
        values = (
            (k3, "edges"),
            (k3.deck(), "cards"),
            (inv, "limit"),
            (inv.betti, "top_complete"),
        )
        for value, field in values:
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)

    def test_repr(self, k3):
        assert repr(k3) == "Hypergraph(vertices=[a, b, c], edges=[{a,b}, {a,c}, {b,c}])"


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_card_commutes_with_vertex_induced(h):
    # card l holds exactly the parent's edges inside any B avoiding
    # vertex l, so for B a union of edges (the only supports of nonzero
    # entries) its restriction homology is the parent's, and so is the
    # deck's table, read off the union of the cards' edges, at every such B.
    unions = _edge_union_closure(h.edges)
    for l, card in enumerate(h.deck().cards):
        # card l's vertex k is the parent's vertex k below l, k + 1 from l on
        low = (1 << l) - 1
        card_edges = tuple(e & low | (e & ~low) << 1 for e in card.edges)
        for bmask in range(1 << h.n):
            if not bmask >> l & 1:
                inside = {e for e in h.edges if e & ~bmask == 0}
                assert {e for e in card_edges if e & ~bmask == 0} == inside
        avoiding = [b for b in unions if b and not b >> l & 1]
        assert restriction_betti(card_edges, avoiding) == restriction_betti(h.edges, avoiding)


@settings(max_examples=60, deadline=None)
@given(hypergraphs().filter(lambda h: h.n >= 2))
def test_from_cards_returns_the_parent(h):
    # a lone spanning edge is on no card, so its cards rebuild the edgeless parent
    spanning = h.edges == (h.full_mask,)
    assert Hypergraph.from_cards(h.cards) == (Hypergraph(h.labels, ()) if spanning else h)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_antichain_preserved_by_card_and_induced(h):
    # from_masks re-checks the antichain invariant, so surviving
    # construction is the assertion; the induced half keeps the edges
    # inside the first half of the vertices, as restriction does
    for l in range(h.n):
        h.card(l)
    w = (1 << (h.n // 2)) - 1
    Hypergraph.from_masks(h.labels, [e for e in h.edges if e & ~w == 0])
