from __future__ import annotations

import random
import time
from itertools import combinations, islice

import pytest
from hypothesis import given, settings

from hgpoly.errors import (
    AntichainViolation,
    DuplicateEdge,
    DuplicateVertexLabel,
    EmptyEdge,
    InconsistentDeck,
    IndexOutOfRange,
    InvalidDeck,
    UnknownEdge,
    UnknownVertex,
    UnknownVertexLabel,
)
from hgpoly.hypergraph import Deck, Hypergraph, disjoint_union, validate

from .oracles import first_contained_pair
from .strategies import hypergraphs
from .test_reconstruct import cycle_chord


class TestValidate:
    def test_triangle(self):
        h = validate(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]])
        assert h.n == 3 and h.m == 3
        assert h.edge_label_sets() == (("a", "b"), ("a", "c"), ("b", "c"))

    def test_antichain_violation_names_the_pair(self):
        with pytest.raises(AntichainViolation) as exc:
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
            with pytest.raises(AntichainViolation) as exc:
                Hypergraph.from_masks(labels, masks)
            assert str(exc.value) == f"edge {{{small}}} is contained in edge {{{big}}}"

    def test_ten_thousand_edges_validate_quickly(self):
        labels = [f"v{k}" for k in range(400)]
        masks = [(1 << a) | (1 << b) for a, b in islice(combinations(range(400), 2), 10_000)]
        start = time.perf_counter()
        h = Hypergraph.from_masks(labels, masks)
        assert time.perf_counter() - start < 2.0
        assert h.m == 10_000
        with pytest.raises(AntichainViolation) as exc:
            Hypergraph.from_masks(labels, masks + [0b111])
        assert str(exc.value) == "edge {v0, v1} is contained in edge {v0, v1, v2}"

    def test_singleton_edge_allowed(self):
        h = validate(["a"], [["a"]])
        assert h.m == 1

    def test_duplicate_edge_rejected_not_merged(self):
        with pytest.raises(DuplicateEdge):
            validate(["a", "b"], [["a", "b"], ["b", "a"]])

    def test_empty_edge(self):
        with pytest.raises(EmptyEdge):
            validate(["a"], [[]])

    def test_unknown_vertex_label(self):
        with pytest.raises(UnknownVertexLabel):
            validate(["a", "b"], [["a", "z"]])

    def test_duplicate_vertex_label(self):
        with pytest.raises(DuplicateVertexLabel):
            validate(["a", "a"], [])

    def test_repeated_vertex_in_edge(self):
        with pytest.raises(DuplicateVertexLabel):
            validate(["a", "b"], [["a", "a"]])

    def test_empty_hypergraph(self):
        h = validate([], [])
        assert h.n == 0 and h.m == 0

    def test_structural_equality(self):
        h1 = validate(["a", "b"], [["a", "b"]])
        h2 = validate(["a", "b"], [["b", "a"]])
        assert h1 == h2
        assert validate(["b", "a"], [["a", "b"]]) != h1  # vertex order matters


class TestInduced:
    def test_vertex_induced_pair(self, k3):
        sub = k3.vertex_induced(["a", "b"])
        assert sub.labels == ("a", "b")
        assert sub.edge_label_sets() == (("a", "b"),)

    def test_vertex_induced_empty(self, k3):
        sub = k3.vertex_induced([])
        assert sub.n == 0 and sub.m == 0

    def test_vertex_induced_drops_cross_edges(self, path3):
        sub = path3.vertex_induced(["a", "c"])
        assert sub.n == 2 and sub.m == 0

    def test_vertex_induced_unknown(self, k3):
        with pytest.raises(UnknownVertex):
            k3.vertex_induced(["z"])

    def test_edge_union(self, k3):
        assert k3.edge_union([["a", "b"], ["b", "c"]]) == ("a", "b", "c")
        assert k3.edge_union([]) == ()

    def test_edge_union_star(self):
        h = validate(["c", "l1", "l2", "l3"], [["c", "l1"], ["c", "l2"], ["c", "l3"]])
        assert h.edge_union([["c", "l1"]]) == ("c", "l1")

    def test_edge_union_unknown_edge(self, k3):
        with pytest.raises(UnknownEdge):
            k3.edge_union([["a"]])

    def test_is_independent(self, k3):
        assert not k3.is_independent(["a", "b"])
        assert k3.is_independent(["a"])
        assert k3.is_independent([])

    def test_singleton_edge_blocks_its_vertex(self):
        h = validate(["a"], [["a"]])
        assert not h.is_independent(["a"])


class TestDeck:
    def test_k3_card(self, k3):
        card = k3.card(0)
        assert card.labels == ("b", "c")
        assert card.edge_label_sets() == (("b", "c"),)

    def test_card_index_out_of_range(self, k3):
        with pytest.raises(IndexOutOfRange):
            k3.card(3)

    def test_edgeless_deck(self, edgeless3):
        deck = edgeless3.deck()
        assert deck.origin_n == 3
        assert all(c.n == 2 and c.m == 0 for c in deck.cards)

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
        rebuilt = Deck.from_cards(list(deck.cards))
        assert rebuilt == deck

    def test_from_cards_rejects_mismatched(self, k3, path3):
        cards = list(k3.deck().cards)
        cards[2] = path3.card(0)  # same labels, fine; now break the labels
        bad = [validate(["x", "y"], []), validate(["x", "z"], []), validate(["q", "r"], [])]
        with pytest.raises(InvalidDeck):
            Deck.from_cards(bad)

    def test_from_cards_rejects_card_from_another_deck(self):
        # card 3 of the relabelled copy fits the labels; its chord does not
        cards = list(cycle_chord(0, 5).deck().cards)
        cards[3] = cycle_chord(1, 6).card(3)
        with pytest.raises(InconsistentDeck) as exc:
            Deck.from_cards(cards)
        assert str(exc.value) == (
            "edge ['a', 'f'] is on card 1 but not on card 3, whose deleted vertex it avoids; "
            "the input is not a genuine deck"
        )

    def test_deck_constructor_validates_card_count(self, k3):
        with pytest.raises(InvalidDeck):
            Deck(k3.labels, k3.deck().cards[:2])


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_card_commutes_with_vertex_induced(h):
    # for any card l and any W avoiding the deleted vertex, restriction
    # on the card equals restriction on the parent
    for l in range(min(h.n, 3)):
        card = h.card(l)
        w = [lbl for k, lbl in enumerate(h.labels) if k != l and k % 2 == 0]
        assert card.vertex_induced(w) == h.vertex_induced(w)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_edge_union_additive(h):
    edges = h.edge_label_sets()
    half = len(edges) // 2
    left, right = edges[:half], edges[half:]
    joint = set(h.edge_union(edges))
    assert joint == set(h.edge_union(left)) | set(h.edge_union(right))


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_antichain_preserved_by_card_and_induced(h):
    # from_masks re-checks the antichain invariant, so surviving
    # construction is the assertion
    for l in range(h.n):
        h.card(l)
    h.vertex_induced(h.labels[: h.n // 2])


class TestComponents:
    def test_k3_one_component(self, k3):
        assert len(k3.connected_components()) == 1

    def test_isolated_vertex_is_own_component(self):
        h = validate(["a", "b", "c", "d"], [["a", "b"], ["b", "c"]])
        comps = h.connected_components()
        assert [c.labels for c in comps] == [("a", "b", "c"), ("d",)]

    def test_two_disjoint_edges(self):
        h = validate(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])
        assert len(h.connected_components()) == 2

    def test_edge_ideal_generators(self, k3, edgeless3):
        assert k3.edge_ideal_generators() == [("a", "b"), ("a", "c"), ("b", "c")]
        assert edgeless3.edge_ideal_generators() == []
        h = validate(["a"], [["a"]])
        assert h.edge_ideal_generators() == [("a",)]


def test_disjoint_union_requires_distinct_labels(k3):
    with pytest.raises(DuplicateVertexLabel):
        disjoint_union(k3, k3)


def test_disjoint_union_merges_structure(k3):
    other = validate(["x", "y"], [["x", "y"]])
    u = disjoint_union(k3, other)
    assert u.n == 5 and u.m == 4
    assert set(u.edge_label_sets()) == {("a", "b"), ("a", "c"), ("b", "c"), ("x", "y")}
