"""Invariance under vertex relabelling and under directory listing order.

A relabelling moves vertex v to position perm[v]. Every invariant that
counts subsets by size is unchanged by it, and the multigraded Betti
table is carried along by the same map. On the deck side, the summed
card polynomials do not see the cards' labels or their order, so S and
P are reconstructed from a deck whose cards were relabelled one by one
and shuffled. Reading a deck or a corpus directory does not depend on
the order in which the directory lists its files.
"""

from __future__ import annotations

import contextlib
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgpoly.cli import main
from hgpoly.enumeration import edge_family_poly, edge_induced_poly, vertex_family_poly, vertex_induced_poly
from hgpoly.formats import dump_hypergraph_json, load_corpus, read_deck, write_deck
from hgpoly.hypergraph import Hypergraph, mask_indices
from hgpoly.reconstruct import reconstruct_edge_poly, reconstruct_vertex_poly
from hgpoly.stanley_reisner import SRInvariants

from .families import complete_graph, cycle_graph, path_graph, star
from .strategies import hypergraphs, reconstructible_hypergraphs


def _move(mask: int, perm: list[int]) -> int:
    return sum(1 << perm[v] for v in mask_indices(mask))


def _relabel(h: Hypergraph, perm: list[int]) -> Hypergraph:
    return Hypergraph.from_masks(h.labels, [_move(e, perm) for e in h.edges])


@settings(max_examples=40, deadline=None)
@given(hypergraphs(), st.data())
def test_invariants_unchanged_by_relabelling(h, data):
    perm = data.draw(st.permutations(range(h.n)))
    inv, moved = SRInvariants(h), SRInvariants(_relabel(h, perm))
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


def _report(directory: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["report", "--input", directory]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def listed(tmp_path_factory):
    """The 11-cycle's deck written with zero-padded card names and with
    unpadded ones (name order puts card_10 between card_1 and card_2),
    and a corpus directory, with a subdirectory it skips, whose names
    sort differently as text and as numbers; each read in plain order."""
    root = tmp_path_factory.mktemp("listing")
    deck = cycle_graph(11).deck()
    write_deck(deck, str(root / "padded"))
    (root / "unpadded").mkdir()
    for l, card in enumerate(deck.cards):
        (root / "unpadded" / f"card_{l}.json").write_text(dump_hypergraph_json(card))
    corpus = root / "corpus"
    (corpus / "sub").mkdir(parents=True)
    for name, h in [("m10.json", path_graph(4)), ("m2.json", star(3)), ("a.json", complete_graph(4)), ("z", path_graph(2))]:
        (corpus / name).write_text(dump_hypergraph_json(h))
    deck_dirs = [str(root / "padded"), str(root / "unpadded")]
    assert [read_deck(d) for d in deck_dirs] == [deck, deck]
    return deck_dirs, deck, str(corpus), load_corpus(str(corpus)), _report(str(corpus))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_directory_listing_order_changes_nothing(listed, data):
    deck_dirs, deck, corpus, members, report = listed
    listdir = os.listdir
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "listdir", lambda path: data.draw(st.permutations(listdir(path))))
        assert [read_deck(d) for d in deck_dirs] == [deck, deck]
        assert load_corpus(corpus) == members
        assert _report(corpus) == report
