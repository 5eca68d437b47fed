"""How much work one CLI command does on its input hypergraph.

The sweep and Betti-table entry points are wrapped at every binding in
the package (a function that one module imports by name from another
is replaced in both), and each call is logged with the vertex labels
of the hypergraph it ran on, so calls on the parent are told apart
from calls on its deck cards.
"""

from __future__ import annotations

import sys

import pytest

import hgpoly.bipoly as bipoly
import hgpoly.enumeration as enumeration
import hgpoly.homology as homology
from hgpoly.cli import main
from hgpoly.corpus import complete_graph, cycle_graph, path_graph, star, wheel
from hgpoly.formats import dump_hypergraph_json
from hgpoly.hypergraph import Hypergraph
from hgpoly.reconstruct import DeckInvariants
from hgpoly.stanley_reisner import SRInvariants

COUNTED = (
    (enumeration, "vertex_induced_poly"),
    (enumeration, "edge_induced_poly"),
    (homology, "hochster_betti"),
)


def _rebind(monkeypatch, owner, name: str, wrap) -> None:
    """Replace owner.name by wrap(owner.name) in every hgpoly module that
    binds it."""
    fn = getattr(owner, name)
    replacement = wrap(fn)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("hgpoly") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, replacement)


@pytest.fixture
def calls(monkeypatch) -> list[tuple[str, tuple[str, ...]]]:
    log: list[tuple[str, tuple[str, ...]]] = []
    for owner, name in COUNTED:

        def wrap(fn, _name=name):
            def counted(h, *args, **kwargs):
                log.append((_name, h.labels))
                return fn(h, *args, **kwargs)

            return counted

        _rebind(monkeypatch, owner, name, wrap)
    return log


def _write(tmp_path, h) -> str:
    path = tmp_path / "h.json"
    path.write_text(dump_hypergraph_json(h))
    return str(path)


@pytest.fixture
def families(monkeypatch) -> dict[str, list[tuple[tuple[str, ...], ...]]]:
    """The member labels of every family sweep, by side."""
    log: dict[str, list[tuple[tuple[str, ...], ...]]] = {"vertex": [], "edge": []}
    for side in log:

        def wrap(fn, _log=log[side]):
            def counted(family, *args, **kwargs):
                _log.append(tuple(h.labels for h in family))
                return fn(family, *args, **kwargs)

            return counted

        _rebind(monkeypatch, enumeration, f"{side}_family_poly", wrap)
    return log


@pytest.mark.parametrize(
    "h", [cycle_graph(10), complete_graph(6), wheel(5)], ids=["cycle10", "K6", "wheel5"]
)
def test_report_sweeps_and_tables_once(h, calls, families, monkeypatch, tmp_path, capsys):
    transforms: list[int] = []

    def wrap(fn):
        def counted(s, n):
            transforms.append(n)
            return fn(s, n)

        return counted

    _rebind(monkeypatch, bipoly, "to_vertex_form", wrap)
    assert main(["report", "--input", _write(tmp_path, h)]) == 0
    capsys.readouterr()
    # the parent is swept once per side and no card is swept on its own
    assert sorted(name for name, _ in calls) == ["edge_induced_poly", "hochster_betti", "vertex_induced_poly"]
    assert all(labels == h.labels for _, labels in calls)
    # the deck-sum identity 4.2 makes one family sweep of the n cards, in
    # order, on the edge side, and reads their summed P as one transform
    # of that sum on n - 1 vertices
    cards = tuple(card.labels for card in h.deck().cards)
    assert len(cards) == h.n
    assert families["vertex"] == [(h.labels,)]
    assert sorted(families["edge"]) == sorted([(h.labels,), cards])
    assert transforms == [h.n - 1]


@pytest.mark.parametrize(
    "target, side", [("S", "edge"), ("P", "vertex"), ("fvector", "vertex"), ("hilbert", "edge")]
)
@pytest.mark.parametrize("h", [cycle_graph(10), wheel(5)], ids=["cycle10", "wheel5"])
def test_reconstruct_sweeps_the_deck_once(h, target, side, calls, families, monkeypatch, tmp_path, capsys):
    transforms: list[int] = []

    def wrap(fn):
        def counted(p, n):
            transforms.append(n)
            return fn(p, n)

        return counted

    _rebind(monkeypatch, bipoly, "to_edge_form", wrap)
    cards_dir = str(tmp_path / "cards")
    assert main(["deck", "--input", _write(tmp_path, h), "--out-dir", cards_dir]) == 0
    assert main(["reconstruct", "--deck", cards_dir, "--target", target]) == 0
    capsys.readouterr()
    # one family sweep over the n cards on the side the target reads, both
    # sides for hilbert (K from S, identity 3.2 from f), and no hypergraph
    # swept on its own
    cards = tuple(card.labels for card in h.deck().cards)
    assert len(cards) == h.n
    sides = ("vertex", "edge") if target == "hilbert" else (side,)
    assert families == {"vertex": [], "edge": [], **{s: [cards] for s in sides}}
    assert calls == []
    # P, and so f, checks its direct route against one transform of the summed cards
    assert transforms == ([] if target == "S" else [h.n - 1])


def test_verify_single_identity_builds_no_table(calls, tmp_path, capsys):
    assert main(["verify", "--identity", "2.1", "--input", _write(tmp_path, cycle_graph(10))]) == 0
    assert capsys.readouterr().out == "identity 2.1: ok\n"
    assert [name for name, _ in calls] == ["vertex_induced_poly", "edge_induced_poly"]


def test_bundle_computes_each_member_once(calls):
    inv = SRInvariants(cycle_graph(6))
    members = ("P", "S", "f", "h", "k_polynomial", "cards", "betti")
    first = [getattr(inv, name) for name in members]
    assert all(getattr(inv, name) is value for name, value in zip(members, first))
    assert sorted(name for name, _ in calls) == ["edge_induced_poly", "hochster_betti", "vertex_induced_poly"]


@pytest.mark.parametrize("command", ["report", "verify"])
def test_cuts_each_card_once_and_builds_no_deck(command, monkeypatch, tmp_path, capsys):
    cut: list[int] = []
    decks: list[tuple[str, ...]] = []
    card, deck = Hypergraph.card, Hypergraph.deck

    def counted_card(self, l):
        cut.append(l)
        return card(self, l)

    def counted_deck(self):
        decks.append(self.labels)
        return deck(self)

    monkeypatch.setattr(Hypergraph, "card", counted_card)
    monkeypatch.setattr(Hypergraph, "deck", counted_deck)
    h = cycle_graph(10)
    assert main([command, "--input", _write(tmp_path, h)]) == 0
    capsys.readouterr()
    assert sorted(cut) == list(range(h.n))
    assert decks == []


def test_identity_3_2_evaluated_once_per_bundle(monkeypatch):
    # the report's Hilbert function and its identity 3.2 read one result
    calls: list[int] = []
    substitute = bipoly.substitute

    def counted(terms, n, a, b):
        calls.append(n)
        return substitute(terms, n, a, b)

    _rebind(monkeypatch, bipoly, "substitute", lambda fn: counted)
    inv = SRInvariants(cycle_graph(7))
    assert inv.hilbert_function(5) == inv.hilbert_function(9)[:6]
    assert inv.series_numerator_holds
    assert calls == [7]


def test_independent_sets_enumerated_once_per_edge_set(monkeypatch):
    seen: list[int] = []
    faces = homology._restriction_faces

    def counted(bmask, edges):
        seen.append(bmask)
        return faces(bmask, edges)

    monkeypatch.setattr(homology, "_restriction_faces", counted)
    h = path_graph(8)
    homology.hochster_betti(h)
    assert seen == [h.full_mask]
    # the reconstruction's one edge set is the union of the cards' edges
    seen.clear()
    h = cycle_graph(10)
    DeckInvariants(h.deck()).betti
    assert seen == [h.full_mask]


@pytest.mark.parametrize(
    "h, most", [(path_graph(16), 17), (cycle_graph(16), 17), (star(12), 12)], ids=["path16", "cycle16", "star12"]
)
def test_folded_pieces_are_ranked_once(h, most, monkeypatch):
    # folding leaves single edges (and a cycle whole), each ranked once
    # per table; without the fold every B of the closure is ranked
    # (path16 5841, cycle16 8089, star12 4095 complexes)
    sizes: list[int] = []
    dims = homology.homology_dims_from_masks

    def counted(faces):
        sizes.append(len(faces))
        return dims(faces)

    monkeypatch.setattr(homology, "homology_dims_from_masks", counted)
    homology.hochster_betti(h, 16)
    assert 0 < len(sizes) <= most
