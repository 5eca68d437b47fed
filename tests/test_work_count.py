"""How much work one CLI command does on its input hypergraph.

The sweep and Betti-table entry points are wrapped at every binding in
the package (a function that one module imports by name from another
is replaced in both), and each call is logged with the vertex labels
of the hypergraph it ran on, so calls on the parent are told apart
from calls on its deck cards.
"""

from __future__ import annotations

import itertools
import random
import sys

import pytest

import hgpoly.bipoly as bipoly
import hgpoly.enumeration as enumeration
import hgpoly.homology as homology
from hgpoly import cli, parallel
from hgpoly.cli import main
from hgpoly.formats import dump_hypergraph_json
from hgpoly.hypergraph import Hypergraph, validate
from hgpoly.reconstruct import DeckInvariants
from hgpoly.stanley_reisner import SRInvariants
from hgpoly.verify import IDENTITY_IDS

from .families import complete_graph, cycle_graph, path_graph, star, wheel
from .test_reconstruct import EXCLUDED_DECKS

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
    cards = tuple(card.labels for card in h.cards)
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
    cards = tuple(card.labels for card in h.cards)
    assert len(cards) == h.n
    sides = ("vertex", "edge") if target == "hilbert" else (side,)
    assert families == {"vertex": [], "edge": [], **{s: [cards] for s in sides}}
    assert calls == []
    # P, and so f, checks its direct route against one transform of the summed cards
    assert transforms == ([] if target == "S" else [h.n - 1])


def test_report_over_one_sweep_limit_is_refused_before_any_sweep(calls, tmp_path, capsys):
    # K8 has n = 8 but m = 28, over the default limit 24: the refusal names
    # m, as the directory pre-check's does, and no vertex sweep runs first
    assert main(["report", "--input", _write(tmp_path, complete_graph(8))]) == 3
    message = "m=28 exceeds the enumeration limit 24; raise the limit explicitly to run anyway"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert calls == []


@pytest.mark.parametrize("parent", sorted(EXCLUDED_DECKS))
def test_excluded_deck_refused_before_any_sweep_or_table(parent, calls, families, tmp_path, capsys):
    # every target refuses from the deck's parent, at the default limits and
    # at limits that its cards and parent are over
    cards_dir = str(tmp_path / "cards")
    assert main(["deck", "--input", _write(tmp_path, EXCLUDED_DECKS[parent][0]), "--out-dir", cards_dir]) == 0
    for target in ("S", "P", "fvector", "hilbert", "betti"):
        for limits in ([], ["--n-max", "1", "--homology-n-max", "1"]):
            assert main(["reconstruct", "--deck", cards_dir, "--target", target] + limits) == 2
    capsys.readouterr()
    assert families == {"vertex": [], "edge": []}
    assert calls == []


def test_identity_4_3_reads_k_before_the_table(calls, tmp_path, capsys):
    # K8's K(t) needs an edge sweep over the m limit, so 4.3 is refused
    # on m, as it reads K first, before it sweeps or builds a table
    assert main(["verify", "--identity", "4.3", "--input", _write(tmp_path, complete_graph(8))]) == 3
    message = "m=28 exceeds the enumeration limit 24; raise the limit explicitly to run anyway"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert calls == []


def _seeded_graph(n: int, m: int) -> Hypergraph:
    """G(n, m): labels v0..v(n-1) and m distinct pairs drawn by random.Random(1)."""
    pairs = random.Random(1).sample(list(itertools.combinations(range(n), 2)), m)
    return validate([f"v{i}" for i in range(n)], [[f"v{a}", f"v{b}"] for a, b in pairs])


def _over(size: str, limit: str) -> str:
    return f"{size} exceeds the {limit}; raise the limit explicitly to run anyway"


# G(n, m), a command, and its exit code and refusal, or its identities' skips:
# each command swept 2^24 subsets first while a read was refused only when made
SEEDED_REFUSALS = [
    (24, 30, ["verify"], 0, {i: _over("m=30", "enumeration limit 24") for i in IDENTITY_IDS}),
    (24, 30, ["verify", "--identity", "2.1"], 3, _over("m=30", "enumeration limit 24")),
    (24, 30, ["verify", "--identity", "2.3"], 3, _over("m=30", "enumeration limit 24")),
    (24, 30, ["verify", "--identity", "3.2"], 3, _over("m=30", "enumeration limit 24")),
    (30, 24, ["hilbert"], 3, _over("n=30", "enumeration limit 24")),
    (30, 24, ["verify"], 0, {**{i: _over("n=30", "enumeration limit 24") for i in IDENTITY_IDS},
                             "4.3": _over("n=30", "homology limit 14")}),
    (30, 24, ["verify", "--identity", "4.2"], 3, _over("n=30", "enumeration limit 24")),
    (30, 24, ["verify", "--identity", "4.3"], 3, _over("n=30", "homology limit 14")),
    (26, 22, ["reconstruct", "--target", "hilbert"], 3, _over("n=25", "enumeration limit 24")),
]


@pytest.mark.parametrize("n, m, argv, code, out", SEEDED_REFUSALS,
                         ids=[f"G{n}-{m}-" + "-".join(argv) for n, m, argv, *_ in SEEDED_REFUSALS])
def test_refused_or_skipped_before_any_sweep(n, m, argv, code, out, calls, families, tmp_path, capsys):
    path = _write(tmp_path, _seeded_graph(n, m))
    if argv[0] == "reconstruct":  # the cards have n - 1 vertices
        assert main(["deck", "--input", path, "--out-dir", str(tmp_path / "cards")]) == 0
        capsys.readouterr()
        argv = [*argv, "--deck", str(tmp_path / "cards")]
    else:
        argv = [*argv, "--input", path]
    assert main(argv) == code
    if code:
        assert capsys.readouterr() == ("", f"error: {out}\n")
    else:
        assert capsys.readouterr() == ("".join(f"identity {i}: skipped: {s}\n" for i, s in out.items()), "")
    assert (calls, families) == ([], {"vertex": [], "edge": []})


HYPERGRAPH_COMMANDS = (
    [["compute", "--poly", poly] for poly in ("S", "P", "independence")]
    + [[name] for name in ("hilbert", "fvector", "hvector", "betti", "report")]
    + [["verify", "--identity", identity] for identity in (*IDENTITY_IDS, "all")]
)

# an input over one limit alone, the limits, and whether only its deck's commands run:
# the cards of cycle7 are over n = 5 alone, but cycle7 is over both n and m
OVER_ONE_LIMIT = {
    "n": (path_graph(7), ["--n-max", "6"], False),
    "m": (complete_graph(6), ["--n-max", "6"], False),
    "homology-n": (cycle_graph(7), ["--homology-n-max", "6"], False),
    "cards-n": (cycle_graph(7), ["--n-max", "5"], True),
}


def _argv(command: list[str], limits: list[str], source: list[str]) -> list[str]:
    """The command with those of the limit flags it takes, then its source."""
    takes = {flag for flag, _ in cli._COMMANDS[command[0]][1]}
    flags = [word for flag, value in zip(limits[::2], limits[1::2]) if flag in takes for word in (flag, value)]
    return [*command, *flags, *source]


@pytest.mark.parametrize("case", sorted(OVER_ONE_LIMIT))
def test_every_view_target_and_identity_refuses_before_any_work(case, calls, families, monkeypatch, tmp_path, capsys):
    h, limits, deck_only = OVER_ONE_LIMIT[case]
    path, cards = _write(tmp_path, h), str(tmp_path / "cards")
    assert main(["deck", "--input", path, "--out-dir", cards]) == 0
    argvs = [_argv(command, limits, ["--input", path]) for command in ([] if deck_only else HYPERGRAPH_COMMANDS)]
    argvs += [_argv(["reconstruct", "--target", t], limits, ["--deck", cards]) for t in ("S", "P", "fvector", "hilbert", "betti")]
    capsys.readouterr()
    refused = 0
    for argv in argvs:
        # without the up-front check each read is refused by its sweep's or
        # table's own limit check, in read order: the answer must not change
        with monkeypatch.context() as unchecked:
            unchecked.setattr(SRInvariants, "check", lambda inv, reads: None, raising=False)
            reference = main(argv), capsys.readouterr()
        calls.clear()
        families["vertex"].clear()
        families["edge"].clear()
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, (out, err)) == reference, argv
        if code or all(": skipped: " in line for line in out.splitlines()):
            refused += 1
            assert (calls, families) == ([], {"vertex": [], "edge": []}), argv
    assert refused


def test_betti_tables_once_and_sweeps_nothing(calls, families, tmp_path, capsys):
    # the table is checked against mu per B from the union closure, so betti sweeps
    # neither side of the parent nor of a card, and takes no enumeration limit
    h = cycle_graph(6)
    assert main(["betti", "--input", _write(tmp_path, h)]) == 0
    assert capsys.readouterr().err == ""
    assert calls == [("hochster_betti", h.labels)]
    assert families == {"vertex": [], "edge": []}


def test_verify_single_identity_builds_no_table(calls, tmp_path, capsys):
    assert main(["verify", "--identity", "2.1", "--input", _write(tmp_path, cycle_graph(10))]) == 0
    assert capsys.readouterr().out == "identity 2.1: ok\n"
    assert [name for name, _ in calls] == ["vertex_induced_poly", "edge_induced_poly"]


def test_bundle_computes_each_member_once(calls):
    inv = SRInvariants(cycle_graph(6))
    members = ("P", "S", "f", "h", "k_polynomial", "betti")
    first = [getattr(inv, name) for name in members]
    assert all(getattr(inv, name) is value for name, value in zip(members, first))
    assert sorted(name for name, _ in calls) == ["edge_induced_poly", "hochster_betti", "vertex_induced_poly"]
    # the cards are the parent's own, cut once
    assert inv.hypergraph.cards is inv.hypergraph.cards


def test_directory_report_builds_one_bundle_per_member(monkeypatch, tmp_path, capsys):
    # the bundle each member's limits are checked on is the one its report reads
    built: list[tuple[str, ...]] = []

    class Counted(SRInvariants):
        def __init__(self, h, *limits):
            built.append(h.labels)
            super().__init__(h, *limits)

    members = (cycle_graph(5), path_graph(4), complete_graph(3))
    for k, h in enumerate(members):
        (tmp_path / f"m{k}.json").write_text(dump_hypergraph_json(h))
    monkeypatch.setattr(cli, "SRInvariants", Counted)
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 1)  # every member is built in this process
    assert main(["report", "--input", str(tmp_path)]) == 0
    capsys.readouterr()
    assert built == [h.labels for h in members]


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
    DeckInvariants(h).betti
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
