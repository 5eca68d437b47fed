from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from hgpoly.bipoly import BiPoly, UniPoly
from hgpoly.corpus import cycle_graph
from hgpoly.errors import ParseError
from hgpoly.formats import (
    bipoly_to_json_terms,
    dump_hypergraph_json,
    load_corpus,
    load_hypergraph,
    parse_hypergraph_text,
    read_deck,
    unipoly_to_json,
    write_deck,
)

from .strategies import bipolys, hypergraphs


class TestHypergraphJson:
    def test_parse(self):
        h = parse_hypergraph_text('{"vertices": ["a","b","c"], "edges": [["a","b"],["b","c"]]}')
        assert h.n == 3 and h.m == 2

    def test_roundtrip(self, k3):
        assert parse_hypergraph_text(dump_hypergraph_json(k3)) == k3

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_hypergraph_text('{"vertices": [], "edges": []} extra')

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParseError):
            parse_hypergraph_text('{"vertices": [], "edges": [], "comment": "hi"}')

    def test_missing_keys_rejected(self):
        with pytest.raises(ParseError):
            parse_hypergraph_text('{"vertices": []}')

    def test_bad_types_rejected(self):
        with pytest.raises(ParseError):
            parse_hypergraph_text('{"vertices": [1], "edges": []}')
        with pytest.raises(ParseError):
            parse_hypergraph_text('{"vertices": ["a"], "edges": ["a"]}')


class TestLineFormat:
    def test_parse(self):
        h = parse_hypergraph_text("a b c\na b\nb c\n")
        assert h.n == 3 and h.m == 2

    def test_vertices_only(self):
        h = parse_hypergraph_text("a b c\n")
        assert h.n == 3 and h.m == 0

    def test_blank_lines_ignored(self):
        h = parse_hypergraph_text("\na b\n\na b\n")
        assert h.m == 1

    def test_unknown_label_rejected(self):
        from hgpoly.errors import UnknownVertex

        with pytest.raises(UnknownVertex):
            parse_hypergraph_text("a b\na z\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_hypergraph_text("   \n  ")


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_hypergraph_json_roundtrip(h):
    assert parse_hypergraph_text(dump_hypergraph_json(h)) == h


# no program path reads polynomial JSON; these decode it the way any
# JSON consumer would, to check that the written terms are faithful


@settings(max_examples=60, deadline=None)
@given(bipolys())
def test_bipoly_json_roundtrip(p):
    encoded = json.loads(json.dumps(bipoly_to_json_terms(p)))
    assert BiPoly({(i, j): int(c) for i, j, c in encoded}) == p


def test_bipoly_json_big_coefficients_survive():
    p = BiPoly({(1, 1): 10**40})
    assert bipoly_to_json_terms(p) == [[1, 1, str(10**40)]]


def test_unipoly_json_roundtrip():
    p = UniPoly([1, 0, -(10**30)])
    encoded = json.loads(json.dumps(unipoly_to_json(p)))
    assert UniPoly([int(c) for c in encoded]) == p


class TestFiles:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_hypergraph(tmp_path / "nosuch.json")

    def test_deck_roundtrip(self, tmp_path, path3):
        deck = path3.deck()
        paths = write_deck(deck, tmp_path / "deck")
        assert [p.name for p in paths] == ["card_00.json", "card_01.json", "card_02.json"]
        assert read_deck(tmp_path / "deck") == deck

    def test_read_deck_empty_dir(self, tmp_path):
        with pytest.raises(ParseError):
            read_deck(tmp_path)

    def test_read_deck_unpadded_names(self, tmp_path):
        # name order would put card_10 between card_1 and card_2
        deck = cycle_graph(11).deck()
        for l, card in enumerate(deck.cards):
            (tmp_path / f"card_{l}.json").write_text(dump_hypergraph_json(card))
        assert read_deck(tmp_path) == deck

    @pytest.mark.parametrize("extra", ["card_1.json", "card_001.json"])
    def test_read_deck_repeated_index_rejected(self, tmp_path, path3, extra):
        write_deck(path3.deck(), tmp_path)
        (tmp_path / extra).write_text((tmp_path / "card_01.json").read_text())
        with pytest.raises(ParseError, match="card index 1 repeats") as exc:
            read_deck(tmp_path)
        assert "card_01.json" in str(exc.value) and extra in str(exc.value)

    @pytest.mark.parametrize("bad", ["card_x.json", "card_.json", "card_-1.json", "card_1a.json"])
    def test_read_deck_unparsable_name_rejected(self, tmp_path, path3, bad):
        write_deck(path3.deck(), tmp_path)
        (tmp_path / bad).write_text((tmp_path / "card_01.json").read_text())
        with pytest.raises(ParseError, match=bad):
            read_deck(tmp_path)

    def test_load_corpus(self, tmp_path, k3, path3):
        (tmp_path / "a.json").write_text(dump_hypergraph_json(k3))
        (tmp_path / "b.json").write_text(dump_hypergraph_json(path3))
        loaded = load_corpus(tmp_path)
        assert [name for name, _ in loaded] == ["a.json", "b.json"]
        assert [h for _, h in loaded] == [k3, path3]

    def test_load_corpus_aggregates_errors(self, tmp_path, k3):
        (tmp_path / "good.json").write_text(dump_hypergraph_json(k3))
        (tmp_path / "bad1.json").write_text("{broken")
        (tmp_path / "bad2.json").write_text('{"vertices": [], "edges": [], "x": 1}')
        with pytest.raises(ParseError) as exc:
            load_corpus(tmp_path)
        msg = str(exc.value)
        assert "bad1.json" in msg and "bad2.json" in msg

    def test_load_corpus_empty_dir(self, tmp_path):
        assert load_corpus(tmp_path) == []
