from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgpoly.bipoly import BiPoly
from hgpoly.corpus import cycle_graph
from hgpoly.errors import InputError
from hgpoly.formats import (
    _json_text,
    bipoly_to_json_terms,
    dump_hypergraph_json,
    dump_json_pieces,
    load_corpus,
    load_hypergraph,
    parse_hypergraph_text,
    read_deck,
    write_deck,
)

from .strategies import bipolys, hypergraphs


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _lazily(value):
    """value with every list, at any depth, given as an iterator over its items."""
    if type(value) is list:
        return iter([_lazily(item) for item in value])
    if type(value) is tuple:
        return tuple(_lazily(item) for item in value)
    if type(value) is dict:
        return {key: _lazily(item) for key, item in value.items()}
    return value


# each writer's whole text of a value; the lazy ones are given its lists as iterators.
# "whole" is the one-string writer that dump_hypergraph_json uses
WRITERS = {
    "whole": lambda value: _json_text(value, "\n"),
    "pieces": lambda value: "".join(dump_json_pieces(value)),
    "lazy pieces": lambda value: "".join(dump_json_pieces(_lazily(value))),
    "lazy whole": lambda value: _json_text(_lazily(value), "\n"),
}


class TestDumpJson:
    @settings(max_examples=60, deadline=None)
    @given(_json_values)
    def test_matches_the_standard_library(self, value):
        for name, write in WRITERS.items():
            assert write(value) == json.dumps(value, indent=2), name

    def test_escapes_like_the_standard_library(self):
        value = {"\u00e9\n\"\\": ["\ud83d\ude00", "\x00\x1f\x7f", 10**30, -1, True, None, [], {}, ()]}
        for name, write in WRITERS.items():
            assert write(value) == json.dumps(value, indent=2), name

    @pytest.mark.parametrize(
        "value", [1.5, {1: "a"}, {("a",): 1}, {"a"}, b"a", object(), [1, 2.0], {"a": {"b": float("nan")}}]
    )
    def test_other_types_raise(self, value):
        for write in WRITERS.values():
            with pytest.raises(TypeError):
                write(value)

    def test_pieces_draw_an_iterator_only_as_they_are_consumed(self):
        drawn = []

        def rows(name, count):
            for k in range(count):
                drawn.append(f"{name}{k}")
                yield [k, f"{name}{k}"]

        value = {"n": 3, "rows": rows("r", 3), "nested": {"none": rows("x", 0), "more": rows("m", 2)}}
        pieces = dump_json_pieces(value)
        assert drawn == []
        written = ""
        for piece in pieces:
            written += piece
            # every row drawn so far is in the text written so far
            assert all(f'"{name}"' in written for name in drawn), (drawn, written)
        assert drawn == ["r0", "r1", "r2", "m0", "m1"]
        value.update(rows=[[k, f"r{k}"] for k in range(3)], nested={"none": [], "more": [[0, "m0"], [1, "m1"]]})
        assert written == json.dumps(value, indent=2)


class TestHypergraphJson:
    def test_parse(self):
        h = parse_hypergraph_text('{"vertices": ["a","b","c"], "edges": [["a","b"],["b","c"]]}')
        assert h.n == 3 and h.m == 2

    def test_roundtrip(self, k3):
        assert parse_hypergraph_text(dump_hypergraph_json(k3)) == k3

    def test_trailing_garbage_rejected(self):
        with pytest.raises(InputError, match="^invalid JSON: Extra data"):
            parse_hypergraph_text('{"vertices": [], "edges": []} extra')

    def test_unknown_keys_rejected(self):
        with pytest.raises(InputError, match=r"^unexpected keys \['comment'\]$"):
            parse_hypergraph_text('{"vertices": [], "edges": [], "comment": "hi"}')

    def test_repeated_key_rejected(self):
        # keeping the last value would read a 2-vertex hypergraph
        with pytest.raises(InputError, match="^repeated key 'vertices'$"):
            parse_hypergraph_text('{"vertices": ["a"], "vertices": ["a", "b"], "edges": [["a", "b"]]}')

    def test_missing_keys_rejected(self):
        with pytest.raises(InputError, match="^need both 'vertices' and 'edges'$"):
            parse_hypergraph_text('{"vertices": []}')

    def test_bad_types_rejected(self):
        with pytest.raises(InputError, match="^vertex label 1 is not a string$"):
            parse_hypergraph_text('{"vertices": [1], "edges": []}')
        with pytest.raises(InputError, match="^edge 'a' is not a list of strings$"):
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
        with pytest.raises(InputError, match=r"^edge \['a', 'z'\] references unknown vertex 'z'$"):
            parse_hypergraph_text("a b\na z\n")

    def test_empty_input(self):
        with pytest.raises(InputError, match="^empty input$"):
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


def test_coefficients_json_roundtrip():
    # f, K(t) and h are written as dense lists of decimal strings
    p = BiPoly({(0, 0): 1, (2, 0): -(10**30)})
    encoded = json.loads(json.dumps([str(c) for c in p.coefficients()]))
    assert encoded == ["1", "0", str(-(10**30))]
    assert BiPoly(((i, 0), int(c)) for i, c in enumerate(encoded)) == p


class TestFiles:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="^cannot read .*nosuch.json"):
            load_hypergraph(tmp_path / "nosuch.json")

    def test_deck_roundtrip(self, tmp_path, path3):
        deck = path3.deck()
        paths = write_deck(deck, tmp_path / "deck")
        assert [os.path.basename(p) for p in paths] == ["card_00.json", "card_01.json", "card_02.json"]
        assert read_deck(tmp_path / "deck") == deck

    def test_read_deck_empty_dir(self, tmp_path):
        with pytest.raises(InputError, match=r"^no card_\*\.json files in "):
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
        with pytest.raises(InputError, match="card index 1 repeats") as exc:
            read_deck(tmp_path)
        assert "card_01.json" in str(exc.value) and extra in str(exc.value)

    @pytest.mark.parametrize("bad", ["card_x.json", "card_.json", "card_-1.json", "card_1a.json"])
    def test_read_deck_unparsable_name_rejected(self, tmp_path, path3, bad):
        write_deck(path3.deck(), tmp_path)
        (tmp_path / bad).write_text((tmp_path / "card_01.json").read_text())
        with pytest.raises(InputError, match=f"{bad}: card file name is not card_<integer>.json$"):
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
        with pytest.raises(InputError, match="^corpus errors:\n") as exc:
            load_corpus(tmp_path)
        msg = str(exc.value)
        assert "bad1.json" in msg and "bad2.json" in msg

    def test_load_corpus_empty_dir(self, tmp_path):
        assert load_corpus(tmp_path) == []

    @pytest.mark.parametrize("reader", [load_corpus, read_deck], ids=["load_corpus", "read_deck"])
    def test_readers_refuse_a_path_that_is_not_a_directory(self, tmp_path, k3, reader):
        path = os.path.join(tmp_path, "k3.json")
        with open(path, "w") as fh:
            fh.write(dump_hypergraph_json(k3))
        for missing in (path, os.path.join(tmp_path, "nosuch")):
            with pytest.raises(InputError, match="is not a directory$") as exc:
                reader(missing)
            assert str(exc.value) == f"{missing} is not a directory"
