from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hgpoly
from hgpoly import cli
from hgpoly.cli import build_parser, main
from hgpoly.errors import InternalMismatch, LimitExceeded
from hgpoly.formats import dump_hypergraph_json
from hgpoly.hypergraph import Hypergraph, validate
from hgpoly.stanley_reisner import SRInvariants

from .families import complete_graph, cycle_graph
from .strategies import hypergraphs
from .test_entry import _in_process
from .test_reconstruct import EXCLUDED_DECKS, cycle_chord

TARGETS = ("S", "P", "fvector", "hilbert", "betti")


@pytest.fixture
def k3_file(tmp_path, k3):
    p = tmp_path / "k3.json"
    p.write_text(dump_hypergraph_json(k3))
    return str(p)


@pytest.fixture
def chord_deck(tmp_path, capsys):
    """Deck directory of the 10-cycle plus the chord between vertices 0 and 5."""
    (tmp_path / "h.json").write_text(dump_hypergraph_json(cycle_chord(0, 5)))
    assert main(["deck", "--input", str(tmp_path / "h.json"), "--out-dir", str(tmp_path / "cards")]) == 0
    capsys.readouterr()
    return tmp_path / "cards"


@pytest.fixture
def path3_file(tmp_path, path3):
    p = tmp_path / "path3.json"
    p.write_text(dump_hypergraph_json(path3))
    return str(p)


class TestCompute:
    def test_edge_poly_text(self, k3_file, capsys):
        assert main(["compute", "--poly", "S", "--input", k3_file]) == 0
        assert capsys.readouterr().out == "1 + 3*x^2*y + 3*x^3*y^2 + x^3*y^3\n"

    def test_vertex_poly_text(self, k3_file, capsys):
        assert main(["compute", "--poly", "P", "--input", k3_file]) == 0
        assert capsys.readouterr().out == "1 + 3*x + 3*x^2*y + x^3*y^3\n"

    def test_independence_text(self, k3_file, capsys):
        assert main(["compute", "--poly", "independence", "--input", k3_file]) == 0
        assert capsys.readouterr().out == "1 + 3*t\n"

    def test_json_terms(self, k3_file, capsys):
        assert main(["compute", "--poly", "S", "--format", "json", "--input", k3_file]) == 0
        terms = json.loads(capsys.readouterr().out)
        assert terms == [[0, 0, "1"], [2, 1, "3"], [3, 2, "3"], [3, 3, "1"]]

    def test_missing_file_exit_2(self, capsys):
        assert main(["compute", "--poly", "P", "--input", "nosuch.json"]) == 2
        assert "nosuch.json" in capsys.readouterr().err


class TestInvariantCommands:
    def test_hilbert(self, k3_file, capsys):
        assert main(["hilbert", "--terms", "4", "--input", k3_file]) == 0
        assert capsys.readouterr().out == "1 3 3 3 3\n"

    def test_fvector(self, path3_file, capsys):
        assert main(["fvector", "--input", path3_file]) == 0
        assert capsys.readouterr().out == "(1, 3, 1)\n"

    def test_hvector(self, path3_file, capsys):
        assert main(["hvector", "--input", path3_file]) == 0
        assert capsys.readouterr().out == "(1, 1, -1)\n"

    def test_betti_json(self, k3_file, capsys):
        assert main(["betti", "--format", "json", "--input", k3_file]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["graded"] == [[0, 0, 1], [1, 2, 3], [2, 3, 2]]
        assert [entry for entry in table["multigraded"] if entry[0] == 2] == [[2, ["a", "b", "c"], 2]]

    def test_betti_text_layout(self, k3_file, capsys):
        assert main(["betti", "--input", k3_file]) == 0
        out = capsys.readouterr().out
        assert "total: 1 3 2" in out
        assert "projective dimension: 2" in out
        assert "depth: 1" in out


class TestVerify:
    def test_all_ok_exit_0(self, k3_file, capsys):
        assert main(["verify", "--identity", "all", "--input", k3_file]) == 0
        out = capsys.readouterr().out
        for ident in ("2.1", "2.3", "3.2", "4.2", "4.3"):
            assert f"identity {ident}: ok" in out

    def test_single_identity(self, k3_file, capsys):
        assert main(["verify", "--identity", "3.2", "--input", k3_file]) == 0
        assert capsys.readouterr().out == "identity 3.2: ok\n"

    def test_excluded_input_with_explicit_identity_exit_2(self, tmp_path, capsys):
        p = tmp_path / "edgeless.json"
        p.write_text(dump_hypergraph_json(validate(["a", "b", "c"], [])))
        assert main(["verify", "--identity", "4.2", "--input", str(p)]) == 2

    def test_all_skips_excluded(self, tmp_path, capsys):
        p = tmp_path / "edgeless.json"
        p.write_text(dump_hypergraph_json(validate(["a", "b", "c"], [])))
        assert main(["verify", "--identity", "all", "--input", str(p)]) == 0
        assert "identity 4.2: skipped" in capsys.readouterr().out

    def test_failure_exits_1(self, k3_file, capsys, monkeypatch):
        import hgpoly.verify as verify_mod

        monkeypatch.setitem(
            verify_mod.__dict__, "verify_transform", lambda inv: False
        )
        assert main(["verify", "--identity", "2.1", "--input", k3_file]) == 1
        assert "identity 2.1: FAIL" in capsys.readouterr().out


class TestDeckRoundtrip:
    def test_deck_then_reconstruct(self, tmp_path, k3_file, capsys):
        deck_dir = tmp_path / "cards"
        assert main(["deck", "--input", k3_file, "--out-dir", str(deck_dir)]) == 0
        listing = capsys.readouterr().out.splitlines()
        assert len(listing) == 3 and listing[0].endswith("card_00.json")

        assert main(["reconstruct", "--deck", str(deck_dir), "--target", "S"]) == 0
        assert capsys.readouterr().out == "1 + 3*x^2*y + 3*x^3*y^2 + x^3*y^3\n"

        assert main(["reconstruct", "--deck", str(deck_dir), "--target", "P"]) == 0
        assert capsys.readouterr().out == "1 + 3*x + 3*x^2*y + x^3*y^3\n"

        assert main(["reconstruct", "--deck", str(deck_dir), "--target", "fvector"]) == 0
        assert capsys.readouterr().out == "(1, 3)\n"

        assert main(["reconstruct", "--deck", str(deck_dir), "--target", "hilbert", "--terms", "4"]) == 0
        assert capsys.readouterr().out == "1 3 3 3 3\n"

        assert main(["reconstruct", "--deck", str(deck_dir), "--target", "betti"]) == 0
        out = capsys.readouterr().out
        assert "unknown" in out  # the top row is flagged
        # the partial table must not present pd/reg/depth as definitive
        assert "projective dimension >=" in out
        assert "projective dimension:" not in out

    def test_missing_card_exit_2(self, tmp_path, k3_file, capsys):
        # S, P, f and the Hilbert function read only the card sum, so the
        # card count is checked when the deck is read
        deck_dir = tmp_path / "cards"
        assert main(["deck", "--input", k3_file, "--out-dir", str(deck_dir)]) == 0
        (deck_dir / "card_02.json").unlink()
        capsys.readouterr()
        assert main(["reconstruct", "--deck", str(deck_dir), "--target", "S"]) == 2
        assert capsys.readouterr().err == f"error: {deck_dir}: expected 3 cards, got 2\n"

    def test_corrupted_deck_exit_2(self, tmp_path, capsys):
        # parent: path on 4 vertices; an edge added to card 0 that avoids
        # vertex c is missing from card 2, so no parent exists
        p = tmp_path / "path4.json"
        p.write_text(
            json.dumps(
                {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"], ["c", "d"]]}
            )
        )
        deck_dir = tmp_path / "cards"
        main(["deck", "--input", str(p), "--out-dir", str(deck_dir)])
        capsys.readouterr()
        card = deck_dir / "card_00.json"
        card.write_text(
            json.dumps({"vertices": ["b", "c", "d"], "edges": [["b", "c"], ["c", "d"], ["b", "d"]]})
        )
        assert main(["reconstruct", "--deck", str(deck_dir), "--target", "S"]) == 2
        assert "is on card 0 but not on card 2" in capsys.readouterr().err

    def test_card_from_another_deck_exit_2(self, tmp_path, chord_deck, capsys):
        (tmp_path / "other.json").write_text(dump_hypergraph_json(cycle_chord(2, 7)))
        main(["deck", "--input", str(tmp_path / "other.json"), "--out-dir", str(tmp_path / "other")])
        shutil.copy(tmp_path / "other" / "card_05.json", chord_deck / "card_05.json")
        capsys.readouterr()
        for target in TARGETS:
            assert main(["reconstruct", "--deck", str(chord_deck), "--target", target]) == 2, target
            err = capsys.readouterr().err
            assert "not a genuine deck" in err, target
        assert "on card 5 but not on card 0" in err  # betti names the cards

    def test_relabelled_card_rejected_on_read_for_every_target(self, tmp_path, chord_deck, capsys):
        # card 3 of cycle_chord(1, 6) is isomorphic to the genuine card 3
        # and has the same labels, so the deck sums cannot tell them apart
        (tmp_path / "other.json").write_text(dump_hypergraph_json(cycle_chord(1, 6)))
        main(["deck", "--input", str(tmp_path / "other.json"), "--out-dir", str(tmp_path / "other")])
        shutil.copy(tmp_path / "other" / "card_03.json", chord_deck / "card_03.json")
        capsys.readouterr()
        for target in TARGETS:
            assert main(["reconstruct", "--deck", str(chord_deck), "--target", target]) == 2, target
            assert capsys.readouterr() == (
                "",
                f"error: {chord_deck}: edge ['a', 'f'] is on card 1 but not on card 3, whose deleted vertex it avoids; "
                "the input is not a genuine deck\n",
            ), target

    @pytest.mark.parametrize(
        "change, message",
        [
            ("one_card", "need at least two cards to recover the vertex order"),
            ("same_labels", "cards 0 and 1 do not differ in exactly one label"),
        ],
    )
    def test_deck_refusal_names_the_directory(self, chord_deck, capsys, change, message):
        # every card parses, so the refusal is about the deck as a whole (a
        # card copied from another deck is the test above)
        if change == "one_card":
            for card in chord_deck.glob("card_*.json"):
                if card.name != "card_00.json":
                    card.unlink()
        else:
            shutil.copy(chord_deck / "card_00.json", chord_deck / "card_01.json")
        assert main(["reconstruct", "--deck", str(chord_deck), "--target", "S"]) == 2
        assert capsys.readouterr() == ("", f"error: {chord_deck}: {message}\n")

    def test_invalid_card_named_for_every_target(self, chord_deck, capsys):
        card = chord_deck / "card_02.json"
        card.write_text(json.dumps({"vertices": ["b", "c"], "edges": [["b"], ["b", "c"]]}))
        for target in TARGETS:
            assert main(["reconstruct", "--deck", str(chord_deck), "--target", target]) == 2, target
            assert capsys.readouterr() == ("", f"error: {card}: edge {{b}} is contained in edge {{b, c}}\n"), target

    def test_mixed_width_deck_reconstructs_as_padded(self, tmp_path, chord_deck, capsys):
        mixed = shutil.copytree(chord_deck, tmp_path / "mixed")
        for k in (1, 3, 4, 8):
            (mixed / f"card_0{k}.json").rename(mixed / f"card_{k}.json")
        for target in TARGETS:
            outs = []
            for deck in (chord_deck, mixed):
                assert main(["reconstruct", "--deck", str(deck), "--target", target]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1], target

    def test_out_dir_naming_a_file_exit_2(self, k3_file, capsys):
        assert main(["deck", "--input", k3_file, "--out-dir", k3_file]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot write the deck to {k3_file}: ")

    def test_larger_earlier_deck_refused_before_writing(self, chord_deck, k3_file, capsys):
        before = {p.name: p.read_text() for p in chord_deck.iterdir()}
        assert main(["deck", "--input", k3_file, "--out-dir", str(chord_deck)]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: {chord_deck} already holds card_03.json, which this 3-card deck "
            "would not overwrite; write the deck to an empty directory\n",
        )
        assert {p.name: p.read_text() for p in chord_deck.iterdir()} == before

    def test_deck_rewritten_over_itself_or_a_smaller_deck(self, tmp_path, chord_deck, k3_file, capsys):
        (chord_deck / "notes.txt").write_text("kept")
        before = {p.name: p.read_text() for p in chord_deck.iterdir()}
        assert main(["deck", "--input", str(tmp_path / "h.json"), "--out-dir", str(chord_deck)]) == 0
        assert {p.name: p.read_text() for p in chord_deck.iterdir()} == before
        small = tmp_path / "small"
        assert main(["deck", "--input", k3_file, "--out-dir", str(small)]) == 0
        assert main(["deck", "--input", str(tmp_path / "h.json"), "--out-dir", str(small)]) == 0
        assert sorted(p.name for p in small.iterdir()) == sorted(before)[:-1]

    def test_parallel_flag_output_identical(self, chord_deck, capsys):
        for target in TARGETS:
            outs = []
            for extra in ([], ["--parallel"]):
                assert main(["reconstruct", "--deck", str(chord_deck), "--target", target, "--format", "json"] + extra) == 0
                outs.append(capsys.readouterr().out.encode())
            assert outs[0] == outs[1], target


def _write_deck(tmp_path, h: Hypergraph, capsys) -> str:
    (tmp_path / "parent.json").write_text(dump_hypergraph_json(h))
    deck = str(tmp_path / "cards")
    assert main(["deck", "--input", str(tmp_path / "parent.json"), "--out-dir", deck]) == 0
    capsys.readouterr()
    return deck


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("parent", sorted(EXCLUDED_DECKS))
def test_excluded_deck_refused_by_every_target(tmp_path, capsys, parent, target):
    # the deck is refused from its parent before any limit is read, so the
    # cards over --n-max 1 and the parent over --homology-n-max 1 change nothing
    h, message = EXCLUDED_DECKS[parent]
    deck = _write_deck(tmp_path, h, capsys)
    for limits in ([], ["--n-max", "1", "--homology-n-max", "1"]):
        assert main(["reconstruct", "--deck", deck, "--target", target] + limits) == 2, limits
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("n_max, over", [("4", {"P", "fvector"}), ("5", set())])
@pytest.mark.parametrize("target", TARGETS[:4])
def test_edgeless_deck_with_cards_over_the_limit(tmp_path, capsys, target, n_max, over):
    # the cards have 5 vertices and no edges, so only the vertex sweeps of
    # the targets in `over` would pass the limit; the edgeless deck is
    # refused from its parent before any sweep, so every target exits 2
    deck = _write_deck(tmp_path, validate(list("abcdef"), []), capsys)
    code = main(["reconstruct", "--deck", deck, "--target", target, "--n-max", n_max])
    message = EXCLUDED_DECKS["edgeless3"][1]
    assert (code, capsys.readouterr()) == (2, ("", f"error: {message}\n")), (target in over, n_max)


@pytest.mark.parametrize(
    "labels, limit, expected",
    [
        ("ab", "1", (2, "reconstruction needs n >= 3, got n=2")),
        ("abcdef", "5", (2, EXCLUDED_DECKS["edgeless3"][1])),
        ("abcdef", "6", (2, EXCLUDED_DECKS["edgeless3"][1])),
    ],
    ids=["n-below-3", "over-the-limit", "edgeless"],
)
def test_betti_refusal_order_on_edgeless_decks(tmp_path, capsys, labels, limit, expected):
    # the deck's parent refuses n < 3 first, then no edges, both before the
    # homology limit is read
    deck = _write_deck(tmp_path, validate(list(labels), []), capsys)
    code = main(["reconstruct", "--deck", deck, "--target", "betti", "--homology-n-max", limit])
    assert (code, capsys.readouterr()) == (expected[0], ("", f"error: {expected[1]}\n"))


# one bad file per kind of input error, parse and validation alike
BAD_FILES = {
    "invalid_json.json": "{broken",
    "wrong_type.json": json.dumps({"vertices": ["a"], "edges": "a"}),
    "antichain.json": json.dumps({"vertices": ["a", "b"], "edges": [["a"], ["a", "b"]]}),
    "unknown_vertex.json": json.dumps({"vertices": ["a", "b"], "edges": [["a", "z"]]}),
    "empty_edge.json": json.dumps({"vertices": ["a", "b"], "edges": [["a"], []]}),
    "repeated_key.json": '{"vertices": ["a"], "vertices": ["a", "b"], "edges": [["a", "b"]]}',
    # raw structure of the right JSON object
    "vertices_string.json": json.dumps({"vertices": "ab", "edges": []}),
    "vertices_object.json": json.dumps({"vertices": {"a": 1}, "edges": []}),
    "edge_string.json": json.dumps({"vertices": ["a", "b"], "edges": ["ab"]}),
    "edge_object.json": json.dumps({"vertices": ["a"], "edges": [{"a": 1}]}),
    "label_number.json": json.dumps({"vertices": ["a", 1], "edges": []}),
    "label_list.json": json.dumps({"vertices": ["a"], "edges": [["a", ["a"]]]}),
    # JSON that the decoder itself refuses, or text that starts like JSON
    "top_level_array.json": '["a", "b"]',
    "deep_nesting.json": '{"vertices": ' + "[" * 200_000 + "]" * 200_000 + ', "edges": []}',
    "long_integer.json": '{"vertices": [' + "7" * 5000 + '], "edges": []}',
    "bracket_label.txt": "[a b\n[a b\n",
}


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_every_reader_names_the_file(tmp_path, capsys, k3, name):
    single = tmp_path / name
    members = tmp_path / "members"
    members.mkdir()
    (members / "good.json").write_text(dump_hypergraph_json(k3))
    deck = _write_deck(tmp_path, cycle_graph(4), capsys)
    card = os.path.join(deck, "card_00.json")
    details = []
    for path, argv, lead in (
        (single, ["fvector", "--input", str(single)], "error: "),
        (members / name, ["report", "--input", str(members)], "error: corpus errors:\n"),
        (card, ["reconstruct", "--deck", deck, "--target", "S"], "error: "),
    ):
        with open(path, "w") as fh:
            fh.write(BAD_FILES[name])
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"{lead}{path}: "), (argv, err)
        details.append(err.removeprefix(f"{lead}{path}: "))
    assert details[0] == details[1] == details[2]
    assert details[0].count("\n") == 1 and details[0].endswith("\n")


def test_overlong_integer_refused_in_the_readers_terms(tmp_path, capsys):
    # Python's own message tells the reader to call sys.set_int_max_str_digits()
    path = tmp_path / "long_integer.json"
    path.write_text(BAD_FILES["long_integer.json"])
    assert main(["fvector", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert (out, err) == ("", f"error: {path}: invalid JSON: a number has 5000 digits; more than {limit} are refused\n")
    detail = err.removeprefix(f"error: {path}: ")
    assert "sys." not in detail and "()" not in detail


def _line_format(h: Hypergraph) -> str:
    return "\n".join(" ".join(labels) for labels in (h.labels, *h.edge_label_sets())) + "\n"


@pytest.mark.parametrize("write", [dump_hypergraph_json, _line_format], ids=["json", "lines"])
def test_byte_order_mark_read_as_plain_utf8(tmp_path, capsys, write):
    c4 = cycle_graph(4)
    outs = []
    for bom in ("", "\ufeff"):
        single = tmp_path / f"c4{len(bom)}.txt"
        single.write_text(bom + write(c4), encoding="utf-8")
        (tmp_path / f"d{len(bom)}").mkdir()
        deck = _write_deck(tmp_path / f"d{len(bom)}", c4, capsys)
        with open(os.path.join(deck, "card_00.json"), "w", encoding="utf-8") as fh:
            fh.write(bom + write(c4.card(0)))
        got = [(main(["report", "--input", str(single)]), capsys.readouterr())]
        for target in TARGETS:
            got.append((main(["reconstruct", "--deck", deck, "--target", target]), capsys.readouterr()))
        outs.append(got)
    assert outs[0] == outs[1]
    assert all(code == 0 and err == "" for code, (_, err) in outs[0])


def test_cli_import_adds_no_heavy_modules():
    # the difference ignores whatever site preloads; dataclasses would
    # bring inspect, ast and dis with it
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hgpoly.cli, hgpoly.parallel\n"
        "mods = ('dataclasses', 'inspect', 'typing', 'concurrent.futures', 'multiprocessing')\n"
        "print(sorted(m for m in mods if m in set(sys.modules) - before), hgpoly.parallel._executor)"
    )
    src = os.path.dirname(os.path.dirname(hgpoly.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[] None\n"


class TestLimitsAndConfig:
    def test_limit_exceeded_exit_3(self, k3_file, capsys):
        assert main(["compute", "--poly", "S", "--n-max", "2", "--input", k3_file]) == 3
        assert "limit" in capsys.readouterr().err

    def test_negative_terms_rejected(self, k3_file):
        assert main(["hilbert", "--terms", "-1", "--input", k3_file]) == 2

    def test_terms_above_bound_exit_3(self, k3_file, capsys):
        assert main(["hilbert", "--terms", "10001", "--input", k3_file]) == 3
        err = capsys.readouterr().err
        assert "10001" in err and "10000" in err

    def test_terms_at_bound_runs(self, k3_file, capsys):
        assert main(["hilbert", "--terms", "10000", "--input", k3_file]) == 0
        assert len(capsys.readouterr().out.split()) == 10001

    def test_nonpositive_limit_rejected(self, k3_file):
        assert main(["compute", "--poly", "S", "--n-max", "0", "--input", k3_file]) == 2

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--poly", "Q", "--input", "x.json"])
        assert exc.value.code == 2


def _descriptors() -> list[str] | None:
    """This process's open descriptors, or None where /proc/self/fd is absent."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _assert_no_child_left(descriptors: list[str] | None) -> None:
    """No child is left to reap, and no descriptor opened since ``descriptors`` was taken is left open."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _descriptors() == descriptors


class Sink:
    """A stdout that counts what is written to it and keeps none of it."""

    written = 0

    def write(self, piece):
        self.written += len(piece)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


def _traced_peak(argv: list[str]) -> tuple[int, int]:
    """(tracemalloc's peak in bytes, characters written) of ``main(argv)``, which must exit 0."""
    sink = Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sink.written


class TestReport:
    def test_single_report_structure(self, k3_file, capsys):
        assert main(["report", "--terms", "6", "--input", k3_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 3 and doc["m"] == 3
        assert doc["f_vector"] == ["1", "3"]
        assert doc["h_vector"] == ["1", "2"]
        assert doc["multiplicity"] == "3"
        assert doc["krull_dim"] == 1
        assert doc["hilbert_function"] == ["1", "3", "3", "3", "3", "3", "3"]
        assert doc["k_polynomial"]["coefficients"] == ["1", "0", "-3", "2"]
        assert doc["betti"]["graded"] == [[0, 0, 1], [1, 2, 3], [2, 3, 2]]
        assert doc["homological"] == {
            "projective_dimension": 2,
            "regularity_ring": 1,
            "regularity_ideal": 2,
            "depth": 1,
        }
        assert doc["top_betti"]["determined"] is True
        assert doc["antidiagonal_recovery"]["applicable"] is True
        assert all(v is True for v in doc["identities"].values())

    def test_dense_coefficients_keep_inner_zeros_and_trim_trailing_ones(self, tmp_path, capsys):
        # the path a-b-c beside the isolated d: h runs to d = 3 and ends in 0, the reduced
        # numerator drops that 0, K(t) keeps its 0 at t, and K has no t^n term
        path = tmp_path / "p3k1.json"
        path.write_text(dump_hypergraph_json(validate(list("abcd"), [["a", "b"], ["b", "c"]])))
        assert main(["report", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["h_vector"] == ["1", "1", "-1", "0"]
        assert doc["hilbert_series"]["reduced_numerator"] == ["1", "1", "-1"]
        assert doc["k_polynomial"] == {"text": "1 - 2*t^2 + t^3", "coefficients": ["1", "0", "-2", "1"]}
        assert doc["hilbert_series"]["numerator"] == ["1", "0", "-2", "1"]
        assert doc["top_betti"]["top_coefficient"] == "0"
        assert main(["compute", "--poly", "independence", "--input", str(path)]) == 0
        assert capsys.readouterr().out == "1 + 4*t + 4*t^2 + t^3\n"
        assert main(["compute", "--poly", "independence", "--format", "json", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == ["1", "4", "4", "1"]

    def test_report_with_m_above_homology_limit(self, tmp_path, capsys):
        # K6 has m=15 edges, above the homology limit of 14; only n may be
        # held against that limit, and the numerator K(t) is swept under
        # the enumeration limit
        p = tmp_path / "k6.json"
        p.write_text(dump_hypergraph_json(complete_graph(6)))
        assert main(["report", "--input", str(p)]) == 0
        doc = json.loads(capsys.readouterr().out)
        # linear resolution: b[i, i+1] = i * C(6, i+1), one entry per column
        assert doc["top_betti"] == {"top_coefficient": "-5", "entries": [[5, 5]], "determined": True}
        assert doc["antidiagonal_recovery"] == {
            "applicable": True,
            "entries": [[2, 15], [3, 40], [4, 45], [5, 24], [6, 5]],
        }
        assert all(v is True for v in doc["identities"].values())

    def test_report_respects_homology_limit(self, tmp_path, capsys):
        h = validate([f"v{k}" for k in range(5)], [["v0", "v1"]])
        p = tmp_path / "h.json"
        p.write_text(dump_hypergraph_json(h))
        assert main(["report", "--homology-n-max", "4", "--input", str(p)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["betti"] is None and "betti_skipped" in doc
        assert doc["identities"]["4.3"].startswith("skipped")

    def test_directory_report(self, tmp_path, k3, path3, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        (tmp_path / "k3.json").write_text(dump_hypergraph_json(k3))
        (tmp_path / "p3.json").write_text(dump_hypergraph_json(path3))
        descriptors = _descriptors()
        assert main(["report", "--terms", "4", "--input", str(tmp_path)]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["name"] for d in docs] == ["k3.json", "p3.json"]
        _assert_no_child_left(descriptors)

    def test_directory_with_bad_file_exit_2(self, tmp_path, k3, capsys):
        (tmp_path / "k3.json").write_text(dump_hypergraph_json(k3))
        (tmp_path / "bad.json").write_text("{nope")
        assert main(["report", "--input", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad.json" in captured.err

    def test_directory_names_every_invalid_member(self, tmp_path, k3, capsys):
        # members that parse but fail validation are each named once, and
        # one bad member does not hide a later one
        (tmp_path / "a_nested.json").write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a"], ["a", "b"]]}))
        (tmp_path / "b_unknown.json").write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "z"]]}))
        (tmp_path / "c_k3.json").write_text(dump_hypergraph_json(k3))
        assert main(["report", "--input", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("a_nested.json") == 1 and err.count("b_unknown.json") == 1
        assert "c_k3.json" not in err

    def test_directory_member_over_limit_named(self, tmp_path, k3, capsys, monkeypatch):
        # the member over the limit sorts last, and is refused before any
        # member's report is built
        calls = []
        monkeypatch.setattr(cli, "_report_for", lambda h, args: calls.append(h))
        (tmp_path / "a_k3.json").write_text(dump_hypergraph_json(k3))
        (tmp_path / "k8.json").write_text(dump_hypergraph_json(complete_graph(8)))
        assert main(["report", "--input", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: k8.json: m=28 exceeds the enumeration limit 24; raise the limit explicitly to run anyway\n"
        )
        assert calls == []

    def test_directory_internal_failure_midway_exit_1(self, tmp_path, k3, path3, capsys, monkeypatch):
        # with two workers the failing member 1 is the forked worker's
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        (tmp_path / "a.json").write_text(dump_hypergraph_json(k3))
        assert main(["report", "--input", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        (tmp_path / "b.json").write_text(dump_hypergraph_json(path3))
        report_for = cli._report_for

        def fail_on_second(h, args):
            if h == path3:
                raise InternalMismatch("routes disagree")
            return report_for(h, args)

        monkeypatch.setattr(cli, "_report_for", fail_on_second)
        descriptors = _descriptors()
        assert main(["report", "--input", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "internal consistency failure: routes disagree\n"
        # the first member's document was written before the failure
        assert captured.out.startswith(first[: -len("\n]\n")])
        _assert_no_child_left(descriptors)

    def test_directory_internal_failure_in_this_process_exit_1(self, tmp_path, k3, path3, capsys, monkeypatch):
        # with two workers member 2 of 3 is the calling process's, and member 1 the forked worker's
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        for name in ("a", "b"):
            (tmp_path / f"{name}.json").write_text(dump_hypergraph_json(k3))
        assert main(["report", "--input", str(tmp_path)]) == 0
        first_two = capsys.readouterr().out
        (tmp_path / "c.json").write_text(dump_hypergraph_json(path3))
        report_for = cli._report_for

        def fail_on_third(h, args):
            if h == path3:
                raise InternalMismatch("routes disagree")
            return report_for(h, args)

        monkeypatch.setattr(cli, "_report_for", fail_on_third)
        descriptors = _descriptors()
        assert main(["report", "--input", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "internal consistency failure: routes disagree\n"
        assert captured.out.startswith(first_two[: -len("\n]\n")])
        _assert_no_child_left(descriptors)

    def test_directory_report_with_no_process_to_fork(self, tmp_path, k3, path3, capsys, monkeypatch):
        # the second fork fails: the first worker still builds member 1, and this
        # process builds members 0 and 2, the second worker's among them
        members = tmp_path / "members"
        members.mkdir()
        for name, h in (("a", k3), ("b", path3), ("c", k3)):
            (members / f"{name}.json").write_text(dump_hypergraph_json(h))
        assert main(["report", "--input", str(members)]) == 0
        expected = capsys.readouterr()
        fork = os.fork
        forks = []

        def fork_once():
            forks.append(None)
            if len(forks) > 1:
                raise BlockingIOError("no process to be had")
            return fork()

        report_for = cli._report_for
        log = tmp_path / "builders"

        def logged_report(h, args):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return report_for(h, args)

        monkeypatch.setattr(cli, "_usable_cores", lambda: 3)
        monkeypatch.setattr(cli, "_report_for", logged_report)
        monkeypatch.setattr(os, "fork", fork_once)
        descriptors = _descriptors()
        assert main(["report", "--input", str(members)]) == 0
        assert capsys.readouterr() == expected
        assert len(forks) == 2
        pids = log.read_text().split()
        assert len(pids) == 3 and pids.count(str(os.getpid())) == 2
        _assert_no_child_left(descriptors)

    def test_directory_report_worker_failure_raises_as_on_one_core(self, tmp_path, k3, path3, capsys, monkeypatch):
        # member 1 is the forked worker's: it sends nothing for it, and this process
        # builds it again and raises the same exception
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        (tmp_path / "a.json").write_text(dump_hypergraph_json(k3))
        (tmp_path / "b.json").write_text(dump_hypergraph_json(path3))
        report_for = cli._report_for

        def fail_on_second(h, args):
            if h == path3:
                raise ValueError("a bug")
            return report_for(h, args)

        monkeypatch.setattr(cli, "_report_for", fail_on_second)
        descriptors = _descriptors()
        with pytest.raises(ValueError, match="^a bug$"):
            main(["report", "--input", str(tmp_path)])
        assert capsys.readouterr().err == ""
        _assert_no_child_left(descriptors)

    def test_directory_report_worker_that_dies_changes_nothing(self, tmp_path, k3, path3, capsys, monkeypatch):
        # the forked worker leaves on its first member, sending nothing: this process
        # builds every member, and the output is that of one core
        for name, h in (("a", k3), ("b", path3), ("c", k3), ("d", path3)):
            (tmp_path / f"{name}.json").write_text(dump_hypergraph_json(h))
        monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
        assert main(["report", "--input", str(tmp_path)]) == 0
        expected = capsys.readouterr()
        parent, report_for = os.getpid(), cli._report_for

        def die_in_a_worker(h, args):
            if os.getpid() != parent:
                os._exit(0)
            return report_for(h, args)

        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        monkeypatch.setattr(cli, "_report_for", die_in_a_worker)
        descriptors = _descriptors()
        assert main(["report", "--input", str(tmp_path)]) == 0
        assert capsys.readouterr() == expected
        _assert_no_child_left(descriptors)

    def test_directory_report_memory_follows_the_largest_member(self, tmp_path):
        text = dump_hypergraph_json(cycle_graph(8))
        for k in range(128):
            (tmp_path / f"c{k:03d}.json").write_text(text)

        descriptors = _descriptors()
        peak, written = _traced_peak(["report", "--input", str(tmp_path)])
        assert peak < 0.25 * written, (peak, written)
        _assert_no_child_left(descriptors)

    @pytest.mark.parametrize("command", [["report"], ["betti", "--format", "json"]], ids=" ".join)
    def test_single_document_memory_follows_the_table(self, tmp_path, command):
        # the multigraded table is drawn entry by entry as it is written, so
        # neither the document nor a list of its entries is ever held whole
        path = tmp_path / "c14.json"
        path.write_text(dump_hypergraph_json(cycle_graph(14)))
        peak, written = _traced_peak([*command, "--input", str(path)])
        assert peak < 2.5 * written, (peak, written)

    def test_directory_report_frees_each_member_once_written(self, tmp_path, monkeypatch):
        members = tmp_path / "members"
        members.mkdir()
        text = dump_hypergraph_json(cycle_graph(5))
        for k in range(4):
            (members / f"c{k}.json").write_text(text)
        report_for = cli._report_for
        drawn = []  # in the process that draws: a forked worker starts with it empty
        log = tmp_path / "draws"

        def report_after_freeing(h, args):
            # in every process, each earlier member is freed when the next member is drawn
            assert [ref() for ref in drawn] == [None] * len(drawn)
            drawn.append(weakref.ref(h))
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return report_for(h, args)

        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        monkeypatch.setattr(cli, "_report_for", report_after_freeing)
        descriptors = _descriptors()
        assert main(["report", "--input", str(members)]) == 0
        pids = log.read_text().split()
        assert len(pids) == 4 and len(set(pids)) == 2
        _assert_no_child_left(descriptors)

    def test_ten_thousand_edges_refused_without_pairwise_check(self, tmp_path, capsys):
        # every edge pair would be compared before the vertex limit is read
        labels = [f"v{k}" for k in range(400)]
        edges = [[labels[a], labels[b]] for a in range(400) for b in range(a + 1, 400)][:10_000]
        p = tmp_path / "big.json"
        p.write_text(json.dumps({"vertices": labels, "edges": edges}))
        start = time.perf_counter()
        assert main(["report", "--input", str(p)]) == 3
        assert time.perf_counter() - start < 5.0
        assert "n=400 exceeds the enumeration limit 24" in capsys.readouterr().err

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00")
        assert main(["report", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and "Traceback" not in err

    def test_directory_with_non_utf8_file_exit_2(self, tmp_path, k3, capsys):
        (tmp_path / "k3.json").write_text(dump_hypergraph_json(k3))
        (tmp_path / "bad.json").write_bytes(b"\xff\xfe\x00")
        assert main(["report", "--input", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "corpus errors" in err and "bad.json" in err and "Traceback" not in err


def test_text_and_json_encode_identical_values(k3_file, capsys):
    main(["fvector", "--input", k3_file])
    text = capsys.readouterr().out.strip()
    main(["fvector", "--format", "json", "--input", k3_file])
    as_json = json.loads(capsys.readouterr().out)
    assert text == "(" + ", ".join(as_json) + ")"


@settings(max_examples=60, deadline=None)
@given(hypergraphs(), st.integers(1, 6))
def test_sweep_limit_check_agrees_with_report(h, n_max):
    # the directory report checks every member before building any
    # report, so the check must refuse exactly what a report refuses
    def refusal(run):
        try:
            run()
        except LimitExceeded as exc:
            return str(exc)
        return None

    checked = refusal(lambda: SRInvariants(h, n_max).check(cli._REPORT_READS))
    args = build_parser().parse_args(["report", "--n-max", str(n_max), "--input", "-"])
    assert checked == refusal(lambda: cli._report_for(h, args))


# -- argv: _parse over the option table, and argparse for everything it leaves --

# option values by kind: _parse reads the good ones; it leaves the bad ones to
# argparse, which reads -1 and refuses the others
_GOOD = {int: ("5_0", " 7", "3"), str: ("p", "-", "a b")}
_BAD = {int: ("-1", "x"), str: ("-p",)}
_ODD = ("-h", "--help", "--", "--bogus", "report")


def _argparse(argv: list[str]):
    """argparse's namespace fields for argv, or None where it exits: help or a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def _values(keywords: dict) -> tuple[list[list[str]], list[list[str]]]:
    """The good and the bad value words of an option."""
    if "action" in keywords:
        return [[]], []
    if "choices" in keywords:
        return [[choice] for choice in keywords["choices"]], [["bogus"]]
    kind = keywords.get("type", str)
    return [[v] for v in _GOOD[kind]], [[v] for v in _BAD[kind]]


@st.composite
def _argvs(draw) -> tuple[list[str], bool]:
    """An argv over the option table, and whether it is well formed: a
    subcommand, then every required option and any optional ones in any
    order, repeats allowed, each spelled in full with a good value. Up to
    two defects may follow: a required option dropped, a bad value, an
    abbreviated or joined spelling, or an odd word."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    table = dict(cli._COMMANDS[command][1])
    pieces = []
    for flag, keywords in table.items():
        for _ in range(draw(st.integers(1 if keywords.get("required") else 0, 2))):
            pieces.append([flag, *draw(st.sampled_from(_values(keywords)[0]))])
    defects = draw(st.lists(st.sampled_from(("missing", "bad value", "abbreviated", "joined", "odd word")), max_size=2))
    for defect in defects:
        if defect == "missing":
            dropped = draw(st.sampled_from([flag for flag, keywords in table.items() if keywords.get("required")]))
            pieces = [piece for piece in pieces if piece[0] != dropped]
        elif defect == "odd word":
            pieces.append([draw(st.sampled_from(_ODD))])
        elif pieces:
            k = draw(st.integers(0, len(pieces) - 1))
            flag, *value = pieces[k]
            if defect == "abbreviated":
                pieces[k] = [flag[:5], *value]
            elif defect == "joined":
                pieces[k] = [f"{flag}={''.join(value)}"]
            elif flag in table and _values(table[flag])[1]:
                pieces[k] = [flag, *draw(st.sampled_from(_values(table[flag])[1]))]
    argv = [command] + [word for piece in draw(st.permutations(pieces)) for word in piece]
    return argv, not defects


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_parse_agrees_with_argparse(drawn):
    argv, well_formed = drawn
    parsed, expected = cli._parse(argv), _argparse(argv)
    if parsed is not None:
        assert vars(parsed) == expected  # never accepts what argparse refuses
    assert parsed is not None or not well_formed


def _argparse_exit(argv: list[str]) -> tuple[object, bytes, bytes]:
    """argparse's exit code, stdout and stderr for help or a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    return exc.value.code, out.getvalue().encode(), err.getvalue().encode()


FALLBACK_ARGVS = {
    "help": ["--help"],
    **{f"{command} --help": [command, "--help"] for command in cli._COMMANDS},
    "bad choice": ["compute", "--poly", "Q", "--input", "x.json"],
    "missing required option": ["reconstruct", "--deck", "cards"],
    "unknown option": ["fvector", "--input", "x.json", "--bogus"],
    "bad int": ["hilbert", "--terms", "x", "--input", "x.json"],
}


@pytest.mark.parametrize("argv", FALLBACK_ARGVS.values(), ids=FALLBACK_ARGVS.keys())
def test_help_and_usage_errors_are_argparse_own(argv, monkeypatch):
    assert cli._parse(argv) is None
    assert _in_process(argv, monkeypatch) == _argparse_exit(argv)  # COLUMNS=80 on both sides


# the shared options each subcommand takes, in --help order: each is one its handler reads
TAKEN = {
    "compute": ("--format", "--n-max"),
    "hilbert": ("--format", "--terms", "--n-max"),
    "fvector": ("--format", "--n-max"),
    "hvector": ("--format", "--n-max"),
    "betti": ("--format", "--homology-n-max"),
    "deck": ("--format",),
    "reconstruct": ("--format", "--terms", "--n-max", "--homology-n-max"),
    "verify": ("--format", "--n-max", "--homology-n-max"),
    "report": ("--terms", "--n-max", "--homology-n-max"),
}
SHARED = ("--format", "--terms", "--n-max", "--homology-n-max")


def test_parallel_is_a_usage_error_off_reconstruct(k3_file, tmp_path, monkeypatch):
    # an option a subcommand never reads is argparse's usage error: a shared one
    # off the subcommands that read it, and --parallel, which reads nowhere, off
    # reconstruct, where callers pass it
    assert sorted(TAKEN) == sorted(cli._COMMANDS)
    dead = []
    for command, taken in TAKEN.items():
        flags = [flag for flag, _ in cli._COMMANDS[command][1]]
        # the shared ones come first, so --help lists the options in the order it always has
        assert [flag for flag in flags if flag in SHARED] == flags[: len(taken)] == list(taken)
        takes = taken + (("--parallel",) if command == "reconstruct" else ())
        usage = _argparse_exit([command, "--help"])[1].decode()
        assert [flag for flag in SHARED + ("--parallel",) if re.search(rf"\[{flag}[ \]]", usage)] == list(takes)
        dead += [(command, flag) for flag in SHARED + ("--parallel",) if flag not in takes]
    assert len(dead) == 14 + 8  # 14 dead slots of the four valued options, 8 of --parallel
    required = {"compute": ["--poly", "S"], "deck": ["--out-dir", str(tmp_path / "cards")],
                "reconstruct": ["--deck", str(tmp_path), "--target", "S"]}
    for command, flag in dead:
        value = [] if flag == "--parallel" else ["json" if flag == "--format" else "5"]
        argv = [command, "--input", k3_file, *required.get(command, []), flag, *value]
        assert cli._parse(argv) is None
        code, out, err = _in_process(argv, monkeypatch)
        assert (code, out) == (2, b"")
        assert err.endswith(f"error: unrecognized arguments: {' '.join([flag, *value])}\n".encode())
    assert not (tmp_path / "cards").exists()


@pytest.mark.parametrize("spelling", [["--inp", "{}"], ["--input={}"]], ids=["abbreviated", "joined"])
def test_other_spellings_run_as_argparse_reads_them(spelling, k3_file, monkeypatch):
    argv = ["report", *(word.format(k3_file) for word in spelling)]
    assert cli._parse(argv) is None
    assert _argparse(argv) == vars(cli._parse(["report", "--input", k3_file]))
    assert _in_process(argv, monkeypatch) == _in_process(["report", "--input", k3_file], monkeypatch)
