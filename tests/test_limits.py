"""Every size-limit refusal the CLI makes, pinned on both sides of its limit.

The parent is the 6-cycle a..f, whose cards are 5-vertex paths with 4
edges: a card's vertex sweep is refused below n-max 5 and its edge
sweep below n-max 4, and the parent's Betti table below homology-n-max
6. Refusals exit 3 with the message on stderr and nothing on stdout;
where a command reports identity 4.3 instead, the same message follows
"skipped: ".
K5 (m = 10, cards K4 with m = 6) pins which size a refusal names where
the parent and its cards are both over the limit.
The last tests hold each row of the read tables (``cli._VIEWS`` and
``verify.IDENTITIES``) to its code: on drawn inputs under small limits,
checking the row's reads refuses exactly when its renderer or check,
run without that check, raises.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hgpoly
from hgpoly import cli
from hgpoly.cli import main
from hgpoly.errors import LimitExceeded
from hgpoly.formats import dump_hypergraph_json
from hgpoly.reconstruct import DeckInvariants
from hgpoly.stanley_reisner import SRInvariants
from hgpoly.verify import IDENTITIES

from .families import complete_graph, cycle_graph
from .strategies import hypergraphs, reconstructible_hypergraphs

HOMOLOGY_REFUSAL = "n=6 exceeds the homology limit 5; raise the limit explicitly to run anyway"


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.json"
    path.write_text(dump_hypergraph_json(cycle_graph(6)))
    return str(path)


@pytest.fixture
def c6_deck(tmp_path, c6_file, capsys):
    deck = str(tmp_path / "cards")
    assert main(["deck", "--input", c6_file, "--out-dir", deck]) == 0
    capsys.readouterr()
    return deck


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _assert_usage_error(capsys, argv: list[str], words: list[str]) -> None:
    """argv is argparse's exit 2, refusing words as options the subcommand does not take."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(words)}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["betti"],
        ["verify", "--identity", "4.3"],
    ],
    ids=["betti", "verify-4.3"],
)
def test_homology_refusal_above_the_limit(capsys, c6_file, argv):
    got = _run(capsys, argv + ["--homology-n-max", "5", "--input", c6_file])
    assert got == (3, "", f"error: {HOMOLOGY_REFUSAL}\n")


def test_reconstructed_betti_refused_above_the_limit(capsys, c6_deck):
    got = _run(capsys, ["reconstruct", "--deck", c6_deck, "--target", "betti", "--homology-n-max", "5"])
    assert got == (3, "", f"error: {HOMOLOGY_REFUSAL}\n")


@pytest.mark.parametrize("argv", [["betti"], ["verify", "--identity", "4.3"]], ids=["betti", "verify-4.3"])
def test_homology_runs_at_the_limit(capsys, c6_file, argv):
    code, out, err = _run(capsys, argv + ["--homology-n-max", "6", "--input", c6_file])
    assert (code, err) == (0, "") and out


def test_reconstructed_betti_runs_at_the_limit(capsys, c6_deck):
    code, out, err = _run(capsys, ["reconstruct", "--deck", c6_deck, "--target", "betti", "--homology-n-max", "6"])
    assert (code, err) == (0, "") and "unknown" in out


@pytest.mark.parametrize("limit, status", [("5", f"skipped: {HOMOLOGY_REFUSAL}"), ("6", "ok")])
def test_verify_all_reports_the_skip(capsys, c6_file, limit, status):
    code, out, err = _run(capsys, ["verify", "--identity", "all", "--homology-n-max", limit, "--input", c6_file])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"identity 4.3: {status}"


@pytest.mark.parametrize("limit, status", [("5", f"skipped: {HOMOLOGY_REFUSAL}"), ("6", True)])
def test_report_reports_the_skip(capsys, c6_file, limit, status):
    code, out, err = _run(capsys, ["report", "--homology-n-max", limit, "--input", c6_file])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["identities"]["4.3"] == status
    assert (doc["betti"] is None) == (limit == "5")


@pytest.mark.parametrize(
    "argv, kind",
    [(["hilbert"], "m"), (["verify", "--identity", "3.2"], "n"), (["report"], "n")],
    ids=["hilbert", "verify-3.2", "report"],
)
def test_first_sweep_refused_over_both_limits(capsys, c6_file, argv, kind):
    # the 6-cycle has n = m = 6, so the side a command sweeps first names the refusal
    got = _run(capsys, argv + ["--n-max", "5", "--input", c6_file])
    message = f"{kind}=6 exceeds the enumeration limit 5; raise the limit explicitly to run anyway"
    assert got == (3, "", f"error: {message}\n")


def test_deck_sum_identity_refusal_names_the_parent(capsys, tmp_path):
    # identity 4.2 reads the parent's S before it sweeps any card, so the
    # refusal names K5's m = 10, not a K4 card's m = 6
    path = tmp_path / "k5.json"
    path.write_text(dump_hypergraph_json(complete_graph(5)))
    message = "m=10 exceeds the enumeration limit 5; raise the limit explicitly to run anyway"
    flags = ["--n-max", "5", "--input", str(path)]
    assert _run(capsys, ["verify", "--identity", "4.2"] + flags) == (3, "", f"error: {message}\n")
    code, out, err = _run(capsys, ["verify", "--identity", "all"] + flags)
    assert (code, err) == (0, "")
    assert f"identity 4.2: skipped: {message}" in out.splitlines()


@pytest.mark.parametrize(
    "target, refused, kind, value",
    [
        ("S", "3", "m", 4),
        ("P", "4", "n", 5),
        ("fvector", "4", "n", 5),
        ("hilbert", "3", "m", 4),
    ],
)
def test_card_sweep_refused_above_the_limit(capsys, c6_deck, target, refused, kind, value):
    # the C6 cards have n = 5 and m = 4; hilbert sweeps the edge side for K(t),
    # then the vertex side for identity 3.2, so it is refused for each in turn
    refusals = [(refused, kind, value)] + ([("4", "n", 5)] if target == "hilbert" else [])
    for limit, k, v in refusals:
        got = _run(capsys, ["reconstruct", "--deck", c6_deck, "--target", target, "--n-max", limit])
        message = f"{k}={v} exceeds the enumeration limit {limit}; raise the limit explicitly to run anyway"
        assert got == (3, "", f"error: {message}\n")
    code, out, err = _run(capsys, ["reconstruct", "--deck", c6_deck, "--target", target, "--n-max", str(refusals[-1][2])])
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize(
    "source, refused, value",
    [("file", "5", 6), ("deck", "4", 5)],
)
def test_betti_guard_sweep_refused_above_the_limit(capsys, c6_file, c6_deck, source, refused, value):
    # the printed table is checked against mu per B, read from the edges' union closure,
    # so the guard sweeps neither the parent's nor a card's vertex side: an enumeration
    # limit below that side's n (`value`) leaves the deck's output unchanged, betti takes
    # no enumeration limit at all (test_work_count checks it sweeps nothing), and only
    # the homology limit refuses betti
    argv = ["betti", "--input", c6_file] if source == "file" else ["reconstruct", "--deck", c6_deck, "--target", "betti"]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "") and out
    assert int(refused) < value
    if source == "file":
        _assert_usage_error(capsys, argv + ["--n-max", refused], ["--n-max", refused])
    else:
        assert _run(capsys, argv + ["--n-max", refused]) == (0, out, "")
    assert _run(capsys, argv + ["--homology-n-max", "5"]) == (3, "", f"error: {HOMOLOGY_REFUSAL}\n")


@pytest.mark.parametrize("flag", ["--n-max", "--homology-n-max"])
@pytest.mark.parametrize("command", ["betti", "report", "deck"])
def test_zero_limit_is_an_input_error(capsys, tmp_path, c6_file, flag, command):
    # a limit the subcommand never reads is not taken at all: deck sweeps nothing, betti only its homology
    extra = ["--out-dir", str(tmp_path / "cards")] if command == "deck" else []
    argv = [command, flag, "0", "--input", c6_file] + extra
    if command == "deck" or (command, flag) == ("betti", "--n-max"):
        _assert_usage_error(capsys, argv, [flag, "0"])
    else:
        assert _run(capsys, argv) == (2, "", "error: size limits must be positive\n")


@pytest.mark.parametrize(
    "terms, expected",
    [
        ("-1", (2, "", "error: --terms must be nonnegative, got -1\n")),
        ("10001", (3, "", "error: --terms=10001 exceeds the series limit 10000\n")),
    ],
)
def test_terms_refusals_come_before_the_limits(capsys, c6_file, terms, expected):
    # --terms is read first, and no flag raises its bound
    assert _run(capsys, ["hilbert", "--terms", terms, "--n-max", "0", "--input", c6_file]) == expected


def test_one_message_for_every_homology_refusal(capsys, c6_file):
    # the report's betti_skipped, identity 4.3's skip and the betti
    # command's exit-3 message are one text, raised by the engine
    flags = ["--homology-n-max", "5", "--input", c6_file]
    code, out, _ = _run(capsys, ["report"] + flags)
    assert code == 0
    doc = json.loads(out)
    assert doc["betti_skipped"] == HOMOLOGY_REFUSAL
    assert doc["identities"]["4.3"] == f"skipped: {doc['betti_skipped']}"
    assert _run(capsys, ["betti"] + flags) == (3, "", f"error: {doc['betti_skipped']}\n")


def _public_callables():
    for info in pkgutil.iter_modules(hgpoly.__path__):
        module = importlib.import_module(f"hgpoly.{info.name}")
        for name, obj in vars(module).items():
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj)):
                if obj.__module__ == module.__name__:
                    yield f"{module.__name__}.{name}", obj


def test_every_limit_parameter_defaults_to_an_int():
    # a None default meaning "the default limit" has to be resolved in
    # every callee; an int default is the limit itself
    defaults = {}
    for name, obj in _public_callables():
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # a class with no introspectable constructor
            continue
        for param in params.values():
            if param.name in ("limit", "homology_limit") and param.default is not param.empty:
                defaults[f"{name}({param.name})"] = param.default
    assert len(defaults) == 9, sorted(defaults)
    assert {key: value for key, value in defaults.items() if type(value) is not int} == {}


# -- each row's reads are complete: only whether a read is refused is compared, not which
# size the message names, since a row's code may read in another order than its check --

LIMITS = st.integers(1, 6)
# verify --identity all skips what it refuses; a single identity is its own row, tested below
ARGS = SimpleNamespace(terms=20, identity="all")
TARGETS = dict(cli._COMMANDS["reconstruct"][1])["--target"]["choices"]


def _refuses(run, *args) -> bool:
    try:
        run(*args)
    except LimitExceeded:
        return True
    return False


def _assert_reads_complete(row: str, bundle, reads, run, *args) -> None:
    """check(reads) on one bundle refuses exactly when run(fresh bundle, *args) raises."""
    assert _refuses(bundle().check, reads) == _refuses(run, bundle(), *args), row


# K4 (n = 4, m = 6) and K5's cards (K4 each) are over the m limit alone, which few drawn inputs are
@settings(max_examples=60, deadline=None)
@given(hypergraphs(), LIMITS, LIMITS)
@example(complete_graph(4), 4, 3)
def test_every_view_row_lists_every_read_its_renderer_refuses(h, limit, homology_limit):
    for view, (reads, render) in cli._VIEWS.items():
        _assert_reads_complete(view, lambda: SRInvariants(h, limit, homology_limit), reads, render, ARGS)


@settings(max_examples=60, deadline=None)
@given(reconstructible_hypergraphs(), LIMITS, LIMITS)
@example(complete_graph(5), 5, 4)
def test_every_target_row_lists_every_read_its_renderer_refuses(parent, limit, homology_limit):
    for target in TARGETS:
        reads, render = cli._VIEWS[target]
        _assert_reads_complete(target, lambda: DeckInvariants(parent, limit, homology_limit), reads, render, ARGS)


@settings(max_examples=60, deadline=None)
@given(hypergraphs(), LIMITS, LIMITS)
@example(complete_graph(4), 4, 3)
def test_every_identity_row_lists_every_read_its_check_refuses(h, limit, homology_limit):
    for identity, (reads, check) in IDENTITIES.items():
        if identity != "4.2":  # it checks its own reads, after its exclusion check
            _assert_reads_complete(identity, lambda: SRInvariants(h, limit, homology_limit), reads, check)
