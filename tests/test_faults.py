"""Fault injection: which printed values the shipped checks guard.

Each fault is a monkeypatch of one engine function (a method is
patched on its class) that makes some printed value wrong. Run
through ``main`` on a small fixed slice of inputs, every fault in FAULTS must end in exit 1 (an InternalMismatch)
or a failed identity (FAIL from ``verify``, false in a report), under
each of its commands and on every input of the slice; a fault in
``homology`` must end in exit 1, since the table builder checks its
own table. A fault that no shipped check can catch goes in KNOWN_BLIND
instead, with the function it patches, the slice members it is blind
on and the reason; the test asserts that it stays blind there, so a
check that starts catching it moves it to FAULTS, and that
``oracles.dual_betti`` catches it.
A command that some slice member gives no way to show a fault (the
fault leaves everything it prints right) is left out of that fault's
commands, with the reason beside it. Every new route adds its fault
here.
"""

from __future__ import annotations

import json

import pytest

import hgpoly.homology as homology
import hgpoly.reconstruct as reconstruct
import hgpoly.stanley_reisner as stanley_reisner
from hgpoly.bipoly import BiPoly
from hgpoly.cli import main
from hgpoly.corpus import complete_graph, cycle_graph, wheel
from hgpoly.formats import dump_hypergraph_json
from hgpoly.homology import hochster_betti
from hgpoly.hypergraph import validate

from .oracles import dual_betti

SLICE = {
    "C5": cycle_graph(5),
    "wheel5": wheel(5),
    "tight6": validate(list("abcdef"), [list("abc"), list("bcd"), list("cde"), list("def"), list("aef"), list("abf")]),
}


def _plus_one_at_x2(poly: BiPoly) -> BiPoly:
    terms = dict(poly.terms)
    terms[(2, 0)] = terms.get((2, 0), 0) + 1
    return BiPoly(terms)


def _plus_one_at_t3(values: list[int]) -> list[int]:
    return values[:3] + [values[3] + 1] + values[4:]


def _plus_one_on_last(h: tuple[int, ...]) -> tuple[int, ...]:
    return h[:-1] + (h[-1] + 1,)


def _drop_one_more(folded):
    """Drop the lowest vertex of a folded B of three or more vertices,
    though the real fold left no dominated vertex in it."""
    if folded is None or folded[0].bit_count() < 3:
        return folded
    bmask, adjacent = folded
    low = bmask & -bmask
    return bmask ^ low, {u: a & ~low for u, a in adjacent.items() if u != low}


def _first_entry(table: dict[tuple[int, int], int]) -> tuple[int, int]:
    return min(key for key in table if key[0] >= 1)


def _move_entry(table: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """Move the first entry to the first other B of the same size that
    has none in that degree: every graded entry stays the same."""
    i, bmask = _first_entry(table)
    union = 0
    for _, b in table:
        union |= b
    other = next(
        c for c in range(union + 1)
        if c & ~union == 0 and c.bit_count() == bmask.bit_count() and c != bmask and (i, c) not in table
    )
    out = dict(table)
    out[(i, other)] = out.pop((i, bmask))
    return out


def _bump_adjacent(table: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """+1 at degrees i and i + 1 of the first entry's B: its signed sum
    over i, so identity 4.3, stays the same."""
    i, bmask = _first_entry(table)
    out = dict(table)
    for key in ((i, bmask), (i + 1, bmask)):
        out[key] = out.get(key, 0) + 1
    return out


def _plus_one_on_largest(mu: dict[int, int]) -> dict[int, int]:
    """+1 on mu of the largest union of edges."""
    top = max(mu)
    return {**mu, top: mu[top] + 1}


def _drop_largest(mu: dict[int, int]) -> dict[int, int]:
    """The closure less its largest union, which the table then never walks."""
    top = max(mu)
    return {bmask: c for bmask, c in mu.items() if bmask != top}


HILBERT = ("hilbert",)
HVECTOR = ("hvector",)
REPORT = ("report",)
RECONSTRUCT_HILBERT = ("reconstruct", "--target", "hilbert")
BETTI = ("betti",)
RECONSTRUCT_BETTI = ("reconstruct", "--target", "betti")
VERIFY_43 = ("verify", "--identity", "4.3")
TABLES = (REPORT, BETTI, RECONSTRUCT_BETTI, VERIFY_43)

# name -> (module or class, function, what the fault does to its result, commands that must catch it)
FAULTS = {
    "expand_series +1 at t^3": (stanley_reisner, "expand_series", _plus_one_at_t3, (HILBERT, REPORT, RECONSTRUCT_HILBERT)),
    "h_vector +1 on its last entry": (stanley_reisner, "h_vector", _plus_one_on_last, (HVECTOR, REPORT)),
    # K(t) and f both come from eval_y: 3.2 and the Hilbert function compare them with each
    # other, and 4.3 compares K with the table's own column sums. fvector is left out: it
    # prints f and checks nothing, so the wrong f prints with exit 0
    "BiPoly.eval_y +1 at x^2": (BiPoly, "eval_y", _plus_one_at_x2, (REPORT, ("verify", "--identity", "3.2"), VERIFY_43, HILBERT)),
    "parent vertex sweep +1 at x^2": (
        stanley_reisner, "vertex_induced_poly", _plus_one_at_x2, (REPORT, ("verify", "--identity", "2.1")),
    ),
    "card edge family sweep +1 at x^2": (
        reconstruct, "edge_family_poly", _plus_one_at_x2,
        (REPORT, ("verify", "--identity", "4.2"), ("reconstruct", "--target", "S"), RECONSTRUCT_HILBERT),
    ),
    "card vertex family sweep +1 at x^2": (
        reconstruct, "vertex_family_poly", _plus_one_at_x2,
        (
            REPORT, ("verify", "--identity", "4.2"), ("reconstruct", "--target", "P"),
            ("reconstruct", "--target", "fvector"), RECONSTRUCT_HILBERT,
        ),
    ),
    # the table builder checks each B against the Taylor complex's mu(B), so each of
    # these ends in exit 1 wherever a table is built, verify --identity 4.3 included
    "_fold drops a vertex that is not dominated": (homology, "_fold", _drop_one_more, TABLES),
    "one Betti entry moved to another B of the same size": (homology, "restriction_betti", _move_entry, TABLES),
    "+1 on mu of the largest union": (homology, "_edge_union_closure", _plus_one_on_largest, TABLES),
}

# name -> (homology function it patches, what the fault does to its result,
#          slice members it is blind on, why no shipped check sees it there)
KNOWN_BLIND = {
    "+1 at two adjacent degrees of one B": (
        "restriction_betti",
        _bump_adjacent,
        tuple(SLICE),
        "the signed sum over i of every B stays mu(B), so the table builder's check "
        "and 4.3 pass; only a route that computes each degree sees it",
    ),
    "the closure drops its largest union": (
        "_edge_union_closure",
        _drop_largest,
        ("wheel5",),
        "the dropped B = V has mu = 0 on the wheel, so the mu still sum to (1 - 1)^m, "
        "no B walked has a wrong signed sum, and 4.3's column n loses only a zero sum; "
        "the B = V entries go unprinted (C5 and tight6 exit 1: their mu(V) is not 0)",
    ),
}


def _install(monkeypatch, module, name: str, after) -> None:
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: after(real(*args)))


def _inputs(tmp_path, capsys) -> dict[str, tuple[str, str]]:
    """Each slice member's file and deck directory, written before any
    fault is installed."""
    out = {}
    for name, h in SLICE.items():
        path = tmp_path / f"{name}.json"
        path.write_text(dump_hypergraph_json(h))
        deck = str(tmp_path / f"{name}-cards")
        assert main(["deck", "--input", str(path), "--out-dir", deck]) == 0
        out[name] = (str(path), deck)
    capsys.readouterr()
    return out


def _run(capsys, command: tuple[str, ...], path: str, deck: str) -> tuple[int, str]:
    source = ["--deck", deck] if command[0] == "reconstruct" else ["--input", path]
    code = main([*command, *source])
    return code, capsys.readouterr().out


def _caught(command: tuple[str, ...], code: int, out: str) -> bool:
    if code == 1:
        return True
    if command == REPORT:
        return False in json.loads(out)["identities"].values()
    return "FAIL" in out


@pytest.mark.parametrize(
    "fault, command",
    [(fault, command) for fault, (*_, commands) in FAULTS.items() for command in commands],
    ids=lambda value: value if isinstance(value, str) else " ".join(value),
)
def test_fault_is_caught_on_every_input(fault, command, tmp_path, capsys, monkeypatch):
    inputs = _inputs(tmp_path, capsys)
    module, name, after, _ = FAULTS[fault]
    _install(monkeypatch, module, name, after)
    for member, (path, deck) in inputs.items():
        code, out = _run(capsys, command, path, deck)
        assert _caught(command, code, out), f"{fault} passes {' '.join(command)} on {member}"
        assert code == 1 or module is not homology, f"{fault} fails only an identity on {member}"


@pytest.mark.parametrize("fault", sorted(KNOWN_BLIND))
def test_known_blind_fault_passes_every_check_and_fails_the_dual_oracle(fault, tmp_path, capsys, monkeypatch):
    name, after, members, _ = KNOWN_BLIND[fault]
    inputs = {member: files for member, files in _inputs(tmp_path, capsys).items() if member in members}
    clean = {member: _run(capsys, REPORT, path, deck) for member, (path, deck) in inputs.items()}
    _install(monkeypatch, homology, name, after)
    for member, (path, deck) in inputs.items():
        code, out = _run(capsys, REPORT, path, deck)
        assert code == 0 and not _caught(REPORT, code, out), f"{fault} is caught on {member}: move it to FAULTS"
        assert out != clean[member][1]  # a wrong value was printed
        h = SLICE[member]
        faulty = {(i, verts): b for i, verts, b in hochster_betti(h).multigraded_entries()}
        assert dual_betti(h) != faulty


def test_clean_tables_match_the_dual_oracle():
    for h in SLICE.values():
        assert {(i, verts): b for i, verts, b in hochster_betti(h).multigraded_entries()} == dual_betti(h)


def test_h_guard_sweeps_no_edges(tmp_path, capsys):
    # the guard transforms h back to f; the route through K(t) would sweep
    # S, which K8 (m = 28) has over the enumeration limit
    path = tmp_path / "k8.json"
    path.write_text(dump_hypergraph_json(complete_graph(8)))
    assert main(["hvector", "--input", str(path)]) == 0
    assert capsys.readouterr() == ("(1, 7)\n", "")


def test_deck_betti_guard_where_the_fold_fault_shows(tmp_path, capsys, monkeypatch):
    # on C5 the fault changes only the B = V entries, which the deck's printed table
    # drops; the implied parent is checked whole, so the deck's route still exits 1
    h = SLICE["C5"]
    bmasks = [bmask for bmask in sorted(homology._edge_union_closure(h.edges)) if bmask]
    clean = homology.restriction_betti(h.edges, bmasks)
    path, deck = _inputs(tmp_path, capsys)["C5"]
    _install(monkeypatch, homology, "_fold", _drop_one_more)
    faulty = homology.restriction_betti(h.edges, bmasks)
    changed = {bmask for i, bmask in clean.keys() | faulty.keys() if clean.get((i, bmask)) != faulty.get((i, bmask))}
    assert changed == {h.full_mask}
    assert _run(capsys, RECONSTRUCT_BETTI, path, deck)[0] == 1


def test_mu_sum_sees_a_dropped_union_whose_mu_is_not_0(tmp_path, capsys, monkeypatch):
    # a union the closure drops has no entries and no mu, so only the mu sum (1 - 1)^m
    # sees it; on the wheel B = V has mu 0, so the sum keeps (KNOWN_BLIND)
    inputs = _inputs(tmp_path, capsys)
    _install(monkeypatch, homology, "_edge_union_closure", _drop_largest)
    got = {member: _run(capsys, BETTI, path, deck)[0] for member, (path, deck) in inputs.items() if member != "wheel5"}
    assert got == {"C5": 1, "tight6": 1}


def test_betti_guard_sweeps_no_edges(tmp_path, capsys):
    # the table's check reads mu from the union closure of the 28 edges of K8;
    # it sweeps neither side, and S would be over the enumeration limit
    path = tmp_path / "k8.json"
    path.write_text(dump_hypergraph_json(complete_graph(8)))
    assert main(["betti", "--input", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "total:   1  28 112 210 224 140  48   7\n" in out
