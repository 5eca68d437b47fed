"""Fault injection: which printed values the shipped checks guard.

Each fault is a monkeypatch of one engine function (a method is
patched on its class, and a fault inside a function on every module
that imports it by name) that makes some printed value wrong, through
its result or, for ON_ARGUMENTS, its arguments. Run
through ``main`` on a small fixed slice of inputs, every fault in FAULTS must end in exit 1 (an InternalMismatch)
or a failed identity (FAIL from ``verify``, false in a report), under
each of its commands and on every input of the slice; a fault in
``homology`` must end in exit 1, since the table builder checks its
own table, and so must a fault on arguments, which a guard refuses. A fault that no shipped check can catch goes in KNOWN_BLIND
instead, with the function it patches, the slice members it is blind
on and the reason; the test asserts that it stays blind there, so a
check that starts catching it moves it to FAULTS, and that
``oracles.dual_betti`` and ``oracles.crosscut_betti`` catch it.
A command that some slice member gives no way to show a fault (the
fault leaves everything it prints right) is left out of that fault's
commands, with the reason beside it. Every new route adds its fault
here.
"""

from __future__ import annotations

import json

import pytest

import hgpoly.bipoly as bipoly
import hgpoly.homology as homology
import hgpoly.reconstruct as reconstruct
import hgpoly.stanley_reisner as stanley_reisner
import hgpoly.verify as verify
from hgpoly.bipoly import BiPoly
from hgpoly.cli import main
from hgpoly.formats import dump_hypergraph_json
from hgpoly.homology import hochster_betti
from hgpoly.hypergraph import validate

from .families import complete_graph, cycle_graph, wheel
from .oracles import crosscut_betti, dual_betti, rank_over_gf2, taylor_violations

SLICE = {
    "C5": cycle_graph(5),
    "wheel5": wheel(5),
    "tight6": validate(list("abcdef"), [list("abc"), list("bcd"), list("cde"), list("def"), list("aef"), list("abf")]),
}


def _plus_one_at_x2(poly: BiPoly) -> BiPoly:
    terms = dict(poly.terms)
    terms[(2, 0)] = terms.get((2, 0), 0) + 1
    return BiPoly(terms)


def _plus_one_above_top(poly: BiPoly) -> BiPoly:
    """+1 one x-degree above the top one: for a parent sweep, a term at
    x^(n + 1), which no subset of n vertices gives; for the cards' sum, a
    term no card on n - 1 vertices holds, which the transform to P refuses."""
    terms = dict(poly.terms)
    terms[(max(i for i, _ in terms) + 1, 0)] = 1
    return BiPoly(terms)


def _plus_one_at_t3(values: list[int]) -> list[int]:
    return values[:3] + [values[3] + 1] + values[4:]


def _plus_one_on_last(h: tuple[int, ...]) -> tuple[int, ...]:
    return h[:-1] + (h[-1] + 1,)


def _pad_with_0(values: tuple[int, ...]) -> tuple[int, ...]:
    """One dense coefficient past the top nonzero one."""
    return values + (0,)


def _drop_one_more(folded):
    """Drop the lowest vertex of a folded B of three or more vertices,
    though the real fold left no dominated vertex in it."""
    if folded is None or folded[0].bit_count() < 3:
        return folded
    bmask, adjacent = folded
    low = bmask & -bmask
    return bmask ^ low, {u: a & ~low for u, a in adjacent.items() if u != low}


def _term_above_n(terms, n: int, a: int, b: int) -> tuple:
    """substitute's arguments with one more term, one x-degree above n,
    whenever a term sits at n and a != 0: valid terms, as the engine
    builds them, then trip the transform's guard."""
    if a and any(i == n for i, _ in terms):
        terms = {**terms, (n + 1, 0): 1}
    return terms, n, a, b


# the faults that act on a function's arguments, not on its result
ON_ARGUMENTS = (_term_above_n,)


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

# name -> (module, class or tuple of modules, function, what the fault does to its result
#          or, for ON_ARGUMENTS, to its arguments, commands that must catch it)
FAULTS = {
    "expand_series +1 at t^3": (stanley_reisner, "expand_series", _plus_one_at_t3, (HILBERT, REPORT, RECONSTRUCT_HILBERT)),
    "h_vector +1 on its last entry": (stanley_reisner, "h_vector", _plus_one_on_last, (HVECTOR, REPORT)),
    # K(t) and f both come from eval_y: 3.2 and the Hilbert function compare them with each
    # other, and 4.3 compares K with the table's own column sums. fvector is left out: it
    # prints f and checks nothing, so the wrong f prints with exit 0
    "BiPoly.eval_y +1 at x^2": (BiPoly, "eval_y", _plus_one_at_x2, (REPORT, ("verify", "--identity", "3.2"), VERIFY_43, HILBERT)),
    # f is printed densely; a trailing 0 would read as a larger Krull dimension with multiplicity 0
    "BiPoly.coefficients pads a 0": (
        BiPoly, "coefficients", _pad_with_0,
        (REPORT, ("fvector",), HVECTOR, ("compute", "--poly", "independence"), ("reconstruct", "--target", "fvector")),
    ),
    "parent vertex sweep +1 at x^2": (
        stanley_reisner, "vertex_induced_poly", _plus_one_at_x2, (REPORT, ("verify", "--identity", "2.1")),
    ),
    # a term at x^(n + 1) makes f one entry too long; 2.1 hands the engine's P to substitute, whose
    # guard raises, and 4.2 compares every row but x^n. compute --poly P is left out: it prints P and
    # checks nothing (ROADMAP item 15)
    "parent vertex sweep +1 above its top x-degree": (
        stanley_reisner, "vertex_induced_poly", _plus_one_above_top,
        (REPORT, *(("verify", "--identity", ident) for ident in ("2.1", "2.3", "3.2", "4.2")),
         ("fvector",), HVECTOR, HILBERT, ("compute", "--poly", "independence")),
    ),
    # K(t) gains a term at t^(n + 1), which 3.2, 4.3 and the Hilbert function see; compute --poly S
    # is left out: it prints S and checks nothing (ROADMAP item 15)
    "parent edge sweep +1 above its top x-degree": (
        stanley_reisner, "edge_induced_poly", _plus_one_above_top,
        (REPORT, *(("verify", "--identity", ident) for ident in ("2.1", "2.3", "3.2", "4.2", "4.3")), HILBERT),
    ),
    "card edge family sweep +1 at x^2": (
        reconstruct, "edge_family_poly", _plus_one_at_x2,
        (REPORT, ("verify", "--identity", "4.2"), ("reconstruct", "--target", "S"), RECONSTRUCT_HILBERT),
    ),
    # 4.2 compares the summed card S before it transforms it, so this fails 4.2, not the transform's input check
    "card edge family sweep +1 above its top x-degree": (
        reconstruct, "edge_family_poly", _plus_one_above_top,
        (REPORT, ("verify", "--identity", "4.2"), ("reconstruct", "--target", "S"), RECONSTRUCT_HILBERT),
    ),
    # report and verify sweep the cards on the edge side only; their summed P is that sum's transform
    "card vertex family sweep +1 at x^2": (
        reconstruct, "vertex_family_poly", _plus_one_at_x2,
        (("reconstruct", "--target", "P"), ("reconstruct", "--target", "fvector"), RECONSTRUCT_HILBERT),
    ),
    # the engine hands substitute only its own term maps, so its guard is an InternalMismatch
    "substitute handed a term above n": (
        (bipoly, stanley_reisner, verify), "substitute", _term_above_n,
        (REPORT, HVECTOR, ("verify", "--identity", "4.2")),
    ),
    "to_vertex_form +1 at x^2": (
        reconstruct, "to_vertex_form", _plus_one_at_x2,
        (REPORT, ("verify", "--identity", "4.2"), ("reconstruct", "--target", "P"), ("reconstruct", "--target", "fvector")),
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


def _install(monkeypatch, modules, name: str, after) -> None:
    for module in modules if isinstance(modules, tuple) else (modules,):
        real = getattr(module, name)
        if after in ON_ARGUMENTS:
            monkeypatch.setattr(module, name, lambda *args, real=real: real(*after(*args)))
        else:
            monkeypatch.setattr(module, name, lambda *args, real=real: after(real(*args)))


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


def _run(capsys, command: tuple[str, ...], path: str, deck: str) -> tuple[int, str, str]:
    source = ["--deck", deck] if command[0] == "reconstruct" else ["--input", path]
    code = main([*command, *source])
    return code, *capsys.readouterr()


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
        code, out, err = _run(capsys, command, path, deck)
        assert _caught(command, code, out), f"{fault} passes {' '.join(command)} on {member}"
        must_exit_1 = module is homology or after in ON_ARGUMENTS
        assert code == 1 or not must_exit_1, f"{fault} fails only an identity on {member}"
        if code == 1 and err.startswith("internal consistency failure: "):
            # every check runs before the first byte of a single document
            assert out == "", f"{fault} printed part of {' '.join(command)} on {member}"


@pytest.mark.parametrize("fault", sorted(KNOWN_BLIND))
def test_known_blind_fault_passes_every_check_and_fails_the_dual_oracle(fault, tmp_path, capsys, monkeypatch):
    name, after, members, _ = KNOWN_BLIND[fault]
    inputs = {member: files for member, files in _inputs(tmp_path, capsys).items() if member in members}
    clean = {member: _run(capsys, REPORT, path, deck) for member, (path, deck) in inputs.items()}
    _install(monkeypatch, homology, name, after)
    for member, (path, deck) in inputs.items():
        code, out, _ = _run(capsys, REPORT, path, deck)
        assert code == 0 and not _caught(REPORT, code, out), f"{fault} is caught on {member}: move it to FAULTS"
        assert out != clean[member][1]  # a wrong value was printed
        h = SLICE[member]
        faulty = {(i, verts): b for i, verts, b in hochster_betti(h).multigraded_entries()}
        assert dual_betti(h) != faulty
        assert _crosscut(h) != faulty


def _crosscut(h) -> dict:
    # ranked over GF(2): over the rationals the crosscut of wheel5's 10 edges takes
    # about 0.9 s, and no slice member has torsion (the clean test below)
    return crosscut_betti(h, rank_over_gf2)


def test_clean_tables_match_the_dual_oracle():
    for h in SLICE.values():
        assert {(i, verts): b for i, verts, b in hochster_betti(h).multigraded_entries()} == dual_betti(h)


def test_clean_tables_match_the_crosscut_oracle():
    for h in SLICE.values():
        assert {(i, verts): b for i, verts, b in hochster_betti(h).multigraded_entries()} == _crosscut(h)


@pytest.mark.parametrize("fault", [_bump_adjacent, _move_entry], ids=["+1 at two adjacent degrees", "one entry moved"])
def test_taylor_bound_sees_a_wrong_degree_that_mu_does_not(fault):
    # both faults keep every signed sum mu(B); the Taylor complex bounds each degree
    for member, h in SLICE.items():
        bmasks = [bmask for bmask in sorted(homology._edge_union_closure(h.edges)) if bmask]
        clean = homology.restriction_betti(h.edges, bmasks)
        for table, wrong in ((clean, False), (fault(clean), True)):
            keyed = {(0, ()): 1, **{(i, h.labels_of(bmask)): b for (i, bmask), b in table.items()}}
            assert bool(taylor_violations(h, keyed)) == wrong, member


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


def test_f_guard_sweeps_no_edges(tmp_path, capsys):
    # the guard reads f alone; S of K8 (m = 28) is over the enumeration limit
    path = tmp_path / "k8.json"
    path.write_text(dump_hypergraph_json(complete_graph(8)))
    assert main(["fvector", "--input", str(path)]) == 0
    assert capsys.readouterr() == ("(1, 8)\n", "")


def test_betti_guard_sweeps_no_edges(tmp_path, capsys):
    # the table's check reads mu from the union closure of the 28 edges of K8;
    # it sweeps neither side, and S would be over the enumeration limit
    path = tmp_path / "k8.json"
    path.write_text(dump_hypergraph_json(complete_graph(8)))
    assert main(["betti", "--input", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "total:   1  28 112 210 224 140  48   7\n" in out
