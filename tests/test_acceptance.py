"""Acceptance gate: one test per criterion, each printing a PASS line.

Everything here is exact integer arithmetic, so the only tolerances are
the two stated runtime budgets. Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines as they pass.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout
from math import comb

import pytest

from hgpoly.bipoly import BiPoly, to_edge_form
from hgpoly.cli import main
from hgpoly.corpus import complete_graph, star
from hgpoly.enumeration import edge_family_poly, edge_induced_poly, vertex_induced_poly
from hgpoly.errors import InputError, NotReconstructible
from hgpoly.formats import dump_hypergraph_json
from hgpoly.homology import hochster_betti, pd_reg_depth, verify_betti_alternating_sum
from hgpoly.hypergraph import validate
from hgpoly.reconstruct import check_reconstructible, reconstruct_edge_poly, verify_deck_sum_identity
from hgpoly.stanley_reisner import SRInvariants, hilbert_function

from .test_reconstruct import deck_bundle_mismatches


@pytest.fixture(scope="module")
def corpus_polys(corpus):
    """Both polynomials for every corpus member, computed once."""
    return [
        (name, h, vertex_induced_poly(h), edge_induced_poly(h)) for name, h in corpus
    ]


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_transform_identity(corpus_polys):
    assert len(corpus_polys) >= 200
    start = time.perf_counter()
    for name, h, p, s in corpus_polys:
        assert to_edge_form(p, h.n) == s, f"transform mismatch on {name}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"transform sweep took {elapsed:.1f}s, budget 10s"
    _report("1 transform identity", f"{len(corpus_polys)} hypergraphs, {elapsed:.2f}s")


def test_criterion_2_coefficient_relation(corpus_polys):
    # left sum over all l with a nonzero count: an i-set can induce more
    # than i edges, so truncating the left side at l = i is not an identity
    for name, h, p, s in corpus_polys:
        n = h.n
        j_max = max((j for poly in (p, s) for _, j in poly.terms), default=0)
        for i in range(n + 1):
            for j in range(j_max + 1):
                lhs = sum(p.coeff(i, j + l) * comb(j + l, j) for l in range(j_max - j + 1))
                rhs = sum(s.coeff(i - l, j) * comb(n - (i - l), l) for l in range(i + 1))
                assert lhs == rhs, f"coefficient relation fails on {name} at ({i},{j})"
    _report("2 coefficient relation", f"{len(corpus_polys)} hypergraphs, all (i,j)")


def test_criterion_3_closed_forms():
    for n in range(1, 8):
        expected = BiPoly({(i, comb(i, 2)): comb(n, i) for i in range(n + 1)})
        assert vertex_induced_poly(complete_graph(n)) == expected, f"complete graph n={n}"
    for m in range(1, 9):
        expected = BiPoly({(0, 0): 1} | {(j + 1, j): comb(m, j) for j in range(1, m + 1)})
        assert edge_induced_poly(star(m)) == expected, f"star m={m}"
    _report("3 closed forms", "complete graphs n<=7 and stars m<=8, exact")


def test_criterion_4_hilbert_series(corpus):
    for name, h in corpus:
        assert SRInvariants(h).series_numerator_holds, f"numerator identity fails on {name}"
        values = hilbert_function(h, 2 * h.n)  # raises InternalMismatch unless identity 3.2 holds
        assert len(values) == 2 * h.n + 1
    k3 = validate(["a", "b", "c"], [["a", "b"], ["a", "c"], ["b", "c"]])
    assert SRInvariants(k3).k_polynomial == BiPoly({(0, 0): 1, (2, 0): -3, (3, 0): 2})
    assert hilbert_function(k3, 6) == [1, 3, 3, 3, 3, 3, 3]
    _report("4 Hilbert series", f"{len(corpus)} hypergraphs, routes agree to k=2n")


def test_criterion_5_betti_hochster(corpus):
    k3 = validate(["a", "b", "c"], [["a", "b"], ["a", "c"], ["b", "c"]])
    table = hochster_betti(k3)
    assert table.graded == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert pd_reg_depth(table) == (2, 1, 1)
    start = time.perf_counter()
    checked = 0
    for name, h in corpus:
        if h.n > 12:
            continue
        assert verify_betti_alternating_sum(hochster_betti(h), SRInvariants(h).k_polynomial), f"alternating sum fails on {name}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"homology sweep took {elapsed:.1f}s, budget 60s"
    _report("5 Betti numbers", f"{checked} hypergraphs with n<=12, {elapsed:.2f}s")


def test_criterion_6_reconstruction_roundtrips(corpus):
    count = 0
    for name, h in corpus:
        try:
            check_reconstructible(h)
        except NotReconstructible:
            continue
        count += 1
        assert deck_bundle_mismatches(h) == [], name
        assert verify_deck_sum_identity(SRInvariants(h)), name
    assert count > 150
    _report("6 reconstruction", f"{count} reconstructible corpus members, deck bundle equals the direct one")


def test_criterion_7_determinism(tmp_path, corpus):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for k, (name, h) in enumerate(corpus):
        (corpus_dir / f"{k:04d}_{name}.json").write_text(dump_hypergraph_json(h))
    outputs = []
    for flags in ([], ["--parallel"]):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["report", "--terms", "12", "--input", str(corpus_dir)] + flags)
        assert rc == 0
        outputs.append(buf.getvalue().encode())
    assert outputs[0] == outputs[1], "parallel report differs from sequential"
    _report("7 determinism", f"{len(corpus)} reports byte-identical, {len(outputs[0])} bytes")


def test_criterion_8_negative_paths():
    with pytest.raises(InputError, match="is contained in edge") as exc:
        validate(["a", "b", "c"], [["a", "b"], ["a", "b", "c"]])
    assert "a, b" in str(exc.value) and "a, b, c" in str(exc.value)

    with pytest.raises(NotReconstructible, match="^an edgeless hypergraph is not reconstructible$"):
        check_reconstructible(validate(list("abcde"), []))

    with pytest.raises(NotReconstructible, match="^a single edge covering all vertices is not reconstructible$"):
        check_reconstructible(validate(["a", "b", "c"], [["a", "b", "c"]]))

    with pytest.raises(NotReconstructible, match="^reconstruction needs n >= 3, got n=2$"):
        check_reconstructible(validate(["a", "b"], [["a", "b"]]))

    # corrupted deck: perturb one coefficient of the card sum so a division fails
    h = validate(list("abcd"), [["a", "b"], ["b", "c"], ["c", "d"]])
    card_sum = BiPoly([*edge_family_poly(h.deck().cards).terms.items(), ((2, 1), 1)])
    with pytest.raises(InputError, match=r"is not divisible by n-i=2; the input is not a genuine deck$") as exc:
        reconstruct_edge_poly(card_sum, 4)
    assert "not divisible" in str(exc.value)

    _report("8 negative paths", "all five diagnostics trigger with correct messages")


def test_criterion_8_cli_diagnostics(tmp_path, capsys):
    # the same diagnostics surface through the CLI with exit code 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["a", "b", "c"]]}))
    assert main(["compute", "--poly", "S", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "contained in" in err
