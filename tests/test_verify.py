from __future__ import annotations

import pytest
from hypothesis import given, settings

import hgpoly.verify as verify
from hgpoly.bipoly import BiPoly
from hgpoly.errors import NotReconstructible
from hgpoly.hypergraph import validate
from hgpoly.reconstruct import verify_deck_sum_identity
from hgpoly.stanley_reisner import SRInvariants
from hgpoly.verify import (
    IDENTITY_IDS,
    run_all,
    run_identity,
    verify_coefficient_relation,
    verify_transform,
)

from .families import cycle_graph, uniform_complete, wheel
from .strategies import hypergraphs


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_transform_and_coefficient_relation(h):
    inv = SRInvariants(h)
    assert verify_transform(inv)
    assert verify_coefficient_relation(inv)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_series_numerator(h):
    assert SRInvariants(h).series_numerator_holds


def test_run_all_k3(k3):
    assert run_all(SRInvariants(k3)) == {ident: True for ident in IDENTITY_IDS}


def test_run_all_skips_excluded(edgeless3):
    results = run_all(SRInvariants(edgeless3))
    assert results["2.1"] is True
    assert isinstance(results["4.2"], str) and results["4.2"].startswith("skipped")


def test_deck_sum_identity_skips_exactly_what_its_theorems_leave_out(corpus):
    # decided from n, m and the edges alone: fewer than three vertices, no edge,
    # or one edge spanning every vertex is skipped, and anything else is checked
    skipped = 0
    for name, h in corpus:
        spanning = h.m == 1 and set(h.edge_label_sets()[0]) == set(h.labels)
        if h.n >= 3 and h.m >= 1 and not spanning:
            assert run_identity("4.2", SRInvariants(h)) is True, name
        else:
            with pytest.raises(NotReconstructible):
                run_identity("4.2", SRInvariants(h))
            skipped += 1
    assert 0 < skipped < len(corpus)


def test_run_all_skips_over_homology_limit():
    h = validate([f"v{k}" for k in range(4)], [["v0", "v1"]])
    results = run_all(SRInvariants(h, homology_limit=3))
    assert isinstance(results["4.3"], str) and "limit" in results["4.3"]
    assert results["3.2"] is True


def test_unknown_identity(k3):
    for unknown in ("9.9", "", "4.4", "all", "2.1 "):
        with pytest.raises(ValueError, match="unknown identity"):
            run_identity(unknown, SRInvariants(k3))


def test_each_identity_runs_its_own_check_by_name(k3, monkeypatch):
    # each row calls its function when it runs, so a rebound function is the one called
    sentinels = {identity: object() for identity in IDENTITY_IDS}
    for identity, name in (("2.1", "verify_transform"), ("2.3", "verify_coefficient_relation"),
                           ("4.2", "verify_deck_sum_identity"), ("4.3", "verify_betti_alternating_sum")):
        monkeypatch.setattr(verify, name, lambda *args, sentinel=sentinels[identity]: sentinel)
    inv = SRInvariants(k3)
    inv.__dict__["series_numerator_holds"] = sentinels["3.2"]  # 3.2 is the bundle's cached property
    assert {identity: run_identity(identity, inv) for identity in IDENTITY_IDS} == sentinels


def test_deck_sums_on_wheel():
    assert verify_deck_sum_identity(SRInvariants(wheel(5)))


def _perturbed(h, side: str, key: tuple[int, int]):
    """h's bundle with 1 added to one coefficient of P or S, before
    anything is derived from it."""
    inv = SRInvariants(h)
    terms = getattr(inv, side).terms
    terms[key] = terms.get(key, 0) + 1
    inv.__dict__[side] = BiPoly(terms)
    return inv


PERTURBED_IDS = ("2.1", "2.3", "3.2", "4.2")


def _reads(identity: str, side: str, key: tuple[int, int], n: int) -> bool:
    """Whether the identity reads that coefficient: 2.1 and 2.3 read all
    of P and S, 3.2 reads S through K(t) = S(t, -1) and P only through
    f = P(x, 0), and 4.2 reads the rows i < n of both (row n carries
    the factor n - i = 0)."""
    i, j = key
    if identity == "3.2":
        return side == "S" or j == 0
    if identity == "4.2":
        return i < n
    return True


@pytest.mark.parametrize(
    "h",
    [
        cycle_graph(5),
        wheel(5),
        uniform_complete(5, 3),
        validate(["a", "b", "c", "d"], [["a"], ["b", "c"], ["c", "d"]]),
    ],
    ids=["cycle5", "wheel5", "triples5", "mixed"],
)
@pytest.mark.parametrize("side", ["P", "S"])
def test_a_perturbed_coefficient_fails_each_identity_that_reads_it(h, side):
    inv = SRInvariants(h)
    assert all(run_identity(ident, inv) for ident in PERTURBED_IDS)
    # every present coefficient, and one absent from both polynomials
    keys = sorted(getattr(inv, side).terms) + [(0, 1)]
    for key in keys:
        for ident in PERTURBED_IDS:
            result = run_identity(ident, _perturbed(h, side, key))
            assert result is not _reads(ident, side, key, h.n), (ident, key)
