from __future__ import annotations

import pytest
from hypothesis import given, settings

from hgpoly.bipoly import BiPoly
from hgpoly.corpus import cycle_graph, uniform_complete, wheel
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


def test_run_all_skips_over_homology_limit():
    h = validate([f"v{k}" for k in range(4)], [["v0", "v1"]])
    results = run_all(SRInvariants(h, homology_limit=3))
    assert isinstance(results["4.3"], str) and "limit" in results["4.3"]
    assert results["3.2"] is True


def test_unknown_identity(k3):
    with pytest.raises(ValueError):
        run_identity("9.9", SRInvariants(k3))


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
