from __future__ import annotations

import pytest
from hypothesis import given, settings

from hgpoly.hypergraph import validate
from hgpoly.stanley_reisner import sr_invariants
from hgpoly.verify import (
    IDENTITY_IDS,
    run_all,
    run_identity,
    verify_coefficient_relation,
    verify_deck_sums,
    verify_series_numerator,
    verify_transform,
)

from .strategies import hypergraphs


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_transform_and_coefficient_relation(h):
    inv = sr_invariants(h)
    assert verify_transform(inv)
    assert verify_coefficient_relation(inv)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_series_numerator(h):
    assert verify_series_numerator(sr_invariants(h))


def test_run_all_k3(k3):
    assert run_all(sr_invariants(k3)) == {ident: True for ident in IDENTITY_IDS}


def test_run_all_skips_excluded(edgeless3):
    results = run_all(sr_invariants(edgeless3))
    assert results["2.1"] is True
    assert isinstance(results["4.2"], str) and results["4.2"].startswith("skipped")


def test_run_all_skips_over_homology_limit():
    h = validate([f"v{k}" for k in range(4)], [["v0", "v1"]])
    results = run_all(sr_invariants(h, homology_limit=3))
    assert isinstance(results["4.3"], str) and "limit" in results["4.3"]
    assert results["3.2"] is True


def test_unknown_identity(k3):
    with pytest.raises(ValueError):
        run_identity("9.9", sr_invariants(k3))


def test_deck_sums_on_wheel():
    from hgpoly.corpus import wheel

    assert verify_deck_sums(sr_invariants(wheel(5)))
