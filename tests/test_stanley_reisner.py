from __future__ import annotations

from math import comb

import pytest
from hypothesis import given, settings

from hgpoly import stanley_reisner
from hgpoly.bipoly import BiPoly, UniPoly
from hgpoly.cli import _report_for, build_parser
from hgpoly.enumeration import vertex_induced_poly
from hgpoly.errors import InternalMismatch
from hgpoly.hypergraph import validate
from hgpoly.stanley_reisner import (
    SRInvariants,
    f_vector,
    h_vector,
    hilbert_function,
)
from hgpoly.verify import verify_series_numerator

from . import oracles
from .strategies import hypergraphs


class TestFVector:
    def test_k3(self, k3):
        assert f_vector(k3) == (1, 3)

    def test_path3(self, path3):
        assert f_vector(path3) == (1, 3, 1)

    def test_edgeless(self, edgeless3):
        assert f_vector(edgeless3) == (1, 3, 3, 1)

    def test_krull_and_multiplicity(self, k3, path3, edgeless3):
        for h, expected in ((k3, (1, 3)), (path3, (2, 1)), (edgeless3, (3, 1))):
            inv = SRInvariants(h)
            assert (inv.krull_dim, inv.multiplicity) == expected

    def test_fully_blocked(self):
        h = validate(["a"], [["a"]])
        assert f_vector(h) == (1,)
        inv = SRInvariants(h)
        assert inv.krull_dim == 0 and inv.multiplicity == 1


class TestHVector:
    def test_k3(self):
        assert h_vector((1, 3)) == (1, 2)

    def test_full_simplex_collapses(self):
        for n in range(6):
            f = tuple(comb(n, i) for i in range(n + 1))
            assert h_vector(f) == (1,) + (0,) * n

    def test_path3(self):
        assert h_vector((1, 3, 1)) == (1, 1, -1)


class TestKPolynomial:
    def test_k3(self, k3):
        assert SRInvariants(k3).k_polynomial == UniPoly([1, 0, -3, 2])

    def test_path3(self, path3):
        assert SRInvariants(path3).k_polynomial == UniPoly([1, 0, -2, 1])

    def test_edgeless(self, edgeless3):
        assert SRInvariants(edgeless3).k_polynomial == UniPoly([1])


class TestHilbert:
    def test_k3(self, k3):
        assert hilbert_function(k3, 4) == [1, 3, 3, 3, 3]

    def test_polynomial_ring(self):
        h = validate(["a", "b"], [])
        assert hilbert_function(h, 3) == [1, 2, 3, 4]

    def test_single_edge(self):
        h = validate(["a", "b"], [["a", "b"]])
        assert hilbert_function(h, 3) == [1, 2, 2, 2]

    def test_zero_dimensional(self):
        h = validate(["a"], [["a"]])
        assert hilbert_function(h, 3) == [1, 0, 0, 0]

    def test_rejects_negative(self, k3):
        with pytest.raises(ValueError, match="^k_max must be nonnegative, got -1$"):
            SRInvariants(k3).hilbert_function(-1)


REPORT_ARGS = build_parser().parse_args(["report", "--input", "-"])


class TestReducedSeries:
    """The report's Hilbert series over (1-t)^n and in lowest terms."""

    def test_k3_reduced(self, k3):
        series = _report_for(k3, REPORT_ARGS)["hilbert_series"]
        assert series == {
            "numerator": ["1", "0", "-3", "2"],
            "denominator_power": 3,
            "reduced_numerator": ["1", "2"],
            "reduced_denominator_power": 1,
        }
        assert sum(map(int, series["reduced_numerator"])) == SRInvariants(k3).multiplicity

    def test_edgeless_reduced(self, edgeless3):
        series = _report_for(edgeless3, REPORT_ARGS)["hilbert_series"]
        assert series["reduced_numerator"] == ["1"] and series["reduced_denominator_power"] == 3


class TestExterior:
    def test_matches_face_counts(self, k3, edgeless3):
        assert vertex_induced_poly(k3).eval_y(0).coeffs == (1, 3)
        assert vertex_induced_poly(edgeless3).eval_y(0).coeffs == (1, 3, 3, 1)
        h = validate(["a"], [["a"]])
        assert vertex_induced_poly(h).eval_y(0) == UniPoly([1])


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_f_vector_matches_naive(h):
    assert list(f_vector(h)) == oracles.naive_independent_sizes(h)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_numerator_equals_face_expansion(h):
    assert verify_series_numerator(SRInvariants(h))


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_h_vector_sums_to_multiplicity(h):
    inv = SRInvariants(h)
    assert sum(inv.h) == inv.multiplicity
    assert inv.h[0] == 1


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_numerator_divisible_by_codimension_power(h):
    # K(t) = h(t) (1-t)^c with c = n - d: coefficient t of the product is
    # sum_k h[k] (-1)^(t-k) C(c, t-k)
    inv = SRInvariants(h)
    c = h.n - inv.krull_dim
    product = [
        sum(hk * (-1) ** (t - k) * comb(c, t - k) for k, hk in enumerate(inv.h) if 0 <= t - k <= c)
        for t in range(h.n + 1)
    ]
    assert UniPoly(product) == inv.k_polynomial


def test_perturbed_face_count_fails_identity_3_2(k3, monkeypatch):
    # one more independent vertex than K3 has: f = (1, 4) against K(t) = 1 - 3t^2 + 2t^3
    def perturbed(h, limit):
        return BiPoly([*vertex_induced_poly(h, limit).terms.items(), ((1, 0), 1)])

    monkeypatch.setattr(stanley_reisner, "vertex_induced_poly", perturbed)
    inv = SRInvariants(k3)
    assert inv.f == (1, 4)
    with pytest.raises(InternalMismatch, match=r"^identity 3\.2 fails: "):
        inv.hilbert_function(4)
    assert verify_series_numerator(inv) is False


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=5, max_m=5))
def test_hilbert_routes_agree_out_to_2n(h):
    # hilbert_function expands K(t) once and raises InternalMismatch unless identity 3.2 holds
    values = hilbert_function(h, 2 * h.n)
    assert len(values) == 2 * h.n + 1
    assert values[0] == 1


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=5, max_m=5))
def test_h_vector_expansion_recovers_face_counts(h):
    # expanding sum h_i t^i / (1-t)^d gives the same series as
    # sum f_i t^i / (1-t)^i
    from hgpoly.bipoly import expand_series

    inv = SRInvariants(h)
    d = inv.krull_dim
    k_max = 2 * h.n + 2
    lhs = expand_series(UniPoly(inv.h), d, k_max)
    rhs = [0] * (k_max + 1)
    for i, fi in enumerate(inv.f):
        series = expand_series(UniPoly([0] * i + [1]), i, k_max)
        rhs = [a + fi * b for a, b in zip(rhs, series)]
    assert lhs == rhs
