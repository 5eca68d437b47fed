from __future__ import annotations

import pytest
from hypothesis import given, settings

from hgpoly.bipoly import UniPoly, divide_by_one_minus_t
from hgpoly.enumeration import vertex_induced_poly
from hgpoly.errors import LengthMismatch
from hgpoly.hypergraph import validate
from hgpoly.stanley_reisner import (
    f_vector,
    h_vector,
    hilbert_function,
    k_polynomial,
    sr_invariants,
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
            inv = sr_invariants(h)
            assert (inv.krull_dim, inv.multiplicity) == expected

    def test_fully_blocked(self):
        h = validate(["a"], [["a"]])
        assert f_vector(h) == (1,)
        inv = sr_invariants(h)
        assert inv.krull_dim == 0 and inv.multiplicity == 1


class TestHVector:
    def test_k3(self):
        assert h_vector((1, 3), 1) == (1, 2)

    def test_full_simplex_collapses(self):
        from math import comb

        for n in range(6):
            f = tuple(comb(n, i) for i in range(n + 1))
            assert h_vector(f, n) == (1,) + (0,) * n

    def test_path3(self):
        assert h_vector((1, 3, 1), 2) == (1, 1, -1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            h_vector((1, 3), 2)


class TestKPolynomial:
    def test_k3(self, k3):
        assert k_polynomial(k3) == UniPoly([1, 0, -3, 2])

    def test_path3(self, path3):
        assert k_polynomial(path3) == UniPoly([1, 0, -2, 1])

    def test_edgeless(self, edgeless3):
        assert k_polynomial(edgeless3) == UniPoly.one()


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
        with pytest.raises(ValueError):
            hilbert_function(k3, -1)


class TestReducedSeries:
    def test_k3_reduced(self, k3):
        inv = sr_invariants(k3)
        num, d = inv.hilbert_series_reduced
        assert num == UniPoly([1, 2]) and d == 1
        assert num(1) == inv.multiplicity

    def test_edgeless_reduced(self, edgeless3):
        num, d = sr_invariants(edgeless3).hilbert_series_reduced
        assert num == UniPoly.one() and d == 3


class TestExterior:
    def test_matches_face_counts(self, k3, edgeless3):
        assert vertex_induced_poly(k3).eval_y(0).coeffs == (1, 3)
        assert vertex_induced_poly(edgeless3).eval_y(0).coeffs == (1, 3, 3, 1)
        h = validate(["a"], [["a"]])
        assert vertex_induced_poly(h).eval_y(0) == UniPoly.one()


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_f_vector_matches_naive(h):
    assert list(f_vector(h)) == oracles.naive_independent_sizes(h)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_numerator_equals_face_expansion(h):
    assert verify_series_numerator(sr_invariants(h))


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_h_vector_sums_to_multiplicity(h):
    inv = sr_invariants(h)
    assert sum(inv.h) == inv.multiplicity
    assert inv.h[0] == 1


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_numerator_divisible_by_codimension_power(h):
    inv = sr_invariants(h)
    num = k_polynomial(h)
    for _ in range(h.n - inv.krull_dim):
        num = divide_by_one_minus_t(num)
    assert num(1) == inv.multiplicity


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=5, max_m=5))
def test_hilbert_routes_agree_out_to_2n(h):
    # hilbert_function raises InternalMismatch if its two routes differ
    values = hilbert_function(h, 2 * h.n)
    assert len(values) == 2 * h.n + 1
    assert values[0] == 1


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=5, max_m=5))
def test_h_vector_expansion_recovers_face_counts(h):
    # expanding sum h_i t^i / (1-t)^d gives the same series as
    # sum f_i t^i / (1-t)^i
    from hgpoly.bipoly import expand_series

    inv = sr_invariants(h)
    d = inv.krull_dim
    k_max = 2 * h.n + 2
    lhs = expand_series(UniPoly(inv.h), d, k_max)
    rhs = [0] * (k_max + 1)
    for i, fi in enumerate(inv.f):
        series = expand_series(UniPoly.monomial(i), i, k_max)
        rhs = [a + fi * b for a, b in zip(rhs, series)]
    assert lhs == rhs
