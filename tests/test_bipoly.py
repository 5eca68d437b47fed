from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgpoly.bipoly import (
    BiPoly,
    UniPoly,
    divide_by_one_minus_t,
    expand_series,
    to_edge_form,
    to_vertex_form,
)
from hgpoly.errors import DegreeExceedsN

from . import oracles
from .strategies import bipolys, unipolys

ONE = BiPoly({(0, 0): 1})


class TestArithmetic:
    def test_zero_coefficients_dropped(self):
        assert BiPoly([((1, 1), 3), ((1, 1), -3)]) == BiPoly()
        assert not BiPoly([((1, 1), 3), ((1, 1), -3), ((0, 2), 0)]).terms
        assert BiPoly([((1, 1), 3), ((1, 1), -1)]).terms == {(1, 1): 2}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            BiPoly({(-1, 0): 1})

    def test_eval_y(self):
        p = BiPoly({(0, 0): 1, (2, 1): 3, (3, 2): 3, (3, 3): 1})
        assert p.eval_y(-1) == UniPoly([1, 0, -3, 2])
        assert p.eval_y(0) == UniPoly([1])

    def test_eval_y_no_y_terms(self):
        p = BiPoly({(0, 0): 1, (1, 0): 4, (2, 0): 6, (3, 0): 4, (4, 0): 1})
        assert p.eval_y(-1).coeffs == (1, 4, 6, 4, 1)


@settings(max_examples=100, deadline=None)
@given(bipolys(), bipolys(), st.integers(-3, 3))
def test_eval_y_is_ring_map(p, q, c):
    def table(u):  # a UniPoly as a convolve2d table keyed (i, 0)
        return {(i, 0): v for i, v in enumerate(u.coeffs) if v}

    for (i, j), v in p.terms.items():
        assert BiPoly({(i, j): v}).eval_y(c) == UniPoly([0] * i + [v * c**j])
    pc, qc = p.eval_y(c), q.eval_y(c)
    total = BiPoly([*p.terms.items(), *q.terms.items()])
    assert total.eval_y(c) == UniPoly(pc.coeff(i) + qc.coeff(i) for i in range(max(pc.degree(), qc.degree()) + 1))
    product = BiPoly(oracles.convolve2d(p.terms, q.terms))
    assert table(product.eval_y(c)) == oracles.convolve2d(table(pc), table(qc))


class TestTransforms:
    def test_edgeless_collapses_to_one(self):
        for n in range(9):
            p = BiPoly({(i, 0): _comb(n, i) for i in range(n + 1)})
            assert to_edge_form(p, n) == ONE

    def test_triangle(self):
        p = BiPoly({(0, 0): 1, (1, 0): 3, (2, 1): 3, (3, 3): 1})
        s = BiPoly({(0, 0): 1, (2, 1): 3, (3, 2): 3, (3, 3): 1})
        assert to_edge_form(p, 3) == s
        assert to_vertex_form(s, 3) == p

    def test_star_formula(self):
        # vertex form (1+x)^m + x(1+xy)^m maps to 1 + sum_{j>=1} C(m,j) x^(j+1) y^j
        for m in range(1, 7):
            p = BiPoly([((i, 0), _comb(m, i)) for i in range(m + 1)] + [((1 + j, j), _comb(m, j)) for j in range(m + 1)])
            expected = BiPoly({(0, 0): 1} | {(j + 1, j): _comb(m, j) for j in range(1, m + 1)})
            assert to_edge_form(p, m + 1) == expected

    def test_constant_to_binomial(self):
        assert to_vertex_form(ONE, 4) == BiPoly({(i, 0): _comb(4, i) for i in range(5)})

    def test_degree_guard(self):
        with pytest.raises(DegreeExceedsN):
            to_edge_form(BiPoly({(5, 0): 1}), 4)
        with pytest.raises(DegreeExceedsN):
            to_vertex_form(BiPoly({(3, 1): 1}), 2)


@settings(max_examples=120, deadline=None)
@given(bipolys(max_deg_x=6), st.integers(6, 8))
def test_transform_roundtrip(p, n):
    assert to_vertex_form(to_edge_form(p, n), n) == p
    assert to_edge_form(to_vertex_form(p, n), n) == p


class TestUniPoly:
    def test_trailing_zeros_trimmed(self):
        assert UniPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert UniPoly([0, 0]).is_zero()

    def test_degree_and_eval(self):
        p = UniPoly([1, -3, 2])
        assert p.degree() == 2
        assert p(1) == 0
        assert p(2) == 3

    def test_divide_by_one_minus_t(self):
        # 1 - 3t^2 + 2t^3 = (1-t)^2 (1+2t)
        q = divide_by_one_minus_t(UniPoly([1, 0, -3, 2]))
        assert q == UniPoly([1, 1, -2])
        assert divide_by_one_minus_t(q) == UniPoly([1, 2])
        with pytest.raises(ValueError):
            divide_by_one_minus_t(UniPoly([1, 1]))


@settings(max_examples=100, deadline=None)
@given(unipolys(), st.integers(0, 5))
def test_divide_after_multiply_roundtrip(p, k):
    # q = p (1-t)^k, written out: q_d = sum_a (-1)^a C(k, a) p_(d-a)
    q = UniPoly([
        sum((-1) ** a * _comb(k, a) * p.coeff(d - a) for a in range(k + 1))
        for d in range(p.degree() + k + 1)
    ])
    for _ in range(k):
        quotient = divide_by_one_minus_t(q)
        # (1-t) quotient = q: q_d = quotient_d - quotient_(d-1) at every d
        assert all(q.coeff(d) == quotient.coeff(d) - quotient.coeff(d - 1) for d in range(q.degree() + 2))
        q = quotient
    assert q == p


class TestSeries:
    def test_geometric(self):
        assert expand_series(UniPoly([1]), 1, 3) == [1, 1, 1, 1]

    def test_triangle_numerator(self):
        assert expand_series(UniPoly([1, 0, -3, 2]), 3, 4) == [1, 3, 3, 3, 3]

    def test_cancellation(self):
        for n in range(5):
            num = UniPoly([(-1) ** k * _comb(n, k) for k in range(n + 1)])  # (1-t)^n
            assert expand_series(num, n, 6) == [1, 0, 0, 0, 0, 0, 0]

    def test_rejects_negative_terms_count(self):
        with pytest.raises(ValueError):
            expand_series(UniPoly([1]), 1, -1)


class TestRendering:
    def test_bipoly_text(self):
        p = BiPoly({(0, 0): 1, (2, 1): 3, (3, 2): 3, (3, 3): 1})
        assert p.to_text() == "1 + 3*x^2*y + 3*x^3*y^2 + x^3*y^3"

    def test_bipoly_text_signs(self):
        p = BiPoly({(0, 0): -1, (1, 0): 1, (2, 2): -4})
        assert p.to_text() == "-1 + x - 4*x^2*y^2"

    def test_zero_text(self):
        assert BiPoly().to_text() == "0"
        assert UniPoly().to_text() == "0"

    def test_unipoly_text(self):
        assert UniPoly([1, 0, -3, 2]).to_text() == "1 - 3*t^2 + 2*t^3"


def _comb(n, k):
    from math import comb

    return comb(n, k)
