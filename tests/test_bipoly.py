from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgpoly.bipoly import (
    BiPoly,
    expand_series,
    substitute,
    to_edge_form,
    to_vertex_form,
)
from hgpoly.errors import InputError, InternalMismatch

from . import oracles
from .strategies import bipolys, coefficients

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
        assert p.eval_y(-1) == BiPoly({(0, 0): 1, (2, 0): -3, (3, 0): 2})
        assert p.eval_y(0) == BiPoly({(0, 0): 1})

    def test_eval_y_no_y_terms(self):
        p = BiPoly({(0, 0): 1, (1, 0): 4, (2, 0): 6, (3, 0): 4, (4, 0): 1})
        assert p.eval_y(-1).coefficients() == (1, 4, 6, 4, 1)


@settings(max_examples=100, deadline=None)
@given(bipolys(), bipolys(), st.integers(-3, 3))
def test_eval_y_is_ring_map(p, q, c):
    for (i, j), v in p.terms.items():
        assert BiPoly({(i, j): v}).eval_y(c) == BiPoly({(i, 0): v * c**j})
    pc, qc = p.eval_y(c), q.eval_y(c)
    total = BiPoly([*p.terms.items(), *q.terms.items()])
    assert total.eval_y(c) == BiPoly([*pc.terms.items(), *qc.terms.items()])
    product = BiPoly(oracles.convolve2d(p.terms, q.terms))
    assert product.eval_y(c).terms == oracles.convolve2d(pc.terms, qc.terms)


def test_coefficients_are_dense_up_to_the_top_nonzero_term():
    assert BiPoly({(0, 0): 1, (3, 0): -2}).coefficients() == (1, 0, 0, -2)
    assert BiPoly([((0, 0), 1), ((2, 0), 5), ((2, 0), -5)]).coefficients() == (1,)
    assert BiPoly({(0, 0): 1, (2, 1): 3}).coefficients() == (1,)
    assert BiPoly({(1, 0): 7}).coefficients() == (0, 7)
    assert BiPoly().coefficients() == ()


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
        with pytest.raises(InputError, match=r"^term x\^5\*y\^0 has x-degree 5, which exceeds n=4$"):
            to_edge_form(BiPoly({(5, 0): 1}), 4)
        with pytest.raises(InputError, match=r"^term x\^3\*y\^1 has x-degree 3, which exceeds n=2$"):
            to_vertex_form(BiPoly({(3, 1): 1}), 2)

    @pytest.mark.parametrize("transform", [to_edge_form, to_vertex_form])
    @pytest.mark.parametrize(
        "p, n, message",
        [
            (BiPoly({(0, 0): 1, (5, 2): 3}), 4, r"x-degree 5, which exceeds n=4$"),
            (ONE, -1, r"^vertex count n=-1 is negative$"),
            (BiPoly(), -2, r"^vertex count n=-2 is negative$"),
        ],
        ids=["degree-above-n", "negative-n", "zero-poly-negative-n"],
    )
    def test_refusals(self, transform, p, n, message):
        with pytest.raises(InputError, match=message):
            transform(p, n)


SIGNS = (-1, 0, 1)


@settings(max_examples=100, deadline=None)
@given(bipolys(), st.integers(0, 3))
def test_substitute_matches_direct_evaluation(p, extra):
    # n is at least the x-degree; the direct side evaluates each factor
    # as an integer, so no expansion is shared with the kernel
    n = max((i for i, _ in p.terms), default=0) + extra
    for a in SIGNS:
        for b in SIGNS:
            out = substitute(p.terms, n, a, b)
            assert all(out.values())
            for x, y in ((2, 3), (-3, 1), (5, -2)):
                direct = sum(c * x**i * (1 + a * x) ** (n - i) * (y + b) ** j for (i, j), c in p.terms.items())
                assert sum(c * x**i * y**j for (i, j), c in out.items()) == direct, (a, b, x, y)


def test_substitute_rejects_a_term_above_n():
    for a in (-1, 1):
        for b in SIGNS:
            with pytest.raises(InternalMismatch, match=r"^term x\^4\*y\^1 has x-degree 4, which exceeds n=3$"):
                substitute({(0, 0): 1, (4, 1): 2}, 3, a, b)


@settings(max_examples=120, deadline=None)
@given(bipolys(max_deg_x=6), st.integers(6, 8))
def test_transform_roundtrip(p, n):
    assert to_vertex_form(to_edge_form(p, n), n) == p
    assert to_edge_form(to_vertex_form(p, n), n) == p


class TestSeries:
    def test_geometric(self):
        assert expand_series(ONE, 1, 3) == [1, 1, 1, 1]

    def test_triangle_numerator(self):
        assert expand_series(BiPoly({(0, 0): 1, (2, 0): -3, (3, 0): 2}), 3, 4) == [1, 3, 3, 3, 3]

    def test_cancellation(self):
        for n in range(5):
            num = BiPoly({(k, 0): (-1) ** k * _comb(n, k) for k in range(n + 1)})  # (1-t)^n
            assert expand_series(num, n, 6) == [1, 0, 0, 0, 0, 0, 0]

    def test_rejects_negative_terms_count(self):
        with pytest.raises(ValueError):
            expand_series(ONE, 1, -1)

    def test_rejects_negative_denominator_power(self):
        with pytest.raises(ValueError, match="^denominator power must be nonnegative, got -1$"):
            expand_series(ONE, -1, 3)


class TestRendering:
    def test_bipoly_text(self):
        p = BiPoly({(0, 0): 1, (2, 1): 3, (3, 2): 3, (3, 3): 1})
        assert p.to_text() == "1 + 3*x^2*y + 3*x^3*y^2 + x^3*y^3"

    def test_bipoly_text_signs(self):
        p = BiPoly({(0, 0): -1, (1, 0): 1, (2, 2): -4})
        assert p.to_text() == "-1 + x - 4*x^2*y^2"

    def test_zero_text(self):
        assert BiPoly().to_text() == "0"
        assert BiPoly().to_text("t") == "0"

    def test_univariate_text(self):
        assert BiPoly({(0, 0): 1, (2, 0): -3, (3, 0): 2}).to_text("t") == "1 - 3*t^2 + 2*t^3"

    @settings(max_examples=150, deadline=None)
    @given(bipolys(), st.lists(coefficients, max_size=8))
    def test_text_reads_back_as_the_terms(self, p, xs):
        # no runtime check reads the text back, so this and the goldens
        # are what pin the renderer; the twins with coefficients in
        # -2..2 put +-1, whose text differs, at every position
        for q in (p, BiPoly({e: c % 5 - 2 for e, c in p.terms.items()})):
            assert oracles.parse_poly_text(q.to_text()) == q.terms
        for q in (BiPoly(((i, 0), c) for i, c in enumerate(xs)), BiPoly(((i, 0), c % 5 - 2) for i, c in enumerate(xs))):
            assert oracles.parse_poly_text(q.to_text("t"), "t") == q.terms

    @pytest.mark.parametrize(
        "text", ["", "1*x", "x^1", "x^0", "03*x", "0*x", "y*x", "x*x", "y*y", "3*z", "x + 1", "2 - -x", "x*y^01"]
    )
    def test_read_back_refuses_other_text(self, text):
        with pytest.raises(ValueError):
            oracles.parse_poly_text(text)


def _comb(n, k):
    from math import comb

    return comb(n, k)
