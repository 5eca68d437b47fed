from __future__ import annotations

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgpoly.bipoly import BiPoly
from hgpoly.enumeration import (
    edge_family_poly,
    edge_induced_poly,
    vertex_family_poly,
    vertex_induced_poly,
)
from hgpoly.errors import LimitExceeded
from hgpoly.hypergraph import disjoint_union, validate
from hgpoly.stanley_reisner import SRInvariants
from hgpoly.corpus import complete_graph, cycle_graph, path_graph, random_antichain, star

from . import oracles
from .strategies import hypergraphs


class TestFrozenValues:
    def test_k3_vertex_poly(self, k3):
        assert vertex_induced_poly(k3) == BiPoly({(0, 0): 1, (1, 0): 3, (2, 1): 3, (3, 3): 1})

    def test_k3_edge_poly(self, k3):
        assert edge_induced_poly(k3) == BiPoly({(0, 0): 1, (2, 1): 3, (3, 2): 3, (3, 3): 1})

    def test_path3_vertex_poly(self, path3):
        assert vertex_induced_poly(path3) == BiPoly(
            {(0, 0): 1, (1, 0): 3, (2, 0): 1, (2, 1): 2, (3, 2): 1}
        )

    def test_path3_edge_poly(self, path3):
        assert edge_induced_poly(path3) == BiPoly({(0, 0): 1, (2, 1): 2, (3, 2): 1})

    def test_edgeless(self, edgeless3):
        assert vertex_induced_poly(edgeless3) == BiPoly({(i, 0): comb(3, i) for i in range(4)})
        assert edge_induced_poly(edgeless3) == BiPoly({(0, 0): 1})

    def test_star_edge_poly(self):
        for m in (1, 2, 3, 5):
            h = star(m)
            expected = BiPoly({(0, 0): 1} | {(j + 1, j): comb(m, j) for j in range(1, m + 1)})
            assert edge_induced_poly(h) == expected

    def test_independence_poly_k3(self, k3):
        assert vertex_induced_poly(k3).eval_y(0).coefficients() == (1, 3)

    def test_independence_poly_blocked_singleton(self):
        h = validate(["a"], [["a"]])
        assert vertex_induced_poly(h).eval_y(0).coefficients() == (1,)

    def test_empty_hypergraph(self):
        h = validate([], [])
        assert vertex_induced_poly(h) == BiPoly({(0, 0): 1})
        assert edge_induced_poly(h) == BiPoly({(0, 0): 1})
        assert vertex_induced_poly(h).eval_y(0).coefficients() == (1,)


@settings(max_examples=80, deadline=None)
@given(hypergraphs())
def test_vertex_poly_matches_naive(h):
    assert vertex_induced_poly(h).terms == oracles.naive_vertex_poly(h)


@settings(max_examples=80, deadline=None)
@given(hypergraphs())
def test_edge_poly_matches_naive(h):
    assert edge_induced_poly(h).terms == oracles.naive_edge_poly(h)


@settings(max_examples=80, deadline=None)
@given(hypergraphs())
def test_independence_poly_matches_naive(h):
    assert list(vertex_induced_poly(h).eval_y(0).coefficients()) == oracles.naive_independent_sizes(h)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_row_and_column_sums(h):
    p = vertex_induced_poly(h)
    for i in range(h.n + 1):
        assert sum(c for (ii, _), c in p.terms.items() if ii == i) == comb(h.n, i)
    s = edge_induced_poly(h)
    for j in range(h.m + 1):
        assert sum(c for (_, jj), c in s.terms.items() if jj == j) == comb(h.m, j)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_no_x_without_vertices(h):
    # the only i=0 term in either polynomial is the constant 1
    for poly in (vertex_induced_poly(h), edge_induced_poly(h)):
        assert {e: c for e, c in poly.terms.items() if e[0] == 0} == {(0, 0): 1}


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=4, max_m=4), hypergraphs(max_n=4, max_m=4))
def test_multiplicative_over_disjoint_union(h1, h2):
    relabeled = validate(
        [f"r{lbl}" for lbl in h2.labels],
        [[f"r{lbl}" for lbl in e] for e in h2.edge_label_sets()],
    )
    u, parts = SRInvariants(disjoint_union(h1, relabeled)), (SRInvariants(h1), SRInvariants(h2))
    assert u.P.terms == oracles.convolve2d(parts[0].P.terms, parts[1].P.terms)
    assert u.S.terms == oracles.convolve2d(parts[0].S.terms, parts[1].S.terms)
    f1, f2 = ({(i, 0): c for i, c in enumerate(inv.f)} for inv in parts)
    assert {(i, 0): c for i, c in enumerate(u.f)} == oracles.convolve2d(f1, f2)
    assert u.betti.graded == oracles.convolve2d(parts[0].betti.graded, parts[1].betti.graded)


def _clutter(n: int, m: int, seed: int):
    """n vertices and m edges: when m > 0 the singleton edge {v0}, an
    isolated v1, {v13, v14} when n > 14 and {v14, v(n-1)} (all of its
    vertices at index >= 14, the sweep's low index bits) when n >= 16,
    then seeded random 2- and 3-edges over v2.. that keep the antichain,
    some straddling index 14."""
    rng = random.Random(seed)
    edges = [{0}, {13, 14}, {14, n - 1}][: 1 + (n > 14) + (n >= 16)] if m else []
    while len(edges) < m:
        e = set(rng.sample(range(2, n), rng.choice((2, 3))))
        if all(not (e <= f or f <= e) for f in edges):
            edges.append(e)
    return validate([f"v{k}" for k in range(n)], [[f"v{k}" for k in sorted(e)] for e in edges])


class TestBlockBoundary:
    """Sweeps of more than 2^14 subsets run in several blocks; the
    Hypothesis strategies stay within one."""

    @pytest.mark.parametrize("n, m", [(0, 0), (3, 0), (12, 12), (13, 13), (14, 14), (15, 15), (16, 16)])
    def test_vertex_poly_matches_naive(self, n, m):
        h = _clutter(n, m, seed=n)
        assert (h.n, h.m) == (n, m)
        assert vertex_induced_poly(h).terms == oracles.naive_vertex_poly(h)

    @pytest.mark.parametrize("n, m", [(0, 0), (3, 0), (10, 12), (10, 13), (10, 14), (10, 15), (10, 16)])
    def test_edge_poly_matches_naive(self, n, m):
        h = _clutter(n, m, seed=m)
        assert (h.n, h.m) == (n, m)
        assert edge_induced_poly(h).terms == oracles.naive_edge_poly(h)


def _naive_sum(naive, family) -> dict[tuple[int, int], int]:
    total: dict[tuple[int, int], int] = {}
    for h in family:
        for key, c in naive(h).items():
            total[key] = total.get(key, 0) + c
    return total


@settings(max_examples=60, deadline=None)
@given(st.lists(hypergraphs(), min_size=1, max_size=8))
def test_family_sweeps_sum_the_members(family):
    assert vertex_family_poly(family).terms == _naive_sum(oracles.naive_vertex_poly, family)
    assert edge_family_poly(family).terms == _naive_sum(oracles.naive_edge_poly, family)


class TestFamilies:
    """Each member is swept in its own blocks: one block when it has at
    most 14 vertices (or edges), else one per value of its index bits
    above the low 14."""

    def _check(self, family):
        assert vertex_family_poly(family).terms == _naive_sum(oracles.naive_vertex_poly, family)
        assert edge_family_poly(family).terms == _naive_sum(oracles.naive_edge_poly, family)

    def test_a_member_over_one_block_among_small_ones(self):
        # n = m = 15: two blocks for that member alone, on either side
        family = [cycle_graph(4), _clutter(15, 15, seed=15), path_graph(14), star(3)]
        self._check(family)

    def test_a_member_with_more_than_14_edges(self):
        family = [_clutter(10, 16, seed=16), complete_graph(6), cycle_graph(5)]
        assert [h.m for h in family] == [16, 15, 5]
        self._check(family)

    def test_a_member_with_exactly_14_edges(self):
        # m = 14: the largest member whose edge side is one block
        family = [_clutter(10, 14, seed=14), path_graph(3)]
        assert [h.m for h in family] == [14, 2]
        self._check(family)

    def test_a_member_over_one_block_among_edgeless_and_tiny_ones(self):
        family = [validate([], []), _clutter(10, 15, seed=15), validate(["a"], [["a"]]), path_graph(3), validate(["a", "b"], [])]
        assert [(h.n, h.m) for h in family] == [(0, 0), (10, 15), (1, 1), (3, 2), (2, 0)]
        self._check(family)

    def test_edgeless_members(self):
        family = [validate([], []), validate(["a", "b", "c"], []), cycle_graph(5), validate(list("abcdefg"), [])]
        self._check(family)

    def test_members_that_fill_several_blocks(self):
        # 20 members of 2^9 vertex subsets each, one block apiece
        family = [random_antichain(random.Random(seed), 9, 8) for seed in range(20)]
        assert {h.n for h in family} == {9}
        self._check(family)

    @pytest.mark.parametrize("n, m", [(0, 0), (3, 0), (13, 13), (10, 14), (15, 15), (10, 16)])
    def test_a_family_of_one_is_the_single_sweep(self, n, m):
        h = _clutter(n, m, seed=m)
        assert vertex_family_poly([h]) == vertex_induced_poly(h)
        assert edge_family_poly([h]) == edge_induced_poly(h)

    def test_each_member_is_held_to_the_limit(self, k3):
        small = validate(["a"], [["a"]])
        with pytest.raises(LimitExceeded, match="n=3"):
            vertex_family_poly([small, k3], limit=2)
        with pytest.raises(LimitExceeded, match="m=3"):
            edge_family_poly([small, k3], limit=2)


class TestLimits:
    def test_vertex_limit_message_names_values(self):
        h = validate([f"v{k}" for k in range(5)], [])
        with pytest.raises(LimitExceeded) as exc:
            vertex_induced_poly(h, limit=4)
        assert "n=5" in str(exc.value) and "4" in str(exc.value)

    def test_edge_limit(self, k3):
        with pytest.raises(LimitExceeded) as exc:
            edge_induced_poly(k3, limit=2)
        assert "m=3" in str(exc.value)

    def test_limit_override_allows_run(self, k3):
        assert edge_induced_poly(k3, limit=3) == edge_induced_poly(k3)
