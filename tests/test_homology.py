from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgpoly.errors import LimitExceeded, UnknownVertex
from hgpoly.homology import (
    BettiTable,
    SimplicialComplex,
    antidiagonal_recovery,
    betti_alternating_sum,
    exact_rank,
    hochster_betti,
    homology_dims_from_masks,
    independence_complex,
    pd_reg_depth,
    reduced_homology_dims,
    verify_betti_alternating_sum,
)
from hgpoly.hypergraph import validate
from hgpoly.corpus import cycle_graph, wheel
from hgpoly.stanley_reisner import k_polynomial

from . import oracles
from .strategies import hypergraphs


def _sparse(rows: list[list[int]]) -> list[dict[int, int]]:
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


class TestExactRank:
    def test_identity(self):
        assert exact_rank([{0: 1}, {1: 1}]) == 2

    def test_rank_deficient(self):
        assert exact_rank(_sparse([[1, 2, 3], [2, 4, 6], [1, 1, 1]])) == 2

    def test_zero_and_empty(self):
        assert exact_rank([{}, {}]) == 0
        assert exact_rank([]) == 0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(st.one_of(st.just(0), st.integers(-50, 50)), min_size=1, max_size=6),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_matches_fraction_gauss_and_pivots_agree(self, rows):
        # rows, columns and the rows in reverse order each pick other
        # pivots; all must give the rational rank
        expected = oracles.rank_over_rationals(rows)
        columns = [list(col) for col in zip(*rows)]
        assert exact_rank(_sparse(rows)) == expected
        assert exact_rank(_sparse(columns)) == expected
        assert exact_rank(_sparse(rows[::-1])) == expected


class TestComplex:
    def test_independence_complex_k3(self, k3):
        cx = independence_complex(k3)
        assert cx.face_label_sets() == [(), ("a",), ("b",), ("c",)]

    def test_independence_complex_path(self, path3):
        cx = independence_complex(path3)
        assert cx.face_label_sets() == [(), ("a",), ("b",), ("c",), ("a", "c")]

    def test_full_simplex(self, edgeless3):
        cx = independence_complex(edgeless3)
        assert len(cx.faces) == 8 and cx.dim == 2

    def test_downward_closure_enforced(self):
        with pytest.raises(ValueError):
            SimplicialComplex(("a", "b"), frozenset({0b11}))

    def test_restrict(self, k3):
        cx = independence_complex(k3)
        assert cx.restrict([]).face_label_sets() == [()]
        assert cx.restrict(["a", "b"]).face_label_sets() == [(), ("a",), ("b",)]
        with pytest.raises(UnknownVertex):
            cx.restrict(["z"])

    def test_restrict_full_simplex(self, edgeless3):
        cx = independence_complex(edgeless3)
        sub = cx.restrict(["a", "b"])
        assert len(sub.faces) == 4

    def test_limit(self):
        h = validate([f"v{k}" for k in range(6)], [])
        with pytest.raises(LimitExceeded):
            independence_complex(h, limit=5)


class TestReducedHomology:
    def test_empty_complex_convention(self):
        assert homology_dims_from_masks([0]) == [1]

    def test_void_complex(self):
        assert homology_dims_from_masks([]) == []

    def test_two_points(self):
        assert homology_dims_from_masks([0, 1, 2]) == [0, 1]

    def test_triangle_boundary_is_circle(self):
        faces = [0, 1, 2, 4, 3, 5, 6]
        assert homology_dims_from_masks(faces) == [0, 0, 1]

    def test_full_simplex_acyclic(self):
        # degrees -1 through 2 for the solid simplex on three vertices
        assert homology_dims_from_masks(list(range(8))) == [0, 0, 0, 0]

    def test_pentagon_is_circle(self):
        cx = independence_complex(cycle_graph(5))
        assert reduced_homology_dims(cx) == [0, 0, 1]

    def test_cone_with_isolated_vertex_is_acyclic(self):
        # the pentagon's independence complex (a circle) coned off by an
        # isolated vertex: every face extends by that vertex
        h = validate([f"v{k}" for k in range(6)], [[f"v{k}", f"v{(k + 1) % 5}"] for k in range(5)])
        assert reduced_homology_dims(independence_complex(h)) == [0, 0, 0, 0]

    def test_real_projective_plane_over_the_rationals(self):
        # the 6-vertex triangulation: a closed surface (every edge on two
        # triangles) of Euler characteristic 1; over GF(2) it would carry
        # H_1 = H_2 = 1, over the rationals it is acyclic
        triangles = [
            (0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
            (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5),
        ]
        masks = [sum(1 << v for v in t) for t in triangles]
        faces = sorted({f & s for f in masks for s in range(64)})
        edges = [f for f in faces if f.bit_count() == 2]
        assert all(sum(f & e == e for f in masks) == 2 for e in edges)
        assert 6 - len(edges) + len(masks) == 1
        assert homology_dims_from_masks(faces) == [0, 0, 0, 0]


@settings(max_examples=50, deadline=None)
@given(hypergraphs(max_n=5, max_m=5))
def test_homology_matches_naive(h):
    cx = independence_complex(h)
    got = reduced_homology_dims(cx)
    faces = [frozenset(f) for f in cx.face_label_sets()]
    assert got == oracles.naive_reduced_homology(faces)


@settings(max_examples=50, deadline=None)
@given(hypergraphs(max_n=5, max_m=5))
def test_euler_characteristic_consistency(h):
    # alternating sum of homology dims equals the reduced Euler
    # characteristic from face counts, for the complex and every
    # restriction of it
    cx = independence_complex(h)
    subsets = [h.labels[: k + 1] for k in range(h.n)] + [h.labels]
    for vertices in [()] + subsets:
        sub = cx.restrict(vertices)
        dims = reduced_homology_dims(sub)
        from_homology = sum((-1) ** k * d for k, d in enumerate(dims))
        from_faces = sum((-1) ** f.bit_count() for f in sub.faces)
        assert from_homology == from_faces


class TestHochster:
    def test_k3_table(self, k3):
        table = hochster_betti(k3)
        assert table.graded == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
        mg = {(i, verts): b for i, verts, b in table.multigraded_entries()}
        assert mg[(1, ("a", "b"))] == 1
        assert mg[(2, ("a", "b", "c"))] == 2

    def test_single_edge(self):
        h = validate(["a", "b"], [["a", "b"]])
        assert hochster_betti(h).graded == {(0, 0): 1, (1, 2): 1}

    def test_edgeless(self, edgeless3):
        assert hochster_betti(edgeless3).graded == {(0, 0): 1}

    def test_singleton_edge_koszul(self):
        h = validate(["a"], [["a"]])
        assert hochster_betti(h).graded == {(0, 0): 1, (1, 1): 1}

    def test_limit(self):
        h = validate([f"v{k}" for k in range(6)], [])
        with pytest.raises(LimitExceeded):
            hochster_betti(h, limit=5)

    def test_parallel_identical(self):
        h = cycle_graph(6)
        assert hochster_betti(h, parallel=True).multigraded == hochster_betti(h).multigraded


@settings(max_examples=30, deadline=None)
@given(hypergraphs(max_n=5, max_m=5))
def test_hochster_matches_naive_all_subsets_loop(h):
    table = hochster_betti(h)
    got = {(i, verts): b for i, verts, b in table.multigraded_entries()}
    assert got == oracles.naive_betti_table(h)


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=6, max_m=6))
def test_independent_supports_carry_nothing(h):
    table = hochster_betti(h)
    for (i, bmask), b in table.multigraded.items():
        if i == 0:
            continue
        labels = [h.labels[v] for v in range(h.n) if bmask >> v & 1]
        assert not h.is_independent(labels)


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=6, max_m=6))
def test_table_structure(h):
    # homological degree never exceeds |B|, and degree 0 only carries
    # the empty support
    table = hochster_betti(h)
    for (i, bmask), b in table.multigraded.items():
        assert b > 0
        assert i <= bmask.bit_count()
        assert (i == 0) == (bmask == 0)
    assert table.multigraded[(0, 0)] == 1


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=6, max_m=6))
def test_graded_collapse_consistent(h):
    table = hochster_betti(h)
    collapsed: dict = {}
    for (i, bmask), b in table.multigraded.items():
        key = (i, bmask.bit_count())
        collapsed[key] = collapsed.get(key, 0) + b
    assert collapsed == table.graded


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=6, max_m=6))
def test_alternating_sum_identity(h):
    assert verify_betti_alternating_sum(hochster_betti(h), k_polynomial(h))
    assert betti_alternating_sum(hochster_betti(h)) == k_polynomial(h)


class TestDerivedInvariants:
    def test_k3(self, k3):
        assert pd_reg_depth(hochster_betti(k3), 3) == (2, 1, 1)

    def test_edgeless(self):
        for n in (1, 3, 5):
            h = validate([f"v{k}" for k in range(n)], [])
            assert pd_reg_depth(hochster_betti(h), n) == (0, 0, n)

    def test_single_edge(self):
        h = validate(["a", "b"], [["a", "b"]])
        assert pd_reg_depth(hochster_betti(h), 2) == (1, 1, 1)

    def test_complete_intersection(self):
        h = validate(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])
        table = hochster_betti(h)
        assert table.graded == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
        assert pd_reg_depth(table, 4) == (2, 2, 2)


class TestAntidiagonalRecovery:
    def test_k3_applicable(self, k3):
        rec = antidiagonal_recovery(hochster_betti(k3), k_polynomial(k3))
        assert rec.applicable and rec.entries == {2: 3, 3: 2}

    def test_edgeless_empty_recovery(self, edgeless3):
        rec = antidiagonal_recovery(hochster_betti(edgeless3), k_polynomial(edgeless3))
        assert rec.applicable and rec.entries == {}

    def test_wheel_not_applicable(self):
        # two nonzero entries share a column: (3, 5) and (4, 5)
        rec = antidiagonal_recovery(hochster_betti(wheel(5)), k_polynomial(wheel(5)))
        assert not rec.applicable
        assert rec.violating_degree == 5

    def test_recovered_values_match_table(self, corpus):
        for _, h in corpus[:80]:
            if h.n > 6:
                continue
            rec = antidiagonal_recovery(hochster_betti(h), k_polynomial(h))
            if not rec.applicable:
                continue
            table = hochster_betti(h)
            for j, b in rec.entries.items():
                assert any(jj == j and bb == b for (_, jj), bb in table.graded.items())
