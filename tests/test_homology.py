from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgpoly import homology
from hgpoly.bipoly import BiPoly
from hgpoly.cli import _report_for, build_parser, main
from hgpoly.enumeration import DEFAULT_LIMIT
from hgpoly.errors import InternalMismatch, LimitExceeded, check_limit
from hgpoly.formats import dump_hypergraph_json, load_hypergraph
from hgpoly.homology import (
    DEFAULT_HOMOLOGY_LIMIT,
    _edge_union_closure,
    _exact_homology_dims,
    _faces_by_dim,
    _gf2_homology_dims,
    _gf2_reduce,
    _restriction_faces,
    BettiTable,
    betti_columns,
    exact_rank,
    hochster_betti,
    homology_dims_from_masks,
    pd_reg_depth,
    restriction_betti,
    verify_betti_alternating_sum,
)
from hgpoly.hypergraph import Hypergraph, validate
from hgpoly.stanley_reisner import SRInvariants

from . import oracles
from .families import complete_graph, cycle_graph, path_graph, star, wheel
from .strategies import hypergraphs
from .test_engine_golden import INPUTS as ENGINE_INPUTS


# the 6-vertex real projective plane: a closed surface (every edge on
# two triangles) of Euler characteristic 1 whose 1-skeleton is K_6
RP2_TRIANGLES = [
    (0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5),
]


def _rp2() -> Hypergraph:
    """The ten triples that are not triangles of RP^2: its minimal
    non-faces, so its independence complex is RP^2."""
    facets = {sum(1 << v for v in t) for t in RP2_TRIANGLES}
    triples = (sum(1 << v for v in c) for c in combinations(range(6), 3))
    return Hypergraph.from_masks(tuple("abcdef"), [t for t in triples if t not in facets])


def _sparse(rows: list[list[int]]) -> list[dict[int, int]]:
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@pytest.fixture
def exact_rank_calls(monkeypatch) -> list[int]:
    """Sizes of the exact_rank calls made while the test runs: the
    fallback behind the GF(2) certificate."""
    calls: list[int] = []

    def counted(vectors):
        calls.append(len(vectors))
        return exact_rank(vectors)

    monkeypatch.setattr(homology, "exact_rank", counted)
    return calls


def _face_labels(h, bmask: int) -> list[tuple[str, ...]]:
    """Faces of h's independence complex restricted to bmask, as label
    tuples by size, then colex."""
    faces = _restriction_faces(bmask, h.edges)
    return [h.labels_of(f) for f in sorted(faces, key=lambda f: (f.bit_count(), f))]


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
        st.integers(1, 6).flatmap(
            lambda cols: st.lists(
                st.lists(st.one_of(st.just(0), st.integers(-50, 50)), min_size=cols, max_size=cols),
                min_size=1,
                max_size=6,
            )
        )
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
    """Independence complexes as face masks, via _restriction_faces."""

    def test_independence_complex_k3(self, k3):
        assert _face_labels(k3, k3.full_mask) == [(), ("a",), ("b",), ("c",)]

    def test_independence_complex_path(self, path3):
        assert _face_labels(path3, path3.full_mask) == [(), ("a",), ("b",), ("c",), ("a", "c")]

    def test_full_simplex(self, edgeless3):
        faces = _restriction_faces(edgeless3.full_mask, edgeless3.edges)
        assert len(faces) == 8 and max(f.bit_count() for f in faces) == 3

    def test_restrict(self, k3):
        assert _face_labels(k3, 0) == [()]
        assert _face_labels(k3, 0b011) == [(), ("a",), ("b",)]

    def test_restrict_full_simplex(self, edgeless3):
        assert len(_restriction_faces(0b011, edgeless3.edges)) == 4

    def test_limit(self):
        check_limit("n", 5, "homology", 5)
        with pytest.raises(LimitExceeded):
            check_limit("n", 6, "homology", 5)
        # an edgeless hypergraph has no B to walk, so only the limit costs
        hochster_betti(validate([f"v{k}" for k in range(DEFAULT_HOMOLOGY_LIMIT)], []))
        with pytest.raises(LimitExceeded):
            hochster_betti(validate([f"v{k}" for k in range(DEFAULT_HOMOLOGY_LIMIT + 1)], []))


@settings(max_examples=50, deadline=None)
@given(hypergraphs(max_n=5, max_m=5))
def test_restriction_faces_are_the_independent_subsets(h):
    # every restriction is downward closed (the boundary matrices look
    # up each facet) and filtering the whole complex gives the same faces
    whole = _restriction_faces(h.full_mask, h.edges)
    for bmask in range(1 << h.n):
        faces = _restriction_faces(bmask, h.edges)
        assert sorted(faces) == [w for w in sorted(whole) if w & ~bmask == 0]
        assert all(all(e & ~w for e in h.edges) for w in faces)
        assert all(f ^ (1 << v) in faces for f in faces for v in range(h.n) if f >> v & 1)


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
        c5 = cycle_graph(5)
        assert homology_dims_from_masks(_restriction_faces(c5.full_mask, c5.edges)) == [0, 0, 1]

    def test_cone_with_isolated_vertex_is_acyclic(self):
        # the pentagon's independence complex (a circle) coned off by an
        # isolated vertex: every face extends by that vertex
        h = validate([f"v{k}" for k in range(6)], [[f"v{k}", f"v{(k + 1) % 5}"] for k in range(5)])
        assert homology_dims_from_masks(_restriction_faces(h.full_mask, h.edges)) == [0, 0, 0, 0]

    def test_real_projective_plane_over_the_rationals(self):
        # over GF(2) it carries H_1 = H_2 = 1, over the rationals it is
        # acyclic
        masks = [sum(1 << v for v in t) for t in RP2_TRIANGLES]
        faces = sorted({f & s for f in masks for s in range(64)})
        edges = [f for f in faces if f.bit_count() == 2]
        assert len(edges) == 15
        assert all(sum(f & e == e for f in masks) == 2 for e in edges)
        assert 6 - len(edges) + len(masks) == 1
        assert homology_dims_from_masks(faces) == [0, 0, 0, 0]
        assert _gf2_homology_dims(_faces_by_dim(faces)) == [0, 0, 1, 1]


@settings(max_examples=50, deadline=None)
@given(hypergraphs(max_n=5, max_m=5))
def test_homology_matches_naive(h):
    faces = _restriction_faces(h.full_mask, h.edges)
    naive_faces = oracles.naive_independence_faces(h)
    assert {frozenset(h.labels_of(f)) for f in faces} == set(naive_faces)
    assert homology_dims_from_masks(faces) == oracles.naive_reduced_homology(naive_faces)


@settings(max_examples=50, deadline=None)
@given(hypergraphs(max_n=5, max_m=5))
def test_euler_characteristic_consistency(h):
    # alternating sum of homology dims equals the reduced Euler
    # characteristic from face counts, for every restriction of the
    # complex
    for bmask in range(1 << h.n):
        faces = _restriction_faces(bmask, h.edges)
        dims = homology_dims_from_masks(faces)
        from_homology = sum((-1) ** k * d for k, d in enumerate(dims))
        from_faces = sum((-1) ** f.bit_count() for f in faces)
        assert from_homology == from_faces


class TestGF2:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda cols: st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols), min_size=1, max_size=8)
        )
    )
    def test_rank_matches_mod_2_gauss(self, rows):
        ints = [sum(x << j for j, x in enumerate(row)) for row in rows]
        assert len(_gf2_reduce(ints)) == oracles.rank_over_gf2(rows)
        assert len(_gf2_reduce(ints[::-1])) == oracles.rank_over_gf2(rows)

    def test_rank_is_taken_mod_2(self):
        rows = [[1, 1], [1, -1]]
        assert exact_rank(_sparse(rows)) == 2
        assert len(_gf2_reduce([0b11, 0b11])) == oracles.rank_over_gf2(rows) == 1


def _assert_gf2_matches_mod_2_oracle(h: Hypergraph) -> None:
    faces = _restriction_faces(h.full_mask, h.edges)
    expected = oracles.naive_reduced_homology(oracles.naive_independence_faces(h), rank=oracles.rank_over_gf2)
    assert _gf2_homology_dims(_faces_by_dim(faces)) == expected


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=6, max_m=6))
def test_gf2_homology_matches_mod_2_oracle(h):
    # the top-down reduction that skips rows against the mod 2 boundary
    # matrices of the naive oracle
    _assert_gf2_matches_mod_2_oracle(h)


@pytest.mark.parametrize(
    "h",
    [cycle_graph(8), cycle_graph(9), path_graph(10), wheel(7), _rp2()],
    ids=["cycle8", "cycle9", "path10", "wheel7", "rp2"],
)
def test_gf2_homology_matches_mod_2_oracle_on_deeper_complexes(h):
    # complexes of dimension 2 to 4, where the skipped rows matter
    _assert_gf2_matches_mod_2_oracle(h)


def _assert_certified_equals_exact(edges: tuple[int, ...], bmasks) -> int:
    """Check homology_dims_from_masks against the all-exact route on
    each restriction, with the certificate's premises; returns how many
    restrictions needed the fallback."""
    fallbacks = 0
    for bmask in bmasks:
        faces = _restriction_faces(bmask, edges)
        grouped = _faces_by_dim(faces)
        gf2, rational = _gf2_homology_dims(grouped), _exact_homology_dims(grouped)
        assert homology_dims_from_masks(faces) == rational
        assert len(gf2) == len(rational) and all(a >= b for a, b in zip(gf2, rational))
        assert sum((-1) ** k * (a - b) for k, (a, b) in enumerate(zip(gf2, rational))) == 0
        fallbacks += sum(1 for d in gf2 if d) > 1
    return fallbacks


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=6, max_m=6))
def test_certified_homology_equals_exact_on_every_restriction(h):
    _assert_certified_equals_exact(h.edges, range(1 << h.n))


def test_certified_homology_equals_exact_on_the_corpus(corpus):
    hypergraphs = [h for _, h in corpus] + [wheel(6), wheel(7), _rp2()]
    fallbacks = sum(_assert_certified_equals_exact(h.edges, _edge_union_closure(h.edges)) for h in hypergraphs)
    assert fallbacks > 0


class TestRealProjectivePlaneTable:
    """Reisner's example: the table depends on the characteristic, so
    the GF(2) certificate must fail on B = V and fall back."""

    def test_independence_complex_is_rp2(self):
        h = _rp2()
        masks = [sum(1 << v for v in t) for t in RP2_TRIANGLES]
        assert sorted(_restriction_faces(h.full_mask, h.edges)) == sorted({f & s for f in masks for s in range(64)})

    def test_rational_graded_table(self):
        assert hochster_betti(_rp2()).graded == {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}

    def test_fallback_runs_only_on_the_full_vertex_set(self, exact_rank_calls):
        h = _rp2()
        for bmask in _edge_union_closure(h.edges):
            exact_rank_calls.clear()
            restriction_betti(h.edges, [bmask])
            assert bool(exact_rank_calls) == (bmask == h.full_mask)


def test_paths_and_cycles_need_no_fallback(exact_rank_calls):
    hochster_betti(cycle_graph(9))
    hochster_betti(path_graph(9))
    assert exact_rank_calls == []


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


@settings(max_examples=30, deadline=None)
@given(hypergraphs(max_n=5, max_m=5))
def test_hochster_matches_naive_all_subsets_loop(h):
    table = hochster_betti(h)
    got = {(i, verts): b for i, verts, b in table.multigraded_entries()}
    assert got == oracles.naive_betti_table(h)


def test_hochster_matches_the_crosscut_oracle_on_the_corpus(corpus):
    # the crosscut walks edge subsets, 2^m per B at most, so only the members with m <= 7
    for _, h in corpus:
        if h.m <= 7:
            got = {(i, verts): b for i, verts, b in hochster_betti(h).multigraded_entries()}
            assert got == oracles.crosscut_betti(h), h


@settings(max_examples=40, deadline=None)
@given(hypergraphs())
def test_hochster_matches_the_crosscut_oracle(h):
    got = {(i, verts): b for i, verts, b in hochster_betti(h).multigraded_entries()}
    assert got == oracles.crosscut_betti(h)


@pytest.mark.parametrize("n, k, m", [(16, 3, 5), (20, 3, 6), (24, 4, 5), (18, 2, 6), (22, 3, 4)])
def test_hochster_matches_the_crosscut_oracle_on_sparse_uniform_inputs(n, k, m):
    # m distinct k-sets of n vertices, seeded: few edges keep the crosscut cheap at any n
    edges = random.Random(1).sample(list(combinations(range(n), k)), m)
    h = Hypergraph.from_masks(tuple(f"v{v}" for v in range(n)), [sum(1 << v for v in e) for e in edges])
    got = {(i, verts): b for i, verts, b in hochster_betti(h, 24).multigraded_entries()}
    assert got == oracles.crosscut_betti(h)


def test_tables_keep_the_taylor_bound_on_the_corpus(corpus):
    # each degree of each B on its own: the table is at most the Taylor complex less
    # its trivial pieces, which the signed sum mu(B) checked by the builder cannot see
    for _, h in corpus:
        got = {(i, verts): b for i, verts, b in hochster_betti(h).multigraded_entries()}
        assert oracles.taylor_violations(h, got) == [], h


@settings(max_examples=40, deadline=None)
@given(hypergraphs())
def test_tables_keep_the_taylor_bound(h):
    got = {(i, verts): b for i, verts, b in hochster_betti(h).multigraded_entries()}
    assert oracles.taylor_violations(h, got) == []


def test_restriction_betti_gives_an_uncovered_vertex_no_entries():
    # no edge covers vertex 1, so the complex on {1} is a cone
    assert restriction_betti((), [0b10]) == {(0, 0): 1}


@settings(max_examples=30, deadline=None)
@given(hypergraphs(max_n=5, max_m=5), st.lists(st.integers(0, 31), max_size=12))
def test_restriction_betti_on_any_subsets_matches_naive(h, raw):
    # any B, not only the unions of edges that hochster_betti walks
    bmasks = sorted({b & h.full_mask for b in raw})
    wanted = {h.labels_of(b) for b in bmasks}
    expected = {key: b for key, b in oracles.naive_betti_table(h).items() if key[0] == 0 or key[1] in wanted}
    got = restriction_betti(h.edges, bmasks)
    assert {(i, h.labels_of(bmask)): b for (i, bmask), b in got.items()} == expected


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=6, max_m=6))
def test_independent_supports_carry_nothing(h):
    table = hochster_betti(h)
    for (i, bmask), b in table.multigraded.items():
        if i == 0:
            continue
        assert any(e & ~bmask == 0 for e in h.edges)


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


def test_multigraded_entries_builds_each_entry_when_drawn(monkeypatch):
    # drawing C14's first entry builds one label tuple, not one per entry of the table
    table = hochster_betti(cycle_graph(14))
    built = []
    mask_indices = homology.mask_indices
    monkeypatch.setattr(homology, "mask_indices", lambda mask: built.append(mask) or mask_indices(mask))
    entries = table.multigraded_entries()
    assert next(entries) == (0, (), 1)
    assert len(built) == 1
    assert len(list(entries)) == len(table.multigraded) - 1 and len(built) == len(table.multigraded)


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=6, max_m=6))
def test_alternating_sum_identity(h):
    table, kpoly = hochster_betti(h), SRInvariants(h).k_polynomial
    assert verify_betti_alternating_sum(table, kpoly)
    assert not verify_betti_alternating_sum(table, BiPoly({**kpoly.terms, (h.n + 1, 0): 1}))


def _assert_signed_sums_are_mu(h: Hypergraph, limit: int = DEFAULT_HOMOLOGY_LIMIT) -> None:
    """Per B, sum_i (-1)^i b[i, B] equals the Taylor complex's mu(B), and
    no entry lies outside the union closure."""
    mu = oracles.signed_union_closure(h)
    sums: dict[frozenset[str], int] = {}
    for (i, bmask), b in hochster_betti(h, limit).multigraded.items():
        key = frozenset(h.labels_of(bmask))
        sums[key] = sums.get(key, 0) + (-b if i & 1 else b)
    assert set(sums) <= set(mu)
    assert {key: sums.get(key, 0) for key in mu} == mu


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=7, max_m=7))
def test_signed_sums_are_mu(h):
    _assert_signed_sums_are_mu(h)


def _assert_closure_is_signed(h: Hypergraph) -> None:
    """The table builder's closure pass is the oracle's mu, keyed by
    labels, and its values sum to (1 - 1)^m."""
    mu = _edge_union_closure(h.edges)
    assert {frozenset(h.labels_of(bmask)): c for bmask, c in mu.items()} == oracles.signed_union_closure(h)
    assert sum(mu.values()) == (1 if h.m == 0 else 0)


def test_union_closure_is_signed_on_the_corpus(corpus):
    for _, h in corpus:
        _assert_closure_is_signed(h)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_union_closure_is_signed_on_the_strategy(h):
    _assert_closure_is_signed(h)


def _seeded(n: int, size: int, m: int, seed: int) -> Hypergraph:
    pool = [sum(1 << v for v in c) for c in combinations(range(n), size)]
    return Hypergraph.from_masks(tuple(f"v{k}" for k in range(n)), random.Random(seed).sample(pool, m))


# n = 16 is out of the naive oracle's reach; the 3-uniform seeds keep
# pieces that no fold shrinks, so the rank path runs there
@pytest.mark.parametrize("size, m, seed", [(2, 16, 0), (2, 16, 1), (3, 10, 0), (3, 10, 1)])
def test_signed_sums_are_mu_at_16(size, m, seed):
    _assert_signed_sums_are_mu(_seeded(16, size, m, seed), 16)


def _assert_table_of_disjoint_union_is_the_convolution(a: Hypergraph, b: Hypergraph) -> None:
    # the resolution over disjoint variables is the tensor product, so
    # b[i, B1 + B2] = sum over i1 + i2 = i of b_a[i1, B1] b_b[i2, B2]
    expected: dict[tuple[int, int], int] = {}
    for (i, x), p in hochster_betti(a).multigraded.items():
        for (j, y), q in hochster_betti(b).multigraded.items():
            key = (i + j, x | y << a.n)
            expected[key] = expected.get(key, 0) + p * q
    assert hochster_betti(oracles.disjoint_union(a, b)).multigraded == expected


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=4, max_m=4), hypergraphs(max_n=4, max_m=4))
def test_table_of_disjoint_union_is_the_convolution(a, b):
    relabeled = validate([f"r{lbl}" for lbl in b.labels], [[f"r{lbl}" for lbl in e] for e in b.edge_label_sets()])
    _assert_table_of_disjoint_union_is_the_convolution(a, relabeled)


def test_table_of_path5_and_cycle6_is_the_convolution():
    cycle = cycle_graph(6)
    _assert_table_of_disjoint_union_is_the_convolution(
        path_graph(5), Hypergraph.from_masks(tuple(f"c{lbl}" for lbl in cycle.labels), cycle.edges)
    )


class TestDerivedInvariants:
    def test_k3(self, k3):
        assert pd_reg_depth(hochster_betti(k3)) == (2, 1, 1)

    def test_edgeless(self):
        for n in (1, 3, 5):
            h = validate([f"v{k}" for k in range(n)], [])
            assert pd_reg_depth(hochster_betti(h)) == (0, 0, n)

    def test_single_edge(self):
        h = validate(["a", "b"], [["a", "b"]])
        assert pd_reg_depth(hochster_betti(h)) == (1, 1, 1)

    def test_complete_intersection(self):
        h = validate(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])
        table = hochster_betti(h)
        assert table.graded == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
        assert pd_reg_depth(table) == (2, 2, 2)


def _assert_witnessed_bounds(h: Hypergraph, homology_limit: int = DEFAULT_HOMOLOGY_LIMIT) -> None:
    # pd >= n - |M| and depth <= |M| for a maximal independent set M,
    # reg >= sum (|e| - 1) over an induced matching N, and deg K(t) <= pd + reg,
    # as each term of K(t) comes from a table entry. The collage upper bound
    # on reg is left out: its hypotheses are not checked here
    inv = SRInvariants(h, homology_limit=homology_limit)
    pd, reg, depth = pd_reg_depth(inv.betti)
    edges = [frozenset(e) for e in h.edge_label_sets()]
    independent = oracles.greedy_maximal_independent_set(h)
    assert not any(e <= independent for e in edges)
    assert all(any(e <= independent | {v} for e in edges) for v in set(h.labels) - independent)
    matching = oracles.greedy_induced_matching(h)
    union = frozenset().union(*matching)
    assert len(union) == sum(map(len, matching)) and all(e in matching for e in edges if e <= union)
    assert pd >= h.n - len(independent) and depth <= len(independent), h
    assert reg >= sum(len(e) - 1 for e in matching), h
    assert max(i for i, _ in inv.k_polynomial.terms) <= pd + reg, h


def test_witnessed_bounds_hold_on_the_corpus(corpus):
    for _, h in corpus:
        _assert_witnessed_bounds(h)


@settings(max_examples=40, deadline=None)
@given(hypergraphs())
def test_witnessed_bounds_hold(h):
    _assert_witnessed_bounds(h)


def test_witnessed_bounds_hold_on_the_engine_inputs():
    # the engine goldens' inputs with n <= 16 at homology limit 16, less tri-15-15 (its
    # table takes 0.3 s), and less K8 and tri-K9, whose K(t) needs an edge sweep over
    # the enumeration limit
    checked = []
    for path in sorted(ENGINE_INPUTS.glob("*.json")):
        h = load_hypergraph(str(path))
        if h.n <= 16 and h.m <= DEFAULT_LIMIT and path.stem != "tri-15-15":
            _assert_witnessed_bounds(h, 16)
            checked.append(path.stem)
    assert len(checked) == 10


def test_witnessed_bounds_hold_on_the_closed_forms():
    # the families whose tables test_closed_forms pins: K1-K7 (K8's K(t)
    # needs an edge sweep over the m limit), stars with 0-12 leaves, and
    # paths and cycles up to 13 vertices and at 16
    closed_forms = (
        [complete_graph(n) for n in range(1, 8)]
        + [star(m) for m in range(13)]
        + [path_graph(n) for n in [*range(1, 14), 16]]
        + [cycle_graph(n) for n in [*range(3, 14), 16]]
    )
    assert len(closed_forms) == 46
    for h in closed_forms:
        _assert_witnessed_bounds(h, 16)


REPORT_ARGS = build_parser().parse_args(["report", "--input", "-"])


def recovery(h: Hypergraph) -> dict:
    return _report_for(h, REPORT_ARGS)["antidiagonal_recovery"]


class TestAntidiagonalRecovery:
    def test_k3_applicable(self, k3):
        assert recovery(k3) == {"applicable": True, "entries": [[2, 3], [3, 2]]}

    def test_edgeless_empty_recovery(self, edgeless3):
        assert recovery(edgeless3) == {"applicable": True, "entries": []}

    def test_wheel_not_applicable(self):
        # two nonzero entries share a column: (3, 5) and (4, 5)
        assert recovery(wheel(5)) == {"applicable": False, "violating_degree": 5}
        assert betti_columns(hochster_betti(wheel(5)))[5] == {3: 1, 4: 5}

    def test_recovered_values_match_table(self, corpus):
        for _, h in corpus[:80]:
            if h.n > 6:
                continue
            rec = recovery(h)
            if not rec["applicable"]:
                continue
            table = hochster_betti(h)
            for j, b in rec["entries"]:
                assert any(jj == j and bb == b for (_, jj), bb in table.graded.items())


class TestBettiColumns:
    def test_complete_tables_pass(self, k3):
        assert betti_columns(hochster_betti(k3)) == {0: {0: 1}, 2: {1: 3}, 3: {2: 2}}
        columns = betti_columns(hochster_betti(wheel(5)))
        assert columns[6] == {4: 1, 5: 1}

    @pytest.mark.parametrize(
        "change",
        [
            {(2, 0b111): 3},  # the single entry of column 3 is off by one: K_3 = 2
            {(1, 0b001): 1},  # an entry in column 1, where K_1 = 0
            {(2, 0b111): 0},  # column 3 emptied, where K_3 = 2
        ],
    )
    def test_a_disagreeing_column_is_an_internal_mismatch(self, k3, change, monkeypatch):
        # betti_columns only groups: the table builder checks every B against mu(B)
        table = hochster_betti(k3)
        multigraded = {key: b for key, b in {**table.multigraded, **change}.items() if b}
        monkeypatch.setattr(homology, "restriction_betti", lambda edges, bmasks: multigraded)
        with pytest.raises(InternalMismatch, match="signed sum"):
            hochster_betti(k3)

    def test_report_refuses_a_crowded_column_that_disagrees(self, tmp_path, capsys, monkeypatch):
        # column 5 of the wheel holds b[3, 5] and b[4, 5]; a change to one of them
        # printed "4.3": false before every printed table was checked
        real = homology.restriction_betti

        def bumped(edges, bmasks):
            table = real(edges, bmasks)
            key = min(key for key in table if key[0] == 3 and key[1].bit_count() == 5)
            return {**table, key: table[key] + 1}

        path = tmp_path / "wheel5.json"
        path.write_text(dump_hypergraph_json(wheel(5)))
        monkeypatch.setattr(homology, "restriction_betti", bumped)
        assert main(["report", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("internal consistency failure: Betti entries at B = {")
        assert "have signed sum" in err and "but the Taylor complex gives mu(B) = " in err


def _assert_dual_route_gives(h: Hypergraph, table: BettiTable) -> None:
    engine = {(i, labels): b for i, labels, b in table.multigraded_entries()}
    assert oracles.dual_betti(h, lambda rows: exact_rank(_sparse(rows))) == engine, h


class TestAlexanderDuality:
    """Ind(tr H) is the Alexander dual of Ind(H), so the table can be read
    from the links of a complex on another hypergraph, and its pd and
    Cohen-Macaulayness from the transversal's regularity and linearity.
    The dual route shares only exact_rank with the engine."""

    @pytest.fixture(scope="class")
    def duals(self, corpus) -> list[tuple[Hypergraph, Hypergraph, BettiTable, BettiTable]]:
        """(H, tr H, and their tables) for every member with edges and RP^2."""
        out = []
        for h in [h for _, h in corpus if h.m] + [_rp2()]:
            tr = oracles.transversal(h)
            out.append((h, tr, hochster_betti(h), hochster_betti(tr)))
        return out

    def test_dual_hochster_formula_gives_the_whole_table(self, duals):
        for h, _, table, _ in duals:
            _assert_dual_route_gives(h, table)

    @settings(max_examples=40, deadline=None)
    @given(hypergraphs().filter(lambda h: h.m))
    def test_dual_hochster_formula_on_the_strategy(self, h):
        _assert_dual_route_gives(h, hochster_betti(h))

    # 2^n links per input: n = 11 already takes about 0.4 s
    @pytest.mark.parametrize("n, m, seed", [(8, 8, 0), (8, 10, 1), (9, 9, 2), (9, 12, 3), (10, 10, 4)])
    def test_dual_hochster_formula_on_random_3_uniform(self, n, m, seed):
        h = _seeded(n, 3, m, seed)
        _assert_dual_route_gives(h, hochster_betti(h))

    def test_transversal_is_an_involution(self, duals):
        for h, tr, _, _ in duals:
            assert oracles.transversal(tr) == h

    def test_terai_pd_is_the_transversal_regularity_plus_one(self, duals):
        for h, _, table, dual in duals:
            assert pd_reg_depth(table)[0] == pd_reg_depth(dual)[1] + 1, h

    def test_eagon_reiner_cohen_macaulay_exactly_when_the_transversal_is_linear(self, duals):
        cohen_macaulay = []
        for h, _, table, dual in duals:
            cohen_macaulay.append(pd_reg_depth(table)[2] == len(oracles.naive_independent_sizes(h)) - 1)
            # linear: every entry of the transversal's ideal lies on one diagonal j - i
            assert cohen_macaulay[-1] == (len({j - i for i, j in dual.graded if i}) == 1), h
        assert 0 < sum(cohen_macaulay) < len(duals)
