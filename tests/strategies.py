"""Hypothesis strategies shared across the property tests."""

from __future__ import annotations

import string

from hypothesis import strategies as st

from hgpoly.bipoly import BiPoly
from hgpoly.hypergraph import Hypergraph

coefficients = st.integers(min_value=-(10**12), max_value=10**12)


@st.composite
def bipolys(draw, max_deg_x: int = 6, max_deg_y: int = 6, max_terms: int = 8) -> BiPoly:
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        i = draw(st.integers(0, max_deg_x))
        j = draw(st.integers(0, max_deg_y))
        terms[(i, j)] = draw(coefficients)
    return BiPoly(terms)


@st.composite
def hypergraphs(draw, max_n: int = 6, max_m: int = 6) -> Hypergraph:
    n = draw(st.integers(0, max_n))
    labels = tuple(string.ascii_lowercase[:n])
    candidates = draw(
        st.lists(st.integers(1, max(1, (1 << n) - 1)), max_size=max_m * 3)
        if n
        else st.just([])
    )
    chosen: list[int] = []
    for cand in candidates:
        if len(chosen) == max_m:
            break
        if any(cand & ~e == 0 or e & ~cand == 0 for e in chosen):
            continue
        chosen.append(cand)
    return Hypergraph.from_masks(labels, chosen)


@st.composite
def reconstructible_hypergraphs(draw, max_n: int = 6, max_m: int = 6) -> Hypergraph:
    h = draw(
        hypergraphs(max_n=max_n, max_m=max_m).filter(
            lambda g: g.n >= 3
            and g.m >= 1
            and not (g.m == 1 and g.edges[0] == g.full_mask)
        )
    )
    return h
