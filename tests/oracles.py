"""Independent brute-force reference implementations.

Everything here deliberately avoids the library's bitmask and bit-sliced
sweep machinery: subsets are walked with itertools over label tuples, ranks
are computed with Fraction (or mod 2) Gaussian elimination, and the Betti
oracle loops over all 2^n vertex subsets instead of the edge-union closure.
The closed-form Betti tables at the end come from theorems, not from any
homology computation. Agreement between these and the production code is
what the property tests assert.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb

from hgpoly.hypergraph import Hypergraph, validate


def naive_vertex_poly(h: Hypergraph) -> dict[tuple[int, int], int]:
    """(|W|, #edges inside W) tallies via itertools.combinations."""
    edges = [set(e) for e in h.edge_label_sets()]
    counts: dict[tuple[int, int], int] = {}
    for size in range(h.n + 1):
        for combo in combinations(h.labels, size):
            w = set(combo)
            inside = sum(1 for e in edges if e <= w)
            key = (size, inside)
            counts[key] = counts.get(key, 0) + 1
    return counts


def naive_edge_poly(h: Hypergraph) -> dict[tuple[int, int], int]:
    """(|union of L|, |L|) tallies over all edge subsets."""
    edges = [set(e) for e in h.edge_label_sets()]
    counts: dict[tuple[int, int], int] = {}
    for size in range(h.m + 1):
        for combo in combinations(range(h.m), size):
            union: set[str] = set()
            for k in combo:
                union |= edges[k]
            key = (len(union), size)
            counts[key] = counts.get(key, 0) + 1
    return counts


def naive_independent_sizes(h: Hypergraph) -> list[int]:
    """Counts of independent sets by size, trailing zeros trimmed."""
    edges = [set(e) for e in h.edge_label_sets()]
    counts = [0] * (h.n + 1)
    for size in range(h.n + 1):
        for combo in combinations(h.labels, size):
            w = set(combo)
            if not any(e <= w for e in edges):
                counts[size] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def rank_over_rationals(rows: list[list[int]]) -> int:
    """Plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def rank_over_gf2(rows: list[list[int]]) -> int:
    """Plain Gaussian elimination mod 2 over lists of integers."""
    m = [[x % 2 for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                m[i] = [a ^ b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def naive_reduced_homology(faces: list[frozenset[str]], rank=rank_over_rationals) -> list[int]:
    """Reduced homology dimensions from label-set faces, degrees -1 up,
    using the given matrix rank (by default the Fraction rank above, so
    over the rationals). Void input gives []."""
    if not faces:
        return []
    by_dim: dict[int, list[frozenset[str]]] = {}
    for f in faces:
        by_dim.setdefault(len(f), []).append(f)
    top = max(by_dim)
    groups = [sorted(by_dim.get(k, []), key=sorted) for k in range(top + 1)]

    def boundary(upper: list[frozenset[str]], lower: list[frozenset[str]]) -> list[list[int]]:
        index = {f: i for i, f in enumerate(lower)}
        rows = [[0] * len(upper) for _ in lower]
        for col, f in enumerate(upper):
            for t, v in enumerate(sorted(f)):
                rows[index[f - {v}]][col] = (-1) ** t
        return rows

    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        if groups[k] and groups[k - 1]:
            ranks[k] = rank(boundary(groups[k], groups[k - 1]))
    return [len(groups[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1)]


def naive_independence_faces(h: Hypergraph, within: set[str] | None = None) -> list[frozenset[str]]:
    ground = sorted(within) if within is not None else list(h.labels)
    edges = [set(e) for e in h.edge_label_sets()]
    faces = []
    for size in range(len(ground) + 1):
        for combo in combinations(ground, size):
            w = set(combo)
            if not any(e <= w for e in edges):
                faces.append(frozenset(combo))
    return faces


def naive_betti_table(h: Hypergraph) -> dict[tuple[int, tuple[str, ...]], int]:
    """Multigraded table by looping over every vertex subset B."""
    table: dict[tuple[int, tuple[str, ...]], int] = {(0, ()): 1}
    for size in range(1, h.n + 1):
        for combo in combinations(h.labels, size):
            faces = naive_independence_faces(h, set(combo))
            dims = naive_reduced_homology(faces)
            for i in range(1, size + 1):
                deg = size - i - 1
                if 0 <= deg + 1 < len(dims) and dims[deg + 1]:
                    table[(i, tuple(combo))] = dims[deg + 1]
    return table


def transversal(h: Hypergraph) -> Hypergraph:
    """tr(H) on the same labels: its edges are the minimal vertex covers
    of H, the complements of the maximal independent sets. H needs an
    edge, or its one cover would be empty. tr(tr H) = H (Berge,
    Hypergraphs, 1989), and Ind(tr H) is the Alexander dual of Ind(H)."""
    faces = set(naive_independence_faces(h))
    maximal = [f for f in faces if not any(f | {v} in faces for v in h.labels if v not in f)]
    return validate(list(h.labels), [[v for v in h.labels if v not in f] for f in maximal])


def dual_betti(h: Hypergraph, rank=rank_over_rationals) -> dict[tuple[int, tuple[str, ...]], int]:
    """Multigraded table of R/I(H), keyed like naive_betti_table, by the
    dual form of Hochster's formula (Miller & Sturmfels, GTM 227, ch. 1
    and 5): b[i, B] = dim H~_(i-2)(lk_D(V - B)) for D = Ind(tr H), the
    link lk_D(s) being {f - s : f in D, s inside f} and void when s is
    not a face. It reads links of one complex on a different hypergraph,
    not restrictions of Ind(H), and ranks with the given rank."""
    dual = naive_independence_faces(transversal(h))
    faces = set(dual)
    table: dict[tuple[int, tuple[str, ...]], int] = {(0, ()): 1}
    for size in range(1, h.n + 1):
        for combo in combinations(h.labels, size):
            rest = frozenset(h.labels) - set(combo)
            if rest not in faces:
                continue
            dims = naive_reduced_homology([f - rest for f in dual if rest <= f], rank)
            for k, d in enumerate(dims):  # index k holds degree k - 1 = i - 2
                if d:
                    table[(k + 1, combo)] = d
    return table


def first_contained_pair(edges: list[tuple[int, ...]]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The pair an antichain check reports, by a pairwise loop over sets:
    in canonical edge order (sorted index tuples), the first edge lying
    inside another, and the first edge it lies inside."""
    order = sorted(edges)
    for a in order:
        for b in order:
            if a != b and set(a) <= set(b):
                return a, b
    return None


def disjoint_union(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    """a and b side by side, b's labels after a's, built from the label
    data alone; ``validate`` refuses label sets that overlap."""
    return validate(a.labels + b.labels, a.edge_label_sets() + b.edge_label_sets())


def convolve2d(a: dict[tuple[int, int], int], b: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """The convolution of two tables keyed (i, j), zero entries dropped.

    The parts of a disjoint union have their edge ideals in disjoint
    variables, so the minimal free resolution of the union's ideal is the
    tensor product of the parts' resolutions: homological and internal
    degrees add, and the graded Betti table of the union is this
    convolution of the parts' tables. A face of the union's independence
    complex is a face of each part, so the f-vectors (keyed (i, 0))
    convolve the same way."""
    out: dict[tuple[int, int], int] = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + x * y
    return {key: c for key, c in out.items() if c}


def signed_union_closure(h: Hypergraph) -> dict[frozenset[str], int]:
    """mu(B) = sum_i (-1)^i t_i[B], the signed count of the edge subsets
    whose union is B, read from taylor_counts and keyed by every B in the
    union closure (zeros kept), so it shares no loop with the table
    builder's closure pass.

    The Taylor complex of the edge ideal is a free resolution, graded by
    the unions of its generator subsets, so its Euler characteristic in
    degree B, mu(B), is the signed sum sum_i (-1)^i b[i, B] of every
    resolution, the minimal one included."""
    return {union: sum(-c if i & 1 else c for i, c in enumerate(row)) for union, row in taylor_counts(h).items()}


def taylor_counts(h: Hypergraph) -> dict[frozenset[str], list[int]]:
    """t[B][i], the number of i-edge subsets whose union is B, keyed by
    every B in the union closure, built in one pass over the edges: each
    edge either joins a subset or does not. Each row is copied before the
    edge extends it, since a union B | e can be B itself."""
    t: dict[frozenset[str], list[int]] = {frozenset(): [1]}
    for edge in h.edge_label_sets():
        for union, row in [(union, row[:]) for union, row in t.items()]:
            target = t.setdefault(union | frozenset(edge), [])
            target.extend([0] * (len(row) + 1 - len(target)))
            for i, c in enumerate(row):
                target[i + 1] += c
    return t


def taylor_violations(h: Hypergraph, table: dict[tuple[int, tuple[str, ...]], int]) -> list[tuple[str, ...]]:
    """The B (as sorted label tuples) where a multigraded table, keyed like
    naive_betti_table, breaks the Taylor complex's per-degree bound.

    The Taylor complex is a free resolution with t[B][i] generators in
    homological degree i and multidegree B, and the minimal resolution is
    a direct summand of it whose complement is a sum of trivial complexes
    R(-B) -> R(-B) (Peeva, Graded Syzygies, Section 7; Miller & Sturmfels,
    GTM 227). So at each B, with e_(-1) = 0, the number of trivial pieces
    e_i = (t_i - b_i) - e_(i-1) linking degrees i and i + 1 is at least 0,
    and the last one is 0. This bounds each degree on its own, where the
    signed sum mu(B) sees only the alternating total."""
    t = taylor_counts(h)
    b: dict[frozenset[str], dict[int, int]] = {}
    for (i, verts), value in table.items():
        b.setdefault(frozenset(verts), {})[i] = value
    bad = []
    for union in t.keys() | b.keys():
        row, betti = t.get(union, []), b.get(union, {})
        excess = [0]  # e_(-1)
        for i in range(max([len(row)] + [i + 1 for i in betti])):
            excess.append((row[i] if i < len(row) else 0) - betti.get(i, 0) - excess[-1])
        if min(excess) < 0 or excess[-1]:
            bad.append(tuple(v for v in h.labels if v in union))
    return sorted(bad)


def crosscut_betti(h: Hypergraph, rank=rank_over_rationals) -> dict[tuple[int, tuple[str, ...]], int]:
    """Multigraded table of R/I(H), keyed like naive_betti_table, by the
    crosscut theorem on the lcm lattice (Björner, Handbook of
    Combinatorics, 1995, Thm. 10.8): b[i, B] = dim H~_(i-2)(Gamma_B) for
    B in the union closure, where Gamma_B = {L inside E_B : union of L
    is not B} is a complex on the edges E_B inside B. It lives on edge
    subsets, not on vertex restrictions, and walks 2^|E_B| of them per B,
    so it is cheap only when m is small."""
    edges = [frozenset(e) for e in h.edge_label_sets()]
    closure = {frozenset()}
    for edge in edges:
        closure |= {union | edge for union in closure}
    table: dict[tuple[int, tuple[str, ...]], int] = {(0, ()): 1}
    for b in closure - {frozenset()}:
        inside = [k for k, e in enumerate(edges) if e <= b]
        faces = [
            frozenset(subset)
            for size in range(len(inside) + 1)
            for subset in combinations(inside, size)
            if frozenset().union(*(edges[k] for k in subset)) != b
        ]
        for k, d in enumerate(naive_reduced_homology(faces, rank)):  # index k holds degree k - 1 = i - 2
            if d:
                table[(k + 1, tuple(v for v in h.labels if v in b))] = d
    return table


# -- witnesses that bound pd, reg and depth ---------------------------------


def greedy_maximal_independent_set(h: Hypergraph, orders: int = 10) -> frozenset[str]:
    """The smallest of the maximal independent sets built greedily over
    the vertices in each of the seeded shuffles 0..orders-1: a vertex
    joins unless it would complete an edge. V - M is then a minimal
    vertex cover, whose prime is associated to the edge ideal, so
    depth <= |M| (Bruns & Herzog, Prop. 1.2.13) and, by
    Auslander-Buchsbaum, pd >= n - |M|."""
    edges = [frozenset(e) for e in h.edge_label_sets()]
    best = frozenset(h.labels)
    for seed in range(orders):
        order = list(h.labels)
        random.Random(seed).shuffle(order)
        chosen: frozenset[str] = frozenset()
        for v in order:
            if not any(e <= chosen | {v} for e in edges):
                chosen |= {v}
        best = min(best, chosen, key=len)
    return best


def greedy_induced_matching(h: Hypergraph, orders: int = 10) -> list[frozenset[str]]:
    """The induced matching N of largest sum_(e in N) (|e| - 1) built
    greedily over the edges in each of the seeded shuffles
    0..orders-1: an edge joins when it misses the union B of those
    chosen and no edge outside them lies inside B with it. Ind(H|B) is
    then the join of the spheres on the boundaries of N's edges, so
    Hochster's formula gives b[|N|, B] = 1 and reg >= sum (|e| - 1)
    (Katzman, JCTA 113, 2006; Ha & Van Tuyl, J. Algebraic Combin. 27,
    2008)."""
    edges = [frozenset(e) for e in h.edge_label_sets()]
    best: list[frozenset[str]] = []
    for seed in range(orders):
        order = edges[:]
        random.Random(seed).shuffle(order)
        chosen: list[frozenset[str]] = []
        for e in order:
            union = frozenset().union(e, *chosen)
            disjoint = len(union) == len(e) + sum(map(len, chosen))
            if disjoint and all(f == e or f in chosen for f in edges if f <= union):
                chosen.append(e)
        best = max(best, chosen, key=lambda matching: sum(len(e) - 1 for e in matching))
    return best


# -- closed-form Betti tables ------------------------------------------------


def complete_graph_graded(n: int) -> dict[tuple[int, int], int]:
    """Graded table of the edge ideal of K_n: b[i, i+1] = i * C(n, i+1)
    for i >= 1 (its resolution is linear), and b[0, 0] = 1."""
    table = {(0, 0): 1}
    for i in range(1, n):
        table[(i, i + 1)] = i * comb(n, i + 1)
    return table


def star_graded(m: int) -> dict[tuple[int, int], int]:
    """Graded table of the edge ideal of a star with m leaves:
    b[i, i+1] = C(m, i), and b[0, 0] = 1."""
    return {(0, 0): 1, **{(i, i + 1): comb(m, i) for i in range(1, m + 1)}}


def path_cycle_multigraded(n: int, cycle: bool) -> dict[tuple[int, int], int]:
    """Multigraded table, keyed (i, vertex bitmask), of the path or
    cycle on vertices 0..n-1 with edges {k, k+1} (mod n for a cycle).

    Kozlov (JCTA 1999): the independence complex of a path on l vertices
    is contractible when l = 1 mod 3 and otherwise a sphere of dimension
    ceil(l/3) - 1. A proper restriction B is a disjoint union of such
    paths (its runs), so its complex is a join: one run with l = 1 mod 3
    kills the entry, and otherwise b[|B| - sum ceil(l_j/3), B] = 1. The
    whole cycle is a wedge of two (k-1)-spheres for n = 3k, a
    (k-1)-sphere for n = 3k+1 and a k-sphere for n = 3k+2."""
    table = {}
    full = (1 << n) - 1
    for bmask in range(1 << n):
        size = bin(bmask).count("1")
        if cycle and bmask == full:
            k, r = divmod(n, 3)
            dim, mult = (k - 1, 2) if r == 0 else (k - 1, 1) if r == 1 else (k, 1)
            table[(size - dim - 1, bmask)] = mult
            continue
        # walk the runs from a vertex outside B, so no run wraps around
        start = next((v + 1 for v in range(n) if not bmask >> v & 1), 0) if cycle else 0
        runs, length = [], 0
        for step in range(n):
            if bmask >> ((start + step) % n) & 1:
                length += 1
            elif length:
                runs.append(length)
                length = 0
        if length:
            runs.append(length)
        if all(run % 3 != 1 for run in runs):
            table[(size - sum(-(-run // 3) for run in runs), bmask)] = 1
    return table


def parse_poly_text(text: str, x: str = "x") -> dict[tuple[int, int], int]:
    """The term map {(i, j): c} of a polynomial's text in x and y, read
    from the format alone: "0", or terms in ascending (i, j) order joined
    by " + " or " - " (the first may lead with "-"), each an unsigned
    coefficient and the factors x^i and y^j joined by "*". A coefficient
    of 1 beside a factor, a zero power and "^1" go unwritten. Raises
    ValueError on any other text."""
    if text == "0":
        return {}
    pieces = re.split(r" ([+-]) ", text)
    signs = ["-" if pieces[0].startswith("-") else "+"] + pieces[1::2]
    terms: dict[tuple[int, int], int] = {}
    for sign, term in zip(signs, [pieces[0].removeprefix("-")] + pieces[2::2]):
        factors, c = term.split("*"), 1
        if factors[0].isdigit():
            head = factors.pop(0)
            c = int(head)
            if head != str(c) or c == 0 or (c == 1 and factors):
                raise ValueError(f"coefficient of {term!r}")
        powers: dict[str, int] = {}
        allowed = (x, "y")
        for factor in factors:
            # x before y, each at most once, and a written power is 2 or more
            var, caret, e = factor.partition("^")
            if var not in allowed or (caret and not (e.isdigit() and e == str(int(e)) and int(e) > 1)):
                raise ValueError(f"factor {factor!r} of {term!r}")
            allowed = allowed[allowed.index(var) + 1 :]
            powers[var] = int(e) if caret else 1
        key = (powers.get(x, 0), powers.get("y", 0))
        if terms and key <= max(terms):
            raise ValueError(f"term {term!r} out of order")
        terms[key] = -c if sign == "-" else c
    return terms
