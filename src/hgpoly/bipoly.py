"""Exact sparse bivariate integer polynomials.

A BiPoly is a map from exponent pairs ``(i, j)`` (the x- and y-degrees)
to nonzero Python integers, so every coefficient is exact at any size.
The zero polynomial is the empty map.  A univariate result, such as
K(t) = S(t, -1) or the face counts f = P(t, 0), is a BiPoly in x alone
(every j = 0), printed densely by :meth:`BiPoly.coefficients` and as
text by ``to_text("t")``.  The engine builds, transforms, evaluates and
renders these polynomials but never multiplies or adds them, so there
is no ring arithmetic.

Six exact expansions share one binomial substitution, :func:`substitute`
with (a, b) in {-1, 0, 1}^2, so no rational function ever appears:

    to_edge_form(P, n)     (-1, +1)   P -> S, and identity 2.1 on the engine's P
    to_vertex_form(S, n)   (+1, -1)   S -> P, exact inverse at x-degree <= n
    identity 2.3           (0, +1) on P against (+1, 0) on S
    identity 3.2           (-1, 0) on f against the terms of K(t)
    h_vector(f)            (-1, 0) at d = len(f) - 1

The two transforms refuse a caller's polynomial that is too high for n
(InputError); in ``substitute``, which sees only the engine's own term
maps, such a term is an InternalMismatch.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from functools import cache
from math import comb

from .errors import InputError, InternalMismatch


class BiPoly:
    """Sparse bivariate polynomial with arbitrary-precision integer
    coefficients. Immutable; equality is term-set equality."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        store: dict[tuple[int, int], int] = {}
        for (i, j), c in items:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term ({i}, {j})")
            if c:
                store[(i, j)] = store.get((i, j), 0) + c
        self._terms = {e: c for e, c in store.items() if c}

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        """Copy of the term map (exponent pair -> coefficient)."""
        return dict(self._terms)

    def coeff(self, i: int, j: int) -> int:
        return self._terms.get((i, j), 0)

    def iter_sorted(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Terms in ascending (i, j) order."""
        for e in sorted(self._terms):
            yield e, self._terms[e]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def eval_y(self, c: int) -> BiPoly:
        """Substitute y = c and collect in x: a BiPoly in x alone."""
        return BiPoly(((i, 0), v * c**j) for (i, j), v in self._terms.items())

    def coefficients(self) -> tuple[int, ...]:
        """The dense coefficients of x^0 y^0 up to the highest nonzero
        x^i y^0, index = x-degree; () for the zero polynomial."""
        top = max((i for i, j in self._terms if j == 0), default=-1)
        return tuple(self.coeff(i, 0) for i in range(top + 1))

    def to_text(self, x: str = "x") -> str:
        """Render with terms sorted by (i, j) ascending, e.g.
        ``1 + 3*x^2*y + 3*x^3*y^2 + x^3*y^3`` or ``1 - 3*t^2``; x names
        the first variable, and the zero polynomial is "0"."""
        parts: list[str] = []
        for (i, j), c in self.iter_sorted():
            factors = [var if e == 1 else f"{var}^{e}" for var, e in ((x, i), ("y", j)) if e]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            mono = "*".join(factors)
            if parts:
                parts.append(f"- {mono}" if c < 0 else f"+ {mono}")
            else:
                parts.append(f"-{mono}" if c < 0 else mono)
        return " ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"BiPoly({self.to_text()})"


def substitute(terms: Mapping[tuple[int, int], int], n: int, a: int, b: int) -> dict[tuple[int, int], int]:
    """Expand sum c * x^i (1+a*x)^(n-i) (y+b)^j over the terms c*x^i*y^j,
    for a and b in {-1, 0, 1}; the result is a term map without zeros.

    Raises InternalMismatch for a term with i > n when a != 0, whose
    negative power of (1+a*x) is no polynomial: every caller hands it
    term maps the engine built, ``to_edge_form`` and ``to_vertex_form``
    after checking a caller's polynomial, so such a term is a bug.
    """
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in terms.items():
        if a and i > n:
            raise InternalMismatch(f"term x^{i}*y^{j} has x-degree {i}, which exceeds n={n}")
        ys = _binomial_row(j, b)
        for l, cx in _binomial_row(n - i, a):
            cx *= c
            for k, cy in ys:
                e = (i + l, j - k)
                out[e] = out.get(e, 0) + cx * cy
    return {e: c for e, c in out.items() if c}


@cache
def _binomial_row(k: int, a: int) -> tuple[tuple[int, int], ...]:
    """The nonzero terms (l, C(k, l) a^l) of (1 + a*t)^k."""
    return tuple((l, comb(k, l) * a**l) for l in range(k + 1)) if a else ((0, 1),)


def _checked_terms(p: BiPoly, n: int) -> dict[tuple[int, int], int]:
    """p's term map, once n and p are checked as a caller's values."""
    if n < 0:
        raise InputError(f"vertex count n={n} is negative")
    for i, j in p._terms:
        if i > n:
            raise InputError(f"term x^{i}*y^{j} has x-degree {i}, which exceeds n={n}")
    return p._terms


def to_edge_form(p: BiPoly, n: int) -> BiPoly:
    """Transform the vertex-subset polynomial of an n-vertex hypergraph
    into the edge-subset polynomial: each term c*x^i*y^j contributes
    c * x^i (1-x)^(n-i) (1+y)^j, expanded binomially, so the result is
    an exact polynomial identity.

    Raises InputError if n < 0 or the x-degree of p exceeds n.
    """
    return BiPoly(substitute(_checked_terms(p, n), n, -1, 1))


def to_vertex_form(s: BiPoly, n: int) -> BiPoly:
    """Inverse of :func:`to_edge_form`: each term c*x^i*y^j contributes
    c * x^i (1+x)^(n-i) (y-1)^j expanded binomially.

    Raises InputError if n < 0 or the x-degree of s exceeds n.
    """
    return BiPoly(substitute(_checked_terms(s, n), n, 1, -1))


def expand_series(num: BiPoly, denom_power: int, k_max: int) -> list[int]:
    """First k_max+1 coefficients of num(t) / (1-t)^denom_power, for num
    in x alone, as an exact integer power series (repeated prefix sums)."""
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    if denom_power < 0:
        raise ValueError(f"denominator power must be nonnegative, got {denom_power}")
    out = [num.coeff(k, 0) for k in range(k_max + 1)]
    for _ in range(denom_power):
        acc = 0
        for k in range(k_max + 1):
            acc += out[k]
            out[k] = acc
    return out
