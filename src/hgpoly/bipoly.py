"""Exact sparse bivariate and dense univariate polynomial arithmetic.

A BiPoly is a map from exponent pairs ``(i, j)`` (the x- and y-degrees)
to nonzero Python integers, so all arithmetic is exact at any size.
The zero polynomial is the empty map.  A UniPoly is a dense coefficient
tuple indexed by degree with trailing zeros trimmed; the zero polynomial
is the empty tuple.

Besides ring arithmetic this module houses the two binomial-expansion
transforms between the vertex-subset and edge-subset enumerating
polynomials of a hypergraph on n vertices:

    to_edge_form(P, n)    expands  sum_ij c_ij x^i (1-x)^(n-i) (1+y)^j
    to_vertex_form(S, n)  expands  sum_ij c_ij x^i (1+x)^(n-i) (y-1)^j

Both are implemented term by term with exact binomial coefficients, so
no rational functions ever appear and the two maps are exact mutual
inverses on polynomials of x-degree at most n.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from math import comb

from .errors import DegreeExceedsN


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

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, i: int, j: int, coeff: int = 1) -> "BiPoly":
        return cls({(i, j): coeff})

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

    def deg_x(self) -> int:
        """Largest x-exponent, or -1 for the zero polynomial."""
        return max((i for i, _ in self._terms), default=-1)

    def deg_y(self) -> int:
        return max((j for _, j in self._terms), default=-1)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return BiPoly(out)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) - c
        return BiPoly(out)

    def __neg__(self) -> "BiPoly":
        return BiPoly({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, 0) + c1 * c2
        return BiPoly(out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: int) -> "BiPoly":
        if c == 0:
            return BiPoly()
        return BiPoly({e: c * v for e, v in self._terms.items()})

    def partial_x(self) -> "BiPoly":
        """Formal partial derivative in x."""
        return BiPoly({(i - 1, j): i * c for (i, j), c in self._terms.items() if i > 0})

    def eval_y(self, c: int) -> "UniPoly":
        """Substitute y = c and collect in x."""
        out: dict[int, int] = {}
        for (i, j), v in self._terms.items():
            out[i] = out.get(i, 0) + v * c**j
        if not out:
            return UniPoly()
        coeffs = [0] * (max(out) + 1)
        for i, v in out.items():
            coeffs[i] = v
        return UniPoly(coeffs)

    def to_text(self, x: str = "x", y: str = "y") -> str:
        """Render with terms sorted by (i, j) ascending, e.g.
        ``1 + 3*x^2*y + 3*x^3*y^2 + x^3*y^3``."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for (i, j), c in self.iter_sorted():
            mono = _monomial_text(c, ((x, i), (y, j)))
            if not parts:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"BiPoly({self.to_text()})"


class UniPoly:
    """Dense univariate polynomial over the integers; index = degree.
    Trailing zeros are trimmed and the zero polynomial is empty."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, coeff: int = 1) -> "UniPoly":
        if k < 0:
            raise ValueError("negative degree")
        return cls((0,) * k + (coeff,))

    @classmethod
    def one_minus_t(cls) -> "UniPoly":
        return cls((1, -1))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def coeff(self, k: int) -> int:
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else 0

    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return UniPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return UniPoly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPoly([c * other for c in self._coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for a, ca in enumerate(self._coeffs):
            if ca:
                for b, cb in enumerate(other._coeffs):
                    out[a + b] += ca * cb
        return UniPoly(out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise ValueError("negative power")
        result = UniPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * value + c
        return acc

    def to_text(self, var: str = "t") -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self._coeffs):
            if not c:
                continue
            mono = _monomial_text(c, ((var, k),))
            if not parts:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self.to_text()})"


def _monomial_text(coeff: int, vars_and_exps: tuple[tuple[str, int], ...]) -> str:
    """Unsigned monomial text; the caller handles the sign."""
    c = abs(coeff)
    factors = []
    for var, e in vars_and_exps:
        if e == 1:
            factors.append(var)
        elif e > 1:
            factors.append(f"{var}^{e}")
    if not factors:
        return str(c)
    if c != 1:
        factors.insert(0, str(c))
    return "*".join(factors)


def to_edge_form(p: BiPoly, n: int) -> BiPoly:
    """Transform the vertex-subset polynomial of an n-vertex hypergraph
    into the edge-subset polynomial.

    Each term c*x^i*y^j contributes c * x^i (1-x)^(n-i) (1+y)^j, expanded
    binomially, so the result is an exact polynomial identity.

    Raises DegreeExceedsN if the x-degree of p exceeds n.
    """
    _check_deg(p, n)
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in p._terms.items():
        for a in range(n - i + 1):
            ca = c * comb(n - i, a) * (-1 if a & 1 else 1)
            for b in range(j + 1):
                e = (i + a, b)
                out[e] = out.get(e, 0) + ca * comb(j, b)
    return BiPoly(out)


def to_vertex_form(s: BiPoly, n: int) -> BiPoly:
    """Inverse of :func:`to_edge_form`: each term c*x^i*y^j contributes
    c * x^i (1+x)^(n-i) (y-1)^j expanded binomially.

    Raises DegreeExceedsN if the x-degree of s exceeds n.
    """
    _check_deg(s, n)
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in s._terms.items():
        for a in range(n - i + 1):
            ca = c * comb(n - i, a)
            for b in range(j + 1):
                sign = -1 if (j - b) & 1 else 1
                e = (i + a, b)
                out[e] = out.get(e, 0) + ca * comb(j, b) * sign
    return BiPoly(out)


def _check_deg(p: BiPoly, n: int) -> None:
    if n < 0:
        raise DegreeExceedsN(f"vertex count n={n} is negative")
    d = p.deg_x()
    if d > n:
        raise DegreeExceedsN(f"polynomial has x-degree {d}, which exceeds n={n}")


def expand_series(num: UniPoly, denom_power: int, k_max: int) -> list[int]:
    """First k_max+1 coefficients of num(t) / (1-t)^denom_power as an
    exact integer power series (repeated prefix sums)."""
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    if denom_power < 0:
        raise ValueError(f"denominator power must be nonnegative, got {denom_power}")
    out = [num.coeff(k) for k in range(k_max + 1)]
    for _ in range(denom_power):
        acc = 0
        for k in range(k_max + 1):
            acc += out[k]
            out[k] = acc
    return out


def divide_by_one_minus_t(p: UniPoly) -> UniPoly:
    """Exact quotient p(t) / (1-t). Raises ValueError when (1-t) does
    not divide p, i.e. when p(1) != 0."""
    if p.is_zero():
        return UniPoly()
    if p(1) != 0:
        raise ValueError("(1-t) does not divide the polynomial: value at t=1 is nonzero")
    # From (1-t) q = p: q_k = p_k + q_{k-1}; the top prefix sum is p(1) = 0.
    q = []
    acc = 0
    for k in range(p.degree()):
        acc += p.coeff(k)
        q.append(acc)
    return UniPoly(q)
