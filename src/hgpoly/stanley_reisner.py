"""Stanley-Reisner invariants of the independence complex, bundled per
hypergraph.

Everything here is derived from the two direct subset sweeps: the
vertex polynomial P, whose value at y = 0 gives the face counts, and
the edge polynomial S, whose value at y = -1 is the numerator of the
Hilbert series of the quotient by the edge ideal over n variables.
The h-vector is the reduced numerator: K(t) = h(t) (1-t)^(n-d) with d
the Krull dimension, so the series in lowest terms is h(t) / (1-t)^d
(identity 3.2 checks the expansion this rests on). ``SRInvariants``
computes each quantity on first use and keeps it, so a consumer that
reads the same bundle never sweeps, cuts the cards, checks identity 3.2
or builds a Betti table twice; ``check`` raises, with no work, the size
refusal that reading given quantities in order would. The Hilbert
function raises InternalMismatch, which only a bug can cause, unless 3.2
holds and it equals the face-count sums; f raises it unless its last
entry is nonzero; h raises it unless it transforms back to f; the Betti
table is checked where ``hochster_betti`` builds it.
``reconstruct.DeckInvariants`` is the bundle of a deck's parent with
P, S and the Betti table read from its cards, so ``reconstruct`` views
a bundle too.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from math import comb

from .bipoly import BiPoly, expand_series, substitute
from .enumeration import DEFAULT_LIMIT, edge_induced_poly, vertex_induced_poly
from .errors import InternalMismatch, check_limit
from .homology import DEFAULT_HOMOLOGY_LIMIT, BettiTable, hochster_betti
from .hypergraph import Deck, Frozen, Hypergraph


class SRInvariants(Frozen):
    """Every invariant of one hypergraph, each computed on first use
    under the size limits the bundle carries, all in-process: the vertex
    polynomial P and the edge polynomial S (one direct sweep each, never
    derived from one another), the face vector f = P(x, 0) with a leading
    1 for the empty face, its binomial transform h, the Krull dimension,
    the multiplicity, the Hilbert series numerator K(t) = S(t, -1), the
    outcome of identity 3.2 (K(t) against its expansion from f), the n
    vertex-deleted cards (its Deck's), and the multigraded Betti table."""

    def __init__(self, hypergraph: Hypergraph, limit: int = DEFAULT_LIMIT, homology_limit: int = DEFAULT_HOMOLOGY_LIMIT):
        self._freeze(hypergraph=hypergraph, limit=limit, homology_limit=homology_limit)

    @property
    def n(self) -> int:
        return self.hypergraph.n

    _swept = property(lambda self: (self.hypergraph,))  # the hypergraphs whose sweeps give P and S

    def check(self, reads: tuple[str, ...]) -> None:
        """Raise, before any sweep or table, the LimitExceeded that reading
        these quantities in this order would: "P" charges the n, and "S"
        the m, of each hypergraph it sweeps to the enumeration limit, in
        sweep order, and "betti" charges n to the homology limit."""
        for read in reads:
            if read == "betti":
                check_limit("n", self.n, "homology", self.homology_limit)
            else:
                for h in self._swept:
                    check_limit(*{"P": ("n", h.n), "S": ("m", h.m)}[read], "enumeration", self.limit)

    @cached_property
    def P(self) -> BiPoly:
        return vertex_induced_poly(self.hypergraph, self.limit)

    @cached_property
    def S(self) -> BiPoly:
        return edge_induced_poly(self.hypergraph, self.limit)

    @cached_property
    def f(self) -> tuple[int, ...]:
        f = self.P.eval_y(0).coefficients()
        # the last entry counts the largest independent sets, so it is at least 1 (the empty set at n = 0)
        if not f or not f[-1]:
            raise InternalMismatch(f"f = {f} does not end in a count of largest independent sets")
        return f

    @cached_property
    def h(self) -> tuple[int, ...]:
        h, d = h_vector(self.f), self.krull_dim
        # InternalMismatch unless f[j] = sum_(k <= j) C(d-k, j-k) h[k] for j = 0..d
        if [sum(comb(d - k, j - k) * h[k] for k in range(j + 1)) for j in range(d + 1)] != list(self.f):
            raise InternalMismatch(f"h = {h} does not transform back to f = {self.f}")
        return h

    @property
    def krull_dim(self) -> int:
        """Largest independent-set size."""
        return len(self.f) - 1

    @property
    def multiplicity(self) -> int:
        """Number of independent sets of maximum size."""
        return self.f[-1]

    @cached_property
    def k_polynomial(self) -> BiPoly:
        return self.S.eval_y(-1)

    @cached_property
    def series_numerator_holds(self) -> bool:
        """Identity 3.2: K(t) = S(t, -1) equals sum_i f[i] t^i (1-t)^(n-i),
        each power of (1-t) expanded by the binomial theorem; the term
        maps are compared, each side having dropped its own zeros."""
        return substitute({(i, 0): fi for i, fi in enumerate(self.f)}, self.n, -1, 0) == self.k_polynomial.terms

    @cached_property
    def cards(self) -> tuple[Hypergraph, ...]:
        return Deck(self.hypergraph).cards

    @cached_property
    def betti(self) -> BettiTable:
        return hochster_betti(self.hypergraph, self.homology_limit)

    def hilbert_function(self, k_max: int) -> list[int]:
        """Graded dimensions dim R_k for k = 0..k_max, where R is the
        quotient of the n-variable polynomial ring by the edge ideal: K(t)
        expanded over (1-t)^n. Raises InternalMismatch unless identity 3.2
        holds and every value is its face-count sum, 1 at k = 0, else
        sum_i f[i] * C(k-1, i-1), summed with no step of the expansion.
        """
        values = expand_series(self.k_polynomial, self.n, k_max)
        if not self.series_numerator_holds:
            raise InternalMismatch(f"identity 3.2 fails: K(t) = {self.k_polynomial.to_text('t')} is not the expansion of f = {self.f}")
        # sum_k dim R_(k+1) t^k = sum_i f[i] t^(i-1) / (1-t)^i, by Horner: per face size, times t, then a running sum
        series = [0] * k_max
        for fi in reversed(self.f[1:]):
            series = list(accumulate([fi, *series[:-1]]))
        if values != [1, *series][: k_max + 1]:
            raise InternalMismatch(f"the expansion of K(t) differs from the face-count sums of f = {self.f}")
        return values


def f_vector(h: Hypergraph, limit: int = DEFAULT_LIMIT) -> tuple[int, ...]:
    """Face counts of the independence complex by size, starting with
    the empty set: entry l is the number of independent l-subsets."""
    return SRInvariants(h, limit).f


def h_vector(f: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Binomial transform of the face vector of a (d-1)-dimensional
    complex, d = len(f) - 1: the coefficients of sum_i f[i] t^i (1-t)^(d-i)."""
    d = len(f) - 1
    out = substitute({(i, 0): fi for i, fi in enumerate(f)}, d, -1, 0)
    return tuple(out.get((k, 0), 0) for k in range(d + 1))


def hilbert_function(h: Hypergraph, k_max: int, limit: int = DEFAULT_LIMIT) -> list[int]:
    """See SRInvariants.hilbert_function."""
    return SRInvariants(h, limit).hilbert_function(k_max)
