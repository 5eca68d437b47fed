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
reads the same bundle never sweeps or builds a Betti table twice.

The Hilbert function is computed along two independent routes and the
results are compared; a disagreement raises InternalMismatch because it
can only come from a bug.
"""

from __future__ import annotations

from functools import cached_property
from math import comb

from .bipoly import BiPoly, UniPoly, expand_series, substitute
from .enumeration import DEFAULT_LIMIT, edge_induced_poly, vertex_induced_poly
from .errors import InternalMismatch, LengthMismatch
from .homology import DEFAULT_HOMOLOGY_LIMIT, BettiTable, hochster_betti
from .hypergraph import Deck, Frozen, Hypergraph


class SRInvariants(Frozen):
    """Every invariant of one hypergraph, each computed on first use
    under the size limits the bundle carries, all in-process: the vertex
    polynomial P and the edge polynomial S (one direct sweep each, never
    derived from one another), the face vector f = P(x, 0) with a leading
    1 for the empty face, its binomial transform h, the Krull dimension,
    the multiplicity, the Hilbert series numerator K(t) = S(t, -1), the
    vertex-deleted deck, and the multigraded Betti table."""

    def __init__(self, hypergraph: Hypergraph, limit: int = DEFAULT_LIMIT, homology_limit: int = DEFAULT_HOMOLOGY_LIMIT):
        self._freeze(hypergraph=hypergraph, limit=limit, homology_limit=homology_limit)

    @property
    def n(self) -> int:
        return self.hypergraph.n

    @cached_property
    def P(self) -> BiPoly:
        return vertex_induced_poly(self.hypergraph, self.limit)

    @cached_property
    def S(self) -> BiPoly:
        return edge_induced_poly(self.hypergraph, self.limit)

    @cached_property
    def f(self) -> tuple[int, ...]:
        return self.P.eval_y(0).coeffs

    @cached_property
    def h(self) -> tuple[int, ...]:
        return h_vector(self.f, self.krull_dim)

    @property
    def krull_dim(self) -> int:
        """Largest independent-set size."""
        return len(self.f) - 1

    @property
    def multiplicity(self) -> int:
        """Number of independent sets of maximum size."""
        return self.f[-1]

    @cached_property
    def k_polynomial(self) -> UniPoly:
        return self.S.eval_y(-1)

    @cached_property
    def deck(self) -> Deck:
        return self.hypergraph.deck()

    @cached_property
    def betti(self) -> BettiTable:
        return hochster_betti(self.hypergraph, self.homology_limit)

    def hilbert_function(self, k_max: int) -> list[int]:
        """Graded dimensions dim R_k for k = 0..k_max, where R is the
        quotient of the n-variable polynomial ring by the edge ideal.

        Two independent routes are used: series expansion of K(t) over
        (1-t)^n, and the face-count formula
        dim R_k = sum_i f[i] * C(k-1, i-1) for k >= 1. InternalMismatch
        is raised if they disagree.
        """
        via_series = expand_series(self.k_polynomial, self.n, k_max)
        f = self.f
        via_faces = [1] + [
            sum(f[i] * comb(k - 1, i - 1) for i in range(1, len(f)))
            for k in range(1, k_max + 1)
        ]
        if via_series != via_faces:
            raise InternalMismatch(
                f"Hilbert function routes disagree: series {via_series} vs face counts {via_faces}"
            )
        return via_series


def f_vector(h: Hypergraph, limit: int = DEFAULT_LIMIT) -> tuple[int, ...]:
    """Face counts of the independence complex by size, starting with
    the empty set: entry l is the number of independent l-subsets."""
    return SRInvariants(h, limit).f


def h_vector(f: tuple[int, ...] | list[int], d: int) -> tuple[int, ...]:
    """Binomial transform of a face vector of a (d-1)-dimensional
    complex: the coefficients of sum_i f[i] t^i (1-t)^(d-i).

    Raises LengthMismatch unless len(f) == d + 1.
    """
    if len(f) != d + 1:
        raise LengthMismatch(f"f-vector of length {len(f)} does not match dimension argument d={d}")
    out = substitute({(i, 0): fi for i, fi in enumerate(f)}, d, -1, 0)
    return tuple(out.get((k, 0), 0) for k in range(d + 1))


def hilbert_function(h: Hypergraph, k_max: int, limit: int = DEFAULT_LIMIT) -> list[int]:
    """See SRInvariants.hilbert_function."""
    return SRInvariants(h, limit).hilbert_function(k_max)
