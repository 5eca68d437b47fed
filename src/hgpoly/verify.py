"""Cross-checking identity suite.

Each check compares the two sides of an exact identity, computed along
independent routes, and returns True only on coefficientwise equality.
The checks read one invariant bundle (``SRInvariants``), whose vertex
and edge sweeps both run directly, so no side is derived from the
other. 2.1, 2.3 and 3.2 expand through ``bipoly.substitute``, one
call per side over its own terms, and compare term maps; 4.3 compares
the Betti table's signed column sums, a term map of its own, with the
terms of K(t), so no identity drops zeros or trims in a step both
sides share; 4.2 sweeps the bundle's cards once, on the edge side,
reads their P through the transform and builds no ``Deck``.
``run_identity`` checks the sizes an identity reads, then calls 2.1 and
2.3 here, 3.2 in the bundle, 4.2 in ``reconstruct`` and 4.3 in
``homology``, each by name in an if-chain, so a rebound function is the
one called. A False from any of them on a valid input means a bug.

The rule for every check, these identities and the guards that raise
InternalMismatch alike: a check stays only if it catches a fault that
no other check catches, and ``tests/test_faults.py`` injects the faults
that show which; a check that catches none is deleted, as the deck
differential check was.
"""

from __future__ import annotations

from .bipoly import substitute, to_edge_form
from .errors import LimitExceeded, NotReconstructible
from .homology import verify_betti_alternating_sum
from .reconstruct import verify_deck_sum_identity
from .stanley_reisner import SRInvariants

# each identity's reads in read order, checked before any; 4.2 checks its own after its exclusion check
IDENTITY_READS = {"2.1": ("P", "S"), "2.3": ("P", "S"), "3.2": ("P", "S"), "4.2": (), "4.3": ("S", "betti")}
IDENTITY_IDS = tuple(IDENTITY_READS)


def verify_transform(inv: SRInvariants) -> bool:
    """Binomial-expansion transform of the vertex polynomial equals the
    directly enumerated edge polynomial."""
    return to_edge_form(inv.P, inv.n) == inv.S


def verify_coefficient_relation(inv: SRInvariants) -> bool:
    """Binomial coefficient relation linking the two coefficient tables:
    for all (i, j),

        sum_{l >= 0} beta[i, j+l] * C(j+l, j)
            == sum_{l = 0..i} theta[i-l, j] * C(n-(i-l), l).

    Both sides count pairs (W, K) with |W| = i and K a j-element subset
    of the edges inside W: the left side picks K among the edges each W
    induces, the right side extends the union of each j-edge subset by
    arbitrary extra vertices. As polynomials, the left side is
    P(x, y+1), expanded from P's terms, and the right side is
    sum_ij theta[i, j] x^i (1+x)^(n-i) y^j, expanded from S's terms;
    each is one substitution over its own terms."""
    return substitute(inv.P.terms, inv.n, 0, 1) == substitute(inv.S.terms, inv.n, 1, 0)


def run_identity(identity: str, inv: SRInvariants) -> bool:
    if identity not in IDENTITY_READS:
        raise ValueError(f"unknown identity {identity!r}")
    inv.check(IDENTITY_READS[identity])
    if identity == "2.1":
        return verify_transform(inv)
    if identity == "2.3":
        return verify_coefficient_relation(inv)
    if identity == "3.2":
        return inv.series_numerator_holds
    if identity == "4.2":
        return verify_deck_sum_identity(inv)
    return verify_betti_alternating_sum(inv.betti, inv.k_polynomial)


def run_all(inv: SRInvariants) -> dict[str, bool | str]:
    """Run the whole suite on one bundle, so the identities share its
    sweeps and Betti table; identities whose preconditions exclude the
    input (or whose size limits refuse it) are reported as a
    'skipped: ...' string instead of a bool."""
    results: dict[str, bool | str] = {}
    for identity in IDENTITY_IDS:
        try:
            results[identity] = run_identity(identity, inv)
        except (NotReconstructible, LimitExceeded) as exc:
            results[identity] = f"skipped: {exc}"
    return results
