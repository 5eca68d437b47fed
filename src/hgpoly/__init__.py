"""hgpoly: subhypergraph enumeration polynomials of finite hypergraphs,
Stanley-Reisner invariants of their edge ideals, exact rational homology
with multigraded Betti tables, and deck-based reconstruction of all of
it, in exact integer arithmetic throughout."""

from .bipoly import (
    BiPoly,
    expand_series,
    to_edge_form,
    to_vertex_form,
)
from .enumeration import (
    DEFAULT_LIMIT,
    edge_induced_poly,
    vertex_induced_poly,
)
from .errors import HgpolyError, InputError, InternalMismatch, LimitExceeded, NotReconstructible
from .homology import (
    DEFAULT_HOMOLOGY_LIMIT,
    BettiTable,
    betti_columns,
    exact_rank,
    hochster_betti,
    pd_reg_depth,
    verify_betti_alternating_sum,
)
from .hypergraph import Deck, Hypergraph, disjoint_union, validate
from . import parallel  # noqa: F401  (read by perfbench's tracer)
from .reconstruct import (
    DeckInvariants,
    check_reconstructible,
    reconstruct_edge_poly,
    reconstruct_vertex_poly,
    verify_deck_sum_identity,
)
from .stanley_reisner import (
    SRInvariants,
    f_vector,
    h_vector,
    hilbert_function,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "BiPoly",
    "DEFAULT_HOMOLOGY_LIMIT",
    "DEFAULT_LIMIT",
    "Deck",
    "DeckInvariants",
    "HgpolyError",
    "Hypergraph",
    "InputError",
    "InternalMismatch",
    "LimitExceeded",
    "NotReconstructible",
    "SRInvariants",
    "betti_columns",
    "check_reconstructible",
    "disjoint_union",
    "edge_induced_poly",
    "exact_rank",
    "expand_series",
    "f_vector",
    "h_vector",
    "hilbert_function",
    "hochster_betti",
    "pd_reg_depth",
    "reconstruct_edge_poly",
    "reconstruct_vertex_poly",
    "to_edge_form",
    "to_vertex_form",
    "validate",
    "verify_betti_alternating_sum",
    "verify_deck_sum_identity",
    "vertex_induced_poly",
]
