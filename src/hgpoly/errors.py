"""Exception hierarchy for hgpoly.

Three top-level branches matter for exit-code mapping in the CLI:
input problems (bad files, malformed hypergraphs, excluded reconstruction
inputs, corrupted decks), size-limit refusals, and internal consistency
failures (two independent computation paths disagreeing, which indicates
a bug rather than bad input). ``check_limit`` raises every size-limit
refusal.
"""

from __future__ import annotations


class HgpolyError(Exception):
    """Base class for all errors raised by hgpoly."""


class InputError(HgpolyError):
    """The input data is malformed or violates a precondition."""


class ParseError(InputError):
    """A file or string could not be parsed into a hypergraph or polynomial."""


class EmptyEdge(InputError):
    """An edge with no vertices was supplied."""


class DuplicateEdge(InputError):
    """The same edge was supplied twice; duplicates are rejected, not merged."""


class DuplicateVertexLabel(InputError):
    """A vertex label appears twice where uniqueness is required
    (in the vertex list, or inside a single edge)."""


class AntichainViolation(InputError):
    """One edge contains another; the witnessing pair is reported."""


class UnknownVertex(InputError):
    """A vertex label outside the hypergraph's vertex set was referenced."""


class IndexOutOfRange(InputError):
    """A vertex index argument is outside 0..n-1."""


class InvalidDeck(InputError):
    """A collection of cards does not fit together as a vertex-deleted deck."""


class LimitExceeded(HgpolyError):
    """The instance exceeds a configured size limit; raise it explicitly
    to run anyway."""


def check_limit(kind: str, value: int, name: str, limit: int) -> None:
    """Refuse an instance whose size ``kind`` (n or m) is above the named
    limit. Every size refusal is raised here, so the CLI's exit-3 message,
    identity 4.3's skip and a report's ``betti_skipped`` read alike."""
    if value > limit:
        raise LimitExceeded(
            f"{kind}={value} exceeds the {name} limit {limit}; raise the limit explicitly to run anyway"
        )


class DegreeExceedsN(InputError):
    """A polynomial transform was asked for with x-degree above the
    declared vertex count."""


class LengthMismatch(InputError):
    """A vector argument has the wrong length for the stated dimension."""


class NotReconstructible(InputError):
    """The hypergraph is one of the excluded inputs for which deck
    reconstruction is impossible or degenerate."""


class TooFewVertices(NotReconstructible):
    """Reconstruction requires at least 3 vertices."""


class NoEdges(NotReconstructible):
    """An edgeless hypergraph (or a deck indistinguishable from one)
    cannot be reconstructed."""


class SingleSpanningEdge(NotReconstructible):
    """A hypergraph whose only edge covers every vertex cannot be
    reconstructed: its deck equals the edgeless deck."""


class InconsistentDeck(InputError):
    """The supplied card data cannot come from any genuine deck."""


class NonIntegerCoefficient(InconsistentDeck):
    """A reconstruction division left a remainder; the input is not a
    genuine deck."""


class NegativeTopCoefficient(InconsistentDeck):
    """Binomial completion of the top coefficient row went negative."""


class InternalMismatch(HgpolyError):
    """Two independent computation paths disagreed. This is a bug, not
    an input problem."""


class PathsDisagree(InternalMismatch):
    """The primary and verification reconstruction paths disagree."""
