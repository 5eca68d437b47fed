"""Exception hierarchy for hgpoly: one class per way the program handles
an error, each raise site telling its check apart by its message.

- ``InputError`` (CLI exit 2): a bad file, a malformed hypergraph,
  polynomial or deck, or card data no genuine deck can produce.
- ``NotReconstructible`` (an ``InputError``, exit 2): one of the inputs
  the reconstruction theorems leave out (fewer than three vertices, no
  edges, or a single spanning edge).
- ``LimitExceeded`` (exit 3): the instance is above a size limit
  (``check_limit``), or ``--terms`` is above the series limit.
- ``InternalMismatch`` (exit 1): two independent routes disagreed on a
  valid input, which only a bug can cause.

``verify --identity all`` and ``report`` record ``NotReconstructible``
and ``LimitExceeded`` as ``skipped: ...`` instead of failing.
"""

from __future__ import annotations


class HgpolyError(Exception):
    """Base class for all errors raised by hgpoly."""


class InputError(HgpolyError):
    """The input data is malformed or violates a precondition."""


class NotReconstructible(InputError):
    """The hypergraph, or the parent a deck implies, is one of the
    excluded inputs for which deck reconstruction is impossible or
    degenerate."""


class LimitExceeded(HgpolyError):
    """The instance exceeds a configured size limit; raise it explicitly
    to run anyway."""


def check_limit(kind: str, value: int, name: str, limit: int) -> None:
    """Refuse an instance whose size ``kind`` (n or m) is above the named
    limit. Every size refusal of an instance is raised here, so the CLI's
    exit-3 message, identity 4.3's skip and a report's ``betti_skipped``
    read alike; ``cli.main`` raises the one other, for ``--terms``, with
    its own message, which ``tests/test_limits.py`` pins."""
    if value > limit:
        raise LimitExceeded(
            f"{kind}={value} exceeds the {name} limit {limit}; raise the limit explicitly to run anyway"
        )


class InternalMismatch(HgpolyError):
    """Two independent computation paths disagreed. This is a bug, not
    an input problem."""
