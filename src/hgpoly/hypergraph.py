"""Finite labeled hypergraphs (clutters) and their vertex-deleted decks.

A hypergraph is an ordered tuple of vertex labels together with a set of
distinct nonempty edges forming an antichain: no edge contains another.
Edges are stored internally as bitmasks over the vertex index range and
kept in a canonical order (lexicographic on sorted index tuples), so
equality is structural. Values are immutable and safe to share.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

from .errors import InputError


def mask_indices(mask: int) -> tuple[int, ...]:
    """Set bit positions of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Frozen:
    """Immutable value: a subclass's __init__ sets its fields once, in
    order, through _freeze; equality and hash then go by the field
    values, and setting or deleting an attribute raises AttributeError.
    cached_property still works, as it writes to __dict__ directly."""

    def _freeze(self, **fields) -> None:
        self.__dict__.update(fields, _values=tuple(fields.values()))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)


def _label_index(labels: tuple) -> dict[str, int]:
    """Each label's vertex index, refusing the first label that is not
    a str or that repeats an earlier one."""
    index: dict[str, int] = {}
    for lbl in labels:
        if not isinstance(lbl, str):
            raise InputError(f"vertex label {lbl!r} is not a string")
        if lbl in index:
            raise InputError(f"vertex label {lbl!r} appears twice")
        index[lbl] = len(index)
    return index


class Hypergraph(Frozen):
    """Labeled hypergraph with an antichain edge set.

    Construct through :func:`validate` (labels), :meth:`from_masks`
    (masks), :meth:`from_cards` (a deck) or :meth:`card`; each enforces
    or keeps the invariants.
    """

    def __init__(self, labels: tuple[str, ...], edges: tuple[int, ...]) -> None:
        self._freeze(labels=labels, edges=edges)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @classmethod
    def from_masks(cls, labels: Sequence[str], edge_masks: Iterable[int]) -> "Hypergraph":
        """Build from edge bitmasks, canonicalizing order and checking the
        label, nonempty, duplicate-free and antichain invariants."""
        labels = tuple(labels)
        _label_index(labels)
        n = len(labels)
        masks = list(edge_masks)
        for e in masks:
            if e == 0:
                raise InputError("edge with no vertices")
            if e >> n:
                raise InputError(f"edge mask {e:#x} has bits outside the {n}-vertex range")
        keyed = sorted((mask_indices(e), e) for e in masks)
        masks = [e for _, e in keyed]
        verts = [vs for vs, _ in keyed]
        for k in range(1, len(masks)):
            if masks[k] == masks[k - 1]:
                raise InputError(f"duplicate edge {{{', '.join(labels[v] for v in verts[k])}}}")
        # bit k of holders[v] is set when edge k holds vertex v, so the
        # edges holding all of edge a's vertices are the AND over them
        holders = [0] * n
        for k, vs in enumerate(verts):
            bit = 1 << k
            for v in vs:
                holders[v] |= bit
        for a, vs in enumerate(verts):
            inside = ~(1 << a)
            for v in vs:
                inside &= holders[v]
            if inside:
                small = ", ".join(labels[v] for v in vs)
                big = ", ".join(labels[v] for v in verts[mask_indices(inside)[0]])
                raise InputError(
                    f"edge {{{small}}} is contained in edge {{{big}}}"
                )
        return cls(labels, tuple(masks))

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[v] for v in mask_indices(mask))

    def edge_label_sets(self) -> tuple[tuple[str, ...], ...]:
        """Edges as label tuples, in canonical order."""
        return tuple(self.labels_of(e) for e in self.edges)

    def card(self, l: int) -> "Hypergraph":
        """Vertex-deleted card: drop vertex l and every edge containing it.
        The other edges, shifted down past l, stay a checked antichain."""
        if not 0 <= l < self.n:
            raise InputError(f"vertex index {l} out of range 0..{self.n - 1}")
        low = (1 << l) - 1
        edges = tuple(e & low | e >> 1 & ~low for e in self.edges if not e >> l & 1)
        return Hypergraph(self.labels[:l] + self.labels[l + 1 :], edges)

    @cached_property
    def cards(self) -> tuple[Hypergraph, ...]:
        """The n vertex-deleted cards in vertex order, cut on first use.
        Card l keeps every label but the l-th, so the cards' edges are the
        parent's, less a lone spanning edge: a labeled deck is its parent."""
        return tuple(self.card(l) for l in range(self.n))

    def deck(self) -> Hypergraph:
        """The hypergraph itself, its cards' parent; kept for the benchmark's tracer."""
        return self

    @classmethod
    def from_cards(cls, cards: Sequence[Hypergraph]) -> Hypergraph:
        """The one check of cards from outside, returning their parent.
        Card l omits exactly the parent's l-th label, so the first missing
        label is parent[0] and card 0 lists the rest in order; card l must
        hold exactly the other cards' edges that avoid vertex l, and is
        then the parent's card l, edge order included. Needs at least two cards."""
        if len(cards) < 2:
            raise InputError("need at least two cards to recover the vertex order")
        first_missing = set(cards[1].labels) - set(cards[0].labels)
        if len(first_missing) != 1:
            raise InputError("cards 0 and 1 do not differ in exactly one label")
        labels = (next(iter(first_missing)),) + cards[0].labels
        n = len(labels)
        if len(cards) != n:
            raise InputError(f"expected {n} cards, got {len(cards)}")
        # bit l of holders[e] is set when card l holds e, lifted to the
        # parent's indices: card l's vertex k is the parent's k below l, k + 1 from l on
        holders: dict[int, int] = {}
        for l, card in enumerate(cards):
            expected = labels[:l] + labels[l + 1 :]
            if card.labels != expected:
                raise InputError(f"card {l} has labels {card.labels}, expected {expected}")
            low = (1 << l) - 1
            for e in card.edges:
                e = e & low | (e & ~low) << 1
                holders[e] = holders.get(e, 0) | 1 << l
        # a genuine card l holds exactly the parent's edges avoiding vertex l
        for e in sorted(holders):
            missing = ((1 << n) - 1) & ~e & ~holders[e]
            if missing:
                raise InputError(
                    f"edge {[labels[v] for v in mask_indices(e)]} is on card {mask_indices(holders[e])[0]} but not on card "
                    f"{mask_indices(missing)[0]}, whose deleted vertex it avoids; the input is not a genuine deck"
                )
        return cls.from_masks(labels, holders)

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.labels),
            "edges": [list(e) for e in self.edge_label_sets()],
        }

    def __repr__(self) -> str:
        edges = ", ".join("{" + ",".join(e) + "}" for e in self.edge_label_sets())
        return f"Hypergraph(vertices=[{', '.join(self.labels)}], edges=[{edges}])"


def validate(raw_vertices: Sequence[str], raw_edges: Sequence[Sequence[str]]) -> Hypergraph:
    """Checked construction from raw label data: the one check of its
    structure, for library input and parsed files alike.

    Raises InputError, naming the first offender, unless the vertices,
    the edges and each edge are lists or tuples of str labels; then
    rejects duplicate vertex labels, empty edges, repeated labels inside
    an edge, unknown labels, byte-identical duplicate edges, and
    containment between distinct edges (reporting the witnessing pair).
    """
    if not isinstance(raw_vertices, (list, tuple)):
        raise InputError(f"vertices must be a list of strings, not {type(raw_vertices).__name__}")
    if not isinstance(raw_edges, (list, tuple)):
        raise InputError(f"edges must be a list of lists of strings, not {type(raw_edges).__name__}")
    labels = tuple(raw_vertices)
    index = _label_index(labels)
    masks = []
    for edge in raw_edges:
        if not isinstance(edge, (list, tuple)):
            raise InputError(f"edge {edge!r} is not a list of strings")
        mask = 0
        for lbl in edge:
            if not isinstance(lbl, str):
                raise InputError(f"edge {edge!r} holds {lbl!r}, which is not a string")
            v = index.get(lbl)
            if v is None:
                raise InputError(f"edge {edge!r} references unknown vertex {lbl!r}")
            if mask >> v & 1:
                raise InputError(f"edge {edge!r} repeats vertex {lbl!r}")
            mask |= 1 << v
        masks.append(mask)
    return Hypergraph.from_masks(labels, masks)
