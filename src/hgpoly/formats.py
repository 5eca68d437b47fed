"""Parsing and serialization of hypergraphs, decks, and polynomials.

Two hypergraph file formats are accepted. JSON:

    {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}

and a line format whose first line lists the vertex labels separated by
spaces, with each following nonempty line giving one edge the same way.
Both parsers reject trailing garbage and unknown structure.

Polynomials serialize as ``[[i, j, "coeff"], ...]`` with coefficients as
decimal strings, so arbitrarily large integers survive JSON round trips.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from .bipoly import BiPoly, UniPoly
from .errors import ParseError
from .hypergraph import Deck, Hypergraph, validate


def parse_hypergraph_text(text: str, source: str = "<string>") -> Hypergraph:
    """Parse either supported format; JSON when the first nonspace
    character is '{', the line format otherwise."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text, source)
    return _parse_lines(text, source)


def _parse_json(text: str, source: str) -> Hypergraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{source}: expected a JSON object")
    extra = set(data) - {"vertices", "edges"}
    if extra:
        raise ParseError(f"{source}: unexpected keys {sorted(extra)}")
    if "vertices" not in data or "edges" not in data:
        raise ParseError(f"{source}: need both 'vertices' and 'edges'")
    vertices = data["vertices"]
    edges = data["edges"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError(f"{source}: 'vertices' must be a list of strings")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and all(isinstance(v, str) for v in e) for e in edges
    ):
        raise ParseError(f"{source}: 'edges' must be a list of lists of strings")
    return validate(vertices, edges)


def _parse_lines(text: str, source: str) -> Hypergraph:
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ParseError(f"{source}: empty input")
    vertices = lines[0].split()
    edges = [line.split() for line in lines[1:]]
    return validate(vertices, edges)


def load_hypergraph(path: str | Path) -> Hypergraph:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_hypergraph_text(text, str(path))


def dump_hypergraph_json(h: Hypergraph) -> str:
    return json.dumps(h.to_json_dict(), indent=2) + "\n"


def write_deck(deck: Deck, out_dir: str | Path) -> list[Path]:
    """Write one JSON file per card, zero-padded in vertex order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = max(2, len(str(deck.origin_n - 1)))
    paths = []
    for l, card in enumerate(deck.cards):
        p = out_dir / f"card_{l:0{width}d}.json"
        p.write_text(dump_hypergraph_json(card))
        paths.append(p)
    return paths


def read_deck(deck_dir: str | Path) -> Deck:
    """Read card_*.json files in name order and recover the deck."""
    deck_dir = Path(deck_dir)
    if not deck_dir.is_dir():
        raise ParseError(f"{deck_dir} is not a directory")
    files = sorted(deck_dir.glob("card_*.json"))
    if not files:
        raise ParseError(f"no card_*.json files in {deck_dir}")
    cards = [load_hypergraph(p) for p in files]
    return Deck.from_cards(cards)


def load_corpus(directory: str | Path) -> list[tuple[str, Hypergraph]]:
    """Parse every regular file in a directory, in sorted name order.

    Per-file errors are aggregated into a single ParseError naming each
    offending file.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ParseError(f"{directory} is not a directory")
    loaded: list[tuple[str, Hypergraph]] = []
    failures: list[str] = []
    for p in sorted(directory.iterdir()):
        if not p.is_file():
            continue
        try:
            loaded.append((p.name, load_hypergraph(p)))
        except ParseError as exc:
            failures.append(str(exc))
    if failures:
        raise ParseError("corpus errors:\n" + "\n".join(failures))
    return loaded


def bipoly_to_json_terms(p: BiPoly) -> list[list]:
    return [[i, j, str(c)] for (i, j), c in p.iter_sorted()]


def bipoly_from_json_terms(terms: Sequence[Sequence]) -> BiPoly:
    out = {}
    for entry in terms:
        if len(entry) != 3:
            raise ParseError(f"polynomial term {entry!r} is not [i, j, coeff]")
        i, j, c = entry
        if not isinstance(i, int) or not isinstance(j, int):
            raise ParseError(f"polynomial term {entry!r} has non-integer exponents")
        try:
            coeff = int(c)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"polynomial term {entry!r} has a bad coefficient") from exc
        out[(i, j)] = coeff
    return BiPoly(out)


def unipoly_to_json(p: UniPoly) -> list[str]:
    return [str(c) for c in p.coeffs]


def unipoly_from_json(coeffs: Sequence) -> UniPoly:
    try:
        return UniPoly([int(c) for c in coeffs])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad coefficient list {coeffs!r}") from exc
