"""Parsing and serialization of hypergraphs, decks, and polynomials.

Two hypergraph file formats are accepted. JSON:

    {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}

and a line format whose first line lists the vertex labels separated by
spaces, with each following nonempty line giving one edge the same way.
Text whose first nonspace character is '{' or '[' is JSON. The JSON
parser checks only what is JSON's own: one object, exactly the keys
``vertices`` and ``edges``, no repeated key, nothing its decoder refuses.
The types of the vertices, edges and labels are checked, as for library
input, by ``hypergraph.validate``. The parsers name no file:
``load_hypergraph`` puts the path in front of every input error, for a
single file, a directory member and a deck card alike.

Polynomials are written (never read) as ``[[i, j, "coeff"], ...]`` with
coefficients as decimal strings, so arbitrarily large integers survive
any JSON reader.

JSON is rendered here and written to stdout by ``cli.main`` alone, a
lazy list (``dump_json_list``) one item's text (``dump_json_item``) at
a time. Paths are strings handled by ``os``, so this module loads
neither pathlib nor fnmatch.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii

from .bipoly import BiPoly
from .errors import InputError
from .hypergraph import Deck, Hypergraph, validate


def parse_hypergraph_text(text: str) -> Hypergraph:
    """Parse either supported format; JSON when the first nonspace
    character is '{' or '[', the line format otherwise."""
    if text.lstrip().startswith(("{", "[")):
        return _parse_json(text)
    return _parse_lines(text)


def _object_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise InputError(f"repeated key {next(key for key in keys if keys.count(key) > 1)!r}")
    return obj


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # the literal is well formed, so only its length is refused
        digits, limit = len(text.lstrip("-")), sys.get_int_max_str_digits()
        raise InputError(f"invalid JSON: a number has {digits} digits; more than {limit} are refused") from None


# built once: json.loads with a hook builds a decoder per call
_DECODER = json.JSONDecoder(object_pairs_hook=_object_without_repeats, parse_int=_integer)


def _parse_json(text: str) -> Hypergraph:
    try:
        data = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # also too deep a nesting
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("expected a JSON object")
    extra = set(data) - {"vertices", "edges"}
    if extra:
        raise InputError(f"unexpected keys {sorted(extra)}")
    if "vertices" not in data or "edges" not in data:
        raise InputError("need both 'vertices' and 'edges'")
    return validate(data["vertices"], data["edges"])


def _parse_lines(text: str) -> Hypergraph:
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise InputError("empty input")
    vertices = lines[0].split()
    edges = [line.split() for line in lines[1:]]
    return validate(vertices, edges)


def load_hypergraph(path: str) -> Hypergraph:
    """Read and parse one hypergraph file, UTF-8 with or without a
    byte-order mark. Every InputError from parsing or validation is
    raised again, of the same type, with the path leading its message."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return parse_hypergraph_text(text)
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def dump_json(value: object) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for values built
    of str, int, bool, None, lists, tuples and dicts with str keys; any
    other type, a subclass of these included, raises TypeError. With an
    indent the standard library falls back to its pure-Python encoder,
    which this writer outruns. Each container is joined from its items'
    texts as soon as they are written, so the text is never held as one
    piece per token."""
    return _json_text(value, "\n")


def dump_json_item(value: object) -> str:
    """The text of value as one item of the list ``dump_json_list`` writes."""
    return _json_text(value, "\n  ")


def dump_json_list(texts: Iterable[str]) -> Iterator[str]:
    """``dump_json(items)`` in pieces, given each item's
    ``dump_json_item`` text; each text is drawn only when its piece is
    asked for."""
    sep = "[\n  "
    for text in texts:
        yield sep + text
        sep = ",\n  "
    yield "[]" if sep == "[\n  " else "\n]"


def _json_text(value: object, newline: str) -> str:
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_json_text(item, inner) for item in value]) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [encode_basestring_ascii(key) + ": " + _json_text(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def dump_hypergraph_json(h: Hypergraph) -> str:
    return dump_json(h.to_json_dict()) + "\n"


def _card_names(directory: str) -> list[str]:
    return sorted(n for n in os.listdir(directory) if n.startswith("card_") and n.endswith(".json"))


def write_deck(deck: Deck, out_dir: str) -> list[str]:
    """Write one JSON file per card, zero-padded in vertex order.

    Raises InputError, before writing anything, when out_dir cannot be
    a directory or already holds a card_*.json file that this deck would
    not overwrite: read back, that stale card would join the deck.
    """
    width = max(2, len(str(deck.origin_n - 1)))
    names = [f"card_{l:0{width}d}.json" for l in range(deck.origin_n)]
    paths = [os.path.join(out_dir, name) for name in names]
    try:
        os.makedirs(out_dir, exist_ok=True)
        stale = [name for name in _card_names(out_dir) if name not in names]
        if stale:
            raise InputError(
                f"{out_dir} already holds {stale[0]}, which this {deck.origin_n}-card deck "
                f"would not overwrite; write the deck to an empty directory"
            )
        for path, card in zip(paths, deck.cards):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dump_hypergraph_json(card))
    except OSError as exc:
        raise InputError(f"cannot write the deck to {out_dir}: {exc}") from exc
    return paths


def read_deck(deck_dir: str) -> Deck:
    """Read the card_<k>.json files in order of the integer k, whatever
    its zero padding, and recover the deck; its own errors name deck_dir."""
    if not os.path.isdir(deck_dir):
        raise InputError(f"{deck_dir} is not a directory")
    files: dict[int, str] = {}
    for name in _card_names(deck_dir):
        digits = name[len("card_") : -len(".json")]
        if not (digits.isascii() and digits.isdigit()):
            raise InputError(f"{os.path.join(deck_dir, name)}: card file name is not card_<integer>.json")
        k = int(digits)
        if k in files:
            raise InputError(f"{os.path.join(deck_dir, name)}: card index {k} repeats {files[k]}")
        files[k] = name
    if not files:
        raise InputError(f"no card_*.json files in {deck_dir}")
    cards = [load_hypergraph(os.path.join(deck_dir, files[k])) for k in sorted(files)]
    try:
        return Deck.from_cards(cards)
    except InputError as exc:
        raise type(exc)(f"{deck_dir}: {exc}") from exc


def load_corpus(directory: str) -> list[tuple[str, Hypergraph]]:
    """Parse every regular file in a directory, in sorted name order.

    Per-file input errors, of parsing or of validation, are aggregated
    into a single InputError naming each offending file once.
    """
    if not os.path.isdir(directory):
        raise InputError(f"{directory} is not a directory")
    loaded: list[tuple[str, Hypergraph]] = []
    failures: list[str] = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        try:
            loaded.append((name, load_hypergraph(path)))
        except InputError as exc:
            failures.append(str(exc))
    if failures:
        raise InputError("corpus errors:\n" + "\n".join(failures))
    return loaded


def bipoly_to_json_terms(p: BiPoly) -> list[list]:
    return [[i, j, str(c)] for (i, j), c in p.iter_sorted()]

