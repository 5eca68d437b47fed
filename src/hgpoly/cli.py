"""Command-line front end.

Subcommands: compute, hilbert, fvector, hvector, betti, deck,
reconstruct, verify, report. Exit codes: 0 success, 1 verification
failure (or an internal consistency failure), 2 input error, 3 size
limit exceeded, 141 stdout closed by its reader before the end.

Each option is declared once, in one table of argparse keywords. ``main``
reads a well-formed argv from it with ``_parse``, without argparse; any
other argv (help, a usage error, an abbreviated or joined option) goes
to the parser ``build_parser`` makes from the same table, so argparse
loads only then and its messages and exit codes are its own.

There is one output path. Each subcommand handler returns its result
as a (JSON value, text) pair built by the value renderers (polynomial,
vector, value list, Betti table, identity results), and ``main`` alone
reads ``--format`` and writes to stdout, JSON in pieces; ``report`` has
no text form. A multigraded Betti table is a lazy list, drawn entry by
entry from the checked table as it is written, so peak memory follows
the table, not the document, and every check has run by the first byte.
A directory ``report`` parses and limit-checks every member before any
output, then returns a lazy list of the members' report texts, so peak
memory follows the largest member; only an internal consistency failure
(exit 1) can leave a partial document. ``parallel.ordered_texts``
decides how many processes build the members' texts and yields them in
member order, so the output and any failure read as in one process.
compute, hilbert, fvector, hvector, betti, verify, reconstruct and a
file's report are one handler over views of an ``SRInvariants`` bundle
or a deck's ``DeckInvariants``, so a value rebuilt from a deck prints
as one computed directly; each view's row lists its reads in the order
they are refused, all checked before any sweep or table.

Every integer that can grow beyond machine size (coefficients, Hilbert
values, face counts) is emitted as a decimal string in JSON output;
structural indices stay plain numbers. All orderings are sorted, so
outputs are byte-stable and safe for golden files.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterator
from types import SimpleNamespace

from .bipoly import BiPoly
from .enumeration import DEFAULT_LIMIT
from .errors import InputError, InternalMismatch, LimitExceeded
from .formats import (
    bipoly_to_json_terms,
    dump_json_item,
    dump_json_list,
    dump_json_pieces,
    load_corpus,
    load_hypergraph,
    read_deck,
    write_deck,
)
from .homology import DEFAULT_HOMOLOGY_LIMIT, BettiTable, betti_columns, pd_reg_depth
from .parallel import ordered_texts
from .reconstruct import DeckInvariants
from .stanley_reisner import SRInvariants
from .verify import IDENTITY_IDS, run_all, run_identity

# expand_series holds k_max + 1 big ints per pass, so --terms is bounded
MAX_TERMS = 10_000


# -- value renderers: each returns the (JSON value, text) pair of one value --

Output = tuple[object, str | None]


def _strs(values) -> list[str]:
    return [str(v) for v in values]


def _poly(p: BiPoly) -> tuple[list, str]:
    return bipoly_to_json_terms(p), p.to_text()


def _in_t(values) -> BiPoly:
    """The polynomial sum_i values[i] t^i, as a BiPoly in x alone."""
    return BiPoly(((i, 0), c) for i, c in enumerate(values))


def _vector(values) -> tuple[list[str], str]:
    return _strs(values), "(" + ", ".join(_strs(values)) + ")"


def _value_list(values) -> tuple[list[str], str]:
    return _strs(values), " ".join(_strs(values))


def _betti_json(table: BettiTable) -> dict:
    payload = {
        "multigraded": table.multigraded_entries(),
        "graded": [[i, j, b] for (i, j), b in sorted(table.graded.items())],
    }
    if not table.top_complete:
        payload["top_complete"] = False
    return payload


def _betti_text(table: BettiTable) -> str:
    n = table.n
    pd, reg, depth = pd_reg_depth(table)
    graded = table.graded
    cols = list(range(pd + 1))
    rows = list(range(reg + 1))
    cells = {}
    totals = []
    for i in cols:
        total = 0
        for r in rows:
            b = graded.get((i, i + r), 0)
            cells[(r, i)] = str(b) if b else "."
            total += b
        totals.append(str(total))
    width = max(
        [len(s) for s in totals]
        + [len(s) for s in cells.values()]
        + [len(str(c)) for c in cols]
    )
    label_w = max(len("total:"), len(f"{max(rows)}:"))
    lines = []
    lines.append(" " * label_w + " " + " ".join(f"{c:>{width}}" for c in cols))
    lines.append("total:".rjust(label_w) + " " + " ".join(f"{t:>{width}}" for t in totals))
    for r in rows:
        row_cells = " ".join(f"{cells[(r, i)]:>{width}}" for i in cols)
        lines.append(f"{r}:".rjust(label_w) + " " + row_cells)
    if table.top_complete:
        lines.append(f"projective dimension: {pd}")
        lines.append(f"regularity (quotient ring): {reg}; regularity (ideal): {reg + 1}")
        lines.append(f"depth: {depth}")
    else:
        # the unknowable top row can still raise pd and reg, so the
        # visible rows only bound the homological invariants
        lines.append(f"top row (|B| = {n}): unknown, not visible from a deck")
        lines.append(
            f"visible rows bound the invariants: projective dimension >= {pd}, "
            f"regularity >= {reg}, depth <= {n - pd}"
        )
    return "\n".join(lines)


def _identities(results: dict[str, bool | str]) -> tuple[dict[str, str], str]:
    status = {ident: "ok" if r is True else "FAIL" if r is False else str(r) for ident, r in sorted(results.items())}
    return status, "\n".join(f"identity {ident}: {s}" for ident, s in status.items())


def _report_for(inv: SRInvariants, args) -> dict:
    """The report of a bundle, refusing nothing once its row's reads are checked; it
    sweeps S before P, unlike the row, so unchecked it can refuse m where the check refuses n."""
    report = {
        "hypergraph": inv.hypergraph.to_json_dict(),
        "n": inv.n,
        "m": inv.hypergraph.m,
        "edge_induced_poly": {"text": inv.S.to_text(), "terms": bipoly_to_json_terms(inv.S)},
        "vertex_induced_poly": {"text": inv.P.to_text(), "terms": bipoly_to_json_terms(inv.P)},
        "independence_poly": _strs(inv.f),
        "f_vector": _strs(inv.f),
        "h_vector": _strs(inv.h),
        "krull_dim": inv.krull_dim,
        "multiplicity": str(inv.multiplicity),
        "k_polynomial": {"text": inv.k_polynomial.to_text("t"), "coefficients": _strs(inv.k_polynomial.coefficients())},
        "hilbert_series": {
            "numerator": _strs(inv.k_polynomial.coefficients()),
            "denominator_power": inv.n,
            "reduced_numerator": _strs(_in_t(inv.h).coefficients()),
            "reduced_denominator_power": inv.krull_dim,
        },
        "hilbert_function": _strs(inv.hilbert_function(args.terms)),
    }
    try:
        table = inv.betti
    except LimitExceeded as exc:
        report["betti"] = None
        report["betti_skipped"] = str(exc)
    else:
        pd, reg, depth = pd_reg_depth(table)
        columns = betti_columns(table)
        # column n is the row no card sees: K_n pins it down when it holds at most one entry
        top = columns.get(inv.n, {})
        crowded = [j for j, column in columns.items() if len(column) > 1]
        report["betti"] = _betti_json(table)
        report["homological"] = {
            "projective_dimension": pd,
            "regularity_ring": reg,
            "regularity_ideal": reg + 1,
            "depth": depth,
        }
        report["top_betti"] = {
            "top_coefficient": str(inv.k_polynomial.coeff(inv.n, 0)),
            "entries": [[i, b] for i, b in sorted(top.items())],
            "determined": len(top) <= 1,
        }
        report["antidiagonal_recovery"] = (
            {"applicable": False, "violating_degree": min(crowded)}
            if crowded
            else {"applicable": True, "entries": [[j, abs(c)] for (j, _), c in inv.k_polynomial.iter_sorted() if j]}
        )
    report["identities"] = run_all(inv)
    return report


# -- subcommand handlers: text None means the output is JSON only --

# each view (compute --poly, the invariant commands, verify, report, the reconstruct targets): its reads,
# in the order check refuses them, and its renderer, which may read them in another order
_VIEWS = {
    "S": (("S",), lambda inv, args: _poly(inv.S)),
    "P": (("P",), lambda inv, args: _poly(inv.P)),
    "independence": (("P",), lambda inv, args: (_strs(inv.f), _in_t(inv.f).to_text("t"))),
    "hilbert": (("S", "P"), lambda inv, args: _value_list(inv.hilbert_function(args.terms))),
    "fvector": (("P",), lambda inv, args: _vector(inv.f)),
    "hvector": (("P",), lambda inv, args: _vector(inv.h)),
    "betti": (("betti",), lambda inv, args: (_betti_json(inv.betti), _betti_text(inv.betti))),
    "verify": ((), lambda inv, args: _identities(  # each identity checks its own reads
        run_all(inv) if args.identity == "all" else {args.identity: run_identity(args.identity, inv)}
    )),
    # report's table is optional: a refusal of it is its betti_skipped
    "report": (("P", "S"), lambda inv, args: (_report_for(inv, args), None)),
}


def _cmd_view(args) -> Output:
    inv = (DeckInvariants(read_deck(args.deck), args.n_max, args.homology_n_max) if args.command == "reconstruct"
           else SRInvariants(load_hypergraph(args.input), args.n_max, args.homology_n_max))
    reads, render = _VIEWS[getattr(args, "view", args.command)]
    inv.check(reads)
    return render(inv, args)


def _cmd_deck(args) -> Output:
    paths = write_deck(load_hypergraph(args.input), args.out_dir)
    return paths, "\n".join(paths)


def _cmd_report(args) -> Output:
    if not os.path.isdir(args.input):  # a file is the report view
        return _cmd_view(args)
    members = [(name, SRInvariants(h, args.n_max, args.homology_n_max)) for name, h in load_corpus(args.input)]
    for name, inv in members:  # each bundle is checked before any is rendered
        try:
            inv.check(_VIEWS["report"][0])
        except LimitExceeded as exc:
            raise LimitExceeded(f"{name}: {exc}") from exc
    return ordered_texts(lambda member: dump_json_item({"name": member[0], "report": _report_for(member[1], args)}), members), None


# -- the option table: each option's flag and add_argument keywords, of which _parse
# reads dest (else the flag's name), choices, type (int, else str), action (store_true
# only: a flag), default and required --
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text", "help": "output format"})
_TERMS = ("--terms", {"type": int, "default": 20, "metavar": "K", "help": "series terms to expand (default 20)"})
_N_MAX = ("--n-max", {"type": int, "default": DEFAULT_LIMIT, "help": f"enumeration size limit (default {DEFAULT_LIMIT})"})
_HOMOLOGY_N_MAX = ("--homology-n-max", {"type": int, "default": DEFAULT_HOMOLOGY_LIMIT,
                                        "help": f"homology size limit (default {DEFAULT_HOMOLOGY_LIMIT})"})
_INPUT = ("--input", {"required": True})
# a subcommand takes only the shared options it reads, but main and every handler find each one's field
_SHARED_DEFAULTS = {flag[2:].replace("-", "_"): keywords["default"]
                    for flag, keywords in (_FORMAT, _TERMS, _N_MAX, _HOMOLOGY_N_MAX)}

# subcommand -> (its help, its options, shared ones first, its handler); a view is named by its subcommand, --poly or --target
_COMMANDS = {
    "compute": ("print a subhypergraph polynomial", (
        _FORMAT, _N_MAX,
        ("--poly", {"dest": "view", "choices": ("S", "P", "independence"), "required": True,
                    "help": "S: edge-subset polynomial; P: vertex-subset polynomial; "
                            "independence: independent-set counts by size"}),
        _INPUT,
    ), _cmd_view),
    **{name: (text, shared + (_INPUT,), _cmd_view) for name, text, shared in (
        ("hilbert", "graded dimensions of the edge-ideal quotient", (_FORMAT, _TERMS, _N_MAX)),
        ("fvector", "face counts of the independence complex", (_FORMAT, _N_MAX)),
        ("hvector", "binomial transform of the face counts", (_FORMAT, _N_MAX)),
        ("betti", "multigraded Betti table via restriction homology", (_FORMAT, _HOMOLOGY_N_MAX)),
    )},
    "deck": ("write the vertex-deleted cards as JSON files",
             (_FORMAT, _INPUT, ("--out-dir", {"required": True})), _cmd_deck),
    "reconstruct": ("rebuild an invariant from a deck directory", (
        _FORMAT, _TERMS, _N_MAX, _HOMOLOGY_N_MAX,
        ("--deck", {"required": True, "metavar": "DIR"}),
        ("--target", {"dest": "view", "choices": ("S", "P", "fvector", "hilbert", "betti"), "required": True}),
        ("--parallel", {"action": "store_true", "help": "does nothing; kept for callers that pass it"}),
    ), _cmd_view),
    "verify": ("run exact identity checks; nonzero exit on failure", (
        _FORMAT, _N_MAX, _HOMOLOGY_N_MAX, ("--identity", {"choices": IDENTITY_IDS + ("all",), "default": "all"}), _INPUT,
    ), _cmd_view),
    "report": ("bundle every invariant into one JSON document", (
        _TERMS, _N_MAX, _HOMOLOGY_N_MAX,
        ("--input", {"required": True, "help": "a hypergraph file, or a directory of them"}),
    ), _cmd_report),
}


def build_parser():
    """The argparse parser of the option table, for an argv ``_parse`` leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="hgpoly",
        description="Subhypergraph polynomials, ring invariants of edge ideals, "
        "and deck reconstruction, all in exact integer arithmetic.",
    )
    parser.set_defaults(**_SHARED_DEFAULTS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """argparse's fields for argv, read without argparse; None unless argv
    is a subcommand followed by its options spelled in full, every
    required one given, each value valid and not starting with "-" (but
    "-" alone). The last repeat of an option wins, as in argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, options, _ = _COMMANDS[argv[0]]
    table = {flag: (keywords.get("dest", flag[2:].replace("-", "_")), keywords) for flag, keywords in options}
    args = {dest: keywords.get("default", False if "action" in keywords else None)
            for dest, keywords in table.values() if not keywords.get("required")}
    args = {**_SHARED_DEFAULTS, **args, "command": argv[0]}
    words = iter(argv[1:])
    try:  # KeyError: no such option; StopIteration: no value left; ValueError: not an int
        for word in words:
            dest, keywords = table[word]
            if "action" in keywords:
                args[dest] = True
                continue
            value = next(words)
            if value.startswith("-") and value != "-":
                return None
            args[dest] = value = keywords.get("type", str)(value)
            if value not in keywords.get("choices", (value,)):
                return None
    except (KeyError, StopIteration, ValueError):
        return None
    return SimpleNamespace(**args) if all(dest in args for dest, _ in table.values()) else None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv) or build_parser().parse_args(argv)
    try:
        if args.terms < 0:
            raise InputError(f"--terms must be nonnegative, got {args.terms}")
        if args.terms > MAX_TERMS:
            raise LimitExceeded(f"--terms={args.terms} exceeds the series limit {MAX_TERMS}")
        if args.n_max <= 0 or args.homology_n_max <= 0:
            raise InputError("size limits must be positive")
        value, text = _COMMANDS[args.command][2](args)
        try:
            pieces = (text,) if text else None  # the deck of an empty hypergraph lists no paths
            if args.format == "json" or text is None:  # a directory report is a lazy list of member texts
                pieces = dump_json_list(value) if isinstance(value, Iterator) else dump_json_pieces(value)
            if pieces is not None:
                sys.stdout.writelines(pieces)  # never joined: a report can be megabytes
                sys.stdout.write("\n")
        finally:
            if isinstance(value, Iterator):  # a directory report that stopped early stops its workers here
                value.close()
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalMismatch as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    return 1 if args.command == "verify" and "FAIL" in value.values() else 0


def entry() -> None:
    """Run ``main`` as a process and end it as soon as its output is flushed.

    The process leaves by ``os._exit``, so it pays for no module teardown
    and no final garbage collection. That also skips ``atexit`` hooks and
    leaves buffered files unflushed, so nothing the CLI runs may register
    an ``atexit`` hook (``tests/test_entry.py`` checks every subcommand)
    or leave a file open when ``main`` returns. argparse's exits for
    ``--help`` and usage errors take the same path. A reader that closed
    the pipe early ends the process at once, silently, with exit 141
    (128 + SIGPIPE, as a shell reports it); any other flush that fails
    leaves by ``sys.exit``, so the interpreter reports it and exits 120.
    An uncaught exception keeps its traceback and exit 1. The workers a
    directory ``report`` forks never get here (see ``parallel.py``): they
    write nothing to stdout or stderr and are reaped before ``main``
    returns.
    """
    try:
        code = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    except BrokenPipeError:
        os._exit(141)
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started with that descriptor closed
                stream.flush()
    except BrokenPipeError:
        os._exit(141)
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
