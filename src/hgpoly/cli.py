"""Command-line front end.

Subcommands: compute, hilbert, fvector, hvector, betti, deck,
reconstruct, verify, report. Exit codes: 0 success, 1 verification
failure (or an internal consistency failure), 2 input error, 3 size
limit exceeded, 141 stdout closed by its reader before the end.

There is one output path. Each subcommand handler returns its result
as a (JSON value, text) pair built by the value renderers (polynomial,
vector, value list, Betti table, identity results), and ``main`` alone
reads ``--format`` and writes to stdout; ``report`` has no text form and
always prints JSON. A directory ``report`` parses and limit-checks every
member before any output, then returns a lazy list of the members'
report texts that ``main`` writes one at a time, so peak memory follows
the largest member; only an internal consistency failure (exit 1) can
leave a partial document. The members are built round-robin by this
process and one forked worker per extra usable core, and written in
member order, so the output does not depend on the core count; a
member a worker did not send is built by this process, so a failure
reads as it would on one core.
compute, hilbert, fvector, hvector, betti and verify are one handler
over views of the hypergraph's ``SRInvariants`` bundle, and the five
reconstruct targets are the same views of a deck's ``DeckInvariants``
bundle, so a value rebuilt from a deck prints exactly as the value
computed directly.

Every integer that can grow beyond machine size (coefficients, Hilbert
values, face counts) is emitted as a decimal string in JSON output;
structural indices stay plain numbers. All orderings are sorted, so
outputs are byte-stable and safe for golden files.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator

from .bipoly import BiPoly
from .enumeration import DEFAULT_LIMIT, check_sweep_limits
from .errors import InputError, InternalMismatch, LimitExceeded
from .formats import (
    bipoly_to_json_terms,
    dump_json,
    dump_json_item,
    dump_json_list,
    load_corpus,
    load_hypergraph,
    read_deck,
    write_deck,
)
from .homology import DEFAULT_HOMOLOGY_LIMIT, BettiTable, betti_columns, pd_reg_depth
from .hypergraph import Hypergraph
from .reconstruct import DeckInvariants
from .stanley_reisner import SRInvariants
from .verify import IDENTITY_IDS, run_all, run_identity

# expand_series holds k_max + 1 big ints per pass, so --terms is bounded
MAX_TERMS = 10_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgpoly",
        description="Subhypergraph polynomials, ring invariants of edge ideals, "
        "and deck reconstruction, all in exact integer arithmetic.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    common.add_argument("--terms", type=int, default=20, metavar="K", help="series terms to expand (default 20)")
    common.add_argument("--n-max", type=int, default=DEFAULT_LIMIT, help=f"enumeration size limit (default {DEFAULT_LIMIT})")
    common.add_argument("--homology-n-max", type=int, default=DEFAULT_HOMOLOGY_LIMIT,
                        help=f"homology size limit (default {DEFAULT_HOMOLOGY_LIMIT})")
    common.add_argument("--parallel", action="store_true", help="does nothing; to be removed")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[common], help="print a subhypergraph polynomial")
    p.add_argument("--poly", dest="view", choices=("S", "P", "independence"), required=True,
                   help="S: edge-subset polynomial; P: vertex-subset polynomial; "
                        "independence: independent-set counts by size")
    p.add_argument("--input", required=True)

    for name, text in (
        ("hilbert", "graded dimensions of the edge-ideal quotient"),
        ("fvector", "face counts of the independence complex"),
        ("hvector", "binomial transform of the face counts"),
        ("betti", "multigraded Betti table via restriction homology"),
    ):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("--input", required=True)
        p.set_defaults(view=name)

    p = sub.add_parser("deck", parents=[common], help="write the vertex-deleted cards as JSON files")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("reconstruct", parents=[common], help="rebuild an invariant from a deck directory")
    p.add_argument("--deck", required=True, metavar="DIR")
    p.add_argument("--target", choices=("S", "P", "fvector", "hilbert", "betti"), required=True)

    p = sub.add_parser("verify", parents=[common], help="run exact identity checks; nonzero exit on failure")
    p.add_argument("--identity", choices=IDENTITY_IDS + ("all",), default="all")
    p.add_argument("--input", required=True)
    p.set_defaults(view="verify")

    p = sub.add_parser("report", parents=[common], help="bundle every invariant into one JSON document")
    p.add_argument("--input", required=True, help="a hypergraph file, or a directory of them")

    return parser


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
        "multigraded": [[i, list(verts), b] for i, verts, b in table.multigraded_entries()],
        "graded": [[i, j, b] for i, j, b in table.graded_entries()],
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


def _betti(table: BettiTable) -> tuple[dict, str]:
    return _betti_json(table), _betti_text(table)


def _identities(results: dict[str, bool | str]) -> tuple[dict[str, str], str]:
    status = {ident: "ok" if r is True else "FAIL" if r is False else str(r) for ident, r in sorted(results.items())}
    return status, "\n".join(f"identity {ident}: {s}" for ident, s in status.items())


def _report_for(h: Hypergraph, args) -> dict:
    inv = SRInvariants(h, args.n_max, args.homology_n_max)
    # the vertex side first, so a hypergraph over both limits is refused for n
    f_json = _strs(inv.f)
    report = {
        "hypergraph": h.to_json_dict(),
        "n": h.n,
        "m": h.m,
        "edge_induced_poly": {"text": inv.S.to_text(), "terms": bipoly_to_json_terms(inv.S)},
        "vertex_induced_poly": {"text": inv.P.to_text(), "terms": bipoly_to_json_terms(inv.P)},
        "independence_poly": f_json,
        "f_vector": f_json,
        "h_vector": _strs(inv.h),
        "krull_dim": inv.krull_dim,
        "multiplicity": str(inv.multiplicity),
        "k_polynomial": {"text": inv.k_polynomial.to_text("t"), "coefficients": _strs(inv.k_polynomial.coefficients())},
        "hilbert_series": {
            "numerator": _strs(inv.k_polynomial.coefficients()),
            "denominator_power": h.n,
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
        top = columns.get(h.n, {})
        crowded = [j for j, column in columns.items() if len(column) > 1]
        report["betti"] = _betti_json(table)
        report["homological"] = {
            "projective_dimension": pd,
            "regularity_ring": reg,
            "regularity_ideal": reg + 1,
            "depth": depth,
        }
        report["top_betti"] = {
            "top_coefficient": str(inv.k_polynomial.coeff(h.n, 0)),
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

# compute --poly, the invariant commands, verify and the reconstruct targets, as views of a bundle
_VIEWS = {
    "S": lambda inv, args: _poly(inv.S),
    "P": lambda inv, args: _poly(inv.P),
    "independence": lambda inv, args: (_strs(inv.f), _in_t(inv.f).to_text("t")),
    "hilbert": lambda inv, args: _value_list(inv.hilbert_function(args.terms)),
    "fvector": lambda inv, args: _vector(inv.f),
    "hvector": lambda inv, args: _vector(inv.h),
    "betti": lambda inv, args: _betti(inv.betti),
    "verify": lambda inv, args: _identities(
        run_all(inv) if args.identity == "all" else {args.identity: run_identity(args.identity, inv)}
    ),
}


def _cmd_view(args) -> Output:
    return _VIEWS[args.view](SRInvariants(load_hypergraph(args.input), args.n_max, args.homology_n_max), args)


def _cmd_deck(args) -> Output:
    paths = write_deck(load_hypergraph(args.input).deck(), args.out_dir)
    return paths, "\n".join(paths)


def _cmd_reconstruct(args) -> Output:
    return _VIEWS[args.target](DeckInvariants(read_deck(args.deck), args.n_max, args.homology_n_max), args)


def _cmd_report(args) -> Output:
    if not os.path.isdir(args.input):
        return _report_for(load_hypergraph(args.input), args), None
    corpus = load_corpus(args.input)
    for name, h in corpus:
        try:
            check_sweep_limits(h, args.n_max)
        except LimitExceeded as exc:
            raise LimitExceeded(f"{name}: {exc}") from exc
    return _member_texts(corpus, args), None


# -- a directory report, split across the usable cores --

def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(members: int) -> int:
    """Processes that share a directory report: one per usable core and at
    most one per member, or the caller alone where it cannot fork safely
    (no ``os.fork``, or another thread is running)."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    return max(1, min(_usable_cores(), members))


def _drawn(corpus: list) -> Iterator:
    corpus.reverse()
    while corpus:  # popped, so a member is freed as soon as the next one is drawn
        yield corpus.pop()


def _member_text(name: str, h: Hypergraph, args) -> str:
    return dump_json_item({"name": name, "report": _report_for(h, args)})


def _member_texts(corpus: list, args) -> Iterator[str]:
    """Each member's report text, in member order, for ``main`` to write.

    With w workers, member k is built by worker k mod w. Worker 0 is this
    process; the others are forked on the first draw, each sending its
    members' texts through its own pipe, and a text is read only when its
    turn to be written comes. A member no worker sent (its worker could
    not be forked, or it failed on that member or an earlier one) is
    built here, so it fails as it would on one core. Every worker is
    killed and reaped when the report ends, early or not: on success
    each has sent its last text by then."""
    workers = _workers(len(corpus))
    children: list = []  # (pid, the read end of its pipe)
    try:
        try:
            for worker in range(1, workers):
                children.append(_fork(corpus, worker, workers, children, args))
        except OSError:  # no process or pipe to be had: the workers not forked send nothing
            pass
        for k, (name, h) in enumerate(_drawn(corpus)):
            worker = k % workers
            text = _receive(children[worker - 1][1]) if 0 < worker <= len(children) else None
            yield _member_text(name, h, args) if text is None else text
    finally:
        _stop(children)


def _fork(corpus: list, worker: int, workers: int, children: list, args) -> tuple:
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _work(corpus, worker, workers, write_fd, [read_fd] + [reader.fileno() for _, reader in children], args)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _stop(children: list) -> None:
    """Kill and reap every worker in children, emptying it."""
    if not children:
        return
    from signal import SIGKILL  # signal costs every CLI process a millisecond to import

    while children:
        pid, reader = children.pop()
        os.kill(pid, SIGKILL)
        os.waitpid(pid, 0)
        reader.close()


def _work(corpus: list, worker: int, workers: int, write_fd: int, inherited: list[int], args) -> None:
    """A forked worker's whole life: send the text of each member k with
    k mod workers == worker, as its length in 8 bytes and then its UTF-8
    bytes, until the members end or one raises. It writes nothing else
    anywhere and never returns: it leaves by ``os._exit`` whatever
    happens, and the calling process builds every member it did not send."""
    try:
        for fd in inherited:  # the read ends of this and earlier pipes
            os.close(fd)
        with os.fdopen(write_fd, "wb") as out:
            for k, (name, h) in enumerate(_drawn(corpus)):
                if k % workers == worker:
                    data = _member_text(name, h, args).encode()
                    out.write(len(data).to_bytes(8, "big") + data)
                    out.flush()
    finally:
        os._exit(0)  # never read: the calling process kills and reaps every worker


def _receive(reader) -> str | None:
    """The next text a worker sent, or None once it has ended without sending it whole."""
    head = reader.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "big")
        data = reader.read(size)
        if len(data) == size:
            return data.decode()
    return None


_HANDLERS = {
    **dict.fromkeys(("compute", "hilbert", "fvector", "hvector", "betti", "verify"), _cmd_view),
    "deck": _cmd_deck,
    "reconstruct": _cmd_reconstruct,
    "report": _cmd_report,
}


# built once: in-process callers run main many times
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.terms < 0:
            raise InputError(f"--terms must be nonnegative, got {args.terms}")
        if args.terms > MAX_TERMS:
            raise LimitExceeded(f"--terms={args.terms} exceeds the series limit {MAX_TERMS}")
        if args.n_max <= 0 or args.homology_n_max <= 0:
            raise InputError("size limits must be positive")
        value, text = _HANDLERS[args.command](args)
        try:
            pieces = (text,) if text else None  # the deck of an empty hypergraph lists no paths
            if args.format == "json" or text is None:  # a directory report is a lazy list, built as it is written
                pieces = dump_json_list(value) if isinstance(value, Iterator) else (dump_json(value),)
            if pieces is not None:
                sys.stdout.writelines(pieces)  # not joined with the newline: a report can be megabytes
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
    directory ``report`` forks never get here: each leaves by
    ``os._exit`` whatever happens, never writes to stdout or stderr, and
    is reaped by ``main`` before it returns. A member a worker did not
    send is built by this process, so a worker's failure ends it as on
    one core, with the same exception and exit code.
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
