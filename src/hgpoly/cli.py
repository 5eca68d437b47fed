"""Command-line front end.

Subcommands: compute, hilbert, fvector, hvector, betti, deck,
reconstruct, verify, report. Exit codes: 0 success, 1 verification
failure (or an internal consistency failure), 2 input error, 3 size
limit exceeded.

Every integer that can grow beyond machine size (coefficients, Hilbert
values, face counts) is emitted as a decimal string in JSON output;
structural indices stay plain numbers. All orderings are sorted, so
outputs are byte-stable and safe for golden files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .enumeration import (
    DEFAULT_LIMIT,
    edge_induced_poly,
    independence_poly,
    vertex_induced_poly,
)
from .errors import InputError, InternalMismatch, LimitExceeded
from .formats import (
    bipoly_to_json_terms,
    load_corpus,
    load_hypergraph,
    read_deck,
    unipoly_to_json,
    write_deck,
)
from .homology import DEFAULT_HOMOLOGY_LIMIT, BettiTable, antidiagonal_recovery, pd_reg_depth
from .hypergraph import Hypergraph
from .reconstruct import (
    reconstruct_edge_poly,
    reconstruct_f_vector,
    reconstruct_hilbert_function,
    reconstruct_multigraded_betti,
    reconstruct_vertex_poly,
    top_betti_report,
)
from .stanley_reisner import SRInvariants, sr_invariants
from .verify import IDENTITY_IDS, run_all, run_identity

ENV_LIMITS = "HGPOLY_LIMITS"

# expand_series holds k_max + 1 big ints per pass, so --terms is bounded
MAX_TERMS = 10_000


@dataclass
class RunConfig:
    """Resolved run options shared by all subcommands."""

    fmt: str = "text"
    k_max: int = 20
    n_max: int = DEFAULT_LIMIT
    homology_n_max: int = DEFAULT_HOMOLOGY_LIMIT

    def __post_init__(self) -> None:
        if self.k_max < 0:
            raise InputError(f"--terms must be nonnegative, got {self.k_max}")
        if self.k_max > MAX_TERMS:
            raise LimitExceeded(f"--terms={self.k_max} exceeds the series limit {MAX_TERMS}")
        if self.n_max <= 0 or self.homology_n_max <= 0:
            raise InputError("size limits must be positive")


def _env_limit_defaults() -> dict[str, int]:
    """Parse HGPOLY_LIMITS ('n-max=20 homology-n-max=10', comma or space
    separated, flag names with or without dashes)."""
    raw = os.environ.get(ENV_LIMITS, "").replace(",", " ")
    out: dict[str, int] = {}
    for token in raw.split():
        if "=" not in token:
            raise InputError(f"{ENV_LIMITS}: expected name=value, got {token!r}")
        name, _, value = token.partition("=")
        key = name.strip().lstrip("-").replace("-", "_")
        if key not in ("n_max", "homology_n_max"):
            raise InputError(f"{ENV_LIMITS}: unknown limit {name!r}")
        try:
            out[key] = int(value)
        except ValueError as exc:
            raise InputError(f"{ENV_LIMITS}: bad value in {token!r}") from exc
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgpoly",
        description="Subhypergraph polynomials, ring invariants of edge ideals, "
        "and deck reconstruction, all in exact integer arithmetic.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    common.add_argument("--terms", type=int, default=20, metavar="K", help="series terms to expand (default 20)")
    common.add_argument("--n-max", type=int, default=None, help=f"enumeration size limit (default {DEFAULT_LIMIT})")
    common.add_argument(
        "--homology-n-max", type=int, default=None, help=f"homology size limit (default {DEFAULT_HOMOLOGY_LIMIT})"
    )
    common.add_argument("--parallel", action="store_true", help="does nothing (all work runs in-process); to be removed")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[common], help="print a subhypergraph polynomial")
    p.add_argument("--poly", choices=("S", "P", "independence"), required=True,
                   help="S: edge-subset polynomial; P: vertex-subset polynomial; "
                        "independence: independent-set counts by size")
    p.add_argument("--input", required=True)

    p = sub.add_parser("hilbert", parents=[common], help="graded dimensions of the edge-ideal quotient")
    p.add_argument("--input", required=True)

    p = sub.add_parser("fvector", parents=[common], help="face counts of the independence complex")
    p.add_argument("--input", required=True)

    p = sub.add_parser("hvector", parents=[common], help="binomial transform of the face counts")
    p.add_argument("--input", required=True)

    p = sub.add_parser("betti", parents=[common], help="multigraded Betti table via restriction homology")
    p.add_argument("--input", required=True)

    p = sub.add_parser("deck", parents=[common], help="write the vertex-deleted cards as JSON files")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("reconstruct", parents=[common], help="rebuild an invariant from a deck directory")
    p.add_argument("--deck", required=True, metavar="DIR")
    p.add_argument("--target", choices=("S", "P", "fvector", "hilbert", "betti"), required=True)

    p = sub.add_parser("verify", parents=[common], help="run exact identity checks; nonzero exit on failure")
    p.add_argument("--identity", choices=IDENTITY_IDS + ("all",), default="all")
    p.add_argument("--input", required=True)

    p = sub.add_parser("report", parents=[common], help="bundle every invariant into one JSON document")
    p.add_argument("--input", required=True, help="a hypergraph file, or a directory of them")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    env = _env_limit_defaults()
    n_max = args.n_max if args.n_max is not None else env.get("n_max", DEFAULT_LIMIT)
    hom_max = (
        args.homology_n_max
        if args.homology_n_max is not None
        else env.get("homology_n_max", DEFAULT_HOMOLOGY_LIMIT)
    )
    return RunConfig(
        fmt=args.format,
        k_max=args.terms,
        n_max=n_max,
        homology_n_max=hom_max,
    )


# -- rendering helpers --------------------------------------------------------


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=2))


def _vector_text(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _betti_json(table: BettiTable) -> dict:
    return {
        "multigraded": [[i, list(verts), b] for i, verts, b in table.multigraded_entries()],
        "graded": [[i, j, b] for i, j, b in table.graded_entries()],
    }


def _betti_text(table: BettiTable, n: int) -> str:
    pd, reg, depth = pd_reg_depth(table, n)
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


def _bundle(h: Hypergraph, cfg: RunConfig) -> SRInvariants:
    return sr_invariants(h, cfg.n_max, cfg.homology_n_max)


def _report_for(h: Hypergraph, cfg: RunConfig) -> dict:
    inv = _bundle(h, cfg)
    # the vertex side first, so a hypergraph over both limits is refused for n
    f_json = [str(v) for v in inv.f]
    series_num, series_dim = inv.hilbert_series_reduced
    report = {
        "hypergraph": h.to_json_dict(),
        "n": h.n,
        "m": h.m,
        "edge_induced_poly": {"text": inv.S.to_text(), "terms": bipoly_to_json_terms(inv.S)},
        "vertex_induced_poly": {"text": inv.P.to_text(), "terms": bipoly_to_json_terms(inv.P)},
        "independence_poly": f_json,
        "f_vector": f_json,
        "h_vector": [str(v) for v in inv.h],
        "krull_dim": inv.krull_dim,
        "multiplicity": str(inv.multiplicity),
        "k_polynomial": {"text": inv.k_polynomial.to_text(), "coefficients": unipoly_to_json(inv.k_polynomial)},
        "hilbert_series": {
            "numerator": unipoly_to_json(inv.k_polynomial),
            "denominator_power": h.n,
            "reduced_numerator": unipoly_to_json(series_num),
            "reduced_denominator_power": series_dim,
        },
        "hilbert_function": [str(v) for v in inv.hilbert_function(cfg.k_max)],
    }
    if h.n <= cfg.homology_n_max:
        table = inv.betti
        pd, reg, depth = pd_reg_depth(table, h.n)
        top = top_betti_report(table, inv.k_polynomial)
        recovery = antidiagonal_recovery(table, inv.k_polynomial)
        report["betti"] = _betti_json(table)
        report["homological"] = {
            "projective_dimension": pd,
            "regularity_ring": reg,
            "regularity_ideal": reg + 1,
            "depth": depth,
        }
        report["top_betti"] = {
            "top_coefficient": str(top.top_coefficient),
            "entries": [[i, b] for i, b in sorted(top.top_entries.items())],
            "determined": top.determined,
        }
        report["antidiagonal_recovery"] = (
            {"applicable": True, "entries": [[j, b] for j, b in sorted(recovery.entries.items())]}
            if recovery.applicable
            else {"applicable": False, "violating_degree": recovery.violating_degree}
        )
    else:
        report["betti"] = None
        report["betti_skipped"] = (
            f"n={h.n} exceeds the homology limit {cfg.homology_n_max}"
        )
    report["identities"] = run_all(inv)
    return report


# -- subcommand handlers -------------------------------------------------------


def _cmd_compute(args, cfg: RunConfig) -> int:
    h = load_hypergraph(args.input)
    if args.poly == "S":
        poly = edge_induced_poly(h, cfg.n_max)
    elif args.poly == "P":
        poly = vertex_induced_poly(h, cfg.n_max)
    else:
        upoly = independence_poly(h, cfg.n_max)
        if cfg.fmt == "json":
            _emit_json(unipoly_to_json(upoly))
        else:
            _emit(upoly.to_text())
        return 0
    if cfg.fmt == "json":
        _emit_json(bipoly_to_json_terms(poly))
    else:
        _emit(poly.to_text())
    return 0


def _cmd_hilbert(args, cfg: RunConfig) -> int:
    h = load_hypergraph(args.input)
    values = _bundle(h, cfg).hilbert_function(cfg.k_max)
    if cfg.fmt == "json":
        _emit_json([str(v) for v in values])
    else:
        _emit(" ".join(str(v) for v in values))
    return 0


def _cmd_fvector(args, cfg: RunConfig) -> int:
    h = load_hypergraph(args.input)
    f = _bundle(h, cfg).f
    if cfg.fmt == "json":
        _emit_json([str(v) for v in f])
    else:
        _emit(_vector_text(f))
    return 0


def _cmd_hvector(args, cfg: RunConfig) -> int:
    h = load_hypergraph(args.input)
    hv = _bundle(h, cfg).h
    if cfg.fmt == "json":
        _emit_json([str(v) for v in hv])
    else:
        _emit(_vector_text(hv))
    return 0


def _cmd_betti(args, cfg: RunConfig) -> int:
    h = load_hypergraph(args.input)
    table = _bundle(h, cfg).betti
    if cfg.fmt == "json":
        _emit_json(_betti_json(table))
    else:
        _emit(_betti_text(table, h.n))
    return 0


def _cmd_deck(args, cfg: RunConfig) -> int:
    h = load_hypergraph(args.input)
    paths = write_deck(h.deck(), args.out_dir)
    if cfg.fmt == "json":
        _emit_json([str(p) for p in paths])
    else:
        for p in paths:
            _emit(str(p))
    return 0


def _cmd_reconstruct(args, cfg: RunConfig) -> int:
    deck = read_deck(args.deck)
    n = deck.origin_n
    if args.target == "S":
        poly = reconstruct_edge_poly([edge_induced_poly(c, cfg.n_max) for c in deck.cards], n)
        if cfg.fmt == "json":
            _emit_json(bipoly_to_json_terms(poly))
        else:
            _emit(poly.to_text())
    elif args.target == "P":
        poly = reconstruct_vertex_poly([vertex_induced_poly(c, cfg.n_max) for c in deck.cards], n)
        if cfg.fmt == "json":
            _emit_json(bipoly_to_json_terms(poly))
        else:
            _emit(poly.to_text())
    elif args.target == "fvector":
        f = reconstruct_f_vector(deck, cfg.n_max)
        if cfg.fmt == "json":
            _emit_json([str(v) for v in f])
        else:
            _emit(_vector_text(f))
    elif args.target == "hilbert":
        values = reconstruct_hilbert_function(deck, cfg.k_max, cfg.n_max)
        if cfg.fmt == "json":
            _emit_json([str(v) for v in values])
        else:
            _emit(" ".join(str(v) for v in values))
    else:
        table = reconstruct_multigraded_betti(deck, cfg.homology_n_max)
        if cfg.fmt == "json":
            payload = _betti_json(table)
            payload["top_complete"] = False
            _emit_json(payload)
        else:
            _emit(_betti_text(table, n))
    return 0


def _cmd_verify(args, cfg: RunConfig) -> int:
    inv = _bundle(load_hypergraph(args.input), cfg)
    if args.identity == "all":
        results = run_all(inv)
    else:
        results = {args.identity: run_identity(args.identity, inv)}
    failed = False
    lines = {}
    for ident, outcome in sorted(results.items()):
        if outcome is True:
            lines[ident] = "ok"
        elif outcome is False:
            lines[ident] = "FAIL"
            failed = True
        else:
            lines[ident] = str(outcome)
    if cfg.fmt == "json":
        _emit_json(lines)
    else:
        for ident, status in lines.items():
            _emit(f"identity {ident}: {status}")
    return 1 if failed else 0


def _cmd_report(args, cfg: RunConfig) -> int:
    path = Path(args.input)
    if path.is_dir():
        docs = []
        for name, h in load_corpus(path):
            try:
                docs.append({"name": name, "report": _report_for(h, cfg)})
            except LimitExceeded as exc:
                raise LimitExceeded(f"{name}: {exc}") from exc
        _emit_json(docs)
    else:
        _emit_json(_report_for(load_hypergraph(path), cfg))
    return 0


_HANDLERS = {
    "compute": _cmd_compute,
    "hilbert": _cmd_hilbert,
    "fvector": _cmd_fvector,
    "hvector": _cmd_hvector,
    "betti": _cmd_betti,
    "deck": _cmd_deck,
    "reconstruct": _cmd_reconstruct,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _HANDLERS[args.command](args, cfg)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalMismatch as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
