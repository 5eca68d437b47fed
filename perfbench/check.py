"""Output checks that do not reuse the program's own identity report.

Each check recomputes a value from the input file or from another field
of the output by a route written here, never by calling the program:

* brute force over all subsets for n <= 8 (both polynomials);
* S(1, 1) = 2^m and P(1, 1) = 2^n;
* f is the coefficient list of P(x, 0), and K(t) = S(t, -1);
* h, Krull dimension, multiplicity and the Hilbert function from f;
* the signed column sums of the graded Betti table equal K(t), and the
  multigraded table sums to the graded one;
* no identity in the report reads False.

Deck outputs are compared with the parent's values, which the caller
computes before the timed phase. Every function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
from math import comb

BRUTE_FORCE_N = 8


def _terms(entries) -> dict[tuple[int, int], int]:
    return {(i, j): int(c) for i, j, c in entries}


def brute_force(n: int, edges: list[int]) -> tuple[dict, dict]:
    """(P, S) term dicts by direct enumeration of every subset."""
    p: dict[tuple[int, int], int] = {}
    for w in range(1 << n):
        key = (w.bit_count(), sum(1 for e in edges if e & ~w == 0))
        p[key] = p.get(key, 0) + 1
    s: dict[tuple[int, int], int] = {}
    for sub in range(1 << len(edges)):
        union = 0
        for k, e in enumerate(edges):
            if sub >> k & 1:
                union |= e
        key = (union.bit_count(), sub.bit_count())
        s[key] = s.get(key, 0) + 1
    return p, s


def hilbert_from_faces(f: list[int], k_max: int) -> list[int]:
    return [1] + [sum(f[i] * comb(k - 1, i - 1) for i in range(1, len(f))) for k in range(1, k_max + 1)]


def h_from_faces(f: list[int]) -> list[int]:
    d = len(f) - 1
    out = [0] * (d + 1)
    for i, fi in enumerate(f):
        for k in range(i, d + 1):
            out[k] += fi * comb(d - i, k - i) * (-1) ** (k - i)
    return out


def _coeffs(values) -> list[int]:
    out = [int(v) for v in values]
    while out and out[-1] == 0:
        out.pop()
    return out


def check_report(report: dict, n: int, edges: list[int]) -> list[str]:
    """Problems with one hypergraph's `report` document."""
    bad = []
    m = len(edges)
    s = _terms(report["edge_induced_poly"]["terms"])
    p = _terms(report["vertex_induced_poly"]["terms"])
    if (report["n"], report["m"]) != (n, m):
        bad.append(f"n, m = {report['n']}, {report['m']}; input has {n}, {m}")
    if sum(s.values()) != 1 << m:
        bad.append("S(1,1) != 2^m")
    if sum(p.values()) != 1 << n:
        bad.append("P(1,1) != 2^n")
    if n <= BRUTE_FORCE_N:
        bp, bs = brute_force(n, edges)
        if p != bp:
            bad.append("P differs from brute force")
        if s != bs:
            bad.append("S differs from brute force")
    f = _coeffs(p.get((i, 0), 0) for i in range(n + 1))
    if _coeffs(report["f_vector"]) != f or _coeffs(report["independence_poly"]) != f:
        bad.append("f is not the coefficient list of P(x, 0)")
    k = _coeffs(sum(c * (-1) ** j for (i2, j), c in s.items() if i2 == i) for i in range(n + 1))
    if _coeffs(report["k_polynomial"]["coefficients"]) != k:
        bad.append("K(t) != S(t, -1)")
    if [int(v) for v in report["h_vector"]] != h_from_faces(f):
        bad.append("h is not the binomial transform of f")
    if report["krull_dim"] != len(f) - 1 or int(report["multiplicity"]) != f[-1]:
        bad.append("Krull dimension or multiplicity disagrees with f")
    hilbert = [int(v) for v in report["hilbert_function"]]
    if hilbert != hilbert_from_faces(f, len(hilbert) - 1):
        bad.append("Hilbert function disagrees with the face counts")
    betti = report.get("betti")
    if betti is not None:
        bad += _check_betti(betti, k)
    for ident, outcome in report["identities"].items():
        if outcome is False:
            bad.append(f"identity {ident} reads False")
    return bad


def _check_betti(betti: dict, k: list[int]) -> list[str]:
    bad = []
    graded: dict[tuple[int, int], int] = {}
    for i, verts, b in betti["multigraded"]:
        graded[(i, len(verts))] = graded.get((i, len(verts)), 0) + b
    if graded != {(i, j): b for i, j, b in betti["graded"]}:
        bad.append("multigraded Betti entries do not sum to the graded table")
    signed: dict[int, int] = {}
    for (i, j), b in graded.items():
        signed[j] = signed.get(j, 0) + (-b if i & 1 else b)
    if _coeffs(signed.get(j, 0) for j in range(max(signed, default=-1) + 1)) != k:
        bad.append("signed Betti column sums != K(t)")
    return bad


def check_report_output(text: str, inputs: dict[str, tuple[int, list[int]]]) -> list[str]:
    """Problems with a `report` run; inputs maps file name to (n, edges).
    A directory run prints a list of {name, report}; a file run prints
    one report."""
    doc = json.loads(text)
    if isinstance(doc, dict):
        ((name, (n, edges)),) = inputs.items()
        return [f"{name}: {b}" for b in check_report(doc, n, edges)]
    if sorted(entry["name"] for entry in doc) != sorted(inputs):
        return ["report names do not match the corpus files"]
    bad = []
    for entry in doc:
        n, edges = inputs[entry["name"]]
        bad += [f"{entry['name']}: {b}" for b in check_report(entry["report"], n, edges)]
    return bad


def check_deck_outputs(texts: dict[str, str], reference: dict) -> list[str]:
    """Problems with the outputs of `deck` and the five `reconstruct`
    targets; reference holds the parent's values (see Bench.references
    in run.py)."""
    bad = []
    if len(json.loads(texts["deck"])) != reference["n"]:
        bad.append("deck wrote the wrong number of cards")
    for target in ("S", "P"):
        if _terms(json.loads(texts[target])) != reference[target]:
            bad.append(f"reconstructed {target} differs from the parent's")
    if _coeffs(json.loads(texts["fvector"])) != reference["fvector"]:
        bad.append("reconstructed f differs from the parent's")
    if [int(v) for v in json.loads(texts["hilbert"])] != reference["hilbert"]:
        bad.append("reconstructed Hilbert function differs from the parent's")
    betti = json.loads(texts["betti"])
    got = sorted((i, tuple(v), b) for i, v, b in betti["multigraded"])
    if got != reference["betti"] or betti.get("top_complete") is not False:
        bad.append("reconstructed Betti table differs from the parent's below the top row")
    return bad
