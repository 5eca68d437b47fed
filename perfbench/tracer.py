"""Outside-in call tracer for the per-layer metrics.

The tracer wraps functions of the ``hgpoly`` modules from outside: each
wrapper replaces the function at every module binding (a function that
``cli`` imports by name from ``enumeration`` is replaced in both), so
calls made inside the program are seen too. Nothing under ``src/`` is
edited. Each call becomes a span (name, parent span, start, end, work
count, hypergraph key), kept in memory and written out when the run
ends. Spans inside process-pool workers are invisible from the parent;
the time the parent waits on the pool is reported instead.

``layer_metrics`` turns the spans into the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

MODULES = (
    "bipoly", "cli", "corpus", "enumeration", "formats", "homology",
    "hypergraph", "parallel", "reconstruct", "stanley_reisner", "verify",
)
# Private helpers that hold a layer's work behind a public function.
PRIVATE = {
    "homology": ("_edge_union_closure", "_restriction_faces", "_faces_by_dim",
                 "_is_cone", "_boundary_matrix"),
}
# mask_indices runs once per face inside other helpers; a span per call
# would cost more than the work it measures.
SKIP = {("hypergraph", "mask_indices")}
METHODS = (("hypergraph", "Hypergraph", "deck"),)


def _hg_key(h, side=None):
    return (h.labels, h.edges) if side is None else (h.labels, h.edges, side)


def _pool_tasks(parallel_mod):
    def measure(fn, tasks, parallel=False):
        used = parallel and len(tasks) >= 2 and parallel_mod.MAX_WORKERS >= 2
        return (len(tasks) if used else 0), None
    return measure


# name -> function(*args, **kwargs) -> (work count, key)
def _measures(hg) -> dict:
    return {
        "enumeration.vertex_induced_poly": lambda h, *a, **k: (1 << h.n, _hg_key(h, "vertex")),
        "enumeration.independence_poly": lambda h, *a, **k: (1 << h.n, _hg_key(h, "vertex")),
        "enumeration.edge_induced_poly": lambda h, *a, **k: (1 << h.m, _hg_key(h, "edge")),
        "homology.hochster_betti": lambda h, *a, **k: (0, _hg_key(h)),
        "homology.homology_dims_from_masks": lambda faces, *a, **k: (len(faces), None),
        "homology.exact_rank": lambda rows, *a, **k: (len(rows) * (len(rows[0]) if rows else 0), None),
        "parallel.map_ordered": _pool_tasks(hg.parallel),
        "formats.write_deck": lambda deck, *a, **k: (len(deck.cards), None),
    }


class Tracer:
    def __init__(self, hg_package) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._hg = hg_package
        self._measure = _measures(hg_package)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        measure = self._measure.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            count, key = measure(*args, **kwargs) if measure else (0, None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end, count, key)

        return traced

    def install(self) -> None:
        mods = {short: importlib.import_module(f"hgpoly.{short}") for short in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if (attr.startswith("_") and attr not in PRIVATE.get(short, ())) or (short, attr) in SKIP:
                    continue
                wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in [self._hg, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: [id, parent, name, start, end, count]."""
        with open(path, "w") as out:
            for sid, (name, parent, start, end, count, _) in enumerate(self.spans):
                out.write(json.dumps([sid, parent, name, start, end, count]) + "\n")


def layer_metrics(spans: list, ops: int, out_bytes: int) -> dict[str, float]:
    """Per-op layer numbers from the spans of `ops` traced ops."""
    dur = [end - start for _, _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for sid, (_, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[sid]
    names = [s[0] for s in spans]
    by_name: dict[str, list[int]] = defaultdict(list)
    by_layer: dict[str, list[int]] = defaultdict(list)
    for sid, name in enumerate(names):
        by_name[name].append(sid)
        by_layer[name.split(".", 1)[0]].append(sid)

    def ids(*fn_names: str) -> list[int]:
        return [sid for name in fn_names for sid in by_name.get(name, ())]

    def outermost(sid: int, group: set[int]) -> bool:
        parent = spans[sid][1]
        while parent >= 0:
            if parent in group:
                return False
            parent = spans[parent][1]
        return True

    def busy_of(group: list[int]) -> float:
        members = set(group)
        return sum(dur[s] for s in group if outermost(s, members))

    def self_of(group: list[int]) -> float:
        return sum(dur[s] - child[s] for s in group)

    def busy(*fn_names: str) -> float:
        return busy_of(ids(*fn_names))

    def self_time(*fn_names: str) -> float:
        return self_of(ids(*fn_names))

    def calls(*fn_names: str) -> int:
        return len(ids(*fn_names))

    def work(*fn_names: str) -> int:
        return sum(spans[s][4] for s in ids(*fn_names))

    def distinct(*fn_names: str) -> int:
        return len({spans[s][5] for s in ids(*fn_names)})

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    sweeps = ("enumeration.vertex_induced_poly", "enumeration.edge_induced_poly",
              "enumeration.independence_poly")
    has_rank_child = {spans[s][1] for s in ids("homology.exact_rank")}
    complexes = ids("homology.homology_dims_from_masks")
    pool_spans = [s for s in ids("parallel.map_ordered") if spans[s][4]]
    enum_busy = busy_of(by_layer["enumeration"])
    rank_s = busy("homology.exact_rank")
    raw = {
        "enumeration.vertex_sweeps": calls(sweeps[0]),
        "enumeration.edge_sweeps": calls(sweeps[1]),
        "enumeration.independence_sweeps": calls(sweeps[2]),
        "enumeration.subsets": work(*sweeps),
        "enumeration.busy_s": enum_busy,
        "homology.betti_tables": calls("homology.hochster_betti"),
        "homology.betti_s": busy("homology.hochster_betti"),
        "homology.closure_faces_self_s": self_time("homology._edge_union_closure", "homology._restriction_faces"),
        "homology.complexes": len(complexes),
        "homology.faces": work("homology.homology_dims_from_masks"),
        "homology.dims_self_s": self_time("homology.homology_dims_from_masks", "homology._faces_by_dim",
                                          "homology._is_cone", "homology._boundary_matrix"),
        "homology.rank_calls": calls("homology.exact_rank"),
        "homology.rank_cells": work("homology.exact_rank"),
        "homology.rank_s": rank_s,
        "reconstruct.betti_s": busy("reconstruct.reconstruct_multigraded_betti"),
        "reconstruct.betti_self_s": self_time("reconstruct.reconstruct_multigraded_betti"),
        "reconstruct.poly_s": busy("reconstruct.reconstruct_edge_poly", "reconstruct.reconstruct_vertex_poly",
                                   "reconstruct.reconstruct_f_vector", "reconstruct.reconstruct_hilbert_function"),
        "reconstruct.deck_sum_s": busy("reconstruct.verify_deck_sum_identity"),
        "parallel.map_calls": calls("parallel.map_ordered"),
        "parallel.pool_calls": len(pool_spans),
        "parallel.tasks": work("parallel.map_ordered"),
        "parallel.wait_s": sum(dur[s] for s in pool_spans),
        "verify.transform_s": busy("verify.verify_transform"),
        "verify.coeff_relation_s": busy("verify.verify_coefficient_relation"),
        "verify.series_numerator_s": busy("verify.verify_series_numerator"),
        "verify.deck_sums_s": busy("verify.verify_deck_sums"),
        "verify.betti_sum_s": busy("homology.verify_betti_alternating_sum"),
        "bipoly.transform_calls": calls("bipoly.to_edge_form", "bipoly.to_vertex_form"),
        "bipoly.transform_s": busy("bipoly.to_edge_form", "bipoly.to_vertex_form"),
        "bipoly.series_calls": calls("bipoly.expand_series", "bipoly.divide_by_one_minus_t"),
        "bipoly.series_s": busy("bipoly.expand_series", "bipoly.divide_by_one_minus_t"),
        "stanley_reisner.calls": len(by_layer["stanley_reisner"]),
        "stanley_reisner.self_s": self_of(by_layer["stanley_reisner"]),
        "hypergraph.validate_calls": calls("hypergraph.validate"),
        "hypergraph.validate_s": busy("hypergraph.validate"),
        "hypergraph.deck_calls": calls("hypergraph.Hypergraph.deck"),
        "hypergraph.deck_s": busy("hypergraph.Hypergraph.deck"),
        "formats.read_s": busy("formats.load_hypergraph", "formats.load_corpus", "formats.read_deck"),
        "formats.files_read": calls("formats.load_hypergraph"),
        "formats.write_s": busy("formats.write_deck"),
        "formats.files_written": work("formats.write_deck"),
        "cli.self_s": self_of(by_layer["cli"]),
        "cli.out_bytes": out_bytes,
    }
    out = {name: value / ops for name, value in raw.items()}
    n_sweeps = calls(*sweeps)
    out["enumeration.subsets_per_s"] = ratio(raw["enumeration.subsets"], enum_busy)
    out["enumeration.distinct_sweep_ratio"] = ratio(distinct(*sweeps), n_sweeps)
    out["homology.distinct_table_ratio"] = ratio(distinct("homology.hochster_betti"), raw["homology.betti_tables"])
    out["homology.shortcut_ratio"] = ratio(sum(1 for s in complexes if s not in has_rank_child), len(complexes))
    out["homology.rank_cells_per_s"] = ratio(raw["homology.rank_cells"], rank_s)
    return out
