"""The names of hgpoly that the benchmark harness under perfbench/ reads.

The harness is kept fixed between benchmark changes, so a library change
that renames or deletes one of these names breaks it while every other
test still passes. This file pins them, loads the harness's tracer by
path and runs the calls it makes.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import re
from pathlib import Path

import pytest

import hgpoly
from hgpoly import cli, parallel
from hgpoly.cli import main
from hgpoly.corpus import cycle_graph, path_graph
from hgpoly.formats import dump_hypergraph_json

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"

# module -> names that perfbench/run.py, probe.py and tracer.py read
HARNESS_NAMES = {
    "hgpoly": ("vertex_induced_poly", "edge_induced_poly", "hochster_betti"),
    "hgpoly.cli": ("main",),
    "hgpoly.corpus": ("cycle_graph", "path_graph"),
    "hgpoly.enumeration": ("vertex_induced_poly", "edge_induced_poly"),
    "hgpoly.formats": ("load_hypergraph", "dump_hypergraph_json", "write_deck"),
    "hgpoly.homology": ("BettiTable", "hochster_betti", "homology_dims_from_masks", "exact_rank"),
    "hgpoly.hypergraph": ("Hypergraph",),
    "hgpoly.parallel": ("_executor",),
    "hgpoly.stanley_reisner": ("f_vector", "hilbert_function"),
}


# Names the tracer still measures although the function is gone, so the
# metrics built on them read 0; each is for the benchmark's next change
# (ROADMAP item 1) to drop from perfbench/tracer.py.
DEAD_TRACER_NAMES = {
    "enumeration.independence_poly": "ROADMAP item 1: enumeration.independence_sweeps",
    "homology._is_cone": "ROADMAP item 1: homology.dims_self_s",
    "parallel.map_ordered": "ROADMAP item 1: parallel.*",
    "bipoly.divide_by_one_minus_t": "ROADMAP item 1: bipoly.series_calls, bipoly.series_s",
    "reconstruct.reconstruct_f_vector": "ROADMAP item 1: reconstruct.poly_s",
    "reconstruct.reconstruct_hilbert_function": "ROADMAP item 1: reconstruct.poly_s",
    "reconstruct.reconstruct_multigraded_betti": "ROADMAP item 1: reconstruct.betti_s, reconstruct.betti_self_s",
    "verify.verify_series_numerator": "ROADMAP item 1: verify.series_numerator_s",
    "verify.verify_deck_sums": "ROADMAP item 1: verify.deck_sums_s",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module", sorted(HARNESS_NAMES))
def test_harness_names_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in HARNESS_NAMES[module] if not hasattr(mod, name)]
    assert not missing, f"{module} lacks {missing}"


def test_corpus_defines_only_what_the_harness_reads():
    # the test families live in tests/families.py; none may creep back
    corpus = importlib.import_module("hgpoly.corpus")
    public = {
        name
        for name, obj in vars(corpus).items()
        if inspect.isfunction(obj) and obj.__module__ == corpus.__name__ and not name.startswith("_")
    }
    assert sorted(public) == sorted(HARNESS_NAMES["hgpoly.corpus"])


def _tracer_function_names(modules) -> set[str]:
    """Every quoted "<module>.<name>" in the tracer's source whose module
    is one it wraps, less the per-layer metric names."""
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    quoted = re.findall(r'"([A-Za-z_]\w*\.[\w.]+)"', TRACER_PATH.read_text())
    return {name for name in quoted if name.split(".", 1)[0] in modules and name not in metrics}


def test_tracer_names_resolve():
    # a deleted or renamed function silently zeroes the metric built on it
    names = _tracer_function_names(_load_tracer().MODULES)
    assert len(names) == 33
    missing = []
    for name in sorted(names):
        module, _, path = name.partition(".")
        obj = importlib.import_module(f"hgpoly.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == sorted(DEAD_TRACER_NAMES)


def test_harness_methods_exist():
    assert callable(hgpoly.BettiTable.multigraded_entries)
    # the tracer wraps the method it finds in the class's own __dict__
    assert "deck" in hgpoly.Hypergraph.__dict__ and callable(hgpoly.Hypergraph.deck)


def test_tracer_measures_what_the_deck_command_writes(tmp_path, capsys, monkeypatch):
    # the tracer counts formats.write_deck's files as len(arg.cards) of its first argument
    written, write_deck = [], cli.write_deck

    def recorded(*args, **kwargs):
        written.append((args, kwargs))
        return write_deck(*args, **kwargs)

    monkeypatch.setattr(cli, "write_deck", recorded)
    path = tmp_path / "path5.json"
    path.write_text(dump_hypergraph_json(path_graph(5)))
    assert main(["deck", "--input", str(path), "--out-dir", str(tmp_path / "cards")]) == 0
    capsys.readouterr()
    measure = _load_tracer()._measures(hgpoly)["formats.write_deck"]
    assert [measure(*args, **kwargs) for args, kwargs in written] == [(5, None)]


def test_tracer_installs_and_restores(tmp_path):
    tracer_mod = _load_tracer()
    before = {name: obj for name, obj in vars(hgpoly.enumeration).items() if inspect.isfunction(obj)}
    tracer = tracer_mod.Tracer(hgpoly)
    path = tmp_path / "cycle5.json"
    path.write_text(dump_hypergraph_json(cycle_graph(5)))
    tracer.install()
    try:
        assert main(["fvector", "--input", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert any(span[0] == "enumeration.vertex_induced_poly" for span in tracer.spans)
    after = {name: obj for name, obj in vars(hgpoly.enumeration).items() if inspect.isfunction(obj)}
    assert after == before
    metrics = tracer_mod.layer_metrics(tracer.spans, 1, 0)
    assert metrics["enumeration.vertex_sweeps"] == 1


def test_deck_then_reconstruct_parallel_exits_0(tmp_path, capsys):
    path = tmp_path / "path5.json"
    path.write_text(dump_hypergraph_json(path_graph(5)))
    cards = tmp_path / "cards"
    assert main(["deck", "--input", str(path), "--out-dir", str(cards), "--format", "json"]) == 0
    for target in ("S", "P", "fvector", "hilbert", "betti"):
        argv = ["reconstruct", "--deck", str(cards), "--target", target, "--parallel", "--format", "json"]
        assert main(argv) == 0, target
    assert hgpoly.parallel._executor is None
    capsys.readouterr()


def test_traced_directory_report_forks_and_restores(tmp_path, capsys, monkeypatch):
    # the traced corpus run forks a worker per extra core: under the tracer
    # it prints what it prints untraced and leaves every binding as it was
    for k in range(3):
        (tmp_path / f"c{k}.json").write_text(dump_hypergraph_json(cycle_graph(5 + k)))
    argv = ["report", "--input", str(tmp_path)]
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    assert main(argv) == 0
    untraced = capsys.readouterr().out
    tracer_mod = _load_tracer()
    modules = [hgpoly, *(importlib.import_module(f"hgpoly.{short}") for short in tracer_mod.MODULES)]

    def bindings():
        return [dict(vars(mod)) for mod in modules] + [dict(vars(hgpoly.Hypergraph))]

    before = bindings()
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    tracer = tracer_mod.Tracer(hgpoly)
    tracer.install()
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    assert (code, capsys.readouterr().out, len(forks)) == (0, untraced, 1)
    assert bindings() == before
