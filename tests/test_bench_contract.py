"""The names of hgpoly that the benchmark harness under perfbench/ reads.

The harness is kept fixed between benchmark changes, so a library change
that renames or deletes one of these names breaks it while every other
test still passes. This file pins them, loads the harness's tracer by
path and runs the calls it makes.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import pytest

import hgpoly
from hgpoly.cli import main
from hgpoly.corpus import cycle_graph, path_graph
from hgpoly.formats import dump_hypergraph_json

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

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


def test_harness_methods_exist():
    assert callable(hgpoly.BettiTable.multigraded_entries)
    assert callable(hgpoly.Hypergraph.deck)


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
