"""Reprint the ROADMAP baseline rows through the public functions.

Run from the repository root (about a minute on 2 cores):

    python3 perfbench/probe.py

Rows: `report` wall time on cycle12 and path13 (one CLI process each),
the P and S sweeps on cycle20, and `hochster_betti` on cycle12, cycle13
and path14 (in-process). Each row is a single run; the numbers are
printed for reading and are not gated.
"""

from __future__ import annotations

import os
import platform
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import Bench, SetupError  # noqa: E402


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def main() -> int:
    try:
        bench = Bench("probe", 0, Path.cwd())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        hg = bench.import_hgpoly()
        from hgpoly.corpus import cycle_graph, path_graph
        from hgpoly.formats import dump_hypergraph_json

        bench.work.mkdir(parents=True, exist_ok=True)
        print(f"# nproc={os.cpu_count()} python={platform.python_version()} source={bench.digest()}")
        for name, h in (("cycle12", cycle_graph(12)), ("path13", path_graph(13))):
            path = bench.work / f"{name}.json"
            path.write_text(dump_hypergraph_json(h))
            out = bench.work / f"{name}.out"
            wall, code, _ = bench.spawn(bench.cli + ["report", "--input", str(path)], out, 600)
            print(f"report {name:<8} {wall:8.3f} s  (exit {code})")
        c20 = cycle_graph(20)
        print(f"P sweep  cycle20  {timed(hg.vertex_induced_poly, c20):8.3f} s  (2^20 subsets)")
        print(f"S sweep  cycle20  {timed(hg.edge_induced_poly, c20):8.3f} s  (2^20 subsets)")
        for name, h in (("cycle12", cycle_graph(12)), ("cycle13", cycle_graph(13)), ("path14", path_graph(14))):
            print(f"hochster_betti {name:<8} {timed(hg.hochster_betti, h):8.3f} s")
    finally:
        bench.launcher.close()
        shutil.rmtree(bench.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
