"""Tests of the input generator: python3 -m pytest perfbench/test_gen.py"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _write(tmp_path: Path, workload: str, seed: int, tag: str) -> dict[str, bytes]:
    root = tmp_path / tag
    gen.write_inputs(workload, seed, root, 2 * gen.pass_length(workload))
    return _files(root)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_bytes(tmp_path, workload):
    assert _write(tmp_path, workload, 7, "a") == _write(tmp_path, workload, 7, "b")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_other_seed_differs_within_the_same_size_band(tmp_path, workload):
    a = _write(tmp_path, workload, 7, "a")
    b = _write(tmp_path, workload, 8, "b")
    assert a != b
    for tag, files in (("a", a), ("b", b)):
        for name in files:
            n, edges = gen.parse(tmp_path / tag / name)
            assert all(0 < e < 1 << n for e in edges)
            assert not any(x != y and x & ~y == 0 for x in edges for y in edges), "not an antichain"
    if workload == "corpus":  # sampled members are named by their family index
        family = lambda names: sorted(x.rsplit("_", 1)[0] for x in names)  # noqa: E731
        assert family(a) == family(b)
        return
    assert a.keys() == b.keys()
    for name in a:
        na, ea = gen.parse(tmp_path / "a" / name)
        nb, eb = gen.parse(tmp_path / "b" / name)
        assert (na, len(ea)) == (nb, len(eb))


def test_generator_imports_nothing_from_hgpoly(tmp_path):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gen; from pathlib import Path\n"
        "for w in gen.WORKLOADS: gen.write_inputs(w, 1, Path(sys.argv[2]) / w, 1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'hgpoly'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(Path(gen.__file__).parent), str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
