"""Betti tables against closed forms that share no code with the
homology engine (see the end of ``tests/oracles.py``)."""

from __future__ import annotations

import pytest

from hgpoly.homology import hochster_betti

from . import oracles
from .families import complete_graph, cycle_graph, path_graph, star

# n up to 10 meets every residue mod 3 at least three times, and 13 is
# the largest size checked on every family; 11 and 12 would add about
# 0.3 s to the suite. Paths and cycles also run at n = 16 (homology limit
# 16), about 0.7 s, most of it in their 2^16-subset oracle
SIZES = [*range(1, 11), 13]


@pytest.mark.parametrize("n", SIZES)
def test_complete_graph(n):
    assert hochster_betti(complete_graph(n)).graded == oracles.complete_graph_graded(n)


# a star's restrictions fold to single edges: 12 leaves take about 0.03 s
@pytest.mark.parametrize("m", range(0, 13))
def test_star(m):
    assert hochster_betti(star(m)).graded == oracles.star_graded(m)


@pytest.mark.parametrize("n", [*SIZES, 16])
def test_path(n):
    assert hochster_betti(path_graph(n), 16).multigraded == oracles.path_cycle_multigraded(n, cycle=False)


@pytest.mark.parametrize("n", [*SIZES[2:], 16])
def test_cycle(n):
    assert hochster_betti(cycle_graph(n), 16).multigraded == oracles.path_cycle_multigraded(n, cycle=True)
