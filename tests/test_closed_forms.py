"""Betti tables against closed forms that share no code with the
homology engine (see the end of ``tests/oracles.py``)."""

from __future__ import annotations

import pytest

from hgpoly.corpus import complete_graph, cycle_graph, path_graph, star
from hgpoly.homology import hochster_betti

from . import oracles

# n up to 10 meets every residue mod 3 at least three times, and 13 is
# the largest size checked; 11 and 12 would add about 0.5 s to the suite
SIZES = [*range(1, 11), 13]


@pytest.mark.parametrize("n", SIZES)
def test_complete_graph(n):
    assert hochster_betti(complete_graph(n)).graded == oracles.complete_graph_graded(n)


# a star's restrictions hold full simplices on its leaves, so the cost
# about triples per leaf: 9 leaves take 0.04 s, 12 leaves 2 s
@pytest.mark.parametrize("m", range(0, 10))
def test_star(m):
    assert hochster_betti(star(m)).graded == oracles.star_graded(m)


@pytest.mark.parametrize("n", SIZES)
def test_path(n):
    assert hochster_betti(path_graph(n)).multigraded == oracles.path_cycle_multigraded(n, cycle=False)


@pytest.mark.parametrize("n", SIZES[2:])
def test_cycle(n):
    assert hochster_betti(cycle_graph(n)).multigraded == oracles.path_cycle_multigraded(n, cycle=True)
