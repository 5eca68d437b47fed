from __future__ import annotations

import pytest

from hgpoly.hypergraph import Hypergraph, validate

from .families import default_corpus


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, Hypergraph]]:
    return default_corpus()


@pytest.fixture
def k3() -> Hypergraph:
    return validate(["a", "b", "c"], [["a", "b"], ["a", "c"], ["b", "c"]])


@pytest.fixture
def path3() -> Hypergraph:
    return validate(["a", "b", "c"], [["a", "b"], ["b", "c"]])


@pytest.fixture
def edgeless3() -> Hypergraph:
    return validate(["a", "b", "c"], [])
