from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every run draws the same examples, with no time limit per example, and
# keeps no example database on disk
settings.register_profile("lplab", derandomize=True, deadline=None, database=None)
settings.load_profile("lplab")

from lplab.construct import build_gt
from lplab.graphs import Graph, parse_graph6
from lplab.harness import generate_connected_graphs
from lplab.longest import LongestPathSet
from lplab.longest import Path as LPath
from lplab.systems import make_path_system


@pytest.fixture
def p4() -> Graph:
    return parse_graph6("Ch")


@pytest.fixture
def k13() -> Graph:
    """Star on 4 vertices, center 0."""
    return parse_graph6("Cs")


@pytest.fixture
def c5() -> Graph:
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


@pytest.fixture
def p7() -> Graph:
    return Graph.from_edges(7, [(i, i + 1) for i in range(6)])


@pytest.fixture
def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


# H: the Petersen graph minus one vertex, with a pendant (9, 10, 11) on each
# of that vertex's three former neighbours.  42 longest paths of length 9 and
# no vertex common to all of them, yet every two meet.
H_GRAPH6 = "KhAAPWU_?_@?"

# H': H with a second pendant at vertex 0 (13 vertices, 62 longest paths of
# length 9)
H_PRIME_GRAPH6 = "LhAAPWU_?_@?_?"

# Nine longest paths of H with no common vertex; f = 1.
H_SYSTEM = (
    (10, 3, 2, 1, 6, 8, 5, 7, 4, 11),
    (9, 0, 5, 7, 2, 3, 8, 6, 4, 11),
    (9, 0, 1, 6, 4, 7, 5, 8, 3, 10),
    (9, 0, 1, 2, 7, 5, 8, 6, 4, 11),
    (9, 0, 1, 6, 8, 5, 7, 2, 3, 10),
    (9, 0, 1, 2, 7, 4, 6, 8, 3, 10),
    (9, 0, 1, 2, 3, 8, 5, 7, 4, 11),
    (9, 0, 5, 8, 3, 2, 1, 6, 4, 11),
    (9, 0, 5, 7, 4, 6, 1, 2, 3, 10),
)


# A hand-built path set for C4 (graph6 "Cl"), injected as its longest paths:
# its four edges, which share no vertex, and of which 1-2 and 0-3 are disjoint
C4_EDGE_PATHS = LongestPathSet(
    length=1,
    paths=(LPath((0, 1)), LPath((1, 2)), LPath((2, 3)), LPath((0, 3))),
    truncated=False,
)


def cap_searches(monkeypatch, node_cap: int, min_demand: int = 1) -> None:
    """Cap at node_cap search nodes each cover search of check_conjecture
    that has a node cap (CONJECTURE_SUBSET_CAP) and a demand of at least
    min_demand: the k search at demand 1 and the max f climb above it.  The
    pair search, which runs uncapped, stays so; min_demand=2 caps the climb
    alone."""
    from lplab import harness

    search = harness.demand_cover

    def capped(rows, demand, k, cap=None):
        if cap is not None and demand >= min_demand:
            cap = node_cap
        return search(rows, demand, k, cap)

    monkeypatch.setattr(harness, "demand_cover", capped)


@pytest.fixture
def h_graph() -> Graph:
    return parse_graph6(H_GRAPH6)


@pytest.fixture(scope="session")
def h_g1() -> Graph:
    """G_1 built from H and H_SYSTEM: 33 vertices."""
    h = parse_graph6(H_GRAPH6)
    return build_gt(h, make_path_system(h, H_SYSTEM, require_longest=True), 1).graph


@pytest.fixture(scope="session")
def corpus_by_n() -> dict[int, list[Graph]]:
    """Connected graphs for n = 1..6, shared across the unit tests."""
    return {n: generate_connected_graphs(n) for n in range(1, 7)}


@pytest.fixture(scope="session")
def corpus8() -> list[Graph]:
    """Every connected graph with n <= 8 (12,113 graphs)."""
    graphs = []
    for n in range(1, 9):
        graphs.extend(generate_connected_graphs(n))
    return graphs
