from __future__ import annotations

import pytest

from lplab.construct import ConstructionResult, attach_pendants, build_gt, subdivide
from lplab.errors import UsageError
from lplab.graphs import Graph
from lplab.longest import longest_path_length
from lplab.systems import make_path_system, path_distance_value
from oracles import all_pairs_distances


@pytest.fixture
def k13_system(k13):
    return make_path_system(k13, [[1, 0, 2], [1, 0, 3], [2, 0, 3]], require_longest=True)


@pytest.fixture
def p4_system(p4):
    return make_path_system(p4, [[0, 1, 2, 3]], require_longest=True)


class TestAttachPendants:
    def test_star(self, k13, k13_system):
        g2, ps2 = attach_pendants(k13, k13_system)
        # member ends are the three leaves 1, 2, 3; one pendant each
        assert g2.n == 7 and g2.m == 6
        assert [p.vertices for p in ps2.paths] == [
            (4, 1, 0, 2, 5),
            (4, 1, 0, 3, 6),
            (5, 2, 0, 3, 6),
        ]

    def test_shared_ends_get_one_pendant(self):
        k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        ps = make_path_system(k4, [[0, 1, 2, 3], [0, 2, 1, 3]], require_longest=True)
        g2, ps2 = attach_pendants(k4, ps)
        assert g2.n == 6  # pendants only at 0 and 3, shared by both members
        assert ps2.paths[0].vertices == (4, 0, 1, 2, 3, 5)
        assert ps2.paths[1].vertices == (4, 0, 2, 1, 3, 5)

    def test_single_vertex_member(self, k13):
        ps = make_path_system(k13, [[0]], require_longest=False)
        g2, ps2 = attach_pendants(k13, ps)
        assert g2.n == 5
        assert ps2.paths[0].vertices == (4, 0)


class TestSubdivide:
    def test_identity_at_t0(self, p4, p4_system):
        g2, ps2 = subdivide(p4, 0, p4_system)
        assert g2 is p4 and ps2 is p4_system

    def test_p4_once(self, p4, p4_system):
        g2, ps2 = subdivide(p4, 1, p4_system)
        assert g2.n == 7 and g2.m == 6
        # edges (0,1), (1,2), (2,3) in sorted order get fresh vertices 4, 5, 6
        assert ps2.paths[0].vertices == (0, 4, 1, 5, 2, 6, 3)

    def test_member_direction_respected(self, p4):
        ps = make_path_system(p4, [[3, 2, 1, 0]], require_longest=True)
        _, ps2 = subdivide(p4, 1, ps)
        assert ps2.paths[0].vertices == (3, 6, 2, 5, 1, 4, 0)

    def test_negative_t(self, p4, p4_system):
        with pytest.raises(UsageError):
            subdivide(p4, -1, p4_system)

    def test_distance_scaling(self, c5):
        ps = make_path_system(c5, [[0, 1, 2, 3, 4]], require_longest=True)
        for t in (1, 2):
            g2, _ = subdivide(c5, t, ps)
            d1 = all_pairs_distances(c5)
            d2 = all_pairs_distances(g2)
            for u in range(c5.n):
                for v in range(c5.n):
                    assert d2[u][v] == (t + 1) * d1[u][v]


class TestBuildGt:
    def test_star_counts(self, k13, k13_system):
        for t in range(4):
            res = build_gt(k13, k13_system, t)
            assert res.vertex_count == 7 + 6 * t
            assert res.exact_bound == res.vertex_count
            assert res.nominal_bound == 4 + t * (3 + 6)
            assert res.pendant_count == 3 and res.k == 3

    def test_star_longest_preserved_and_f(self, k13, k13_system):
        for t in range(3):
            res = build_gt(k13, k13_system, t)
            assert {p.length for p in res.system.paths} == {longest_path_length(res.graph)}
            assert res.system.longest_certified
            # base members share the star center, which survives subdivision
            assert res.f_value == 0
            assert res.f_lower_witnessed is None

    def test_member_lengths_scale(self, k13, k13_system):
        res = build_gt(k13, k13_system, 2)
        for member in res.system.paths:
            assert member.length == (2 + 2) * 3  # (ell + 2)(t + 1)
        assert member.length == longest_path_length(res.graph)

    def test_p4_t2(self, p4, p4_system):
        res = build_gt(p4, p4_system, 2)
        assert res.vertex_count == 16
        assert {p.length for p in res.system.paths} == {longest_path_length(res.graph)}
        assert path_distance_value(res.system) == (0, frozenset(range(16)))

    def test_uncertified_rejected(self, p4):
        ps = make_path_system(p4, [[0, 1, 2, 3]], require_longest=False)
        with pytest.raises(UsageError):
            build_gt(p4, ps, 1)

    def test_negative_t(self, p4, p4_system):
        with pytest.raises(UsageError):
            build_gt(p4, p4_system, -1)

    def test_json_round_trip(self, k13, k13_system):
        res = build_gt(k13, k13_system, 1)
        blob = res.to_json()
        assert blob["vertex_count"] == 13
        assert blob["graph6"] is not None and blob["edge_list"] is None
        assert isinstance(res, ConstructionResult)

    def test_json_large_graph_uses_edge_list(self, k13, k13_system):
        res = build_gt(k13, k13_system, 10)  # 67 vertices > graph6 small limit
        blob = res.to_json()
        assert blob["graph6"] is None
        assert blob["edge_list"]["n"] == 67
