from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lplab.harness
import lplab.systems
from lplab.construct import build_gt
from lplab.errors import UsageError
from lplab.graphs import Graph
from lplab.harness import ScanConfig, check_conjecture, scan_stream
from lplab.longest import Path
from lplab.longest import common_mask, enumerate_longest_paths
from lplab.systems import (
    certified_system,
    common_vertices,
    enumerate_good_paths,
    make_path_system,
    path_distance_value,
)
from conftest import H_SYSTEM
from oracles import f_and_minimizers_oracle, max_edge_disjoint_oracle, x_low_sizes_oracle


@pytest.fixture
def k13_system(k13):
    """The three longest paths of the star, as a certified system."""
    return make_path_system(k13, [[1, 0, 2], [1, 0, 3], [2, 0, 3]], require_longest=True)


@pytest.fixture
def branchy_system():
    """Relaxed 10-vertex system with exactly one good subpath on member 0."""
    g = Graph.from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (1, 7), (7, 5), (8, 3), (3, 9), (9, 5), (2, 6)],
    )
    members = [[0, 1, 2, 3, 4], [1, 7, 5], [8, 3, 9, 5], [2, 6]]
    return make_path_system(g, members, require_longest=False)


class TestMakePathSystem:
    def test_certifies(self, k13_system):
        assert k13_system.k == 3
        assert k13_system.longest_certified
        assert k13_system.multiplicity == (3, 2, 2, 2)

    def test_relaxed_members_allowed(self, p4):
        ps = make_path_system(p4, [[0, 1], [2, 3]], require_longest=False)
        assert not ps.longest_certified

    def test_rejects_non_path(self, p4):
        with pytest.raises(UsageError, match="member 1 is not a path"):
            make_path_system(p4, [[0, 1], [0, 2]], require_longest=False)

    @pytest.mark.parametrize("require_longest", [True, False])
    @pytest.mark.parametrize("again", [[1, 0, 2], [2, 0, 1]])
    def test_rejects_repeated_member(self, k13, require_longest, again):
        # one path given twice, in either direction, is one member
        with pytest.raises(UsageError, match="member 2 repeats member 0"):
            make_path_system(k13, [[1, 0, 2], [1, 0, 3], again], require_longest)

    def test_rejects_short_member_when_longest_required(self, p4):
        with pytest.raises(UsageError, match="member 0 is not a longest path"):
            make_path_system(p4, [[0, 1]], require_longest=True)

    def test_rejects_empty(self, p4):
        for build in (
            lambda: make_path_system(p4, [], require_longest=False),
            lambda: make_path_system(p4, [], require_longest=True),
            lambda: certified_system(p4, [], 3),
        ):
            with pytest.raises(UsageError, match="at least one member"):
                build()

    def test_certified_system_checks_length(self, p4):
        lps = enumerate_longest_paths(p4)
        ps = certified_system(p4, lps.paths, lps.length)
        assert ps.longest_certified
        with pytest.raises(UsageError, match="member 0 is not a longest path"):
            certified_system(p4, lps.paths, lps.length + 1)


class TestPathDistanceValue:
    def test_star(self, k13_system):
        assert path_distance_value(k13_system) == (0, frozenset({0}))

    def test_relaxed_p7(self, p7):
        ps = make_path_system(p7, [[0, 1], [2, 3], [5, 6]], require_longest=False)
        assert path_distance_value(ps) == (4, frozenset({2, 3}))

    def test_disconnected_rejected(self):
        # two disjoint edges: no vertex has a distance to both members
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        ps = make_path_system(g, [[0, 1], [2, 3]], require_longest=False)
        with pytest.raises(UsageError, match="requires a connected graph"):
            path_distance_value(ps)

    def test_matches_oracle_on_corpus(self, corpus_by_n, h_graph):
        systems = []
        for n in (4, 5):
            for g in corpus_by_n[n]:
                lps = enumerate_longest_paths(g)
                for combo in itertools.combinations(lps.paths, min(3, len(lps.paths))):
                    systems.append(certified_system(g, combo, lps.length))
        assert len(systems) > 50
        # the nine members of H and of G_1 share no vertex, so their f comes
        # from BFS: f = 1 and f = 2
        h_system = make_path_system(h_graph, H_SYSTEM, require_longest=True)
        systems += [h_system, build_gt(h_graph, h_system, 1).system]
        for ps in systems:
            f, mins = path_distance_value(ps)
            assert (f, sorted(mins)) == f_and_minimizers_oracle(
                ps.graph, [p.vertices for p in ps.paths]
            )
        assert [ps.path_distance[0] for ps in systems[-2:]] == [1, 2]

    def test_zero_iff_common_vertex(self, corpus_by_n):
        for g in corpus_by_n[5]:
            lps = enumerate_longest_paths(g)
            for combo in itertools.combinations(lps.paths, min(3, len(lps.paths))):
                ps = certified_system(g, combo, lps.length)
                f, _ = path_distance_value(ps)
                assert (f == 0) == bool(common_vertices(ps))


class TestDistanceWork:
    """f runs BFS only on paths with no common vertex."""

    @pytest.fixture
    def bfs_calls(self, monkeypatch):
        calls = []
        bfs = lplab.systems.bfs_distances

        def counted(g, sources):
            calls.append(sources)
            return bfs(g, sources)

        monkeypatch.setattr(lplab.systems, "bfs_distances", counted)
        monkeypatch.setattr(lplab.harness, "bfs_distances", counted)
        return calls

    def test_no_bfs_in_default_check_scans(self, corpus_by_n, bfs_calls):
        # every n <= 6 graph has a vertex common to all its longest paths,
        # so every sampled lemma subset has f = 0, and its verdicts are
        # implied with no path system built
        corpus = [g for n in range(1, 7) for g in corpus_by_n[n]]
        reports = {k: scan_stream(corpus, ScanConfig(k=k)) for k in (3, 4)}
        assert {k: r.lemma_systems for k, r in reports.items()} == {3: 0, 4: 0}
        assert {k: r.lemma_implied for k, r in reports.items()} == {3: 988, 4: 923}
        assert bfs_calls == []

    def test_one_bfs_per_member_without_common_vertex(self, h_graph, bfs_calls):
        ps = make_path_system(h_graph, H_SYSTEM, require_longest=True)
        assert path_distance_value(ps) == (1, frozenset(range(9)))
        assert len(bfs_calls) == 9

    def test_greatest_f_runs_one_bfs_per_path(self, h_graph, bfs_calls):
        # one BFS per longest path of H serves the demand-1 search, the
        # witness's f and the climb: at k = 8 every k paths meet and
        # max f = 0, at k = 18 the climb reaches 2
        lps = enumerate_longest_paths(h_graph)
        verdict = check_conjecture(h_graph, 8, lps=lps)
        assert (verdict.max_f, verdict.max_f_subset, verdict.max_f_exact) == (0, None, True)
        assert len(bfs_calls) == len(set(bfs_calls)) == len(lps)
        bfs_calls.clear()
        verdict = check_conjecture(h_graph, 18, lps=lps)
        subset = verdict.max_f_subset
        assert (verdict.max_f, len(subset), verdict.max_f_exact) == (2, 18, True)
        assert len(bfs_calls) == len(set(bfs_calls)) == len(lps)
        f_oracle, _ = f_and_minimizers_oracle(h_graph, [lps.paths[i].vertices for i in subset])
        assert f_oracle == 2


class TestCommonVertices:
    def test_star(self, k13_system):
        assert common_vertices(k13_system) == frozenset({0})

    def test_empty(self, p4):
        ps = make_path_system(p4, [[0, 1], [2, 3]], require_longest=False)
        assert common_vertices(ps) == frozenset()


class TestMultiplicityProfile:
    def test_star(self, k13_system):
        # the center is on all three members, each leaf on two
        assert k13_system.n_counts == (0, 3, 1)

    def test_weighted_count_identity(self, corpus_by_n):
        # sum of i * n_i equals the total vertex count over members, k(ell+1)
        for g in corpus_by_n[5]:
            lps = enumerate_longest_paths(g)
            k = min(3, len(lps.paths))
            for combo in itertools.combinations(lps.paths, k):
                ps = certified_system(g, combo, lps.length)
                total = sum((i + 1) * c for i, c in enumerate(ps.n_counts))
                assert total == k * (lps.length + 1)


class TestGoodPaths:
    def test_star_host0(self, k13_system):
        goods = enumerate_good_paths(k13_system, 0)
        intervals = sorted((q.start, q.end) for q in goods)
        assert intervals == [(0, 1), (1, 1), (1, 2)]
        single = next(q for q in goods if (q.start, q.end) == (1, 1))
        assert set(single.witness_pairs) == {(1, 2), (2, 1)}
        assert single.n_vertices == 1 and single.end - single.start == 0

    def test_star_counts(self, k13_system):
        for host in range(3):
            assert len(enumerate_good_paths(k13_system, host)) == 3
            assert k13_system.t_primes[host] == 3

    def test_branchy_single_good(self, branchy_system):
        goods = enumerate_good_paths(branchy_system, 0)
        assert len(goods) == 1
        q = goods[0]
        assert (q.start, q.end) == (1, 3)
        assert q.witness_pairs == ((1, 2),)
        assert q.n_vertices == 3

    def test_no_goods_when_member_missed(self, p7):
        # member 2 is far from member 0's vertex set: no interval of host 0
        # that meets everything can exist inside [0,1]
        ps = make_path_system(p7, [[0, 1], [1, 2], [5, 6]], require_longest=False)
        assert enumerate_good_paths(ps, 0) == []
        assert ps.t_primes[0] == 0
        assert ps.good_summaries[0] == (None, 0)

    def test_requires_three_members(self, p4):
        ps = make_path_system(p4, [[0, 1], [1, 2]], require_longest=False)
        with pytest.raises(UsageError):
            enumerate_good_paths(ps, 0)

    def test_host_index_range(self, k13_system):
        # -1 must not wrap to the last member
        for bad in (-1, 3):
            with pytest.raises(UsageError):
                enumerate_good_paths(k13_system, bad)

    def test_t_prime_matches_exhaustive_oracle(self, corpus_by_n):
        checked = 0
        for g in corpus_by_n[6][:60]:
            lps = enumerate_longest_paths(g)
            if len(lps.paths) < 3:
                continue
            for combo in itertools.combinations(lps.paths, 3):
                ps = certified_system(g, combo, lps.length)
                for host in range(3):
                    goods = enumerate_good_paths(ps, host)
                    if not goods:
                        continue
                    assert ps.t_primes[host] == max_edge_disjoint_oracle(goods)
                    checked += 1
        assert checked > 100

    def test_good_interiors_avoid_witness_members(self, corpus_by_n):
        for g in corpus_by_n[6][:40]:
            lps = enumerate_longest_paths(g)
            if len(lps.paths) < 3:
                continue
            combo = lps.paths[:3]
            ps = certified_system(g, combo, lps.length)
            for host in range(3):
                seq = ps.paths[host].vertices
                for q in enumerate_good_paths(ps, host):
                    interior = set(seq[q.start + 1 : q.end])
                    for i, j in q.witness_pairs:
                        assert seq[q.start] in ps.paths[i].vertices
                        assert seq[q.end] in ps.paths[j].vertices
                        assert not interior & set(ps.paths[i].vertices)
                        assert not interior & set(ps.paths[j].vertices)


class TestCertifiedInvariants:
    def test_t_and_f_laws(self, corpus_by_n):
        """t >= t' and f <= k * (n - 1) over certified 3-member systems."""
        for g in corpus_by_n[5]:
            lps = enumerate_longest_paths(g)
            if len(lps.paths) < 3:
                continue
            for combo in itertools.combinations(lps.paths, 3):
                ps = certified_system(g, combo, lps.length)
                f, _ = path_distance_value(ps)
                assert 0 <= f <= 3 * (g.n - 1)
                if f > 0:
                    assert ps.n_counts[2] == 0  # no vertex on all members
                for host in range(3):
                    assert len(enumerate_good_paths(ps, host)) >= ps.t_primes[host] >= 0


@st.composite
def connected_graphs(draw, max_n=10) -> Graph:
    """A connected graph on 3..max_n vertices: a random tree plus up to 2n
    other edges."""
    n = draw(st.integers(3, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    absent = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    edges += draw(st.lists(st.sampled_from(absent), max_size=2 * n, unique=True))
    return Graph.from_edges(n, edges)


@st.composite
def longest_path_systems(draw):
    """(graph, ell, members): k = 3..5 distinct longest paths of a connected
    graph, drawn from the first 60 of them."""
    g = draw(connected_graphs())
    lps = enumerate_longest_paths(g, cap=60)
    k = draw(st.integers(3, 5))
    assume(len(lps) >= k)
    picked = draw(st.lists(st.integers(0, len(lps) - 1), min_size=k, max_size=k, unique=True))
    return g, lps.length, [lps.paths[i] for i in picked]


@st.composite
def walk_systems(draw):
    """(graph, members): 2..5 distinct paths of a connected graph, each a
    random self-avoiding walk, so that members often share no vertex."""
    g = draw(connected_graphs(max_n=8))
    members = {}
    for _ in range(draw(st.integers(2, 5))):
        seq = [draw(st.integers(0, g.n - 1))]
        while draw(st.booleans()):
            ahead = [v for v in range(g.n) if g.has_edge(seq[-1], v) and v not in seq]
            if not ahead:
                break
            seq.append(draw(st.sampled_from(ahead)))
        members.setdefault(min(tuple(seq), tuple(seq[::-1])), seq)
    assume(len(members) >= 2)
    return g, list(members.values())


class TestProperties:
    """Path-system facts against their definitions, on random connected
    graphs."""

    @given(longest_path_systems())
    @settings(max_examples=200)
    def test_longest_path_subsets(self, drawn):
        g, ell, members = drawn
        ps = certified_system(g, members, ell)
        k = ps.k
        f, _ = f_and_minimizers_oracle(g, [p.vertices for p in members])
        assert (f == 0) == bool(common_mask(members))
        assert path_distance_value(ps)[0] == f
        # sum of i * n_i counts each member's ell + 1 vertices once
        assert sum(i * c for i, c in enumerate(ps.n_counts, start=1)) == k * (ell + 1)
        assert ps.x_low_sizes == tuple(x_low_sizes_oracle(ps))

    @given(walk_systems())
    @settings(max_examples=200)
    def test_common_mask_is_f_zero(self, drawn):
        g, members = drawn
        paths = [Path(tuple(seq)) for seq in members]
        f, _ = f_and_minimizers_oracle(g, members)
        assert (f == 0) == bool(common_mask(paths))
