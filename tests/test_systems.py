from __future__ import annotations

import itertools

import pytest

import lplab.systems
from lplab.construct import build_gt
from lplab.errors import UsageError
from lplab.graphs import Graph, parse_graph6
from lplab.harness import ScanConfig, check_conjecture, iter_ksubsets, scan_stream
from lplab.longest import enumerate_longest_paths
from lplab.systems import (
    certified_system,
    common_vertices,
    enumerate_good_paths,
    make_path_system,
    multiplicity_profile,
    path_distance_value,
    subset_distance,
    t_prime,
)
from conftest import H_PRIME_GRAPH6, H_SYSTEM
from oracles import f_and_minimizers_oracle, max_edge_disjoint_oracle


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
    """f runs BFS only on members with no common vertex."""

    @pytest.fixture
    def bfs_calls(self, monkeypatch):
        calls = []
        bfs = lplab.systems.bfs_distances

        def counted(g, sources):
            calls.append(sources)
            return bfs(g, sources)

        monkeypatch.setattr(lplab.systems, "bfs_distances", counted)
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

    def test_subset_distance_runs_one_bfs_per_path(self, h_graph, bfs_calls):
        lps = enumerate_longest_paths(h_graph)
        f_of = subset_distance(h_graph, lps.paths)
        subsets, _, _ = iter_ksubsets(len(lps), 9, 500, 0, "bfs")
        subsets = list(subsets)
        shared = [s for s in subsets if _common_mask(lps.paths, s)]
        assert shared and all(f_of(s) == 0 for s in shared)
        assert bfs_calls == []
        # the cover search's witness has no common vertex; its members' BFS
        # runs once, and every later subset reuses what was run
        witness = check_conjecture(h_graph, 9, lps=lps).witness["member_indices"]
        bfs_calls.clear()
        assert f_of(witness) == f_of(witness) == 1
        assert len(bfs_calls) == 9
        for s in subsets + _swaps(witness, len(lps)):
            f_of(s)
        assert len(bfs_calls) == len(set(bfs_calls)) <= len(lps)


def _common_mask(paths, subset) -> int:
    acc = -1
    for i in subset:
        acc &= paths[i].mask
    return acc


def _swaps(subset, n_items) -> list[tuple[int, ...]]:
    """subset with one member swapped for each index outside it, each way."""
    out = []
    for i in subset:
        for j in range(n_items):
            if j not in subset:
                out.append(tuple(sorted(set(subset) - {i} | {j})))
    return out


class TestSubsetDistance:
    def test_matches_oracle_on_9_subsets(self, h_graph, h_g1):
        # H, H', and G_1 and G_2 of H: a seeded sample of 9-subsets (nearly
        # all with a common vertex) plus the conjecture witness and every
        # subset one swap away from it (many without one)
        system = make_path_system(h_graph, H_SYSTEM, require_longest=True)
        graphs = [h_graph, parse_graph6(H_PRIME_GRAPH6), h_g1, build_gt(h_graph, system, 2).graph]
        witnessed = []
        for g in graphs:
            lps = enumerate_longest_paths(g)
            f_of = subset_distance(g, lps.paths)
            witness = check_conjecture(g, 9, lps=lps).witness["member_indices"]
            sampled, _, _ = iter_ksubsets(len(lps), 9, 30, 0, "oracle")
            values = set()
            for subset in [tuple(witness), *sampled, *_swaps(witness, len(lps))]:
                f, _ = f_and_minimizers_oracle(g, [lps.paths[i].vertices for i in subset])
                assert f_of(subset) == f
                values.add(f)
            assert 0 in values and len(values) > 1
            witnessed.append(f_of(witness))
        assert witnessed == [1, 1, 2, 3]

    def test_disconnected_graph_refused(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(UsageError):
            subset_distance(g, [])


class TestCommonVertices:
    def test_star(self, k13_system):
        assert common_vertices(k13_system) == frozenset({0})

    def test_empty(self, p4):
        ps = make_path_system(p4, [[0, 1], [2, 3]], require_longest=False)
        assert common_vertices(ps) == frozenset()


class TestMultiplicityProfile:
    def test_star(self, k13_system):
        prof = multiplicity_profile(k13_system)
        assert prof.n_counts == (0, 3, 1)
        assert prof.n(3) == 1 and prof.n(2) == 3 and prof.n(1) == 0
        # host 0 = (1, 0, 2): center has multiplicity 3, leaves 2
        assert prof.x_sets[0][2] == frozenset({0})
        assert prof.x_sets[0][1] == frozenset({1, 2})
        assert prof.x_sets[0][0] == frozenset()

    def test_weighted_count_identity(self, corpus_by_n):
        # sum of i * n_i equals the total vertex count over members, k(ell+1)
        for g in corpus_by_n[5]:
            lps = enumerate_longest_paths(g)
            k = min(3, len(lps.paths))
            for combo in itertools.combinations(lps.paths, k):
                ps = certified_system(g, combo, lps.length)
                prof = multiplicity_profile(ps)
                total = sum((i + 1) * c for i, c in enumerate(prof.n_counts))
                assert total == k * (lps.length + 1)


class TestGoodPaths:
    def test_star_host0(self, k13_system):
        goods = enumerate_good_paths(k13_system, 0)
        intervals = sorted((q.start, q.end) for q in goods)
        assert intervals == [(0, 1), (1, 1), (1, 2)]
        single = next(q for q in goods if (q.start, q.end) == (1, 1))
        assert set(single.witness_pairs) == {(1, 2), (2, 1)}
        assert single.n_vertices == 1 and single.edge_count == 0

    def test_star_counts(self, k13_system):
        for host in range(3):
            assert len(enumerate_good_paths(k13_system, host)) == 3
            assert t_prime(k13_system, host) == 3

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
        assert t_prime(ps, 0) == 0
        assert ps.good_summaries[0] == (None, 0)

    def test_requires_three_members(self, p4):
        ps = make_path_system(p4, [[0, 1], [1, 2]], require_longest=False)
        with pytest.raises(UsageError):
            enumerate_good_paths(ps, 0)

    def test_host_index_range(self, k13_system):
        # t' per host is a cached tuple, which must not wrap index -1
        for bad in (-1, 3):
            with pytest.raises(UsageError):
                enumerate_good_paths(k13_system, bad)
            with pytest.raises(UsageError):
                t_prime(k13_system, bad)

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
                    assert t_prime(ps, host) == max_edge_disjoint_oracle(goods)
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
                    prof = multiplicity_profile(ps)
                    assert prof.n(3) == 0  # no vertex on all members
                for host in range(3):
                    assert len(enumerate_good_paths(ps, host)) >= t_prime(ps, host) >= 0
