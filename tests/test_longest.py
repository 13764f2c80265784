from __future__ import annotations

import gc
import hashlib
import itertools
import random
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lplab.longest
from lplab.construct import build_gt
from lplab.errors import UsageError
from lplab.graphs import Graph, bfs_distances, encode_graph6
from lplab.harness import generate_connected_graphs
from lplab.longest import (
    DEFAULT_PATH_CAP,
    Path,
    common_mask,
    demand_cover,
    enumerate_longest_paths,
    is_path,
    longest_path_length,
)
from lplab.systems import make_path_system
from conftest import H_SYSTEM
from oracles import (
    ORACLE_MAX_N,
    canonical,
    canonical_sequence,
    edge_set,
    eager_longest_paths,
    enumerate_longest_paths_oracle,
)


def random_labelled_graph(
    rng: random.Random, max_n: int, base_max: int | None = None, grow: float = 0.7
) -> Graph:
    """A random connected graph grown by pendants and subdivided edges, with
    its vertices relabelled at random.

    The base has at most base_max vertices (max_n - 2 by default), and each
    growth step is taken with probability grow.  The enumeration walks each
    path from its smaller end and skips the reach test along degree-2 chains,
    so both labels and chains vary here.
    """
    n = rng.randint(1, base_max or max_n - 2)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if (u, v) not in edges and rng.random() < 0.4
    ]
    while n < max_n and rng.random() < grow:
        if edges and rng.random() < 0.5:
            u, v = edges.pop(rng.randrange(len(edges)))
            edges += [(u, n), (n, v)]
        else:
            edges.append((rng.randrange(n), n))
        n += 1
    label = list(range(n))
    rng.shuffle(label)
    return relabel(Graph.from_edges(n, edges), label)


def relabel(g: Graph, label: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(label[u], label[v]) for u, v in g.edges()])


def sparse_labelled_graph(rng: random.Random, n: int, extra: int) -> Graph:
    """A random tree on n vertices plus up to extra more edges, with its
    vertices relabelled at random."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    absent = [(u, v) for u, v in itertools.combinations(range(n), 2) if (u, v) not in edges]
    edges.update(rng.sample(absent, min(extra, len(absent))))
    label = list(range(n))
    rng.shuffle(label)
    return relabel(Graph.from_edges(n, sorted(edges)), label)


def gt_of_h(h_graph: Graph, t: int) -> Graph:
    return build_gt(h_graph, make_path_system(h_graph, H_SYSTEM, require_longest=True), t).graph


# sha256 of repr(tuple(p.vertices for p in paths)) over the longest paths of
# G_t of H, recorded for t = 1..4 before the walk cut branches by the endpoint
# rule, and for t = 8 and 12, which the oracle cannot reach, before the walk
# crossed a run of degree-2 vertices in one step
GT_OF_H_PATHS_SHA256 = {
    1: "b8ea90ab69da6ece010259fd25ed9ca137afccb26bf979813abfb62c2296a137",
    2: "45464248061943c5092cb6182d8927d5d3f8314c85d48b72cc825f026392a687",
    3: "d3733e5c441368269b636a3af20710d312166c216b3f7876e6ea185719226e89",
    4: "6b0bae1d88079bfe1909627254bd8b611ec1fa35c086492681b32cf6fb3216ee",
    8: "25a23fb40dac675fce17f89fe320e042161131a8d8b9a0598dada38052e2ac2b",
    12: "b3d550655fb104055a9bc478caae2deb5475613cd18fe143d852e7a29aefedc0",
}

# reach tests made on G_t of H, t = 1..4, before the endpoint rule: by the
# walks of enumerate_longest_paths and of longest_path_length
GT_OF_H_REACH_TESTS = {1: 4301, 2: 6976, 3: 9652, 4: 12328}
GT_OF_H_LENGTH_REACH_TESTS = {1: 3937, 2: 6664, 3: 9364, 4: 12040}

# (reach tests, calls of the walk's nested dfs) made by enumerate_longest_paths
# on G_t of H, t = 1..4, under the thin-start rule; before it the walk made
# 2,329 / 3,696 / 4,992 / 6,288 reach tests and 2,588 / 5,854 / 10,280 /
# 15,942 dfs calls (one per start more, then: the first steps were taken in
# dfs)
GT_OF_H_THIN_START_WORK = {1: (2125, 2352), 2: (2544, 4076), 3: (2892, 6012), 4: (3240, 8236)}

# the same under the leaf rule: G_t keeps the three leaves of H, so no
# spanning count runs, and the walk skips every first step that would look
# for spanning paths only
GT_OF_H_LEAF_RULE_WORK = {1: (1953, 2220), 2: (2025, 3458), 3: (2025, 4620), 4: (2025, 5782)}

# (reach tests, dfs calls, frames of the walk's nested functions) made by
# enumerate_longest_paths on G_t of H once the walk crosses each run of
# degree-2 vertices in one step and leaves out, for each start, the pendant
# trees that _peel drops: the counts no longer grow with t from t = 3 on
# (the dfs calls were 3,458 / 5,782 / 10,430 at t = 2 / 4 / 8 under the
# leaf rule), and t = 3, 4 and 8 make the same work.  Crossing runs, before
# the peel, the walk made (1,953, 2,067, 2,085) at t = 1 and (1,605, 1,083,
# 1,113) from t = 2 on.  The frames are the dfs calls and one dfs call per
# start walked; a nested cross that took each step into a run in a frame
# of its own made 3,195 at t = 2 (2,112 of them in cross)
GT_OF_H_CHAIN_WORK = {
    1: (414, 459, 474),
    2: (276, 231, 252),
    **{t: (649, 603, 624) for t in (3, 4, 8)},
}


class TestPath:
    def test_mask_and_length(self):
        p = Path((2, 0, 1))
        assert p.mask == 0b111
        assert p.length == 2
        assert len(p) == 3

    def test_canonical(self):
        assert canonical(Path((3, 1, 0))) == Path((0, 1, 3))
        assert canonical(Path((0, 1, 3))) == Path((0, 1, 3))
        assert canonical_sequence((5,)) == (5,)

    def test_edge_set(self):
        assert edge_set(Path((2, 0, 1))) == {(0, 2), (0, 1)}
        assert edge_set(Path((4,))) == frozenset()


class TestIsPath:
    def test_examples(self, p4):
        assert is_path(p4, [0, 1, 2, 3])
        assert is_path(p4, [2, 1, 0])
        assert is_path(p4, [1])
        assert not is_path(p4, [0, 2])  # non-edge
        assert not is_path(p4, [0, 1, 0])  # repeated vertex
        assert not is_path(p4, [])

    def test_out_of_range(self, p4):
        with pytest.raises(UsageError):
            is_path(p4, [0, 9])


class TestLongestPathLength:
    def test_known_values(self, p4, k13, c5, p7, petersen):
        assert longest_path_length(p4) == 3
        assert longest_path_length(k13) == 2
        assert longest_path_length(c5) == 4
        assert longest_path_length(p7) == 6
        assert longest_path_length(petersen) == 9

    def test_petersen_has_hamiltonian_path_witness(self, petersen):
        # independent certificate that ell = 9 is attainable
        witness = [0, 1, 2, 3, 4, 9, 6, 8, 5, 7]
        assert is_path(petersen, witness)

    def test_k1(self):
        assert longest_path_length(Graph.from_edges(1, [])) == 0

    def test_disconnected_rejected(self):
        with pytest.raises(UsageError):
            longest_path_length(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestEnumerate:
    def test_p4_unique(self, p4):
        lps = enumerate_longest_paths(p4)
        assert lps.length == 3 and not lps.truncated
        assert [p.vertices for p in lps.paths] == [(0, 1, 2, 3)]

    def test_k13_three_paths(self, k13):
        lps = enumerate_longest_paths(k13)
        assert lps.length == 2
        assert [p.vertices for p in lps.paths] == [(1, 0, 2), (1, 0, 3), (2, 0, 3)]
        assert lps.common_mask() == 1  # center vertex 0

    def test_c5_spanning(self, c5):
        lps = enumerate_longest_paths(c5)
        assert lps.length == 4 and len(lps.paths) == 5
        assert all(len(p) == 5 for p in lps.paths)

    def test_k4_hamiltonian(self):
        k4 = Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        lps = enumerate_longest_paths(k4)
        assert lps.length == 3 and len(lps.paths) == 12

    def test_canonical_and_sorted(self, c5):
        lps = enumerate_longest_paths(c5)
        seqs = [p.vertices for p in lps.paths]
        assert seqs == sorted(seqs)
        assert all(s[0] <= s[-1] for s in seqs)

    def test_cap_truncates_lexicographically_first(self, c5):
        full = enumerate_longest_paths(c5)
        capped = enumerate_longest_paths(c5, cap=2)
        assert capped.truncated
        assert tuple(capped.paths) == full.paths[:2]
        assert capped.length == full.length

    def test_cap_validation(self, c5):
        with pytest.raises(UsageError):
            enumerate_longest_paths(c5, cap=0)

    def test_matches_oracle_small(self, corpus_by_n):
        for n in range(1, 6):
            for g in corpus_by_n[n]:
                fast = enumerate_longest_paths(g)
                slow = enumerate_longest_paths_oracle(g)
                assert fast.length == slow.length
                assert tuple(fast.paths) == slow.paths

    def test_length_matches_enumeration(self, corpus_by_n):
        for g in corpus_by_n[6]:
            assert longest_path_length(g) == enumerate_longest_paths(g).length

    def test_matches_oracle_random_labels(self):
        rng = random.Random(20261018)
        sizes = set()
        for i in range(200):
            g = random_labelled_graph(rng, 9 if i % 20 == 0 else 8)
            sizes.add(g.n)
            slow = enumerate_longest_paths_oracle(g)
            fast = enumerate_longest_paths(g)
            assert (fast.length, tuple(fast.paths), fast.truncated) == (
                slow.length, slow.paths, False
            )
            assert all(p.mask == Path(p.vertices).mask for p in fast.paths)
            assert longest_path_length(g) == slow.length
            cap = rng.randint(1, 4)
            capped = enumerate_longest_paths(g, cap=cap)
            assert tuple(capped.paths) == slow.paths[:cap]
            assert capped.truncated == (len(slow.paths) > cap)
        assert sizes == set(range(1, 10))

    def test_no_spanning_path_matches_oracle_under_caps(self):
        # the one-walk route: ell and the paths come from a single walk
        rng = random.Random(20261019)
        sizes = []
        while len(sizes) < 300:
            g = random_labelled_graph(rng, rng.randint(4, 14), base_max=6, grow=0.9)
            slow = enumerate_longest_paths_oracle(g)
            if slow.length == g.n - 1:
                continue
            sizes.append(g.n)
            assert longest_path_length(g) == slow.length
            for cap in (None, 1, 2, 3, 7):
                fast = enumerate_longest_paths(g, cap=cap)
                expected = slow.paths if cap is None else slow.paths[:cap]
                assert fast.length == slow.length
                assert [p.vertices for p in fast.paths] == [p.vertices for p in expected]
                assert [p.mask for p in fast.paths] == [p.mask for p in expected]
                assert fast.truncated == (cap is not None and len(slow.paths) > cap)
        assert max(sizes) == 14 and sum(n > 10 for n in sizes) >= 50

    def test_spanning_path_matches_oracle_under_caps(self):
        # the walk goes on past its first spanning path and stops at the cap
        rng = random.Random(20261020)
        sizes = []
        while len(sizes) < 200:
            g = random_labelled_graph(rng, rng.randint(6, 11), base_max=10, grow=0.3)
            slow = enumerate_longest_paths_oracle(g)
            if slow.length != g.n - 1:
                continue
            sizes.append(g.n)
            assert longest_path_length(g) == slow.length
            for cap in (None, 1, 2, 3, 7):
                fast = enumerate_longest_paths(g, cap=cap)
                expected = slow.paths if cap is None else slow.paths[:cap]
                assert fast.length == slow.length
                assert [p.vertices for p in fast.paths] == [p.vertices for p in expected]
                assert [p.mask for p in fast.paths] == [p.mask for p in expected]
                assert fast.truncated == (cap is not None and len(slow.paths) > cap)
        assert max(sizes) == 11 and sum(n >= 9 for n in sizes) >= 40

    def test_shorter_paths_before_the_first_spanning_path_are_dropped(self):
        # K_{2,3} with parts {0, 1} and {2, 3, 4}: a spanning path starts and
        # ends in the larger part, so from starts 0 and 1 the walk records
        # twelve paths of length 3, more than any cap below keeps, before its
        # first spanning path 2-0-3-1-4
        g = Graph.from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
        spanning = [p.vertices for p in enumerate_longest_paths_oracle(g).paths]
        assert len(spanning) == 6 and spanning[0] == (2, 0, 3, 1, 4)
        for cap in (1, 2, 3, 4, 5, None):
            lps = enumerate_longest_paths(g, cap=cap)
            assert lps.length == 4
            assert [p.vertices for p in lps.paths] == spanning[:cap]
            assert lps.truncated == (cap is not None)

    def test_shorter_paths_past_the_cap_are_dropped(self):
        # from start 0 the walk first records the four length-1 paths
        # (0, 1)..(0, 4), more than any cap below 4 keeps, before the tail
        # 0-5-6-7-8 and then the longest paths i-0-5-6-7-8 (i = 1..4) appear
        g = Graph.from_edges(9, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6), (6, 7), (7, 8)])
        longest = [(i, 0, 5, 6, 7, 8) for i in range(1, 5)]
        assert [p.vertices for p in enumerate_longest_paths_oracle(g).paths] == longest
        for cap in (1, 2, 3, 4, 5):
            lps = enumerate_longest_paths(g, cap=cap)
            assert lps.length == 5
            assert [p.vertices for p in lps.paths] == longest[:cap]
            assert lps.truncated == (cap < 4)

    def test_one_walk_without_spanning_path(self, h_g1, monkeypatch):
        # G_1 of H has no spanning path, so ell comes from the same walk as
        # the paths, never from a separate longest_path_length call
        def refuse(g):
            raise AssertionError("longest_path_length called")

        monkeypatch.setattr(lplab.longest, "longest_path_length", refuse)
        lps = enumerate_longest_paths(h_g1)
        assert lps.length == 22 < h_g1.n - 1
        assert len(lps.paths) == 18 and not lps.truncated

    def test_sparse_graphs_match_oracle_under_caps(self):
        # a tree plus at most three edges: few have a spanning path, so the
        # walk mostly runs to its end, cutting by the endpoint rule
        rng = random.Random(20261021)
        sizes = []
        without_spanning = 0
        for _ in range(320):
            n = rng.randint(2, 14)
            g = sparse_labelled_graph(rng, n, rng.randint(0, 3))
            slow = enumerate_longest_paths_oracle(g)
            sizes.append(n)
            without_spanning += slow.length < n - 1
            assert longest_path_length(g) == slow.length
            for cap in (None, 1, 2, 3, 7):
                fast = enumerate_longest_paths(g, cap=cap)
                expected = slow.paths if cap is None else slow.paths[:cap]
                assert fast.length == slow.length
                assert [p.vertices for p in fast.paths] == [p.vertices for p in expected]
                assert [p.mask for p in fast.paths] == [p.mask for p in expected]
                assert fast.truncated == (cap is not None and len(slow.paths) > cap)
                assert _facts(eager_longest_paths(g, cap)) == _facts(fast)
        assert without_spanning >= 100 and sum(n >= 12 for n in sizes) >= 50

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 8, 12])
    def test_gt_of_h_under_relabelling(self, h_graph, t):
        gt = gt_of_h(h_graph, t)
        lps = enumerate_longest_paths(gt)
        assert lps.length == 11 * (t + 1) and len(lps.paths) == 18
        assert not lps.truncated
        paths = repr(tuple(p.vertices for p in lps.paths)).encode()
        assert hashlib.sha256(paths).hexdigest() == GT_OF_H_PATHS_SHA256[t]
        assert longest_path_length(gt) == lps.length
        rng = random.Random(t)
        for _ in range(10):
            label = list(range(gt.n))
            rng.shuffle(label)
            moved = enumerate_longest_paths(relabel(gt, label))
            expected = sorted(
                canonical_sequence([label[v] for v in p.vertices]) for p in lps.paths
            )
            assert moved.length == lps.length
            assert [p.vertices for p in moved.paths] == expected

    def test_endpoint_rule_cuts_reach_tests_on_gt_of_h(self, h_graph, monkeypatch):
        # the walk looks _reaches up as a module global at each call
        calls = 0
        reaches = lplab.longest._reaches

        def counted(*args):
            nonlocal calls
            calls += 1
            return reaches(*args)

        monkeypatch.setattr(lplab.longest, "_reaches", counted)
        for t, before in GT_OF_H_REACH_TESTS.items():
            gt = gt_of_h(h_graph, t)
            for find, limit in (
                (enumerate_longest_paths, before),
                (longest_path_length, GT_OF_H_LENGTH_REACH_TESTS[t]),
            ):
                calls = 0
                find(gt)
                assert calls <= 0.6 * limit, (t, find.__name__, calls)

    @staticmethod
    def _walk_work(g: Graph, monkeypatch) -> tuple[int, int, int, int, int]:
        """(ell, paths, reach tests, dfs calls, frames) of
        enumerate_longest_paths on g.  The frames are those of every function
        nested in _walk, read at the call event; the dfs calls leave out the
        calls for a start (at length 0), which the pins of the first-step
        rules never counted."""
        calls = 0
        reaches = lplab.longest._reaches

        def counted(*args):
            nonlocal calls
            calls += 1
            return reaches(*args)

        nested = {
            c: c.co_name for c in lplab.longest._walk.__code__.co_consts
            if isinstance(c, types.CodeType) and not c.co_name.startswith("<")
        }
        frames = nodes = 0

        def profile(frame, event, arg):
            nonlocal frames, nodes
            if event == "call" and frame.f_code in nested:
                frames += 1
                nodes += nested[frame.f_code] == "dfs" and frame.f_locals["length"] > 0

        with monkeypatch.context() as patch:
            patch.setattr(lplab.longest, "_reaches", counted)
            sys.setprofile(profile)
            try:
                lps = enumerate_longest_paths(g)
            finally:
                sys.setprofile(None)
        return lps.length, len(lps.paths), calls, nodes, frames

    def test_thin_start_rule_cuts_gt_of_h(self, h_graph, monkeypatch):
        # all but three starts of G_t have two neighbours of degree <= 2, so
        # below them the walk looks for spanning paths only, and G_t has none
        for t, (reach_limit, node_limit) in GT_OF_H_THIN_START_WORK.items():
            ell, paths, calls, nodes, _ = self._walk_work(gt_of_h(h_graph, t), monkeypatch)
            assert (ell, paths) == (11 * (t + 1), 18)
            assert calls <= reach_limit and nodes <= node_limit, (t, calls, nodes)
        for t, ell in ((8, 99), (12, 143)):
            lps = enumerate_longest_paths(gt_of_h(h_graph, t))
            assert (lps.length, len(lps.paths), lps.truncated) == (ell, 18, False)

    def test_leaf_rule_cuts_gt_of_h(self, h_graph, monkeypatch):
        # G_t has three leaves, so no first step looks for spanning paths
        for t, (reach_limit, node_limit) in GT_OF_H_LEAF_RULE_WORK.items():
            ell, paths, calls, nodes, _ = self._walk_work(gt_of_h(h_graph, t), monkeypatch)
            assert (ell, paths) == (11 * (t + 1), 18)
            assert calls <= reach_limit and nodes <= node_limit, (t, calls, nodes)

    def test_chain_jumps_cut_gt_of_h(self, h_graph, monkeypatch):
        # every vertex G_t adds lies on a run of t degree-2 vertices, which
        # the walk and its reach tests cross in one step each, and the three
        # pendant chains of t + 1 vertices are dropped by the starts above
        # their leaves
        work = set()
        for t, (reach_limit, node_limit, frame_limit) in GT_OF_H_CHAIN_WORK.items():
            ell, paths, calls, nodes, frames = self._walk_work(gt_of_h(h_graph, t), monkeypatch)
            assert (ell, paths) == (11 * (t + 1), 18)
            assert calls <= reach_limit and nodes <= node_limit and frames <= frame_limit, (
                t, calls, nodes, frames)
            if t >= 3:
                work.add((calls, nodes, frames))
        assert len(work) == 1, work

    def test_k9_beyond_default_cap(self):
        # 9!/2 = 181,440 Hamiltonian paths; the canonical ones in
        # lexicographic order are the permutations with p[0] < p[-1]
        k9 = Graph.from_edges(9, itertools.combinations(range(9), 2))
        lps = enumerate_longest_paths(k9)
        assert lps.length == 8 and lps.truncated
        expected = itertools.islice(
            (p for p in itertools.permutations(range(9)) if p[0] < p[-1]),
            DEFAULT_PATH_CAP,
        )
        assert [p.vertices for p in lps.paths] == list(expected)


@st.composite
def thin_graphs(draw) -> Graph:
    """A connected graph on at most 12 vertices, most of degree <= 2: a tree
    plus at most three edges, grown by subdivided edges and pendants, with
    its vertices relabelled."""
    n = draw(st.integers(1, 8))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    absent = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    if absent:
        edges += draw(st.lists(st.sampled_from(absent), max_size=3, unique=True))
    for subdivide in draw(st.lists(st.booleans(), max_size=12 - n)):
        if subdivide and edges:
            u, v = edges.pop(draw(st.integers(0, len(edges) - 1)))
            edges += [(u, n), (n, v)]
        else:
            edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    return relabel(Graph.from_edges(n, edges), draw(st.permutations(range(n))))


def same_as_oracle(g: Graph):
    """Check the walk's two routes on g against the oracle, paths and
    masks, and the eager walk's facts, at caps None and 1-4; return the
    oracle's set."""
    slow = enumerate_longest_paths_oracle(g)
    assert longest_path_length(g) == slow.length
    for cap in (None, 1, 2, 3, 4):
        fast = enumerate_longest_paths(g, cap=cap)
        expected = slow.paths if cap is None else slow.paths[:cap]
        assert fast.length == slow.length
        assert [p.vertices for p in fast.paths] == [p.vertices for p in expected]
        assert [p.mask for p in fast.paths] == [p.mask for p in expected]
        assert fast.truncated == (cap is not None and len(slow.paths) > cap)
        assert _facts(eager_longest_paths(g, cap)) == _facts(fast)
    return slow


@given(thin_graphs())
@settings(max_examples=150)
def test_walk_on_thin_graphs(g):
    slow = same_as_oracle(g)
    if slow.length == g.n - 1:
        return
    # the thin-start rule: the ends of a longest path that is not spanning
    # are not adjacent, and each end steps first to its neighbours of degree
    # <= 2, so it has at most one
    for p in slow.paths:
        seq = p.vertices
        assert not g.has_edge(seq[0], seq[-1])
        for end, second in ((seq[0], seq[1]), (seq[-1], seq[-2])):
            thin = [x for x in range(g.n) if g.has_edge(end, x) and g.degree(x) <= 2]
            assert thin in ([], [second]), (seq, end, thin)


def one_leaf_graph(rng: random.Random, n: int) -> Graph:
    """A graph on n vertices with a spanning path and exactly one vertex of
    degree 1: a lollipop (a clique on at most six vertices with a tail) or
    a cycle with chords and one pendant.  Its vertices are relabelled at
    random, with the leaf neither the least nor the greatest label."""
    if rng.random() < 0.5:
        clique = rng.randint(3, min(n - 1, 6))
        edges = set(itertools.combinations(range(clique), 2))
    else:
        clique = n - 1
        edges = {(v, v + 1) for v in range(clique - 1)} | {(0, clique - 1)}
        absent = [e for e in itertools.combinations(range(clique), 2) if e not in edges]
        edges.update(rng.sample(absent, min(rng.randint(0, clique), len(absent))))
    # the tail from the clique or cycle ends at the leaf, n - 1
    edges.update((v, v + 1) for v in range(clique - 1, n - 1))
    leaf = rng.randint(1, n - 2)
    label = [v for v in range(n) if v != leaf]
    rng.shuffle(label)
    return relabel(Graph.from_edges(n, sorted(edges)), label + [leaf])


def two_leaf_graph(rng: random.Random, n: int) -> Graph:
    """A path through all n vertices plus chords between its inner
    vertices, relabelled at random: its ends are its two leaves."""
    edges = {(v, v + 1) for v in range(n - 1)}
    absent = [e for e in itertools.combinations(range(1, n - 1), 2) if e not in edges]
    edges.update(rng.sample(absent, min(rng.randint(0, n), len(absent))))
    label = list(range(n))
    rng.shuffle(label)
    return relabel(Graph.from_edges(n, sorted(edges)), label)


class TestLeafRule:
    """A graph with one or two vertices of degree 1 and a spanning path is
    counted, not walked, and its first read walks out every spanning path:
    each leaf ends one, and none closes a Hamiltonian cycle."""

    @pytest.mark.parametrize("leaves, make", [(1, one_leaf_graph), (2, two_leaf_graph)])
    def test_against_oracle(self, leaves, make):
        rng = random.Random(2300 + leaves)
        leaf_first = leaf_last = 0
        for _ in range(60):
            g = make(rng, rng.randint(5, 11))
            ends = {v for v in range(g.n) if g.degree(v) == 1}
            assert len(ends) == leaves
            slow = same_as_oracle(g)
            assert slow.length == g.n - 1, encode_graph6(g)
            for p in slow.paths:
                seq = p.vertices
                # every leaf is an end, and no end has a neighbour of degree
                # <= 2 but its second vertex: else the path would close a
                # Hamiltonian cycle, on which no vertex has degree 1
                assert ends <= {seq[0], seq[-1]}
                for end, second in ((seq[0], seq[1]), (seq[-1], seq[-2])):
                    thin = [x for x in range(g.n) if g.has_edge(end, x) and g.degree(x) <= 2]
                    assert thin in ([], [second]), (seq, end, thin)
                leaf_first += seq[0] in ends
                leaf_last += seq[-1] in ends
        # the leaf lies above the start of some paths and below others
        assert leaf_first and leaf_last


def subdivide(n: int, edges, counts) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of the graph on n vertices with these edges, each edge
    subdivided by its count of new vertices."""
    out = []
    for (u, v), k in zip(edges, counts):
        chain = [u, *range(n, n + k), v]
        n += k
        out += zip(chain, chain[1:])
    return n, out


def pendants(rng: random.Random, n: int, edges, paths: int, longest: int, at=None):
    """(n, edges) with paths pendant paths of 1..longest vertices each,
    hung from vertices of at (all by default) at random."""
    edges = list(edges)
    for _ in range(paths):
        k = rng.randint(1, longest)
        chain = [rng.choice(at or range(n)), *range(n, n + k)]
        n += k
        edges += zip(chain, chain[1:])
    return n, edges


def hanging_cycles(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Cycles of 3..5 vertices that share vertex 0, which also holds one to
    three leaves: each cycle less 0 is a run from 0 back to 0."""
    edges = [(0, v) for v in range(1, rng.randint(2, 4))]
    n = len(edges) + 1
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(2, 4)
        cycle = [0, *range(n, n + k), 0]
        n += k
        edges += zip(cycle, cycle[1:])
    return n, edges


def theta(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Vertices 0 and 1 joined by three subdivided paths, or by two and a
    pendant each, with up to two more pendants anywhere."""
    if rng.random() < 0.5:
        n, edges = subdivide(2, [(0, 1)] * 3, [rng.randint(1, 3) for _ in range(3)])
    else:
        n, edges = subdivide(4, [(0, 1), (0, 1), (0, 2), (1, 3)], [
            rng.randint(1, 4), rng.randint(2, 4), 0, 0])
    return pendants(rng, n, edges, rng.randint(0, 2), 1)


def pendant_chains(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A triangle, K4 or single edge with two to four pendant paths of up to
    four vertices, each ending in a leaf."""
    core = rng.choice([2, 3, 4])
    edges = list(itertools.combinations(range(core), 2))
    paths = rng.randint(2, 4)
    return pendants(rng, core, edges, paths, min(4, (12 - core) // paths), at=list(range(core)))


def closing_run(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Adjacent vertices 0 and 1 joined also by a run of 2..5 vertices, each
    with one or two leaves: a path 0, 1 that turns into the run stops at its
    last vertex, whose far end, 0, it holds already."""
    n, edges = subdivide(2, [(0, 1), (0, 1)], [0, rng.randint(2, 5)])
    n, edges = pendants(rng, n, edges, rng.randint(1, 2), 1, at=[0])
    return pendants(rng, n, edges, rng.randint(1, 2), 1, at=[1])


def subdivided_k4(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """K4 with up to six subdivision vertices, at most three on an edge,
    and one or two leaves."""
    edges = list(itertools.combinations(range(4), 2))
    counts = [0] * 6
    for _ in range(6):
        i = rng.randrange(6)
        counts[i] = min(3, counts[i] + 1)
    n, edges = subdivide(4, edges, counts)
    return pendants(rng, n, edges, rng.randint(1, 2), 1)


def subdivided_petersen_less_one(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """The Petersen graph minus a vertex, with an edge at one of its three
    degree-2 vertices subdivided, so that they make a run of two, and two
    leaves at one vertex, which rule out a spanning path."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges = [e for e in outer + spokes + inner if 9 not in e]  # 0..8 remain
    at = rng.choice([i for i, e in enumerate(edges) if {4, 6, 7} & set(e)])
    n, edges = subdivide(9, edges, [i == at for i in range(len(edges))])
    u = rng.randrange(n)
    return n + 2, edges + [(u, n), (u, n + 1)]


def label_runs(rng: random.Random, n: int, edges, start_on_run: bool) -> Graph:
    """The graph relabelled at random; with start_on_run, a vertex inside a
    run of degree-2 vertices gets label 0 if there is one, and a vertex
    that ends a run label 1, so that walks start on runs."""
    g = Graph.from_edges(n, edges)
    order = list(range(n))
    rng.shuffle(order)
    if start_on_run:
        two = [v for v in range(n) if g.degree(v) == 2]
        inner = [v for v in two if all(g.degree(u) == 2 for u in two if g.has_edge(u, v))
                 and sum(g.has_edge(u, v) for u in two) == 2]
        ending = [v for v in two if v not in inner and any(g.has_edge(u, v) for u in two)]
        for v in (rng.choice(ending) if ending else None, rng.choice(inner) if inner else None):
            if v is not None:
                order.remove(v)
                order.insert(0, v)
    label = [0] * n
    for i, v in enumerate(order):
        label[v] = i
    return relabel(g, label)


def walks_across_runs(g: Graph, ell: int) -> bool:
    """Whether g is walked, having no spanning path, across long runs."""
    two = sum(1 << v for v in range(g.n) if g.degree(v) == 2)
    return ell < g.n - 1 and bool(two) and lplab.longest._runs(g.nbr_masks, two) is not None


class TestRuns:
    """Without a spanning path the walk crosses each run of two or more
    degree-2 vertices in one step, and its reach test crosses one in one
    layer; on every shape of run, the paths are the oracle's.  At n <= 12
    few graphs have runs long enough for the walk to cross them
    (_RUNS_MIN_SAVED), so each shape is also walked with every long run
    crossed."""

    @pytest.mark.parametrize("make", [
        hanging_cycles, theta, pendant_chains, closing_run, subdivided_k4,
        subdivided_petersen_less_one,
    ])
    @pytest.mark.parametrize("start_on_run", [False, True])
    @pytest.mark.parametrize("min_saved", [1, lplab.longest._RUNS_MIN_SAVED])
    def test_against_oracle(self, monkeypatch, make, start_on_run, min_saved):
        monkeypatch.setattr(lplab.longest, "_RUNS_MIN_SAVED", min_saved)
        rng = random.Random(f"{make.__name__}:{start_on_run}")
        walked = 0
        for _ in range(30):
            n, edges = make(rng)
            assert n <= 12
            g = label_runs(rng, n, edges, start_on_run)
            slow = same_as_oracle(g)
            walked += walks_across_runs(g, slow.length)
        # at least a quarter of the graphs of each shape have no spanning
        # path and are walked across runs, once every long run is crossed
        assert min_saved > 1 or walked >= 8, walked

    @pytest.mark.parametrize("edges, chain, hops, over, start", [
        # a 5-cycle through 0, which also holds two leaves: the run 1..4
        # goes from 0 back to 0, and the start 1 steps first along it
        (
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (0, 6)],
            [1, 2, 3, 4],
            {
                (0, 1): ((1, 2, 3, 4, 0), [0, 1, 2, 3, 4], 0),
                (1, 2): ((2, 3, 4, 0), [0, 2, 3, 4], 0),
                (0, 4): ((4, 3, 2, 1, 0), [0, 1, 2, 3, 4], 0),
                (4, 3): ((3, 2, 1, 0), [0, 1, 2, 3], 0),
            },
            [range(7), range(5), range(5), range(5), range(5), [0], [0]],
            (1, 2),
        ),
        # a theta: 0 and 1 joined by the runs 2, 3, 4 and 5, 6 and by 7, a
        # run of one that is not crossed; two leaves at 0
        (
            [(0, 2), (2, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 1), (0, 7), (7, 1),
             (0, 8), (0, 9)],
            [2, 3, 4, 5, 6],
            {
                (0, 2): ((2, 3, 4, 1), [1, 2, 3, 4], 1),
                (2, 3): ((3, 4, 1), [1, 3, 4], 1),
                (1, 4): ((4, 3, 2, 0), [0, 2, 3, 4], 0),
                (4, 3): ((3, 2, 0), [0, 2, 3], 0),
                (0, 5): ((5, 6, 1), [1, 5, 6], 1),
                (5, 6): ((6, 1), [1, 6], 1),
                (1, 6): ((6, 5, 0), [0, 5, 6], 0),
                (6, 5): ((5, 0), [0, 5], 0),
            },
            [range(1, 10), [0, 2, 3, 4, 5, 6, 7], range(5), range(5), range(5),
             [0, 1, 5, 6], [0, 1, 5, 6], [0, 1], [0], [0]],
            (4, 3),
        ),
        # pendant chains at 0, with the runs 1, 2, 3 and 5, 6, and the
        # leaf 8; the start 1 steps first along its run to the leaf 4
        (
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (0, 8)],
            [1, 2, 3, 5, 6],
            {
                (0, 1): ((1, 2, 3, 4), [1, 2, 3, 4], 4),
                (1, 2): ((2, 3, 4), [2, 3, 4], 4),
                (4, 3): ((3, 2, 1, 0), [0, 1, 2, 3], 0),
                (3, 2): ((2, 1, 0), [0, 1, 2], 0),
                (0, 5): ((5, 6, 7), [5, 6, 7], 7),
                (5, 6): ((6, 7), [6, 7], 7),
                (7, 6): ((6, 5, 0), [0, 5, 6], 0),
                (6, 5): ((5, 0), [0, 5], 0),
            },
            [range(1, 9), range(5), range(5), range(5), range(4), [0, 5, 6, 7], [0, 5, 6, 7],
             [0, 5, 6], [0]],
            (1, 2),
        ),
    ])
    def test_table(self, monkeypatch, edges, chain, hops, over, start):
        # _runs holds, for each end of a long run, the hop into the run from
        # off it and the hop along it, and the walk reads no other
        def bits(vertices):
            return sum(1 << v for v in vertices)

        g = Graph.from_edges(len(over), edges)
        two = bits(v for v in range(g.n) if g.degree(v) == 2)
        want = (
            bits(chain),
            {key: (steps, bits(mask), 1 << tip) for key, (steps, mask, tip) in hops.items()},
            list(map(bits, over)),
        )
        assert lplab.longest._runs(g.nbr_masks, two) == want
        runs = lplab.longest._runs
        read = set()

        class Recorded(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        def recorded(masks, two):
            table = runs(masks, two)
            return table and (table[0], Recorded(table[1]), table[2])

        monkeypatch.setattr(lplab.longest, "_runs", recorded)
        assert same_as_oracle(g).length < g.n - 1
        assert start in read and read <= want[1].keys()


def chorded_tree_with_pendants(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A random tree on 4..7 vertices with up to two chords, and two or
    three pendant paths of one to three vertices hung from it: at most 11
    vertices, and at least three leaves, so no spanning path."""
    n = rng.randint(4, 7)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    absent = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    edges += rng.sample(absent, rng.randint(0, 2))
    paths = rng.randint(2, 3)
    return pendants(rng, n, edges, paths, min(3, (11 - n) // paths))


class TestPeel:
    """Without a spanning path, the walk from each start leaves out the
    vertices _peel drops, the pendant trees that no longest path from that
    start can hold, and skips a start with a dropped neighbour."""

    def test_against_oracle(self, monkeypatch):
        # each graph under several relabellings, so that its leaves fall
        # both below and above the starts; the counts show the cut ran
        peel = lplab.longest._peel
        dropped = above = skipped = 0

        def counted(masks, todo, s):
            nonlocal dropped, above, skipped
            off = peel(masks, todo, s)
            dropped += off.bit_count()
            above += (off >> s).bit_count()
            skipped += bool(masks[s] & off)
            return off

        monkeypatch.setattr(lplab.longest, "_peel", counted)
        rng = random.Random(3600)
        for _ in range(40):
            n, edges = chorded_tree_with_pendants(rng)
            assert n <= 11
            g = Graph.from_edges(n, edges)
            for _ in range(4):
                label = list(range(n))
                rng.shuffle(label)
                same_as_oracle(relabel(g, label))
        assert dropped and above and skipped, (dropped, above, skipped)

    @pytest.mark.parametrize("s, off", [
        (2, []),  # no leaf below the start
        (4, [3, 5]),  # the leaf 3, then 5, above the start, left a leaf
        (5, [3, 4]),  # both leaves, and 5 stays: it is the start
    ])
    def test_table(self, s, off):
        # a triangle 0, 1, 2 with the pendant path 1, 5, 3 and the leaf 4
        # at 0
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (1, 5), (5, 3), (0, 4)])
        leaves = (1 << 3 | 1 << 4) & ((1 << s) - 1)
        assert lplab.longest._peel(g.nbr_masks, leaves, s) == sum(1 << v for v in off)


def windmill(rng: random.Random, n: int) -> Graph:
    """Three cycles with chords that share one vertex, on n >= 10 vertices,
    relabelled at random.  No vertex has degree 1, and the shared vertex
    cuts the graph in three, so no path spans it: the spanning count runs
    and finds none, and the walk must cut the first steps that look for
    spanning paths only."""
    while True:
        cuts = sorted(rng.sample(range(3, n - 3), 2))
        sizes = (cuts[0], cuts[1] - cuts[0], n - 1 - cuts[1])
        if min(sizes) >= 3:
            break
    edges, v = [], 1
    for size in sizes:
        blade = [0, *range(v, v + size)]
        ring = {tuple(sorted(e)) for e in zip(blade, blade[1:] + blade[:1])}
        absent = [e for e in itertools.combinations(blade, 2) if e not in ring]
        edges += sorted(ring) + rng.sample(absent, size // 3)
        v += size
    label = list(range(n))
    rng.shuffle(label)
    return relabel(Graph.from_edges(n, edges), label)


# reach tests made by enumerate_longest_paths (the spanning count's included)
# on the 30 windmills of TestCountFirst; the parent of the count-first rule,
# which walked every first step that looked for spanning paths only, made
# 26,194
WINDMILL_REACH_TESTS = 23_625


class TestCountFirst:
    """A graph with at most two leaves is counted before it is walked: a
    nonzero count is the answer, and only a graph without a spanning path
    is walked, with no first step that looks for spanning paths only."""

    def test_walks_only_without_spanning_path_n_le_7(self, corpus_by_n, monkeypatch):
        graphs = [g for n in range(1, 7) for g in corpus_by_n[n]] + generate_connected_graphs(7)
        wants = {}
        for g in graphs:
            for cap in (None, 1, 2, 3, 4):
                wants[g, cap] = eager_longest_paths(g, cap)
        walked = []
        walk = lplab.longest._walk

        def recording(g, keep, spans):
            # a read of a spanning set's members walks with spans
            if not spans:
                walked.append(g)
            return walk(g, keep, spans)

        monkeypatch.setattr(lplab.longest, "_walk", recording)
        without = 0
        for g in graphs:
            spanning = wants[g, None].length == g.n - 1
            without += not spanning
            for cap in (None, 1, 2, 3, 4):
                for count_cap in (None, 1, 2, 3, 4):
                    walked.clear()
                    got = enumerate_longest_paths(g, cap, count_cap=count_cap)
                    assert walked == ([] if spanning else [g]), encode_graph6(g)
                    want = wants[g, cap]
                    assert _facts(got) == _facts(want)
                    assert [p.vertices for p in got.paths] == [p.vertices for p in want.paths]
            walked.clear()
            assert longest_path_length(g) == wants[g, None].length
            assert walked == ([] if spanning else [g])
        # 852 of the 996 graphs, K1 and K2 among them, have a spanning path
        assert without == 144

    def test_windmills(self, monkeypatch):
        rng = random.Random(29)
        mills = [windmill(rng, rng.randint(15, 23)) for _ in range(30)]
        calls = 0
        reaches = lplab.longest._reaches

        def counted(*args):
            nonlocal calls
            calls += 1
            return reaches(*args)

        with monkeypatch.context() as patch:
            patch.setattr(lplab.longest, "_reaches", counted)
            got = [enumerate_longest_paths(g) for g in mills]
        assert calls <= WINDMILL_REACH_TESTS, calls
        for g, lps in zip(mills, got):
            assert min(map(g.degree, range(g.n))) >= 2
            want = eager_longest_paths(g)
            assert want.length < g.n - 1
            assert _facts(lps) == _facts(want)
            assert [p.vertices for p in lps.paths] == [p.vertices for p in want.paths]
            assert longest_path_length(g) == want.length

    def test_small_windmills_against_permutation_oracle(self):
        # the eager oracle shares _walk and its first-step skip; the
        # permutation oracle shares nothing, and is fast enough at n <= 12
        rng = random.Random(30)
        for _ in range(20):
            g = windmill(rng, rng.randint(10, 12))
            want = enumerate_longest_paths_oracle(g)
            assert want.length < g.n - 1
            lps = enumerate_longest_paths(g)
            assert _facts(lps) == _facts(want), encode_graph6(g)
            assert [p.vertices for p in lps.paths] == [p.vertices for p in want.paths]
            assert longest_path_length(g) == want.length


def grid(rows: int, cols: int) -> Graph:
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return Graph.from_edges(rows * cols, edges)


def _facts(lps) -> tuple:
    return lps.length, len(lps), lps.truncated, lps.common_mask()


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def cube() -> Graph:
    """Q3: vertices 0..7, joined when their labels differ in one bit."""
    return Graph.from_edges(8, [(u, u | 1 << i) for u in range(8) for i in range(3) if not u >> i & 1])


# calls of _count_spanning's nested dfs over the connected n <= 7 corpus at
# count_cap=41, made while each spanning path was counted in both directions
# and only the last edge was added in the parent's loop
SPANNING_DFS_CALLS_BOTH_DIRECTIONS_N7 = 117_460


class TestCount:
    CAPS = (1, 2, 3, 7, None)

    def test_matches_enumeration_n_le_7(self, corpus_by_n):
        spanning = 0
        for n in range(1, 8):
            for g in corpus_by_n[n] if n < 7 else generate_connected_graphs(7):
                for cap in self.CAPS:
                    counted = enumerate_longest_paths(g, cap)
                    assert _facts(counted) == _facts(eager_longest_paths(g, cap))
                # K1 and K2 keep their one path
                counts = not isinstance(counted.paths, tuple)
                assert counts == (n > 2 and counted.length == n - 1)
                spanning += counts
        assert spanning == 850

    def test_matches_enumeration_random_labels(self):
        rng = random.Random(20261018)
        routes = {True: 0, False: 0}
        for _ in range(200):
            g = random_labelled_graph(rng, 14, base_max=10)
            for cap in self.CAPS:
                counted = enumerate_longest_paths(g, cap)
                assert _facts(counted) == _facts(eager_longest_paths(g, cap))
            routes[not isinstance(counted.paths, tuple)] += 1
        assert min(routes.values()) >= 50, routes

    def test_count_caps_match_enumeration_n_le_7(self, corpus_by_n):
        graphs = [g for n in range(1, 7) for g in corpus_by_n[n]]
        self._check_count_caps(graphs + generate_connected_graphs(7))

    def test_count_caps_match_enumeration_random_labels(self):
        rng = random.Random(20261019)
        graphs = [
            sparse_labelled_graph(rng, n, rng.randint(1, n))
            for n in range(8, 12) for _ in range(30)
        ]
        spanning = self._check_count_caps(graphs)
        assert min(spanning, len(graphs) - spanning) >= 30, spanning

    @staticmethod
    def _check_count_caps(graphs: list[Graph]) -> int:
        """Each count under count_cap c against the eager walk: count_upto(c)
        reads min(len, c) first, and then every answer is the eager one, capped
        at cap.  Returns the number of graphs with a spanning path."""
        spanning = 0
        for g in graphs:
            for cap in (None, 41):
                kept = eager_longest_paths(g, cap)
                counts = g.n > 2 and kept.length == g.n - 1
                for c in (1, 2, 41, 42):
                    got = enumerate_longest_paths(g, cap, count_cap=c)
                    assert got.count_upto(c) == min(len(kept), c)
                    assert _facts(got) == _facts(kept)
            spanning += counts
        return spanning

    @pytest.mark.parametrize("g, count", [
        # regular: every degree ties, so a = 0 and b = 1; on C_n some paths
        # end in a, b, and others in b
        *(pytest.param(cycle(n), n, id=f"C{n}") for n in range(3, 10)),
        pytest.param(Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)]), 36, id="K33"),
        pytest.param(cube(), 72, id="Q3"),
        pytest.param(None, 120, id="Petersen"),
        # a = 4, a pendant of b = 3: K4 plus a pendant
        pytest.param(Graph.from_edges(5, [*itertools.combinations(range(4), 2), (3, 4)]), 6, id="K4+pendant"),
        # a = 0, a pendant two steps from b = 1: K5 on 1..5 and the path 0, 6, 1
        pytest.param(
            Graph.from_edges(7, [*itertools.combinations(range(1, 6), 2), (0, 6), (6, 1)]), 24, id="K5+tail"
        ),
        # a = 4 and 5 are pendants of b = 0 and of 1: the paths run 4, 0, .., 1, 5
        pytest.param(
            Graph.from_edges(6, [*itertools.combinations(range(4), 2), (0, 4), (1, 5)]), 2, id="K4+2pendants"
        ),
        # a = 0 ends the one spanning path and b = 1 follows it
        pytest.param(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 1, id="P4"),
        # a = 0 and b = 3 opposite on C6 with the chords 1-3 and 3-5
        pytest.param(Graph.from_edges(6, [*cycle(6).edges(), (1, 3), (3, 5)]), None, id="C6+chords"),
    ])
    def test_pick_of_a_and_b(self, g, count, petersen):
        g = g or petersen
        want = eager_longest_paths(g, None)
        if g.n <= ORACLE_MAX_N:
            assert _facts(want) == _facts(enumerate_longest_paths_oracle(g))
        assert want.length == g.n - 1
        assert count is None or len(want) == count
        for cap in (None, *range(max(1, len(want) - 1), len(want) + 2)):
            assert _facts(enumerate_longest_paths(g, cap)) == _facts(eager_longest_paths(g, cap))

    @pytest.mark.parametrize("g, count", [
        pytest.param(grid(4, 5), 1006, id="grid4x5"), pytest.param(cube(), 72, id="Q3"),
    ])
    def test_count_under_relabelling(self, g, count):
        # the pick of a and b follows the labels; the count must not
        rng = random.Random(count)
        for _ in range(20):
            label = list(range(g.n))
            rng.shuffle(label)
            counted = enumerate_longest_paths(relabel(g, label), None)
            assert (counted.length, len(counted), counted.truncated) == (g.n - 1, count, False)

    def test_each_path_walked_once(self, corpus_by_n):
        # the walk's states over the connected n <= 7 corpus at count_cap=41
        # fall to under 0.4 of what the count of both directions took
        dfs = next(
            c for c in lplab.longest._count_spanning.__code__.co_consts
            if getattr(c, "co_name", None) == "dfs"
        )
        graphs = [g for n in range(1, 7) for g in corpus_by_n[n]] + generate_connected_graphs(7)
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is dfs:
                calls += 1

        sys.setprofile(profile)
        try:
            for g in graphs:
                enumerate_longest_paths(g, count_cap=41)
        finally:
            sys.setprofile(None)
        assert 0 < calls <= 0.4 * SPANNING_DFS_CALLS_BOTH_DIRECTIONS_N7, calls

    def test_k20_stops_at_the_cap(self):
        # 20!/2 spanning paths: the count stops once it passes the cap
        counted = enumerate_longest_paths(Graph.from_edges(20, itertools.combinations(range(20), 2)))
        assert (counted.length, len(counted), counted.truncated) == (19, DEFAULT_PATH_CAP, True)
        assert counted.common_mask() == (1 << 20) - 1

    def test_grid(self):
        counted = enumerate_longest_paths(grid(5, 5))
        assert (counted.length, len(counted), counted.truncated) == (24, 4324, False)
        assert _facts(enumerate_longest_paths(grid(5, 5), cap=4323))[1:3] == (4323, True)
        assert _facts(enumerate_longest_paths(grid(5, 5), cap=4324))[1:3] == (4324, False)

    def test_count_cap_stops_spanning_counts_only(self, h_graph):
        g = grid(5, 5)  # 4324 spanning paths
        # (count_upto(count_cap), len, truncated): the flag says "more than
        # cap" whatever count_cap is
        for count_cap, cap, want in (
            (4323, DEFAULT_PATH_CAP, (4323, 4324, False)),
            (4324, DEFAULT_PATH_CAP, (4324, 4324, False)),
            (41, DEFAULT_PATH_CAP, (41, 4324, False)),
            (41, 40, (40, 40, True)),
            (41, None, (41, 4324, False)),
            (10**15, None, (4324, 4324, False)),
        ):
            counted = enumerate_longest_paths(g, cap, count_cap=count_cap)
            got = counted.count_upto(count_cap), len(counted), counted.truncated
            assert (counted.length, *got) == (24, *want)
        # without a spanning path the walk's paths are kept up to cap alone
        assert enumerate_longest_paths(h_graph, count_cap=1) == eager_longest_paths(h_graph)
        with pytest.raises(TypeError):
            enumerate_longest_paths(g, 10, 5)
        with pytest.raises(UsageError):
            enumerate_longest_paths(g, count_cap=0)

    def test_cache_freed_on_return(self):
        # with the collector off, only plain reference counting can free it
        g = grid(4, 6)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(enumerate_longest_paths(g)) == 3610
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak - before > 1_000_000
        assert after - before < 50_000

    def test_paths_of_a_count_are_built_when_read(self, c5):
        counted = enumerate_longest_paths(c5)
        assert not isinstance(counted.paths, tuple)
        assert len(counted) == 5
        want = eager_longest_paths(c5).paths
        assert counted.paths[1:4] == want[1:4]
        assert counted.paths[-1] == counted.paths[4] == want[4]
        assert tuple(counted.paths) == want
        with pytest.raises(IndexError):
            counted.paths[5]

    def test_without_spanning_path_the_paths_are_kept(self, k13, h_graph):
        for g in (k13, h_graph):
            assert enumerate_longest_paths(g) == eager_longest_paths(g)

    def test_spanning_sets_compare_unbuilt(self, c5, monkeypatch):
        # two counts of one graph's spanning paths are equal, with equal
        # hashes, and neither is built to say so
        def refuse(*args):
            raise AssertionError("a path was built")

        monkeypatch.setattr(lplab.longest, "_path", refuse)
        a, b = enumerate_longest_paths(c5), enumerate_longest_paths(cycle(5))
        assert a == b and hash(a) == hash(b) and {a, b} == {a}
        # the same count of another labelling's paths, or fewer of them
        pentagram = enumerate_longest_paths(relabel(c5, [0, 2, 4, 1, 3]))
        assert (pentagram.length, len(pentagram), pentagram.truncated) == (4, 5, False)
        assert a != pentagram and a != enumerate_longest_paths(c5, cap=4)
        monkeypatch.undo()
        assert tuple(a.paths) == eager_longest_paths(c5).paths

    def test_validation(self, c5):
        with pytest.raises(UsageError):
            enumerate_longest_paths(c5, cap=0)
        with pytest.raises(UsageError):
            enumerate_longest_paths(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestDepthLimit:
    """The walks take one Python frame per path vertex; past the recursion
    limit each entry point says so with a UsageError, never RecursionError."""

    @pytest.mark.parametrize("g", [
        pytest.param(Graph.from_edges(1500, [(v, v + 1) for v in range(1499)]), id="P1500"),
        pytest.param(cycle(1500), id="C1500"),
    ])
    def test_entry_points_refuse(self, g):
        for find in (enumerate_longest_paths, longest_path_length):
            with pytest.raises(UsageError, match=f"recursion limit of {sys.getrecursionlimit()}"):
                find(g)
        # the first read of a spanning set walks its paths out
        paths = lplab.longest._SpanningPaths(g, 1)
        with pytest.raises(UsageError, match="recursion limit"):
            paths[0]


def complete(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


class TestStoppedCount:
    """A spanning set made with count_cap=c holds a count stopped at c; the
    first read that needs more finishes it, up to the path cap, and every
    read then answers as on the set counted at once."""

    READS = {
        "len": len,
        "truncated": lambda lps: lps.truncated,
        "members": lambda lps: (lps.paths[0], lps.paths[1], lps.paths[-1]),
        "eq": lambda lps: lps,  # compared with ==
        "hash": hash,
    }

    @pytest.mark.parametrize("n, count, truncated", [
        (6, 360, False), (8, 20160, False), (11, DEFAULT_PATH_CAP, True),
    ])
    def test_reads_match_the_eager_set(self, monkeypatch, n, count, truncated):
        g = complete(n)
        eager = enumerate_longest_paths(g)
        assert (len(eager), eager.truncated) == (count, truncated)
        stops = []
        count_spanning = lplab.longest._count_spanning

        def recorded(g, stop):
            stops.append(stop)
            return count_spanning(g, stop)

        monkeypatch.setattr(lplab.longest, "_count_spanning", recorded)
        for first, read in self.READS.items():
            stops.clear()
            lazy = enumerate_longest_paths(g, count_cap=3)
            assert lazy.count_upto(3) == 3 and stops == [3]
            assert read(lazy) == read(eager), first
            assert stops == [3, DEFAULT_PATH_CAP + 1], first
            for name, again in self.READS.items():
                assert again(lazy) == again(eager), (first, name)
            assert eager == lazy and lazy.count_upto(3) == 3
            assert stops == [3, DEFAULT_PATH_CAP + 1], first

    @pytest.mark.parametrize("read", ["len", "truncated", "members"])
    def test_finishing_too_deep_is_a_usage_error(self, read):
        # C200's count stops at its first path; finishing it takes about 200
        # frames, past a recursion limit 50 frames above this one
        lazy = enumerate_longest_paths(cycle(200), count_cap=1)
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            with pytest.raises(UsageError, match="recursion limit"):
                self.READS[read](lazy)
        finally:
            sys.setrecursionlimit(limit)


def spanning_labelled_graph(rng: random.Random, n: int) -> Graph:
    """A path through all n vertices plus up to n chords, with its vertices
    relabelled at random."""
    edges = {(v, v + 1) for v in range(n - 1)}
    absent = [(u, v) for u, v in itertools.combinations(range(n), 2) if (u, v) not in edges]
    edges.update(rng.sample(absent, rng.randint(0, n)))
    label = list(range(n))
    rng.shuffle(label)
    return relabel(Graph.from_edges(n, sorted(edges)), label)


class TestUnrank:
    """paths[i] of a count is the i-th path of the enumeration."""

    @staticmethod
    def _same_paths(g: Graph, cap: int | None) -> bool:
        counted = enumerate_longest_paths(g, cap)
        want = eager_longest_paths(g, cap).paths
        return len(counted) == len(want) and all(
            counted.paths[i] == p for i, p in enumerate(want)
        )

    def test_every_index_n_le_7(self, corpus_by_n):
        graphs = [g for n in range(1, 7) for g in corpus_by_n[n]] + generate_connected_graphs(7)
        for g in graphs:
            for cap in (None, 1, 2, 3, 7):
                assert self._same_paths(g, cap), (encode_graph6(g), cap)

    def test_every_index_random_labels(self):
        rng = random.Random(20261020)
        for _ in range(200):
            g = spanning_labelled_graph(rng, rng.randint(9, 12))
            counted = enumerate_longest_paths(g, None)
            assert counted.length == g.n - 1 and not counted.truncated
            assert self._same_paths(g, None), encode_graph6(g)

    @pytest.mark.parametrize("cap", [4323, 4324])
    def test_grid(self, cap):
        # 4,324 spanning paths: the count is truncated at 4,323 and exact at 4,324
        assert self._same_paths(grid(5, 5), cap)

    @pytest.mark.parametrize("n", [11, 20])
    def test_truncated_count_walks_no_memo(self, n):
        # the first read walks out the first cap paths, with no state memo
        counted = enumerate_longest_paths(Graph.from_edges(n, itertools.combinations(range(n), 2)))
        assert (len(counted), counted.truncated) == (DEFAULT_PATH_CAP, True)
        # K_n's first canonical paths are 0 and each order of 1..n-1
        for i in (0, 1, DEFAULT_PATH_CAP - 1):
            order = next(itertools.islice(itertools.permutations(range(1, n)), i, None))
            assert counted.paths[i].vertices == (0, *order)


# sha256 over f"{graph6}\t{ell}\t{len(paths)}\t{truncated}\n", one line per
# connected graph with n <= 7, n ascending, each n in graph6 order
CORPUS_LE7_SHA256 = "e5610c5b599a753e2f40e8c3e9f943958c78129ff16abe8148d855b779972383"


@pytest.mark.parametrize("find", [enumerate_longest_paths, eager_longest_paths])
def test_corpus_digest(corpus_by_n, find):
    digest = hashlib.sha256()
    for n in range(1, 8):
        for g in corpus_by_n[n] if n < 7 else generate_connected_graphs(7):
            lps = find(g)
            digest.update(f"{encode_graph6(g)}\t{lps.length}\t{len(lps)}\t{lps.truncated}\n".encode())
    assert digest.hexdigest() == CORPUS_LE7_SHA256


class TestOracle:
    def test_guard(self):
        big = Graph.from_edges(ORACLE_MAX_N + 1, [(i, i + 1) for i in range(ORACLE_MAX_N)])
        with pytest.raises(UsageError):
            enumerate_longest_paths_oracle(big)


def miss_cover(masks, k, node_cap=None):
    """demand_cover at demand 1, on rows that hold 1 where a mask misses a
    vertex: the first cover of at most k masks with an empty AND."""
    width = max((m.bit_length() for m in masks), default=0)
    rows = [[1 - (m >> v & 1) for v in range(width)] for m in masks]
    return demand_cover(rows, 1, k, node_cap)


class TestPairwiseIntersection:
    # every two paths meet iff the cover search finds no pair at k = 2

    @staticmethod
    def disjoint_pair(paths):
        return miss_cover([p.mask for p in paths], 2)[0]

    def test_holds(self, k13):
        assert self.disjoint_pair(enumerate_longest_paths(k13).paths) is None

    def test_first_violation_reported(self):
        paths = [Path((0, 1)), Path((1, 2)), Path((3, 4))]
        assert self.disjoint_pair(paths) == (0, 2)

    def test_corpus(self, corpus_by_n):
        for n in range(1, 7):
            for g in corpus_by_n[n]:
                assert self.disjoint_pair(enumerate_longest_paths(g).paths) is None


class TestFirstEmptyIntersection:
    """The cover search at demand 1: k paths with no common vertex."""

    # vertex sets {0,1}, {1,2}, {0,2}, {0,1,2}: every pair meets, the first
    # three have no common vertex
    MASKS = (0b011, 0b110, 0b101, 0b111)

    def test_least_subset(self):
        assert miss_cover(self.MASKS, 2)[0] is None
        assert miss_cover(self.MASKS, 3)[0] == (0, 1, 2)
        assert miss_cover(self.MASKS, 4)[0] == (0, 1, 2, 3)

    def test_witness_is_the_cover_found(self):
        # vertex sets {0,1}, {0}, {1}, {2}: the search branches on vertex 0,
        # takes path 2, then path 1 for vertex 1.  (0, 3) is the least pair,
        # but the witness is the cover found, padded with the least unused
        # indices up to k
        masks = (0b011, 0b001, 0b010, 0b100)
        assert miss_cover(masks, 2) == ((1, 2), 3, False)
        assert miss_cover(masks, 3) == ((0, 1, 2), 3, False)
        assert miss_cover(masks, 4) == ((0, 1, 2, 3), 3, False)

    def test_more_members_than_paths(self):
        assert miss_cover(self.MASKS, 5) == (None, 0, False)
        assert miss_cover((), 2) == (None, 0, False)

    def test_node_cap(self):
        subset, nodes, capped = miss_cover(self.MASKS, 3, node_cap=1)
        assert (subset, nodes, capped) == (None, 1, True)
        subset, nodes, capped = miss_cover(self.MASKS, 3)
        assert subset == (0, 1, 2) and not capped
        assert miss_cover(self.MASKS, 3, node_cap=nodes)[0] == subset


def reaches_demand(rows, subset, demand) -> bool:
    return all(sum(rows[i][v] for i in subset) >= demand for v in range(len(rows[0])))


def cover_exists(rows, demand, k) -> bool:
    """Brute force: do at most k of the rows, k <= len(rows), reach demand?"""
    return k <= len(rows) and any(
        reaches_demand(rows, subset, demand)
        for size in range(k + 1)
        for subset in itertools.combinations(range(len(rows)), size)
    )


def check_cover(rows, demand, k) -> tuple[int, ...] | None:
    """demand_cover's answer, checked against brute force."""
    cover, _, capped = demand_cover(rows, demand, k)
    assert not capped
    assert (cover is not None) == cover_exists(rows, demand, k)
    if cover is not None:
        assert list(cover) == sorted(set(cover)) and len(cover) == k
        assert reaches_demand(rows, cover, demand)
    return cover


class TestDemandCover:
    # rows 0 and 1 together give 2 to every column; no other pair does, and
    # no pair gives 3 to column 2
    ROWS = ([2, 0, 1], [0, 2, 1], [1, 1, 0])

    def test_cover(self):
        assert demand_cover(self.ROWS, 2, 2) == ((0, 1), 3, False)
        assert demand_cover(self.ROWS, 2, 3) == ((0, 1, 2), 3, False)
        assert demand_cover(self.ROWS, 4, 3)[0] is None

    def test_prune(self):
        # column 2's two largest entries sum to 2 < 3: cut at the root
        assert demand_cover(self.ROWS, 3, 2) == (None, 1, False)

    def test_node_cap(self):
        assert demand_cover(self.ROWS, 2, 2, node_cap=2) == (None, 2, True)
        assert demand_cover(self.ROWS, 2, 2, node_cap=3)[0] == (0, 1)


@given(
    st.integers(1, 5).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(0, 3), min_size=width, max_size=width), max_size=7
        )
    ),
    st.integers(1, 3),
    st.integers(1, 5),
)
@settings(max_examples=300)
def test_demand_cover_matches_brute_force(rows, demand, k):
    check_cover(rows, demand, k)


@pytest.fixture(scope="module")
def g1_longest(h_g1):
    lps = enumerate_longest_paths(h_g1)
    return h_g1, lps.paths, [bfs_distances(h_g1, p.vertices) for p in lps.paths]


@given(st.data())
@settings(max_examples=25)
def test_demand_cover_on_g1_distances(g1_longest, data):
    # G_1 of H: 18 longest paths with no common vertex, max f = 2 at k = 9;
    # the brute force is the greatest f over every k-subset of the picks,
    # which at most k picks reach iff k of them do
    g, paths, rows = g1_longest
    picks = data.draw(st.lists(st.sampled_from(range(len(paths))), min_size=12, max_size=18,
                               unique=True))
    k = data.draw(st.integers(9, 11))
    chosen = np.array([rows[i] for i in picks])
    combos = np.array(list(itertools.combinations(range(len(picks)), k)))
    best = int(chosen[combos].sum(axis=1).min(axis=1).max())
    for demand in (1, 2, 3):
        cover, _, capped = demand_cover(chosen.tolist(), demand, k)
        assert not capped and (cover is not None) == (best >= demand)
        if cover is not None:
            assert len(cover) == k and chosen[list(cover)].sum(axis=0).min() >= demand
    # at demand 1 a cover is k paths with no common vertex, and rows of 0s
    # and 1s read from the masks give the same search
    members = [paths[i] for i in picks]
    misses = [[1 - (p.mask >> v & 1) for v in range(g.n)] for p in members]
    assert demand_cover(misses, 1, k) == demand_cover(chosen.tolist(), 1, k)
    assert (best >= 1) == any(
        not common_mask([members[i] for i in combo]) for combo in combos
    )
