from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import random
import tracemalloc
import zlib
from fractions import Fraction

import networkx as nx
import numpy as np

import pytest

import lplab.graphs
import lplab.longest
import lplab.systems
from lplab import harness
from lplab.bounds import DEFAULT_CHECKS, common_vertex_verdicts, run_checks
from lplab.construct import build_gt
from lplab.errors import FormatError, UsageError
from lplab.graphs import Graph, bfs_distances, encode_graph6, parse_graph6
from lplab.longest import (
    LongestPathSet,
    Path,
    enumerate_longest_paths,
    longest_path_length,
)
from lplab.harness import (
    CONJECTURE_SUBSET_CAP,
    ScanConfig,
    check_conjecture,
    generate_connected_graphs,
    iter_ksubsets,
    scan_stream,
)
from lplab.systems import (
    certified_system,
    common_vertices,
    make_path_system,
    path_distance_value,
)
from conftest import C4_EDGE_PATHS, H_GRAPH6, H_PRIME_GRAPH6, H_SYSTEM, cap_searches
from oracles import (
    canonical_sequence,
    canonical_code,
    conjecture_oracle,
    eager_longest_paths,
    f_and_minimizers_oracle,
    generate_graphs,
    labeled_scan_canonical_codes,
    search_plan_oracle,
)

# H's least violating 9-subset of its 42 longest paths, in enumeration order;
# the cover search finds these nine
H_LEAST_VIOLATION = [24, 25, 26, 27, 29, 31, 32, 33, 37]
# the same for G_1 of H, whose nine members have f = 2
G1_LEAST_VIOLATION = [0, 1, 2, 3, 5, 7, 8, 9, 13]
# the twins of H', with the second pendant at vertex 3 or 4
H_PRIME_TWINS = ("LhAAPWU_?_@?C?", "LhAAPWU_?_@?A?")
H_PRIME_WITNESS = [32, 33, 34, 35, 37, 39, 40, 41, 46]


KNOWN_TOTAL = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
KNOWN_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

# sha256 of the graph6 lines ("<graph6>\n" each) of generate_graphs(n): the
# exact labelled representatives, which key the golden reports and the
# benchmark reference
GENERATOR_SHA256 = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
    3: "aefbaa12a956ed1f415fa897c455185134275a89a57ce1ef7d38f771c0d9129e",
    4: "c98e9d5ed38843ff55effb40b3ccc33e348027626268109e4811b64f4d7455ff",
    5: "56286371a37b47e30f9d07d82c51cea8a926ca75bafb69a7c899fa01587e8502",
    6: "0d7169693ecae6cb03922ecd075c3d36acedb22f69a3a3ca18e828602f99fdc8",
    7: "7a3723d2e7557cd2b564c1e75d21c49ceacecc45ec76f6c514be3c4722e54005",
    8: "9f1ce8b573409d30f489861409e63f6922c06f829560cb4fec0fa64beb71eb13",
}

# _maps_onto calls made generating n = 1..7: 5,943 when every candidate that
# lands in a bucket is searched, 975 when only those whose relabelling
# matches no representative's are, and 445 when a duplicate's form is known
# once a search has found it
SEARCHES_N7_MAX = 500
# tracemalloc peak of generating n = 7 from a cached n = 6, in bytes: 652 KB
# with buckets of relabelled tuples, about 370-430 KB with int forms
# (Python 3.11.7)
PEAK_N7_MAX = 520 * 1024
# tracemalloc peak of the theorem-only k = 3 scan of the 853 connected
# graphs on 7 vertices at jobs 1, generated beforehand, in bytes: about
# 1,000 KB when every record was kept until a sort at the end, 100-230 KB
# when each record is merged as it arrives (Python 3.11.7)
SCAN_PEAK_N7_MAX = 500 * 1024

def _random_graph_masks(rng: random.Random, n: int) -> list[int]:
    masks = [0] * n
    p = rng.uniform(0.2, 0.8)
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return masks


def _relabelled(rng: random.Random, masks: list[int]) -> list[int]:
    perm = list(range(len(masks)))
    rng.shuffle(perm)
    out = [0] * len(masks)
    for u, m in enumerate(masks):
        for v in range(len(masks)):
            if m >> v & 1:
                out[perm[u]] |= 1 << perm[v]
    return out


def _double_edge_swaps(rng: random.Random, masks: list[int], swaps: int) -> list[int]:
    """Replace edges ab, cd by ac, bd, where possible: same degree sequence."""
    out = list(masks)
    n = len(out)
    for _ in range(20 * swaps):
        edges = [(u, v) for u in range(n) for v in range(n) if out[u] >> v & 1]
        if swaps == 0 or len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not out[a] >> c & 1 and not out[b] >> d & 1:
            out[a] ^= (1 << b) | (1 << c)
            out[b] ^= (1 << a) | (1 << d)
            out[c] ^= (1 << d) | (1 << a)
            out[d] ^= (1 << c) | (1 << b)
            swaps -= 1
    return out


def _sorted_tagged_keys(masks) -> list[int]:
    """masks' vertex keys tagged with their labels, as _extensions yields
    them, in key order."""
    return sorted(k << harness._TAG_BITS | v for v, k in enumerate(harness._vertex_keys(masks)))


def _isomorphic(masks1, masks2) -> bool:
    """The generator's test: equal sorted vertex keys, then the bitmask search
    from the first graph onto the form of the second (its relabelling in key
    order)."""
    tagged1, tagged2 = _sorted_tagged_keys(masks1), _sorted_tagged_keys(masks2)
    tag = harness._TAG_BITS
    if [t >> tag for t in tagged1] != [t >> tag for t in tagged2]:
        return False
    plan = harness._search_plan(masks1, tagged1)
    order2 = [t & harness._TAG_MASK for t in tagged2]
    return harness._maps_onto(plan, harness._relabel(masks2, order2))


def _nx_graph(masks: list[int]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(len(masks)))
    g.add_edges_from((u, v) for u, m in enumerate(masks) for v in range(u) if m >> v & 1)
    return g


class TestGenerator:
    def test_counts(self):
        for n in KNOWN_TOTAL:
            assert len(generate_graphs(n)) == KNOWN_TOTAL[n]
            assert len(generate_connected_graphs(n)) == KNOWN_CONNECTED[n]

    def test_range_guard(self):
        with pytest.raises(UsageError):
            generate_connected_graphs(0)
        with pytest.raises(UsageError):
            generate_connected_graphs(10)

    def test_sorted_and_distinct(self, corpus_by_n):
        for gs in corpus_by_n.values():
            codes = [encode_graph6(g) for g in gs]
            assert codes == sorted(codes)
            assert len(set(codes)) == len(codes)

    def test_matches_labeled_scan_oracle(self):
        # an independent full scan of labeled graphs yields the same set of
        # isomorphism classes for each small order
        for n in range(1, 7):
            ours = {canonical_code(g) for g in generate_graphs(n)}
            assert ours == labeled_scan_canonical_codes(n)

    @pytest.mark.parametrize("n", sorted(GENERATOR_SHA256))
    def test_same_representatives(self, n):
        lines = "".join(encode_graph6(g) + "\n" for g in generate_graphs(n))
        assert hashlib.sha256(lines.encode()).hexdigest() == GENERATOR_SHA256[n]

    def test_extension_keys_and_twin_pruning(self):
        # the per-vertex keys updated in O(1) equal the keys computed directly,
        # and exactly the twin-dominated subsets are skipped
        for base in harness._all_graph_masks(5):
            m = len(base)
            twins = [
                (u, w) for u, w in itertools.combinations(range(m), 2)
                if base[u] & ~(1 << w) == base[w] & ~(1 << u)
            ]
            expected = [
                s for s in range(1 << m)
                if not any(s >> w & 1 and not s >> u & 1 for u, w in twins)
            ]
            seen = []
            for masks, tagged in harness._extensions(base):
                assert masks[:m] == [b | (1 << m) if masks[m] >> v & 1 else b
                                     for v, b in enumerate(base)]
                assert [t >> harness._TAG_BITS for t in tagged] == harness._vertex_keys(masks)
                assert [t & harness._TAG_MASK for t in tagged] == list(range(m + 1))
                seen.append(masks[m])
            assert seen == expected

    def test_search_plan_matches_quadratic_oracle(self):
        # the one-pass run scan over the sorted tagged keys builds the plan of
        # the count/index version over the order and the sorted keys, from a
        # tuple and from a list alike
        candidates = 0
        for n in range(1, 7):
            for base in harness._all_graph_masks(n):
                for masks, tagged in harness._extensions(base):
                    tagged.sort()
                    order = [t & harness._TAG_MASK for t in tagged]
                    sorted_keys = [t >> harness._TAG_BITS for t in tagged]
                    for arg in (tuple(tagged), tagged):
                        assert harness._search_plan(masks, arg) == \
                            search_plan_oracle(masks, order, sorted_keys)
                    candidates += 1
        assert candidates == 7194

    def test_equal_relabellings_skip_the_search(self, monkeypatch):
        # most candidates relabel in key order to a known form, that of a
        # representative or of a duplicate an earlier search found, and need
        # no search; regenerating n <= 7 must stay under SEARCHES_N7_MAX
        calls = 0
        maps_onto = harness._maps_onto

        def counted(plan, target):
            nonlocal calls
            calls += 1
            return maps_onto(plan, target)

        monkeypatch.setattr(harness, "_maps_onto", counted)
        saved = dict(harness._GRAPH_CACHE)
        harness._GRAPH_CACHE.clear()
        try:
            fresh = harness._all_graph_masks(7)
        finally:
            harness._GRAPH_CACHE.clear()
            harness._GRAPH_CACHE.update(saved)
        assert fresh == harness._all_graph_masks(7)
        assert calls <= SEARCHES_N7_MAX, calls

    def test_generation_memory(self):
        # the forms, bucket keys and known set are ints, so generating n = 7
        # from a cached n = 6 stays under PEAK_N7_MAX traced bytes
        harness._all_graph_masks(6)
        saved = dict(harness._GRAPH_CACHE)
        for n in range(7, harness.GENERATOR_MAX_N + 1):
            harness._GRAPH_CACHE.pop(n, None)
        tracemalloc.start()
        try:
            fresh = harness._all_graph_masks(7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            harness._GRAPH_CACHE.clear()
            harness._GRAPH_CACHE.update(saved)
        assert len(fresh) == KNOWN_TOTAL[7]
        assert peak <= PEAK_N7_MAX, peak

    def test_packed_widths(self, monkeypatch):
        # at n = 9 a key has 17 bits and a vertex tag 4; a field too narrow
        # for its largest value is an error at import, not a silent merge
        assert (harness._KEY_BITS, harness._TAG_BITS) == (17, 4)
        harness._check_widths()
        for name in ("_TRI_SHIFT", "_DEG_SHIFT", "_KEY_BITS", "_TAG_BITS"):
            with monkeypatch.context() as m:
                m.setattr(harness, name, getattr(harness, name) - 1)
                with pytest.raises(RuntimeError, match="GENERATOR_MAX_N = 9"):
                    harness._check_widths()

    def test_isomorphic_matches_networkx(self):
        # positives are random relabellings; the others are one to three
        # double-edge swaps, which keep the degree sequence
        rng = random.Random(1998)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            n = rng.randint(1, 9)
            g1 = _random_graph_masks(rng, n)
            g2 = _relabelled(rng, g1)
            if rng.random() < 0.75:
                g2 = _double_edge_swaps(rng, g2, rng.randint(1, 3))
            expected = nx.is_isomorphic(_nx_graph(g1), _nx_graph(g2))
            assert _isomorphic(g1, g2) == expected
            outcomes[expected] += 1
        assert min(outcomes.values()) >= 50, outcomes

    def test_isomorphic_on_colliding_keys(self):
        # n = 8 classes whose sorted vertex keys collide: only the search can
        # tell them apart
        rng = random.Random(8)
        groups: dict[tuple, list] = {}
        for masks in harness._all_graph_masks(8):
            groups.setdefault(tuple(sorted(harness._vertex_keys(masks))), []).append(masks)
        colliding = [g for g in groups.values() if len(g) > 1]
        assert len(colliding) == 86
        for group in colliding:
            for g1, g2 in itertools.combinations(group, 2):
                g2 = _relabelled(rng, list(g2))
                assert not nx.is_isomorphic(_nx_graph(list(g1)), _nx_graph(g2))
                assert not _isomorphic(g1, g2)
            for g1 in group:
                assert _isomorphic(g1, _relabelled(rng, list(g1)))


class TestIterKsubsets:
    def test_full_when_under_cap(self):
        subsets = list(iter_ksubsets(5, 2, 100, seed=0, salt="x"))
        assert subsets == list(itertools.combinations(range(5), 2))

    def test_sampled_when_over_cap(self):
        subsets = list(iter_ksubsets(20, 3, 15, seed=0, salt="x"))
        assert len(subsets) == 15
        assert len(set(subsets)) == 15
        assert subsets == sorted(subsets)
        assert all(len(s) == 3 and len(set(s)) == 3 for s in subsets)

    def test_deterministic(self):
        a = list(iter_ksubsets(20, 3, 15, seed=7, salt="y"))
        b = list(iter_ksubsets(20, 3, 15, seed=7, salt="y"))
        c = list(iter_ksubsets(20, 3, 15, seed=8, salt="y"))
        assert a == b
        assert a != c

    def test_exactly_cap_when_one_subset_is_left_out(self):
        # total = cap + 1: the sampler must find all but one subset
        for n_items in range(3, 8):
            for k in (1, 2, n_items - 1):
                cap = math.comb(n_items, k) - 1
                for seed in range(60):
                    subsets = list(iter_ksubsets(n_items, k, cap, seed, "x"))
                    assert len(subsets) == cap
                    assert len(set(subsets)) == cap
                    assert all(len(set(s)) == k for s in subsets)

    def test_exactly_cap_after_many_repeated_draws(self, monkeypatch):
        # the sampler once gave up after 20 * cap draws and returned fewer
        class Repeating(random.Random):
            repeats = 100

            def sample(self, population, k):
                if self.repeats:
                    self.repeats -= 1
                    return list(population)[:k]
                return super().sample(population, k)

        monkeypatch.setattr(harness.random, "Random", Repeating)
        subsets = list(iter_ksubsets(10, 3, 3, seed=0, salt="x"))
        assert len(subsets) == len(set(subsets)) == 3

    def test_same_draws_as_the_bounded_loop(self):
        # wherever the old loop (at most 20 * cap draws) reached the cap, the
        # sample is the one it drew, so sampled reports keep their bytes
        rng = random.Random(5)
        for _ in range(300):
            n_items = rng.randint(3, 12)
            k = rng.randint(1, n_items - 1)
            cap = rng.randint(1, math.comb(n_items, k) - 1)
            seed = rng.randrange(1000)
            old = random.Random(seed ^ zlib.crc32(b"salt"))
            seen = set()
            for _ in range(20 * cap):
                if len(seen) == cap:
                    break
                seen.add(tuple(sorted(old.sample(range(n_items), k))))
            assert len(seen) == cap
            assert list(iter_ksubsets(n_items, k, cap, seed, "salt")) == sorted(seen)


class TestCheckConjecture:
    def test_star_shortcut(self, k13):
        verdict = check_conjecture(k13, 3)
        assert verdict.status == "no-violation"
        assert verdict.used_shortcut
        # the shortcut searches no subset
        assert verdict.subsets_checked == 0

    def test_violation_branch_with_injected_paths(self):
        # hand-built path set on C4 with no globally common vertex: the first
        # 3-subset already has an empty intersection
        verdict = check_conjecture(parse_graph6("Cl"), 3, lps=C4_EDGE_PATHS)
        assert verdict.status == "violation"
        assert not verdict.used_shortcut
        assert verdict.witness["member_indices"] == [0, 1, 2]
        assert verdict.witness["f"] == 1

    def test_corpus_no_violation(self, corpus_by_n):
        for n in range(3, 7):
            for g in corpus_by_n[n]:
                assert check_conjecture(g, 3).status == "no-violation"

    def test_matches_exhaustive_oracle(self):
        # random families of equal-length paths on K_n, injected as the
        # longest paths; every k from 2 to one past the family size.  Any k
        # of the paths with no common vertex is a valid witness
        rng = random.Random(20161)
        searched = {"violation": 0, "no-violation": 0, "incomplete": 0}
        for _ in range(400):
            n = rng.randint(2, 8)
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
            length = rng.randint(0, n - 2)
            family = {
                canonical_sequence(rng.sample(range(n), length + 1))
                for _ in range(rng.randint(1, 12))
            }
            lps = LongestPathSet(length, tuple(Path(t) for t in sorted(family)),
                                 truncated=rng.random() < 0.2)
            disjoint = [
                pair for pair in itertools.combinations(range(len(lps.paths)), 2)
                if not lps.paths[pair[0]].mask & lps.paths[pair[1]].mask
            ]
            for k in range(2, len(lps.paths) + 2):
                verdict = check_conjecture(g, k, lps=lps)
                assert verdict.status == conjecture_oracle(g, k, lps)
                assert verdict.pair in disjoint if disjoint else verdict.pair is None
                if not verdict.used_shortcut:
                    searched[verdict.status] += 1
                if verdict.status != "violation":
                    assert verdict.witness is None
                    continue
                witness = verdict.witness
                indices = witness["member_indices"]
                assert indices == sorted(set(indices)) and len(indices) == k
                assert 0 <= indices[0] and indices[-1] < len(lps.paths)
                members = [lps.paths[i].vertices for i in indices]
                assert witness["members"] == [list(m) for m in members]
                assert not set.intersection(*map(set, members))
                assert witness["graph6"] == encode_graph6(g)
                assert (witness["f"], witness["minimizers"]) == f_and_minimizers_oracle(g, members)
        assert min(searched.values()) >= 50, searched

    def test_h_least_violating_k(self, h_graph):
        lps = enumerate_longest_paths(h_graph)
        for k in range(3, 9):
            verdict = check_conjecture(h_graph, k, lps=lps)
            assert verdict.status == "no-violation"
            assert not verdict.used_shortcut and verdict.witness is None
        verdict = check_conjecture(h_graph, 9, lps=lps)
        assert verdict.status == "violation"
        assert verdict.witness["member_indices"] == H_LEAST_VIOLATION
        assert verdict.witness["f"] == 1
        # the witness is the cover that the decision search found
        assert verdict.subsets_checked == 10
        verdict = check_conjecture(h_graph, 10, lps=lps)
        assert verdict.witness["member_indices"] == [0] + H_LEAST_VIOLATION

    def test_node_cap_gives_incomplete(self, h_graph, monkeypatch):
        # proving that every 8 of H's longest paths meet takes 511 nodes
        assert check_conjecture(h_graph, 8).subsets_checked == 511
        cap_searches(monkeypatch, 100)
        verdict = check_conjecture(h_graph, 8)
        assert verdict.status == "incomplete"
        assert 0 < verdict.subsets_checked <= 100
        assert verdict.witness is None

    @pytest.mark.parametrize("g6", (H_PRIME_GRAPH6,) + H_PRIME_TWINS)
    def test_h_prime_under_default_cap(self, g6):
        # every 8 longest paths meet, some 9 do not, and one cover search
        # shows it well inside the default node cap
        g = parse_graph6(g6)
        lps = enumerate_longest_paths(g)
        assert (g.n, lps.length, len(lps), lps.truncated) == (13, 9, 62, False)
        for k in range(3, 9):
            assert check_conjecture(g, k, lps=lps).status == "no-violation"
        verdict = check_conjecture(g, 9, lps=lps)
        assert verdict.status == "violation"
        witness = verdict.witness
        assert witness["f"] == 1
        if g6 == H_PRIME_GRAPH6:
            assert witness["member_indices"] == H_PRIME_WITNESS
        ps = make_path_system(g, witness["members"], require_longest=True)
        assert ps.k == 9 and not common_vertices(ps)

    def test_truncated_path_list(self, h_graph):
        full = enumerate_longest_paths(h_graph)
        # the first 38 paths hold the least violating 9-subset; the first 24 none
        for count, expected in ((24, "incomplete"), (38, "violation")):
            lps = LongestPathSet(full.length, full.paths[:count], truncated=True)
            verdict = check_conjecture(h_graph, 9, lps=lps)
            assert verdict.status == expected
        assert verdict.witness["member_indices"] == H_LEAST_VIOLATION

    def test_truncated_spanning_set_is_exact(self):
        # K11: each of the 11!/2 longest paths, past the cap too, is spanning
        # and so holds every vertex
        k11 = parse_graph6("J~~~~~~~~~_")
        for lps in (eager_longest_paths(k11), enumerate_longest_paths(k11)):
            assert lps.truncated and lps.length == k11.n - 1
            verdict = check_conjecture(k11, 3, lps=lps)
            assert verdict.status == "no-violation" and verdict.used_shortcut

    def test_truncated_set_below_spanning_stays_incomplete(self):
        # three K5 blocks sharing vertex 0: ell = 8 < 12, and all 1,728
        # longest paths pass through vertex 0, but the first 10 cannot show
        # that the paths past the cap do
        g = parse_graph6("L~}CKMF_C?oB_F")
        full = enumerate_longest_paths(g)
        assert (full.length, len(full), full.common_mask()) == (8, 1728, 1)
        lps = eager_longest_paths(g, cap=10)
        assert lps.truncated and lps.common_mask()
        counted = enumerate_longest_paths(g, cap=10)
        for verdict in (check_conjecture(g, 3, lps=lps), check_conjecture(g, 3, lps=counted)):
            assert verdict.status == "incomplete" and verdict.used_shortcut
            assert (verdict.max_f, verdict.max_f_exact) == (0, False)

    def test_k_guard(self, k13):
        with pytest.raises(UsageError):
            check_conjecture(k13, 1)

    def test_disconnected_guard(self):
        with pytest.raises(UsageError):
            check_conjecture(Graph.from_edges(4, [(0, 1), (2, 3)]), 3)


def _counted_searches(monkeypatch) -> list:
    """The k of each demand-1 cover search that harness runs from now on
    (the max f climb searches at demand 2 and up)."""
    ks = []
    search = harness.demand_cover

    def counted(rows, demand, k, *args):
        if demand == 1:
            ks.append(k)
        return search(rows, demand, k, *args)

    monkeypatch.setattr(harness, "demand_cover", counted)
    return ks


class TestConjecturePair:
    """ConjectureVerdict.pair: two listed paths with no common vertex, or None."""

    def test_shortcut(self, k13, monkeypatch):
        searches = _counted_searches(monkeypatch)
        verdict = check_conjecture(k13, 2)
        assert verdict.used_shortcut and verdict.pair is None
        assert searches == []

    def test_k2_capped(self, monkeypatch):
        # a k = 2 search cut by its cap answers nothing, so one uncapped
        # search at k = 2 finds the pair
        searches = _counted_searches(monkeypatch)
        cap_searches(monkeypatch, 1)
        verdict = check_conjecture(parse_graph6("Cl"), 2, lps=C4_EDGE_PATHS)
        assert (verdict.status, verdict.witness, verdict.pair) == ("incomplete", None, (1, 3))
        assert searches == [2, 2]

    def test_k2_reads_its_own_search(self, monkeypatch):
        searches = _counted_searches(monkeypatch)
        verdict = check_conjecture(parse_graph6("Cl"), 2, lps=C4_EDGE_PATHS)
        assert verdict.pair == (1, 3) == tuple(verdict.witness["member_indices"])
        assert searches == [2]

    def test_injected_c4_at_k3(self, monkeypatch):
        searches = _counted_searches(monkeypatch)
        verdict = check_conjecture(parse_graph6("Cl"), 3, lps=C4_EDGE_PATHS)
        assert verdict.status == "violation" and verdict.pair == (1, 3)
        assert searches == [3, 2]

    def test_more_k_than_paths(self):
        # no 5-subset of 4 paths exists, which says nothing of pairs
        verdict = check_conjecture(parse_graph6("Cl"), 5, lps=C4_EDGE_PATHS)
        assert verdict.status == "no-violation" and verdict.pair == (1, 3)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_h_one_search(self, h_graph, monkeypatch, k):
        # every k of H's longest paths meet: no cover of at most k paths,
        # so none of 2, with no second search (the k verdict and the
        # pairwise check used to search once each)
        searches = _counted_searches(monkeypatch)
        verdict = check_conjecture(h_graph, k)
        assert (verdict.status, verdict.used_shortcut, verdict.pair) == (
            "no-violation", False, None
        )
        assert searches == [k]
        searches.clear()
        record = harness.scan_one_graph(encode_graph6(h_graph), ScanConfig(k=k), h_graph)
        assert record["tallies"]["pairwise"] == {"pass": 1, "fail": 0, "vacuous": 0}
        assert record["failures"] == []
        assert searches == [k]


class TestScanConfig:
    def test_defaults(self):
        cfg = ScanConfig()
        assert cfg.k == 3 and cfg.jobs == 1 and not cfg.strict

    def test_conjecture_subset_cap_is_fixed(self):
        # one value, reported for the record, not a setting
        with pytest.raises(TypeError):
            ScanConfig(conjecture_subset_cap=5)
        # the theorem check reads every subset, so it has no sample cap
        with pytest.raises(TypeError):
            ScanConfig(subset_cap=5)
        assert ScanConfig().to_json()["conjecture_subset_cap"] == CONJECTURE_SUBSET_CAP == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 1},
            {"path_cap": 0},
            {"lemma_subset_cap": -1},
            {"lemma_subset_cap": 0},
            {"checks": ("lemma1", "bogus")},
            {"jobs": 0},
            {"jobs": -3},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(UsageError):
            ScanConfig(**kwargs)


class TestScanStream:
    def test_empty_input(self):
        report = scan_stream([], ScanConfig())
        assert report.graphs_scanned == 0
        assert not report.has_findings
        assert report.conjecture_status == "no-violation"

    def test_small_corpus(self, corpus_by_n):
        report = scan_stream(corpus_by_n[5], ScanConfig(k=3, lemma_subset_cap=5))
        assert report.graphs_scanned == 21
        assert report.conjecture_status == "no-violation"
        assert not report.halted and not report.failures
        assert report.tallies["pairwise"]["fail"] == 0
        assert report.tallies["thm3"]["fail"] == 0
        assert report.tallies["lemma1"]["fail"] == 0
        blob = report.to_json()
        assert "wall_time" not in json.dumps(blob)
        assert report.wall_time is not None

    def test_merge_reads_n_from_records(self, monkeypatch, corpus_by_n):
        # one parse per line: a jobs=1 scan hands the parsed graph to the
        # per-graph scan, and the merge takes n from the record
        calls = 0
        parse = harness.parse_graph6

        def counting(line):
            nonlocal calls
            calls += 1
            return parse(line)

        monkeypatch.setattr(harness, "parse_graph6", counting)
        lines = [encode_graph6(g) for g in corpus_by_n[5]]
        report = scan_stream(lines, ScanConfig(k=3, lemma_subset_cap=1))
        assert report.graphs_scanned == 21
        assert calls == 21

    def test_connectivity_searched_once_per_graph(self, monkeypatch, corpus_by_n):
        # the scan, its path enumeration, its conjecture check and its lemma
        # systems all ask whether a graph is connected; each parsed graph is
        # searched once, and a disconnected one too
        calls = 0
        search = lplab.graphs.masks_connected

        def counting(masks):
            nonlocal calls
            calls += 1
            return search(masks)

        lines = [encode_graph6(g) for n in range(1, 7) for g in corpus_by_n[n]]
        lines.append(encode_graph6(Graph.from_edges(4, [(0, 1), (2, 3)])))
        monkeypatch.setattr(lplab.graphs, "masks_connected", counting)
        report = scan_stream(lines, ScanConfig(k=3))
        assert report.graphs_scanned == len(lines) - 1 == 1 + 1 + 2 + 6 + 21 + 112
        assert report.graphs_skipped_disconnected == 1
        assert calls == len(lines)

    def test_scan_memory(self):
        # records are folded into the report as they arrive, so the scan
        # holds its sorted inputs and one record, not a record per graph
        graphs = generate_connected_graphs(7)
        config = ScanConfig(k=3, checks=("theorem",), jobs=1)
        tracemalloc.start()
        try:
            report = scan_stream(graphs, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.graphs_scanned == 853
        assert peak <= SCAN_PEAK_N7_MAX, peak

    @pytest.mark.parametrize("line, reencoded", [
        ("Ch", False),
        ("  Ch\n", False),
        (">>graph6<<Ch", True),
        (":Cdv", True),  # sparse6
        (">>sparse6<<:Cdv", True),
        ("~??Ch", True),  # a "~" order for n = 4, which has a one-byte order
        ("~~?????Ch", True),
        # n = 63 needs the "~" order: canonical, but not a one-byte order
        (encode_graph6(Graph.from_edges(63, [(v, v + 1) for v in range(62)])), True),
    ])
    def test_only_plain_one_byte_lines_kept(self, monkeypatch, line, reencoded):
        # a plain graph6 line with a one-byte order that parses is its own
        # canonical form; every other line is re-encoded
        encoded = []
        encode = harness.encode_graph6

        def counting(g):
            encoded.append(g)
            return encode(g)

        monkeypatch.setattr(harness, "encode_graph6", counting)
        [(g, g6)] = harness._normalised([line], ScanConfig())
        assert g6 == encode(g) and g == parse_graph6(line)
        assert len(encoded) == reencoded

    @pytest.mark.parametrize("checks, theorem_only", [
        (("theorem",), True),
        (("lemma1", "theorem"), False),
        (("lemma3",), False),
    ])
    def test_counts_only_without_lemma_checks(self, monkeypatch, corpus_by_n, checks, theorem_only):
        # every graph is looked up once; its spanning count may stop at k
        # without a lemma check, and at c* = 5 with one, the least c with
        # C(c, 3) >= the lemma cap of 10 (TestSpanningCountStop checks that
        # stopping gives the same report bytes); no lemma check runs at
        # k = 2, so there every count stops at 2
        count_caps = []
        real = harness.enumerate_longest_paths

        def count(g, **kwargs):
            count_caps.append(kwargs["count_cap"])
            return real(g, **kwargs)

        monkeypatch.setattr(harness, "enumerate_longest_paths", count)
        scan_stream(corpus_by_n[6], ScanConfig(k=3, checks=checks))
        assert count_caps == [3 if theorem_only else 5] * 112
        count_caps.clear()
        scan_stream(corpus_by_n[6], ScanConfig(k=2, checks=checks))
        assert count_caps == [2] * 112

    @pytest.mark.parametrize("checks, looked_up", [
        (("theorem",), 112),
        (("lemma1", "theorem"), 112),
        (("lemma3",), 112),
    ])
    def test_member_reads_go_through_enumerate_longest_paths(
        self, monkeypatch, corpus_by_n, checks, looked_up
    ):
        # the benchmark's gate wraps this one name to record ell and the
        # path count of every graph a scan reads, whatever its checks; a
        # count the scan stopped is finished by that read
        seen = []
        real = harness.enumerate_longest_paths

        def wrapped(g, **kwargs):
            lps = real(g, **kwargs)
            seen.append(lps)
            return lps

        monkeypatch.setattr(harness, "enumerate_longest_paths", wrapped)
        scan_stream(corpus_by_n[6], ScanConfig(k=3, checks=checks))
        assert len(seen) == looked_up
        for lps in seen:
            assert not lps.truncated
        assert max(len(lps) for lps in seen) == 360  # K6: 6!/2 paths

    def test_builds_only_the_sampled_spanning_paths(self, monkeypatch, corpus_by_n):
        # a graph with a spanning path builds none: its longest paths share
        # every vertex, which settles every check with no member read, and
        # the walk that finds ell builds no path it dropped
        built = 0
        real = lplab.longest._path

        def counted(vertices, mask):
            nonlocal built
            built += 1
            return real(vertices, mask)

        monkeypatch.setattr(lplab.longest, "_path", counted)
        spanning = 0
        for g in (g for n in range(1, 7) for g in corpus_by_n[n]):
            if longest_path_length(g) < g.n - 1:
                continue
            before = built
            scan_stream([g], ScanConfig())
            assert built == before, encode_graph6(g)
            spanning += 1
        assert spanning == 118

    def test_disconnected_skipped(self):
        lines = [encode_graph6(Graph.from_edges(4, [(0, 1), (2, 3)]))]
        report = scan_stream(lines, ScanConfig())
        assert report.graphs_scanned == 0
        assert report.graphs_skipped_disconnected == 1

    def test_malformed_line_skipped_by_default(self, capsys):
        report = scan_stream(["Ch", "not-a-graph6-!!"], ScanConfig())
        assert report.graphs_scanned == 1
        assert "skipping malformed line 2" in capsys.readouterr().err

    def test_malformed_line_strict(self):
        with pytest.raises(FormatError, match="line 2"):
            scan_stream(["Ch", "not-a-graph6-!!"], ScanConfig(strict=True))

    def test_nonzero_padding_skipped_by_default(self, capsys):
        # B~ would otherwise be scanned as K3, whose graph6 is Bw
        report = scan_stream(["Ch", "B~"], ScanConfig())
        assert report.graphs_scanned == 1
        err = capsys.readouterr().err
        assert "skipping malformed line 2: nonzero padding bits" in err
        assert "at offset 1" in err

    def test_nonzero_padding_strict(self):
        with pytest.raises(FormatError, match="line 2: nonzero padding bits .* offset 1"):
            scan_stream(["Ch", "Bx"], ScanConfig(strict=True))

    def test_blank_lines_ignored(self):
        report = scan_stream(["", "Ch", "   "], ScanConfig())
        assert report.graphs_scanned == 1

    def test_parallel_output_identical(self, corpus_by_n):
        cfg1 = ScanConfig(k=3, lemma_subset_cap=3, jobs=1)
        cfg2 = ScanConfig(k=3, lemma_subset_cap=3, jobs=4)
        seq = json.dumps(scan_stream(corpus_by_n[6], cfg1).to_json(), sort_keys=True)
        par = json.dumps(scan_stream(corpus_by_n[6], cfg2).to_json(), sort_keys=True)
        assert seq == par

    def test_lemma_systems_counted(self, corpus_by_n):
        # the counts are summed from the records, so they cannot depend on
        # the worker count, and they stay out of the report JSON; every
        # n = 5 graph has a vertex common to all its longest paths, so its
        # 132 sampled subsets are all implied and no system is built
        reports = [
            scan_stream(corpus_by_n[5], ScanConfig(k=3, jobs=jobs)) for jobs in (1, 2)
        ]
        assert [r.lemma_systems for r in reports] == [0, 0]
        assert [r.lemma_implied for r in reports] == [132, 132]
        blobs = [json.dumps(r.to_json(), sort_keys=True) for r in reports]
        assert blobs[0] == blobs[1]
        assert "lemma_systems" not in blobs[0] and "lemma_implied" not in blobs[0]
        theorem_only = scan_stream(corpus_by_n[5], ScanConfig(k=3, checks=("theorem",)))
        assert theorem_only.lemma_systems == theorem_only.lemma_implied == 0

    def test_k4_runs_corollary(self, corpus_by_n):
        report = scan_stream(corpus_by_n[5], ScanConfig(k=4, lemma_subset_cap=3))
        assert "cor1i" in report.tallies and "cor1ii" in report.tallies
        assert report.tallies["cor1i"]["fail"] == 0
        assert report.tallies["thm2"]["fail"] == 0

    def test_workers_neither_parse_nor_encode(self, monkeypatch, corpus_by_n):
        # the calling process parses and encodes each line once; workers get
        # the parsed graph
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched functions reach the workers only by fork")
        pid = os.getpid()
        for name in ("parse_graph6", "encode_graph6"):

            def in_caller_only(arg, real=getattr(harness, name), name=name):
                if os.getpid() != pid:
                    raise RuntimeError(f"{name} called in a worker")
                return real(arg)

            monkeypatch.setattr(harness, name, in_caller_only)
        lines = [encode_graph6(g) for g in corpus_by_n[5]]
        report = scan_stream(lines, ScanConfig(k=3, lemma_subset_cap=1, jobs=2))
        assert report.graphs_scanned == 21


LEMMA_CHECKS = ("lemma1", "lemma2", "lemma3", "cor1")


def _lemma_tallies_oracle(g: Graph, config: ScanConfig) -> dict:
    """The tallies of run_checks on every subset of the scan's seeded lemma
    sample of g, each built as a path system."""
    lps = enumerate_longest_paths(g, cap=config.path_cap)
    tallies: dict = {}
    if len(lps) < config.k:
        return tallies
    for subset in iter_ksubsets(
        len(lps), config.k, config.lemma_subset_cap, config.seed,
        f"lemma:{encode_graph6(g)}:{config.k}",
    ):
        ps = certified_system(g, [lps.paths[i] for i in subset], lps.length)
        for rep in run_checks(ps, config.checks):
            slot = tallies.setdefault(rep.check_id, {"pass": 0, "fail": 0, "vacuous": 0})
            slot[rep.status] += 1
    return tallies


def _scan_lemma_tallies(g: Graph, config: ScanConfig) -> tuple[dict, dict]:
    """The lemma tallies of one graph's scan record, and the record."""
    record = harness.scan_one_graph(encode_graph6(g), config, g)
    tallies = {c: slot for c, slot in record["tallies"].items() if c != "pairwise"}
    return tallies, record


class TestImpliedLemmaVerdicts:
    """A sampled subset whose members share a vertex is tallied from
    common_vertex_verdicts; the tallies must be those of run_checks on
    every sampled subset."""

    def test_n_le_6_corpus(self, corpus_by_n):
        implied = 0
        for k in range(3, 7):
            config = ScanConfig(k=k, checks=LEMMA_CHECKS)
            for g in (g for n in range(1, 7) for g in corpus_by_n[n]):
                tallies, record = _scan_lemma_tallies(g, config)
                assert tallies == _lemma_tallies_oracle(g, config), (encode_graph6(g), k)
                assert record["lemma_systems"] == 0
                implied += record["lemma_implied"]
        assert implied > 1000

    def test_g1_at_k9_evaluates_and_implies(self, h_g1):
        # 14 of the 2,000 sampled 9-subsets of G_1's longest paths share no
        # vertex and are built and checked; the other 1,986 are implied
        config = ScanConfig(k=9, lemma_subset_cap=2000, checks=LEMMA_CHECKS)
        tallies, record = _scan_lemma_tallies(h_g1, config)
        assert (record["lemma_systems"], record["lemma_implied"]) == (14, 1986)
        assert tallies["lemma1"] == {"pass": 14, "fail": 0, "vacuous": 1986}
        assert tallies["lemma2"] == {"pass": 1986, "fail": 0, "vacuous": 14}
        assert tallies == _lemma_tallies_oracle(h_g1, config)

    def test_failing_lemma_report_is_a_finding(self, h_g1, monkeypatch):
        # no lemma fails on G_1: the first report of the first system built
        # is made to fail, and the scan must list it and count it
        checks = run_checks
        failed = []

        def one_fails(ps, names):
            reports = checks(ps, names)
            if not failed:
                failed.append(dataclasses.replace(reports[0], status="fail", witness={"made": 1}))
                reports[0] = failed[0]
            return reports

        monkeypatch.setattr(harness, "run_checks", one_fails)
        config = ScanConfig(k=9, lemma_subset_cap=2000, checks=LEMMA_CHECKS)
        report = scan_stream([h_g1], config)
        assert report.lemma_systems == 14
        assert report.failures == [failed[0].to_json()]
        assert report.tallies["lemma1"] == {"pass": 13, "fail": 1, "vacuous": 1986}
        assert report.has_findings

    def test_verdicts(self):
        assert common_vertex_verdicts(2, DEFAULT_CHECKS) == []
        assert common_vertex_verdicts(3, ("theorem",)) == []
        assert common_vertex_verdicts(4, DEFAULT_CHECKS) == [
            ("lemma1", "vacuous"), ("lemma2", "pass"), ("lemma3i", "pass"),
            ("lemma3ii", "pass"), ("cor1i", "pass"), ("cor1ii", "pass"),
        ]
        assert common_vertex_verdicts(5, ("cor1", "lemma2")) == [("lemma2", "pass")]


class TestSpanningCountStop:
    """A scan stops each spanning count where its reads are settled: at k
    for a theorem-only scan, which reads only whether k longest paths exist,
    and at c*, the least c >= k with C(c, k) >= lemma_subset_cap, for a lemma
    scan, whose tally reads min(C(count, k), lemma_subset_cap).  The report
    must not show it."""

    @staticmethod
    def _unstopped(monkeypatch):
        real = lplab.longest.enumerate_longest_paths

        def count(g, cap, **kwargs):
            kwargs.pop("count_cap")
            return real(g, cap, **kwargs)

        monkeypatch.setattr(lplab.longest, "enumerate_longest_paths", count)

    @staticmethod
    def _counts(monkeypatch, corpus, config):
        """(graph6, stop, count) of each _count_spanning call of the scan,
        and the path sets it looked up."""
        calls, looked_up = [], []
        count_spanning = lplab.longest._count_spanning
        lookup = harness.enumerate_longest_paths

        def counted(g, stop):
            count = count_spanning(g, stop)
            calls.append((encode_graph6(g), stop, count))
            return count

        def recorded(g, **kwargs):
            lps = lookup(g, **kwargs)
            looked_up.append(lps)
            return lps

        monkeypatch.setattr(lplab.longest, "_count_spanning", counted)
        monkeypatch.setattr(harness, "enumerate_longest_paths", recorded)
        scan_stream(corpus, config)
        return calls, looked_up

    def test_reports_match_unstopped_counts(self, monkeypatch, corpus_by_n):
        complete = [
            Graph.from_edges(n, itertools.combinations(range(n), 2)) for n in (7, 8)
        ]
        corpus = [g for n in range(1, 7) for g in corpus_by_n[n]] + complete
        # a path cap below k caps the count as before
        configs = [
            ScanConfig(k=k, path_cap=path_cap, checks=("theorem",))
            for k in range(2, 7)
            for path_cap in (ScanConfig.path_cap, 4)
        ] + [
            ScanConfig(k=k, path_cap=path_cap, lemma_subset_cap=lemma_cap)
            for k in range(3, 7)
            for lemma_cap in (1, 10, 35, 10**4)
            for path_cap in (ScanConfig.path_cap, 4)
        ]
        stopped = [scan_stream(corpus, cfg) for cfg in configs]
        self._unstopped(monkeypatch)
        for cfg, report in zip(configs, stopped):
            assert json.dumps(report.to_json(), sort_keys=True) == json.dumps(
                scan_stream(corpus, cfg).to_json(), sort_keys=True
            ), cfg

    def test_spanning_counts_stop_at_k(self, monkeypatch, corpus_by_n):
        calls, looked_up = self._counts(
            monkeypatch, corpus_by_n[6], ScanConfig(k=4, checks=("theorem",))
        )
        # one count per graph, stopped at k; 91 of the 112 graphs have a
        # spanning path
        assert len(looked_up) == 112
        assert len({g6 for g6, _, _ in calls}) == len(calls) == 112
        assert {stop for _, stop, _ in calls} == {4}
        assert sum(count > 0 for _, _, count in calls) == 91

    def test_lemma_route_counts_in_full(self, monkeypatch, corpus_by_n):
        # the lemma route's count stops at c* = 6 (C(6, 4) = 15 >= 10), and a
        # later read of the count finishes it: K6 has 6!/2 spanning paths
        calls, looked_up = self._counts(monkeypatch, corpus_by_n[6], ScanConfig(k=4))
        assert len(looked_up) == 112
        assert len({g6 for g6, _, _ in calls}) == len(calls) == 112
        assert {stop for _, stop, _ in calls} == {6}
        assert sum(count > 0 for _, _, count in calls) == 91
        k6 = "E~~w"
        [lps] = [lps for lps, g in zip(looked_up, corpus_by_n[6]) if encode_graph6(g) == k6]
        calls.clear()
        assert (len(lps), lps.truncated) == (360, False)
        assert calls == [(k6, ScanConfig.path_cap + 1, 360)]


class TestScanWithoutCommonVertex:
    """Scans of graphs whose longest paths share no vertex (no n <= 8 graph)."""

    @pytest.mark.parametrize(
        "fixture, k, status, f, members",
        [
            ("h_graph", 3, "no-violation", 0, None),
            ("h_graph", 9, "violation", 1, H_LEAST_VIOLATION),
            ("h_g1", 9, "violation", 2, G1_LEAST_VIOLATION),
        ],
    )
    def test_pinned_reports(self, request, fixture, k, status, f, members):
        g = request.getfixturevalue(fixture)
        reports = [scan_stream([g], ScanConfig(k=k, jobs=jobs)) for jobs in (1, 2)]
        blob = json.dumps(reports[0].to_json(), sort_keys=True)
        assert json.dumps(reports[1].to_json(), sort_keys=True) == blob
        report = reports[0].to_json()
        assert report["conjecture"]["status"] == status
        witness = report["conjecture"]["witness"]
        if members is None:
            assert witness is None
        else:
            assert (witness["f"], witness["member_indices"]) == (f, members)
        # one theorem verdict per graph; at k = 9 no cover of demand f + 1
        # exists, so the conjecture witness is the extremal one
        assert report["tallies"]["thm3"] == {"pass": 1, "fail": 0, "vacuous": 0}
        assert report["extremal"] == {
            "max_f": f,
            "max_ratio": f"{f}/{g.n}" if f else "0/1",
            "witness": None if members is None else {
                "graph6": encode_graph6(g), "f": f, "member_indices": members,
            },
            "incomplete_graphs": 0,
        }

    def test_h_at_k18_reports_exact_max_f(self, h_graph):
        # 10,000 sampled 18-subsets of H's 42 longest paths once gave f = 1;
        # the cover search finds f = 2
        report = scan_stream([h_graph], ScanConfig(k=18, checks=("theorem",))).to_json()
        extremal = report["extremal"]
        assert (extremal["max_f"], extremal["max_ratio"], extremal["incomplete_graphs"]) == (
            2, "1/6", 0
        )
        assert report["tallies"]["thm3"] == {"pass": 1, "fail": 0, "vacuous": 0}
        lps = enumerate_longest_paths(h_graph)
        members = [lps.paths[i].vertices for i in extremal["witness"]["member_indices"]]
        assert len(members) == 18
        ps = make_path_system(h_graph, members, require_longest=True)
        assert ps.path_distance[0] == 2

    @pytest.mark.parametrize("cut", ("node cap", "path cap"))
    def test_lower_bound_gets_no_theorem_verdict(self, monkeypatch, h_graph, cut):
        # the climb from H's f = 1 witness at k = 9 is cut by a node cap of
        # 2, or reads only the first 38 of the 42 longest paths: f = 1
        # stands as a lower bound, and the graph gets no theorem verdict
        config = ScanConfig(k=9, checks=("theorem",))
        if cut == "node cap":
            cap_searches(monkeypatch, 2, min_demand=2)
        else:
            config = ScanConfig(k=9, path_cap=38, checks=("theorem",))
        report = scan_stream([h_graph], config).to_json()
        assert report["conjecture"]["status"] == "violation"
        assert report["extremal"]["max_f"] == 1
        assert report["extremal"]["incomplete_graphs"] == 1
        assert report["tallies"]["thm3"] == {"pass": 0, "fail": 0, "vacuous": 0}

    @pytest.mark.parametrize("checks", [("theorem",), ScanConfig.checks])
    def test_pairwise_failure_with_injected_paths(self, monkeypatch, checks):
        # C4_EDGE_PATHS as the longest paths of C4, through either name a
        # scan reads them from: edges 1-2 and 0-3 are disjoint, and the
        # greatest f over 3-subsets is 1 > 8/15, so the theorem check halts
        # the scan there, before any lemma check (values recorded before the pairwise check
        # went through check_conjecture)
        for owner in (harness, lplab.longest):
            monkeypatch.setattr(
                owner, "enumerate_longest_paths", lambda *args, **kwargs: C4_EDGE_PATHS
            )
        record = harness.scan_one_graph("Cl", ScanConfig(checks=checks), parse_graph6("Cl"))
        assert record == {
            "graph6": "Cl",
            "n": 4,
            "connected": True,
            "tallies": {
                "pairwise": {"pass": 0, "fail": 1, "vacuous": 0},
                "thm3": {"pass": 0, "fail": 1, "vacuous": 0},
            },
            "failures": [
                {"check": "pairwise", "graph6": "Cl", "pair": [1, 3],
                 "members": [[1, 2], [0, 3]]},
                {"check": "thm3", "graph6": "Cl", "member_indices": [0, 1, 2],
                 "f": 1, "bound": "8/15"},
            ],
            "max_f": 1,
            "max_f_incomplete": 0,
            "max_f_subset": [0, 1, 2],
            "lemma_systems": 0,
            "lemma_implied": 0,
            "conjecture": {
                "status": "violation",
                "witness": {
                    "graph6": "Cl",
                    "member_indices": [0, 1, 2],
                    "members": [[0, 1], [1, 2], [2, 3]],
                    "f": 1,
                    "minimizers": [1, 2],
                },
            },
            "halt": True,
        }

    def test_pairwise_at_k2_reads_the_k_verdict(self, monkeypatch):
        # C4_EDGE_PATHS as the longest paths of C4: the k = 2 verdict finds
        # edges 1-2 and 0-3 and is the pairwise failure, with one search at
        # demand 1 (record recorded when the pairwise check searched again);
        # max f climbs from there
        calls = 0
        search = harness.demand_cover

        def counted(rows, demand, *args):
            nonlocal calls
            calls += demand == 1
            return search(rows, demand, *args)

        monkeypatch.setattr(harness, "demand_cover", counted)
        monkeypatch.setattr(
            harness, "enumerate_longest_paths", lambda *args, **kwargs: C4_EDGE_PATHS
        )
        record = harness.scan_one_graph("Cl", ScanConfig(k=2), parse_graph6("Cl"))
        assert calls == 1
        assert record == {
            "graph6": "Cl",
            "n": 4,
            "connected": True,
            "tallies": {"pairwise": {"pass": 0, "fail": 1, "vacuous": 0}},
            "failures": [
                {"check": "pairwise", "graph6": "Cl", "pair": [1, 3],
                 "members": [[1, 2], [0, 3]]},
            ],
            "max_f": 1,
            "max_f_incomplete": 0,
            "max_f_subset": [1, 3],
            "lemma_systems": 0,
            "lemma_implied": 0,
            "conjecture": {
                "status": "violation",
                "witness": {
                    "graph6": "Cl",
                    "member_indices": [1, 3],
                    "members": [[1, 2], [0, 3]],
                    "f": 1,
                    "minimizers": [0, 1, 2, 3],
                },
            },
        }

    def test_settled_scan_draws_no_sample(self, monkeypatch, h_graph, corpus_by_n):
        # a verdict that took the shortcut (the n <= 6 corpus) or found no
        # violation (H at k < 9) settles the theorem check and the lemma
        # sample: neither draws a subset.  The shortcut runs no BFS; H's
        # search runs one per longest path, 42, and no climb
        def fail(*args, **kwargs):
            raise AssertionError("a settled scan drew a sample")

        sources = []
        bfs = harness.bfs_distances

        def counted(g, source):
            sources.append(source)
            return bfs(g, source)

        monkeypatch.setattr(harness, "iter_ksubsets", fail)
        monkeypatch.setattr(harness, "bfs_distances", counted)
        for k in (3, 4):
            report = scan_stream(corpus_by_n[6], ScanConfig(k=k))
            assert report.tallies["pairwise"]["pass"] == 112
        assert sources == []
        for k in range(3, 9):
            sources.clear()
            record = harness.scan_one_graph(encode_graph6(h_graph), ScanConfig(k=k), h_graph)
            assert len(sources) == 42
            thm_id = "thm2" if k == 4 else "thm3"
            assert record["tallies"][thm_id] == {"pass": 1, "fail": 0, "vacuous": 0}
            assert (record["lemma_systems"], record["lemma_implied"]) == (0, 10)
            assert record["failures"] == [] and record["max_f"] == 0

    def test_pairwise_failure_runs_no_bfs(self, monkeypatch):
        # C4_EDGE_PATHS as the longest paths of C4: the pair is read from
        # one more cover search on the k = 3 search's rows, with no BFS of
        # its own; the only BFS runs are one per listed path
        sources = []
        bfs = harness.bfs_distances

        def counted(g, source):
            sources.append(tuple(source))
            return bfs(g, source)

        monkeypatch.setattr(harness, "bfs_distances", counted)
        verdict = check_conjecture(parse_graph6("Cl"), 3, lps=C4_EDGE_PATHS)
        assert verdict.pair == (1, 3)
        assert sources == [p.vertices for p in C4_EDGE_PATHS.paths]

    def test_theorem_sweep_halts_on_failure(self, h_graph):
        # no graph breaks the theorem bound, so it is forced to 0 here: H's
        # greatest f over 9-subsets, 1, fails and ends the scan (10,000
        # sampled 9-subsets of H once all had f = 0); records merge in
        # graph6 order, so G_1 and G_2 of H come after H's halt: at jobs 1
        # neither is scanned, and at jobs 2 the pool's workers are gone once
        # the scan returns
        system = make_path_system(h_graph, H_SYSTEM, require_longest=True)
        graphs = [build_gt(h_graph, system, t).graph for t in (1, 2)] + [h_graph]
        # the patched bound reaches pool workers only by fork
        jobs_list = (1, 2) if multiprocessing.get_start_method() == "fork" else (1,)
        scanned = []
        scan_one = harness.scan_one_graph

        def counted(g6, config, g):
            scanned.append(g6)
            return scan_one(g6, config, g)

        real = harness.theorem_bound
        harness.theorem_bound = lambda k, n: Fraction(0)
        harness.scan_one_graph = counted
        try:
            reports = []
            for jobs in jobs_list:
                report = scan_stream(graphs, ScanConfig(k=9, jobs=jobs))
                reports.append(json.dumps(report.to_json(), sort_keys=True))
                if jobs == 1:
                    assert scanned == [encode_graph6(h_graph)]
                else:
                    assert multiprocessing.active_children() == []
        finally:
            harness.theorem_bound = real
            harness.scan_one_graph = scan_one
        assert len(set(reports)) == 1
        report = json.loads(reports[0])
        assert report["graphs_scanned"] == 1
        assert report["halted"] is True
        assert report["tallies"]["thm3"] == {"pass": 0, "fail": 1, "vacuous": 0}
        [failure] = report["failures"]
        assert failure == {
            "check": "thm3", "graph6": encode_graph6(h_graph),
            "member_indices": H_LEAST_VIOLATION, "f": 1, "bound": "0/1",
        }


def _gt_max_f(t: int) -> dict[int, int]:
    """Greatest f over the k-subsets of the longest paths of G_t of H (G_0 is
    H itself, with t + 1 = 1), k = 3..18: least k with f > 0 is 9."""
    return {k: 0 if k < 9 else t + 1 if k < 18 else 2 * (t + 1) for k in range(3, 19)}


def _fixture_graph(name: str) -> Graph:
    """H, H', or G_t of H for name G1..G4."""
    if name == "H'":
        return parse_graph6(H_PRIME_GRAPH6)
    h = parse_graph6(H_GRAPH6)
    if name == "H":
        return h
    system = make_path_system(h, H_SYSTEM, require_longest=True)
    return build_gt(h, system, int(name[1:])).graph


class TestGreatestF:
    """Exact max f from the climb of cover searches (ConjectureVerdict.max_f)."""

    @staticmethod
    def _max_f(g, k):
        lps = enumerate_longest_paths(g)
        verdict = check_conjecture(g, k, lps=lps)
        f, subset = verdict.max_f, verdict.max_f_subset
        assert verdict.max_f_exact
        if f:
            members = [lps.paths[i].vertices for i in subset]
            assert len(members) == k
            assert make_path_system(g, members, require_longest=True).path_distance[0] == f
        else:
            assert subset is None
        return f

    @pytest.mark.parametrize("g6", (H_GRAPH6, H_PRIME_GRAPH6))
    def test_h(self, g6):
        g = parse_graph6(g6)
        assert {k: self._max_f(g, k) for k in range(3, 19)} == _gt_max_f(0)

    @pytest.mark.parametrize("t", range(1, 5))
    def test_gt_of_h(self, h_graph, t):
        system = make_path_system(h_graph, H_SYSTEM, require_longest=True)
        g = build_gt(h_graph, system, t).graph
        assert {k: self._max_f(g, k) for k in range(3, 19)} == _gt_max_f(t)

    def test_g1_at_k9_against_brute_force(self, h_g1):
        # every one of the C(18, 9) = 48,620 9-subsets of G_1's longest paths
        lps = enumerate_longest_paths(h_g1)
        rows = np.array([bfs_distances(h_g1, p.vertices) for p in lps.paths])
        combos = np.array(list(itertools.combinations(range(len(lps)), 9)))
        assert int(rows[combos].sum(axis=1).min(axis=1).max()) == self._max_f(h_g1, 9) == 2

    @pytest.mark.parametrize("cap, want", [
        (9, ("incomplete", 0, False)),
        (10, ("violation", 1, False)),
        (19, ("violation", 2, True)),
    ])
    def test_subset_cap_bounds_every_rung(self, h_graph, monkeypatch, cap, want):
        # H at k = 18: the demand-1 search takes 10 nodes and the demand-2
        # rung 19, and each may spend the conjecture's node cap of them
        cap_searches(monkeypatch, cap)
        verdict = check_conjecture(h_graph, 18)
        assert (verdict.status, verdict.max_f, verdict.max_f_exact) == want

    @pytest.mark.parametrize("name", ("H", "H'", "G1", "G2", "G3", "G4"))
    def test_witness_matches_path_system(self, monkeypatch, name):
        # the witness's f and minimizers, read from the search rows, are
        # those of its members' path system; the verdict runs one BFS per
        # listed path and builds no path system
        g = _fixture_graph(name)
        lps = enumerate_longest_paths(g)
        bfs_runs = 0
        bfs = harness.bfs_distances

        def counted(g, source):
            nonlocal bfs_runs
            bfs_runs += 1
            return bfs(g, source)

        def no_system(*args):
            raise AssertionError("check_conjecture built a path system")

        violations = 0
        for k in range(2, 19):
            bfs_runs = 0
            with monkeypatch.context() as m:
                m.setattr(harness, "bfs_distances", counted)
                m.setattr(lplab.systems, "_build", no_system)
                verdict = check_conjecture(g, k, lps=lps)
            assert bfs_runs == len(lps)
            if verdict.witness is None:
                continue
            violations += 1
            ps = make_path_system(g, verdict.witness["members"], require_longest=True)
            f, minimizers = path_distance_value(ps)
            assert (verdict.witness["f"], verdict.witness["minimizers"]) == (f, sorted(minimizers))
            assert verdict.witness["graph6"] == ps.graph6
        assert violations == 10  # k = 9..18
