"""Independent oracles used only by the tests.

Each oracle deliberately uses a different algorithm (or a different library)
than the code path it cross-checks: brute force, or the simpler code that a
faster runtime path replaced (good_paths_oracle, good_path_bounds_oracle).
The small helpers that only the tests need (canonical forms, edge lists, the
corpus with its disconnected graphs) live here too.
"""

from __future__ import annotations

import functools
import itertools
import sys
from fractions import Fraction
from typing import Optional, Sequence

import networkx as nx
import numpy as np

from lplab import harness, longest
from lplab.bounds import CheckReport, instance_id
from lplab.errors import UsageError
from lplab.graphs import Graph, DistanceVector, encode_graph6, is_connected
from lplab.longest import DEFAULT_PATH_CAP, LongestPathSet, Path
from lplab.systems import GoodPath, PathSystem

ORACLE_MAX_N = 14


def canonical_sequence(seq: Sequence[int]) -> tuple[int, ...]:
    """seq or its reverse, whichever starts at the smaller end."""
    t = tuple(seq)
    return t if t[0] <= t[-1] else t[::-1]


def canonical(p: Path) -> Path:
    return Path(canonical_sequence(p.vertices))


def edge_set(p: Path) -> frozenset[tuple[int, int]]:
    seq = p.vertices
    return frozenset((a, b) if a < b else (b, a) for a, b in zip(seq, seq[1:]))


def format_edge_list(g: Graph) -> str:
    """g in the 'n m' edge-list format that parse_edge_list reads."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines)


def generate_graphs(n: int) -> list[Graph]:
    """Every non-isomorphic simple graph on n vertices, disconnected ones
    too, in graph6 order: the generator's representatives, for calibrating
    its counts."""
    graphs = [harness._graph_from_masks(m) for m in harness._all_graph_masks(n)]
    graphs.sort(key=encode_graph6)
    return graphs


def search_plan_oracle(
    masks: Sequence[int], order: Sequence[int], sorted_keys: Sequence[int]
) -> list[tuple[int, int, int, list[int]]]:
    """harness._search_plan as it was before its one-pass run scan: one
    count and one index per vertex, then a sort of (run size, position)."""
    steps = []
    for i, k in enumerate(sorted_keys):
        size = sorted_keys.count(k)
        lo = sorted_keys.index(k)
        steps.append((size, i, lo, lo + size))
    steps.sort()
    plan = []
    before = 0
    for _, i, lo, hi in steps:
        a = order[i]
        m = masks[a] & before
        earlier = []
        while m:
            low = m & -m
            earlier.append(low.bit_length() - 1)
            m ^= low
        plan.append((a, lo, hi, earlier))
        before |= 1 << a
    return plan


def all_pairs_distances(g: Graph) -> list[DistanceVector]:
    """All-pairs hop distances by Floyd-Warshall (independent of the BFS route)."""
    inf = float("inf")
    n = g.n
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is inf:
                continue
            di = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return [[None if x is inf else int(x) for x in row] for row in d]


def eager_longest_paths(g: Graph, cap: Optional[int] = DEFAULT_PATH_CAP) -> LongestPathSet:
    """The longest paths of g, up to cap, all built by walks.

    A _walk that aims at spanning paths walks a spanning set out path by
    path, where enumerate_longest_paths counts it (_count_spanning) and
    builds it on first read; only if it finds none does a second walk, which
    skips the first steps that can hold only spanning paths, find ell and
    the paths.  No count decides which walk answers, so this is the
    reference for every count against the walk's paths.
    """
    if not is_connected(g):
        raise UsageError("eager_longest_paths requires a connected graph")
    if g.n <= 2:
        return LongestPathSet(g.n - 1, (Path(tuple(range(g.n))),), False)
    keep = sys.maxsize if cap is None else cap + 1
    ell, found = longest._walk(g, keep, True)
    if not found:
        ell, found = longest._walk(g, keep, False)
    return LongestPathSet(ell, tuple(found[: keep - 1]), len(found) >= keep)


def enumerate_longest_paths_oracle(g: Graph) -> LongestPathSet:
    """Brute-force oracle: scan every vertex permutation prefix that is a path.

    A prefix is grown one vertex at a time, and only while it is a simple
    path, so the scan costs the number of simple paths, not n!.  There is no
    reach bound, no orientation rule and no target length: every path is
    kept as a canonical sequence, and the longest are sorted at the end.
    Deliberately independent of the DFS route; guarded to n <= 14.
    """
    if g.n > ORACLE_MAX_N:
        raise UsageError(f"oracle limited to n <= {ORACLE_MAX_N}, got {g.n}")
    if not is_connected(g):
        raise UsageError("oracle requires a connected graph")
    found: set[tuple[int, ...]] = set()
    size = 0
    prefixes = [(v,) for v in range(g.n)]
    while prefixes:
        perm = prefixes.pop()
        if len(perm) > size:
            found, size = set(), len(perm)
        if len(perm) == size:
            found.add(canonical_sequence(perm))
        last = perm[-1]
        prefixes.extend(
            perm + (v,) for v in range(g.n)
            if v not in perm and g.nbr_masks[last] >> v & 1
        )
    return LongestPathSet(
        length=size - 1,
        paths=tuple(Path(t) for t in sorted(found)),
        truncated=False,
    )


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def from_networkx(h: nx.Graph) -> Graph:
    mapping = {v: i for i, v in enumerate(sorted(h.nodes()))}
    return Graph.from_edges(
        h.number_of_nodes(), [(mapping[u], mapping[v]) for u, v in h.edges()]
    )


def canonical_code(g: Graph) -> int:
    """Min-over-all-permutations upper-triangle code; a true canonical form."""
    edges = list(itertools.combinations(range(g.n), 2))
    best = None
    for perm in itertools.permutations(range(g.n)):
        code = 0
        for i, (u, v) in enumerate(edges):
            if g.has_edge(perm[u], perm[v]):
                code |= 1 << i
        if best is None or code < best:
            best = code
    assert best is not None
    return best


def labeled_scan_canonical_codes(n: int) -> set[int]:
    """Canonical codes of every graph on n vertices, from a scan of all
    2^C(n,2) labeled graphs (numpy-vectorized min over permutations)."""
    edges = list(itertools.combinations(range(n), 2))
    e = len(edges)
    idx = {edge: i for i, edge in enumerate(edges)}
    codes = np.arange(1 << e, dtype=np.int64)
    best = codes.copy()
    for perm in itertools.permutations(range(n)):
        remap = [idx[tuple(sorted((perm[u], perm[v])))] for u, v in edges]
        permuted = np.zeros_like(codes)
        for i, j in enumerate(remap):
            permuted |= ((codes >> i) & 1) << j
        np.minimum(best, permuted, out=best)
    return set(int(x) for x in np.unique(best))


def graph_from_code(n: int, code: int) -> Graph:
    edges = [
        e for i, e in enumerate(itertools.combinations(range(n), 2)) if code >> i & 1
    ]
    return Graph.from_edges(n, edges)


def f_and_minimizers_oracle(g: Graph, member_vertex_sets) -> tuple[int, list[int]]:
    """Path-distance-function and its minimizers by Floyd-Warshall plus
    explicit min-of-min sums."""
    d = all_pairs_distances(g)
    sums = [sum(min(d[v][u] for u in vs) for vs in member_vertex_sets) for v in range(g.n)]
    f = min(sums)
    return f, [v for v in range(g.n) if sums[v] == f]


def max_edge_disjoint_oracle(goods) -> int:
    """Most good paths with pairwise-disjoint host edges, by trying each one
    in and out in turn, by start.

    The edges of Q are the host positions start..end - 1.  The search is
    memoized on the next index and on the edges taken at or after that
    path's start, since an edge taken before it meets no later path.
    """
    goods = sorted(goods, key=lambda q: q.start)
    starts = [q.start for q in goods] + [0]
    edges = [((1 << q.end) - 1) ^ ((1 << q.start) - 1) for q in goods]

    @functools.cache
    def best(idx: int, used: int) -> int:
        if idx == len(goods):
            return 0
        later = ~((1 << starts[idx + 1]) - 1)
        skip = best(idx + 1, used & later)
        if edges[idx] & used:
            return skip
        return max(skip, 1 + best(idx + 1, (used | edges[idx]) & later))

    return best(0, 0)


def conjecture_oracle(g: Graph, k: int, lps: LongestPathSet) -> str:
    """The status of check_conjecture by exhaustive k-subset iteration.

    Walks itertools.combinations and stops at the first subset with no
    common vertex.  Uncapped, so only for small path families.
    """
    if lps.common_mask():
        exact = not lps.truncated or lps.length == g.n - 1
        return "no-violation" if exact else "incomplete"
    for subset in itertools.combinations(range(len(lps.paths)), k):
        acc = -1
        for idx in subset:
            acc &= lps.paths[idx].mask
        if not acc:
            return "violation"
    return "incomplete" if lps.truncated else "no-violation"


def good_paths_oracle(ps: PathSystem, host_index: int) -> list[GoodPath]:
    """Good subpaths of the host by testing every interval (a, b) in full.

    The quadratic scan that enumerate_good_paths replaced: no early exit, the
    meet test and both endpoint tests recomputed from interval masks.
    """
    k = ps.k
    seq = ps.paths[host_index].vertices
    others = [i for i in range(k) if i != host_index]
    omask = {i: ps.paths[i].mask for i in others}
    # prefix[i] = OR of bits of seq[:i]; vertex sets of intervals via XOR
    prefix = [0]
    acc = 0
    for v in seq:
        acc |= 1 << v
        prefix.append(acc)
    goods = []
    L = len(seq)
    for a in range(L):
        for b in range(a, L):
            qmask = prefix[b + 1] ^ prefix[a]
            if any(not qmask & omask[m] for m in others):
                continue
            imask = (prefix[b] ^ prefix[a + 1]) if b - a >= 2 else 0
            ubit = 1 << seq[a]
            vbit = 1 << seq[b]
            pairs = []
            for i in others:
                if not omask[i] & ubit or omask[i] & imask:
                    continue
                for j in others:
                    if j == i:
                        continue
                    if omask[j] & vbit and not omask[j] & imask:
                        pairs.append((i, j))
            if pairs:
                goods.append(
                    GoodPath(
                        host_index=host_index,
                        start=a,
                        end=b,
                        witness_pairs=tuple(pairs),
                        n_vertices=b - a + 1,
                    )
                )
    return goods


def x_low_sizes_oracle(ps: PathSystem) -> list[int]:
    """|X^1 u ... u X^{k-2}| per host: the host vertices that at most k - 2
    members hold, counted member by member."""
    return [
        sum(sum(v in p.vertices for p in ps.paths) <= ps.k - 2 for v in host.vertices)
        for host in ps.paths
    ]


def good_path_bounds_oracle(
    ps: PathSystem, c: Fraction, id_i: str, id_ii: str
) -> list[CheckReport]:
    """The Lemma 3 / Corollary 1 parts (i) and (ii) with every quantity a
    Fraction, compared as Fractions, in one loop per part."""
    k = ps.k
    inst = instance_id(ps)
    f, _ = ps.path_distance
    ff = Fraction(f)
    goods_by_host = [ps.good_paths(h) for h in range(k)]
    x_low = x_low_sizes_oracle(ps)

    rep_i: Optional[CheckReport] = None
    if not any(goods_by_host):
        rep_i = CheckReport(id_i, inst, "vacuous")
    else:
        min_rhs: Optional[Fraction] = None
        for h, goods in enumerate(goods_by_host):
            for q in goods:
                rhs = (q.n_vertices - 1) * c
                if min_rhs is None or rhs < min_rhs:
                    min_rhs = rhs
                if ff > rhs:
                    rep_i = CheckReport(
                        id_i, inst, "fail", ff, rhs,
                        witness={"host": h, "subpath": [q.start, q.end]},
                    )
                    break
            if rep_i is not None:
                break
        if rep_i is None:
            rep_i = CheckReport(id_i, inst, "pass", ff, min_rhs)

    rep_ii: Optional[CheckReport] = None
    worst: Optional[tuple[Fraction, Fraction]] = None
    for h in range(k):
        lhs = Fraction(x_low[h])
        tp = ps.t_primes[h]
        rhs = tp * (ff / c - 1)
        if worst is None or lhs - rhs < worst[0] - worst[1]:
            worst = (lhs, rhs)
        if lhs < rhs:
            rep_ii = CheckReport(
                id_ii, inst, "fail", lhs, rhs,
                witness={"host": h, "t_prime": tp, "f": f},
            )
            break
    if rep_ii is None:
        rep_ii = CheckReport(id_ii, inst, "pass", *worst)
    return [rep_i, rep_ii]
