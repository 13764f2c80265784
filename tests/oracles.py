"""Independent brute-force oracles used only by the tests.

Each oracle deliberately uses a different algorithm (or a different library)
than the code path it cross-checks.
"""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np

from lplab.errors import UsageError
from lplab.graphs import GRAPH6_SMALL_MAX, Graph, DistanceVector, encode_graph6, is_connected
from lplab.longest import LongestPathSet, Path, canonical_sequence

ORACLE_MAX_N = 10


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


def enumerate_longest_paths_oracle(g: Graph) -> LongestPathSet:
    """Brute-force oracle: scan every vertex permutation prefix.

    Deliberately independent of the DFS route; guarded to n <= 10.
    """
    if g.n > ORACLE_MAX_N:
        raise UsageError(f"oracle limited to n <= {ORACLE_MAX_N}, got {g.n}")
    if not is_connected(g):
        raise UsageError("oracle requires a connected graph")
    verts = range(g.n)
    for size in range(g.n, 0, -1):
        found: set[tuple[int, ...]] = set()
        for perm in itertools.permutations(verts, size):
            ok = True
            for a, b in zip(perm, perm[1:]):
                if not g.nbr_masks[a] >> b & 1:
                    ok = False
                    break
            if ok:
                found.add(canonical_sequence(perm))
        if found:
            return LongestPathSet(
                length=size - 1,
                paths=tuple(Path(t) for t in sorted(found)),
                truncated=False,
            )
    raise AssertionError("unreachable: single vertices are always paths")


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


def f_oracle(g: Graph, member_vertex_sets) -> int:
    """Path-distance-function by Floyd-Warshall plus explicit min-of-min sums."""
    d = all_pairs_distances(g)
    best = None
    for v in range(g.n):
        total = 0
        for vs in member_vertex_sets:
            total += min(d[v][u] for u in vs)
        if best is None or total < best:
            best = total
    return best


def max_edge_disjoint_oracle(goods) -> int:
    """Exhaustive max subset of good paths with pairwise-disjoint host edges."""
    edge_sets = [frozenset(range(q.start, q.end)) for q in goods]
    best = 0
    for r in range(len(goods), 0, -1):
        for combo in itertools.combinations(range(len(goods)), r):
            union = set()
            total = 0
            for i in combo:
                union |= edge_sets[i]
                total += len(edge_sets[i])
            if len(union) == total:
                return r
    return best


def conjecture_oracle(g: Graph, k: int, lps: LongestPathSet) -> tuple[str, dict | None]:
    """(status, witness) of check_conjecture by exhaustive k-subset iteration.

    Walks itertools.combinations in order and stops at the first subset with
    no common vertex, with f and its minimizers from Floyd-Warshall distances.
    Uncapped, so only for small path families.
    """
    if lps.common_mask():
        return ("incomplete" if lps.truncated else "no-violation"), None
    for subset in itertools.combinations(range(len(lps.paths)), k):
        acc = -1
        for idx in subset:
            acc &= lps.paths[idx].mask
        if not acc:
            members = [lps.paths[idx] for idx in subset]
            d = all_pairs_distances(g)
            sums = [
                sum(min(d[v][u] for u in p.vertices) for p in members) for v in range(g.n)
            ]
            f = min(sums)
            return "violation", {
                "graph6": encode_graph6(g) if g.n <= GRAPH6_SMALL_MAX else None,
                "member_indices": list(subset),
                "members": [list(p.vertices) for p in members],
                "f": f,
                "minimizers": [v for v in range(g.n) if sums[v] == f],
            }
    return ("incomplete" if lps.truncated else "no-violation"), None
