"""Path systems: k paths on one graph and the quantities derived from them.

Covers the path-distance-function f, common vertices, the counts n_i,
good subpaths, and the count t'.  A PathSystem computes each of these at
most once, on first use, so every check run on the same system reads the
same facts.  Both constructors share one builder that counts each vertex's
multiplicity, the number of members that hold it, and the vertex facts are
read from it: the common vertices are those of multiplicity k, n_i counts
the vertices of multiplicity i, and the class X^i of a host holds its
vertices of multiplicity i.  When there are common vertices, f = 0 and they
are its minimizers, so f runs BFS only on members with no common vertex.

The lemma checks read per-host summaries, none of which builds a GoodPath:
the least |V(Q)| and t' over the good subpaths Q of each host, from one
pass over it, and |X^1 u ... u X^{k-2}|, read from the multiplicity.  The
GoodPath lists, with their witnessing pairs, are built only where they are
read, one host at a time: by the surgery replay (its host alone), by a
failing Lemma 3 / Corollary 1 part (i) witness (the hosts up to the first
failing one), and by enumerate_good_paths.  Both the pass and the lists come
from one scan of good spans, which keeps sets of members as bit masks and
leaves a start position as soon as no member can begin a witnessing pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

from .errors import UsageError
from .graphs import GRAPH6_SMALL_MAX, Graph, bfs_distances, encode_graph6, is_connected
from .longest import Path, is_path, longest_path_length


@dataclass(frozen=True)
class PathSystem:
    """A graph plus an ordered list of k member paths."""

    graph: Graph
    paths: tuple[Path, ...]
    multiplicity: tuple[int, ...]
    longest_certified: bool

    @property
    def k(self) -> int:
        return len(self.paths)

    # Lazily computed facts.  cached_property stores into the instance
    # __dict__ directly, so it works on the frozen dataclass; the facts are
    # not fields and take no part in equality.

    @cached_property
    def graph6(self) -> str | None:
        """graph6 string of the graph, or None above the small-graph format's order."""
        return encode_graph6(self.graph) if self.graph.n <= GRAPH6_SMALL_MAX else None

    @cached_property
    def path_distance(self) -> tuple[int, frozenset[int]]:
        """f(G, P) and its minimizing vertices."""
        return path_distance_value(self)

    @cached_property
    def n_counts(self) -> tuple[int, ...]:
        """n_1..n_k: n_i is the number of vertices that exactly i members hold."""
        counts = [0] * (self.k + 1)
        for c in self.multiplicity:
            counts[c] += 1
        return tuple(counts[1:])

    @cached_property
    def _good_paths(self) -> list[tuple[GoodPath, ...] | None]:
        """Good subpaths per host, each list built on its host's first read."""
        return [None] * self.k

    def good_paths(self, host_index: int) -> tuple[GoodPath, ...]:
        """The host's good subpaths with their witnessing pairs."""
        goods = self._good_paths[host_index]
        if goods is None:
            goods = tuple(enumerate_good_paths(self, host_index))
            self._good_paths[host_index] = goods
        return goods

    @cached_property
    def good_summaries(self) -> tuple[GoodSummary, ...]:
        """Least |V(Q)| and t' per host, in host order, built with no GoodPath."""
        return tuple(_good_summary(self, h) for h in range(self.k))

    @cached_property
    def t_primes(self) -> tuple[int, ...]:
        """t' per host, in host order."""
        return tuple(s.t_prime for s in self.good_summaries)

    @cached_property
    def x_low_sizes(self) -> tuple[int, ...]:
        """|X^1 u ... u X^{k-2}| per host, in host order: the host vertices
        that at most k - 2 members hold."""
        top = self.k - 2
        mult = self.multiplicity
        return tuple(sum(mult[v] <= top for v in p.vertices) for p in self.paths)


class GoodPath(NamedTuple):
    """A good subpath of a host path, as a position interval on the host."""

    host_index: int
    start: int
    end: int
    witness_pairs: tuple[tuple[int, int], ...]
    n_vertices: int


class GoodSummary(NamedTuple):
    """What the lemma checks read of one host's good subpaths."""

    min_vertices: int | None  # least |V(Q)|, None when the host has none
    t_prime: int  # most pairwise edge-disjoint good subpaths


def make_path_system(
    g: Graph,
    paths: Sequence[Sequence[int] | Path],
    require_longest: bool,
) -> PathSystem:
    members = []
    first_of: dict[tuple[int, ...], int] = {}  # undirected path -> first member index
    for idx, p in enumerate(paths):
        seq = tuple(p.vertices if isinstance(p, Path) else p)
        if not is_path(g, seq):
            raise UsageError(f"member {idx} is not a path: {list(seq)}")
        first = first_of.setdefault(min(seq, seq[::-1]), idx)
        if first != idx:
            raise UsageError(f"member {idx} repeats member {first}: {list(seq)}")
        members.append(Path(seq))
    if require_longest:
        return certified_system(g, members, longest_path_length(g))
    return _build(g, members, certified=False)


def certified_system(g: Graph, paths: Sequence[Path], ell: int) -> PathSystem:
    """Fast constructor for members already known to be longest paths of g.

    Scanners use this to avoid recomputing ell(G) per subset; callers are
    responsible for ell being correct.
    """
    for idx, p in enumerate(paths):
        if p.length != ell:
            raise UsageError(
                f"member {idx} is not a longest path "
                f"(length {p.length}, ell = {ell}): {list(p.vertices)}"
            )
    return _build(g, paths, certified=True)


def _build(g: Graph, paths: Sequence[Path], certified: bool) -> PathSystem:
    if not paths:
        raise UsageError("a path system needs at least one member")
    mult = [0] * g.n
    for p in paths:
        for v in p.vertices:
            mult[v] += 1
    return PathSystem(
        graph=g,
        paths=tuple(paths),
        multiplicity=tuple(mult),
        longest_certified=certified,
    )


def path_distance_value(ps: PathSystem) -> tuple[int, frozenset[int]]:
    """f(G, P): min over vertices v of the sum of distances to each member.

    Returns the value and the full set of minimizing vertices.  A vertex's
    distance sum is 0 exactly when every member holds it, so when the members
    share a vertex, f = 0 and its minimizers are the common vertices, read
    from the multiplicity with no BFS.
    """
    g = ps.graph
    if not is_connected(g):
        raise UsageError("path-distance-function requires a connected graph")
    common = common_vertices(ps)
    if common:
        return 0, common
    sums = [0] * g.n
    for p in ps.paths:
        dist = bfs_distances(g, p.vertices)
        for v in range(g.n):
            sums[v] += dist[v]  # type: ignore[operator]
    best = min(sums)
    return best, frozenset(v for v in range(g.n) if sums[v] == best)


def common_vertices(ps: PathSystem) -> frozenset[int]:
    """The vertices that every member holds: those of multiplicity k."""
    k = ps.k
    return frozenset(v for v, c in enumerate(ps.multiplicity) if c == k)


def _good_spans(ps: PathSystem, host_index: int) -> Iterator[tuple[int, int, int, int]]:
    """(a, b, starts, ends) of each good subpath seq[a..b] of the host.

    A subpath Q with endpoints u (start) and v (end) is good for the ordered
    pair (i, j) of other members when u lies on path i, v lies on path j,
    no int-vertex of Q lies on path i or j, and V(Q) meets every member
    other than the host.  Single-vertex subpaths are admitted.  starts and
    ends are the bit masks of the members that may be i and j; a span is
    given only when some i in starts and j in ends differ.

    Spans come by start a, then end b, ascending.  For each a, the member
    masks are updated by the one vertex each step adds.  The interior only
    grows with b, so once no member can start a pair no later b gives one,
    and the scan goes to the next a: it skips only ends that give no
    subpath, which keeps the order.
    """
    seq = ps.paths[host_index].vertices
    # sets of members as bit masks: bit i of on[v] is set iff member i, not
    # the host, holds v
    on = [0] * ps.graph.n
    for i, p in enumerate(ps.paths):
        if i != host_index:
            for v in p.vertices:
                on[v] |= 1 << i
    others = ((1 << ps.k) - 1) ^ (1 << host_index)
    for a, u in enumerate(seq):
        starts = on[u]  # members that hold u and miss the interior seq[a+1..b-1]
        clear = others  # members that miss the interior
        unmet = others  # members that miss seq[a..b]
        for b in range(a, len(seq)):
            if b - a >= 2:
                hit = on[seq[b - 1]]
                starts &= ~hit
                clear &= ~hit
            if not starts:
                break
            at_v = on[seq[b]]
            unmet &= ~at_v
            if unmet:
                continue
            ends = clear & at_v
            # two ends, or one that is not the only start, give a pair i != j
            if ends & (ends - 1) or ends and starts & ~ends:
                yield a, b, starts, ends


def enumerate_good_paths(ps: PathSystem, host_index: int) -> list[GoodPath]:
    """All good subpaths of the host (see _good_spans), with their
    witnessing (i, j) pairs in member order, by start, then end, ascending."""
    _check_host(ps, host_index)
    k = ps.k
    pairs_of: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    goods = []
    for a, b, starts, ends in _good_spans(ps, host_index):
        pairs = pairs_of.get((starts, ends))
        if pairs is None:
            pairs = pairs_of[starts, ends] = tuple(
                (i, j)
                for i in range(k) if starts >> i & 1
                for j in range(k) if ends >> j & 1 and j != i
            )
        goods.append(GoodPath(host_index, a, b, pairs, b - a + 1))
    return goods


def _good_summary(ps: PathSystem, host_index: int) -> GoodSummary:
    """Least |V(Q)| and t' of the host's good subpaths Q, from one pass.

    Zero-edge subpaths hold no edge and always count toward t'.  For the
    rest, greedy interval scheduling over host-edge ranges by end is exact,
    and of the subpaths that end at b it can take one only if the one with
    the greatest start fits; that one is also the shortest to end at b.
    """
    latest = [-1] * len(ps.paths[host_index].vertices)  # greatest start a < b
    singles = 0
    for a, b, _, _ in _good_spans(ps, host_index):
        if a == b:
            singles += 1
        else:
            latest[b] = a  # starts ascend, so the last one is the greatest
    count = singles
    shortest = 0 if singles else None  # least edge count of a good subpath
    free_from = 0
    for b, a in enumerate(latest):
        if a < 0:
            continue
        if shortest is None or b - a < shortest:
            shortest = b - a
        if a >= free_from:
            count += 1
            free_from = b
    return GoodSummary(None if shortest is None else shortest + 1, count)


def _check_host(ps: PathSystem, host_index: int) -> None:
    if ps.k < 3:
        raise UsageError(f"good paths need k >= 3 members, got {ps.k}")
    if not 0 <= host_index < ps.k:
        raise UsageError(f"host index {host_index} out of range")

