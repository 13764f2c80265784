"""Longest-path length and exact enumeration of all longest paths.

Paths are undirected objects: the two orientations of a vertex sequence are
the same path, kept in canonical form (first vertex numerically smaller than
the last).  Enumeration is depth-first with a reachability pruning bound; the tests
cross-check it against an independent permutation-prefix oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import UsageError
from .graphs import Graph, is_connected

DEFAULT_PATH_CAP = 100_000


@dataclass(frozen=True)
class Path:
    """Simple path as an ordered vertex sequence with a membership bit-vector."""

    vertices: tuple[int, ...]
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = 0
        for v in self.vertices:
            m |= 1 << v
        object.__setattr__(self, "mask", m)

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def length(self) -> int:
        """Edge count."""
        return len(self.vertices) - 1

    def canonical(self) -> "Path":
        return Path(canonical_sequence(self.vertices))

    def edge_set(self) -> frozenset[tuple[int, int]]:
        seq = self.vertices
        return frozenset(
            (a, b) if a < b else (b, a) for a, b in zip(seq, seq[1:])
        )

    def reversed(self) -> "Path":
        return Path(self.vertices[::-1])


def canonical_sequence(seq: Sequence[int]) -> tuple[int, ...]:
    t = tuple(seq)
    return t if t[0] <= t[-1] else t[::-1]


@dataclass(frozen=True)
class LongestPathSet:
    """ell(G) plus the (possibly truncated) list of longest paths."""

    length: int
    paths: tuple[Path, ...]
    truncated: bool

    def __len__(self) -> int:
        return len(self.paths)

    def common_mask(self) -> int:
        acc = -1
        for p in self.paths:
            acc &= p.mask
        return acc if acc != -1 else 0


def is_path(g: Graph, seq: Sequence[int]) -> bool:
    """True iff seq is a nonempty simple path in g."""
    if not seq:
        return False
    for v in seq:
        if not 0 <= v < g.n:
            raise UsageError(f"vertex {v} out of range for graph of order {g.n}")
    if len(set(seq)) != len(seq):
        return False
    return all(g.has_edge(a, b) for a, b in zip(seq, seq[1:]))


def _reachable_count(g: Graph, v: int, unvisited: int) -> int:
    """Number of unvisited vertices reachable from v through unvisited vertices."""
    seen = g.nbr_masks[v] & unvisited
    frontier = seen
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= g.nbr_masks[low.bit_length() - 1]
            f ^= low
        frontier = nxt & unvisited & ~seen
        seen |= frontier
    return seen.bit_count()


def longest_path_length(g: Graph) -> int:
    """Maximum edge-length over all simple paths of a connected graph."""
    if not is_connected(g):
        raise UsageError("longest_path_length requires a connected graph")
    best = 0
    masks = g.nbr_masks
    full = g.vertex_mask()

    def dfs(v: int, vis: int, length: int) -> None:
        nonlocal best
        if length > best:
            best = length
        rem = full & ~vis
        if not rem or length + rem.bit_count() <= best:
            return
        if length + _reachable_count(g, v, rem) <= best:
            return
        nxt = masks[v] & rem
        while nxt:
            low = nxt & -nxt
            w = low.bit_length() - 1
            dfs(w, vis | low, length + 1)
            nxt ^= low

    for s in range(g.n):
        dfs(s, 1 << s, 0)
    return best


def enumerate_longest_paths(g: Graph, cap: int | None = DEFAULT_PATH_CAP) -> LongestPathSet:
    """All longest paths of g, canonical and deduplicated, in lexicographic order.

    If more than cap paths exist, the lexicographically first cap of them are
    returned with the truncation flag set.
    """
    if cap is not None and cap < 1:
        raise UsageError(f"cap must be >= 1, got {cap}")
    if not is_connected(g):
        raise UsageError("enumerate_longest_paths requires a connected graph")
    best = 0
    found: set[tuple[int, ...]] = set()
    masks = g.nbr_masks
    full = g.vertex_mask()
    path: list[int] = []

    def dfs(v: int, vis: int) -> None:
        nonlocal best
        path.append(v)
        length = len(path) - 1
        if length > best:
            best = length
            found.clear()
            found.add(canonical_sequence(path))
        elif length == best:
            found.add(canonical_sequence(path))
        rem = full & ~vis
        if rem and length + rem.bit_count() >= best:
            if length + _reachable_count(g, v, rem) >= best:
                nxt = masks[v] & rem
                while nxt:
                    low = nxt & -nxt
                    w = low.bit_length() - 1
                    dfs(w, vis | low)
                    nxt ^= low
        path.pop()

    for s in range(g.n):
        dfs(s, 1 << s)
    ordered = sorted(found)
    truncated = cap is not None and len(ordered) > cap
    if truncated:
        ordered = ordered[:cap]
    return LongestPathSet(
        length=best,
        paths=tuple(Path(t) for t in ordered),
        truncated=truncated,
    )


def pairwise_intersection_holds(paths: Iterable[Path]) -> tuple[bool, tuple[int, int] | None]:
    """Check that every pair of paths shares a vertex.

    Returns (True, None) or (False, (i, j)) with the first offending pair.
    """
    plist = list(paths)
    for i in range(len(plist)):
        mi = plist[i].mask
        for j in range(i + 1, len(plist)):
            if not mi & plist[j].mask:
                return False, (i, j)
    return True, None
