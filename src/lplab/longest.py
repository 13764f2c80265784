"""Longest-path length and exact enumeration of all longest paths.

Paths are undirected objects: the two orientations of a vertex sequence are
the same path, kept in canonical form (first vertex numerically smaller than
the last).

Every entry point counts before it walks.  A graph with a spanning path has
ell = n - 1 and only spanning longest paths, so the spanning paths are
counted first, by a memoised walk over (visited set, end vertex) states (the
Bellman / Held-Karp recurrence) that walks each path once, in the direction
from a vertex of least degree to one of greatest degree.  A nonzero count
is the whole answer; the paths are built only when one is read, and the
first read walks them out.  Spanning paths share every vertex, so a caller
that needs no member never builds one.  A caller that reads the count only
up to some size c asks for that (count_cap) and reads it with count_upto:
the count stops at c, and a read that needs more (len, the truncation flag,
a member) counts again, up to the path cap.  Three or more vertices of
degree 1 rule out a spanning path, since each ends one, and skip the count.

A graph with no spanning path is walked once, depth first, with a
reachability bound, each path from its smaller end, which gives ell and the
longest paths together.  The reach test also applies the endpoint rule:
every neighbour of an end of a longest path lies on the path, or the path
would extend, so a branch that can no longer reach every unvisited
neighbour of its start holds no longest path.  The thin-start rule cuts the
first step: if x, of degree at most 2, is a neighbour of an end s of a
longest path P, then x lies on P, so x is P's second vertex, or else P's
other end, and then P + sx is a cycle and P is spanning (g is connected).
With no spanning path, a first step from s that passes by such an x is
skipped, and a start with two such neighbours is not walked.  Each start s
also drops first the pendant trees that no longest path walked from s can
hold, peeled from the leaves below s: a vertex left with one neighbour at
most could only end such a path, and it cannot if it lies below s or next
to a dropped vertex.  A start next to a dropped vertex is not walked, the
thin-start rule counts degrees in the graph left, and the walk never steps
onto a dropped vertex.

A run is a maximal path of degree-2 vertices.  Without a spanning path the
walk crosses a run of two or more vertices in one step: a path that steps
into it goes on to the vertex past its far end, or stops at its last
vertex if that one is on the path already, and the reach test sees such a
run, if wholly unvisited, with its far end at once.  Both are exact: each
step inside a run is forced, a path that ends inside one with its next
vertex unvisited extends and so is not longest, and a run's vertices reach
each other and its ends through it, and nothing else.  The tests
cross-check the walk against an independent permutation-prefix oracle.
The count and the walk for spanning paths recurse once per path vertex,
the walk without one once per path vertex off the long runs, which is once
per long run, at the vertex past its far end, and never inside one, so a
longest path of about as many vertices as Python's recursion limit is
refused with a UsageError.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

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


def _path(vertices: tuple[int, ...], mask: int) -> Path:
    """Path(vertices) for a caller that already holds its mask.

    The enumeration builds up to cap + 1 paths; through Path.__init__ and
    its mask loop that was about a fifth of its time on the n <= 8 corpus.
    """
    p = object.__new__(Path)
    object.__setattr__(p, "vertices", vertices)
    object.__setattr__(p, "mask", mask)
    return p


@dataclass(frozen=True)
class LongestPathSet:
    """ell(G) plus the (possibly truncated) list of longest paths.

    paths is a tuple when the walk that found ell built them.  For spanning
    paths, which enumerate_longest_paths counts, it is a _SpanningPaths,
    which builds them on its first read; such a set (_spanning_set) leaves
    truncated unset until it is read, since reading it may have to finish
    the count.
    """

    length: int
    paths: Sequence[Path]
    truncated: bool

    def __getattr__(self, name: str):
        # called only for an attribute not set: a spanning set's flag
        paths = self.__dict__.get("paths")
        if name != "truncated" or not isinstance(paths, _SpanningPaths):
            raise AttributeError(name)
        return paths.truncated

    def __len__(self) -> int:
        return len(self.paths)

    def count_upto(self, c: int) -> int:
        """min(len(self), c), counting no further than that needs: a spanning
        count stopped at count_cap is finished only for c > count_cap."""
        if isinstance(self.paths, _SpanningPaths):
            return self.paths.count_upto(c)
        return min(len(self.paths), c)

    def common_mask(self) -> int:
        if isinstance(self.paths, _SpanningPaths):
            # every spanning path holds every vertex
            return (1 << (self.length + 1)) - 1
        return common_mask(self.paths)


def common_mask(paths: Iterable[Path]) -> int:
    """The mask of the vertices that every path holds; 0 for no paths."""
    acc = -1
    for p in paths:
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


# A walk crosses a graph's long runs in one step each only if crossing all
# of them once saves at least this many steps: below it, finding the runs
# costs more than the steps save.  Crossing them, the walk took about 12%
# longer on random sparse graphs (n = 9..18) with one run of two vertices,
# and 12-16% less on subdivided graphs (n = 13..20) whose runs save 3 to 5
# steps (2-core VM, Python 3.11).
_RUNS_MIN_SAVED = 3


def _runs(
    masks: Sequence[int], two: int
) -> tuple[int, dict[tuple[int, int], tuple[tuple[int, ...], int, int]], list[int]] | None:
    """The long runs of a graph with these neighbour masks, two being the
    mask of its degree-2 vertices: its runs (maximal paths of degree-2
    vertices) of two or more vertices.

    None if crossing each of them once saves fewer than _RUNS_MIN_SAVED
    steps in all, or if the graph is a cycle, whose run has no ends.  A
    crossing saves one step per edge between two degree-2 vertices, and a
    vertex lies on a long run iff it has a degree-2 neighbour.

    Else (chain, hops, over), built here whole: nothing is added later.
    chain is the mask of the runs' vertices.  For each end r of a run, with
    a its neighbour off the run and r' its neighbour on it, hops holds the
    hop [a, r], the step into the run, and the hop [r, r'], the first step
    of a walk that starts at r: these are all the steps onto a run that the
    walk takes (_walk).  The hop [v, w] is (steps, mask, tip): steps are
    the run's vertices from w on, away from v, then the vertex past them,
    which ends the run; mask holds them all, and tip that last vertex, as a
    bit.  over[u] is u's neighbour mask joined, for a vertex u of a run, to
    the run and both its ends, and for an end u of runs, to each of them
    and its other end.
    """
    chain = joins = 0
    rest = two
    while rest:
        low = rest & -rest
        rest ^= low
        inside = (masks[low.bit_length() - 1] & two).bit_count()
        if inside:
            chain |= low
            joins += inside
    if joins < 2 * _RUNS_MIN_SAVED or two == (1 << len(masks)) - 1:
        return None
    hops = {}
    over = list(masks)
    # take each run from each of its ends, r, with a the vertex before r
    rest = chain
    while rest:
        low = rest & -rest
        rest ^= low
        a = masks[low.bit_length() - 1] & ~two
        if not a:
            continue
        steps = []
        mask, back, tip = 0, a, low
        while tip & chain:
            mask |= tip
            steps.append(tip.bit_length() - 1)
            tip, back = masks[steps[-1]] & ~back, tip
        steps.append(tip.bit_length() - 1)
        mask |= tip
        a = a.bit_length() - 1
        hops[a, steps[0]] = (tuple(steps), mask, tip)
        hops[steps[0], steps[1]] = (tuple(steps[1:]), mask ^ low, tip)
        over[a] |= mask
        for u in steps[:-1]:
            over[u] = mask | 1 << a
    return chain, hops, over


def _peel(masks: Sequence[int], todo: int, s: int) -> int:
    """The mask of the vertices that no longest path walked from s can
    hold, given todo, the leaves below s.

    Peeled from those leaves by one rule, repeated: drop a vertex u other
    than s that has at most one undropped neighbour, if u < s or some
    neighbour of u is dropped already.  A longest path P walked from s ends
    at some e > s and holds every neighbour of both its ends.  Such a u on
    P, with every vertex dropped before it off P, has at most one
    neighbour on P, so it ends P; it is not s, not e if u < s, and not e
    if a neighbour of u is off P.  Each dropped vertex is a leaf of what is
    left, so the rest stays connected.  Dropping more only lets more be
    dropped, so the order does not matter: a vertex is tried again each
    time a neighbour of it is dropped.
    """
    off = 0
    start = 1 << s
    while todo:
        low = todo & -todo
        todo ^= low
        left = masks[low.bit_length() - 1] & ~off
        if not left & (left - 1):
            off |= low
            todo |= left & ~start
    return off


def _reaches(
    first: int, masks: Sequence[int], unvisited: int, need: int, must: int = 0, on: int = -1
) -> bool:
    """True iff at least need unvisited vertices, every vertex of must among
    them, are reachable through unvisited vertices from a vertex with the
    neighbour mask first; the search stops as soon as it has seen need of
    them and all of must.

    Each layer past the first is the union of masks[u] over the vertices u
    of the one before it that lie in on.  The walk (_walk) passes its
    neighbour masks and every vertex, except with long runs: then it
    passes over (_runs) and the vertices off the runs, so the search
    crosses each run it enters in one layer, sees its far end at once, and
    goes on from that end alone.  That sees the same vertices in fewer
    layers, so the answer stays exact, while the vertex searched from lies
    on no long run and the visited vertices hold each long run wholly or
    not at all, as they do in the walk: an unvisited vertex of a run then
    reaches the whole run and its ends, and through a visited run an
    unvisited end reaches nothing, since its other end is visited too, or
    else the visited path would be the run alone.  The first layer stays
    the real neighbours: over would see through a visited run.

    The walk's visited vertices also hold those its start dropped (_peel).
    A run with a dropped vertex is dropped whole, with one of its ends, so
    through it over reaches no unvisited vertex either; were it to, the
    search would only count too much, which cuts less and stays exact.
    """
    seen = first & unvisited
    frontier = seen
    while seen.bit_count() < need or must & ~seen:
        if not frontier:
            return False
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & unvisited & ~seen
        seen |= frontier
        frontier &= on
    return True


@contextlib.contextmanager
def _depth_guard():
    """Report a walk deeper than Python's recursion limit as a UsageError.

    The walks recurse once per vertex of the path they extend (the walk
    without a spanning path once per long run instead, at its far end), so
    a longest path of nearly as many vertices as the limit is out of their
    reach.
    The limit is not raised: on Python 3.10 each frame sits on the C stack.
    """
    try:
        yield
    except RecursionError:
        raise UsageError(
            "the longest-path walk passed Python's recursion limit of "
            f"{sys.getrecursionlimit()} frames, one per path vertex"
        ) from None


class _CapReached(Exception):
    """A search reached its cap: paths found or search nodes."""


def _walk(g: Graph, keep: int, spans: bool) -> tuple[int, list[Path]]:
    """ell(g) and the lexicographically first keep canonical paths of that
    length (keep >= 1), from one depth-first walk.

    spans says whether g has a spanning path; the caller knows, from the
    spanning count.  With spans the walk records spanning paths only: it
    aims at length n - 1 from the start.  Without, it skips every first
    step that can hold no longest path but a spanning one (below).

    Each path is walked once, from its smaller end (start ascending,
    neighbours ascending, which is lexicographic order): from start s the
    walk goes on only while an unvisited vertex above s is left.  The walk
    tracks the best length found so far and records the paths that tie it,
    in DFS order, dropping them when a longer one appears; they are built
    (as Path) only on return, so paths dropped for a longer one are never
    built.  Without spans the best length starts at 2: g is connected and
    n >= 3, so some path has two edges, and no path of one edge is
    recorded.

    A child is cut when the vertices it can still reach cannot bring it up
    to the best length, or, once keep paths of that length are held, cannot
    take it past.  It is also cut when it cannot reach every unvisited
    neighbour of its start s (the endpoint rule).  This is exact: a longest
    path P holds every neighbour of s, or a neighbour of s would extend it,
    so on P's branch the unvisited neighbours of s lie on the rest of P and
    are reached; every path in a cut branch misses some neighbour u of s,
    and u + P is longer.

    Without spans the first step is cut by the thin-start rule; a vertex is
    thin if its degree is at most 2.  Let x be a thin neighbour of s and P
    a longest path that starts at s.  x lies on P, by the endpoint rule.
    If x is internal, its two path-neighbours are all of its neighbours, s
    among them, so x is P's second vertex.  Otherwise x is P's other end,
    P + sx is a cycle, and since g is connected, a vertex off the cycle
    would extend it to a longer path, so P is spanning.  Hence a first step
    to w, with a thin neighbour of s other than w, holds no longest path
    but a spanning one, and g has none: the step is skipped, and a start
    with two thin neighbours is not walked at all.  A zero count makes
    every such step unnecessary, leaf or not.  The leaf rule is a case of
    it: below such a step a spanning path would close a Hamiltonian cycle,
    on which no vertex has degree 1, and three leaves, as in the paper's
    G_t, rule out a spanning path with no count at all.

    All these cuts remove only branches that hold no longest path, so they
    can only lower the best length held at some moment, or the number of
    paths of it: need only falls and nothing else is cut.  With spans, need
    asks for every unvisited vertex anyway, and the endpoint rule is
    dropped.  After a forced step (one way on) the reach test is skipped,
    since the child reaches exactly what its parent did, less itself, and
    the parent's test covered the start's neighbours too.  A start is not
    tested: g is connected, so it reaches every other vertex, and its
    forced first step all but the start.  With spans nothing is longer than
    a spanning path: the walk adds the last two vertices of a path in the
    parent's loop, which may take the list past keep, and stops once it
    holds keep paths.

    Without spans the walk crosses each long run in one step, if that
    saves enough steps (_RUNS_MIN_SAVED), and reads each crossing from the
    table that _runs fills before the walk starts.  A step to a vertex w of
    a run goes on along the run to the vertex past its far end, and is
    recorded and tested there, and recurses once, as a step to that vertex
    would be; if that vertex is on the path already, the path stops at the
    run's last vertex, and is recorded there.  This is exact: each step
    inside the run is forced, a path that ends inside it extends by its
    next vertex and so is not longest, and the reach test at the far end
    sees what one at w would, less the run.  Only the best length held at
    some moment can differ, which, as above, changes no path of length ell
    that is kept.  The walk enters a run only at an end and crosses it
    whole, and a start on a run has two thin neighbours, and is skipped, or
    steps first along the run, so each long run is wholly visited or wholly
    unvisited, and no reach test starts on one: the reach test's crossing
    stays exact (_reaches).

    Without spans each start s first drops the vertices that no longest
    path walked from s can hold (_peel, which gives the proof): the pendant
    trees peeled from the leaves below s.  A start with no leaf below it
    drops nothing, at the cost of one AND.  A start with two thin
    neighbours is skipped before the peel, which only lowers degrees and so
    would not save it, and a start with a dropped neighbour after it, by
    the endpoint rule.  The thin-start rule counts a vertex's neighbours
    among those not dropped, and its proof holds in the graph left, which
    is connected: P + sx is a cycle, through every vertex left, so a
    dropped vertex next to it would extend P, and with none dropped P is
    spanning.  The walk from s starts with the dropped vertices visited, so
    no step and no reach test sees them, and records each path's mask
    without them.  A run with a dropped vertex is dropped whole, with one
    of its ends: its first dropped vertex has degree 2 and so a dropped
    neighbour off the run, and each next one a dropped neighbour on it,
    until the run ends or reaches s, whose neighbour is then dropped.  So
    the walk still enters a run only at an end.
    """
    spanning = g.n - 1
    masks = g.nbr_masks
    full = g.vertex_mask()
    # the vertices of degree <= 2, of 2 and of 1; none with spans
    thin = two = leaf = 0
    if not spans:
        for v, m in enumerate(masks):
            d = m.bit_count()
            if d <= 2:
                thin |= 1 << v
                if d == 2:
                    two |= 1 << v
                else:
                    leaf |= 1 << v
    # the long runs, which the walk crosses in one step each, and the masks
    # and vertices the reach test searches by and on from
    chain, hops, over = _runs(masks, two) or (0, {}, masks)
    on = ~chain
    # the length a path must reach to be recorded: the best so far, at
    # least 2, or with spans, n - 1 from the start
    best = spanning if spans else 2
    fold = spanning - 2 if spans else -1  # the length with two vertices left
    slack = False  # True once keep paths of the best length are held
    own = 0  # the start's neighbours, all on any longest path; 0 with spans
    lone = 0  # the start's thin neighbours, at most one
    off = 0  # the vertices that no longest path from the start holds
    found: list[tuple[tuple[int, ...], int]] = []  # (vertices, mask) of each
    path: list[int] = []

    def dfs(v: int, vis: int, length: int) -> None:
        """Walk every extension of path, which ends at v at this length."""
        nonlocal best, slack, found
        nxt = masks[v] & ~vis
        if length == fold:
            # two vertices left, and any path through both is spanning:
            # take each neighbour w of v, then the other one if it is w's
            # neighbour and lies above the start
            while nxt:
                low = nxt & -nxt
                nxt ^= low
                w = low.bit_length() - 1
                end = masks[w] & ~vis & ~low & high
                if end:
                    found.append(((*path, w, end.bit_length() - 1), full))
            if len(found) >= keep:
                raise _CapReached
            return
        forced = not nxt & (nxt - 1)
        if not length:
            # the start: the thin-start rule leaves only the step to its
            # thin neighbour, if it has one (the caller skips it with two)
            nxt = nxt & lone or nxt
        length += 1
        # with r more vertices the child ends at length + r: it needs
        # best - length of them to tie, one more to beat, and one at least
        # to be worth a visit; this changes only with a record or a visit.
        # With spans, need is the number of unvisited vertices, so only
        # their reach can fall short
        need = best - length + slack or 1
        while nxt:
            low = nxt & -nxt
            nxt ^= low
            w = low.bit_length() - 1
            vis_w = vis | low
            if low & chain:
                # cross the run to the vertex past its far end, at length
                # at, or if that vertex is on the path already, stop at the
                # run's last vertex
                steps, mask, tip = hops[v, w]
                dead = tip & vis
                if dead:
                    steps = steps[:-1]
                    mask ^= tip
                    tip = 1 << steps[-1]
                at = length + len(steps) - 1
                vis_w = vis | mask
                if at >= best and tip & high:
                    if at > best:
                        best = at
                        found = []
                    if len(found) < keep:
                        found.append(((*path, *steps), vis_w ^ off))
                    slack = len(found) >= keep
                need = best - at + slack or 1
                rem = full & ~vis_w
                if not dead and rem & high and rem.bit_count() >= need and (
                    forced or _reaches(masks[steps[-1]], over, rem, need, own & rem, on)
                ):
                    path.extend(steps)
                    dfs(steps[-1], vis_w, at)
                    del path[-len(steps):]
                need = best - length + slack or 1
                continue
            # only ends above the start are recorded, and that is enough: a
            # path longer than the best always ends above its start, since
            # had it ended below, it would already have been walked from that
            # smaller end, and the best would be at least its length
            if length >= best and low & high:
                if length > best:
                    best = length
                    found = []
                if len(found) < keep:
                    found.append(((*path, w), vis_w ^ off))
                slack = len(found) >= keep
                need = best - length + slack or 1
            rem = full & ~vis_w
            if rem & high and rem.bit_count() >= need and (
                forced or _reaches(masks[w], over, rem, need, own & rem, on)
            ):
                path.append(w)
                dfs(w, vis_w, length)
                path.pop()
                need = best - length + slack or 1

    try:
        for s in range(spanning):
            lone = masks[s] & thin
            if lone & (lone - 1):
                continue  # two thin neighbours: no first step is left
            off = leaf & ((1 << s) - 1)
            if off:
                off = _peel(masks, off, s)
                if masks[s] & off:
                    continue  # a neighbour of the start is off every path
                # thin among the vertices left
                rest = masks[s] & ~thin
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if (masks[low.bit_length() - 1] & ~off).bit_count() <= 2:
                        lone |= low
                if lone & (lone - 1):
                    continue
            high = full & ~((2 << s) - 1)
            if not spans:
                own = masks[s]
            path.append(s)
            dfs(s, 1 << s | off, 0)
            path.pop()
    except _CapReached:
        pass
    finally:
        # dfs refers to itself through its closure, a cycle that only the
        # garbage collector frees; the run tables go now, with the call
        del dfs
    return best, [_path(vertices, mask) for vertices, mask in found]


def longest_path_length(g: Graph) -> int:
    """Maximum edge-length over all simple paths of a connected graph.

    enumerate_longest_paths with one path kept and the count stopped at 1:
    a spanning count that reaches 1 answers n - 1, and only a graph with no
    spanning path is walked.
    """
    return enumerate_longest_paths(g, cap=1, count_cap=1).length


# Below this many unvisited vertices the counter walks a child without a
# reach test: a dead child is walked once and then cached, which costs less
# than testing every child (on the spanning n <= 8 graphs and on random
# n = 10..14 graphs the test cost about a quarter of the count's time),
# while on sparse grids, where the dead branches are large, the test pays.
_COUNT_REACH_MIN = 8


def _count_spanning(g: Graph, stop: int) -> int:
    """The number of spanning paths of g (n >= 3), or some number >= stop
    once the count reaches stop.  With three or more leaves it is 0 at
    once: every leaf ends a spanning path, which has two ends.

    Each path is counted once, in the direction that visits a before b: a is
    a vertex of least degree and b one of greatest degree other than a
    (ties to the lowest label).  A spanning path holds both, so exactly one
    of its two directions does.  The walk never starts at b and, while a is
    unvisited, never steps to b; whether a step is allowed depends only on
    the visited set and the next vertex, so the ways to complete a path
    still depend only on its end vertex and its visited set.  Each
    (visited set, end) state is counted once and cached for the rest of the
    call.  A running total grows by the completions of the last two vertices
    and by the cached count at a cache hit, and a state's count is the
    growth of the total while it is walked, so the walk can stop as soon as
    the total reaches stop.  An uncached child with at least
    _COUNT_REACH_MIN unvisited vertices is cut unless it reaches every one
    of them; the reach test is skipped after a forced step, and the last
    two vertices are added in the parent's loop.
    """
    masks = g.nbr_masks
    degs = [m.bit_count() for m in masks]
    if degs.count(1) > 2:
        return 0
    if g.n == 3:
        # every two edges of a connected graph on three vertices form one
        return g.m * (g.m - 1) // 2
    full = g.vertex_mask()
    # index finds the first of equals, the lowest label; a's degree drops
    # below every other so that b is found among the rest
    a = degs.index(min(degs))
    degs[a] = -1
    b = degs.index(max(degs))
    a_bit = 1 << a
    not_b = ~(1 << b)
    memo: list[dict[int, int]] = [{} for _ in range(g.n)]
    total = 0

    def dfs(v: int, vis: int) -> None:
        """Add the completions of a path that ends at v over vis to total;
        at least three vertices are unvisited."""
        nonlocal total
        before = total
        nxt = masks[v] & ~vis
        # taken before b leaves nxt: the child of a forced step reaches
        # what v reaches, less itself
        forced = not nxt & (nxt - 1)
        if not vis & a_bit:
            nxt &= not_b
        while nxt:
            low = nxt & -nxt
            nxt ^= low
            w = low.bit_length() - 1
            vis_w = vis | low
            rem = full & ~vis_w
            last = rem & (rem - 1)
            if not last & (last - 1):
                # two vertices left: if they are joined, one completion
                # for each neighbour of w among them that may come first
                if masks[last.bit_length() - 1] & rem:
                    first = masks[w] & rem
                    if not vis_w & a_bit:
                        first &= not_b
                    total += first.bit_count()
            else:
                done = memo[w].get(vis_w)
                if done is not None:
                    total += done
                elif (
                    forced
                    or (left := rem.bit_count()) < _COUNT_REACH_MIN
                    or _reaches(masks[w], masks, rem, left)
                ):
                    dfs(w, vis_w)
            if total >= stop:
                raise _CapReached
        memo[v][vis] = total - before

    try:
        for s in (a, *(v for v in range(g.n) if v != a and v != b)):
            dfs(s, 1 << s)
    except _CapReached:
        pass
    finally:
        # dfs refers to itself through its closure, a cycle that only the
        # garbage collector frees; the cache goes now, with the call
        memo.clear()
    return total


class _SpanningPaths(Sequence):
    """The first min(T, keep - 1) canonical spanning paths of g in
    lexicographic order, T being the number of them.

    count is _count_spanning(g, stop), stop <= keep: T itself below stop,
    and only a lower bound on T (at least stop) once it reached stop.  A
    read that needs more (len, truncated, a member, count_upto past the
    stop) counts again, up to keep, so a count stopped at a caller's
    count_cap costs no more than that caller reads.  By default the count is
    exact (nothing stops it).  The paths are built only when one is first
    read: that read walks them all out (_walk), and the set keeps them.
    """

    def __init__(
        self, g: Graph, count: int, stop: int = sys.maxsize, keep: int = sys.maxsize
    ) -> None:
        self._g = g
        self._count = count
        self._stop = stop
        self._keep = keep
        self._paths: tuple[Path, ...] | None = None

    def _at_least(self, c: int) -> int:
        """min(T, c), for c <= keep; a count stopped below c is finished."""
        if self._count < c and self._count >= self._stop:
            with _depth_guard():
                self._count = _count_spanning(self._g, self._keep)
            self._stop = self._keep
        return min(self._count, c)

    def count_upto(self, c: int) -> int:
        return self._at_least(min(c, self._keep - 1))

    @property
    def truncated(self) -> bool:
        return self._at_least(self._keep) == self._keep

    def __len__(self) -> int:
        return self._at_least(self._keep - 1)

    def __getitem__(self, i):
        if self._paths is None:
            count = len(self)
            # the walk may add a few paths past count in its last step
            with _depth_guard():
                self._paths = tuple(_walk(self._g, count, True)[1][:count])
        # a slice is a tuple, as the enumeration's: a caller may drop
        # members, as the benchmark's smoke tests do with lps.paths[1:]
        return self._paths[i]

    # the first count spanning paths of a graph are fixed by the graph, so
    # two sets are equal without building either
    def __eq__(self, other):
        if not isinstance(other, _SpanningPaths):
            return NotImplemented
        return len(self) == len(other) and self._g == other._g

    def __hash__(self) -> int:
        return hash((self._g, len(self)))


def _spanning_set(g: Graph, paths: _SpanningPaths) -> LongestPathSet:
    """The LongestPathSet of g's spanning paths, with truncated left unset
    for LongestPathSet.__getattr__ to read from paths."""
    lps = object.__new__(LongestPathSet)
    object.__setattr__(lps, "length", g.n - 1)
    object.__setattr__(lps, "paths", paths)
    return lps


def enumerate_longest_paths(
    g: Graph, cap: int | None = DEFAULT_PATH_CAP, *, count_cap: int | None = None
) -> LongestPathSet:
    """All longest paths of g, canonical and deduplicated, in lexicographic
    order; if more than cap exist, the first cap of them with the
    truncation flag set.

    Count first: unless g has three or more leaves, its spanning paths are
    counted (_count_spanning), each once, in one direction, and the count
    stops once it reaches cap + 1, which keeps the truncation flag exact.
    A nonzero count is the whole answer: ell = n - 1, and the first read of
    paths walks out the counted paths (_SpanningPaths).  A zero count, or
    three leaves, means g has no spanning path: then one depth-first walk
    (_walk) finds ell and holds the paths, at most cap + 1 of them.  It
    cannot stop at cap + 1 while a longer path may still come, so it walks
    to the end (once cap + 1 paths are held it cuts every child that cannot
    beat the best length), and it skips every first step that could hold
    only a spanning path.

    count_cap, if set, serves a caller that reads the count only up to some
    size, with count_upto(c) for c <= count_cap: the spanning count stops at
    count_cap instead, and the first read that needs more (len, truncated,
    a member) finishes it, up to cap.  It changes no answer, only when the
    counting is done; the paths kept without a spanning path are capped at
    cap alone.
    """
    if cap is not None and cap < 1:
        raise UsageError(f"cap must be >= 1, got {cap}")
    if count_cap is not None and count_cap < 1:
        raise UsageError(f"count_cap must be >= 1, got {count_cap}")
    if not is_connected(g):
        raise UsageError("enumerate_longest_paths requires a connected graph")
    keep = sys.maxsize if cap is None else cap + 1
    if g.n <= 2:
        # K1 and K2: one path, through every vertex
        return LongestPathSet(g.n - 1, (Path(tuple(range(g.n))),), False)
    stop = keep if count_cap is None else min(keep, count_cap)
    with _depth_guard():
        count = _count_spanning(g, stop)
        if count:
            return _spanning_set(g, _SpanningPaths(g, count, stop, keep))
        ell, found = _walk(g, keep, False)
    return LongestPathSet(ell, tuple(found[: keep - 1]), len(found) >= keep)


def demand_cover(
    rows: Sequence[Sequence[int]], demand: int, k: int, node_cap: int | None = None
) -> tuple[tuple[int, ...] | None, int, bool]:
    """The indices of at most k rows whose sum reaches demand in every
    column, if such rows exist; the entries are nonnegative.

    An exact cover-style search (Knuth's Algorithm X with the
    minimum-remaining-values rule, generalized from covering to demands): a
    column stays alive while its deficit, demand less what the taken rows
    give it, is positive, and the search branches on the alive column with
    the fewest remaining rows that give it something.  It cuts a branch
    where some alive column's deficit exceeds the sum of its limit largest
    remaining entries, limit being the number of rows still to take.
    Adding rows only raises the sums, so indices exist iff at most k do and
    k <= len(rows).

    Row i of a longest path P_i holds d(v, P_i) in column v, so k paths
    whose rows reach demand D have f >= D.  At demand 1 only whether an
    entry is positive counts, and d(v, P_i) > 0 exactly where P_i misses v:
    a cover is then a set of paths with no common vertex.

    The witness is the first cover the search finds, padded with the least
    unused indices up to k and sorted; it need not be the lexicographically
    least such subset.

    Returns (subset or None, search nodes, capped).  With node_cap set, the
    search stops before its node count would pass the cap and reports
    (None, node_cap, True): no answer either way.
    """
    n_items = len(rows)
    width = len(rows[0]) if rows else 0
    # givers[v]: bitset of the indices with a positive entry in column v;
    # ranked[v]: those entries, largest first, each with its index bit (filled
    # only above demand 1: at demand 1 any giver meets a deficit);
    # masks[i]: the columns that row i gives something to, and full[i] those
    # it gives demand or more, which meet any deficit
    givers = [0] * width
    ranked: list[list[tuple[int, int]]] = [[] for _ in range(width)]
    masks = []
    full = []
    for i, row in enumerate(rows):
        bit = 1 << i
        gives = meets = 0
        for v, x in enumerate(row):
            if x:
                givers[v] |= bit
                if demand > 1:
                    ranked[v].append((x, bit))
                gives |= 1 << v
                if x >= demand:
                    meets |= 1 << v
        masks.append(gives)
        full.append(meets)
    for entries in ranked:
        entries.sort(reverse=True)
    nodes = 0
    cover: list[int] = []  # the indices taken on the current branch

    def can_meet(v: int, allowed: int, limit: int, deficit: int) -> bool:
        """Do the limit largest entries of column v among allowed sum to deficit?"""
        for x, bit in ranked[v]:
            if bit & allowed:
                deficit -= x
                limit -= 1
                if deficit <= 0:
                    return True
                if not limit:
                    return False
        return False

    def cover_at_most(deficits: list[int], alive: int, allowed: int, limit: int) -> bool:
        """Can at most limit indices of allowed meet the deficits of alive?"""
        nonlocal nodes
        if node_cap is not None and nodes >= node_cap:
            raise _CapReached
        nodes += 1
        if not alive:
            return True
        if not limit:
            return False
        branch = 0
        fewest = n_items + 1
        rest = alive
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            cand = givers[v] & allowed
            count = cand.bit_count()
            if count < fewest:
                if not count:
                    return False
                branch, fewest = cand, count
            # at demand 1 every deficit is 1, and a giver was found above
            if demand > 1 and not can_meet(v, allowed, limit, deficits[v]):
                return False
            rest ^= low
        # a cover contains some index that gives to the branch column;
        # trying them in index order, ban each from its later siblings,
        # which only repeat covers already tried
        while branch:
            low = branch & -branch
            allowed ^= low
            i = low.bit_length() - 1
            still = alive & ~full[i]
            part = still & masks[i]  # the alive columns it gives less than demand
            left = deficits[:] if part else deficits
            while part:
                bit = part & -part
                v = bit.bit_length() - 1
                left[v] -= rows[i][v]
                if left[v] <= 0:
                    still ^= bit
                part ^= bit
            cover.append(i)
            if cover_at_most(left, still, allowed, limit - 1):
                return True
            cover.pop()
            branch ^= low
        return False

    try:
        if k > n_items or not cover_at_most(
            [demand] * width, (1 << width) - 1, (1 << n_items) - 1, k
        ):
            return None, nodes, False
    except _CapReached:
        return None, nodes, True
    # any superset of a cover reaches the demand too
    taken = set(cover)
    unused = (i for i in range(n_items) if i not in taken)
    cover.extend(itertools.islice(unused, k - len(cover)))
    return tuple(sorted(cover)), nodes, False
