"""Small-graph corpus generation, conjecture checking, and corpus scanning.

The generator builds every non-isomorphic graph on n vertices by one-vertex
extension: each graph on n - 1 vertices (the base) gets a new vertex joined to
each subset of its vertices in turn, and a candidate is kept iff no earlier
candidate is isomorphic to it, so every class keeps its first-found labelled
representative (the isomorph rejection of McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998, without his canonical choice).  Four things
keep it cheap, none of which changes which candidate comes first:

- twin pruning: a subset holding w but not its twin u < w (same neighbours
  apart from each other) is skipped, since swapping u and w maps it onto a
  smaller subset of the same base, tried before it;
- vertex keys in O(1) per vertex: degree, twice the triangles and the sum of
  neighbour degrees, packed into one int, tagged with the vertex's label and
  updated from per-base arrays with one popcount; one sort of the tagged keys
  puts the vertices in key order (ties by label), and the sorted keys,
  packed into one int, are the candidate's bucket key;
- known forms: a candidate's form is its relabelling in key order, packed
  into one int, and equal forms are isomorphic graphs.  One set holds the
  forms of the representatives and of every duplicate a search found, so a
  candidate whose form is in it is dropped after one lookup (at n = 8,
  75,724 of the 94,956 candidates);
- for the rest that land in an existing bucket (6,978 at n = 8), a bitmask
  isomorphism test against each representative in the bucket: a vertex maps
  only onto vertices of its own key, rarest key first, and an image is
  accepted with one mask compare.  Generating n <= 8 makes 7,608 such tests.

On one core of a 2-core VM (Python 3.11.7) _all_graph_masks(8) takes about
0.8 s from an empty cache, and generate_connected_graphs(9) about 25-26 s at
a 169 MB peak (the commands are in the README).  Tier-1 pins the counts and a
sha256 of the graph6 output for n <= 8; a CI step pins the n = 9 counts and
the sha256 of its connected graph6 lines, and bounds that step's peak RSS.

The scanner sorts its graphs once into canonical graph6 order and folds each
graph's record into the report as it arrives, from this process or, in that
order, from a pool of workers, so its JSON output does not depend on the
worker count, and a halting record ends the scan.
"""

from __future__ import annotations

import itertools
import math
import random
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .bounds import (
    DEFAULT_CHECKS,
    REPORT_SCHEMA,
    check_names,
    common_vertex_verdicts,
    frac_str,
    run_checks,
    theorem_bound,
    theorem_check_id,
)
from .errors import FormatError, UsageError
from .graphs import (
    GRAPH6_SMALL_MAX,
    Graph,
    bfs_distances,
    encode_graph6,
    is_connected,
    masks_connected,
    parse_graph6,
)
from . import longest
from .longest import DEFAULT_PATH_CAP, LongestPathSet, common_mask, demand_cover
# the name a scan looks up every graph's path set by: the benchmark's
# correctness gate, its tracer and its smoke tests wrap it in this module
from .longest import enumerate_longest_paths
from .systems import certified_system

GENERATOR_MAX_N = 9


# ---------------------------------------------------------------------------
# exhaustive generation of small graphs


# Every vertex gets an isomorphism-invariant key: its degree, twice its
# triangle count and the sum of its neighbours' degrees, packed into one int,
# degree highest.  Each field is as wide as its largest value on
# GENERATOR_MAX_N vertices needs: with d = GENERATOR_MAX_N - 1, a degree is at
# most d, twice the triangles at most d(d - 1) and the neighbour degrees at
# most d^2 (at n = 9 the neighbour degrees take bits 0-6, the triangles 7-12
# and the degree 13-16: 17 bits).  A candidate carries each vertex's key
# tagged with its label, key << _TAG_BITS | v, so one sort puts the vertices
# in key order, ties by label; its bucket key is the sorted keys packed into
# one int, _KEY_BITS each.
_MAX_DEG = GENERATOR_MAX_N - 1
_TRI_SHIFT = (_MAX_DEG * _MAX_DEG).bit_length()
_DEG_SHIFT = _TRI_SHIFT + (_MAX_DEG * (_MAX_DEG - 1)).bit_length()
_KEY_BITS = _DEG_SHIFT + _MAX_DEG.bit_length()
_TAG_BITS = _MAX_DEG.bit_length()
_TAG_MASK = (1 << _TAG_BITS) - 1

# the vertices of every neighbour mask on at most GENERATOR_MAX_N vertices
_MEMBERS = tuple(
    tuple(w for w in range(GENERATOR_MAX_N) if m >> w & 1)
    for m in range(1 << GENERATOR_MAX_N)
)


def _pack(deg: int, tri2: int, nbr_deg_sum: int) -> int:
    return (deg << _DEG_SHIFT) | (tri2 << _TRI_SHIFT) | nbr_deg_sum


def _check_widths() -> None:
    """Raise unless every field of the packed keys, and the vertex tag, holds
    its largest value on GENERATOR_MAX_N vertices: an overflowing field would
    merge keys, and bucket keys, that must differ."""
    for top, lo, hi in (
        (_MAX_DEG * _MAX_DEG, 0, _TRI_SHIFT),
        (_MAX_DEG * (_MAX_DEG - 1), _TRI_SHIFT, _DEG_SHIFT),
        (_MAX_DEG, _DEG_SHIFT, _KEY_BITS),
        (_MAX_DEG, 0, _TAG_BITS),
    ):
        if top >> (hi - lo):
            raise RuntimeError(
                f"packed generator field of bits {lo}..{hi - 1} cannot hold "
                f"{top} at GENERATOR_MAX_N = {GENERATOR_MAX_N}"
            )


_check_widths()


def _vertex_keys(masks: Sequence[int]) -> list[int]:
    """The packed key of every vertex, computed directly from the masks."""
    degs = [m.bit_count() for m in masks]
    keys = []
    for deg, mv in zip(degs, masks):
        tri2 = nbr_deg_sum = 0
        for w in _MEMBERS[mv]:
            tri2 += (mv & masks[w]).bit_count()
            nbr_deg_sum += degs[w]
        keys.append(_pack(deg, tri2, nbr_deg_sum))
    return keys


def _extensions(base: Sequence[int]) -> Iterator[tuple[list[int], list[int]]]:
    """(masks, tagged vertex keys) of base plus a new vertex joined to each
    subset; entry v of the keys is v's key << _TAG_BITS | v.

    Subsets come in ascending order.  A subset that holds w but not its twin
    u < w (N(u) - w == N(w) - u) is skipped: swapping u and w is an
    automorphism of base that maps it to a smaller subset, tried before it.
    The keys are updated from per-base arrays with one popcount per vertex.
    """
    m = len(base)
    newbit = 1 << m
    bdeg = [b.bit_count() for b in base]
    keys = [k << _TAG_BITS | u for u, k in enumerate(_vertex_keys(base))]
    # a vertex joined to the new one gains a degree, c triangles and c + |S|
    # in neighbour degrees, c = |N(u) & S|; any other vertex gains c in the
    # last field only
    key_in = [k + (1 << _DEG_SHIFT + _TAG_BITS) for k in keys]
    twins = []
    for u in range(m):
        for w in range(u + 1, m):
            if base[u] & ~(1 << w) == base[w] & ~(1 << u):
                twins.append(((1 << u) | (1 << w), 1 << w))
    one = 1 << _TAG_BITS
    tri_step = ((2 << _TRI_SHIFT) + 1) << _TAG_BITS
    for subset in range(1 << m):
        if any(subset & pair == high for pair, high in twins):
            continue
        size = subset.bit_count()
        size_step = size << _TAG_BITS
        masks = []
        vkeys = []
        tri2 = nbr_deg_sum = 0
        for u in range(m):
            b = base[u]
            c = (b & subset).bit_count()
            if subset >> u & 1:
                masks.append(b | newbit)
                vkeys.append(key_in[u] + c * tri_step + size_step)
                tri2 += c
                nbr_deg_sum += bdeg[u] + 1
            else:
                masks.append(b)
                vkeys.append(keys[u] + c * one)
        masks.append(subset)
        vkeys.append(_pack(size, tri2, nbr_deg_sum) << _TAG_BITS | m)
        yield masks, vkeys


def _relabel(masks: Sequence[int], order: Sequence[int]) -> int:
    """masks with vertex order[i] renamed i, as one int: row i, the new
    neighbour mask of order[i], at bits i * n onward."""
    n = len(order)
    bit = [0] * n  # bit[v]: the new label of v, as a mask
    for i, v in enumerate(order):
        bit[v] = 1 << i
    form = 0
    for v in reversed(order):
        r = 0
        for w in _MEMBERS[masks[v]]:
            r |= bit[w]
        form = form << n | r
    return form


def _search_plan(
    masks: Sequence[int], tagged: Sequence[int]
) -> list[tuple[int, int, int, list[int]]]:
    """Steps (vertex, lo, hi, earlier) that map each vertex of masks onto a
    graph in key order (see _relabel) with the same sorted keys; tagged is
    masks' tagged vertex keys (see _extensions), sorted.

    A vertex may go only to positions lo..hi-1, those of its own key.  Rarest
    keys go first, ties by position; earlier lists the neighbours mapped
    before the vertex.
    """
    runs = []  # (size, start) of each run of equal keys
    lo = 0
    for _, run in itertools.groupby(tagged, lambda t: t >> _TAG_BITS):
        size = len(list(run))
        runs.append((size, lo))
        lo += size
    runs.sort()
    plan = []
    before = 0
    for size, lo in runs:
        hi = lo + size
        for i in range(lo, hi):
            a = tagged[i] & _TAG_MASK
            plan.append((a, lo, hi, list(_MEMBERS[masks[a] & before])))
            before |= 1 << a
    return plan


def _maps_onto(plan: Sequence[tuple[int, int, int, list[int]]], form: int) -> bool:
    """Does plan's graph map isomorphically onto form (see _relabel)?

    Image b is accepted for a step iff b is unused and its neighbours among
    the used images are exactly the images of the step's earlier neighbours.
    """
    n = len(plan)
    full = (1 << n) - 1
    target = [form >> shift & full for shift in range(0, n * n, n)]
    image = [0] * n  # image bit of each mapped vertex
    choice = [0] * n  # next position to try at each step
    used = 0
    s = 0
    choice[0] = plan[0][1]
    while True:
        a, _, hi, earlier = plan[s]
        want = 0
        for v in earlier:
            want |= image[v]
        b = choice[s]
        while b < hi:
            if not used >> b & 1 and target[b] & used == want:
                break
            b += 1
        if b < hi:
            choice[s] = b + 1
            image[a] = 1 << b
            used |= 1 << b
            s += 1
            if s == n:
                return True
            choice[s] = plan[s][1]
        else:
            s -= 1
            if s < 0:
                return False
            used ^= image[plan[s][0]]


_GRAPH_CACHE: dict[int, list[tuple[int, ...]]] = {}


def _all_graph_masks(n: int) -> list[tuple[int, ...]]:
    """Neighbor-mask tuples of every non-isomorphic simple graph on n vertices.

    Each class is represented by its first candidate: bases in the order of
    _all_graph_masks(n - 1), then subsets of the new vertex's neighbours in
    ascending order.  A candidate's form is its relabelling in key order
    (_relabel); equal forms are isomorphic graphs.  known holds the forms of
    the representatives and of every candidate a search proved a duplicate,
    so a candidate whose form is known is dropped after one set lookup.  Any
    other is searched against the representatives of its bucket, whose forms
    are kept there, and whose key classes are position ranges in each.
    """
    if n in _GRAPH_CACHE:
        return _GRAPH_CACHE[n]
    if n == 1:
        reps = [(0,)]
    else:
        buckets: dict[int, tuple[int, ...]] = {}
        known: set[int] = set()
        reps = []
        for base in _all_graph_masks(n - 1):
            for masks, tagged in _extensions(base):
                tagged.sort()
                form = _relabel(masks, [t & _TAG_MASK for t in tagged])
                if form in known:
                    continue
                known.add(form)
                bucket_key = 0
                for t in tagged:
                    bucket_key = bucket_key << _KEY_BITS | t >> _TAG_BITS
                bucket = buckets.get(bucket_key, ())
                if bucket:
                    plan = _search_plan(masks, tagged)
                    if any(_maps_onto(plan, rep) for rep in bucket):
                        continue
                buckets[bucket_key] = bucket + (form,)
                reps.append(tuple(masks))
    _GRAPH_CACHE[n] = reps
    return reps


def _graph_from_masks(masks: Sequence[int]) -> Graph:
    # no from_edges checks: generated masks are symmetric and loop-free
    return Graph(len(masks), tuple(masks), sum(m.bit_count() for m in masks) // 2)


def generate_connected_graphs(n: int) -> list[Graph]:
    """Every connected graph on n unlabeled vertices exactly once, in graph6
    order.  Connectivity is read from the neighbour masks, so only the
    connected graphs are built and encoded."""
    if not 1 <= n <= GENERATOR_MAX_N:
        raise UsageError(f"generator supports 1 <= n <= {GENERATOR_MAX_N}, got {n}")
    graphs = [_graph_from_masks(m) for m in _all_graph_masks(n) if masks_connected(m)]
    graphs.sort(key=encode_graph6)
    return graphs


# ---------------------------------------------------------------------------
# k-subset iteration with deterministic sampling


def iter_ksubsets(
    n_items: int, k: int, cap: Optional[int], seed: int, salt: str
) -> Iterator[tuple[int, ...]]:
    """Deterministic iterator over k-subsets of range(n_items), capped.

    Beyond the cap, a seeded sample of exactly cap distinct subsets is drawn
    and yielded in sorted order.
    """
    if cap is None or math.comb(n_items, k) <= cap:
        return itertools.combinations(range(n_items), k)
    rng = random.Random(seed ^ zlib.crc32(salt.encode()))
    population = range(n_items)
    seen: set[tuple[int, ...]] = set()
    # total > cap, so this ends; the expected number of draws is largest at
    # total = cap + 1, where it is (cap + 1)(H(cap + 1) - 1) (coupon collector)
    while len(seen) < cap:
        seen.add(tuple(sorted(rng.sample(population, k))))
    return iter(sorted(seen))


# ---------------------------------------------------------------------------
# conjecture checking


@dataclass(frozen=True)
class ConjectureVerdict:
    status: str  # "no-violation" | "violation" | "incomplete"
    # demand-1 search nodes; 0 when a common vertex settles the verdict
    subsets_checked: int
    used_shortcut: bool
    witness: Optional[dict] = None
    pair: Optional[tuple[int, ...]] = None  # two listed paths with no common vertex
    # the greatest f over the k-subsets of the listed paths, a k-subset
    # that reaches it (None at f = 0), and whether it is that greatest
    # value, not a lower bound
    max_f: int = 0
    max_f_subset: Optional[tuple[int, ...]] = None
    max_f_exact: bool = False


# search nodes each exact cover search of the conjecture check may spend
# before it answers "incomplete"; scans report it as "conjecture_subset_cap"
CONJECTURE_SUBSET_CAP = 100_000


def check_conjecture(g: Graph, k: int, lps: LongestPathSet | None = None) -> ConjectureVerdict:
    """Do every k of the longest paths of g share a vertex, and what is the
    greatest f over their k-subsets?

    When all longest paths share a vertex, every k-subset trivially does, so
    the whole subset space is covered without searching it or reading the
    count: subsets_checked and max f are 0.  Otherwise each listed path gets
    one row, its BFS distances, and demand_cover climbs a ladder of demands
    on those rows.  Demand 1 either proves that every k of them meet or
    finds at most k paths with no common vertex; the witness is that cover
    padded with the least unused indices up to k, its f and minimizers read
    from the least column sum of its rows.  subsets_checked counts the
    demand-1 search nodes, and CONJECTURE_SUBSET_CAP bounds them: a search
    cut by the cap, or a truncated path list without a violation, gives
    "incomplete".  A truncated list of spanning paths (ell = n - 1) is the
    exception: every longest path then holds every vertex, the ones past the
    cap too.  When lps is not given it is
    longest.enumerate_longest_paths(g).  The members are read only where no
    vertex is common to all of them, so a set of spanning paths is never
    built.

    From a witness the demand climbs from its f + 1: a cover of demand D is
    a k-subset with f >= D, whose f is the next rung, and the first D with
    no cover is one past max f.  Each rung may spend CONJECTURE_SUBSET_CAP
    search nodes; a rung cut there, or a truncated path list (paths with no
    common vertex are not spanning, so the list may miss some), leaves max
    f a lower bound.  Without a witness max f is 0, exact iff the status is
    "no-violation".

    pair answers k = 2 on the listed paths, with no f: None after the
    shortcut, the search's own subset at k = 2, and else one uncapped
    search at k = 2 unless the k search has ruled out every pair.
    """
    if k < 2:
        raise UsageError(f"k must be >= 2, got {k}")
    if not is_connected(g):
        raise UsageError("conjecture check requires a connected graph")
    if lps is None:
        lps = longest.enumerate_longest_paths(g)
    if lps.common_mask():
        exact = lps.length == g.n - 1 or not lps.truncated
        status = "no-violation" if exact else "incomplete"
        return ConjectureVerdict(status, 0, used_shortcut=True, max_f_exact=exact)
    rows = [bfs_distances(g, p.vertices) for p in lps.paths]
    subset, nodes, capped = demand_cover(rows, 1, k, CONJECTURE_SUBSET_CAP)
    pair = subset if k == 2 else None
    # a k search that ran to the end without a cover rules out every pair
    if capped or k > len(rows) or (subset is not None and k > 2):
        pair, _, _ = demand_cover(rows, 1, 2)
    if subset is None:
        status = "incomplete" if capped or lps.truncated else "no-violation"
        return ConjectureVerdict(
            status, nodes, used_shortcut=False, pair=pair,
            max_f_exact=status == "no-violation",
        )

    def column_sums(cover: tuple[int, ...]) -> list[int]:
        return [sum(col) for col in zip(*(rows[i] for i in cover))]

    sums = column_sums(subset)
    f = min(sums)
    witness = {
        "graph6": encode_graph6(g) if g.n <= GRAPH6_SMALL_MAX else None,
        "member_indices": list(subset),
        "members": [list(lps.paths[i].vertices) for i in subset],
        "f": f,
        "minimizers": [v for v, s in enumerate(sums) if s == f],
    }
    max_f, max_f_subset = f, subset
    while True:
        cover, _, capped = demand_cover(rows, max_f + 1, k, CONJECTURE_SUBSET_CAP)
        if cover is None:
            break
        max_f, max_f_subset = min(column_sums(cover)), cover
    return ConjectureVerdict(
        "violation", nodes, used_shortcut=False, witness=witness, pair=pair,
        max_f=max_f, max_f_subset=max_f_subset,
        max_f_exact=not (capped or lps.truncated),
    )


# ---------------------------------------------------------------------------
# corpus scanning


@dataclass(frozen=True)
class ScanConfig:
    k: int = 3
    path_cap: int = DEFAULT_PATH_CAP
    lemma_subset_cap: int = 10
    seed: int = 0
    checks: tuple[str, ...] = DEFAULT_CHECKS
    jobs: int = 1
    strict: bool = False

    def __post_init__(self) -> None:
        if self.k < 2:
            raise UsageError(f"k must be >= 2, got {self.k}")
        for name, val in (
            ("path_cap", self.path_cap),
            ("lemma_subset_cap", self.lemma_subset_cap),
            ("jobs", self.jobs),
        ):
            if val < 1:
                raise UsageError(f"{name} must be >= 1, got {val}")
        check_names(self.checks)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "path_cap": self.path_cap,
            "conjecture_subset_cap": CONJECTURE_SUBSET_CAP,
            "lemma_subset_cap": self.lemma_subset_cap,
            "seed": self.seed,
            "checks": list(self.checks),
        }


@dataclass
class SearchReport:
    config: ScanConfig
    graphs_scanned: int = 0
    graphs_skipped_disconnected: int = 0
    tallies: dict = field(default_factory=dict)  # check_id -> {pass, fail, vacuous}
    conjecture_status: str = "no-violation"
    conjecture_witness: Optional[dict] = None
    incomplete_graphs: int = 0
    max_f: int = 0
    max_ratio: Fraction = Fraction(0)
    extremal_witness: Optional[dict] = None
    max_f_incomplete: int = 0  # graphs whose max f is only a lower bound
    failures: list = field(default_factory=list)
    halted: bool = False
    # reported on stderr only, never in JSON
    lemma_systems: int = 0  # path systems run through the lemma checks
    lemma_implied: int = 0  # sampled subsets tallied from a common vertex
    wall_time: Optional[float] = None

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "config": self.config.to_json(),
            "graphs_scanned": self.graphs_scanned,
            "graphs_skipped_disconnected": self.graphs_skipped_disconnected,
            "tallies": {k: dict(v) for k, v in sorted(self.tallies.items())},
            "conjecture": {
                "status": self.conjecture_status,
                "witness": self.conjecture_witness,
                "incomplete_graphs": self.incomplete_graphs,
            },
            "extremal": {
                "max_f": self.max_f,
                "max_ratio": frac_str(self.max_ratio),
                "witness": self.extremal_witness,
                "incomplete_graphs": self.max_f_incomplete,
            },
            "failures": self.failures,
            "halted": self.halted,
        }

    @property
    def has_findings(self) -> bool:
        return (
            self.conjecture_status == "violation"
            or bool(self.failures)
            or any(v.get("fail", 0) for v in self.tallies.values())
        )


def _tally(tallies: dict, check_id: str, status: str, count: int = 1) -> None:
    # the slot is built only on a miss: the merge calls this for every
    # status of every record
    slot = tallies.get(check_id)
    if slot is None:
        slot = tallies[check_id] = {"pass": 0, "fail": 0, "vacuous": 0}
    slot[status] += count


def scan_one_graph(g6: str, config: ScanConfig, g: Graph) -> dict:
    """Analyze graph g, whose canonical graph6 string is g6.

    The record merges associatively across graphs.
    """
    record: dict = {
        "graph6": g6,
        "n": g.n,
        "connected": is_connected(g),
        "tallies": {},
        "failures": [],
        "max_f": 0,
        "max_f_incomplete": 0,
        "lemma_systems": 0,
        "lemma_implied": 0,
    }
    if not record["connected"]:
        return record
    k = config.k
    # no lemma check runs below k = 3
    lemma_checks = [c for c in config.checks if c != "theorem"] if k >= 3 else []
    # no check reads the members of a spanning path set: they share every
    # vertex, which settles the conjecture, the pairwise check, max f and
    # the lemma sample.  Its count is read only as whether k paths exist and,
    # by the lemma tally, as min(C(count, k), lemma_subset_cap); both are
    # settled by the count up to c, the least c >= k with C(c, k) >= that cap
    # (c = k without a lemma check), so the count stops at c
    c = k
    if lemma_checks:
        while math.comb(c, k) < config.lemma_subset_cap:
            c += 1
    lps = enumerate_longest_paths(g, cap=config.path_cap, count_cap=c)
    tallies = record["tallies"]
    verdict = check_conjecture(g, k, lps=lps)
    # the merge reads only these two
    record["conjecture"] = {"status": verdict.status, "witness": verdict.witness}

    if verdict.pair:
        record["failures"].append(
            {
                "check": "pairwise",
                "graph6": record["graph6"],
                "pair": list(verdict.pair),
                "members": [list(lps.paths[i].vertices) for i in verdict.pair],
            }
        )
    _tally(tallies, "pairwise", "fail" if verdict.pair else "pass")

    if lps.count_upto(k) >= k:
        f = record["max_f"] = verdict.max_f
        record["max_f_incomplete"] = int(not verdict.max_f_exact)
        if verdict.max_f_subset:
            record["max_f_subset"] = list(verdict.max_f_subset)
        # one theorem verdict per graph, from its greatest f; a lower bound
        # decides only a failure, which its subset witnesses
        if "theorem" in config.checks and k >= 3:
            thm_id = theorem_check_id(k)
            # bound >= 0 here: k >= 3 longest paths need n >= 2, and both
            # bound formulas are nonnegative from n = 2 on
            bound = theorem_bound(k, g.n)
            if f > bound:
                _tally(tallies, thm_id, "fail")
                record["failures"].append(
                    {
                        "check": thm_id,
                        "graph6": record["graph6"],
                        "member_indices": list(verdict.max_f_subset),
                        "f": f,
                        "bound": frac_str(bound),
                    }
                )
                record["halt"] = True
                return record
            _tally(tallies, thm_id, "pass", int(verdict.max_f_exact))

        # the lemma checks on a small deterministic sample of subsets; a
        # subset whose members share a vertex gets the verdicts that
        # common_vertex_verdicts proves, with no path system, and when the
        # verdict took the shortcut or found no violation, every k listed
        # paths share a vertex and the sample is not even drawn
        if lemma_checks:
            if verdict.used_shortcut or verdict.status == "no-violation":
                implied = min(math.comb(lps.count_upto(c), k), config.lemma_subset_cap)
            else:
                # no vertex is common to the paths, so none is spanning and
                # the walk that found ell holds them all
                implied = 0
                for subset in iter_ksubsets(
                    len(lps), k, config.lemma_subset_cap, config.seed,
                    f"lemma:{record['graph6']}:{k}",
                ):
                    members = [lps.paths[idx] for idx in subset]
                    if common_mask(members):
                        implied += 1
                        continue
                    ps = certified_system(g, members, lps.length)
                    record["lemma_systems"] += 1
                    for rep in run_checks(ps, lemma_checks):
                        _tally(tallies, rep.check_id, rep.status)
                        if rep.status == "fail":
                            record["failures"].append(rep.to_json())
            record["lemma_implied"] = implied
            for check_id, status in common_vertex_verdicts(k, lemma_checks):
                _tally(tallies, check_id, status, implied)
    return record


def _scan_task(task: tuple[str, ScanConfig, Graph]) -> dict:
    """scan_one_graph(*task): map and pool.imap pass one argument."""
    return scan_one_graph(*task)


def _merge_records(report: SearchReport, records: Iterable[dict]) -> None:
    """Fold records into report in the order they come, up to and including
    the first halting one; no later record is read."""
    for rec in records:
        if not rec["connected"]:
            report.graphs_skipped_disconnected += 1
            continue
        report.graphs_scanned += 1
        report.lemma_systems += rec["lemma_systems"]
        report.lemma_implied += rec["lemma_implied"]
        report.max_f_incomplete += rec["max_f_incomplete"]
        for check_id, slot in rec["tallies"].items():
            for status, count in slot.items():
                _tally(report.tallies, check_id, status, count)
        report.failures.extend(rec["failures"])
        conj = rec.get("conjecture")
        if conj:
            if conj["status"] == "violation" and report.conjecture_status != "violation":
                report.conjecture_status = "violation"
                report.conjecture_witness = conj["witness"]
            elif conj["status"] == "incomplete":
                report.incomplete_graphs += 1
                if report.conjecture_status == "no-violation":
                    report.conjecture_status = "incomplete"
        f = rec["max_f"]
        # f = 0 raises neither the max f nor the max ratio
        ratio = Fraction(f, rec["n"]) if f else 0
        if f > report.max_f or ratio > report.max_ratio:
            report.max_f = max(report.max_f, f)
            if ratio > report.max_ratio:
                report.max_ratio = ratio
            report.extremal_witness = {
                "graph6": rec["graph6"],
                "f": f,
                "member_indices": rec.get("max_f_subset"),
            }
        if rec.get("halt"):
            report.halted = True
            break


def _normalised(
    source: Iterable[Graph | str], config: ScanConfig
) -> Iterator[tuple[Graph, str]]:
    """(graph, canonical graph6) for each graph or nonblank line of source."""
    for lineno, item in enumerate(source, start=1):
        if isinstance(item, Graph):
            yield item, encode_graph6(item)
            continue
        line = item.strip()
        if not line:
            continue
        try:
            g = parse_graph6(line)
            # a plain graph6 line with a one-byte order that parses is
            # canonical already: the order, the data length and the padding
            # are all checked; headers, sparse6 and "~" orders are re-encoded
            g6 = line if line[0] not in ">:~" else encode_graph6(g)
        except FormatError as exc:
            if config.strict:
                raise FormatError(f"line {lineno}: {exc}") from exc
            import sys

            print(f"lplab: skipping malformed line {lineno}: {exc}", file=sys.stderr)
            continue
        yield g, g6


def scan_stream(source: Iterable[Graph | str], config: ScanConfig) -> SearchReport:
    """Scan a stream of graphs (Graph objects or graph6/sparse6 lines).

    Every line is parsed and encoded once, here, and the graphs are sorted
    once by (len(g6), g6), the canonical order the report is merged in.
    Each record is merged as it arrives, from map at jobs 1 (or for a
    single graph) and from a pool's ordered imap otherwise, so the report
    does not depend on the worker count, and a halting record ends the
    scan: no graph after it is merged, and at jobs 1 none is scanned.
    """
    import time

    start = time.monotonic()
    tasks = sorted(
        ((g6, config, g) for g, g6 in _normalised(source, config)),
        key=lambda task: (len(task[0]), task[0]),
    )
    report = SearchReport(config=config)
    # a pool costs about 25 ms to start, more than one small graph's scan
    if config.jobs > 1 and len(tasks) > 1:
        import multiprocessing as mp

        # leaving the with-block terminates the workers, also after a halt
        with mp.Pool(config.jobs) as pool:
            chunksize = max(1, len(tasks) // (config.jobs * 8))
            _merge_records(report, pool.imap(_scan_task, tasks, chunksize))
    else:
        _merge_records(report, map(_scan_task, tasks))
    report.wall_time = time.monotonic() - start
    return report
