"""Small-graph corpus generation, conjecture checking, and corpus scanning.

The generator builds every non-isomorphic graph on n vertices by one-vertex
extension with invariant-bucketed isomorphism deduplication; counts are
calibrated against the known sequence in the tests.  The scanner distributes
independent graphs to workers and merges records in canonical graph6 order so
its JSON output is schedule-independent.
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
    CheckReport,
    frac_str,
    run_checks,
    theorem_bound,
)
from .errors import FormatError, UsageError
from .graphs import Graph, bfs_distances, encode_graph6, is_connected, parse_graph6
from .longest import (
    DEFAULT_PATH_CAP,
    LongestPathSet,
    enumerate_longest_paths,
    first_empty_intersection,
    pairwise_intersection_holds,
)
from .systems import certified_system

GENERATOR_MAX_N = 9


# ---------------------------------------------------------------------------
# exhaustive generation of small graphs


def _popcounts(masks: Sequence[int]) -> list[int]:
    return [m.bit_count() for m in masks]


def _invariant(masks: Sequence[int]) -> tuple:
    degs = _popcounts(masks)
    per_vertex = []
    for v, mv in enumerate(masks):
        nbr_degs = []
        tri = 0
        m = mv
        while m:
            low = m & -m
            w = low.bit_length() - 1
            nbr_degs.append(degs[w])
            tri += (mv & masks[w]).bit_count()
            m ^= low
        per_vertex.append((degs[v], tri // 2, tuple(sorted(nbr_degs))))
    return tuple(sorted(per_vertex))


def _isomorphic(masks1: Sequence[int], masks2: Sequence[int]) -> bool:
    """Backtracking isomorphism test for graphs already known to share an invariant."""
    n = len(masks1)
    degs1, degs2 = _popcounts(masks1), _popcounts(masks2)
    classes1 = {}
    for v in range(n):
        classes1.setdefault(degs1[v], []).append(v)
    # map rarest degree classes first
    order = sorted(range(n), key=lambda v: (len(classes1[degs1[v]]), v))
    mapped_to = [-1] * n  # g1 vertex -> g2 vertex
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        a = order[pos]
        for b in range(n):
            if used[b] or degs2[b] != degs1[a]:
                continue
            ok = True
            for prev in order[:pos]:
                if (masks1[a] >> prev & 1) != (masks2[b] >> mapped_to[prev] & 1):
                    ok = False
                    break
            if ok:
                mapped_to[a] = b
                used[b] = True
                if extend(pos + 1):
                    return True
                used[b] = False
        return False

    return extend(0)


_GRAPH_CACHE: dict[int, list[tuple[int, ...]]] = {}


def _all_graph_masks(n: int) -> list[tuple[int, ...]]:
    """Neighbor-mask tuples of every non-isomorphic simple graph on n vertices."""
    if n in _GRAPH_CACHE:
        return _GRAPH_CACHE[n]
    if n == 1:
        reps = [(0,)]
    else:
        buckets: dict[tuple, list[tuple[int, ...]]] = {}
        reps = []
        newbit = 1 << (n - 1)
        for base in _all_graph_masks(n - 1):
            for subset in range(1 << (n - 1)):
                masks = [
                    base[v] | newbit if subset >> v & 1 else base[v]
                    for v in range(n - 1)
                ]
                masks.append(subset)
                key = _invariant(masks)
                bucket = buckets.setdefault(key, [])
                if not any(_isomorphic(masks, rep) for rep in bucket):
                    tm = tuple(masks)
                    bucket.append(tm)
                    reps.append(tm)
    _GRAPH_CACHE[n] = reps
    return reps


def _graph_from_masks(masks: Sequence[int]) -> Graph:
    n = len(masks)
    edges = []
    for u in range(n):
        m = masks[u] >> (u + 1)
        while m:
            low = m & -m
            edges.append((u, u + 1 + low.bit_length() - 1))
            m ^= low
    return Graph.from_edges(n, edges)


def generate_graphs(n: int) -> list[Graph]:
    """Every non-isomorphic simple graph on n vertices, in graph6 order."""
    if not 1 <= n <= GENERATOR_MAX_N:
        raise UsageError(f"generator supports 1 <= n <= {GENERATOR_MAX_N}, got {n}")
    graphs = [_graph_from_masks(m) for m in _all_graph_masks(n)]
    graphs.sort(key=encode_graph6)
    return graphs


def generate_connected_graphs(n: int) -> list[Graph]:
    """Every connected graph on n unlabeled vertices exactly once."""
    return [g for g in generate_graphs(n) if is_connected(g)]


# ---------------------------------------------------------------------------
# k-subset iteration with deterministic sampling


def iter_ksubsets(
    n_items: int, k: int, cap: Optional[int], seed: int, salt: str
) -> tuple[Iterator[tuple[int, ...]], int, bool]:
    """Deterministic iterator over k-subsets of range(n_items), capped.

    Beyond the cap, a seeded sample of cap distinct subsets is drawn and
    yielded in sorted order.  Returns (iterator, yield count, truncated flag).
    """
    total = math.comb(n_items, k)
    if cap is None or total <= cap:
        return itertools.combinations(range(n_items), k), total, False
    rng = random.Random(seed ^ zlib.crc32(salt.encode()))
    population = range(n_items)
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    limit = cap * 20
    while len(seen) < cap and attempts < limit:
        seen.add(tuple(sorted(rng.sample(population, k))))
        attempts += 1
    sample = sorted(seen)
    return iter(sample), len(sample), True


# ---------------------------------------------------------------------------
# conjecture checking


@dataclass(frozen=True)
class ConjectureVerdict:
    status: str  # "no-violation" | "violation" | "incomplete"
    k: int
    subsets_checked: int  # search nodes, or total_subsets via the shortcut
    total_subsets: int
    used_shortcut: bool
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "k": self.k,
            "subsets_checked": self.subsets_checked,
            "total_subsets": self.total_subsets,
            "used_shortcut": self.used_shortcut,
            "witness": self.witness,
        }


def check_conjecture(
    g: Graph,
    k: int,
    path_cap: Optional[int] = DEFAULT_PATH_CAP,
    subset_cap: Optional[int] = 100_000,
    lps: Optional[LongestPathSet] = None,
) -> ConjectureVerdict:
    """Do every k of the longest paths of g share a vertex?

    When all longest paths share a vertex, every k-subset trivially does, so
    the whole subset space is covered without searching it.  Otherwise an
    exact search finds the lexicographically least k-subset with no common
    vertex, or proves there is none.  subsets_checked then counts its search
    nodes, and subset_cap bounds them: a search cut by the cap, or a
    truncated path list without a violation, gives "incomplete".
    """
    if k < 2:
        raise UsageError(f"k must be >= 2, got {k}")
    if not is_connected(g):
        raise UsageError("conjecture check requires a connected graph")
    if lps is None:
        lps = enumerate_longest_paths(g, cap=path_cap)
    total = math.comb(len(lps.paths), k)
    if lps.common_mask():
        status = "incomplete" if lps.truncated else "no-violation"
        return ConjectureVerdict(status, k, total, total, used_shortcut=True)
    subset, nodes, capped = first_empty_intersection(
        [p.mask for p in lps.paths], k, subset_cap
    )
    if subset is None:
        status = "incomplete" if capped or lps.truncated else "no-violation"
        return ConjectureVerdict(status, k, nodes, total, used_shortcut=False)
    members = [lps.paths[idx] for idx in subset]
    ps = certified_system(g, members, lps.length)
    f, minimizers = ps.path_distance
    return ConjectureVerdict(
        "violation",
        k,
        nodes,
        total,
        used_shortcut=False,
        witness={
            "graph6": ps.graph6,
            "member_indices": list(subset),
            "members": [list(p.vertices) for p in members],
            "f": f,
            "minimizers": sorted(minimizers),
        },
    )


# ---------------------------------------------------------------------------
# corpus scanning


@dataclass(frozen=True)
class ScanConfig:
    k: int = 3
    path_cap: int = DEFAULT_PATH_CAP
    subset_cap: int = 10_000
    conjecture_subset_cap: int = 100_000
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
            ("subset_cap", self.subset_cap),
            ("conjecture_subset_cap", self.conjecture_subset_cap),
            ("lemma_subset_cap", self.lemma_subset_cap),
        ):
            if val < 1:
                raise UsageError(f"{name} must be >= 1, got {val}")
        unknown = set(self.checks) - set(DEFAULT_CHECKS)
        if unknown:
            raise UsageError(f"unknown checks: {sorted(unknown)}")

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "path_cap": self.path_cap,
            "subset_cap": self.subset_cap,
            "conjecture_subset_cap": self.conjecture_subset_cap,
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
    failures: list = field(default_factory=list)
    halted: bool = False
    wall_time: Optional[float] = None  # reported on stderr only, never in JSON

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


def _tally(tallies: dict, report: CheckReport) -> None:
    slot = tallies.setdefault(report.check_id, {"pass": 0, "fail": 0, "vacuous": 0})
    slot[report.status] += 1


def scan_one_graph(g6: str, config: ScanConfig, g: Optional[Graph] = None) -> dict:
    """Analyze a single graph; the record merges associatively across graphs.

    A caller that has already parsed g6 passes the graph as g; g6 must then
    be its canonical graph6 string, as encode_graph6 writes it.
    """
    if g is None:
        g = parse_graph6(g6)
        g6 = encode_graph6(g)
    record: dict = {
        "graph6": g6,
        "n": g.n,
        "connected": is_connected(g),
        "tallies": {},
        "failures": [],
        "max_f": 0,
    }
    if not record["connected"]:
        return record
    lps = enumerate_longest_paths(g, cap=config.path_cap)
    record["ell"] = lps.length
    record["n_longest"] = len(lps.paths)
    record["paths_truncated"] = lps.truncated
    k = config.k
    tallies = record["tallies"]

    # pairwise intersection; a global common vertex covers every pair exactly
    common = lps.common_mask()
    holds, pair = (True, None) if common else pairwise_intersection_holds(lps.paths)
    if not holds:
        i, j = pair
        record["failures"].append(
            {
                "check": "pairwise",
                "graph6": record["graph6"],
                "pair": [i, j],
                "members": [list(lps.paths[i].vertices), list(lps.paths[j].vertices)],
            }
        )
    tallies["pairwise"] = {"pass": int(holds), "fail": int(not holds), "vacuous": 0}

    verdict = check_conjecture(
        g, k, path_cap=config.path_cap, subset_cap=config.conjecture_subset_cap, lps=lps
    )
    record["conjecture"] = verdict.to_json()

    if len(lps.paths) >= k:
        # theorem-bound sweep over (sampled) k-subsets; exact shortcut: a
        # subset with a common vertex has f = 0, and the bound is >= 0
        if "theorem" in config.checks and k >= 3:
            thm_id = "thm2" if k == 4 else "thm3"
            # bound >= 0 here: k >= 3 longest paths need n >= 2, and both
            # bound formulas are nonnegative from n = 2 on
            bound = theorem_bound(k, g.n)
            slot = tallies.setdefault(thm_id, {"pass": 0, "fail": 0, "vacuous": 0})
            if common:
                # a vertex on every longest path gives f = 0 for every subset,
                # and the bound is nonnegative: all sampled subsets pass
                planned = min(math.comb(len(lps.paths), k), config.subset_cap)
                slot["pass"] += planned
                subsets = ()
            else:
                dvecs = [bfs_distances(g, p.vertices) for p in lps.paths]
                subsets, _, _ = iter_ksubsets(
                    len(lps.paths), k, config.subset_cap, config.seed,
                    f"thm:{record['graph6']}:{k}",
                )
            paths = lps.paths
            for subset in subsets:
                acc = -1
                for idx in subset:
                    acc &= paths[idx].mask
                if acc:
                    slot["pass"] += 1
                    continue
                f = min(
                    sum(col) for col in zip(*(dvecs[idx] for idx in subset))
                )
                if f > record["max_f"]:
                    record["max_f"] = f
                    record["max_f_subset"] = list(subset)
                if Fraction(f) <= bound:
                    slot["pass"] += 1
                else:
                    slot["fail"] += 1
                    record["failures"].append(
                        {
                            "check": thm_id,
                            "graph6": record["graph6"],
                            "member_indices": list(subset),
                            "f": f,
                            "bound": frac_str(bound),
                        }
                    )
                    record["halt"] = True
                    return record

        # full lemma machinery on a small deterministic sample of subsets
        lemma_checks = [c for c in config.checks if c != "theorem"]
        if lemma_checks and k >= 3:
            subsets, _, _ = iter_ksubsets(
                len(lps.paths), k, config.lemma_subset_cap, config.seed,
                f"lemma:{record['graph6']}:{k}",
            )
            for subset in subsets:
                ps = certified_system(
                    g, [lps.paths[idx] for idx in subset], lps.length
                )
                for rep in run_checks(ps, lemma_checks):
                    _tally(tallies, rep)
                    if rep.status == "fail":
                        record["failures"].append(rep.to_json())
    return record


def _merge_records(report: SearchReport, records: Iterable[dict]) -> SearchReport:
    for rec in sorted(records, key=lambda r: (len(r["graph6"]), r["graph6"])):
        if not rec["connected"]:
            report.graphs_skipped_disconnected += 1
            continue
        report.graphs_scanned += 1
        for check_id, slot in rec["tallies"].items():
            agg = report.tallies.setdefault(
                check_id, {"pass": 0, "fail": 0, "vacuous": 0}
            )
            for key in agg:
                agg[key] += slot.get(key, 0)
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
        ratio = Fraction(rec["max_f"], rec["n"])
        if rec["max_f"] > report.max_f or ratio > report.max_ratio:
            report.max_f = max(report.max_f, rec["max_f"])
            if ratio > report.max_ratio:
                report.max_ratio = ratio
            report.extremal_witness = {
                "graph6": rec["graph6"],
                "f": rec["max_f"],
                "member_indices": rec.get("max_f_subset"),
            }
        if rec.get("halt"):
            report.halted = True
            break
    return report


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
            g6 = encode_graph6(g)
        except FormatError as exc:
            if config.strict:
                raise FormatError(f"line {lineno}: {exc}") from exc
            import sys

            print(f"lplab: skipping malformed line {lineno}: {exc}", file=sys.stderr)
            continue
        yield g, g6


def scan_stream(source: Iterable[Graph | str], config: ScanConfig) -> SearchReport:
    """Scan a stream of graphs (Graph objects or graph6/sparse6 lines)."""
    import time

    start = time.monotonic()
    graphs = _normalised(source, config)
    if config.jobs > 1:
        # workers get canonical graph6 strings and parse them themselves
        g6_lines = [g6 for _, g6 in graphs]
        if len(g6_lines) > 1:
            import multiprocessing as mp

            with mp.Pool(config.jobs) as pool:
                records = pool.starmap(
                    scan_one_graph,
                    ((g6, config) for g6 in g6_lines),
                    chunksize=max(1, len(g6_lines) // (config.jobs * 8)),
                )
        else:
            records = [scan_one_graph(g6, config) for g6 in g6_lines]
    else:
        # one graph at a time, parsed once, so a long stream holds no graphs
        records = [scan_one_graph(g6, config, g) for g, g6 in graphs]
    report = _merge_records(SearchReport(config=config), records)
    report.wall_time = time.monotonic() - start
    return report
