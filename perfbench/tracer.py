"""Span tracer that wraps lplab's public functions from outside the package.

Each target is replaced in every lplab module namespace that holds it, which
is where its callers look it up (``lplab.harness.enumerate_longest_paths``,
``lplab.bounds.enumerate_good_paths``, ``lplab.systems.enumerate_good_paths``
and so on).  A span records (name, start, end, parent).  Spans stay in memory,
grouped into segments (set-up, then one segment per traced operation), and
are written out when the benchmark ends.  A target missing at the measured
commit is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import sys
import time
from array import array
from typing import Callable, Optional

# (module of definition, function name, counters taken from the result)
TARGETS: list[tuple[str, str, Optional[Callable]]] = [
    ("graphs", "parse_graph6", None),
    ("graphs", "encode_graph6", None),
    ("graphs", "bfs_distances", None),
    ("longest", "enumerate_longest_paths",
     lambda r: {"paths_found": len(r.paths), "truncated": int(r.truncated)}),
    ("longest", "longest_path_length", None),
    ("systems", "certified_system", None),
    ("systems", "path_distance_value", None),
    ("systems", "multiplicity_profile", None),
    ("systems", "enumerate_good_paths", lambda r: {"goods_built": len(r)}),
    ("systems", "t_prime", None),
    ("systems", "make_path_system", None),
    ("bounds", "check_lemma1", None),
    ("bounds", "check_lemma2", None),
    ("bounds", "check_lemma3", None),
    ("bounds", "check_corollary1", None),
    ("bounds", "check_theorem", None),
    ("bounds", "surgery_trace", None),
    ("construct", "build_gt", None),
    ("harness", "generate_connected_graphs", lambda r: {"graphs": len(r)}),
    ("harness", "check_conjecture",
     lambda r: {"shortcut": int(r.used_shortcut),
                "subsets_checked": 0 if r.used_shortcut else r.subsets_checked}),
    ("harness", "iter_ksubsets", None),
    ("harness", "scan_one_graph", None),
    ("harness", "scan_stream", None),
]


def _reports(result):
    """CheckReports returned by a bounds check (one, a list, or a (trace, report) pair)."""
    if isinstance(result, list):
        return result
    if isinstance(result, tuple):
        return [result[1]]
    return [result]


class Segment:
    """Spans and counters of one traced phase."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, int] = {}

    def add(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value


class Tracer:
    """Installs wrappers on lplab functions and records their spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.absent: list[str] = []
        self.segments: list[Segment] = []
        self._stack: list[int] = []
        self._seg: Optional[Segment] = None
        # (module, attribute, original, wrapper) for every lookup site
        self._sites: list[tuple[object, str, object, object]] = []
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "lplab" or key.startswith("lplab."))
        ]
        for mod_name, fn_name, counter in TARGETS:
            span = f"{mod_name}.{fn_name}"
            try:
                fn = getattr(importlib.import_module(f"lplab.{mod_name}"), fn_name)
            except (ImportError, AttributeError):
                self.absent.append(span)
                continue
            wrapper = self._wrap(fn, span, counter)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is fn:
                        self._sites.append((mod, attr, fn, wrapper))

    @contextlib.contextmanager
    def segment(self, label: str):
        """Record one segment: every lookup site goes through its wrapper
        for the with-block.  Wrappers cannot be pickled, so pool workers
        must run outside it."""
        self._seg = Segment(label)
        self.segments.append(self._seg)
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)
        try:
            yield self._seg
        finally:
            for mod, attr, fn, _ in self._sites:
                setattr(mod, attr, fn)
            self._seg = None

    def _wrap(self, fn: Callable, span: str, counter: Optional[Callable]) -> Callable:
        name_id = len(self.names)
        self.names.append(span)
        stack = self._stack
        clock = time.perf_counter
        is_check = span.startswith("bounds.")

        def wrapper(*args, **kwargs):
            seg = self._seg
            idx = len(seg.name)
            seg.name.append(name_id)
            seg.parent.append(stack[-1] if stack else -1)
            seg.start.append(0.0)
            seg.end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seg.start[idx] = start
                seg.end[idx] = end
            if counter is not None:
                for key, value in counter(result).items():
                    seg.add(f"{span}.{key}", value)
            if is_check:
                for rep in _reports(result):
                    seg.add(f"bounds.verdicts.{rep.status}", 1)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def summarize(self, seg: Segment) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, durations."""
        n = len(seg.name)
        child = [0.0] * n
        for i in range(n):
            p = seg.parent[i]
            if p >= 0:
                child[p] += seg.end[i] - seg.start[i]
        out: dict[str, dict] = {}
        for i in range(n):
            span = self.names[seg.name[i]]
            dur = seg.end[i] - seg.start[i]
            slot = out.setdefault(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            slot["calls"] += 1
            slot["total_s"] += dur
            slot["self_s"] += dur - child[i]
            slot["durations"].append(dur)
        return out

    def write(self, path: str) -> None:
        """Write every span as TSV: segment, name, start, end, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("segment\tname\tstart\tend\tparent\n")
            for seg in self.segments:
                names = self.names
                fh.writelines(
                    f"{seg.label}\t{names[seg.name[i]]}\t{seg.start[i]:.9f}\t"
                    f"{seg.end[i]:.9f}\t{seg.parent[i]}\n"
                    for i in range(len(seg.name))
                )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
