"""One run of one workload, in a fresh interpreter; started by run.py.

    python3 perfbench/bench.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Imports lplab from the checkout's src/, prepares the workload's inputs,
prints READY (run.py times set-up up to that line), then measures for about
SECONDS and prints one JSON line with the raw samples.  With TRACE = 1 the
time is split between untraced and traced operations, and the line also
carries the per-layer metrics.

Before set-up, after it, and between segments of each untraced operation it
times a fixed calibration loop that does not use lplab (``calibrate``), so
that timings can be given in reference-speed seconds (see README.md).
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

from tracer import Tracer, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench")

MIN_OPS = 2  # per measured phase, even when one operation outlasts the phase
CAL_GAP_S = 0.25  # calibration before and after set-up and each timed segment
CAL_EVERY_S = 1.0  # an operation that pauses is cut into segments at least this long
CAL_REF_S = 0.03  # a calibration block at the reference speed

# A calibration block does two kinds of pure-Python work in about equal time:
# it counts the simple paths of the Petersen graph from every vertex, and it
# collects the intervals of a vertex sequence that meet two vertex masks, as
# objects, summing their shares of the sequence as Fractions.
CAL_GRAPH = ((1, 4, 5), (0, 2, 6), (1, 3, 7), (2, 4, 8), (0, 3, 9),
             (0, 7, 8), (1, 8, 9), (2, 5, 9), (3, 5, 6), (4, 6, 7))
CAL_PATHS = 2740  # per pass over the ten start vertices
CAL_PASSES = 30
CAL_SEQ = (0, 5, 7, 2, 1, 6, 8, 3, 4, 9, 11, 10)
CAL_MASKS = (0b000010100101, 0b101000011010)
CAL_INTERVALS = (32, Fraction(56, 3))  # intervals found, and their summed share
CAL_INTERVAL_PASSES = 90

# Per-layer metrics of the traced run: per operation (median over traced
# operations) unless noted in README.md.
_CALLS_SELF = [
    "graphs.parse_graph6", "graphs.encode_graph6", "graphs.bfs_distances",
    "longest.enumerate_longest_paths", "longest.longest_path_length",
    "systems.path_distance_value", "systems.multiplicity_profile",
    "systems.enumerate_good_paths", "systems.t_prime", "systems.make_path_system",
    "bounds.check_lemma1", "bounds.check_lemma2", "bounds.check_lemma3",
    "bounds.check_corollary1", "bounds.check_theorem", "bounds.surgery_trace",
    "construct.build_gt", "harness.check_conjecture", "harness.iter_ksubsets",
    "harness.scan_one_graph",
]
PER_LAYER: list[tuple[str, str]] = (
    [(f"{span}.{stat}", unit) for span in _CALLS_SELF
     for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("longest.enumerate_longest_paths.paths_found", "count"),
        ("longest.enumerate_longest_paths.truncated", "count"),
        ("systems.certified_system.calls", "count"),
        ("systems.enumerate_good_paths.goods_built", "count"),
        ("bounds.verdicts.pass", "count"),
        ("bounds.verdicts.fail", "count"),
        ("bounds.verdicts.vacuous", "count"),
        ("harness.generate_connected_graphs.self_s", "s"),
        ("harness.generate_connected_graphs.graphs", "count"),
        ("harness.check_conjecture.subsets_checked", "count"),
        ("harness.check_conjecture.shortcut_share", "ratio"),
        ("harness.scan_one_graph.p50_ms", "ms"),
        ("harness.scan_one_graph.p99_ms", "ms"),
        ("harness.scan_stream.self_s", "s"),
        ("harness.parallel_efficiency", "ratio"),
        ("bench.tracing_overhead_s", "s"),
    ]
)


def import_lplab() -> None:
    """Put the checkout's src/ first on sys.path and import lplab from it."""
    if not os.path.isfile(os.path.join(SRC, "lplab", "__init__.py")):
        raise SystemExit(f"perfbench: no lplab package under {SRC}")
    sys.path.insert(0, SRC)
    import lplab

    if not os.path.abspath(lplab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported lplab from {lplab.__file__}, not {SRC}")


def _count_paths(v: int, on_path: list[bool]) -> int:
    count = 1
    for w in CAL_GRAPH[v]:
        if not on_path[w]:
            on_path[w] = True
            count += _count_paths(w, on_path)
            on_path[w] = False
    return count


@dataclass(frozen=True)
class _Interval:
    start: int
    end: int
    mask: int


def _meeting_intervals() -> tuple[int, Fraction]:
    prefix = [0]
    for v in CAL_SEQ:
        prefix.append(prefix[-1] | 1 << v)
    found = []
    for a in range(len(CAL_SEQ)):
        for b in range(a, len(CAL_SEQ)):
            mask = prefix[b + 1] ^ prefix[a]
            if all(mask & m for m in CAL_MASKS):
                found.append(_Interval(a, b, mask))
    share = sum((Fraction(i.mask.bit_count(), len(CAL_SEQ)) for i in found), Fraction(0))
    return len(found), share


def calibrate(seconds: float) -> float:
    """Median time of calibration blocks run for about `seconds` (at least one).

    A block is fixed pure-Python work of the kinds lplab does (a DFS, bit
    masks, small objects, Fractions), so its time follows the speed the host
    gives this process at that moment.
    """
    times = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        start = time.perf_counter()
        paths = 0
        for _ in range(CAL_PASSES):
            for s in range(len(CAL_GRAPH)):
                on_path = [False] * len(CAL_GRAPH)
                on_path[s] = True
                paths += _count_paths(s, on_path)
        intervals = {_meeting_intervals() for _ in range(CAL_INTERVAL_PASSES)}
        times.append(time.perf_counter() - start)
        if paths != CAL_PASSES * CAL_PATHS or intervals != {CAL_INTERVALS}:
            raise RuntimeError(f"calibration found {paths} paths, intervals {intervals}")
    return statistics.median(times)


def timed_ops(op, seconds: float) -> tuple[list[float], list]:
    """Repeat op until the next repetition would end after `seconds`."""
    walls, outs = [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        outs.append(op())
        end = time.perf_counter()
        walls.append(end - start)
        if len(walls) >= MIN_OPS and end + walls[-1] > deadline:
            return walls, outs


def scaled_ops(run, seconds: float) -> tuple[list[float], list[float], list[float], list]:
    """Repeat run(pause) like timed_ops, in reference-speed seconds as well.

    Calibration runs before the first repetition and after each segment of
    one: a segment ends when the repetition ends, or when it calls pause() at
    least CAL_EVERY_S after the segment began.  A segment's time is scaled by
    CAL_REF_S over the mean of the calibrations just before and after it.
    Returns raw times, reference-speed times, calibration block medians and
    outputs.
    """
    walls, ref_walls, cals, outs = [], [], [calibrate(CAL_GAP_S)], []
    deadline = time.perf_counter() + seconds
    while True:
        op_start = start = time.perf_counter()
        raw = ref = 0.0

        def end_segment() -> None:
            nonlocal start, raw, ref
            seg = time.perf_counter() - start
            cals.append(calibrate(CAL_GAP_S))
            raw += seg
            ref += seg * 2 * CAL_REF_S / (cals[-2] + cals[-1])
            start = time.perf_counter()

        def pause() -> None:
            if time.perf_counter() - start >= CAL_EVERY_S:
                end_segment()

        outs.append(run(pause))
        end_segment()
        walls.append(raw)
        ref_walls.append(ref)
        end = time.perf_counter()
        if len(walls) >= MIN_OPS and end + (end - op_start) > deadline:
            return walls, ref_walls, cals, outs


def per_layer(tracer, walls: list[float], traced: list[float],
              walls_pool: list[float], pool_jobs: int | None) -> tuple[dict, list, dict]:
    """Per-layer metrics, the names marked absent (reported as 0), and a
    per-span table (calls, inclusive and self seconds; median per operation)."""
    setup, *ops = tracer.segments
    sums = [tracer.summarize(seg) for seg in ops]
    med = statistics.median

    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        span, _, key = name.rpartition(".")
        if key in ("calls", "self_s"):
            values[name] = med(s.get(span, {}).get(key, 0) for s in sums)
        else:
            values[name] = med(seg.counters.get(name, 0) for seg in ops)
    absent = {name for name in values if name.rpartition(".")[0] in tracer.absent}

    gen = "harness.generate_connected_graphs"
    values[f"{gen}.self_s"] = tracer.summarize(setup).get(gen, {}).get("self_s", 0.0)
    values[f"{gen}.graphs"] = setup.counters.get(f"{gen}.graphs", 0)
    conj = "harness.check_conjecture"
    values[f"{conj}.shortcut_share"] = med(
        seg.counters.get(f"{conj}.shortcut", 0) / max(1, s.get(conj, {}).get("calls", 0))
        for seg, s in zip(ops, sums))
    durations = [d for s in sums for d in s.get("harness.scan_one_graph", {}).get("durations", [])]
    if durations:
        values["harness.scan_one_graph.p50_ms"] = 1e3 * percentile(durations, 50)
        values["harness.scan_one_graph.p99_ms"] = 1e3 * percentile(durations, 99)
    else:
        absent |= {"harness.scan_one_graph.p50_ms", "harness.scan_one_graph.p99_ms"}
    if walls_pool:
        values["harness.parallel_efficiency"] = med(walls) / (pool_jobs * med(walls_pool))
    else:
        absent.add("harness.parallel_efficiency")
    values["bench.tracing_overhead_s"] = med(traced) - med(walls)
    for name in absent:
        values[name] = 0.0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    table = {span: {key: med(s.get(span, {}).get(key, 0) for s in sums)
                    for key in ("calls", "total_s", "self_s")}
             for span in sorted({span for s in sums for span in s})}
    return metrics, sorted(absent), table


def measure(wl, inputs, seconds: float, tracer=None) -> dict:
    """Time the workload's operation, then gate its outputs."""
    from workloads import load_reference

    reference = load_reference()
    if tracer is None:
        walls, ref_walls, cals, outs = scaled_ops(
            lambda pause: wl.run(inputs, pause=pause), seconds)
        result = {"ref_walls": ref_walls, "cals": cals}
    else:
        # untraced, then (scans with a pool phase) untraced at pool_jobs, then traced
        pool_jobs = getattr(wl, "pool_jobs", None)
        share = seconds / (3 if pool_jobs else 2)
        walls, outs = timed_ops(lambda: wl.run(inputs), share)
        walls_pool: list[float] = []
        if pool_jobs:
            walls_pool, more = timed_ops(lambda: wl.run(inputs, jobs=pool_jobs), share)
            outs += more
        traced: list[float] = []

        def traced_op():
            with tracer.segment(f"op{len(traced)}"):
                start = time.perf_counter()
                out = wl.run(inputs)
                traced.append(time.perf_counter() - start)
            return out

        _, more = timed_ops(traced_op, share)
        outs += more
        metrics, absent, table = per_layer(tracer, walls, traced, walls_pool, pool_jobs)
        result = {"per_layer": metrics, "absent": absent, "spans": table}
    problems = wl.verify(inputs, outs, reference)
    result.update(
        walls=walls,
        failed_ops=[int(bool(p)) for p in problems],
        conclusive=[wl.conclusive(out) for out in outs],  # (conclusive, attempted) per op
        problems=sorted({msg for p in problems for msg in p})[:20],
        input=wl.describe(),
    )
    return result


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest waited-for child."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    start = time.perf_counter()
    cal_before = calibrate(CAL_GAP_S)
    cal_before_s = time.perf_counter() - start
    import_lplab()
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    tracer = Tracer() if trace else None
    if tracer is None:
        inputs = wl.prepare(seed)
    else:
        with tracer.segment("setup"):
            inputs = wl.prepare(seed)
    print("READY", flush=True)
    print(json.dumps({"cal_before": cal_before, "cal_before_s": cal_before_s,
                      "cal_after": calibrate(CAL_GAP_S)}), flush=True)
    if "--setup-only" in argv:
        return 0
    try:
        result = measure(wl, inputs, seconds, tracer)
    except Exception:  # a crash in lplab is a failed run, reported as such
        traceback.print_exc()
        print(json.dumps({"error": traceback.format_exc(limit=3)}))
        return 0
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"spans-{name}-seed{seed}.tsv.gz")
        tracer.write(path)
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
