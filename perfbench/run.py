"""Benchmark for lplab: end-to-end metrics per workload, per-layer metrics
from a separate traced run.  Standard library only.

    python3 perfbench/run.py                       # every workload, then a table
    python3 perfbench/run.py --workload scan_enum_k3 --seed 3 --seconds 15 --trace 0

Each run of a workload starts fresh interpreters (bench.py): SETUP_RUNS - 1
that only set up, then one that sets up and measures.  setup_s is the median
of the SETUP_RUNS set-up times.  wall_s and setup_s are in reference-speed
seconds: each raw time is scaled by CAL_REF_S over the time of a calibration
block, timed in the same process just before and just after it (bench.py;
README.md, "Host speed").  A single-workload run prints a detail line
(machine, and per metric the median, quartiles and sample count, including
failed_share and incomplete_share) and, last, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 when every output passed the correctness gate, 1 when one did not,
and 2 when the benchmark could not run at all (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from bench import CAL_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("scan_lemma_k4", "scan_enum_k3", "fpos_witness")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("conclusive_share", "ratio"))
SETUP_RUNS = 3
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(args: list[str], deadline: float) -> tuple[float, float, str]:
    """Run bench.py; return (set-up seconds, calibration block seconds around
    the set-up, rest of stdout).  Set-up is the time until bench.py printed
    READY, less the calibration it ran first."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "bench.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        cal = proc.stdout.readline()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or not cal or proc.returncode != 0:
        raise BenchError(f"bench.py {' '.join(args)} exited with {proc.returncode}")
    cal = json.loads(cal)
    return (setup_s - cal["cal_before_s"], (cal["cal_before"] + cal["cal_after"]) / 2, rest)


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": git_commit()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of one workload: (detail, result in the benchmark's JSON form)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    args = [name, str(seed), repr(seconds), "1" if trace else "0"]
    setups = [] if trace else [spawn(args + ["--setup-only"], deadline)[:2]
                               for _ in range(SETUP_RUNS - 1)]
    setup_s, cal, out = spawn(args, deadline)
    setups.append((setup_s, cal))
    return assemble(name, seed, seconds, json.loads(out.strip().splitlines()[-1]), setups)


def assemble(name: str, seed: int, seconds: float, child: dict,
             setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Turn bench.py's raw output into (detail, result); traced when it has per_layer.

    `setups` holds (set-up seconds, calibration block seconds) per process.
    """
    trace = "per_layer" in child
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine()}
    if "error" in child:
        detail["problems"] = [child["error"]]
        return detail, {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    flags = child["failed_ops"]
    attempted, failed = len(flags), sum(flags)
    conclusive = [c / a for c, a in child["conclusive"]]
    # per operation, except set-up (per process) and peak RSS (one value)
    samples = {}
    if not trace:
        samples = {
            "wall_s": child["ref_walls"],
            "setup_s": [s * CAL_REF_S / cal for s, cal in setups],
            "peak_rss_mb": [child["peak_rss_mb"]],
            "raw_wall_s": child["walls"],
            "raw_setup_s": [s for s, _ in setups],
            "cal_block_s": child["cals"] + [cal for _, cal in setups],
        }
    samples.update(conclusive_share=conclusive,
                   incomplete_share=[1 - c for c in conclusive],
                   failed_share=flags)
    units = dict(END_TO_END, incomplete_share="ratio", failed_share="ratio",
                 raw_wall_s="s", raw_setup_s="s", cal_block_s="s")
    detail.update(input=child["input"], problems=child["problems"])
    if trace:
        metrics = child["per_layer"]
        detail.update(absent=child["absent"], spans=child["spans"],
                      trace_file=child.get("trace_file"))
    else:
        metrics = {k: {"value": statistics.median(samples[k]), "unit": unit}
                   for k, unit in END_TO_END}
    detail["summary"] = {k: {**quartiles(v), "unit": units[k]} for k, v in samples.items()}
    return detail, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def print_table(rows: list[tuple[str, dict]]) -> None:
    print(f"{'workload':<18} {'metric':<18} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'n':>4}  unit")
    for name, detail in rows:
        for metric, s in detail.get("summary", {}).items():
            print(f"{name:<18} {metric:<18} {s['median']:>10.4f} {s['q1']:>10.4f} "
                  f"{s['q3']:>10.4f} {s['samples']:>4}  {s['unit']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    rows, ok = [], True
    for name in names:
        try:
            detail, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        ok = ok and result["correct"]
        for msg in detail.get("problems", []):
            print(f"perfbench: {name}: {msg}", file=sys.stderr)
        print(json.dumps(detail))
        rows.append((name, detail))
        if args.workload != "all":
            print(json.dumps(result))
    if args.workload == "all":
        print_table(rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
