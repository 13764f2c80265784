"""Measure a change to the longest-path walk against a parent tree.

Usage:

    python3 tools/bench_thin_start.py PARENT CHANGE --out BENCH_thin_start.json
    python3 tools/bench_thin_start.py PARENT CHANGE --out BENCH_FILE \
        --what "what the change does" --seed0 400 --note "how to read dfs_calls"

PARENT and CHANGE are two checkouts (each with src/, tests/ and perfbench/),
for example `git archive` of the parent commit and of this one, unpacked
into fresh directories.  The script runs, in each tree:

- alternating pairs of `perfbench/run.py --trace 0` runs of fpos_witness
  (10 pairs), scan_enum_k3 and scan_lemma_k4 (3 pairs each), one seed per
  pair, from --seed0 up; even pairs run the parent first, odd pairs the
  change;
- one traced fpos_witness run per side (`--trace 1`, parent first);
- the reach tests and the calls of the walk's nested dfs that
  enumerate_longest_paths makes on G_1..G_4 of H, and the walk time on
  G_8 and G_12 (best of 5 per side, in 3 alternating rounds);
- the tier-1 suite once per side.

It writes one JSON file with every run and a summary per metric (median,
quartiles, and in how many pairs the change was better), headed by --what;
--note says how the two sides' dfs_calls compare.  The defaults are those
of the run that wrote BENCH_thin_start.json.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time

PAIRS = {"fpos_witness": 10, "scan_enum_k3": 3, "scan_lemma_k4": 3}
# the defaults, for BENCH_thin_start.json; its seeds 300..316 were not used
# while the thin-start rule was written
SEED0 = 300
WHAT = (
    "Longest-path walk: a first step from a start with a neighbour of degree <= 2 "
    "other than the step looks only for spanning paths (thin-start rule); "
    "surgery_trace builds the good subpaths of its own host only"
)
NOTE = (
    "the parent takes each first step inside dfs, so its dfs_calls hold one call per start "
    "(n - 1) more than the change's for the same search"
)
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "conclusive_share")
LOWER_IS_BETTER = {"wall_s", "setup_s", "peak_rss_mb"}

# run in each tree, with its src/ and tests/ on the path: prints one JSON
# object with the walk's work on G_1..G_4 and its time on G_8 and G_12
WORK_PROBE = r"""
import json, sys, time
import lplab.longest as L
from conftest import H_GRAPH6, H_SYSTEM
from lplab.construct import build_gt
from lplab.graphs import parse_graph6
from lplab.systems import make_path_system

h = parse_graph6(H_GRAPH6)
ps = make_path_system(h, H_SYSTEM, require_longest=True)
dfs = next(c for c in L._walk.__code__.co_consts if getattr(c, "co_name", None) == "dfs")
reaches = L._reaches
count = {"reach": 0, "dfs": 0}

def counted(*args):
    count["reach"] += 1
    return reaches(*args)

def profile(frame, event, arg):
    if event == "call" and frame.f_code is dfs:
        count["dfs"] += 1

out = {"work": {}, "walk_s": {}}
L._reaches = counted
for t in (1, 2, 3, 4):
    g = build_gt(h, ps, t).graph
    count.update(reach=0, dfs=0)
    sys.setprofile(profile)
    lps = L.enumerate_longest_paths(g)
    sys.setprofile(None)
    out["work"][f"G_{t}"] = {
        "n": g.n, "ell": lps.length, "paths": len(lps.paths),
        "reach_tests": count["reach"], "dfs_calls": count["dfs"],
    }
L._reaches = reaches
for t in (8, 12):
    g = build_gt(h, ps, t).graph
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        lps = L.enumerate_longest_paths(g)
        best = min(best, time.perf_counter() - t0)
    out["walk_s"][f"G_{t}"] = {"ell": lps.length, "paths": len(lps.paths), "best_of_5_s": best}
print(json.dumps(out))
"""


def _env(tree: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(tree, "src"), os.path.join(tree, "tests")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def perfbench(tree: str, workload: str, seed: int, trace: int) -> dict:
    """The result line of one perfbench run in tree."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", "15", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=_env(tree))
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} printed no result\n{proc.stderr}")
    result = json.loads(lines[-1])
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(attempted=result["attempted"], failed=result["failed"], correct=result["correct"])
    return row


def probe(tree: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", WORK_PROBE], cwd=tree, capture_output=True, text=True,
        env=_env(tree), check=True,
    )
    return json.loads(proc.stdout)


def tier1(tree: str) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=tree, capture_output=True, text=True, env=_env(tree),
    )
    return {"summary": proc.stdout.strip().splitlines()[-1], "wall_s": time.perf_counter() - t0}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict]) -> dict:
    out = {}
    for metric in END_TO_END:
        parent = [p["parent"][metric] for p in pairs]
        change = [p["change"][metric] for p in pairs]
        if metric in LOWER_IS_BETTER:
            better = sum(c < p for p, c in zip(parent, change))
        else:
            better = sum(c > p for p, c in zip(parent, change))
        out[metric] = {
            "parent": _quartiles(parent),
            "change": _quartiles(change),
            "change_better_in": f"{better}/{len(pairs)}",
        }
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True)
    ap.add_argument("--what", default=WHAT, help="the change measured, for the report")
    ap.add_argument("--seed0", type=int, default=SEED0, help="the first seed (default: %(default)s)")
    ap.add_argument("--note", default=NOTE, help="how the two sides' dfs_calls compare")
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    bench = f"python3 tools/bench_thin_start.py PARENT CHANGE --out {os.path.basename(args.out)}"
    for flag, value, default in (
        ("--what", args.what, WHAT), ("--seed0", args.seed0, SEED0), ("--note", args.note, NOTE),
    ):
        if value != default:
            bench += f" {flag} {shlex.quote(str(value))}"
    report: dict = {
        "what": args.what,
        "machine": machine(),
        "sides": {
            "parent": "the parent commit's tree",
            "change": "this change's tree; perfbench/ is identical on both sides",
        },
        "commands": {
            "bench": bench,
            "pair": (
                "python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0 "
                "(run in each side's tree; even pairs run the parent first, odd pairs the change)"
            ),
            "traced": "python3 perfbench/run.py --workload fpos_witness --seed S --seconds 15 --trace 1 (parent first)",
            "walk": (
                "enumerate_longest_paths on G_t of H (build_gt of H and its 9-path f = 1 system): "
                "reach tests (_reaches calls) and calls of _walk's nested dfs on G_1..G_4; "
                "best of 5 walk times on G_8 and G_12, in 3 rounds that alternate the sides"
            ),
        },
        "pairs": {},
    }
    seed = args.seed0
    for workload, n_pairs in PAIRS.items():
        rows = []
        for i in range(n_pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            row = {"seed": seed, "first": order[0]}
            for side in order:
                row[side] = perfbench(trees[side], workload, seed, 0)
                print(workload, seed, side, row[side]["wall_s"], file=sys.stderr, flush=True)
            rows.append(row)
            seed += 1
        report["pairs"][workload] = rows
    report["summary"] = {w: summarise(rows) for w, rows in report["pairs"].items()}

    traced_seed = seed
    report["traced_fpos_witness"] = {
        "seed": traced_seed,
        **{side: perfbench(trees[side], "fpos_witness", traced_seed, 1) for side in ("parent", "change")},
    }

    rounds = []
    for r in range(3):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        rounds.append({side: probe(trees[side]) for side in order})
    report["walk_on_gt_of_h"] = {
        side: {
            "work": rounds[0][side]["work"],
            "walk_s": {
                g: {**rounds[0][side]["walk_s"][g],
                    "best_of_5_s": min(r[side]["walk_s"][g]["best_of_5_s"] for r in rounds)}
                for g in rounds[0][side]["walk_s"]
            },
        }
        for side in ("parent", "change")
    }
    report["walk_on_gt_of_h"]["note"] = args.note

    report["tier1"] = {side: tier1(trees[side]) for side in ("parent", "change")}

    fpos = report["summary"]["fpos_witness"]["wall_s"]
    report["claim"] = {
        "metric": "fpos_witness wall_s",
        "parent_median": fpos["parent"]["median"],
        "change_median": fpos["change"]["median"],
        "change_over_parent": fpos["change"]["median"] / fpos["parent"]["median"],
        "parent_quartile_spread": fpos["parent"]["q3"] - fpos["parent"]["q1"],
        "change_lower_in": fpos["change_better_in"],
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
