"""Measure the count-first longest-path rule and the graph6 codec against a
parent tree.

Usage:

    python3 tools/bench_count_first.py PARENT CHANGE --out BENCH_count_first.json

PARENT and CHANGE are two checkouts (each with src/, tests/ and perfbench/),
for example `git archive` of the parent commit and of this one, unpacked
into fresh directories.  The script runs, in each tree:

- alternating pairs of `perfbench/run.py --trace 0` runs: scan_enum_k3 (10
  pairs, seeds from 2900 up, and one more pair on the held-out seed
  3000), fpos_witness (5 pairs) and scan_lemma_k4 (3 pairs); even
  pairs run the parent first, odd pairs the change;
- one traced scan_enum_k3 run per side (`--trace 1`, parent first), of
  which it keeps the layers the change touches;
- the best of 5 times of encode_graph6 over the 11,117 connected graphs on
  8 vertices and of parse_graph6 over their lines, in 3 alternating rounds;
- the reach tests (_reaches calls) that enumerate_longest_paths makes on 30
  seeded windmills, and the best of 5 times of enumerating them all, in 3
  rounds that alternate the sides.  The windmills come from the change
  tree's tests (tests/test_longest.py, `windmill`) and reach both sides as
  graph6 lines.

It writes one JSON file with every run and a summary per metric (median,
quartiles, and in how many pairs the change was better).  Standard library
only, apart from what the change tree's tests import.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from bench_thin_start import _env, machine, perfbench, summarise

PAIRS = {"scan_enum_k3": 10, "fpos_witness": 5, "scan_lemma_k4": 3}
HELD_OUT = 100  # the held-out scan_enum_k3 seed is SEED0 + HELD_OUT
SEED0 = 2900
WHAT = (
    "Count before walking: enumerate_longest_paths and longest_path_length count "
    "spanning paths first (unless g has three leaves) and walk only a graph with "
    "none, skipping every first step that could hold only a spanning path; "
    "graph6 lines decode into masks row by row and encode whole rows; a scan "
    "keeps a plain one-byte-order graph6 line as its canonical form; "
    "theorem_bound is memoised; the merge builds no Fraction for max f = 0"
)
# the per-layer metrics of the traced scan_enum_k3 run that the change touches
LAYERS = (
    "graphs.parse_graph6.calls", "graphs.parse_graph6.self_s",
    "graphs.encode_graph6.calls", "graphs.encode_graph6.self_s",
    "longest.enumerate_longest_paths.calls", "longest.enumerate_longest_paths.self_s",
    "harness.scan_one_graph.calls", "harness.scan_one_graph.self_s",
    "harness.scan_stream.self_s", "bench.tracing_overhead_s",
)

CODEC_PROBE = r"""
import json, timeit
from lplab.graphs import encode_graph6, parse_graph6
from lplab.harness import generate_connected_graphs
graphs = generate_connected_graphs(8)
lines = [encode_graph6(g) for g in graphs]
print(json.dumps({
    "graphs": len(graphs),
    "encode_best_of_5_s": min(timeit.repeat(lambda: list(map(encode_graph6, graphs)), number=1, repeat=5)),
    "parse_best_of_5_s": min(timeit.repeat(lambda: list(map(parse_graph6, lines)), number=1, repeat=5)),
}))
"""

MAKE_WINDMILLS = r"""
import json, random
from lplab.graphs import encode_graph6
from test_longest import windmill
rng = random.Random(29)
print(json.dumps([encode_graph6(windmill(rng, rng.randint(15, 23))) for _ in range(30)]))
"""

# run in each tree with the windmills' graph6 lines on stdin
WINDMILL_PROBE = r"""
import json, sys, timeit
import lplab.longest as L
from lplab.graphs import parse_graph6
mills = [parse_graph6(line) for line in json.load(sys.stdin)]
reaches = L._reaches
calls = 0
def counted(*args):
    global calls
    calls += 1
    return reaches(*args)
L._reaches = counted
facts = [(lps.length, len(lps.paths)) for lps in map(L.enumerate_longest_paths, mills)]
L._reaches = reaches
best = min(timeit.repeat(lambda: [L.enumerate_longest_paths(g) for g in mills], number=1, repeat=5))
print(json.dumps({"reach_tests": calls, "facts": facts, "best_of_5_s": best}))
"""


def run_python(tree: str, code: str, stdin: str = "") -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tree, input=stdin, capture_output=True,
        text=True, env=_env(tree), check=True,
    )
    return json.loads(proc.stdout)


def rounds(trees: dict, code: str, stdin: str = "") -> list[dict]:
    """Three runs of code per side, in rounds that alternate which side runs first."""
    return [
        {side: run_python(trees[side], code, stdin)
         for side in (("parent", "change") if r % 2 == 0 else ("change", "parent"))}
        for r in range(3)
    ]


def pair(trees: dict, workload: str, seed: int, i: int) -> dict:
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    row = {"seed": seed, "first": order[0]}
    for side in order:
        row[side] = perfbench(trees[side], workload, seed, 0)
        print(workload, seed, side, row[side]["wall_s"], file=sys.stderr, flush=True)
    return row


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    report: dict = {
        "what": WHAT,
        "machine": machine(),
        "sides": {
            "parent": "the parent commit's tree",
            "change": "this change's tree; perfbench/ is identical on both sides",
        },
        "commands": {
            "bench": f"python3 tools/bench_count_first.py PARENT CHANGE --out "
                     f"{os.path.basename(args.out)}",
            "pair": (
                "python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0 "
                "(run in each side's tree; even pairs run the parent first, odd pairs the change)"
            ),
            "traced": "python3 perfbench/run.py --workload scan_enum_k3 --seed S --seconds 15 "
                      "--trace 1 (parent first)",
            "codec_n8": (
                "encode_graph6 over generate_connected_graphs(8) and parse_graph6 over "
                "their lines: best of 5, in 3 rounds that alternate the sides"
            ),
            "windmills": (
                "enumerate_longest_paths on 30 windmills (tests/test_longest.py, windmill, "
                "random.Random(29), n = 15..23): reach tests, and best of 5 times of "
                "enumerating all 30, in 3 rounds that alternate the sides"
            ),
        },
        "pairs": {},
    }
    seed = SEED0
    for workload, n_pairs in PAIRS.items():
        report["pairs"][workload] = [pair(trees, workload, seed + i, i) for i in range(n_pairs)]
        seed += n_pairs
    report["summary"] = {w: summarise(rows) for w, rows in report["pairs"].items()}
    held_out = SEED0 + HELD_OUT
    report["held_out_scan_enum_k3"] = pair(trees, "scan_enum_k3", held_out, 0)

    report["traced_scan_enum_k3"] = {"seed": seed}
    for side in ("parent", "change"):
        row = perfbench(trees[side], "scan_enum_k3", seed, 1)
        report["traced_scan_enum_k3"][side] = {k: row[k] for k in LAYERS if k in row}

    codec = rounds(trees, CODEC_PROBE)
    report["codec_n8"] = {
        side: {key: min(r[side][key] for r in codec) if key.endswith("_s") else value
               for key, value in codec[0][side].items()}
        for side in ("parent", "change")
    }

    mills = json.dumps(run_python(trees["change"], MAKE_WINDMILLS))
    walks = rounds(trees, WINDMILL_PROBE, mills)
    report["windmills"] = {
        side: {
            "reach_tests": walks[0][side]["reach_tests"],
            "same_facts_as_parent": walks[0][side]["facts"] == walks[0]["parent"]["facts"],
            "best_of_5_s": min(r[side]["best_of_5_s"] for r in walks),
        }
        for side in ("parent", "change")
    }

    scan = report["summary"]["scan_enum_k3"]["wall_s"]
    report["claim"] = {
        "metric": "scan_enum_k3 wall_s",
        "parent_median": scan["parent"]["median"],
        "change_median": scan["change"]["median"],
        "change_over_parent": scan["change"]["median"] / scan["parent"]["median"],
        "parent_quartile_spread": scan["parent"]["q3"] - scan["parent"]["q1"],
        "change_lower_in": scan["change_better_in"],
        "held_out": {side: report["held_out_scan_enum_k3"][side]["wall_s"]
                     for side in ("parent", "change")},
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
