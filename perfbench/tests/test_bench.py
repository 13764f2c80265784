"""Smoke-size tests of the benchmark itself (the default pytest run skips them).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import bench  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lplab import harness, longest  # noqa: E402

SMALL_SCAN = workloads.ScanWorkload(orders=(5, 6), sample=20, chunk=8, k=4, checks=None,
                                    pool_jobs=2)
SMALL_FPOS = workloads.FposWorkload(ks=(3,), t_max=1)


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def _drop_first_path(real):
    def dropping(g, *args, **kwargs):
        lps = real(g, *args, **kwargs)
        return dataclasses.replace(lps, paths=lps.paths[1:])

    return dropping


@pytest.mark.parametrize("wl", [SMALL_SCAN, SMALL_FPOS], ids=["scan", "fpos"])
def test_gate_accepts_outputs_of_this_version(wl, reference):
    inputs = wl.prepare(0)
    assert wl.verify(inputs, [wl.run(inputs)], reference) == [[]]


def test_gate_flags_scan_that_drops_a_path(monkeypatch, reference):
    monkeypatch.setattr(harness, "enumerate_longest_paths",
                        _drop_first_path(harness.enumerate_longest_paths))
    inputs = SMALL_SCAN.prepare(0)
    [problems] = SMALL_SCAN.verify(inputs, [SMALL_SCAN.run(inputs)], reference)
    assert any("reference" in p for p in problems)


def test_gate_flags_fpos_that_drops_a_path(monkeypatch, reference):
    monkeypatch.setattr(longest, "enumerate_longest_paths",
                        _drop_first_path(longest.enumerate_longest_paths))
    inputs = SMALL_FPOS.prepare(0)
    [problems] = SMALL_FPOS.verify(inputs, [SMALL_FPOS.run(inputs)], reference)
    assert any(p.startswith("H: (ell, paths)") for p in problems)
    assert any(p.startswith("G_1:") for p in problems)


def test_gate_flags_report_that_differs_between_runs(reference):
    inputs = SMALL_SCAN.prepare(0)
    other = SMALL_SCAN.run(dataclasses.replace(inputs, lines=inputs.lines[1:]))
    [problems] = SMALL_SCAN.verify(inputs, [other], reference)
    assert "report differs from the jobs=1 check scan" in problems


def test_gate_flags_wrong_corpus_size(reference):
    inputs = dataclasses.replace(SMALL_SCAN.prepare(0), generated={5: 20, 6: 112})
    [problems] = SMALL_SCAN.verify(inputs, [SMALL_SCAN.run(inputs)], reference)
    assert "generator gave 20 connected graphs on 5 vertices" in problems


@pytest.mark.parametrize("f, ok", [(1, True), (5, False)])
def test_gate_reverifies_violation_witness(f, ok):
    inputs = SMALL_FPOS.prepare(2)
    witness = {"members": [list(p) for p in inputs.members], "f": f}
    problems = workloads.FposWorkload._check_witness(inputs.graph, 9, witness)
    assert (problems == []) == ok


def test_gate_rejects_violation_below_least_k(monkeypatch, reference):
    real = harness.check_conjecture

    def fake(g, k, *args, **kwargs):
        return dataclasses.replace(real(g, k, *args, **kwargs), status="violation")

    monkeypatch.setattr(harness, "check_conjecture", fake)
    inputs = SMALL_FPOS.prepare(0)
    [problems] = SMALL_FPOS.verify(inputs, [SMALL_FPOS.run(inputs)], reference)
    assert "conjecture k=3: violation" in problems


def test_traced_and_untraced_reports_are_identical():
    inputs = SMALL_SCAN.prepare(1)
    plain = [r.to_json() for r in SMALL_SCAN.run(inputs)]
    t = tracer.Tracer()
    with t.segment("op0"):
        traced = [r.to_json() for r in SMALL_SCAN.run(inputs)]
    assert traced == plain
    assert not hasattr(harness.scan_stream, "__wrapped__")  # wrappers removed again
    summary = t.summarize(t.segments[0])
    assert summary["harness.scan_stream"]["calls"] == 3  # chunks of 8, 8 and 4 lines
    assert summary["harness.scan_one_graph"]["calls"] == len(inputs.lines)
    # self times partition the root span
    root = summary["harness.scan_stream"]["total_s"]
    assert sum(s["self_s"] for s in summary.values()) == pytest.approx(root, rel=1e-9)


def test_scaled_ops_calibrates_between_segments(monkeypatch):
    monkeypatch.setattr(bench, "CAL_GAP_S", 0.0)  # one calibration block per gap
    monkeypatch.setattr(bench, "CAL_EVERY_S", 0.0)  # every pause ends a segment

    def op(pause):
        time.sleep(0.01)
        pause()
        time.sleep(0.01)
        return "out"

    walls, ref_walls, cals, outs = bench.scaled_ops(op, seconds=0.0)
    assert outs == ["out"] * bench.MIN_OPS
    assert len(cals) == 1 + 2 * bench.MIN_OPS  # before the first op, after each segment
    assert all(w >= 0.02 for w in walls) and all(r > 0 for r in ref_walls)
    assert all(c > 0 for c in cals)


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [("harness", "no_such_fn", None)])
    assert "harness.no_such_fn" in tracer.Tracer().absent


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("wl", [SMALL_SCAN, SMALL_FPOS], ids=["scan", "fpos"])
def test_every_metric_is_emitted(wl):
    spec = _benchmark_json()
    inputs = wl.prepare(0)
    child = bench.measure(wl, inputs, seconds=0.0)
    child["peak_rss_mb"] = bench.peak_rss_mb()
    _, result = run.assemble("smoke", 0, 0.0, child, [(0.5, 0.02), (0.4, 0.03), (0.6, 0.02)])
    assert result["correct"] and result["attempted"] == bench.MIN_OPS
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}

    t = tracer.Tracer()
    with t.segment("setup"):
        inputs = wl.prepare(0)
    detail, result = run.assemble("smoke", 0, 0.0, bench.measure(wl, inputs, 0.0, t), [])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if wl is SMALL_SCAN:
        assert result["metrics"]["harness.parallel_efficiency"]["value"] > 0
        assert result["metrics"]["harness.scan_one_graph.calls"]["value"] == len(inputs.lines)
        assert result["metrics"]["harness.generate_connected_graphs.graphs"]["value"] == 133
    else:
        assert {"harness.scan_one_graph.p99_ms", "harness.parallel_efficiency"} <= set(detail["absent"])
        assert result["metrics"]["bounds.surgery_trace.calls"]["value"] == 2


def test_run_fails_without_lplab_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fpos_witness", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
