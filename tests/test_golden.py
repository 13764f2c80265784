"""Report bytes pinned against files recorded before the path-system facts
were cached and the Lemma 3 / Corollary 1 checkers merged, and (the
theorem-only scans) before the scanner counted spanning paths instead of
building them."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lplab.bounds import run_checks, surgery_trace
from lplab.harness import ScanConfig, scan_stream
from lplab.systems import make_path_system
from conftest import H_SYSTEM

DATA = Path(__file__).parent / "data"


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("k", [3, 4])
def test_scan_report_n_le_6(corpus_by_n, k):
    corpus = [g for n in range(1, 7) for g in corpus_by_n[n]]
    report = scan_stream(corpus, ScanConfig(k=k))
    assert _dumps(report.to_json()) == (DATA / f"scan_n6_k{k}.json").read_text()


@pytest.mark.parametrize("k", [3, 4])
def test_theorem_only_scan_report_n_le_6(corpus_by_n, k):
    # no lemma check: the scanner counts the paths of spanning path sets
    corpus = [g for n in range(1, 7) for g in corpus_by_n[n]]
    report = scan_stream(corpus, ScanConfig(k=k, checks=("theorem",)))
    assert _dumps(report.to_json()) == (DATA / f"scan_n6_k{k}_theorem.json").read_text()


def test_h_system_suite(h_graph):
    ps = make_path_system(h_graph, H_SYSTEM, require_longest=True)
    reports = run_checks(ps, ("lemma1", "lemma2", "lemma3", "theorem"))
    trace, surgery = surgery_trace(ps)
    payload = {
        "reports": [r.to_json() for r in reports + [surgery]],
        "surgery_trace": trace.to_json(),
    }
    assert _dumps(payload) == (DATA / "h_system_suite.json").read_text()
