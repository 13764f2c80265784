"""Report bytes pinned against files recorded at report schema 2, when the
theorem check came to read the exact max f of each graph.  Against the
schema 1 files, recorded before the path-system facts were cached, the
Lemma 3 / Corollary 1 checkers merged and (the theorem-only scans) the
scanner counted spanning paths instead of building them, only the schema,
config.subset_cap, the thm3 / thm2 tallies and extremal.incomplete_graphs
changed.  The theorem-only n <= 8 reports are pinned by hash."""

from __future__ import annotations

import hashlib
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


# sha256 of json.dumps(report.to_json(), sort_keys=True)
THEOREM_ONLY_N_LE_8_SHA256 = {
    3: "9dc10afe864c30960c93bb494c55f0a59a4305b9e641b6b939b717dc92c2a9bb",
    4: "aa9299880d51374bb467a7c6d21f77bd3f874f3b674d72042876c76bfe2d6449",
}


@pytest.mark.parametrize("k", [3, 4])
def test_theorem_only_scan_report_n_le_8(corpus8, k):
    report = scan_stream(corpus8, ScanConfig(k=k, checks=("theorem",)))
    blob = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == THEOREM_ONLY_N_LE_8_SHA256[k]


def test_h_system_suite(h_graph):
    ps = make_path_system(h_graph, H_SYSTEM, require_longest=True)
    reports = run_checks(ps, ("lemma1", "lemma2", "lemma3", "theorem"))
    trace, surgery = surgery_trace(ps)
    payload = {
        "reports": [r.to_json() for r in reports + [surgery]],
        "surgery_trace": trace.to_json(),
    }
    assert _dumps(payload) == (DATA / "h_system_suite.json").read_text()
