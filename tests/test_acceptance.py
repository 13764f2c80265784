"""Acceptance suite: one criterion per test, one printed verdict line each.

The heavy fixtures (full connected corpus through n = 8 and its two scans)
are session-scoped and shared by several criteria.  Verdict lines are
written through the terminal reporter at session end so they show up in a
plain `pytest -v` run.
"""

from __future__ import annotations

import gzip
import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from lplab.bounds import ratio_table, theorem_bound, theorem_bound_parts
from lplab.construct import build_gt
from lplab.graphs import encode_graph6, parse_graph6
from lplab.harness import ScanConfig, generate_connected_graphs, scan_stream
from lplab.longest import enumerate_longest_paths, longest_path_length
from lplab.systems import certified_system, make_path_system
from oracles import enumerate_longest_paths_oracle

_VERDICTS: dict[int, str] = {}


def _verdict(num: int, ok: bool, description: str) -> None:
    _VERDICTS[num] = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {description}"
    assert ok, _VERDICTS[num]


@pytest.fixture(scope="session", autouse=True)
def _print_verdicts(request):
    yield
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None and _VERDICTS:
        reporter.write_line("")
        reporter.write_line("acceptance verdicts:")
        for num in sorted(_VERDICTS):
            reporter.write_line(_VERDICTS[num])


@pytest.fixture(scope="session")
def scan_k3(corpus8):
    return scan_stream(corpus8, ScanConfig(k=3, lemma_subset_cap=3))


@pytest.fixture(scope="session")
def scan_k4(corpus8):
    return scan_stream(corpus8, ScanConfig(k=4, lemma_subset_cap=3))


# sha256 of json.dumps(report.to_json(), sort_keys=True) for the two scans above
SCAN_SHA256 = {
    3: "0263bbe808d3b49d40796c3fa915b1116679b3c89333c516a3f88fe93f2f0552",
    4: "809bfc0cc29a6a8dd078f27019409497d263a4fa1508567d92b1828050166242",
}


def test_scan_report_bytes_pinned(scan_k3, scan_k4):
    for k, report in ((3, scan_k3), (4, scan_k4)):
        blob = json.dumps(report.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == SCAN_SHA256[k]


def test_criterion_1_pairwise_intersection(scan_k3):
    slot = scan_k3.tallies.get("pairwise", {})
    ok = (
        slot.get("fail", 0) == 0
        and slot.get("pass", 0) == scan_k3.graphs_scanned
        and not scan_k3.failures
    )
    _verdict(1, ok, "every pair of longest paths intersects on all connected graphs n <= 8")


def test_criterion_2_triple_common_vertex(scan_k3):
    ok = (
        scan_k3.conjecture_status == "no-violation"
        and scan_k3.incomplete_graphs == 0
        and scan_k3.max_f == 0
    )
    _verdict(2, ok, "every 3-subset of longest paths has a common vertex (f = 0), no incompletes, n <= 8")


def test_criterion_3_theorem_bounds(scan_k3, scan_k4):
    ok = (
        scan_k3.tallies.get("thm3", {}).get("fail", 0) == 0
        and scan_k4.tallies.get("thm2", {}).get("fail", 0) == 0
        and not scan_k3.halted
        and not scan_k4.halted
        and scan_k3.max_f_incomplete == scan_k4.max_f_incomplete == 0
    )
    _verdict(3, ok, "theorem f-bound holds on every k-subset for k = 3 and k = 4 (exact max f)")


def test_criterion_4_lemma_suite(scan_k3, scan_k4):
    no_fails = all(
        scan.tallies.get(check, {}).get("fail", 0) == 0
        for scan, checks in (
            (scan_k3, ("lemma1", "lemma2", "lemma3i", "lemma3ii")),
            (scan_k4, ("lemma1", "lemma2", "lemma3i", "lemma3ii", "cor1i", "cor1ii")),
        )
        for check in checks
    )
    exercised = all(
        scan.tallies.get(check, {}).get("pass", 0) > 0
        for scan, checks in (
            (scan_k3, ("lemma3i", "lemma3ii")),
            (scan_k4, ("cor1i", "cor1ii")),
        )
        for check in checks
    )
    _verdict(4, no_fails and exercised,
             "lemma and corollary checks: zero failures and parts (i)/(ii) pass; at n <= 8 "
             "every lemma verdict is implied by a common vertex")


def test_criterion_5_oracle_equivalence():
    mismatches = 0
    checked = 0
    for n in range(1, 8):
        for g in generate_connected_graphs(n):
            fast = enumerate_longest_paths(g)
            slow = enumerate_longest_paths_oracle(g)
            checked += 1
            if fast.length != slow.length or tuple(fast.paths) != slow.paths:
                mismatches += 1
    ok = mismatches == 0 and checked == 996
    _verdict(5, ok, f"enumeration matches the permutation oracle on all {checked} connected graphs n <= 7")


# ell and the number of longest paths of every connected graph with n <= 8,
# as perfbench/make_reference.py recorded them; the benchmark's correctness
# gate reads the same file
REFERENCE_LE8 = Path(__file__).parents[1] / "perfbench" / "reference" / "connected_le8.tsv.gz"


def test_full_counts_n_le_8_match_reference(corpus8):
    # the scans read counts only up to what their checks need; here every
    # count runs to its end, spanning sets counted, the others walked out
    with gzip.open(REFERENCE_LE8, "rt") as fh:
        reference = {g6: (int(ell), int(count)) for g6, ell, count in map(str.split, fh)}
    assert len(reference) == len(corpus8) == 12_113
    for g in corpus8:
        lps = enumerate_longest_paths(g)
        ell, count = reference[encode_graph6(g)]
        assert (lps.length, len(lps), lps.truncated) == (ell, count, False), encode_graph6(g)


def test_criterion_6_accounting_identity():
    instances = 0
    violations = 0
    for n in range(3, 8):
        for g in generate_connected_graphs(n):
            lps = enumerate_longest_paths(g)
            if len(lps.paths) < 3:
                continue
            for combo in itertools.islice(
                itertools.combinations(lps.paths, 3), 40
            ):
                ps = certified_system(g, combo, lps.length)
                total = sum((i + 1) * c for i, c in enumerate(ps.n_counts))
                if total != 3 * (lps.length + 1):
                    violations += 1
                instances += 1
        if instances >= 12_000:
            break
    ok = violations == 0 and instances >= 10_000
    _verdict(6, ok, f"sum of i*n_i equals k(ell+1) on all {instances} certified systems tested")


def test_criterion_7_bound_arithmetic():
    parts = theorem_bound_parts(4, 16)
    table = {row["k"]: row for row in ratio_table(7)}
    ok = (
        theorem_bound(3, 30) == Fraction(4)
        and theorem_bound(4, 16) == Fraction(11, 4)
        and parts["general"] == Fraction(33, 8)
        and table[3]["upper"] == Fraction(1, 17)
        and table[4]["upper"] == Fraction(3, 16)
        and table[5]["upper"] == Fraction(24, 55)
        and table[7]["lower"] == Fraction(1, 17)
    )
    _verdict(7, ok, "exact bound values: 4, 11/4 (general 33/8), 1/17, 3/16, 24/55, lower 1/17")


def test_criterion_8_construction():
    star = parse_graph6("Cs")
    ps = make_path_system(
        star, [[1, 0, 2], [1, 0, 3], [2, 0, 3]], require_longest=True
    )
    ok = True
    for t in range(4):
        res = build_gt(star, ps, t)
        if res.vertex_count != 7 + 6 * t:
            ok = False
        members_longest = {p.length for p in res.system.paths} == {longest_path_length(res.graph)}
        if t <= 2 and (not members_longest or res.f_value != 0):
            ok = False
    _verdict(8, ok, "star base gives |V(G_t)| = 7+6t; members stay longest with f = 0 for t <= 2")


def test_criterion_9_format_fidelity(corpus8):
    round_trips = all(
        sorted(parse_graph6(encode_graph6(g)).edges()) == sorted(g.edges())
        for g in corpus8
    )
    counts = {n: len(generate_connected_graphs(n)) for n in (4, 5, 6)}
    ok = round_trips and counts == {4: 6, 5: 21, 6: 112}
    _verdict(9, ok, "graph6 round-trips on the full n <= 8 corpus; connected counts 6/21/112 at n = 4/5/6")


def test_criterion_10_determinism():
    corpus = generate_connected_graphs(6)
    cfg1 = ScanConfig(k=3, lemma_subset_cap=3, jobs=1)
    cfg8 = ScanConfig(k=3, lemma_subset_cap=3, jobs=8)
    blob1 = json.dumps(scan_stream(corpus, cfg1).to_json(), sort_keys=True)
    blob8 = json.dumps(scan_stream(corpus, cfg8).to_json(), sort_keys=True)
    _verdict(10, blob1 == blob8, "1-worker and 8-worker scans emit byte-identical JSON reports")
