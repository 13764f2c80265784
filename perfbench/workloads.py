"""Workloads of the lplab benchmark and the correctness gate behind each.

A workload prepares its inputs from a seed (``prepare``), runs one operation
on them (``run``, which may call ``pause`` between stages so that the
benchmark can calibrate there), and checks outputs against facts that any
correct version of lplab must reproduce (``verify``).  Only public functions of lplab's
modules are called, always through the module attribute, so that a tracer
wrapping those attributes sees every call.

The gate compares facts, never report bytes: graphs scanned, ell and the
number of longest paths of each graph, the absence of "fail" verdicts, the
conjecture status, and f of the fixed f > 0 systems.
"""

from __future__ import annotations

import dataclasses
import gzip
import os
import random
from dataclasses import dataclass
from typing import Optional

from lplab import bounds, construct, graphs, harness, longest, systems
from lplab.errors import UsageError

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference", "connected_le8.tsv.gz")

# number of connected graphs on n unlabeled vertices (OEIS A001349)
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def load_reference() -> dict[str, tuple[int, int]]:
    """graph6 -> (ell, number of longest paths), recorded from the seed commit."""
    with gzip.open(REFERENCE, "rt") as fh:
        rows = (line.split("\t") for line in fh)
        return {g6: (int(ell), int(count)) for g6, ell, count in rows}


# ---------------------------------------------------------------------------
# corpus scans


@dataclass(frozen=True)
class ScanInputs:
    lines: tuple[str, ...]  # graph6 lines handed to scan_stream
    config: object  # lplab.harness.ScanConfig
    generated: dict[int, int]  # n -> connected graphs the generator returned


@dataclass(frozen=True)
class ScanWorkload:
    """A seeded, stratified sample of the connected corpus through scan_stream.

    The corpus is sorted by (n, m, graph6) and cut into ``sample`` equal
    blocks; one graph is drawn from each.  Neighbouring graphs cost about the
    same, so the sample's total cost varies little from seed to seed.  One
    operation scans the sample in chunks of ``chunk`` lines, one scan_stream
    call each, so that the benchmark can calibrate between calls; its output
    is the tuple of their reports.
    """

    orders: tuple[int, ...]  # corpus: connected graphs of these orders
    sample: int
    chunk: int
    k: int
    checks: Optional[tuple[str, ...]]  # None keeps the ScanConfig default
    pool_jobs: Optional[int]  # workers of the traced run's pool phase, if any

    def describe(self) -> str:
        orders = f"n={self.orders[0]}" if len(self.orders) == 1 else f"n<={max(self.orders)}"
        return (f"{self.sample} connected graphs ({orders}, stratified sample) "
                f"through scan_stream in chunks of {self.chunk}, k={self.k}, jobs=1")

    def prepare(self, seed: int) -> ScanInputs:
        corpus, generated = [], {}
        for n in self.orders:
            gs = harness.generate_connected_graphs(n)
            generated[n] = len(gs)
            corpus.extend(gs)
        keyed = sorted((g.n, g.m, graphs.encode_graph6(g)) for g in corpus)
        rng = random.Random(f"scan:{self.k}:{seed}")
        size = min(self.sample, len(keyed))
        picks = [
            keyed[rng.randrange(i * len(keyed) // size, (i + 1) * len(keyed) // size)][2]
            for i in range(size)
        ]
        rng.shuffle(picks)
        kwargs = {"k": self.k} if self.checks is None else {"k": self.k, "checks": self.checks}
        return ScanInputs(tuple(picks), harness.ScanConfig(**kwargs), generated)

    def run(self, inputs: ScanInputs, jobs: int = 1, pause=lambda: None) -> tuple:
        config = inputs.config
        if jobs != config.jobs:
            config = dataclasses.replace(config, jobs=jobs)
        reports = []
        for i in range(0, len(inputs.lines), self.chunk):
            if i:
                pause()
            reports.append(harness.scan_stream(inputs.lines[i:i + self.chunk], config))
        return tuple(reports)

    @staticmethod
    def conclusive(reports: tuple) -> tuple[int, int]:
        """(conclusive conjecture verdicts, verdicts attempted) of one operation."""
        scanned = sum(r.graphs_scanned for r in reports)
        return scanned - sum(r.incomplete_graphs for r in reports), scanned

    def verify(self, inputs: ScanInputs, outs: list, reference: dict) -> list[list[str]]:
        """Failure messages per operation, after one recorded jobs=1 check scan.

        The check scan records ell and the path count of every graph where
        scan_stream's callee looks up enumerate_longest_paths; the reports of
        each measured operation, whatever its worker count, must equal the
        check scan's reports.
        """
        recorded: dict[str, tuple[int, int]] = {}
        real = getattr(harness, "enumerate_longest_paths", None)

        def recording(g, *args, **kwargs):
            lps = real(g, *args, **kwargs)
            recorded[graphs.encode_graph6(g)] = (lps.length, len(lps.paths))
            return lps

        if real is not None:
            harness.enumerate_longest_paths = recording
        try:
            check = self.run(inputs)
        finally:
            if real is not None:
                harness.enumerate_longest_paths = real

        problems = [f"generator gave {count} connected graphs on {n} vertices"
                    for n, count in inputs.generated.items() if count != CONNECTED_COUNTS[n]]
        scanned = sum(r.graphs_scanned for r in check)
        if scanned != len(inputs.lines) or any(r.graphs_skipped_disconnected for r in check):
            problems.append(f"scanned {scanned} of {len(inputs.lines)} graphs")
        for r in check:
            if r.halted or r.failures:
                problems.append(f"{len(r.failures)} failure records, halted={r.halted}")
            for check_id, slot in sorted(r.tallies.items()):
                if slot.get("fail", 0):
                    problems.append(f"{slot['fail']} fail verdicts for {check_id}")
            if r.conjecture_status == "violation":
                problems.append("conjecture violation reported on n <= 8")
        for g6 in inputs.lines:
            if g6 not in recorded:
                # the scan no longer goes through harness.enumerate_longest_paths
                lps = longest.enumerate_longest_paths(graphs.parse_graph6(g6))
                recorded[g6] = (lps.length, len(lps.paths))
            if recorded[g6] != reference.get(g6):
                problems.append(f"{g6}: (ell, paths) = {recorded[g6]}, "
                                f"reference {reference.get(g6)}")
        expected = [r.to_json() for r in check]
        return [
            problems + ([] if [r.to_json() for r in out] == expected else
                        ["report differs from the jobs=1 check scan"])
            for out in outs
        ]


# ---------------------------------------------------------------------------
# the f > 0 witness


# H: the Petersen graph minus one vertex, with a pendant (9, 10, 11) on each of
# that vertex's three former neighbours.  42 longest paths of length 9, no
# vertex common to all of them.
H_EDGES = (
    (0, 1), (1, 2), (2, 3),  # what is left of the outer 5-cycle
    (0, 5), (1, 6), (2, 7), (3, 8),  # spokes
    (4, 6), (4, 7), (5, 7), (5, 8), (6, 8),  # inner pentagram
    (0, 9), (3, 10), (4, 11),  # pendants
)
H_ELL, H_PATHS = 9, 42

# Nine longest paths of H with no common vertex; f = 1.  No eight longest
# paths of H miss a common vertex, so k = 9 is the least k with a violation.
H_SYSTEM = (
    (10, 3, 2, 1, 6, 8, 5, 7, 4, 11),
    (9, 0, 5, 7, 2, 3, 8, 6, 4, 11),
    (9, 0, 1, 6, 4, 7, 5, 8, 3, 10),
    (9, 0, 1, 2, 7, 5, 8, 6, 4, 11),
    (9, 0, 1, 6, 8, 5, 7, 2, 3, 10),
    (9, 0, 1, 2, 7, 4, 6, 8, 3, 10),
    (9, 0, 1, 2, 3, 8, 5, 7, 4, 11),
    (9, 0, 5, 8, 3, 2, 1, 6, 4, 11),
    (9, 0, 5, 7, 4, 6, 1, 2, 3, 10),
)
H_SYSTEM_F = 1
H_LEAST_VIOLATING_K = 9


def gt_facts(t: int) -> tuple[int, int, int, int]:
    """(vertices, ell, longest paths, f) of G_t built from H_SYSTEM."""
    return 15 + 18 * t, 11 * (t + 1), 18, t + 1


@dataclass(frozen=True)
class FposInputs:
    graph: object  # lplab.graphs.Graph
    members: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FposWorkload:
    """The f > 0 regime, which no n <= 8 corpus graph reaches."""

    ks: tuple[int, ...]
    t_max: int

    def describe(self) -> str:
        return (f"H (12 vertices, 42 longest paths): check_conjecture for k="
                f"{self.ks[0]}..{self.ks[-1]}, check suite on a 9-member f=1 system, "
                f"build_gt and check suite for t=1..{self.t_max}")

    def prepare(self, seed: int) -> FposInputs:
        """H and its system, the same for every seed.

        Relabeling H by seed would change which k-subsets check_conjecture
        samples, and at k = 9 about one relabeling in seven finds a violation
        by chance; the incomplete share would then follow the seed, not the
        code.
        """
        return FposInputs(graphs.Graph.from_edges(12, H_EDGES), H_SYSTEM)

    @staticmethod
    def _suite(ps) -> list:
        reports = [bounds.check_lemma1(ps), bounds.check_lemma2(ps)]
        reports.extend(bounds.check_lemma3(ps))
        reports.append(bounds.check_theorem(ps))
        reports.append(bounds.surgery_trace(ps)[1])
        return reports

    def run(self, inputs: FposInputs, pause=lambda: None) -> dict:
        g = inputs.graph
        lps = longest.enumerate_longest_paths(g)
        out = {"ell": lps.length, "paths": len(lps.paths), "conjecture": {}}
        for k in self.ks:
            out["conjecture"][k] = harness.check_conjecture(g, k)
            pause()
        ps = systems.make_path_system(g, inputs.members, require_longest=True)
        out["f"] = systems.path_distance_value(ps)[0]
        out["suite"] = [(r.check_id, r.status) for r in self._suite(ps)]
        out["gt"] = {}
        for t in range(1, self.t_max + 1):
            res = construct.build_gt(g, ps, t)
            gt_lps = longest.enumerate_longest_paths(res.graph)
            ps_t = systems.certified_system(res.graph, res.system.paths, gt_lps.length)
            out["gt"][t] = {
                "facts": (res.graph.n, gt_lps.length, len(gt_lps.paths),
                          systems.path_distance_value(ps_t)[0]),
                "f_value": res.f_value,
                "suite": [(r.check_id, r.status) for r in self._suite(ps_t)],
            }
            pause()
        return out

    @staticmethod
    def conclusive(out: dict) -> tuple[int, int]:
        verdicts = out["conjecture"].values()
        return sum(v.status != "incomplete" for v in verdicts), len(out["conjecture"])

    def verify(self, inputs: FposInputs, outs: list, reference: dict) -> list[list[str]]:
        return [self._verify_one(inputs, out) for out in outs]

    def _verify_one(self, inputs: FposInputs, out: dict) -> list[str]:
        g = inputs.graph
        problems = []
        if (out["ell"], out["paths"]) != (H_ELL, H_PATHS):
            problems.append(f"H: (ell, paths) = {(out['ell'], out['paths'])}")
        for k, verdict in out["conjecture"].items():
            allowed = {"incomplete", "violation" if k >= H_LEAST_VIOLATING_K else "no-violation"}
            if verdict.status not in allowed:
                problems.append(f"conjecture k={k}: {verdict.status}")
            elif verdict.status == "violation":
                problems.extend(self._check_witness(g, k, verdict.witness))
        if out["f"] != H_SYSTEM_F:
            problems.append(f"f of the H system = {out['f']}")
        problems.extend(f"H system {cid}: fail" for cid, st in out["suite"] if st == "fail")
        for t, gt in out["gt"].items():
            if gt["facts"] != gt_facts(t) or gt["f_value"] != gt_facts(t)[3]:
                problems.append(f"G_{t}: (n, ell, paths, f) = {gt['facts']}, "
                                f"build_gt f = {gt['f_value']}, expected {gt_facts(t)}")
            problems.extend(f"G_{t} {cid}: fail" for cid, st in gt["suite"] if st == "fail")
        return problems

    @staticmethod
    def _check_witness(g, k: int, witness: dict) -> list[str]:
        """Re-verify a violation: k longest paths, no common vertex, f as stated."""
        members = witness["members"]
        try:
            ps = systems.make_path_system(g, members, require_longest=True)
        except UsageError as exc:
            return [f"conjecture k={k}: witness rejected: {exc}"]
        problems = []
        if len({tuple(m) for m in members}) != k:
            problems.append(f"conjecture k={k}: witness has {len(members)} members")
        if systems.common_vertices(ps):
            problems.append(f"conjecture k={k}: witness members share a vertex")
        if systems.path_distance_value(ps)[0] != witness["f"]:
            problems.append(f"conjecture k={k}: witness f = {witness['f']} is wrong")
        return problems


WORKLOADS = {
    "scan_lemma_k4": ScanWorkload(orders=(8,), sample=120, chunk=20, k=4, checks=None,
                                  pool_jobs=2),
    "scan_enum_k3": ScanWorkload(orders=tuple(range(1, 9)), sample=1100, chunk=110, k=3,
                                 checks=("theorem",), pool_jobs=None),
    "fpos_witness": FposWorkload(ks=tuple(range(3, 10)), t_max=4),
}
