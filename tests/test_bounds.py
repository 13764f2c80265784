from __future__ import annotations

import collections
import itertools
import json
import random
from fractions import Fraction

import pytest

from lplab.bounds import (
    D3_UPPER,
    D4_UPPER,
    D7_LOWER,
    CheckReport,
    check_corollary1,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_theorem,
    frac_str,
    general_ratio_bound,
    lemma1_rhs,
    ratio_table,
    DEFAULT_CHECKS,
    run_checks,
    surgery_trace,
    theorem_bound,
    theorem_bound_parts,
)
from lplab import bounds, systems
from lplab.errors import UsageError
from lplab.graphs import Graph, encode_graph6
from lplab.longest import enumerate_longest_paths, is_path
from lplab.harness import ScanConfig, iter_ksubsets
from lplab.systems import certified_system, enumerate_good_paths, make_path_system
from conftest import H_GRAPH6, H_SYSTEM
from oracles import (
    good_path_bounds_oracle,
    good_paths_oracle,
    max_edge_disjoint_oracle,
    x_low_sizes_oracle,
)


@pytest.fixture
def k13_system(k13):
    return make_path_system(k13, [[1, 0, 2], [1, 0, 3], [2, 0, 3]], require_longest=True)


@pytest.fixture
def k14_system():
    """Four of the six longest paths of the star K_{1,4}, center 0."""
    k14 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    return make_path_system(
        k14, [[1, 0, 2], [1, 0, 3], [1, 0, 4], [2, 0, 3]], require_longest=True
    )


class TestFormulas:
    def test_lemma1_rhs_values(self):
        assert lemma1_rhs(3, 4, [2]) == Fraction(17, 2)
        assert lemma1_rhs(3, 0, [0]) == Fraction(3, 2)
        assert lemma1_rhs(4, 3, [0, 0]) == Fraction(16, 3)

    def test_lemma1_rhs_validation(self):
        with pytest.raises(UsageError):
            lemma1_rhs(2, 4, [])
        with pytest.raises(UsageError):
            lemma1_rhs(3, 4, [1, 2])
        with pytest.raises(UsageError):
            lemma1_rhs(3, -1, [0])
        with pytest.raises(UsageError):
            lemma1_rhs(3, 4, [-1])

    def test_theorem_bound_values(self):
        assert theorem_bound(3, 30) == Fraction(4)
        assert theorem_bound(4, 16) == Fraction(11, 4)
        parts = theorem_bound_parts(4, 16)
        assert parts["general"] == Fraction(33, 8)
        assert parts["k4"] == Fraction(11, 4)

    def test_theorem_bound_k3_closed_form(self):
        # at k = 3 the general formula collapses to 2n / 15
        for n in range(1, 40):
            assert theorem_bound(3, n) == Fraction(2 * n, 15)

    def test_k4_part_never_worse(self):
        for n in range(2, 60):
            parts = theorem_bound_parts(4, n)
            assert parts["k4"] <= parts["general"]
            assert theorem_bound(4, n) == parts["k4"]

    def test_validation(self):
        for fn in (theorem_bound, theorem_bound_parts):
            with pytest.raises(UsageError):
                fn(2, 10)
            with pytest.raises(UsageError):
                fn(3, 0)
        with pytest.raises(UsageError):
            general_ratio_bound(2)

    def test_ratio_table(self):
        rows = ratio_table(7)
        by_k = {r["k"]: r for r in rows}
        assert by_k[3]["upper"] == D3_UPPER == Fraction(1, 17)
        assert by_k[4]["upper"] == D4_UPPER == Fraction(3, 16)
        assert by_k[5]["upper"] == Fraction(24, 55)
        assert by_k[7]["lower"] == D7_LOWER == Fraction(1, 17)
        assert by_k[6]["lower"] == Fraction(0)
        with pytest.raises(UsageError):
            ratio_table(2)


def test_check_names():
    assert bounds.check_names("theorem,lemma1") == ("theorem", "lemma1")
    assert bounds.check_names(("cor1",)) == ("cor1",)
    assert bounds.check_names(None) == bounds.check_names("") == DEFAULT_CHECKS
    with pytest.raises(UsageError, match=r"^unknown checks: \['bogus', 'x'\]$"):
        bounds.check_names("x,lemma2,bogus")
    with pytest.raises(UsageError, match="unknown checks"):
        ScanConfig(checks=("lemma1", "lemma4"))


class TestCheckReport:
    def test_fail_requires_witness(self):
        with pytest.raises(UsageError):
            CheckReport("x", {}, "fail")

    def test_bad_status(self):
        with pytest.raises(UsageError):
            CheckReport("x", {}, "maybe")

    def test_json_serializable(self, k13_system):
        rep = check_theorem(k13_system)
        blob = json.dumps(rep.to_json())
        assert '"lplab-report/2"' in blob
        assert frac_str(Fraction(3, 2)) == "3/2"
        assert frac_str(None) is None


class TestInstanceChecks:
    def test_lemma1_vacuous_at_f0(self, k13_system):
        assert check_lemma1(k13_system).status == "vacuous"

    def test_lemma2_pass_at_f0(self, k13_system):
        rep = check_lemma2(k13_system)
        assert rep.status == "pass"
        assert rep.witness == {"t_prime": [3, 3, 3]}

    def test_lemma2_fail_at_t_prime_1_with_f_positive(self, k13_system):
        # no certified system the tests reach has t' = 1 and f > 0 (Lemma 2
        # rules it out); both facts are cached values in the instance dict
        vars(k13_system)["path_distance"] = (1, frozenset({0}))
        vars(k13_system)["t_primes"] = (3, 1, 3)
        rep = check_lemma2(k13_system)
        assert (rep.status, rep.lhs, rep.rhs) == ("fail", 1, 0)
        witness = {"t_prime": [3, 1, 3], "f": 1, "minimizers": [0]}
        assert rep.witness == witness
        assert json.loads(json.dumps(rep.to_json()))["witness"] == witness

    def test_good_path_bound_vacuous_without_good_subpaths(self, k13_system):
        # with no good subpath on any host, part (i) bounds nothing, and
        # part (ii) asks |X| >= 0 of each host
        vars(k13_system)["good_summaries"] = (systems.GoodSummary(None, 0),) * 3
        rep_i, rep_ii = check_lemma3(k13_system)
        assert (rep_i.check_id, rep_i.status, rep_i.lhs, rep_i.rhs) == (
            "lemma3i", "vacuous", None, None)
        assert rep_ii.status == "pass" and rep_ii.rhs == 0

    def test_two_members_rejected(self, k13):
        ps = make_path_system(k13, [[1, 0, 2], [1, 0, 3]], require_longest=True)
        assert ps.longest_certified and run_checks(ps, DEFAULT_CHECKS) == []
        for check in (check_lemma1, check_lemma2, check_lemma3, check_theorem):
            with pytest.raises(UsageError, match="needs k >= 3, got 2"):
                check(ps)

    def test_lemma3_star(self, k13_system):
        rep_i, rep_ii = check_lemma3(k13_system)
        assert rep_i.check_id == "lemma3i" and rep_i.status == "pass"
        assert rep_i.lhs == 0
        assert rep_ii.check_id == "lemma3ii" and rep_ii.status == "pass"
        # rhs at f = 0 is t' * (-1) <= 0, so the size bound is trivially met
        assert rep_ii.rhs < 0

    def test_corollary1_star(self, k14_system):
        rep_i, rep_ii = check_corollary1(k14_system)
        assert rep_i.check_id == "cor1i" and rep_i.status == "pass"
        assert rep_ii.check_id == "cor1ii" and rep_ii.status == "pass"

    def test_corollary1_needs_k4(self, k13_system):
        with pytest.raises(UsageError):
            check_corollary1(k13_system)

    def test_theorem_ids(self, k13_system, k14_system):
        assert check_theorem(k13_system).check_id == "thm3"
        rep = check_theorem(k14_system)
        assert rep.check_id == "thm2"
        assert rep.status == "pass"
        assert rep.witness["bound_k4"] is not None

    def test_uncertified_rejected(self, p4):
        ps = make_path_system(p4, [[0, 1], [1, 2], [2, 3]], require_longest=False)
        for check in (check_lemma1, check_lemma2, check_lemma3, check_theorem):
            with pytest.raises(UsageError):
                check(ps)

    def test_all_checks_pass_on_certified_corpus(self, corpus_by_n):
        statuses = set()
        for g in corpus_by_n[5]:
            lps = enumerate_longest_paths(g)
            if len(lps.paths) < 3:
                continue
            for combo in itertools.combinations(lps.paths, 3):
                ps = certified_system(g, combo, lps.length)
                reports = [
                    check_lemma1(ps),
                    check_lemma2(ps),
                    *check_lemma3(ps),
                    check_theorem(ps),
                ]
                for rep in reports:
                    statuses.add(rep.status)
                    assert rep.status != "fail", rep.to_json()
        assert "pass" in statuses


class TestSharedFacts:
    """The checks of one system read its cached facts; none recomputes them."""

    @pytest.mark.parametrize("k", [4, 9])
    def test_each_fact_computed_once(self, monkeypatch, h_graph, k):
        if k == 9:
            ps = make_path_system(h_graph, H_SYSTEM, require_longest=True)
        else:
            lps = enumerate_longest_paths(h_graph)
            ps = certified_system(h_graph, lps.paths[:k], lps.length)
        calls = {"goods": 0, "summary": 0, "f": 0}

        def counting(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            systems, "enumerate_good_paths", counting("goods", systems.enumerate_good_paths)
        )
        monkeypatch.setattr(
            systems, "_good_summary", counting("summary", systems._good_summary)
        )
        monkeypatch.setattr(
            systems, "path_distance_value", counting("f", systems.path_distance_value)
        )
        reports = run_checks(ps, DEFAULT_CHECKS) + [surgery_trace(ps)[1]]
        expected = {"lemma1", "lemma2", "lemma3i", "lemma3ii", "surgery"}
        expected |= {"cor1i", "cor1ii", "thm2"} if k == 4 else {"thm3"}
        assert {r.check_id for r in reports} == expected
        # the lemmas read one summary per host; the surgery builds the GoodPath
        # list of its own host only, and at k = 4 it is vacuous (f = 0)
        f = ps.path_distance[0]
        assert (k, f) in ((4, 0), (9, 1))
        assert calls == {"goods": int(f > 0), "summary": k, "f": 1}

    def test_graph6_encoded_once(self, monkeypatch, h_graph):
        lps = enumerate_longest_paths(h_graph)
        ps = certified_system(h_graph, lps.paths[:4], lps.length)
        calls = 0
        encode = systems.encode_graph6

        def counting(g):
            nonlocal calls
            calls += 1
            return encode(g)

        monkeypatch.setattr(systems, "encode_graph6", counting)
        reports = run_checks(ps, DEFAULT_CHECKS) + [surgery_trace(ps)[1]]
        assert len(reports) == 8
        assert all(r.instance["graph6"] == H_GRAPH6 for r in reports)
        assert calls == 1


def _random_connected(rng: random.Random, n: int) -> Graph:
    """A random spanning tree on n vertices plus random extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    p = rng.uniform(0.05, 0.4)
    edges |= {e for e in itertools.combinations(range(n), 2) if rng.random() < p}
    return Graph.from_edges(n, sorted(edges))


# f values stored over the computed one (None keeps it), so that systems of
# small graphs reach the f > 0 verdicts, passing and failing
FORCED_F = (None, 0, 1, 2, 3, 5, 9)


def _forced_systems(seed: int, count: int):
    """(graph, members, ell, forced f) of count random certified systems:
    n = 4..14, k = 3..6, up to five systems per graph."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        g = _random_connected(rng, rng.randint(4, 14))
        lps = enumerate_longest_paths(g, cap=30)
        for _ in range(5):
            k = rng.randint(3, 6)
            if len(lps.paths) < k or made == count:
                continue
            picked = sorted(rng.sample(range(len(lps.paths)), k))
            yield g, [lps.paths[i] for i in picked], lps.length, rng.choice(FORCED_F)
            made += 1


def _summary_oracle(goods) -> systems.GoodSummary:
    """The least |V(Q)| and t' of one host's good subpaths, from their list."""
    least = min((q.n_vertices for q in goods), default=None)
    return systems.GoodSummary(least, max_edge_disjoint_oracle(goods))


def _n_le_6_systems(corpus_by_n) -> list:
    """Every system of the default lemma samples of the n <= 6 scans,
    k = 3..6 (the scan itself tallies them from their common vertex)."""
    seen = []
    config = ScanConfig()
    for k in range(3, 7):
        for g in (g for n in range(1, 7) for g in corpus_by_n[n]):
            lps = enumerate_longest_paths(g, cap=config.path_cap)
            if len(lps) < k:
                continue
            for subset in iter_ksubsets(
                len(lps), k, config.lemma_subset_cap, config.seed,
                f"lemma:{encode_graph6(g)}:{k}",
            ):
                seen.append(certified_system(g, [lps.paths[i] for i in subset], lps.length))
    return seen


class TestGoodSummaries:
    """The one-pass per-host facts against the GoodPath lists, the
    exhaustive t' and the union of the multiplicity classes."""

    @staticmethod
    def _assert_facts(ps):
        goods = [enumerate_good_paths(ps, h) for h in range(ps.k)]
        assert ps.good_summaries == tuple(map(_summary_oracle, goods))
        assert ps.x_low_sizes == tuple(x_low_sizes_oracle(ps))

    def test_forced_systems(self):
        for g, members, ell, _ in _forced_systems(7, 600):
            self._assert_facts(certified_system(g, members, ell))

    def test_n_le_6_scan_systems(self, corpus_by_n):
        found = _n_le_6_systems(corpus_by_n)
        assert {ps.k for ps in found} == {3, 4, 5, 6} and len(found) > 1000
        for ps in found:
            self._assert_facts(ps)


class TestAgainstOracles:
    """The good-subpath scan and the integer Lemma 3 / Corollary 1 checker
    against the quadratic scan and the Fraction checker they replaced."""

    @staticmethod
    def _system(g, members, ell, forced):
        ps = certified_system(g, members, ell)
        if forced is not None:
            ps.__dict__["path_distance"] = (forced, ps.path_distance[1])
        return ps

    @staticmethod
    def _suite(ps) -> tuple[str, list]:
        reports = run_checks(ps, DEFAULT_CHECKS)
        trace, surgery = surgery_trace(ps)
        payload = {
            "reports": [r.to_json() for r in reports + [surgery]],
            "surgery_trace": trace.to_json() if trace else None,
        }
        return json.dumps(payload, sort_keys=True), reports

    def test_random_forced_systems(self, monkeypatch):
        verdicts = collections.Counter()
        for g, members, ell, forced in _forced_systems(2024, 1500):
            ps = self._system(g, members, ell, forced)
            ref = self._system(g, members, ell, forced)
            goods = [tuple(good_paths_oracle(ref, h)) for h in range(ref.k)]
            ref.__dict__["_good_paths"] = goods
            ref.__dict__["good_summaries"] = tuple(map(_summary_oracle, goods))
            ref.__dict__["x_low_sizes"] = tuple(x_low_sizes_oracle(ref))
            got, reports = self._suite(ps)
            assert ps.good_summaries == ref.good_summaries
            assert ps.x_low_sizes == ref.x_low_sizes
            assert [ps.good_paths(h) for h in range(ps.k)] == goods
            with monkeypatch.context() as m:
                m.setattr(bounds, "_check_good_path_bounds", good_path_bounds_oracle)
                want, _ = self._suite(ref)
            assert got == want
            verdicts.update((r.check_id, r.status) for r in reports)
        for check_id in ("lemma3i", "lemma3ii", "cor1i", "cor1ii"):
            for status in ("pass", "fail"):
                assert verdicts[check_id, status] >= 30, (check_id, status, verdicts)


class TestSurgery:
    def test_vacuous_at_f0(self, k13_system):
        trace, rep = surgery_trace(k13_system)
        assert trace is None
        assert rep.status == "vacuous" and rep.witness == {"f": 0}

    def test_relaxed_replay(self):
        g = Graph.from_edges(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (1, 7), (7, 5), (8, 3), (3, 9), (9, 5), (2, 6)],
        )
        members = [[0, 1, 2, 3, 4], [1, 7, 5], [8, 3, 9, 5], [2, 6]]
        ps = make_path_system(g, members, require_longest=False)
        trace, rep = surgery_trace(ps, host_index=0)
        assert rep.status == "pass" and rep.witness == {"mode": "relaxed"}
        assert trace is not None
        assert (trace.q_start, trace.q_end) == (1, 3)
        assert trace.pair == (1, 2)
        assert trace.r_vertices == (1, 7, 5) and trace.x == 5
        assert (trace.u2, trace.v2) == (8, 5)
        assert trace.s1 == (5, 9, 3, 2, 1, 7)
        assert trace.s2 == (8, 3, 2, 1, 7, 5)
        assert trace.s3 == (8, 3, 9, 5, 7, 1, 2)
        for s in (trace.s1, trace.s2, trace.s3):
            assert is_path(g, s)

    def test_inapplicable_reports_vacuous(self, p7):
        # widely separated stubs admit no good subpath, so no surgery applies
        ps = make_path_system(p7, [[0, 1], [1, 2], [5, 6]], require_longest=False)
        trace, rep = surgery_trace(ps, host_index=0)
        assert trace is None
        assert rep.status == "vacuous"
        assert rep.witness["reason"] == "construction inapplicable"

    def test_host_index_range(self, k13_system):
        with pytest.raises(UsageError):
            surgery_trace(k13_system, host_index=5)

    def test_k_guard(self, p4):
        ps = make_path_system(p4, [[0, 1], [1, 2]], require_longest=False)
        with pytest.raises(UsageError):
            surgery_trace(ps)
