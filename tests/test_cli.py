from __future__ import annotations

import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

import lplab
import lplab.longest
import lplab.systems
from lplab import cli as cli_module, harness
from lplab.cli import EXIT_BROKEN_PIPE, EXIT_FINDING, EXIT_OK, EXIT_USAGE, cli, load_graph
from lplab.errors import FormatError
from lplab.graphs import Graph, encode_graph6, parse_graph6
from lplab.longest import longest_path_length
from conftest import C4_EDGE_PATHS, H_GRAPH6, cap_searches
from oracles import format_edge_list

# sha256 of the bytes that `lplab verify G --k 4 --subset-cap 40` writes: for
# H, which has no spanning path, and for two graphs whose 120 and 20,160
# longest paths are spanning, counted and then walked out on the first read
# (recorded at report schema 2; they differ from the schema 1 bytes, recorded
# while verify still enumerated every longest path, in the schema string only)
VERIFY_H_K4_SHA256 = "05892bd8d544e64e3e87421983ffb57e09ef295f7d18ed1a25e033ccfbb3e9fd"
VERIFY_K4_SHA256 = {
    "IheA@GUAo": "b4468b1635c1786fa157d51564de11e3d07d03ee88c90d7c84034dc75e921f8b",  # Petersen
    "G~~~~{": "0edc98bfeace3d1373df9def082a8a187938e454d4464b5d75cc7eb1979b9c57",  # K8
}


class TestLoadGraph:
    def test_inline_graph6(self):
        assert load_graph("Ch").n == 4

    def test_edge_list_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 3\n0 1\n1 2\n2 3\n")
        g = load_graph(str(path))
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_graph6_file(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("\nCs\nCh\n")
        assert load_graph(str(path)).degree(0) == 3  # first nonempty line wins

    def test_bad_inline(self):
        with pytest.raises(FormatError):
            load_graph("!!nope!!")


class TestBounds:
    def test_point_bound(self, capsys):
        assert cli(["bounds", "--k", "4", "--n", "16"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "f <= 11/4 (2.75)" in out
        assert "general-k formula gives 33/8" in out

    def test_table(self, capsys):
        assert cli(["bounds", "--table", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "k=3: d_k <= 1/17" in out
        assert "k=4: d_k <= 3/16" in out
        assert "k=5: d_k <= 24/55" in out
        assert "k=7" in out and "lower bound 1/17" in out

    def test_missing_args(self, capsys):
        assert cli(["bounds"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err


class TestAnalyze:
    def test_star(self, capsys):
        assert cli(["analyze", "Cs"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n = 4, m = 3" in out
        assert "ell(G) = 2" in out
        assert "|L(G)| = 3" in out
        assert "common vertices of all longest paths: [0]" in out
        assert "no-violation" in out

    def test_bad_graph(self, capsys):
        assert cli(["analyze", "zz!!zz"]) == EXIT_USAGE

    def test_pairwise_verdict_without_common_vertex(self, capsys):
        # H's 42 longest paths share no vertex, yet every two of them meet
        assert cli(["analyze", H_GRAPH6]) == EXIT_OK
        out = capsys.readouterr().out
        assert "common vertices of all longest paths: []" in out
        assert "pairwise intersection: holds" in out

    def test_verdict_wording(self, capsys):
        assert cli(["analyze", "Cs"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "k = 3: no-violation (1/1 subsets, via common-vertex shortcut)\n" in out
        # H: every 8 longest paths meet, some 9 do not
        assert cli(["analyze", H_GRAPH6, "--k", "8"]) == EXIT_OK
        assert re.search(r"k = 8: no-violation \(\d+ search nodes\)\n", capsys.readouterr().out)
        assert cli(["analyze", H_GRAPH6, "--k", "9"]) == EXIT_FINDING
        out = capsys.readouterr().out
        assert re.search(r"k = 9: violation \(\d+ search nodes\)\n", out)
        assert '"member_indices": [24, 25, 26, 27, 29, 31, 32, 33, 37]' in out
        # a truncated list that shares a vertex settles only its own subsets
        # (three K5 blocks on a cut vertex, ell = 8 < n - 1)
        assert cli(["analyze", "L~}CKMF_C?oB_F", "--path-cap", "10"]) == EXIT_OK
        assert (
            "k = 3: incomplete (120 subsets of the first 10 longest paths, "
            "via common-vertex shortcut)\n"
        ) in capsys.readouterr().out

    @pytest.mark.parametrize(
        "g6",
        (
            H_GRAPH6,  # H's 42 longest paths share no vertex
            "L~}CKMF_C?oB_F",  # its 1,728 longest paths share vertex 0 only
        ),
    )
    def test_truncated_list_speaks_for_the_listed_paths(self, g6, capsys):
        # the first 10 longest paths share vertices 0..8, which says nothing
        # of the paths past the cap
        assert cli(["analyze", g6, "--k", "3", "--path-cap", "10"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:5] == [
            "|L(G)| = 10 (truncated)",
            "pairwise intersection of the first 10 longest paths: holds",
            "common vertices of the first 10 longest paths: [0, 1, 2, 3, 4, 5, 6, 7, 8]",
        ]

    def test_truncated_spanning_list_speaks_for_all(self, capsys):
        # K11: every longest path, past the cap too, holds every vertex
        assert cli(["analyze", "J~~~~~~~~~_", "--k", "3", "--path-cap", "10"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:5] == [
            "|L(G)| = 10 (truncated)",
            "pairwise intersection: holds",
            "common vertices of all longest paths: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]",
        ]

    def test_pairwise_failure(self, capsys, monkeypatch):
        # C4_EDGE_PATHS as the longest paths of C4: edges 1-2 and 0-3 are
        # disjoint (recorded before the pairwise check went through
        # check_conjecture)
        monkeypatch.setattr(
            cli_module, "enumerate_longest_paths", lambda *args, **kwargs: C4_EDGE_PATHS
        )
        assert cli(["analyze", "Cl"]) == EXIT_FINDING
        assert (
            "pairwise intersection: fails, longest paths 1 and 3 are disjoint: [1, 2] [0, 3]\n"
        ) in capsys.readouterr().out

    def test_pairwise_at_k2_reads_the_k_verdict(self, capsys, monkeypatch):
        # at k = 2 the k verdict is the pairwise answer: one cover search at
        # demand 1
        calls = 0
        search = harness.demand_cover

        def counted(rows, demand, *args):
            nonlocal calls
            calls += demand == 1
            return search(rows, demand, *args)

        monkeypatch.setattr(harness, "demand_cover", counted)
        assert cli(["analyze", H_GRAPH6, "--k", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pairwise intersection: holds\n" in out
        assert "k = 2: no-violation (7 search nodes)\n" in out
        assert calls == 1
        monkeypatch.setattr(
            cli_module, "enumerate_longest_paths", lambda *args, **kwargs: C4_EDGE_PATHS
        )
        assert cli(["analyze", "Cl", "--k", "2"]) == EXIT_FINDING
        out = capsys.readouterr().out
        assert (
            "pairwise intersection: fails, longest paths 1 and 3 are disjoint: [1, 2] [0, 3]\n"
        ) in out
        assert '"member_indices": [1, 3]' in out
        assert calls == 2

    def test_no_violation_settles_max_f(self, capsys, monkeypatch):
        # every 3 of H's 42 longest paths meet: the demand-1 search on their
        # 42 BFS rows settles max f, with no climb; the star's longest paths
        # share its centre, so it runs no BFS at all
        sources = []
        bfs = harness.bfs_distances

        def counted(g, source):
            sources.append(source)
            return bfs(g, source)

        monkeypatch.setattr(harness, "bfs_distances", counted)
        assert cli(["analyze", H_GRAPH6, "--k", "3"]) == EXIT_OK
        assert "max f over every 3-subset: 0\n" in capsys.readouterr().out
        assert len(sources) == 42
        sources.clear()
        assert cli(["analyze", "Cs"]) == EXIT_OK
        assert "max f over every 3-subset: 0\n" in capsys.readouterr().out
        assert sources == []

    def test_violation_climbs_to_max_f(self, capsys, monkeypatch, h_g1):
        # from the witness's f, the cover searches climb to the greatest f
        # over every k-subset: 2 for G_1 of H at k = 9, and for H at k = 18
        argv = ["analyze", encode_graph6(h_g1), "--k", "9"]
        assert cli(argv) == EXIT_FINDING
        assert capsys.readouterr().out.endswith("max f over every 9-subset: 2\n")
        assert cli(["analyze", H_GRAPH6, "--k", "18"]) == EXIT_FINDING
        assert capsys.readouterr().out.endswith("max f over every 18-subset: 2\n")
        # a climb cut by a node cap of 2 gives a lower bound
        cap_searches(monkeypatch, 2, min_demand=2)
        assert cli(["analyze", H_GRAPH6, "--k", "18"]) == EXIT_FINDING
        assert re.search(r"max f over every 18-subset: at least [12]\n$", capsys.readouterr().out)

    def test_spanning_paths_counted_not_built(self, capsys, monkeypatch):
        # K11's longest paths are all spanning: analyze counts them, and the
        # truncated count still settles every 3-subset
        stops = []
        count = lplab.longest._count_spanning

        def counted(g, stop):
            stops.append(stop)
            return count(g, stop)

        monkeypatch.setattr(lplab.longest, "_count_spanning", counted)
        assert cli(["analyze", "J~~~~~~~~~_", "--k", "3"]) == EXIT_OK
        assert stops == [100_001]
        lines = capsys.readouterr().out.splitlines()
        assert "|L(G)| = 100000 (truncated)" in lines
        # C(100000, 3) is not the subset total: K11 has 11!/2 longest paths
        assert (
            "k = 3: no-violation (every 3-subset of more than 100000 longest paths, "
            "via common-vertex shortcut)"
        ) in lines
        assert "max f over every 3-subset: 0" in lines

    def test_subset_cap_rejected(self, capsys):
        # max f reads every subset, so analyze has no sample to cap
        with pytest.raises(SystemExit) as exc:
            cli(["analyze", "Cs", "--subset-cap", "10"])
        assert exc.value.code == EXIT_USAGE

    def test_out_rejected(self, tmp_path, capsys):
        # analyze prints its summary and has no file output
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            cli(["analyze", "Cs", "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert not out.exists()


def _no_enumeration(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("enumerated before the arguments were checked")

    monkeypatch.setattr(lplab.longest, "_walk", fail)
    monkeypatch.setattr(cli_module, "enumerate_longest_paths", fail)
    monkeypatch.setattr(lplab.systems, "longest_path_length", fail)


class TestBadArguments:
    # a k or subset cap that gives no answer or a partial one is refused
    # before any enumeration and before anything reaches stdout
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "C~", "--k", "0"], "k must be >= 2, got 0"),
            (["analyze", "C~", "--k", "1"], "k must be >= 2, got 1"),
            (["verify", "C~", "--k", "4", "--subset-cap", "0"], "subset_cap must be >= 1, got 0"),
            (["verify", "C~", "--k", "0"], "k must be >= 3, got 0"),
            (["verify", "C~", "--k", "1"], "k must be >= 3, got 1"),
            (["verify", "C~", "--k", "2"], "k must be >= 3, got 2"),
            (["verify", "C~", "--subset-cap", "0"], "subset_cap must be >= 1, got 0"),
        ],
    )
    def test_rejected(self, argv, message, capsys, monkeypatch):
        _no_enumeration(monkeypatch)
        assert cli(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "jobs_flag, env, message",
        [
            (["--jobs", "0"], None, "jobs must be >= 1, got 0"),
            (["--jobs", "-3"], None, "jobs must be >= 1, got -3"),
            # an LPLAB_JOBS in the environment is not read
            (["--jobs", "0"], "abc", "jobs must be >= 1, got 0"),
        ],
    )
    def test_search_jobs_rejected(self, jobs_flag, env, message, capsys, monkeypatch):
        # refused before the corpus is generated, never run on one worker
        def fail(*args, **kwargs):
            raise AssertionError("generated a corpus before the arguments were checked")

        monkeypatch.setattr(cli_module, "generate_connected_graphs", fail)
        if env is None:
            monkeypatch.delenv("LPLAB_JOBS", raising=False)
        else:
            monkeypatch.setenv("LPLAB_JOBS", env)
        assert cli(["search", "--gen-n", "4", *jobs_flag]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"lplab: error: {message}\n"

    def test_jobs_env_ignored(self, capsys, monkeypatch, tmp_path):
        # --jobs is the one way to set the worker count
        monkeypatch.setenv("LPLAB_JOBS", "abc")
        assert cli(["bounds", "--n", "5"]) == EXIT_OK
        out = tmp_path / "report.json"
        assert cli(["search", "--gen-n", "4", "--out", str(out)]) == EXIT_OK
        assert "scanned 6 graphs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "A?"],
            ["verify", "A?", "--k", "3"],
            ["construct", "A?", "--paths", "longest", "--t", "1"],
            ["construct", "A?", "--paths", "[[0], [1]]", "--t", "1"],
        ],
    )
    def test_disconnected_graph_rejected(self, argv, capsys, monkeypatch):
        # refused when the graph is loaded, in words that name no function
        _no_enumeration(monkeypatch)
        assert cli(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "lplab: error: the graph is disconnected; lplab needs a connected graph\n"
        )

    def test_disconnected_edge_list_rejected(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("4 2\n0 1\n2 3\n")
        assert cli(["analyze", str(path)]) == EXIT_USAGE
        assert "disconnected" in capsys.readouterr().err

    def test_verify_k_wording_matches_bounds(self, capsys):
        assert cli(["bounds", "--k", "2", "--n", "5"]) == EXIT_USAGE
        bounds_err = capsys.readouterr().err
        assert cli(["verify", "C~", "--k", "2"]) == EXIT_USAGE
        assert capsys.readouterr().err == bounds_err


class TestDeepWalk:
    """A longest path past Python's recursion limit is refused as a usage
    error (exit 2), not a crash with the exit code of a finding."""

    @staticmethod
    def _graph(n: int, cycle: bool) -> Graph:
        return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n - (not cycle))])

    @pytest.mark.parametrize("cycle", [False, True], ids=["P1500", "C1500"])
    def test_analyze_refuses(self, tmp_path, capsys, cycle):
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(self._graph(1500, cycle)))
        assert cli(["analyze", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = sys.getrecursionlimit()
        assert re.fullmatch(f"lplab: error: [^\n]*recursion limit of {limit}[^\n]*\n", captured.err)

    def test_search_file_refuses(self, tmp_path, capsys):
        path = tmp_path / "deep.g6"
        path.write_text(f"Ch\n{encode_graph6(self._graph(1500, False))}\n")
        assert cli(["search", "--file", str(path)]) == EXIT_USAGE
        assert "recursion limit" in capsys.readouterr().err

    def test_p500_walks(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(self._graph(500, False)))
        assert cli(["analyze", str(path)]) == EXIT_OK
        assert "ell(G) = 499\n|L(G)| = 1\n" in capsys.readouterr().out


class TestVerify:
    def test_star_reports(self, capsys):
        assert cli(["verify", "Cs"]) == EXIT_OK
        reports = json.loads(capsys.readouterr().out)
        assert reports
        assert {r["check"] for r in reports} >= {"lemma1", "lemma2", "thm3"}
        assert all(r["status"] != "fail" for r in reports)

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "reports.json"
        assert cli(["verify", "Ch", "--out", str(out)]) == EXIT_OK
        # P4 has a single longest path, so there are no 3-subsets to check
        assert json.loads(out.read_text()) == []

    def test_unknown_check(self, capsys):
        assert cli(["verify", "Cs", "--checks", "lemma1,bogus"]) == EXIT_USAGE
        assert "unknown checks: ['bogus']" in capsys.readouterr().err

    def test_truncated_path_list_named_on_stderr(self, capsys):
        # K5 has 60 longest paths; the subsets come from the first 5
        assert cli(["verify", "D~{", "--k", "3", "--path-cap", "5"]) == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)
        assert captured.err == (
            "lplab: --path-cap 5 truncated the longest paths; "
            "subsets are drawn from the first 5\n"
        )

    def test_h_report_bytes_pinned(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        argv = ["verify", H_GRAPH6, "--k", "4", "--subset-cap", "40"]
        assert cli(argv + ["--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_H_K4_SHA256
        assert cli(argv) == EXIT_OK
        assert capsys.readouterr().out.encode() == out.read_bytes()

    @pytest.mark.parametrize("g6", sorted(VERIFY_K4_SHA256))
    def test_spanning_report_bytes_pinned(self, g6, tmp_path, capsys):
        out = tmp_path / "verify.json"
        argv = ["verify", g6, "--k", "4", "--subset-cap", "40", "--out", str(out)]
        assert cli(argv) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_K4_SHA256[g6]

    def test_full_path_list_quiet_on_stderr(self, capsys):
        assert cli(["verify", "D~{", "--k", "3"]) == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)
        assert captured.err == ""


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    """A reader that closes stdout early is not a usage error: the command
    exits 141 (128 + SIGPIPE) and says nothing on stderr."""

    def test_in_process(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert cli(["verify", "Cs"]) == EXIT_BROKEN_PIPE
        assert capsys.readouterr().err == ""

    def test_pipe_closed_after_first_line(self):
        # the H report is about 244 KB, well past a 64 KiB pipe buffer, so
        # the writer meets the closed pipe while it writes
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lplab.__file__)))
        argv = [sys.executable, "-m", "lplab.cli", "verify", H_GRAPH6, "--k", "4", "--subset-cap", "40"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            assert proc.stdout.readline() == b"[\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert err == b""


class TestSearch:
    def test_unknown_check(self, capsys):
        assert cli(["search", "--gen-n", "3", "--checks", "bogus,theorem"]) == EXIT_USAGE
        assert "unknown checks: ['bogus']" in capsys.readouterr().err

    def test_generated_corpus(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = cli(["search", "--gen-n", "5", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "scanned 21 graphs" in captured.err
        report = json.loads(out.read_text())
        assert report["schema"] == "lplab-report/2"
        assert report["graphs_scanned"] == 21
        assert report["conjecture"]["status"] == "no-violation"
        assert report["failures"] == []
        assert "wall_time" not in report

    def test_generation_line(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert cli(["search", "--gen-n", "5", "--out", str(out)]) == EXIT_OK
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert re.fullmatch(
            r"lplab: generated 21 connected graphs on 5 vertices in \d+\.\d\ds", lines[0]
        )
        assert lines[1].startswith("lplab: scanned 21 graphs")
        assert re.search(
            r", 0 lemma systems checked, 132 implied by a common vertex, \d+\.\d\ds$",
            lines[1],
        )

    def test_theorem_only_summary(self, capsys, tmp_path):
        # each spanning count stops at k; the report holds one theorem
        # verdict per graph
        out = tmp_path / "report.json"
        argv = ["search", "--gen-n", "7", "--k", "3", "--checks", "theorem", "--out", str(out)]
        assert cli(argv) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "52c8452d8f1ede0786ada33cdb7b2d13ab45e131cd7937a29fe5dccf02a51798"
        )
        report = json.loads(out.read_text())
        # 78 of the 853 graphs have fewer than 3 longest paths
        assert report["tallies"]["thm3"] == {"pass": 775, "fail": 0, "vacuous": 0}
        summary = capsys.readouterr().err.splitlines()[-1]
        assert summary.startswith("lplab: scanned 853 graphs")
        assert ", 0 failures, 0 lemma systems checked, " in summary

    def test_file_input(self, capsys, tmp_path, corpus_by_n):
        path = tmp_path / "corpus.g6"
        path.write_text("".join(encode_graph6(g) + "\n" for g in corpus_by_n[4]))
        assert cli(["search", "--file", str(path)]) == EXIT_OK
        assert "scanned 6 graphs" in capsys.readouterr().err

    def test_file_skips_disconnected_lines(self, tmp_path, capsys):
        path = tmp_path / "corpus.g6"
        path.write_text("A?\nCh\n")
        assert cli(["search", "--file", str(path), "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert "scanned 1 graphs (1 disconnected skipped)" in capsys.readouterr().err

    def test_strict_malformed(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("Ch\n??bad??\n")
        assert cli(["search", "--file", str(path), "--strict"]) == EXIT_USAGE

    def test_missing_file(self, capsys):
        assert cli(["search", "--file", "/nonexistent/x.g6"]) == EXIT_USAGE


class TestConstruct:
    def test_star_t1(self, capsys):
        assert cli(["construct", "Cs", "--paths", "longest", "--t", "1"]) == EXIT_OK
        blob = json.loads(capsys.readouterr().out)
        assert blob["vertex_count"] == 13
        # the members are longest in G_1
        g = parse_graph6(blob["graph6"])
        assert {len(m) - 1 for m in blob["members"]} == {longest_path_length(g)}
        assert blob["f"] == 0

    def test_explicit_paths(self, capsys):
        members = json.dumps([[1, 0, 2], [1, 0, 3], [2, 0, 3]])
        assert cli(["construct", "Cs", "--paths", members, "--t", "0"]) == EXIT_OK
        blob = json.loads(capsys.readouterr().out)
        assert blob["vertex_count"] == 7

    def test_bad_paths_json(self, capsys):
        assert cli(["construct", "Cs", "--paths", "{oops", "--t", "1"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "paths",
        (
            '[["a"]]',
            "[[0.5, 1]]",
            "5",
            '{"x": 1}',
            # true is not vertex 1: with 1 in its place this is the star's
            # three longest paths, which build G_t
            "[[1, 0, 2], [true, 0, 3], [2, 0, 3]]",
        ),
    )
    def test_malformed_paths_rejected(self, paths, capsys):
        assert cli(["construct", "Cs", "--paths", paths, "--t", "1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            'lplab: error: --paths takes "longest" or a JSON list of lists of vertex numbers\n'
        )

    def test_non_longest_member_rejected(self, capsys):
        assert cli(["construct", "Cs", "--paths", "[[0, 1]]", "--t", "1"]) == EXIT_USAGE

    def test_repeated_member_rejected(self, capsys):
        # [2, 0, 1] is member 0 read the other way
        paths = "[[1, 0, 2], [2, 0, 1], [2, 0, 3]]"
        assert cli(["construct", "Cs", "--paths", paths, "--t", "1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lplab: error: member 1 repeats member 0: [2, 0, 1]\n"

    def test_truncated_longest_paths_refused(self, capsys, monkeypatch):
        # K11 has 11!/2 = 19,958,400 longest paths, past the default cap: G_t
        # over the first 100,000 of them would be a silently short answer, so
        # the command stops before it builds G_t or any path
        def refuse(*args):
            raise AssertionError("built past a truncated path set")

        monkeypatch.setattr(lplab.longest, "_path", refuse)
        monkeypatch.setattr(cli_module, "build_gt", refuse)
        assert cli(["construct", "J~~~~~~~~~_", "--paths", "longest", "--t", "1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "lplab: error: more than 100000 longest paths (the path cap); "
            "--paths longest needs all of them\n"
        )
