"""Command-line interface: analyze, verify, search, construct, bounds."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

from typing import Optional, Sequence

from .bounds import (
    DEFAULT_CHECKS,
    check_names,
    frac_str,
    ratio_table,
    run_checks,
    theorem_bound,
    theorem_bound_parts,
)
from .construct import build_gt
from .errors import LplabError, UsageError
from .graphs import Graph, is_connected, parse_edge_list, parse_graph6
from .harness import (
    ScanConfig,
    check_conjecture,
    generate_connected_graphs,
    iter_ksubsets,
    scan_stream,
)
from .longest import DEFAULT_PATH_CAP, enumerate_longest_paths
from .systems import certified_system, make_path_system

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it


def load_graph(spec: str) -> Graph:
    """Load a connected graph from an inline graph6/sparse6 string or a file path.

    Files holding an 'n m' header parse as edge lists; otherwise the first
    nonempty line is taken as graph6/sparse6.  A disconnected graph is
    refused here, before any command works on it.
    """
    if os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        if len(first.split()) == 2 and all(p.isdigit() for p in first.split()):
            g = parse_edge_list(text)
        else:
            g = parse_graph6(first)
    else:
        g = parse_graph6(spec)
    if not is_connected(g):
        raise UsageError("the graph is disconnected; lplab needs a connected graph")
    return g


def _emit(payload: dict | list, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _check_k(args: argparse.Namespace, k_min: int) -> None:
    """Reject a k that would give an empty answer."""
    if args.k < k_min:
        raise UsageError(f"k must be >= {k_min}, got {args.k}")


def cmd_analyze(args: argparse.Namespace) -> int:
    _check_k(args, 2)
    g = load_graph(args.graph)
    # the members are read only where they share no vertex, and then the
    # walk that found ell holds them: spanning paths are only counted
    lps = enumerate_longest_paths(g, cap=args.path_cap)
    k = args.k
    verdict = check_conjecture(g, k, lps=lps)
    print(f"n = {g.n}, m = {g.m}")
    print(f"ell(G) = {lps.length}")
    print(f"|L(G)| = {len(lps)}{' (truncated)' if lps.truncated else ''}")
    pairwise, common_of = "pairwise intersection", "common vertices of all longest paths"
    if lps.truncated and lps.length < g.n - 1:
        # the paths past the cap may miss what the listed ones share
        listed = f" of the first {len(lps)} longest paths"
        pairwise, common_of = f"pairwise intersection{listed}", f"common vertices{listed}"
    if verdict.pair is None:
        print(f"{pairwise}: holds")
    else:
        i, j = verdict.pair
        print(
            f"{pairwise}: fails, longest paths {i} and {j} are disjoint: "
            f"{list(lps.paths[i].vertices)} {list(lps.paths[j].vertices)}"
        )
    common = lps.common_mask()
    print(f"{common_of}: {[v for v in range(g.n) if common >> v & 1]}")
    if not verdict.used_shortcut:
        work = f"{verdict.subsets_checked} search nodes"
    elif not lps.truncated:
        # the shortcut settles every k-subset of the paths, and searches none
        subsets = math.comb(len(lps), k)
        work = f"{subsets}/{subsets} subsets, via common-vertex shortcut"
    elif verdict.status == "no-violation":
        # the cap cut the list, so C(len(lps), k) is not the subset total
        work = (
            f"every {k}-subset of more than {len(lps)} longest paths, "
            "via common-vertex shortcut"
        )
    else:
        work = (
            f"{math.comb(len(lps), k)} subsets of the first {len(lps)} longest paths, "
            "via common-vertex shortcut"
        )
    print(f"k = {k}: {verdict.status} ({work})")
    if verdict.witness:
        print(f"witness: {json.dumps(verdict.witness)}")
    if len(lps) >= k:
        max_f = verdict.max_f if verdict.max_f_exact else f"at least {verdict.max_f}"
        print(f"max f over every {k}-subset: {max_f}")
    return EXIT_FINDING if verdict.witness else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _check_k(args, 3)
    if args.subset_cap < 1:
        raise UsageError(f"subset_cap must be >= 1, got {args.subset_cap}")
    g = load_graph(args.graph)
    checks = check_names(args.checks)
    # spanning paths are counted, and built on the first read of a member
    lps = enumerate_longest_paths(g, cap=args.path_cap)
    if lps.truncated:
        print(
            f"lplab: --path-cap {args.path_cap} truncated the longest paths; "
            f"subsets are drawn from the first {len(lps)}",
            file=sys.stderr,
        )
    if len(lps) < args.k:
        print(
            f"lplab: only {len(lps)} longest paths, no {args.k}-subsets",
            file=sys.stderr,
        )
        _emit([], args.out)
        return EXIT_OK
    reports = []
    failed = False
    for subset in iter_ksubsets(
        len(lps), args.k, args.subset_cap, args.seed, f"verify:{args.k}"
    ):
        ps = certified_system(g, [lps.paths[i] for i in subset], lps.length)
        for rep in run_checks(ps, checks):
            reports.append(rep.to_json())
            failed = failed or rep.status == "fail"
    _emit(reports, args.out)
    return EXIT_FINDING if failed else EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    config = ScanConfig(
        k=args.k,
        path_cap=args.path_cap,
        lemma_subset_cap=args.lemma_subset_cap,
        seed=args.seed,
        checks=check_names(args.checks),
        jobs=args.jobs,
        strict=args.strict,
    )
    if args.file:
        with open(args.file) as fh:
            source = fh.read().splitlines()
    else:
        start = time.monotonic()
        source = generate_connected_graphs(args.gen_n)
        print(
            f"lplab: generated {len(source)} connected graphs on {args.gen_n} "
            f"vertices in {time.monotonic() - start:.2f}s",
            file=sys.stderr,
        )
    report = scan_stream(source, config)
    _emit(report.to_json(), args.out)
    print(
        f"lplab: scanned {report.graphs_scanned} graphs "
        f"({report.graphs_skipped_disconnected} disconnected skipped), "
        f"conjecture: {report.conjecture_status}, "
        f"max f = {report.max_f}, max ratio = {frac_str(report.max_ratio)}, "
        f"{len(report.failures)} failures, "
        f"{report.lemma_systems} lemma systems checked, "
        f"{report.lemma_implied} implied by a common vertex, {report.wall_time:.2f}s",
        file=sys.stderr,
    )
    return EXIT_FINDING if report.has_findings else EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    if args.paths == "longest":
        # spanning paths are counted first, so a set past the cap is
        # refused before any of its paths is built
        lps = enumerate_longest_paths(g)
        if lps.truncated:
            raise UsageError(
                f"more than {DEFAULT_PATH_CAP} longest paths (the path cap); "
                f"--paths longest needs all of them"
            )
        ps = certified_system(g, lps.paths, lps.length)
    else:
        members = json.loads(args.paths)
        if not isinstance(members, list) or not all(
            isinstance(p, list) and all(type(v) is int for v in p) for p in members
        ):
            raise UsageError('--paths takes "longest" or a JSON list of lists of vertex numbers')
        ps = make_path_system(g, members, require_longest=True)
    result = build_gt(g, ps, args.t)
    _emit(result.to_json(), args.out)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.table is not None:
        for row in ratio_table(args.table):
            upper, lower = row["upper"], row["lower"]
            print(
                f"k={row['k']}: d_k <= {frac_str(upper)} ({float(upper):.6g}), "
                f"lower bound {frac_str(lower)} ({float(lower):.6g})"
            )
        return EXIT_OK
    if args.n is None:
        raise UsageError("bounds needs --n N or --table KMAX")
    bound = theorem_bound(args.k, args.n)
    parts = theorem_bound_parts(args.k, args.n)
    print(f"f <= {frac_str(bound)} ({float(bound):.6g})")
    if parts["k4"] is not None:
        print(
            f"  general-k formula gives {frac_str(parts['general'])}, "
            f"k=4 sharpening gives {frac_str(parts['k4'])}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lplab",
        description="Longest-path intersection toolkit: analyze, verify, search, construct, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--path-cap", type=int, default=DEFAULT_PATH_CAP)

    p = sub.add_parser("analyze", help="summarize longest paths and f of one graph")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run lemma/theorem checkers on one graph")
    p.add_argument("graph")
    p.add_argument("--checks", default=None, help="comma list: " + ",".join(DEFAULT_CHECKS))
    p.add_argument("--subset-cap", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="scan a corpus for counterexamples and extremal f")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", default=None, help="graph6/sparse6 file, one graph per line")
    src.add_argument("--gen-n", type=int, default=None, help="built-in connected corpus on N vertices")
    p.add_argument("--checks", default=None)
    p.add_argument("--lemma-subset-cap", type=int, default=ScanConfig.lemma_subset_cap)
    p.add_argument(
        "--jobs", type=int, default=ScanConfig.jobs, help="worker processes (default: %(default)s)"
    )
    p.add_argument("--seed", type=int, default=ScanConfig.seed)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("construct", help="build G_t from a base graph and path system")
    p.add_argument("graph")
    p.add_argument("--paths", required=True, help='"longest" or a JSON list of vertex arrays')
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("bounds", help="print theorem bounds / ratio table as exact rationals")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--table", type=int, default=None)
    p.set_defaults(func=cmd_bounds)

    return parser


def cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: point its descriptor at devnull, so that
        # the flush at exit writes nowhere instead of failing again
        with contextlib.suppress(AttributeError, OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (LplabError, json.JSONDecodeError, OSError) as exc:
        print(f"lplab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
